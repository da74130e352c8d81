// insitu: the paper's Figure 8 round, on the default engine with the
// standard noise signature on.
//
// Each op runs the four enclave configurations of Table 3, each one full
// HPCCG+STREAM simulation (600 iterations, a signal every 40, 512 MiB
// region, synchronous, one-time attachment) with a fresh seed per op. This
// harness family costs the most host time and noise actors make up most of
// it, so a lazy noise model or a cheaper event loop shows here, while the
// attach path runs only once per simulation.
#include <array>
#include <bit>
#include <string>

#include "common/units.hpp"
#include "perfbench.hpp"
#include "workloads/insitu.hpp"

namespace perfbench {
namespace {

using namespace xemem;

struct Config {
  const char* name;
  std::vector<std::string> enclaves;  ///< every enclave the topology adds
  const char* sim;
  const char* analytics;
};
const std::array<Config, 4> kConfigs{{
    {"linux_linux", {"linux"}, "linux", "linux"},
    {"kitten_linux", {"linux", "sim"}, "sim", "linux"},
    {"vm_on_linux", {"linux", "sim", "vm"}, "sim", "vm"},
    {"vm_on_kitten", {"linux", "sim", "vmhost", "vm"}, "sim", "vm"},
}};

/// The Figure 8 topologies on the OptiPlex (bench/fig8_single_node_insitu).
void build(Node& node, size_t c) {
  switch (c) {
    case 0:
      node.add_linux_mgmt("linux", 0, {0, 1, 2, 3, 4, 5, 6, 7});
      break;
    case 1:
      node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
      node.add_cokernel("sim", 0, {4, 5, 6, 7}, 768_MiB);
      break;
    case 2:
      node.add_linux_mgmt("linux", 0, {0, 1});
      node.add_cokernel("sim", 0, {4, 5, 6, 7}, 768_MiB);
      node.add_vm("vm", "linux", 256_MiB, {2, 3});
      break;
    default:
      node.add_linux_mgmt("linux", 0, {0, 1});
      node.add_cokernel("sim", 0, {4, 5, 6, 7}, 768_MiB);
      node.add_cokernel("vmhost", 0, {2, 3}, 384_MiB);
      node.add_vm("vm", "vmhost", 256_MiB, {3});
      break;
  }
}

/// Figure 8's synchronous one-time cell (fig8_single_node_insitu's
/// base_config) with @p iterations CG iterations.
workloads::InsituConfig insitu_config(u32 iterations) {
  workloads::InsituConfig cfg;
  cfg.iterations = iterations;
  cfg.signal_every = 40;
  cfg.region_bytes = 512_MiB;
  cfg.sim_compute_ns = 162'000'000;
  cfg.sim_mem_bytes = 1_GiB;
  cfg.poll_interval = 2'000'000;
  return cfg;
}

constexpr u32 kIterations = 600;
constexpr u32 kWarmupIterations = 40;  ///< one communication point

struct SimOut {
  bool ok{false};
  workloads::InsituResult r;
  u64 events{0};
  u64 sim_ns{0};
  NodeCounters counters;
};

class InsituWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    const bool rec = tr_.recording();
    tr_.set_recording(false);
    bool ok = true;
    for (size_t c = 0; c < kConfigs.size(); ++c) {
      ok = one_sim(c, mix(seed_, c), kWarmupIterations).ok && ok;
    }
    tr_.set_recording(rec);
    XEMEM_ASSERT_MSG(ok, "insitu warm-up failed");
  }

  OpResult op(u64 index, bool traced) override {
    bool ok = true;
    u64 sim_ns = 0;
    for (size_t c = 0; c < kConfigs.size(); ++c) {
      const SimOut o = one_sim(c, mix(op_seed(seed_, index), c), kIterations);
      ok = o.ok && ok;
      sim_ns += o.sim_ns;
      fold(std::bit_cast<u64>(o.r.sim_seconds));
      fold(std::bit_cast<u64>(o.r.analytics_seconds));
      fold(std::bit_cast<u64>(o.r.residual));
      fold(o.r.attaches_performed);
      fold(o.events);
      if (traced) {
        events_ += o.events;
        sim_ns_total_ += o.sim_ns;
        counters_ += o.counters;
        dedup_peak_ = std::max(dedup_peak_, o.counters.dedup_entries);
        sim_s_[c] += o.r.sim_seconds;
        if (c == 0) ++ops_;
      }
    }
    return {ok, static_cast<double>(sim_ns) / 1e6};
  }

  void layer_metrics(Metrics& m) const override {
    if (ops_ == 0) return;
    const double ops = static_cast<double>(ops_);
    const double events = static_cast<double>(events_);
    double run_us = 0;
    for (double us : tr_.host_us("sim.run")) run_us += us;
    m.set("sim.events_per_op", events / ops);
    m.set("sim.events_per_sim_s", events / (static_cast<double>(sim_ns_total_) / 1e9));
    m.set("sim.host_ns_per_event", run_us * 1e3 / events);
    counters_.set_per_op(m, ops);
    m.set("xemem.dedup_entries", static_cast<double>(dedup_peak_));
    for (size_t c = 0; c < kConfigs.size(); ++c) {
      const std::string n = kConfigs[c].name;
      m.set("workloads.insitu.host_ms_p50." + n,
            median(tr_.host_us("workloads.run_insitu", n)) / 1e3);
      m.set("workloads.insitu.sim_s." + n, sim_s_[c] / ops);
    }
  }

  void print_checks() const override {
    if (ops_ == 0) return;
    const double irq = static_cast<double>(counters_.irq_events);
    const double ev = static_cast<double>(events_);
    std::printf("prediction: hw.irq_events_per_op >= sim.events_per_op / 3: %s (ratio %.3f)\n",
                irq * 3 >= ev ? "met" : "NOT met", irq / ev);
  }

  EngineStamp engine() const override { return stamp_; }

 private:
  /// One full in-situ simulation of configuration @p c in a fresh world.
  SimOut one_sim(size_t c, u64 seed, u32 iterations) {
    const Config& cfg = kConfigs[c];
    SimOut out;
    sim::Engine eng(seed);
    stamp_ = stamp_of(eng);
    Node node(hw::Machine::optiplex());
    {
      Scope s(tr_, "xemem.node_build", &eng, cfg.name);
      build(node, c);
    }
    auto main = [&]() -> sim::Task<void> {
      {
        Scope s(tr_, "xemem.start", &eng, cfg.name);
        co_await node.start();
      }
      {
        Scope s(tr_, "hw.spawn_noise", &eng, cfg.name);
        Rng noise_rng(mix(seed, 977));
        node.spawn_std_noise(eng, noise_rng);
      }
      Scope s(tr_, "workloads.run_insitu", &eng, cfg.name);
      out.r = co_await workloads::run_insitu(node, cfg.sim, cfg.analytics,
                                             insitu_config(iterations));
    };
    {
      Scope s(tr_, "sim.run", &eng, cfg.name);
      eng.run(main());
    }
    out.events = eng.events_processed();
    out.sim_ns = eng.now();
    out.counters = NodeCounters::read(node, cfg.enclaves);
    out.ok = out.r.residual < 1e-8 && node.machine().pmem().total_refs() == 0 &&
             out.r.attaches_performed == 1;
    return out;
  }

  EngineStamp stamp_;
  u64 ops_{0};
  u64 events_{0};
  u64 sim_ns_total_{0};
  NodeCounters counters_;
  u64 dedup_peak_{0};
  std::array<double, 4> sim_s_{};
};

}  // namespace

std::unique_ptr<Workload> make_insitu(u64 seed, Tracer& tr) {
  return std::make_unique<InsituWorkload>(seed, tr);
}

}  // namespace perfbench
