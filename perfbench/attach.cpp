// attach: full XPMEM segment lifecycles on one booted R420 node.
//
// The node runs a Linux management enclave, a Kitten co-kernel and a Linux
// VM on the Linux host, on the default engine, default KernelConfig and no
// noise. Each op is one round over four sharing paths, each a complete
// lifecycle of a 64 MiB segment: make -> search -> get -> attach -> touch
// -> detach -> release -> remove. Host time here is per-page data-structure
// work (page tables, PFN lists, the Palacios RB-tree, frame refcounts) plus
// name-service and routing hops, so RB-tree and page-table changes show
// here and a noise-model change should not.
#include <array>
#include <string>

#include "common/units.hpp"
#include "os/guest_linux.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace xemem;

constexpr u64 kRegion = 64_MiB;
constexpr u64 kProbes = 16;  ///< words written by the exporter, read back via the attachment
constexpr u64 kWarmup = ~u64{0};  ///< op index of the untimed warm-up round

struct Path {
  const char* name;
  const char* exporter;
  const char* attacher;
};
constexpr std::array<Path, 4> kPaths{{{"k2l", "kitten", "linux"},
                                      {"k2vm", "kitten", "vm"},
                                      {"vm2k", "vm", "kitten"},
                                      {"l2k", "linux", "kitten"}}};
constexpr std::array<const char*, 7> kCalls{"make",   "search",  "get",   "attach",
                                            "detach", "release", "remove"};
const std::vector<std::string> kEnclaves{"linux", "kitten", "vm"};

class AttachWorkload final : public Workload {
 public:
  using Workload::Workload;

  ~AttachWorkload() override { teardown(); }

  void setup() override {
    teardown();
    eng_ = std::make_unique<sim::Engine>(seed_);
    node_ = std::make_unique<Node>(hw::Machine::r420());
    {
      Scope s(tr_, "xemem.node_build", eng_.get());
      node_->add_linux_mgmt("linux", 0, {0, 1, 2, 3});
      node_->add_cokernel("kitten", 0, {6, 7}, 512_MiB);
      node_->add_vm("vm", "linux", 1_GiB, {4, 5});
    }
    {
      Scope s(tr_, "xemem.start", eng_.get());
      eng_->run(boot());
    }
    for (const auto& e : kEnclaves) {
      Scope s(tr_, "os.create_process", eng_.get(), e);
      exporter_[e] = node_->enclave(e).create_process(kRegion + kPageSize).value();
      attacher_[e] = node_->enclave(e).create_process(4_MiB).value();
    }
    if (tr_.recording()) ++setups_traced_;
    // Untimed warm-up round: first-use allocations, caches, routes.
    const bool rec = tr_.recording();
    tr_.set_recording(false);
    const bool warm_ok = eng_->run(round(kWarmup, false));
    tr_.set_recording(rec);
    XEMEM_ASSERT_MSG(warm_ok && node_->machine().pmem().total_refs() == 0,
                     "attach warm-up round failed");
  }

  OpResult op(u64 index, bool traced) override {
    const NodeCounters c0 = NodeCounters::read(*node_, kEnclaves);
    const u64 ev0 = eng_->events_processed();
    const u64 t0 = eng_->now();
    bool ok = false;
    {
      Scope s(tr_, "sim.run", eng_.get());
      ok = eng_->run(round(index, traced));
    }
    const u64 sim_ns = eng_->now() - t0;
    ok = ok && node_->machine().pmem().total_refs() == 0;
    fold(sim_ns);
    if (traced) {
      ++ops_;
      events_ += eng_->events_processed() - ev0;
      sim_ns_ += sim_ns;
      counters_ += NodeCounters::read(*node_, kEnclaves) - c0;
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
    m.set("sim.events_per_sim_s", events / (static_cast<double>(sim_ns_) / 1e9));
    m.set("sim.host_ns_per_event", run_us * 1e3 / events);
    counters_.set_per_op(m, ops);

    double create_ms = 0;
    for (double us : tr_.host_us("os.create_process")) create_ms += us / 1e3;
    m.set("os.create_process.host_ms", create_ms / static_cast<double>(setups_traced_));
    m.set("os.touch.host_us_p50", median(tr_.host_us("os.touch")));
    m.set("palacios.map_entries_peak", static_cast<double>(map_entries_peak_));
    double k2vm_attach_ns = 0;
    for (double us : tr_.sim_us("xemem.attach", "k2vm")) k2vm_attach_ns += us * 1e3;
    m.set("palacios.rbtree_share",
          k2vm_attach_ns > 0 ? static_cast<double>(k2vm_vmm_map_ns_) / k2vm_attach_ns : 0);

    for (const char* call : kCalls) {
      const std::string n = std::string("xemem.") + call;
      m.set(n + ".host_us_p50", median(tr_.host_us(n)));
      m.set(n + ".sim_us_p50", median(tr_.sim_us(n)));
    }
    for (const char* call : {"attach", "detach"}) {
      const std::string n = std::string("xemem.") + call;
      for (const Path& p : kPaths) {
        m.set(n + ".host_us_p50." + p.name, median(tr_.host_us(n, p.name)));
        m.set(n + ".sim_us_p50." + p.name, median(tr_.sim_us(n, p.name)));
      }
    }
    m.set("xemem.dedup_entries",
          static_cast<double>(NodeCounters::read(*node_, kEnclaves).dedup_entries));
  }

  void print_checks() const override {
    double total = 0;
    std::map<std::string, double> by_path;
    for (const Span& s : tr_.spans()) {
      if (s.name == "bench.path") {
        by_path[s.tag] += s.host_us();
        total += s.host_us();
      }
    }
    std::string top;
    for (const auto& [path, us] : by_path) {
      std::printf("  path %-5s %5.1f%% of round host time\n", path.c_str(),
                  total > 0 ? 100.0 * us / total : 0.0);
      if (top.empty() || us > by_path[top]) top = path;
    }
    std::printf("prediction: k2vm has the largest share of round host time: %s (largest: %s)\n",
                top == "k2vm" ? "met" : "NOT met", top.c_str());
  }

  EngineStamp engine() const override { return stamp_of(*eng_); }

 private:
  void teardown() {
    node_.reset();  // before the engine, as every harness orders them
    eng_.reset();
    exporter_.clear();
    attacher_.clear();
  }

  sim::Task<void> boot() { co_await node_->start(); }

  /// Await one XPMEM call inside a span named @p name, tagged @p path.
  template <typename T>
  sim::Task<Result<T>> call(const char* name, const char* path, sim::Task<Result<T>> t) {
    Scope s(tr_, name, eng_.get(), path);
    co_return co_await std::move(t);
  }

  /// One round: a segment lifecycle on every path. Returns whether every
  /// XPMEM call returned ok and every probe word read back intact.
  sim::Task<bool> round(u64 index, bool traced) {
    bool ok = true;
    for (u64 pi = 0; pi < kPaths.size(); ++pi) {
      Scope s(tr_, "bench.path", eng_.get(), kPaths[pi].name);
      ok = co_await lifecycle(kPaths[pi], mix(op_seed(seed_, index), pi), index, traced) && ok;
    }
    co_return ok;
  }

  sim::Task<bool> lifecycle(const Path& p, u64 s, u64 index, bool traced) {
    XememKernel& ek = node_->kernel(p.exporter);
    XememKernel& ak = node_->kernel(p.attacher);
    os::Enclave& eos = node_->enclave(p.exporter);
    os::Enclave& aos = node_->enclave(p.attacher);
    os::Process& ep = *exporter_.at(p.exporter);
    os::Process& ap = *attacher_.at(p.attacher);
    const Vaddr base = ep.image_base();

    // Seed-derived words at seed-derived places, checked through the mapping.
    Rng rng(s);
    std::array<u64, kProbes> off{}, val{};
    for (u64 k = 0; k < kProbes; ++k) {
      off[k] = rng.next() % (kRegion / sizeof(u64)) * sizeof(u64);
      val[k] = rng.next();
      if (!eos.proc_write(ep, base + off[k], &val[k], sizeof(u64)).ok()) co_return false;
    }

    const std::string name = "perfbench-" + std::to_string(index) + "-" + p.name;
    auto sid = co_await call("xemem.make", p.name, ek.xpmem_make(ep, base, kRegion, name));
    if (!sid.ok()) co_return false;
    auto found = co_await call("xemem.search", p.name, ak.xpmem_search(name));
    auto grant = co_await call("xemem.get", p.name, ak.xpmem_get(found.value_or(sid.value())));
    bool ok = found.ok() && found.value() == sid.value() && grant.ok();
    if (grant.ok()) {
      auto* guest = dynamic_cast<os::GuestLinuxEnclave*>(&aos);
      const u64 map0 = guest != nullptr ? guest->vmm_map_ns() : 0;
      auto att = co_await call("xemem.attach", p.name,
                               ak.xpmem_attach(ap, grant.value(), 0, kRegion));
      if (traced && guest != nullptr) {
        k2vm_vmm_map_ns_ += guest->vmm_map_ns() - map0;
        map_entries_peak_ = std::max(map_entries_peak_, guest->vm().memory_map().entries());
      }
      ok = ok && att.ok();
      if (att.ok()) {
        {
          Scope t(tr_, "os.touch", eng_.get(), p.name);
          co_await aos.touch_attached(ap, att.value().va, att.value().pages);
          for (u64 k = 0; k < kProbes; ++k) {
            u64 got = 0;
            ok = aos.proc_read(ap, att.value().va + off[k], &got, sizeof(u64)).ok() &&
                 got == val[k] && ok;
          }
        }
        ok = (co_await call("xemem.detach", p.name, ak.xpmem_detach(ap, att.value()))).ok() &&
             ok;
      }
      ok = (co_await call("xemem.release", p.name, ak.xpmem_release(grant.value()))).ok() && ok;
    }
    ok = (co_await call("xemem.remove", p.name, ek.xpmem_remove(ep, sid.value()))).ok() && ok;
    if (index == fail_op_ && index != kWarmup && grant.ok()) {
      // Test hook: attach through the grant of the segment just removed.
      auto stale = co_await ak.xpmem_attach(ap, grant.value(), 0, kRegion);
      ok = stale.ok() && ok;
      if (stale.ok()) (void)co_await ak.xpmem_detach(ap, stale.value());
    }
    if (index != kWarmup) fold(sid.value().value());
    co_return ok;
  }

  std::unique_ptr<sim::Engine> eng_;
  std::unique_ptr<Node> node_;
  std::map<std::string, os::Process*> exporter_;
  std::map<std::string, os::Process*> attacher_;

  // Layer counters, accumulated over traced ops only.
  u64 ops_{0};
  u64 events_{0};
  u64 sim_ns_{0};
  u64 setups_traced_{0};
  NodeCounters counters_;
  u64 k2vm_vmm_map_ns_{0};
  u64 map_entries_peak_{0};
};

}  // namespace

std::unique_ptr<Workload> make_attach(u64 seed, Tracer& tr) {
  return std::make_unique<AttachWorkload>(seed, tr);
}

}  // namespace perfbench
