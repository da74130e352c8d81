// multinode: the partitioned multi-node workloads on the parallel engine.
//
// Each op is one fault-free run_multinode_collectives (4 nodes x 4
// enclaves) followed by one run_multinode_iocache (4 nodes, 2 clients
// each). This is the only workload where the partitioned engine, the
// fabric, collectives and the I/O cache do most of the work: tens of
// thousands of small events across 4 partitions, no noise actors, and the
// attach path used for 16 KiB blocks.
//
// The timed ops run on 1 worker thread. On a shared 4-vCPU host, 4-worker
// run times swing by half from one second to the next with the other
// tenants' load (measured: 52% coefficient of variation over 0.8 s blocks,
// against 12% for 1 worker), which no reference kernel can compensate.
// After the loop every seed of the pool runs once more on 4 workers and
// must match bit for bit, so the parallel engine's equivalence is still
// checked on every run.
#include <bit>
#include <cstdio>

#include "perfbench.hpp"
#include "workloads/multinode.hpp"

namespace perfbench {
namespace {

using namespace xemem;

constexpr u32 kNodes = 4;
constexpr u32 kWorkers = 1;        ///< timed ops
constexpr u32 kVerifyWorkers = 4;  ///< the post-loop equivalence check

workloads::MultinodeParams params(u64 seed, u32 workers) {
  workloads::MultinodeParams p;
  p.kind = sim::EngineKind::parallel;
  p.workers = workers;
  p.nodes = kNodes;
  p.seed = seed;
  p.enclaves_per_node = 4;
  p.clients_per_node = 2;
  return p;
}

struct Pair {
  workloads::MultinodeResult coll;
  workloads::MultinodeResult io;
};

class MultinodeWorkload final : public Workload {
 public:
  using Workload::Workload;

  /// Setup r adds entry r to the seed pool the ops draw from and warms up
  /// on it; its result is the reference every op on that seed must match.
  void setup() override {
    const u64 s = op_seed(seed_, pool_.size() + (u64{1} << 32));
    const bool rec = tr_.recording();
    tr_.set_recording(false);
    const Pair ref = run_pair(s, kWorkers);
    tr_.set_recording(rec);
    pool_.push_back({s, ref, 0});
    XEMEM_ASSERT_MSG(ref.coll.clean && ref.io.clean, "multinode warm-up run failed");
  }

  OpResult op(u64 index, bool traced) override {
    Entry& e = pool_[index % pool_.size()];
    ++e.ops;
    const Pair got = run_pair(e.seed, kWorkers);
    fold(got.coll.checksum);
    fold(got.io.checksum);
    fold(std::bit_cast<u64>(got.coll.sim_ms));
    fold(std::bit_cast<u64>(got.io.sim_ms));
    if (traced) {
      ++ops_;
      coll_events_ += got.coll.events;
      io_events_ += got.io.events;
      coll_sim_ms_ += got.coll.sim_ms;
      io_sim_ms_ += got.io.sim_ms;
    }
    return {agrees(got, e.ref), got.coll.sim_ms + got.io.sim_ms};
  }

  u64 verify() override {
    const bool rec = tr_.recording();
    tr_.set_recording(false);
    u64 failed = 0;
    for (const Entry& e : pool_) {
      failed += agrees(run_pair(e.seed, kVerifyWorkers), e.ref) ? 0 : e.ops;
    }
    tr_.set_recording(rec);
    std::printf("equivalence: %zu pool seeds re-run on %u workers, %s\n", pool_.size(),
                kVerifyWorkers, failed == 0 ? "bit-identical" : "MISMATCH");
    return failed;
  }

  void layer_metrics(Metrics& m) const override {
    if (ops_ == 0) return;
    const double ops = static_cast<double>(ops_);
    const double events = static_cast<double>(coll_events_ + io_events_);
    double host_us = 0;
    for (const char* n : {"workloads.multinode_coll", "workloads.multinode_io"}) {
      for (double us : tr_.host_us(n)) host_us += us;
    }
    m.set("sim.events_per_op", events / ops);
    m.set("sim.events_per_sim_s", events / ((coll_sim_ms_ + io_sim_ms_) / 1e3));
    m.set("sim.host_ns_per_event", host_us * 1e3 / events);
    m.set("workloads.multinode_coll.host_ms_p50",
          median(tr_.host_us("workloads.multinode_coll")) / 1e3);
    m.set("workloads.multinode_coll.events", static_cast<double>(coll_events_) / ops);
    m.set("workloads.multinode_coll.sim_ms", coll_sim_ms_ / ops);
    m.set("workloads.multinode_io.host_ms_p50",
          median(tr_.host_us("workloads.multinode_io")) / 1e3);
    m.set("workloads.multinode_io.events", static_cast<double>(io_events_) / ops);
    m.set("workloads.multinode_io.sim_ms", io_sim_ms_ / ops);
  }

  EngineStamp engine() const override {
    sim::Engine probe(seed_, sim::EngineKind::parallel, kWorkers);
    probe.set_partitions(kNodes);
    return stamp_of(probe);
  }

 private:
  /// Clean, all nodes alive, and bit-identical to the reference.
  static bool agrees(const Pair& got, const Pair& ref) {
    return got.coll.clean && got.io.clean && got.coll.survivors == kNodes &&
           got.io.survivors == kNodes && got.coll.checksum == ref.coll.checksum &&
           got.io.checksum == ref.io.checksum && got.coll.sim_ms == ref.coll.sim_ms &&
           got.io.sim_ms == ref.io.sim_ms;
  }

  Pair run_pair(u64 seed, u32 workers) {
    Pair p;
    {
      const u32 h = tr_.begin("workloads.multinode_coll", 0);
      p.coll = workloads::run_multinode_collectives(params(seed, workers));
      tr_.end(h, static_cast<u64>(p.coll.sim_ms * 1e6));
    }
    {
      const u32 h = tr_.begin("workloads.multinode_io", 0);
      p.io = workloads::run_multinode_iocache(params(seed, workers));
      tr_.end(h, static_cast<u64>(p.io.sim_ms * 1e6));
    }
    return p;
  }

  struct Entry {
    u64 seed;
    Pair ref;
    u64 ops;  ///< ops run on this seed
  };
  std::vector<Entry> pool_;
  u64 ops_{0};
  u64 coll_events_{0};
  u64 io_events_{0};
  double coll_sim_ms_{0};
  double io_sim_ms_{0};
};

}  // namespace

std::unique_ptr<Workload> make_multinode(u64 seed, Tracer& tr) {
  return std::make_unique<MultinodeWorkload>(seed, tr);
}

}  // namespace perfbench
