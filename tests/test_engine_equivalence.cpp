// Same-seed serial-vs-parallel engine equivalence (DESIGN.md §12).
//
// The determinism contract of the engine split: for a given seed, a
// workload produces bit-identical end-state statistics on the serial
// engine and on the parallel engine at any worker count. Single-partition
// runs must match event-for-event (same processed count, same final
// clock); multi-partition runs must agree on every digest recorded before
// the root's completion. Each representative workload family from the
// repo's evaluation suite — fault-injected protocol traffic, name-service
// sharding, cross-enclave collectives, and the burst-buffer I/O cache —
// runs here under both engines.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/units.hpp"
#include "workloads/multinode.hpp"
#include "xemem/fault.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

using sim::EngineKind;

/// End-state fingerprint of one run: exact equality across engines is the
/// assertion. `extra` carries the workload's own statistics digest.
struct Digest {
  u64 end_ns{0};
  u64 processed{0};
  u64 scheduled{0};
  u64 extra{0};

  bool operator==(const Digest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{end=" << d.end_ns << " processed=" << d.processed
            << " scheduled=" << d.scheduled << " extra=" << d.extra << "}";
}

u64 mix(u64 h, u64 v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

KernelConfig tight_config() {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 6;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 1_ms;
  return cfg;
}

/// Fault workload: lossy-channel attach traffic driven through retries
/// (the test_fault acceptance shape).
Digest run_fault_workload(EngineKind kind) {
  sim::Engine eng(7001, kind, 1);
  Node node(hw::Machine::r420());
  node.set_kernel_config(tight_config());
  node.enable_fault_injection(FaultSpec::loss(0.10), /*seed=*/501);
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);

  bool ok = true;
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* owner = node.enclave("ck").create_process(8_MiB).value();
    os::Process* user = node.enclave("linux").create_process(1_MiB).value();
    auto sid = co_await ck.xpmem_make(*owner, owner->image_base(), 1_MiB);
    ok = ok && sid.ok();
    for (int i = 0; i < 8; ++i) {
      auto grant = co_await mgmt.xpmem_get(sid.value());
      if (!grant.ok()) {
        ok = false;
        continue;
      }
      auto att = co_await mgmt.xpmem_attach(*user, grant.value(), 0, 1_MiB);
      ok = ok && att.ok();
      if (att.ok()) {
        ok = (co_await mgmt.xpmem_detach(*user, att.value())).ok() && ok;
      }
      ok = (co_await mgmt.xpmem_release(grant.value())).ok() && ok;
    }
  };
  eng.run(main());

  Digest d{eng.now(), eng.events_processed(), eng.events_scheduled(), 0};
  d.extra = mix(d.extra, ok ? 1 : 0);
  for (const auto& ep : node.faulty_endpoints()) {
    const auto& fs = ep->fault_stats();
    d.extra = mix(d.extra, fs.dropped);
    d.extra = mix(d.extra, fs.duplicated);
    d.extra = mix(d.extra, fs.delayed);
    d.extra = mix(d.extra, fs.passed);
  }
  return d;
}

/// Name-service sharding workload: quorum-replicated shards idling under
/// heartbeat/lease traffic (the renewal-ablation shape).
Digest run_ns_shard_workload(EngineKind kind) {
  KernelConfig cfg = tight_config();
  cfg.lease_duration = 5_ms;
  cfg.ns_shards = {{1, 2}, {1, 2}, {1, 2}};
  sim::Engine eng(808, kind, 1);
  Node node(hw::Machine::r420());
  node.set_kernel_config(cfg);
  node.add_linux_mgmt("linux", 0, {0, 1});
  node.add_cokernel("cka", 0, {2, 3}, 256_MiB);
  node.add_cokernel("ckb", 0, {4, 5}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    co_await sim::delay(25_ms);
  };
  eng.run(main());

  Digest d{eng.now(), eng.events_processed(), eng.events_scheduled(), 0};
  for (const char* n : {"linux", "cka", "ckb"}) {
    d.extra = mix(d.extra, node.kernel(n).stats().heartbeats_sent);
    d.extra = mix(d.extra, node.kernel(n).stats().leases_expired);
  }
  return d;
}

workloads::MultinodeParams small_coll(EngineKind kind, u32 workers,
                                      u32 nodes) {
  workloads::MultinodeParams p;
  p.kind = kind;
  p.workers = workers;
  p.nodes = nodes;
  p.ranks_per_node = 4;
  p.enclaves_per_node = 2;
  p.iters = 3;
  p.bytes = 8192;
  return p;
}

workloads::MultinodeParams small_io(EngineKind kind, u32 workers, u32 nodes) {
  workloads::MultinodeParams p;
  p.kind = kind;
  p.workers = workers;
  p.nodes = nodes;
  p.clients_per_node = 2;
  p.ops_per_rank = 32;
  p.epoch_ops = 16;
  p.capacity_blocks = 16;
  p.file_blocks = 32;
  return p;
}

Digest digest_of(const workloads::MultinodeResult& r) {
  // Multi-partition runs may overrun the root's completion on the
  // parallel engine, so event counts are NOT part of the contract there —
  // the checksum covers everything recorded before the closing barrier.
  return Digest{static_cast<u64>(r.sim_ms * 1e6), 0, 0,
                mix(r.checksum, r.clean ? 1 : 0)};
}

TEST(EngineEquivalence, FaultWorkloadSameSeedSameStats) {
  EXPECT_EQ(run_fault_workload(EngineKind::serial),
            run_fault_workload(EngineKind::parallel));
}

TEST(EngineEquivalence, NsShardWorkloadSameSeedSameStats) {
  EXPECT_EQ(run_ns_shard_workload(EngineKind::serial),
            run_ns_shard_workload(EngineKind::parallel));
}

TEST(EngineEquivalence, CollectivesSingleNodeExactMatch) {
  // One node = one partition: the parallel engine must match the serial
  // one event-for-event, including totals.
  auto a = workloads::run_multinode_collectives(
      small_coll(EngineKind::serial, 1, 1));
  auto b = workloads::run_multinode_collectives(
      small_coll(EngineKind::parallel, 1, 1));
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.sim_ms, b.sim_ms);
  EXPECT_EQ(a.events, b.events);
  EXPECT_TRUE(a.clean && b.clean);
}

TEST(EngineEquivalence, IocacheSingleNodeExactMatch) {
  auto a = workloads::run_multinode_iocache(small_io(EngineKind::serial, 1, 1));
  auto b =
      workloads::run_multinode_iocache(small_io(EngineKind::parallel, 1, 1));
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.sim_ms, b.sim_ms);
  EXPECT_EQ(a.events, b.events);
  EXPECT_TRUE(a.clean && b.clean);
}

TEST(EngineEquivalence, CollectivesMultiNodeSerialVsParallel) {
  auto a = workloads::run_multinode_collectives(
      small_coll(EngineKind::serial, 1, 4));
  auto b = workloads::run_multinode_collectives(
      small_coll(EngineKind::parallel, 2, 4));
  EXPECT_TRUE(a.clean);
  EXPECT_TRUE(b.clean);
  EXPECT_EQ(digest_of(a), digest_of(b));
}

TEST(EngineEquivalence, IocacheMultiNodeSerialVsParallel) {
  auto a = workloads::run_multinode_iocache(small_io(EngineKind::serial, 1, 3));
  auto b =
      workloads::run_multinode_iocache(small_io(EngineKind::parallel, 3, 3));
  EXPECT_TRUE(a.clean);
  EXPECT_TRUE(b.clean);
  EXPECT_EQ(digest_of(a), digest_of(b));
}

TEST(EngineEquivalence, ParallelRunsAreRepeatable) {
  // Thread-schedule independence: two parallel runs of the same seed give
  // the same digest even though worker interleavings differ.
  auto a = workloads::run_multinode_collectives(
      small_coll(EngineKind::parallel, 2, 4));
  auto b = workloads::run_multinode_collectives(
      small_coll(EngineKind::parallel, 2, 4));
  EXPECT_EQ(digest_of(a), digest_of(b));
}

TEST(EngineEquivalence, WorkerCountDoesNotChangeResults) {
  const auto base = digest_of(workloads::run_multinode_collectives(
      small_coll(EngineKind::serial, 1, 4)));
  for (u32 w : {1u, 2u, 4u}) {
    const auto d = digest_of(workloads::run_multinode_collectives(
        small_coll(EngineKind::parallel, w, 4)));
    EXPECT_EQ(base, d) << "workers=" << w;
  }
}

u64 fold_fabric(const FabricStats& f) {
  u64 h = 0;
  h = mix(h, f.fabric_drops);
  h = mix(h, f.fabric_dups);
  h = mix(h, f.fabric_delayed);
  h = mix(h, f.fabric_retransmits);
  h = mix(h, f.fabric_dedup);
  h = mix(h, f.fabric_stale);
  h = mix(h, f.fabric_probes);
  h = mix(h, f.fabric_acks);
  h = mix(h, f.fabric_node_failures);
  h = mix(h, f.collectives_failed);
  h = mix(h, f.rebuilds);
  return h;
}

TEST(EngineEquivalence, FaultyFabricKillSameSeedSameStats) {
  // The reliability layer's whole event vocabulary — drops, duplicate
  // deliveries, retransmit timers, probes, a mid-run rank kill with
  // failure detection and rebuild — must replay bit-identically across
  // engines and worker counts, drained fabric counters included.
  auto p = small_coll(EngineKind::serial, 1, 3);
  p.fabric_faults.drop = 0.05;
  p.fabric_faults.dup = 0.05;
  p.fabric_fault_seed = 909;
  const auto probe = workloads::run_multinode_collectives(p);
  p.kill_rank = 2;
  p.kill_time_ns = static_cast<u64>(probe.sim_ms * 1e6 * 0.5);
  ASSERT_GT(p.kill_time_ns, 0u);

  const auto a = workloads::run_multinode_collectives(p);
  EXPECT_EQ(a.survivors, 2u);
  EXPECT_GT(fold_fabric(a.fabric), 0u);
  for (u32 w : {1u, 2u, 3u}) {
    auto q = p;
    q.kind = EngineKind::parallel;
    q.workers = w;
    const auto b = workloads::run_multinode_collectives(q);
    EXPECT_EQ(digest_of(a), digest_of(b)) << "workers=" << w;
    EXPECT_EQ(fold_fabric(a.fabric), fold_fabric(b.fabric))
        << "workers=" << w;
    EXPECT_EQ(a.survivors, b.survivors) << "workers=" << w;
  }
}

}  // namespace
}  // namespace xemem
