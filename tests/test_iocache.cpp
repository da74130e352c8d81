// Cross-enclave burst-buffer I/O cache (src/iocache/, DESIGN.md §11):
// directory-segment resolution with attach-on-read, lease-guarded and
// capability-revoking eviction, write-back to the modeled backing store,
// server-crash terminal faults with takeover recovery (deterministic
// crashpoint sweep over the write-back path), batched lease renewals, and
// the attach-counter attribution rules.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "iocache/cache.hpp"
#include "iocache/replay.hpp"
#include "xemem/system.hpp"

#define CO_ASSERT_TRUE(x)                            \
  do {                                               \
    if (!(x)) {                                      \
      ADD_FAILURE() << "CO_ASSERT_TRUE failed: " #x; \
      co_return;                                     \
    }                                                \
  } while (0)

namespace xemem {
namespace {

using iocache::BackingStore;
using iocache::CacheClient;
using iocache::CacheServer;

KernelConfig io_kernel_config(bool caps) {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 3;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  cfg.lease_duration = 5_ms;  // NS GC window for the crash/recovery tests
  cfg.capabilities = caps;
  return cfg;
}

/// One server enclave + N client enclaves on socket 0 of the r420.
struct Cluster {
  sim::Engine eng;
  Node node{hw::Machine::r420()};
  iocache::Config io;
  BackingStore store;

  Cluster(u64 seed, iocache::Config cfg, bool spare_server = false)
      : eng(seed), io(cfg), store(cfg.file_blocks, 42) {
    node.set_kernel_config(io_kernel_config(cfg.use_capabilities));
    node.add_linux_mgmt("linux", 0, {0, 1});
    node.add_cokernel("srv0", 0, {2, 3}, 512_MiB);
    if (spare_server) node.add_cokernel("srv1", 0, {4, 5}, 512_MiB);
    const u32 base = spare_server ? 6 : 4;
    for (u32 c = 0; c < io.num_clients; ++c) {
      node.add_cokernel("cli" + std::to_string(c), 0, {base + c}, 256_MiB);
    }
  }

  std::unique_ptr<CacheServer> server(const std::string& name, u32 shard = 0) {
    return std::make_unique<CacheServer>(node.kernel(name), node.enclave(name),
                                         shard, io, store);
  }
  std::unique_ptr<CacheClient> client(u32 c) {
    const std::string n = "cli" + std::to_string(c);
    return std::make_unique<CacheClient>(node.kernel(n), node.enclave(n), c,
                                         io);
  }
};

/// Round-robin read barrage used by the eviction-race test: every read
/// must return the backing store's stamp, whatever eviction interleaving
/// the engine produces.
sim::Task<void> hammer_reads(CacheClient* c, BackingStore* store, u64 nblocks,
                             u64 offset, u64 ops, u32* pending,
                             sim::Event* done) {
  for (u64 i = 0; i < ops; ++i) {
    const u64 b = (i + offset) % nblocks;
    auto r = co_await c->read(b);
    if (!r.ok()) {
      ADD_FAILURE() << "read of block " << b << " failed";
    } else {
      EXPECT_EQ(r.value(), store->stamp(b));
    }
  }
  if (--*pending == 0) done->set();
}

TEST(IoCache, EndToEndReadWriteThroughSharedMemory) {
  // Data integrity end to end in lease mode: cold reads fetch from the
  // backing store, a second client re-resolves the same resident blocks
  // without re-fetching, writes through one client's attachment are
  // visible to the other (same physical block segment), and an orderly
  // stop writes every dirty block back.
  iocache::Config io;
  io.file_blocks = 8;
  io.capacity_blocks = 8;
  io.block_bytes = 16_KiB;
  io.num_clients = 2;
  Cluster f(101, io);
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto srv = f.server("srv0");
    auto c0 = f.client(0);
    auto c1 = f.client(1);
    CO_ASSERT_TRUE((co_await c0->start()).ok());
    CO_ASSERT_TRUE((co_await c1->start()).ok());
    CO_ASSERT_TRUE((co_await srv->start()).ok());

    for (u64 b = 0; b < io.file_blocks; ++b) {
      auto r = co_await c0->read(b);
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value(), f.store.stamp(b));
    }
    EXPECT_EQ(f.store.reads(), io.file_blocks);
    EXPECT_EQ(srv->stats().misses, io.file_blocks);

    // Second client: every block already resident — attach-on-read, no
    // backing-store traffic; a re-read of the same handle is a warm hit.
    for (int pass = 0; pass < 2; ++pass) {
      for (u64 b = 0; b < io.file_blocks; ++b) {
        auto r = co_await c1->read(b);
        CO_ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value(), f.store.stamp(b));
      }
    }
    EXPECT_EQ(f.store.reads(), io.file_blocks);
    EXPECT_EQ(c1->metrics().cold, 0u);
    EXPECT_EQ(c1->metrics().attaches, io.file_blocks);

    // Writes through c0's attachments are immediately visible to c1.
    for (u64 b = 0; b < 4; ++b) {
      CO_ASSERT_TRUE((co_await c0->write(b, 7000 + b)).ok());
      auto r = co_await c1->read(b);
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value(), 7000 + b);
    }
    // MARK_DIRTY rides the ring asynchronously: give the poll loop a few
    // ticks to drain before asserting the dirty census.
    for (int spin = 0; spin < 64 && srv->dirty_blocks() < 4; ++spin) {
      co_await sim::delay(io.poll_interval);
    }
    EXPECT_EQ(srv->dirty_blocks(), 4u);

    // Server-side hits count TOUCHed cached-handle accesses — a subset of
    // the clients' warm completions (fresh attaches register a lease, not
    // a touch).
    EXPECT_GT(srv->stats().hits, 0u);
    EXPECT_LE(srv->stats().hits, c0->metrics().hits + c1->metrics().hits);

    co_await c0->shutdown();
    co_await c1->shutdown();
    EXPECT_EQ(c0->cached_handles(), 0u);
    CO_ASSERT_TRUE((co_await srv->stop()).ok());
    EXPECT_EQ(srv->stats().writebacks, 4u);
    EXPECT_EQ(srv->resident_blocks(), 0u);
    for (u64 b = 0; b < 4; ++b) EXPECT_EQ(f.store.stamp(b), 7000 + b);

    for (const char* n : {"linux", "srv0", "cli0", "cli1"}) {
      EXPECT_EQ(f.node.kernel(n).pinned_frames(), 0u) << n;
    }
  };
  f.eng.run(main());
}

TEST(IoCache, CapacityEvictionLruThenClock) {
  // A sequential sweep over 3x capacity evicts in LRU order and leaves
  // exactly the most recent blocks resident; re-reading those is free.
  // Then the same sweep under the clock policy also converges (second
  // chances granted, capacity respected).
  for (auto policy : {iocache::EvictPolicy::lru, iocache::EvictPolicy::clock}) {
    iocache::Config io;
    io.file_blocks = 12;
    io.capacity_blocks = 4;
    io.block_bytes = 16_KiB;
    io.num_clients = 1;
    io.block_lease = 200_us;
    io.policy = policy;
    Cluster f(202, io);
    auto main = [&]() -> sim::Task<void> {
      co_await f.node.start();
      auto srv = f.server("srv0");
      auto c0 = f.client(0);
      CO_ASSERT_TRUE((co_await c0->start()).ok());
      CO_ASSERT_TRUE((co_await srv->start()).ok());

      for (u64 b = 0; b < 12; ++b) {
        auto r = co_await c0->read(b);
        CO_ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value(), f.store.stamp(b));
      }
      EXPECT_EQ(f.store.reads(), 12u);
      EXPECT_EQ(srv->stats().misses, 12u);
      EXPECT_EQ(srv->stats().evictions, 8u);
      EXPECT_EQ(srv->resident_blocks(), 4u);

      // The resident set is the tail of the sweep: re-reads fetch nothing.
      for (u64 b = 8; b < 12; ++b) {
        CO_ASSERT_TRUE((co_await c0->read(b)).ok());
      }
      EXPECT_EQ(f.store.reads(), 12u);

      co_await c0->shutdown();
      CO_ASSERT_TRUE((co_await srv->stop()).ok());
      EXPECT_EQ(srv->stats().writebacks, 0u);  // read-only workload
      for (const char* n : {"srv0", "cli0"}) {
        EXPECT_EQ(f.node.kernel(n).pinned_frames(), 0u) << n;
      }
    };
    f.eng.run(main());
  }
}

TEST(IoCache, CapabilityEvictionRevokesExactAttachmentCounts) {
  // Capability mode: evicting a block with two live attachers live-unmaps
  // exactly those two attachments via cap_revoke (counted in the kernel's
  // revoke_unmaps), the clients take clean terminal statuses and
  // re-resolve, and no owner pins leak.
  iocache::Config io;
  io.file_blocks = 3;
  io.capacity_blocks = 2;
  io.block_bytes = 16_KiB;
  io.num_clients = 2;
  io.use_capabilities = true;
  Cluster f(303, io);
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto srv = f.server("srv0");
    auto c0 = f.client(0);
    auto c1 = f.client(1);
    CO_ASSERT_TRUE((co_await c0->start()).ok());
    CO_ASSERT_TRUE((co_await c1->start()).ok());
    CO_ASSERT_TRUE((co_await srv->start()).ok());

    // Block 0 gets two attachers; block 1 one. LRU victim will be 0.
    CO_ASSERT_TRUE((co_await c0->read(0)).ok());
    CO_ASSERT_TRUE((co_await c1->read(0)).ok());
    CO_ASSERT_TRUE((co_await c0->read(1)).ok());

    const u64 unmaps_before = f.node.kernel("srv0").stats().revoke_unmaps;
    CO_ASSERT_TRUE((co_await c0->read(2)).ok());  // triggers the eviction
    EXPECT_EQ(srv->stats().evictions, 1u);
    EXPECT_EQ(srv->stats().revoked_evictions, 1u);
    EXPECT_EQ(f.node.kernel("srv0").stats().revoke_unmaps - unmaps_before, 2u);

    // Both clients recover cleanly: the revoked handles are dropped and
    // block 0 re-fetches under a fresh segment.
    const u64 reads_before = f.store.reads();
    auto r0 = co_await c0->read(0);
    CO_ASSERT_TRUE(r0.ok());
    EXPECT_EQ(r0.value(), f.store.stamp(0));
    auto r1 = co_await c1->read(0);
    CO_ASSERT_TRUE(r1.ok());
    EXPECT_EQ(f.store.reads(), reads_before + 1);  // one refetch, shared

    co_await c0->shutdown();
    co_await c1->shutdown();
    CO_ASSERT_TRUE((co_await srv->stop()).ok());
    for (const char* n : {"linux", "srv0", "cli0", "cli1"}) {
      EXPECT_EQ(f.node.kernel(n).pinned_frames(), 0u) << n;
    }
  };
  f.eng.run(main());
}

TEST(IoCache, EvictionVsInflightAttachBothModes) {
  // Two clients hammer an over-committed cache concurrently, so attaches
  // constantly race evictions. In both reclaim modes every access must
  // end in a clean terminal status (correct data or a clean retry inside
  // the client), and the pin ledger must balance afterwards.
  for (bool caps : {false, true}) {
    iocache::Config io;
    io.file_blocks = 6;
    io.capacity_blocks = 2;
    io.block_bytes = 16_KiB;
    io.num_clients = 2;
    io.use_capabilities = caps;
    io.block_lease = 150_us;
    Cluster f(404, io);
    auto main = [&]() -> sim::Task<void> {
      co_await f.node.start();
      auto srv = f.server("srv0");
      auto c0 = f.client(0);
      auto c1 = f.client(1);
      CO_ASSERT_TRUE((co_await c0->start()).ok());
      CO_ASSERT_TRUE((co_await c1->start()).ok());
      CO_ASSERT_TRUE((co_await srv->start()).ok());

      u32 pending = 2;
      sim::Event done;
      sim::Engine::current()->spawn(hammer_reads(
          c0.get(), &f.store, io.file_blocks, 0, 24, &pending, &done));
      sim::Engine::current()->spawn(hammer_reads(
          c1.get(), &f.store, io.file_blocks, 3, 24, &pending, &done));
      co_await done.wait();

      EXPECT_GT(srv->stats().evictions, 0u);
      EXPECT_EQ(srv->stats().misses, f.store.reads());

      co_await c0->shutdown();
      co_await c1->shutdown();
      CO_ASSERT_TRUE((co_await srv->stop()).ok());
      EXPECT_EQ(srv->resident_blocks(), 0u);
      for (const char* n : {"linux", "srv0", "cli0", "cli1"}) {
        EXPECT_EQ(f.node.kernel(n).pinned_frames(), 0u)
            << n << " caps=" << caps;
      }
    };
    f.eng.run(main());
  }
}

TEST(IoCache, LeaseModeNeverReclaimsBeforeExpiry) {
  // With capabilities off the server cannot unmap anyone: eviction of a
  // freshly-leased block must stall until the attacher lease runs out
  // (the janitor detaches at expiry), so the displacing read completes
  // only after the victim's lease horizon.
  iocache::Config io;
  io.file_blocks = 2;
  io.capacity_blocks = 1;
  io.block_bytes = 16_KiB;
  io.num_clients = 1;
  io.block_lease = 500_us;
  Cluster f(505, io);
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto srv = f.server("srv0");
    auto c0 = f.client(0);
    CO_ASSERT_TRUE((co_await c0->start()).ok());
    CO_ASSERT_TRUE((co_await srv->start()).ok());

    const sim::TimePoint t0 = sim::now();
    CO_ASSERT_TRUE((co_await c0->read(0)).ok());
    // The lease on block 0 extends at least block_lease past its attach.
    CO_ASSERT_TRUE((co_await c0->read(1)).ok());  // must evict block 0
    EXPECT_EQ(srv->stats().evictions, 1u);
    EXPECT_GE(sim::now(), t0 + io.block_lease);
    EXPECT_GT(srv->stats().lease_wait_ns, 0u);

    co_await c0->shutdown();
    CO_ASSERT_TRUE((co_await srv->stop()).ok());
    EXPECT_EQ(f.node.kernel("srv0").pinned_frames(), 0u);
    EXPECT_EQ(f.node.kernel("cli0").pinned_frames(), 0u);
  };
  f.eng.run(main());
}

// Run one crash/recovery round: the client writes two rounds of stamps
// (forcing evictions with write-backs), srv0 crashes at eviction-protocol
// step @p k (0 = never), a supervisor promotes a takeover server on srv1,
// the client re-writes a final round, and the surviving server flushes.
// Returns total eviction steps consumed by srv0 (for sweep calibration).
struct CrashRunResult {
  u64 workload_steps{0};  ///< steps consumed while the supervisor watches
  u64 srv0_steps{0};      ///< total steps incl. final round + orderly stop
  bool crashed{false};
  u64 store_reads{0};
  u64 store_writes{0};
  u64 client_ops{0};
};

CrashRunResult run_crash_round(u64 seed, u64 k) {
  iocache::Config io;
  io.file_blocks = 4;
  io.capacity_blocks = 2;
  io.block_bytes = 16_KiB;
  io.num_clients = 1;
  io.block_lease = 150_us;
  io.fetch_deadline = 3_ms;
  io.reresolve_patience = 12_ms;
  Cluster f(seed, io, /*spare_server=*/true);
  CrashRunResult out;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto srv = f.server("srv0");
    auto c0 = f.client(0);
    CO_ASSERT_TRUE((co_await c0->start()).ok());
    CO_ASSERT_TRUE((co_await srv->start()).ok());
    srv->crash_after_evict_steps(k);

    std::unique_ptr<CacheServer> takeover;
    bool workload_done = false;
    sim::Event takeover_up;
    auto supervisor = [&]() -> sim::Task<void> {
      // Watch for the crash; promote srv1 as soon as it happens.
      while (!workload_done || f.node.kernel("srv0").is_crashed()) {
        if (f.node.kernel("srv0").is_crashed()) {
          takeover = f.server("srv1");
          CO_ASSERT_TRUE((co_await takeover->start(/*takeover=*/true)).ok());
          takeover_up.set();
          co_return;
        }
        if (workload_done) break;
        co_await sim::delay(200_us);
      }
      takeover_up.set();
    };
    sim::Engine::current()->spawn(supervisor());

    // Two write rounds: dirties every block twice, forcing write-backs on
    // eviction; the crashpoint (if armed) fires somewhere in here.
    for (int round = 0; round < 2; ++round) {
      for (u64 b = 0; b < io.file_blocks; ++b) {
        auto w = co_await c0->write(b, 1000 * (round + 1) + b);
        CO_ASSERT_TRUE(w.ok());
      }
    }
    out.workload_steps = srv->evict_steps();
    workload_done = true;
    co_await takeover_up.wait();

    // Final convergence round against whichever server is alive: cached
    // write-backs lost in the crash are re-established, then flushed.
    for (u64 b = 0; b < io.file_blocks; ++b) {
      CO_ASSERT_TRUE((co_await c0->write(b, 9000 + b)).ok());
    }
    co_await c0->shutdown();
    CacheServer* live = takeover ? takeover.get() : srv.get();
    CO_ASSERT_TRUE((co_await live->stop()).ok());

    // Convergence: the store holds exactly the final round at every k.
    for (u64 b = 0; b < io.file_blocks; ++b) {
      EXPECT_EQ(f.store.stamp(b), 9000 + b) << "k=" << k << " block " << b;
    }
    // Zero leaked pins on every kernel, including the crashed one (crash
    // releases its pins; the client reaped the dead server's ring pins
    // when the directory changed hands).
    for (const char* n : {"linux", "srv0", "srv1", "cli0"}) {
      EXPECT_EQ(f.node.kernel(n).pinned_frames(), 0u) << n << " k=" << k;
    }
    out.srv0_steps = srv->evict_steps();
    out.crashed = f.node.kernel("srv0").is_crashed();
    out.store_reads = f.store.reads();
    out.store_writes = f.store.writes();
    out.client_ops = c0->metrics().ops;
  };
  f.eng.run(main());
  return out;
}

TEST(IoCache, WritebackCrashpointSweepConvergesAtEveryStep) {
  // Calibration run: no crash, count the eviction-protocol steps.  The
  // sweep covers every step reached during the supervised workload; steps
  // past that fire during the final convergence round or the orderly
  // stop, where the writer itself is gone and no recovery is defined.
  const CrashRunResult base = run_crash_round(606, 0);
  EXPECT_FALSE(base.crashed);
  ASSERT_GT(base.workload_steps, 4u);
  ASSERT_LT(base.workload_steps, 64u);  // sweep stays tractable
  ASSERT_GT(base.srv0_steps, base.workload_steps);

  // Crash at every supervised step (same seed each round), and once past
  // the grand total (no crash — the supervisor just retires).
  for (u64 k = 1; k <= base.workload_steps; ++k) {
    const CrashRunResult r = run_crash_round(606, k);
    EXPECT_TRUE(r.crashed) << "k=" << k;
  }
  const CrashRunResult past = run_crash_round(606, base.srv0_steps + 1);
  EXPECT_FALSE(past.crashed);

  // Determinism: the same seed and crashpoint replays identically.
  const u64 k_mid = base.workload_steps / 2;
  const CrashRunResult a = run_crash_round(606, k_mid);
  const CrashRunResult b = run_crash_round(606, k_mid);
  EXPECT_EQ(a.store_reads, b.store_reads);
  EXPECT_EQ(a.store_writes, b.store_writes);
  EXPECT_EQ(a.client_ops, b.client_ops);
  EXPECT_EQ(a.srv0_steps, b.srv0_steps);
}

TEST(IoCache, AttachAttributionLocalVsRemote) {
  // One client rides on the server enclave itself (its block attaches are
  // local fast-path), one is remote. The kernel's attach counters must
  // attribute each attach to exactly one of local_attaches /
  // attaches_issued / reuse_hits — never two (conservation per kernel).
  iocache::Config io;
  io.file_blocks = 4;
  io.capacity_blocks = 4;
  io.block_bytes = 16_KiB;
  io.num_clients = 2;
  io.block_lease = 5_ms;  // no janitor churn during the workload
  Cluster f(707, io);
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto srv = f.server("srv0");
    // Client 0 is co-located with the server; client 1 is remote (its
    // enclave was provisioned by the fixture but unused for c0).
    auto local = std::make_unique<CacheClient>(f.node.kernel("srv0"),
                                               f.node.enclave("srv0"), 0, io);
    auto remote = f.client(1);
    CO_ASSERT_TRUE((co_await local->start()).ok());
    CO_ASSERT_TRUE((co_await remote->start()).ok());
    CO_ASSERT_TRUE((co_await srv->start()).ok());

    for (u64 b = 0; b < io.file_blocks; ++b) {
      CO_ASSERT_TRUE((co_await remote->read(b)).ok());
      CO_ASSERT_TRUE((co_await local->read(b)).ok());
    }

    const auto& ks = f.node.kernel("srv0").stats();
    const auto& kr = f.node.kernel("cli1").stats();
    // Remote client kernel: one directory attach plus its block attaches,
    // all remote-issued; nothing local, nothing reused.
    EXPECT_EQ(kr.local_attaches, 0u);
    EXPECT_EQ(kr.attaches_issued, 1 + remote->metrics().attaches);
    // Server kernel: the local client's directory + block attaches and the
    // server's attach of the local client's ring are all local fast-path;
    // the only remote attach it *issued* is the remote client's ring.
    EXPECT_EQ(ks.local_attaches, 2 + local->metrics().attaches);
    EXPECT_EQ(ks.attaches_issued, 1u);
    // And everything the remote client issued was served exactly once by
    // the owner — no double counting across the pair.
    EXPECT_EQ(ks.attaches_served, kr.attaches_issued);

    co_await local->shutdown();
    co_await remote->shutdown();
    CO_ASSERT_TRUE((co_await srv->stop()).ok());
    for (const char* n : {"srv0", "cli1"}) {
      EXPECT_EQ(f.node.kernel(n).pinned_frames(), 0u) << n;
    }
  };
  f.eng.run(main());
}

TEST(IoCache, ShardedDirectoriesSpreadLoad) {
  // Two servers shard the directory by block id; one client resolves both
  // shards and every block lands on its home shard only.
  iocache::Config io;
  io.file_blocks = 8;
  io.capacity_blocks = 4;
  io.block_bytes = 16_KiB;
  io.num_servers = 2;
  io.num_clients = 1;
  sim::Engine eng(808);
  Node node(hw::Machine::r420());
  node.set_kernel_config(io_kernel_config(false));
  node.add_linux_mgmt("linux", 0, {0, 1});
  node.add_cokernel("srv0", 0, {2, 3}, 512_MiB);
  node.add_cokernel("srv1", 0, {4, 5}, 512_MiB);
  node.add_cokernel("cli0", 0, {6}, 256_MiB);
  BackingStore store(io.file_blocks, 42);
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    CacheServer s0(node.kernel("srv0"), node.enclave("srv0"), 0, io, store);
    CacheServer s1(node.kernel("srv1"), node.enclave("srv1"), 1, io, store);
    CacheClient c0(node.kernel("cli0"), node.enclave("cli0"), 0, io);
    CO_ASSERT_TRUE((co_await c0.start()).ok());
    CO_ASSERT_TRUE((co_await s0.start()).ok());
    CO_ASSERT_TRUE((co_await s1.start()).ok());

    for (u64 b = 0; b < io.file_blocks; ++b) {
      auto r = co_await c0.read(b);
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value(), store.stamp(b));
    }
    // Even blocks on shard 0, odd on shard 1 — misses split evenly.
    EXPECT_EQ(s0.stats().misses, 4u);
    EXPECT_EQ(s1.stats().misses, 4u);
    EXPECT_EQ(s0.resident_blocks(), 4u);
    EXPECT_EQ(s1.resident_blocks(), 4u);

    co_await c0.shutdown();
    CO_ASSERT_TRUE((co_await s0.stop()).ok());
    CO_ASSERT_TRUE((co_await s1.stop()).ok());
    for (const char* n : {"srv0", "srv1", "cli0"}) {
      EXPECT_EQ(node.kernel(n).pinned_frames(), 0u) << n;
    }
  };
  eng.run(main());
}

TEST(IoCache, BatchedHeartbeatsCutRenewalMessages) {
  // Three shards replicated on the same two enclaves: per tick, each
  // enclave renews with one message per peer carrying the shard list
  // instead of one per (shard, peer) pair. Leases stay alive (no spurious
  // expirations), and the sharded registry keeps working.
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 3;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  cfg.lease_duration = 5_ms;
  cfg.ns_shards = {{1, 2}, {1, 2}, {1, 2}};
  sim::Engine eng(909);
  Node node(hw::Machine::r420());
  node.set_kernel_config(cfg);
  node.add_linux_mgmt("linux", 0, {0, 1});
  node.add_cokernel("cka", 0, {2, 3}, 256_MiB);
  node.add_cokernel("ckb", 0, {4, 5}, 256_MiB);
  node.add_cokernel("cli", 0, {6}, 256_MiB);
  u64 sent = 0;
  u64 expired = 0;
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    co_await sim::delay(40_ms);  // many heartbeat ticks
    // The registry still commits and resolves.
    auto& cli = node.kernel("cli");
    os::Process* p = node.enclave("cli").create_process(64_KiB).value();
    auto sid = co_await cli.xpmem_make(*p, p->image_base(), 64_KiB, "hb/probe");
    CO_ASSERT_TRUE(sid.ok());
    auto found = co_await cli.xpmem_search("hb/probe");
    CO_ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value().value(), sid.value().value());
    for (const char* n : {"linux", "cka", "ckb", "cli"}) {
      sent += node.kernel(n).stats().heartbeats_sent;
      expired += node.kernel(n).stats().leases_expired;
    }
  };
  eng.run(main());
  EXPECT_EQ(expired, 0u);
  // Pinned: per tick, every co-kernel sends one message to the name
  // server and one to each replica host other than itself (7 per tick);
  // any change to the renewal scheme moves this count.
  EXPECT_EQ(sent, 168u);
}

TEST(IoCache, ReplayFamiliesHaveTheirShapes) {
  // The trace generator itself: deterministic, and each family shows its
  // signature (write-heavy stripes / shared hot-set re-reads / streaming).
  iocache::ReplayParams p;
  p.file_blocks = 64;
  p.ops_per_rank = 256;
  p.seed = 11;
  p.hot_fraction = 0.25;

  auto a = iocache::make_trace(iocache::Family::checkpoint, 1, 4, p);
  auto b = iocache::make_trace(iocache::Family::checkpoint, 1, 4, p);
  ASSERT_EQ(a.size(), p.ops_per_rank);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].block, b[i].block);
    EXPECT_EQ(a[i].is_write, b[i].is_write);
  }
  u64 writes = 0;
  for (const auto& op : a) {
    writes += op.is_write ? 1 : 0;
    EXPECT_GE(op.block, 16u);  // rank 1's stripe of 64/4
    EXPECT_LT(op.block, 32u);
  }
  EXPECT_GT(writes * 10, a.size() * 7);  // write-heavy

  auto dl = iocache::make_trace(iocache::Family::dl_training, 0, 4, p);
  u64 max_block = 0;
  for (const auto& op : dl) {
    EXPECT_FALSE(op.is_write);
    max_block = std::max(max_block, op.block);
  }
  EXPECT_LT(max_block, 16u);  // confined to the hot set

  auto sc = iocache::make_trace(iocache::Family::scan, 2, 4, p);
  for (size_t i = 0; i < sc.size(); ++i) {
    EXPECT_FALSE(sc[i].is_write);
    EXPECT_EQ(sc[i].block, (32 + i) % p.file_blocks);  // staggered stream
  }
}

}  // namespace
}  // namespace xemem
