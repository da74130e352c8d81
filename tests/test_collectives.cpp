// Tests for the cross-enclave collective operations subsystem: every
// operation in both algorithms (flat and topology-aware hierarchical)
// across three topologies — single enclave, three native enclaves, and a
// mixed Linux/Kitten/VM composition — plus rooted-variant coverage,
// algorithm interleaving on one communicator, tuning-table resolution,
// and the member-crash failure path (a collective over a crashed enclave
// must fail with a status within the configured timeout, not hang).
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "collectives/comm.hpp"
#include "common/units.hpp"
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

using coll::Algo;
using coll::Comm;
using coll::OpKind;
using coll::ReduceOp;

/// One rank's placement: which enclave it runs in.
struct CollFixture {
  sim::Engine eng{23};
  Node node{hw::Machine::r420()};
  coll::CollConfig cfg;
  std::vector<Comm::Member> members;  // per rank, filled by setup()

  CollFixture() {
    // Small slots keep the test regions compact while 24 KiB payloads
    // still span multiple pipeline chunks.
    cfg.slot_bytes = 32_KiB;
    cfg.chunk_bytes = 8_KiB;
  }

  /// Three native enclaves: ranks interleave 2+2+2.
  std::vector<std::string> topo_three_enclaves() {
    node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    node.add_cokernel("ck0", 0, {6, 7}, 128_MiB);
    node.add_cokernel("ck1", 1, {12, 13}, 128_MiB);
    return {"linux", "linux", "ck0", "ck0", "ck1", "ck1"};
  }

  /// One enclave, four ranks (no cross-enclave structure).
  std::vector<std::string> topo_single_enclave() {
    node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    return {"linux", "linux", "linux", "linux"};
  }

  /// Mixed personalities: Linux + Kitten co-kernel + guest-Linux VM.
  std::vector<std::string> topo_mixed_vm() {
    node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    node.add_cokernel("ck", 1, {12, 13}, 128_MiB);
    node.add_vm("vm", "linux", 128_MiB, {4, 5});
    return {"linux", "linux", "ck", "ck", "vm"};
  }

  /// Boot the node and create one process per rank, pinned round-robin
  /// over its enclave's cores so concurrent ranks overlap like real ones.
  sim::Task<void> setup(std::vector<std::string> placement) {
    co_await node.start();
    const u32 n = static_cast<u32>(placement.size());
    std::map<std::string, u32> next_core;
    for (u32 r = 0; r < n; ++r) {
      const std::string& e = placement[r];
      auto& enclave = node.enclave(e);
      hw::Core* core =
          enclave.cores()[next_core[e]++ % enclave.cores().size()];
      auto proc = enclave.create_process(
          Comm::region_bytes(n, cfg) + kPageSize, core);
      XEMEM_ASSERT(proc.ok());
      members.push_back(Comm::Member{&node.kernel(e), &enclave, proc.value(),
                                     core, proc.value()->image_base()});
    }
  }

  /// Run @p body once per rank, concurrently; joins all ranks.
  sim::Task<void> run_ranks(std::function<sim::Task<void>(u32)> body) {
    const u32 n = static_cast<u32>(members.size());
    u32 pending = n;
    sim::Event all_done;
    auto wrap = [&](u32 r) -> sim::Task<void> {
      co_await body(r);
      if (--pending == 0) all_done.set();
    };
    for (u32 r = 0; r < n; ++r) sim::Engine::current()->spawn(wrap(r));
    co_await all_done.wait();
  }

  /// Collectively create one communicator per rank.
  sim::Task<void> make_comms(std::vector<std::unique_ptr<Comm>>* comms,
                             const std::string& name) {
    comms->resize(members.size());
    co_await run_ranks([&](u32 r) -> sim::Task<void> {
      auto c = co_await Comm::create(members[r], name, r,
                                     static_cast<u32>(members.size()), cfg);
      CO_ASSERT_TRUE(c.ok());
      (*comms)[r] = std::move(c).value();
    });
  }

  sim::Task<void> finalize_comms(std::vector<std::unique_ptr<Comm>>* comms) {
    co_await run_ranks([&](u32 r) -> sim::Task<void> {
      if ((*comms)[r]) (void)co_await (*comms)[r]->finalize();
    });
  }
};

/// Exercise every operation once with @p algo and verify the data each
/// rank ends up with. Payloads span several chunks.
sim::Task<void> exercise_all_ops(CollFixture& f,
                                 std::vector<std::unique_ptr<Comm>>& comms,
                                 Algo algo, u32 root) {
  const u32 n = static_cast<u32>(comms.size());
  constexpr u64 kElems = 3072;  // 24 KiB of doubles = 3 chunks at 8 KiB

  co_await f.run_ranks([&](u32 r) -> sim::Task<void> {
    Comm& c = *comms[r];

    CO_ASSERT_TRUE((co_await c.barrier(algo)).ok());

    // bcast: root's pattern reaches everyone.
    std::vector<double> buf(kElems, -1.0);
    if (r == root) {
      for (u64 i = 0; i < kElems; ++i) buf[i] = 1000.0 * root + double(i % 97);
    }
    CO_ASSERT_TRUE(
        (co_await c.bcast(buf.data(), kElems * sizeof(double), root, algo)).ok());
    for (u64 i = 0; i < kElems; ++i) {
      CO_ASSERT_TRUE(buf[i] == 1000.0 * root + double(i % 97));
    }

    // reduce(sum): rank r contributes r + i%13; only the root gets the sum.
    std::vector<double> in(kElems), out(kElems, 0.0);
    for (u64 i = 0; i < kElems; ++i) in[i] = double(r) + double(i % 13);
    CO_ASSERT_TRUE(
        (co_await c.reduce(in.data(), out.data(), kElems, root, ReduceOp::sum,
                           algo))
            .ok());
    if (r == root) {
      const double rank_sum = double(n) * double(n - 1) / 2.0;
      for (u64 i = 0; i < kElems; ++i) {
        CO_ASSERT_TRUE(out[i] == rank_sum + double(n) * double(i % 13));
      }
    }

    // allreduce(max): everyone gets the max contribution.
    for (u64 i = 0; i < kElems; ++i) in[i] = double(r) - double(i % 7);
    CO_ASSERT_TRUE(
        (co_await c.allreduce(in.data(), out.data(), kElems, ReduceOp::max, algo))
            .ok());
    for (u64 i = 0; i < kElems; ++i) {
      CO_ASSERT_TRUE(out[i] == double(n - 1) - double(i % 7));
    }

    // allgather: rank blocks land at their rank positions.
    constexpr u64 kPer = 512;  // doubles per rank: 4 KiB blocks
    std::vector<double> mine(kPer), all(kPer * n, -1.0);
    for (u64 i = 0; i < kPer; ++i) mine[i] = 100.0 * r + double(i % 11);
    CO_ASSERT_TRUE(
        (co_await c.allgather(mine.data(), kPer * sizeof(double), all.data(),
                              algo))
            .ok());
    for (u32 src = 0; src < n; ++src) {
      for (u64 i = 0; i < kPer; ++i) {
        CO_ASSERT_TRUE(all[src * kPer + i] == 100.0 * src + double(i % 11));
      }
    }
  });
}

TEST(Collectives, FlatAllOpsSingleEnclave) {
  CollFixture f;
  auto placement = f.topo_single_enclave();
  auto main = [&]() -> sim::Task<void> {
    co_await f.setup(placement);
    std::vector<std::unique_ptr<Comm>> comms;
    co_await f.make_comms(&comms, "flat_single");
    CO_ASSERT_TRUE(comms[0] != nullptr);
    EXPECT_EQ(comms[0]->enclave_count(), 1u);
    co_await exercise_all_ops(f, comms, Algo::flat, /*root=*/2);
    co_await f.finalize_comms(&comms);
  };
  f.eng.run(main());
}

TEST(Collectives, HierAllOpsSingleEnclave) {
  // Hierarchical degenerates to one group (leader = rank 0) but must
  // still produce correct results when forced.
  CollFixture f;
  auto placement = f.topo_single_enclave();
  auto main = [&]() -> sim::Task<void> {
    co_await f.setup(placement);
    std::vector<std::unique_ptr<Comm>> comms;
    co_await f.make_comms(&comms, "hier_single");
    co_await exercise_all_ops(f, comms, Algo::hierarchical, /*root=*/1);
    co_await f.finalize_comms(&comms);
  };
  f.eng.run(main());
}

TEST(Collectives, FlatAllOpsThreeEnclaves) {
  CollFixture f;
  auto placement = f.topo_three_enclaves();
  auto main = [&]() -> sim::Task<void> {
    co_await f.setup(placement);
    std::vector<std::unique_ptr<Comm>> comms;
    co_await f.make_comms(&comms, "flat_three");
    EXPECT_EQ(comms[0]->enclave_count(), 3u);
    co_await exercise_all_ops(f, comms, Algo::flat, /*root=*/0);
    co_await f.finalize_comms(&comms);
  };
  f.eng.run(main());
}

TEST(Collectives, HierAllOpsThreeEnclaves) {
  CollFixture f;
  auto placement = f.topo_three_enclaves();
  auto main = [&]() -> sim::Task<void> {
    co_await f.setup(placement);
    std::vector<std::unique_ptr<Comm>> comms;
    co_await f.make_comms(&comms, "hier_three");
    // Topology derived from the member table: {0,1} linux, {2,3} ck0,
    // {4,5} ck1; lowest rank of each enclave leads.
    EXPECT_EQ(comms[0]->enclave_count(), 3u);
    EXPECT_TRUE(comms[0]->is_leader());
    EXPECT_FALSE(comms[1]->is_leader());
    EXPECT_TRUE(comms[2]->is_leader());
    EXPECT_TRUE(comms[4]->is_leader());
    EXPECT_EQ(comms[3]->group_ranks(), (std::vector<u32>{2, 3}));
    // Bootstrap accounting: rank 0 exports the control segment, non-root
    // leaders attach it across an enclave boundary and export their local
    // segment; members attach both.
    EXPECT_EQ(comms[0]->stats().exports, 2u);
    EXPECT_EQ(comms[2]->stats().exports, 1u);
    EXPECT_GE(comms[2]->stats().cross_attaches, 1u);
    EXPECT_EQ(comms[3]->stats().attaches, 2u);
    // Root at a non-leader rank exercises the intra seed/hop phases.
    co_await exercise_all_ops(f, comms, Algo::hierarchical, /*root=*/3);
    co_await f.finalize_comms(&comms);
  };
  f.eng.run(main());
}

TEST(Collectives, FlatAndHierOpsMixedVmTopology) {
  CollFixture f;
  auto placement = f.topo_mixed_vm();
  auto main = [&]() -> sim::Task<void> {
    co_await f.setup(placement);
    std::vector<std::unique_ptr<Comm>> comms;
    co_await f.make_comms(&comms, "mixed_vm");
    EXPECT_EQ(comms[0]->enclave_count(), 3u);
    EXPECT_TRUE(comms[4]->is_leader());  // the VM rank is alone => leads
    co_await exercise_all_ops(f, comms, Algo::flat, /*root=*/4);
    co_await exercise_all_ops(f, comms, Algo::hierarchical, /*root=*/1);
    co_await f.finalize_comms(&comms);
  };
  f.eng.run(main());
}

TEST(Collectives, InterleavedAlgorithmsShareOneSequenceSpace) {
  // Alternating flat and hierarchical operations on the same communicator
  // must not confuse the stamping protocol: both algorithm families burn
  // sequence numbers from the same counter.
  CollFixture f;
  auto placement = f.topo_three_enclaves();
  auto main = [&]() -> sim::Task<void> {
    co_await f.setup(placement);
    std::vector<std::unique_ptr<Comm>> comms;
    co_await f.make_comms(&comms, "interleave");
    const u32 n = static_cast<u32>(comms.size());
    co_await f.run_ranks([&](u32 r) -> sim::Task<void> {
      Comm& c = *comms[r];
      for (u32 round = 0; round < 3; ++round) {
        const Algo first = round % 2 == 0 ? Algo::flat : Algo::hierarchical;
        const Algo second = round % 2 == 0 ? Algo::hierarchical : Algo::flat;
        CO_ASSERT_TRUE((co_await c.barrier(first)).ok());
        double in = double(r + 1) * (round + 1);
        double out = 0;
        CO_ASSERT_TRUE(
            (co_await c.allreduce(&in, &out, 1, ReduceOp::sum, second)).ok());
        const double want = double(n) * double(n + 1) / 2.0 * (round + 1);
        CO_ASSERT_TRUE(out == want);
        double token = r == 1 ? 42.0 + round : 0.0;
        CO_ASSERT_TRUE(
            (co_await c.bcast(&token, sizeof(double), 1, first)).ok());
        CO_ASSERT_TRUE(token == 42.0 + round);
      }
      const auto& st = c.stats();
      EXPECT_EQ(st.of(OpKind::barrier).ops, 3u);
      EXPECT_EQ(st.of(OpKind::allreduce).ops, 3u);
      EXPECT_EQ(st.of(OpKind::bcast).ops, 3u);
      EXPECT_EQ(st.of(OpKind::barrier).failures, 0u);
      EXPECT_GT(st.of(OpKind::allreduce).latency_ns.mean(), 0.0);
    });
    co_await f.finalize_comms(&comms);
  };
  f.eng.run(main());
}

TEST(Collectives, AutomaticSelectionFollowsTuningTable) {
  CollFixture f;
  auto placement = f.topo_three_enclaves();
  auto main = [&]() -> sim::Task<void> {
    co_await f.setup(placement);
    std::vector<std::unique_ptr<Comm>> comms;
    co_await f.make_comms(&comms, "tuning");
    Comm& c = *comms[0];
    // 6 ranks over 3 enclaves: large reductions go hierarchical, tiny
    // ones and allgather stay flat, barriers stay flat below 16 ranks.
    EXPECT_EQ(c.resolve(OpKind::allreduce, 64_KiB, Algo::automatic),
              Algo::hierarchical);
    EXPECT_EQ(c.resolve(OpKind::reduce, 16_KiB, Algo::automatic),
              Algo::hierarchical);
    EXPECT_EQ(c.resolve(OpKind::allreduce, 8, Algo::automatic), Algo::flat);
    EXPECT_EQ(c.resolve(OpKind::barrier, 0, Algo::automatic), Algo::flat);
    EXPECT_EQ(c.resolve(OpKind::allgather, 64_KiB, Algo::automatic), Algo::flat);
    EXPECT_EQ(c.resolve(OpKind::bcast, 64_KiB, Algo::automatic),
              Algo::hierarchical);
    // Explicit override always wins.
    EXPECT_EQ(c.resolve(OpKind::allreduce, 64_KiB, Algo::flat), Algo::flat);
    // Ops with `automatic` must succeed end-to-end too.
    co_await f.run_ranks([&](u32 r) -> sim::Task<void> {
      std::vector<double> in(2048, double(r)), out(2048);
      CO_ASSERT_TRUE(
          (co_await comms[r]->allreduce(in.data(), out.data(), 2048)).ok());
      CO_ASSERT_TRUE(out[0] == 15.0);  // 0+1+..+5
    });
    co_await f.finalize_comms(&comms);
  };
  f.eng.run(main());
}

TEST(Collectives, PayloadLargerThanSlotRejected) {
  CollFixture f;
  auto placement = f.topo_single_enclave();
  auto main = [&]() -> sim::Task<void> {
    co_await f.setup(placement);
    std::vector<std::unique_ptr<Comm>> comms;
    co_await f.make_comms(&comms, "toolarge");
    co_await f.run_ranks([&](u32 r) -> sim::Task<void> {
      std::vector<double> buf(f.cfg.slot_bytes / sizeof(double) + 1, 1.0);
      auto res = co_await comms[r]->bcast(buf.data(),
                                          buf.size() * sizeof(double), 0);
      CO_ASSERT_TRUE(res.error() == Errc::invalid_argument);
      // The rejection is symmetric (every rank checks the same bound), so
      // the communicator stays healthy for well-sized ops.
      CO_ASSERT_TRUE((co_await comms[r]->barrier()).ok());
    });
    co_await f.finalize_comms(&comms);
  };
  f.eng.run(main());
}

TEST(Collectives, MemberCrashFailsCollectiveWithinTimeout) {
  CollFixture f;
  f.cfg.timeout = 50_ms;  // short detection bound keeps the test tight
  auto placement = f.topo_three_enclaves();
  auto main = [&]() -> sim::Task<void> {
    co_await f.setup(placement);
    std::vector<std::unique_ptr<Comm>> comms;
    co_await f.make_comms(&comms, "crashy");
    // A healthy round first.
    co_await f.run_ranks([&](u32 r) -> sim::Task<void> {
      CO_ASSERT_TRUE((co_await comms[r]->barrier()).ok());
    });

    // Kill ck1 (ranks 4 and 5). Survivors cannot observe the death
    // directly — their next collective must time out, post a status, and
    // return unreachable within the configured bound.
    f.node.kernel("ck1").crash();
    const sim::TimePoint t0 = sim::now();
    u32 pending = 4;
    sim::Event all_done;
    auto survivor = [&](u32 r) -> sim::Task<void> {
      double in = 1.0, out = 0.0;
      auto res = co_await comms[r]->allreduce(&in, &out, 1);
      EXPECT_FALSE(res.ok());
      EXPECT_EQ(res.error(), Errc::unreachable);
      if (--pending == 0) all_done.set();
    };
    for (u32 r = 0; r < 4; ++r) sim::Engine::current()->spawn(survivor(r));
    co_await all_done.wait();
    // Detection latency: timeout plus one poll of slack per phase.
    EXPECT_LE(sim::now() - t0, 50_ms + 1_ms);

    // The failure is sticky: later operations fail fast without waiting.
    const sim::TimePoint t1 = sim::now();
    for (u32 r = 0; r < 4; ++r) {
      auto res = co_await comms[r]->barrier();
      EXPECT_FALSE(res.ok());
      EXPECT_NE(comms[r]->status(), Errc::ok);
      EXPECT_GE(comms[r]->stats().of(OpKind::barrier).failures, 1u);
    }
    EXPECT_LE(sim::now() - t1, 1_ms);
    // Best-effort teardown of the survivors must terminate (bounded busy
    // retries even though the dead ranks never detach).
    for (u32 r = 0; r < 4; ++r) (void)co_await comms[r]->finalize();
  };
  f.eng.run(main());
}

KernelConfig coll_cap_config() {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 3;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  cfg.capabilities = true;
  return cfg;
}

TEST(Collectives, BootstrapOverRevokedControlSegmentFailsFast) {
  // Capability model (DESIGN.md §9): revocation of the control segment's
  // root capability while members are still joining must fail their
  // bootstrap with the terminal revoked status immediately — not spin the
  // search/get/attach retry loop until the bootstrap deadline.
  CollFixture f;
  f.node.set_kernel_config(coll_cap_config());
  f.cfg.timeout = 30_ms;
  f.cfg.bootstrap_timeout = 20_ms;
  auto placement = f.topo_three_enclaves();
  auto main = [&]() -> sim::Task<void> {
    co_await f.setup(placement);
    const u32 n = static_cast<u32>(f.members.size());

    // Rank 0 starts alone: it exports the control segment, then blocks
    // waiting for the member table (and will time out — nobody else ever
    // finishes joining).
    bool rank0_ok = false;
    sim::Event rank0_done;
    auto rank0 = [&]() -> sim::Task<void> {
      auto c = co_await Comm::create(f.members[0], "revoked_boot", 0, n, f.cfg);
      rank0_ok = c.ok();
      rank0_done.set();
    };
    sim::Engine::current()->spawn(rank0());

    // Wait until the export is discoverable, then revoke its root
    // capability (cutting off classic capless access too).
    XememKernel* owner = f.members[0].kernel;
    Result<Segid> sid{Errc::unreachable};
    for (int i = 0; i < 200 && !sid.ok(); ++i) {
      sid = co_await f.members[1].kernel->xpmem_search("revoked_boot");
      if (!sid.ok()) co_await sim::delay(100_us);
    }
    CO_ASSERT_TRUE(sid.ok());
    auto root = owner->cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());
    CO_ASSERT_TRUE((co_await owner->cap_revoke(root.value())).ok());

    // Every late joiner fails terminally and quickly.
    const sim::TimePoint t0 = sim::now();
    co_await f.run_ranks([&](u32 r) -> sim::Task<void> {
      if (r == 0) co_return;
      auto c = co_await Comm::create(f.members[r], "revoked_boot", r, n, f.cfg);
      CO_ASSERT_TRUE(!c.ok());
      EXPECT_EQ(c.error(), Errc::revoked) << "rank " << r;
    });
    // Fast: one search + one denied get per rank, nowhere near the
    // bootstrap deadline.
    EXPECT_LT(sim::now() - t0, 10_ms);

    co_await rank0_done.wait();
    EXPECT_FALSE(rank0_ok) << "rank 0 must not bootstrap alone";
  };
  f.eng.run(main());
}

TEST(Collectives, PostBootstrapRevocationIsTerminalNotAHang) {
  // Revoking the control segment's root capability under a live
  // communicator unmaps every member's attachment. The next collective
  // must fail with a clean status on every rank within the op timeout —
  // graceful degradation, and sticky like the member-crash path.
  CollFixture f;
  f.node.set_kernel_config(coll_cap_config());
  f.cfg.timeout = 30_ms;
  auto placement = f.topo_three_enclaves();
  auto main = [&]() -> sim::Task<void> {
    co_await f.setup(placement);
    std::vector<std::unique_ptr<Comm>> comms;
    co_await f.make_comms(&comms, "revoked_live");
    CO_ASSERT_TRUE(comms[0] != nullptr);
    // A healthy round first.
    co_await f.run_ranks([&](u32 r) -> sim::Task<void> {
      CO_ASSERT_TRUE((co_await comms[r]->barrier(Algo::flat)).ok());
    });

    XememKernel* owner = f.members[0].kernel;
    auto sid = co_await f.members[2].kernel->xpmem_search("revoked_live");
    CO_ASSERT_TRUE(sid.ok());
    auto root = owner->cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());
    CO_ASSERT_TRUE((co_await owner->cap_revoke(root.value())).ok());

    // Every rank's next barrier fails within the op timeout: the unmapped
    // members fault gracefully on their first control-word access; rank 0
    // (whose export is its own memory) times out waiting for them.
    const sim::TimePoint t0 = sim::now();
    co_await f.run_ranks([&](u32 r) -> sim::Task<void> {
      auto res = co_await comms[r]->barrier(Algo::flat);
      EXPECT_FALSE(res.ok()) << "rank " << r;
    });
    EXPECT_LE(sim::now() - t0, f.cfg.timeout + 1_ms);

    // Sticky: a second round fails fast, no fresh timeout per call.
    const sim::TimePoint t1 = sim::now();
    co_await f.run_ranks([&](u32 r) -> sim::Task<void> {
      EXPECT_FALSE((co_await comms[r]->barrier(Algo::flat)).ok());
    });
    EXPECT_LE(sim::now() - t1, f.cfg.timeout + 1_ms);
    for (u32 r = 1; r < comms.size(); ++r) {
      EXPECT_NE(comms[r]->status(), Errc::ok) << "rank " << r;
    }
    // Best-effort teardown must still terminate.
    co_await f.finalize_comms(&comms);
  };
  f.eng.run(main());
}

}  // namespace
}  // namespace xemem
