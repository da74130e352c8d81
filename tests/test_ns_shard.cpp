// Sharded, quorum-replicated name service: segid/name routing across
// shards, majority-ack writes, per-shard epochs and failover by follower
// log catch-up, survival of the hub's death, the deterministic crashpoint
// sweep over primaries AND followers, minority-partition grace semantics,
// and the bounded dedup cache (DESIGN.md §6b).
#include <gtest/gtest.h>

#include <set>

#include "collectives/comm.hpp"
#include "common/units.hpp"
#include "xemem/fault.hpp"
#include "xemem/system.hpp"
#include "xemem/wire.hpp"

#define CO_ASSERT_TRUE(x)                            \
  do {                                               \
    if (!(x)) {                                      \
      ADD_FAILURE() << "CO_ASSERT_TRUE failed: " #x; \
      co_return;                                     \
    }                                                \
  } while (0)

namespace xemem {
namespace {

// Tight protocol policy with sharding enabled: elections and grace windows
// resolve in simulated milliseconds instead of production-scale timeouts.
KernelConfig shard_config(std::vector<std::vector<u64>> groups) {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.ping_timeout = 200_us;
  cfg.max_retries = 2;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  cfg.ns_shards = std::move(groups);
  cfg.shard_probe_period = 500_us;
  cfg.shard_probe_misses = 2;
  cfg.partition_grace = 4_ms;
  return cfg;
}

// A protocol error a converging sharded system is allowed to surface while
// a replica group fails over: transient, retryable, or cleanly terminal.
bool clean_error(Errc e) {
  return e == Errc::unreachable || e == Errc::retry_later ||
         e == Errc::stale_epoch || e == Errc::not_primary ||
         e == Errc::no_quorum || e == Errc::no_such_segid ||
         e == Errc::no_name_server;
}

// Enclave ids are allocated by the hub at registration, so the enclave
// name hosting a given replica-group slot is only known at runtime.
std::string name_of_id(Node& node, const std::vector<std::string>& names,
                       u64 eid) {
  for (const auto& n : names) {
    if (node.kernel(n).id().valid() && node.kernel(n).id().value() == eid) {
      return n;
    }
  }
  return {};
}

TEST(NsShard, ShardedRegistryBasics) {
  // Two shards replicated across three enclaves (overlapping groups).
  // Registrations commit with majority acks and replicate to every group
  // member; names and segids route to their home shard; the full
  // make/search/get/attach/read/remove path works; and nothing fails over
  // when nothing dies (pay-for-use).
  sim::Engine eng(7001);
  Node node(hw::Machine::r420());
  node.set_kernel_config(shard_config({{1, 2, 3}, {2, 3, 1}}));
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& cka = node.add_cokernel("cka", 0, {4, 5}, 256_MiB);
  auto& ckb = node.add_cokernel("ckb", 0, {6, 7}, 256_MiB);
  auto& ckc = node.add_cokernel("ckc", 0, {8, 9}, 256_MiB);
  node.link_peers("cka", "ckb");
  node.link_peers("cka", "ckc");
  node.link_peers("ckb", "ckc");
  std::vector<XememKernel*> cks{&cka, &ckb, &ckc};

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("cka").create_process(8_MiB).value();
    os::Process* up = node.enclave("ckb").create_process(1_MiB).value();
    std::vector<u8> pattern(64_KiB);
    for (size_t i = 0; i < pattern.size(); ++i) pattern[i] = u8(i * 131 + 7);
    CO_ASSERT_TRUE(node.enclave("cka")
                       .proc_write(*op, op->image_base(), pattern.data(),
                                   pattern.size())
                       .ok());

    auto sid = co_await cka.xpmem_make(*op, op->image_base(), 64_KiB, "alpha");
    CO_ASSERT_TRUE(sid.ok());
    EXPECT_EQ(segid_epoch(sid.value()), 1u);
    const u32 home = shard_of_name("alpha", 2);
    EXPECT_EQ(shard_of_segid(sid.value(), 2), home)
        << "a named segid is minted congruent to its name's shard";

    // Anonymous allocations round-robin the shards.
    std::set<u32> shards_used;
    for (int i = 0; i < 4; ++i) {
      auto s2 = co_await cka.xpmem_make(*op, op->image_base(), 4_KiB);
      CO_ASSERT_TRUE(s2.ok());
      shards_used.insert(shard_of_segid(s2.value(), 2));
    }
    EXPECT_EQ(shards_used.size(), 2u);

    // The committed entry reaches every member of the home shard's group,
    // not just the acking majority.
    bool replicated = false;
    for (int i = 0; i < 200 && !replicated; ++i) {
      replicated = true;
      for (XememKernel* k : cks) {
        if (k->hosts_shard(home) && k->shard_registry(home)->segid_count() == 0) {
          replicated = false;
        }
      }
      if (!replicated) co_await sim::delay(100_us);
    }
    EXPECT_TRUE(replicated);

    // Full data path over the sharded registry.
    auto found = co_await ckb.xpmem_search("alpha");
    CO_ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value().value(), sid.value().value());
    auto grant = co_await ckb.xpmem_get(found.value());
    CO_ASSERT_TRUE(grant.ok());
    auto att = co_await ckb.xpmem_attach(*up, grant.value(), 0, 64_KiB);
    CO_ASSERT_TRUE(att.ok());
    co_await node.enclave("ckb").touch_attached(*up, att.value().va,
                                                att.value().pages);
    std::vector<u8> got(pattern.size());
    CO_ASSERT_TRUE(node.enclave("ckb")
                       .proc_read(*up, att.value().va, got.data(), got.size())
                       .ok());
    EXPECT_EQ(got, pattern);
    CO_ASSERT_TRUE((co_await ckb.xpmem_detach(*up, att.value())).ok());
    CO_ASSERT_TRUE((co_await ckb.xpmem_release(grant.value())).ok());

    // List is a scatter-gather over every shard.
    auto lst = co_await cka.xpmem_list();
    CO_ASSERT_TRUE(lst.ok());
    EXPECT_EQ(lst.value().size(), 1u) << "one named export";

    CO_ASSERT_TRUE((co_await cka.xpmem_remove(*op, sid.value())).ok());
    auto gone = co_await ckb.xpmem_search("alpha");
    CO_ASSERT_TRUE(!gone.ok());
    EXPECT_EQ(gone.error(), Errc::no_such_segid);

    // Quorum accounting and pay-for-use: writes committed with majority
    // acks, followers absorbed replications, and no election ever ran.
    u64 qwrites = 0, reps = 0, promos = 0;
    for (XememKernel* k : cks) {
      qwrites += k->stats().quorum_writes;
      reps += k->stats().replications;
      promos += k->stats().shard_promotions;
      for (u32 s = 0; s < 2; ++s) {
        if (k->hosts_shard(s)) {
          EXPECT_EQ(k->shard_epoch_of(s), 1u);
        }
      }
    }
    EXPECT_GE(qwrites, 6u) << "5 allocs + 1 remove, each majority-committed";
    EXPECT_GT(reps, 0u);
    EXPECT_EQ(promos, 0u) << "pay-for-use: nothing died, nobody promoted";
    EXPECT_EQ(cka.pinned_frames(), 0u);
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

TEST(NsShard, PrimaryCrashFailoverPreservesRegistry) {
  // Kill a shard's primary: a follower wins the per-shard election, bumps
  // the shard epoch, and serves the committed registry from its replicated
  // log — no survivor re-registration round. New segids are minted under
  // the new epoch.
  sim::Engine eng(7002);
  Node node(hw::Machine::r420());
  node.set_kernel_config(shard_config({{1, 2, 3}}));
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("cka", 0, {4, 5}, 256_MiB);
  node.add_cokernel("ckb", 0, {6, 7}, 256_MiB);
  node.add_cokernel("ckc", 0, {8, 9}, 256_MiB);
  auto& cli = node.add_cokernel("cli", 0, {10, 11}, 256_MiB);
  const std::vector<std::string> names{"cka", "ckb", "ckc", "cli"};
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      node.link_peers(names[i], names[j]);
    }
  }

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    // The replica group is {1, 2, 3}; the fourth enclave is a pure client.
    XememKernel* client = &cli;
    if (cli.id().value() <= 3) {
      client = &node.kernel(name_of_id(node, names, 4));
    }
    const std::string cname = name_of_id(node, names, client->id().value());
    XememKernel* boot_primary = node.kernel_with_id(1);
    CO_ASSERT_TRUE(boot_primary != nullptr && client != nullptr);
    CO_ASSERT_TRUE(boot_primary->is_shard_primary(0));

    os::Process* op = node.enclave(cname).create_process(8_MiB).value();
    auto sid =
        co_await client->xpmem_make(*op, op->image_base(), 64_KiB, "stable");
    CO_ASSERT_TRUE(sid.ok());
    EXPECT_EQ(segid_epoch(sid.value()), 1u);

    boot_primary->crash();

    // A surviving follower promotes itself for the shard. Dueling
    // candidacies are legal (position-keyed epochs keep them collision
    // free); give them a settle window, then bind to the final regime.
    XememKernel* next = nullptr;
    for (int i = 0; i < 400 && next == nullptr; ++i) {
      for (u64 eid : {2ull, 3ull}) {
        XememKernel* k = node.kernel_with_id(eid);
        if (k != nullptr && k->is_shard_primary(0)) next = k;
      }
      if (next == nullptr) co_await sim::delay(100_us);
    }
    CO_ASSERT_TRUE(next != nullptr);
    co_await sim::delay(5_ms);
    u32 nprim = 0;
    for (u64 eid : {2ull, 3ull}) {
      XememKernel* k = node.kernel_with_id(eid);
      if (k != nullptr && k->is_shard_primary(0)) {
        next = k;
        ++nprim;
      }
    }
    EXPECT_EQ(nprim, 1u) << "exactly one primary once the dust settles";
    const u64 e2 = next->shard_epoch_of(0);
    EXPECT_GE(e2, 2u);

    // The pre-crash registration survives via the replicated log.
    Result<Segid> found{Errc::unreachable};
    for (int i = 0; i < 400; ++i) {
      found = co_await client->xpmem_search("stable");
      if (found.ok()) break;
      CO_ASSERT_TRUE(clean_error(found.error()));
      co_await sim::delay(100_us);
    }
    CO_ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value().value(), sid.value().value());
    u64 promos = 0;
    for (const auto& n : names) promos += node.kernel(n).stats().shard_promotions;
    EXPECT_GE(promos, 1u);

    // New mints carry the new epoch prefix: a reborn primary can never
    // re-issue a segid live from the old epoch.
    Result<Segid> sid2{Errc::unreachable};
    for (int i = 0; i < 400; ++i) {
      sid2 = co_await client->xpmem_make(*op, op->image_base(), 4_KiB);
      if (sid2.ok()) break;
      CO_ASSERT_TRUE(clean_error(sid2.error()));
      co_await sim::delay(100_us);
    }
    CO_ASSERT_TRUE(sid2.ok());
    EXPECT_EQ(segid_epoch(sid2.value()), e2);
    EXPECT_NE(sid2.value().value(), sid.value().value());

    // The grant path still resolves through the new primary.
    auto grant = co_await next->xpmem_get(found.value());
    CO_ASSERT_TRUE(grant.ok());
    CO_ASSERT_TRUE((co_await next->xpmem_release(grant.value())).ok());
  };
  eng.run(main());
}

TEST(NsShard, HubCrashLeavesRegistryServing) {
  // The hub (enclave 0: the central name server, discovery and enclave-id
  // allocation) dies under a two-replica shard. A replica host serves its
  // own registry requests in place, never via the hub, so both hosts keep
  // resolving, attaching and minting after the crash.
  sim::Engine eng(9001);
  Node node(hw::Machine::r420());
  node.set_kernel_config(shard_config({{1, 2}}));
  auto& hub = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("ck1", 0, {4, 5}, 256_MiB);
  node.add_cokernel("ck2", 0, {6, 7}, 256_MiB);
  node.link_peers("ck1", "ck2");  // stay connected when the hub dies
  const std::vector<std::string> names{"ck1", "ck2"};

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    const std::string pname = name_of_id(node, names, 1);
    const std::string fname = name_of_id(node, names, 2);
    XememKernel& primary = node.kernel(pname);
    XememKernel& follower = node.kernel(fname);
    CO_ASSERT_TRUE(primary.is_shard_primary(0));
    // Let the startup hellos land: replication to the follower then takes
    // the learned peer link instead of the hub.
    co_await sim::delay(200_us);

    // The primary's own make and search cause no hub forwards.
    os::Process* pp = node.enclave(pname).create_process(1_MiB).value();
    const u64 hub_fwd = hub.stats().messages_forwarded;
    auto own = co_await primary.xpmem_make(*pp, pp->image_base(), 4_KiB, "own");
    CO_ASSERT_TRUE(own.ok());
    auto own_found = co_await primary.xpmem_search("own");
    CO_ASSERT_TRUE(own_found.ok());
    EXPECT_EQ(own_found.value().value(), own.value().value());
    EXPECT_EQ(hub.stats().messages_forwarded, hub_fwd);

    os::Process* fp = node.enclave(fname).create_process(8_MiB).value();
    std::vector<u8> pattern(64_KiB);
    for (size_t i = 0; i < pattern.size(); ++i) pattern[i] = u8(i * 131 + 7);
    CO_ASSERT_TRUE(node.enclave(fname)
                       .proc_write(*fp, fp->image_base(), pattern.data(),
                                   pattern.size())
                       .ok());
    auto sid =
        co_await follower.xpmem_make(*fp, fp->image_base(), 64_KiB, "survivor");
    CO_ASSERT_TRUE(sid.ok());

    hub.crash();

    // The pre-crash name resolves from both replica hosts.
    for (XememKernel* k : {&primary, &follower}) {
      auto found = co_await k->xpmem_search("survivor");
      CO_ASSERT_TRUE(found.ok());
      EXPECT_EQ(found.value().value(), sid.value().value());
    }

    // The primary attaches the follower's export and reads its data.
    auto grant = co_await primary.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());
    auto att = co_await primary.xpmem_attach(*pp, grant.value(), 0, 64_KiB);
    CO_ASSERT_TRUE(att.ok());
    co_await node.enclave(pname).touch_attached(*pp, att.value().va,
                                                att.value().pages);
    std::vector<u8> got(pattern.size());
    CO_ASSERT_TRUE(node.enclave(pname)
                       .proc_read(*pp, att.value().va, got.data(), got.size())
                       .ok());
    EXPECT_EQ(got, pattern);
    CO_ASSERT_TRUE((co_await primary.xpmem_detach(*pp, att.value())).ok());
    CO_ASSERT_TRUE((co_await primary.xpmem_release(grant.value())).ok());

    // Both hosts mint new segids.
    auto p2 = co_await primary.xpmem_make(*pp, pp->image_base(), 4_KiB);
    auto f2 = co_await follower.xpmem_make(*fp, fp->image_base(), 4_KiB);
    CO_ASSERT_TRUE(p2.ok());
    CO_ASSERT_TRUE(f2.ok());
    std::set<u64> segids{own.value().value(), sid.value().value(),
                         p2.value().value(), f2.value().value()};
    EXPECT_EQ(segids.size(), 4u) << "every mint is unique";

    EXPECT_EQ(follower.pinned_frames(), 0u);
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

TEST(NsShard, CollectiveBootstrapSurvivesPrimaryCrash) {
  // Kill the shard's boot primary mid-collective-bootstrap. The primary
  // hosts no rank: the bootstrap's retry loops ride out the election and
  // the collective completes on the two ranks' enclaves.
  sim::Engine eng(9005);
  Node node(hw::Machine::r420());
  node.set_kernel_config(shard_config({{1, 2, 3}}));
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("cka", 0, {4, 5}, 256_MiB);
  node.add_cokernel("ckb", 0, {6, 7}, 256_MiB);
  node.add_cokernel("ckc", 0, {8, 9}, 256_MiB);
  const std::vector<std::string> names{"cka", "ckb", "ckc"};
  node.link_peers("cka", "ckb");
  node.link_peers("cka", "ckc");
  node.link_peers("ckb", "ckc");

  coll::CollConfig ccfg;
  ccfg.slot_bytes = 32_KiB;
  ccfg.chunk_bytes = 8_KiB;
  ccfg.bootstrap_timeout = 400_ms;
  ccfg.timeout = 100_ms;

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    XememKernel* boot = node.kernel_with_id(1);
    CO_ASSERT_TRUE(boot != nullptr && boot->is_shard_primary(0));
    // The bootstrap's very next shard interactions trip the crash.
    boot->crash_after_ns_requests(boot->stats().ns_requests + 3);

    const std::vector<std::string> placement{name_of_id(node, names, 2),
                                             name_of_id(node, names, 3)};
    std::vector<coll::Comm::Member> members;
    for (u32 r = 0; r < 2; ++r) {
      auto& enclave = node.enclave(placement[r]);
      hw::Core* core = enclave.cores()[0];
      auto proc = enclave.create_process(
          coll::Comm::region_bytes(2, ccfg) + kPageSize, core);
      CO_ASSERT_TRUE(proc.ok());
      members.push_back(coll::Comm::Member{&node.kernel(placement[r]), &enclave,
                                           proc.value(), core,
                                           proc.value()->image_base()});
    }

    std::vector<std::unique_ptr<coll::Comm>> comms(2);
    u32 pending = 2;
    sim::Event all_done;
    auto boot_rank = [&](u32 r) -> sim::Task<void> {
      auto c = co_await coll::Comm::create(members[r], "ft", r, 2, ccfg);
      CO_ASSERT_TRUE(c.ok());
      comms[r] = std::move(c).value();
      if (--pending == 0) all_done.set();
    };
    for (u32 r = 0; r < 2; ++r) sim::Engine::current()->spawn(boot_rank(r));
    co_await all_done.wait();
    CO_ASSERT_TRUE(comms[0] != nullptr && comms[1] != nullptr);
    EXPECT_TRUE(boot->is_crashed()) << "the crashpoint must actually fire";
    u64 promos = 0;
    for (const auto& n : names) promos += node.kernel(n).stats().shard_promotions;
    EXPECT_GE(promos, 1u) << "a surviving replica took over the shard";

    // The communicator works after the election: barrier + allreduce.
    u32 left = 2;
    sim::Event ops_done;
    auto run_ops = [&](u32 r) -> sim::Task<void> {
      CO_ASSERT_TRUE((co_await comms[r]->barrier()).ok());
      std::vector<double> in(512), out(512, 0.0);
      for (size_t i = 0; i < in.size(); ++i) in[i] = double(r + 1);
      CO_ASSERT_TRUE(
          (co_await comms[r]->allreduce(in.data(), out.data(), in.size(),
                                        coll::ReduceOp::sum))
              .ok());
      for (double v : out) CO_ASSERT_TRUE(v == 3.0);  // 1 + 2
      (void)co_await comms[r]->finalize();
      if (--left == 0) ops_done.set();
    };
    for (u32 r = 0; r < 2; ++r) sim::Engine::current()->spawn(run_ops(r));
    co_await ops_done.wait();
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

TEST(NsShard, QuorumWritesSurviveFollowerCrashWithoutHanging) {
  // One dead follower leaves the majority intact: writes keep committing
  // (the replication round settles on majority acks, not on the dead
  // peer's timeout) and lookups keep serving. A second dead follower
  // leaves the primary below quorum: writes fail bounded — retry_later
  // inside the grace window, terminal no_quorum after — and never hang.
  sim::Engine eng(7003);
  Node node(hw::Machine::r420());
  node.set_kernel_config(shard_config({{1, 2, 3}}));
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("cka", 0, {4, 5}, 256_MiB);
  node.add_cokernel("ckb", 0, {6, 7}, 256_MiB);
  node.add_cokernel("ckc", 0, {8, 9}, 256_MiB);
  node.add_cokernel("cli", 0, {10, 11}, 256_MiB);
  const std::vector<std::string> names{"cka", "ckb", "ckc", "cli"};
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      node.link_peers(names[i], names[j]);
    }
  }

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    XememKernel* client = &node.kernel(name_of_id(node, names, 4));
    const std::string cname = name_of_id(node, names, 4);
    XememKernel* primary = node.kernel_with_id(1);
    CO_ASSERT_TRUE(client != nullptr && primary != nullptr);
    os::Process* op = node.enclave(cname).create_process(8_MiB).value();

    for (int i = 0; i < 4; ++i) {
      auto s = co_await client->xpmem_make(*op, op->image_base(), 4_KiB,
                                           "pre" + std::to_string(i));
      CO_ASSERT_TRUE(s.ok());
    }
    const u64 committed_before = primary->stats().quorum_writes;

    // Crash one follower: 2-of-3 still commits, bounded by the surviving
    // majority, not the dead peer's silence.
    node.kernel_with_id(3)->crash();
    for (int i = 0; i < 6; ++i) {
      Result<Segid> s{Errc::unreachable};
      for (int t = 0; t < 120; ++t) {
        s = co_await client->xpmem_make(*op, op->image_base(), 4_KiB,
                                        "mid" + std::to_string(i));
        if (s.ok()) break;
        CO_ASSERT_TRUE(clean_error(s.error()));
        co_await sim::delay(500_us);
      }
      CO_ASSERT_TRUE(s.ok());
    }
    EXPECT_GT(primary->stats().quorum_writes, committed_before);
    u64 promos = 0;
    for (const auto& n : names) promos += node.kernel(n).stats().shard_promotions;
    EXPECT_EQ(promos, 0u) << "a dead follower does not trigger an election";
    auto look = co_await client->xpmem_search("mid0");
    EXPECT_TRUE(look.ok()) << "lookups serve with one dead replica";
    CO_ASSERT_TRUE(look.ok());

    // Crash the second follower: the primary is a minority of one. Writes
    // must fail bounded (no waiter ever parks on the dead quorum) with
    // retry_later inside the grace window and no_quorum after it.
    node.kernel_with_id(2)->crash();
    bool saw_retry_later = false, saw_no_quorum = false;
    const sim::TimePoint t0 = sim::now();
    for (int i = 0; i < 60 && !saw_no_quorum; ++i) {
      auto s = co_await client->xpmem_make(*op, op->image_base(), 4_KiB);
      CO_ASSERT_TRUE(!s.ok());
      CO_ASSERT_TRUE(clean_error(s.error()));
      if (s.error() == Errc::retry_later) saw_retry_later = true;
      if (s.error() == Errc::no_quorum) saw_no_quorum = true;
      co_await sim::delay(500_us);
    }
    EXPECT_TRUE(saw_retry_later) << "grace window answers retry_later";
    EXPECT_TRUE(saw_no_quorum) << "past the grace the loss is terminal";
    EXPECT_GE(primary->stats().no_quorum_rejects, 1u);
    EXPECT_LT(sim::now() - t0, u64(200) * 1_ms) << "bounded, not hung";
  };
  eng.run(main());
}

TEST(NsShard, MinorityPartitionGraceThenTerminalThenHeals) {
  // Partition the primary (with the client) away from both followers. The
  // majority side elects a new primary; the stranded old primary answers
  // retry_later inside the grace window and terminal no_quorum after it.
  // Healing the partition deposes the old primary (check-quorum probes
  // discover the higher epoch) and the client re-resolves via stale_epoch
  // to the new primary — the committed registry intact throughout.
  sim::Engine eng(7004);
  Node node(hw::Machine::r420());
  node.set_kernel_config(shard_config({{1, 2, 3}}));
  node.enable_fault_injection(FaultSpec{}, /*seed=*/701);  // transparent wrap
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("cka", 0, {4, 5}, 256_MiB);
  node.add_cokernel("ckb", 0, {6, 7}, 256_MiB);
  node.add_cokernel("ckc", 0, {8, 9}, 256_MiB);
  const std::vector<std::string> names{"cka", "ckb", "ckc"};
  node.link_peers("cka", "ckb");
  node.link_peers("cka", "ckc");
  node.link_peers("ckb", "ckc");

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    const std::string pname = name_of_id(node, names, 1);
    const std::string f1 = name_of_id(node, names, 2);
    const std::string f2 = name_of_id(node, names, 3);
    XememKernel* primary = &node.kernel(pname);
    XememKernel& client = node.kernel("linux");  // hub-side, stays with p
    CO_ASSERT_TRUE(primary->is_shard_primary(0));

    os::Process* op = node.enclave("linux").create_process(8_MiB).value();
    auto sid =
        co_await client.xpmem_make(*op, op->image_base(), 64_KiB, "part");
    if (!sid.ok()) {
      ADD_FAILURE() << "initial make failed: " << errc_name(sid.error());
    }
    CO_ASSERT_TRUE(sid.ok());

    // Strand {primary, hub/client} away from {f1, f2}.
    node.sever(pname, f1);
    node.sever(pname, f2);
    node.sever("linux", f1);
    node.sever("linux", f2);

    // Grace: the stranded primary keeps answering, retryable.
    bool saw_retry_later = false, saw_no_quorum = false;
    for (int i = 0; i < 60 && !saw_no_quorum; ++i) {
      auto s = co_await client.xpmem_search("part");
      if (!s.ok()) {
        CO_ASSERT_TRUE(clean_error(s.error()));
        if (s.error() == Errc::retry_later) saw_retry_later = true;
        if (s.error() == Errc::no_quorum) saw_no_quorum = true;
      }
      co_await sim::delay(500_us);
    }
    EXPECT_TRUE(saw_retry_later) << "minority answers retry_later in grace";
    EXPECT_TRUE(saw_no_quorum) << "terminal no_quorum past the grace";
    EXPECT_GE(primary->stats().no_quorum_rejects, 1u);

    // Meanwhile the majority side elected a replacement.
    XememKernel* next = nullptr;
    for (int i = 0; i < 400 && next == nullptr; ++i) {
      for (const auto& n : {f1, f2}) {
        if (node.kernel(n).is_shard_primary(0)) next = &node.kernel(n);
      }
      if (next == nullptr) co_await sim::delay(100_us);
    }
    CO_ASSERT_TRUE(next != nullptr);
    EXPECT_GE(next->shard_epoch_of(0), 2u);

    // Heal: check-quorum probes depose the stranded primary; the client's
    // stale-epoch bounce re-resolves it to the survivor, which serves the
    // registration committed before the partition.
    node.heal(pname, f1);
    node.heal(pname, f2);
    node.heal("linux", f1);
    node.heal("linux", f2);
    Result<Segid> found{Errc::unreachable};
    for (int i = 0; i < 400; ++i) {
      found = co_await client.xpmem_search("part");
      if (found.ok()) break;
      CO_ASSERT_TRUE(clean_error(found.error()));
      co_await sim::delay(500_us);
    }
    CO_ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value().value(), sid.value().value());
    for (int i = 0; i < 400 && primary->is_shard_primary(0); ++i) {
      co_await sim::delay(100_us);
    }
    EXPECT_FALSE(primary->is_shard_primary(0)) << "old primary stepped down";
  };
  eng.run(main());
}

// One crashpoint-sweep run: kill @p victim_eid's enclave immediately
// before its k-th processed shard command (k = 0 disables the hook) and
// drive a registration/lookup/remove workload with deadline-bounded
// retries. Every op must complete or fail with a clean status; the
// workload as a whole must converge.
struct ShardSweep {
  u64 ns_requests{0};
  u64 promotions{0};
};

ShardSweep run_shard_crashpoint(u64 victim_eid, u64 k) {
  ShardSweep out;
  sim::Engine eng(7100);  // same seed for every k: only the crashpoint moves
  Node node(hw::Machine::r420());
  node.set_kernel_config(shard_config({{1, 2, 3}, {2, 3, 1}}));
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("cka", 0, {4, 5}, 256_MiB);
  node.add_cokernel("ckb", 0, {6, 7}, 256_MiB);
  node.add_cokernel("ckc", 0, {8, 9}, 256_MiB);
  node.add_cokernel("cli", 0, {10, 11}, 256_MiB);
  const std::vector<std::string> names{"cka", "ckb", "ckc", "cli"};
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      node.link_peers(names[i], names[j]);
    }
  }

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    XememKernel* victim = node.kernel_with_id(victim_eid);
    XememKernel* client = node.kernel_with_id(4);
    CO_ASSERT_TRUE(victim != nullptr && client != nullptr);
    const std::string cname = name_of_id(node, names, 4);
    if (k != 0) victim->crash_after_ns_requests(k);
    os::Process* op = node.enclave(cname).create_process(8_MiB).value();

    // Registrations across both shards (named + anonymous), lookups, then
    // removals — each retried under a deadline with clean interim errors.
    std::vector<Segid> minted;
    for (int i = 0; i < 4; ++i) {
      const std::string nm =
          i < 2 ? "swp" + std::to_string(i) : std::string{};
      Result<Segid> s{Errc::unreachable};
      for (int t = 0; t < 120; ++t) {
        s = co_await client->xpmem_make(*op, op->image_base(), 4_KiB, nm);
        if (s.ok()) break;
        // already_exists on a named retry: the predecessor's alloc
        // committed but its response died with the crashing replica.
        // Converged — the registration is durable; fetch it by name.
        if (!nm.empty() && s.error() == Errc::already_exists) {
          s = co_await client->xpmem_search(nm);
          if (s.ok()) break;
        }
        CO_ASSERT_TRUE(clean_error(s.error()));
        co_await sim::delay(500_us);
      }
      CO_ASSERT_TRUE(s.ok());
      minted.push_back(s.value());
    }

    for (int i = 0; i < 2; ++i) {
      Result<Segid> f{Errc::unreachable};
      for (int t = 0; t < 120; ++t) {
        f = co_await client->xpmem_search("swp" + std::to_string(i));
        if (f.ok()) break;
        CO_ASSERT_TRUE(clean_error(f.error()));
        co_await sim::delay(500_us);
      }
      CO_ASSERT_TRUE(f.ok());
      EXPECT_EQ(f.value().value(), minted[size_t(i)].value())
          << "victim " << victim_eid << " crashpoint " << k;
    }

    for (Segid s : minted) {
      Result<void> rm{Errc::unreachable};
      for (int t = 0; t < 120; ++t) {
        rm = co_await client->xpmem_remove(*op, s);
        // no_such_segid: a retried remove whose predecessor committed but
        // whose response died with the crashing replica — converged.
        if (rm.ok() || rm.error() == Errc::no_such_segid) break;
        CO_ASSERT_TRUE(clean_error(rm.error()));
        co_await sim::delay(500_us);
      }
      EXPECT_TRUE(rm.ok() || rm.error() == Errc::no_such_segid)
          << "victim " << victim_eid << " crashpoint " << k
          << ": remove must converge, got " << errc_name(rm.error());
    }

    for (const auto& n : names) {
      out.promotions += node.kernel(n).stats().shard_promotions;
    }
    out.ns_requests = victim->stats().ns_requests;
  };
  eng.run(main());
  return out;
}

TEST(NsShard, CrashpointSweepConvergesForPrimariesAndFollowers) {
  // Enumerate every shard command the victim processes during the
  // workload and kill it at each one — once for a boot primary (enclave 1:
  // primary of shard 0, follower of shard 1) and once for a pure-follower
  // slot of shard 0 that is also primary of shard 1 (enclave 2). The
  // k = 0 baselines also check pay-for-use: no election when nothing dies.
  for (u64 victim : {u64{1}, u64{2}}) {
    ShardSweep base = run_shard_crashpoint(victim, 0);
    EXPECT_EQ(base.promotions, 0u)
        << "victim " << victim << ": baseline must not elect";
    ASSERT_GT(base.ns_requests, 4u);
    u64 promotions = 0;
    // Late crashpoints only move the kill between follower-probe services;
    // cap the sweep where the workload's own commands have all been seen.
    const u64 kmax = std::min<u64>(base.ns_requests + 2, 30);
    for (u64 k = 1; k <= kmax; ++k) {
      ShardSweep r = run_shard_crashpoint(victim, k);
      promotions += r.promotions;
    }
    // Early crashpoints can land before the victim matters to the
    // workload's quorums; across the sweep the surviving members must
    // have elected replacements for the victim's primary slots.
    EXPECT_GT(promotions, 0u)
        << "victim " << victim << ": crashes must recover via election";
  }
}

TEST(NsShard, DedupCacheIsBoundedByCapAndTtl) {
  // The req-id dedup cache is no longer an unbounded map: it holds at most
  // 1024 responses, evicting the LRU entry, and an entry idle for the retry
  // window, 2 * (request_timeout + backoff_max), ages out. Both evictions
  // count in dedup_evictions.
  sim::Engine eng(7005);
  Node node(hw::Machine::r420());
  auto cfg = shard_config({{1}});
  cfg.request_timeout = 1_s;  // the window outlasts every make below
  node.set_kernel_config(cfg);
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("cka", 0, {4, 5}, 256_MiB);
  node.add_cokernel("cli", 0, {6, 7}, 256_MiB);
  node.link_peers("cka", "cli");

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    XememKernel* host = node.kernel_with_id(1);
    XememKernel* client = node.kernel_with_id(2);
    CO_ASSERT_TRUE(host != nullptr && client != nullptr);
    const std::string cname =
        name_of_id(node, {"cka", "cli"}, client->id().value());
    os::Process* op = node.enclave(cname).create_process(8_MiB).value();

    const sim::TimePoint t0 = sim::now();
    std::vector<Segid> minted;
    for (int i = 0; i < 1030; ++i) {
      auto s = co_await client->xpmem_make(*op, op->image_base(), 4_KiB);
      CO_ASSERT_TRUE(s.ok());
      minted.push_back(s.value());
    }
    const sim::Duration window = 2 * (cfg.request_timeout + cfg.backoff_max);
    CO_ASSERT_TRUE(sim::now() - t0 < window);
    EXPECT_EQ(host->dedup_entries(), 1024u) << "capacity bound holds";
    EXPECT_GE(host->stats().dedup_evictions, 6u);

    // Idle entries age out: after a window of silence the next command
    // finds only expired entries and prunes them.
    co_await sim::delay(window);
    CO_ASSERT_TRUE((co_await client->xpmem_remove(*op, minted[0])).ok());
    EXPECT_LE(host->dedup_entries(), 1u) << "the window expired the idle entries";
  };
  eng.run(main());
}

TEST(NsShard, ShardedFailoverIsDeterministicPerSeed) {
  // The sharded machinery rides the deterministic scheduler: identical
  // seeds reproduce the election instant and quorum accounting exactly.
  auto run_once = []() {
    sim::Engine eng(7006);
    Node node(hw::Machine::r420());
    node.set_kernel_config(shard_config({{1, 2, 3}}));
    node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    node.add_cokernel("cka", 0, {4, 5}, 256_MiB);
    node.add_cokernel("ckb", 0, {6, 7}, 256_MiB);
    node.add_cokernel("ckc", 0, {8, 9}, 256_MiB);
    const std::vector<std::string> names{"cka", "ckb", "ckc"};
    node.link_peers("cka", "ckb");
    node.link_peers("cka", "ckc");
    node.link_peers("ckb", "ckc");
    u64 fingerprint = 0;
    auto main = [&]() -> sim::Task<void> {
      co_await node.start();
      const std::string cname = name_of_id(node, names, 2);
      XememKernel* client = &node.kernel(cname);
      os::Process* op = node.enclave(cname).create_process(8_MiB).value();
      for (int i = 0; i < 3; ++i) {
        auto s = co_await client->xpmem_make(*op, op->image_base(), 4_KiB,
                                             "d" + std::to_string(i));
        CO_ASSERT_TRUE(s.ok());
      }
      node.kernel_with_id(1)->crash();
      XememKernel* next = nullptr;
      for (int i = 0; i < 400 && next == nullptr; ++i) {
        for (u64 eid : {2ull, 3ull}) {
          XememKernel* kk = node.kernel_with_id(eid);
          if (kk != nullptr && kk->is_shard_primary(0)) next = kk;
        }
        if (next == nullptr) co_await sim::delay(100_us);
      }
      CO_ASSERT_TRUE(next != nullptr);
      fingerprint = sim::now() ^ (next->stats().quorum_writes << 16) ^
                    (next->shard_epoch_of(0) << 40) ^
                    (next->shard_log_size(0) << 48);
    };
    eng.run(main());
    return fingerprint;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(NsShard, HubExportsKeepTheirLeaseUnderSharding) {
  // Regression: under sharding with leases, the hub's own export was
  // garbage-collected one lease after xpmem_make. The committed alloc
  // grants its owner (the hub) a lease at every replica, and the hub now
  // renews it like every other kernel, so the export stays resolvable.
  sim::Engine eng(4242);
  Node node(hw::Machine::r420());
  KernelConfig cfg;
  cfg.lease_duration = 5_ms;
  cfg.ns_shards = {{1, 2, 3}};
  node.set_kernel_config(cfg);
  auto& hub = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& kitten0 = node.add_cokernel("kitten0", 0, {6, 7}, 256_MiB);
  node.add_cokernel("kitten1", 0, {8, 9}, 256_MiB);
  node.add_vm("vm", "linux", 256_MiB, {4, 5});

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* hp = node.enclave("linux").create_process(1_MiB).value();
    auto sid = co_await hub.xpmem_make(*hp, hp->image_base(), 64_KiB, "hubseg");
    CO_ASSERT_TRUE(sid.ok());
    auto grant = co_await kitten0.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());
    CO_ASSERT_TRUE((co_await kitten0.xpmem_release(grant.value())).ok());

    co_await sim::delay(30_ms);  // six leases' worth of renewals
    auto again = co_await kitten0.xpmem_get(sid.value());
    EXPECT_TRUE(again.ok()) << errc_name(again.error());
    auto found = co_await kitten0.xpmem_search("hubseg");
    CO_ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value().value(), sid.value().value());
    if (again.ok()) {
      CO_ASSERT_TRUE((co_await kitten0.xpmem_release(again.value())).ok());
    }
    u64 expired = 0;
    for (const char* n : {"linux", "kitten0", "kitten1", "vm"}) {
      expired += node.kernel(n).stats().leases_expired;
    }
    EXPECT_EQ(expired, 0u);
    node.quiesce();
  };
  eng.run(main());
}

TEST(NsShard, ConcurrentAllocsOfOneNameCommitOnce) {
  // Regression: a three-replica primary checked a name before its quorum
  // commit suspended, so two concurrent allocs of one name both
  // committed. The name is now checked under the shard's write mutex: one
  // make wins, the other gets already_exists, and the name resolves to the
  // winner.
  for (u64 seed : {7001ull, 7002ull, 7003ull}) {
    sim::Engine eng(seed);
    Node node(hw::Machine::r420());
    node.set_kernel_config(shard_config({{1, 2, 3}}));
    node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    node.add_cokernel("kitten0", 0, {4, 5}, 256_MiB);
    auto& kitten1 = node.add_cokernel("kitten1", 0, {6, 7}, 256_MiB);
    auto& kitten2 = node.add_cokernel("kitten2", 0, {8, 9}, 256_MiB);
    node.link_peers("kitten0", "kitten1");
    node.link_peers("kitten0", "kitten2");
    node.link_peers("kitten1", "kitten2");

    auto main = [&]() -> sim::Task<void> {
      co_await node.start();
      co_await sim::delay(200_us);  // let the startup hellos land
      os::Process* p1 = node.enclave("kitten1").create_process(1_MiB).value();
      os::Process* p2 = node.enclave("kitten2").create_process(1_MiB).value();
      Result<Segid> r1{Errc::unreachable};
      Result<Segid> r2{Errc::unreachable};
      u32 pending = 2;
      sim::Event done;
      auto make = [&](XememKernel* k, os::Process* p,
                      Result<Segid>* out) -> sim::Task<void> {
        *out = co_await k->xpmem_make(*p, p->image_base(), 4_KiB, "dup");
        if (--pending == 0) done.set();
      };
      sim::Engine::current()->spawn(make(&kitten1, p1, &r1));
      sim::Engine::current()->spawn(make(&kitten2, p2, &r2));
      co_await done.wait();

      CO_ASSERT_TRUE(r1.ok() != r2.ok());
      const Result<Segid>& winner = r1.ok() ? r1 : r2;
      const Result<Segid>& loser = r1.ok() ? r2 : r1;
      EXPECT_EQ(loser.error(), Errc::already_exists) << "seed " << seed;
      auto found = co_await kitten1.xpmem_search("dup");
      CO_ASSERT_TRUE(found.ok());
      EXPECT_EQ(found.value().value(), winner.value().value()) << "seed " << seed;
    };
    eng.run(main());
  }
}

TEST(NsShard, HubHostedGroupOutlivesTheHub) {
  // A replica group may include the hub: {0, 1, 2}, with the hub as boot
  // primary. The registry serves while the hub lives; once it dies, the
  // {1, 2} majority elects a primary and keeps answering search and get
  // for the existing segids over peer links. Enclave ids still come only
  // from the hub, so an enclave that registers after its death stays
  // registration_failed() (DESIGN.md §6b).
  sim::Engine eng(9011);
  Node node(hw::Machine::r420());
  node.set_kernel_config(shard_config({{0, 1, 2}}));
  auto& hub = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("ck1", 0, {4, 5}, 256_MiB);
  node.add_cokernel("ck2", 0, {6, 7}, 256_MiB);
  node.add_cokernel("ck3", 0, {8, 9}, 256_MiB);
  node.link_peers("ck1", "ck2");
  node.link_peers("ck1", "ck3");
  node.link_peers("ck2", "ck3");
  const std::vector<std::string> names{"ck1", "ck2", "ck3"};

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    co_await sim::delay(200_us);  // let the startup hellos land
    CO_ASSERT_TRUE(hub.is_shard_primary(0));
    const std::string n1 = name_of_id(node, names, 1);
    const std::string n2 = name_of_id(node, names, 2);
    const std::string n3 = name_of_id(node, names, 3);
    XememKernel& r1 = node.kernel(n1);
    XememKernel& r2 = node.kernel(n2);
    XememKernel& client = node.kernel(n3);

    os::Process* p1 = node.enclave(n1).create_process(1_MiB).value();
    os::Process* p2 = node.enclave(n2).create_process(1_MiB).value();
    os::Process* hp = node.enclave("linux").create_process(1_MiB).value();
    auto alpha = co_await r1.xpmem_make(*p1, p1->image_base(), 64_KiB, "alpha");
    auto beta = co_await r2.xpmem_make(*p2, p2->image_base(), 64_KiB, "beta");
    auto own = co_await hub.xpmem_make(*hp, hp->image_base(), 4_KiB, "hubseg");
    CO_ASSERT_TRUE(alpha.ok() && beta.ok() && own.ok());

    // Before the crash the hub-led group serves every host and the client.
    auto found = co_await client.xpmem_search("alpha");
    CO_ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value().value(), alpha.value().value());
    auto g = co_await client.xpmem_get(beta.value());
    CO_ASSERT_TRUE(g.ok());
    CO_ASSERT_TRUE((co_await client.xpmem_release(g.value())).ok());
    auto hub_found = co_await hub.xpmem_search("beta");
    CO_ASSERT_TRUE(hub_found.ok());
    for (XememKernel* k : {&r1, &r2}) {
      CO_ASSERT_TRUE(k->shard_registry(0) != nullptr);
      EXPECT_EQ(k->shard_registry(0)->segid_count(), 3u) << "replicated";
    }

    hub.crash();

    // The surviving majority elects a primary from its own slots...
    bool elected = false;
    for (int i = 0; i < 400 && !elected; ++i) {
      elected = r1.is_shard_primary(0) || r2.is_shard_primary(0);
      if (!elected) co_await sim::delay(100_us);
    }
    EXPECT_TRUE(elected);
    EXPECT_GE(std::max(r1.shard_epoch_of(0), r2.shard_epoch_of(0)), 2u);

    // ...and the client's lookups ride the retries over its peer links.
    Result<Segid> after{Errc::unreachable};
    for (int t = 0; t < 120; ++t) {
      after = co_await client.xpmem_search("alpha");
      if (after.ok()) break;
      CO_ASSERT_TRUE(clean_error(after.error()));
      co_await sim::delay(500_us);
    }
    CO_ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().value(), alpha.value().value());
    for (Segid s : {alpha.value(), beta.value()}) {
      Result<XpmemGrant> grant{Errc::unreachable};
      for (int t = 0; t < 120; ++t) {
        grant = co_await client.xpmem_get(s);
        if (grant.ok()) break;
        CO_ASSERT_TRUE(clean_error(grant.error()));
        co_await sim::delay(500_us);
      }
      CO_ASSERT_TRUE(grant.ok());
      CO_ASSERT_TRUE((co_await client.xpmem_release(grant.value())).ok());
    }

    // A late enclave can reach no id allocator.
    auto& late = node.add_cokernel("late", 0, {10, 11}, 256_MiB);
    late.start();
    co_await late.wait_registered();
    EXPECT_TRUE(late.registration_failed());
    node.quiesce();
  };
  eng.run(main());
}

}  // namespace
}  // namespace xemem
