// Fault-tolerance subsystem: deterministic channel fault injection
// (FaultyEndpoint), request retry/backoff with per-command idempotency
// (req_id dedup caches), abrupt enclave crash semantics, name-server
// lease expiry / garbage collection, and the defined terminal states of a
// central name-server death (DESIGN.md §6b).
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "pisces/ipi_channel.hpp"
#include "xemem/fault.hpp"
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

// Tight protocol policy so failure paths resolve in simulated
// milliseconds instead of the production-scale 10 s timeout.
KernelConfig tight_config() {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 6;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 1_ms;
  return cfg;
}

TEST(Fault, LossyChannelEndToEndCompletesViaRetries) {
  // Acceptance: with 10% message loss, a make/get/attach/detach workload
  // still completes (deterministically per seed) through retries, and the
  // dedup caches suppress the re-executions whose originals did arrive.
  sim::Engine eng(7001);
  Node node(hw::Machine::r420());
  node.set_kernel_config(tight_config());
  node.enable_fault_injection(FaultSpec::loss(0.10), /*seed=*/501);
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* owner = node.enclave("ck").create_process(8_MiB).value();
    os::Process* user = node.enclave("linux").create_process(1_MiB).value();
    auto sid = co_await ck.xpmem_make(*owner, owner->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());

    for (int i = 0; i < 20; ++i) {
      auto grant = co_await mgmt.xpmem_get(sid.value());
      CO_ASSERT_TRUE(grant.ok());
      auto att = co_await mgmt.xpmem_attach(*user, grant.value(), 0, 1_MiB);
      CO_ASSERT_TRUE(att.ok());
      CO_ASSERT_TRUE((co_await mgmt.xpmem_detach(*user, att.value())).ok());
      CO_ASSERT_TRUE((co_await mgmt.xpmem_release(grant.value())).ok());
    }

    // Losses happened (sanity on the injector itself)...
    u64 dropped = 0;
    for (const auto& ep : node.faulty_endpoints()) dropped += ep->fault_stats().dropped;
    EXPECT_GT(dropped, 0u);
    // ...so completion must have come from retries, and at least one
    // retried command whose original arrived was answered from cache.
    const u64 retries = mgmt.stats().retries + ck.stats().retries;
    const u64 dups = mgmt.stats().dup_suppressed + ck.stats().dup_suppressed;
    EXPECT_GT(retries, 0u);
    EXPECT_GT(dups, 0u);
    // No double-pinned frames survive despite duplicated attaches.
    EXPECT_EQ(ck.pinned_frames(), 0u);
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

TEST(Fault, OwnerCrashGarbageCollectedViaLeases) {
  // Acceptance: the segment owner's enclave crash()es mid-workload;
  // pending attachers get an error (no hang) within lease expiry plus a
  // retry cycle, the name server drops every trace of the dead enclave,
  // and all pinned frames drain.
  sim::Engine eng(7002);
  Node node(hw::Machine::r420());
  KernelConfig cfg = tight_config();
  cfg.lease_duration = 5_ms;  // heartbeats every ~1.67 ms
  node.set_kernel_config(cfg);
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner_k = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user_k = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(1_MiB).value();
    auto sid = co_await owner_k.xpmem_make(*op, op->image_base(), 1_MiB, "victim");
    CO_ASSERT_TRUE(sid.ok());
    auto grant = co_await user_k.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());
    auto att = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(att.ok());
    EXPECT_GT(owner_k.pinned_frames(), 0u);

    owner_k.crash();
    EXPECT_TRUE(owner_k.is_crashed());
    // The dying enclave's memory is reclaimed: its pins drain immediately.
    EXPECT_EQ(owner_k.pinned_frames(), 0u);
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);

    // A pending attacher errors out instead of hanging.
    const sim::TimePoint t0 = sim::now();
    auto att2 = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    EXPECT_FALSE(att2.ok());
    EXPECT_TRUE(att2.error() == Errc::no_such_segid ||
                att2.error() == Errc::unreachable)
        << errc_name(att2.error());
    const sim::Duration budget =
        cfg.lease_duration +
        (cfg.max_retries + 1) * (cfg.request_timeout + cfg.backoff_max);
    EXPECT_LE(sim::now() - t0, budget) << "attacher must fail fast, not hang";
    EXPECT_GT(user_k.stats().timeouts, 0u);

    // Give the lease reaper a tick past expiry, then audit the registry.
    co_await sim::delay(2 * cfg.lease_duration);
    EXPECT_GE(mgmt.stats().leases_expired, 1u);
    EXPECT_FALSE(mgmt.ns_has_lease(owner_k.id()));
    EXPECT_FALSE(mgmt.knows_route(owner_k.id()));
    EXPECT_EQ(mgmt.ns_segid_count(), 0u) << "dead enclave's segids GC'd";
    EXPECT_EQ(mgmt.ns_name_count(), 0u) << "dead enclave's names GC'd";

    // The name space answers sanely afterwards.
    EXPECT_EQ((co_await user_k.xpmem_search("victim")).error(), Errc::no_such_segid);
    EXPECT_EQ((co_await user_k.xpmem_get(sid.value())).error(), Errc::no_such_segid);
    // The surviving (live) enclave's lease keeps renewing via heartbeats.
    EXPECT_TRUE(mgmt.ns_has_lease(user_k.id()));
  };
  eng.run(main());
}

TEST(Fault, DuplicateAttachDeliveryPinsFramesOnce) {
  // Replay an attach request verbatim through a raw channel: the owner
  // must answer the duplicate from its response cache, not pin twice.
  sim::Engine eng(7003);
  Node node(hw::Machine::r420());
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);
  // Raw side channel into the co-kernel; the test plays a remote enclave.
  // Added after the real channel so discovery probes the real one first.
  auto side = pisces::make_ipi_channel(&node.machine().core(1),
                                       &node.machine().core(7));
  ck.add_channel(side.b.get());

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("ck").create_process(8_MiB).value();
    auto sid = co_await ck.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());

    Message attach;
    attach.cmd = Cmd::attach;
    attach.src = EnclaveId{77};  // fabricated remote enclave
    attach.dst = ck.id();
    attach.req_id = 0xdead0001;
    attach.segid = sid.value();
    attach.offset = 0;
    attach.size = 1_MiB;
    co_await side.a->send(attach);
    co_await side.a->send(attach);  // verbatim replay

    Message r1 = co_await side.a->inbox().recv();
    Message r2 = co_await side.a->inbox().recv();
    EXPECT_EQ(r1.cmd, Cmd::attach_resp);
    EXPECT_EQ(r1.status, Errc::ok);
    EXPECT_EQ(r2.cmd, Cmd::attach_resp);
    EXPECT_EQ(r2.status, Errc::ok);
    EXPECT_EQ(r1.offset, r2.offset) << "cached response echoes the same handle";
    EXPECT_EQ(r1.frames, r2.frames);
    EXPECT_EQ(r1.frames.page_count(), 256u);
    // Without the attach fast path the wire charges the frames flat, 8 B
    // per page.
    EXPECT_TRUE(r1.frames_flat);
    EXPECT_EQ(r1.wire_bytes(), Message::kHeaderBytes + 256 * 8);

    // Pinned exactly once despite two deliveries.
    EXPECT_EQ(ck.stats().attaches_served, 1u);
    EXPECT_EQ(ck.stats().dup_suppressed, 1u);
    EXPECT_EQ(ck.pinned_frames(), 256u);

    Message detach;
    detach.cmd = Cmd::detach;
    detach.src = EnclaveId{77};
    detach.dst = ck.id();
    detach.req_id = 0xdead0002;
    detach.segid = sid.value();
    detach.offset = r1.offset;  // owner-side pin handle
    co_await side.a->send(detach);
    co_await side.a->send(detach);  // replayed detach must stay idempotent
    Message d1 = co_await side.a->inbox().recv();
    Message d2 = co_await side.a->inbox().recv();
    EXPECT_EQ(d1.status, Errc::ok);
    EXPECT_EQ(d2.status, Errc::ok) << "replayed detach answered from cache";

    EXPECT_EQ(ck.pinned_frames(), 0u);
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

TEST(Fault, PendingForwardEntriesExpire) {
  // Regression for the orphan-response leak: a forwarded request whose
  // response never arrives (the owner crashed) must not leave its
  // pending_fwd_ entry behind forever.
  sim::Engine eng(7004);
  Node node(hw::Machine::r420());
  KernelConfig cfg = tight_config();
  node.set_kernel_config(cfg);
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner_k = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user_k = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    auto sid = co_await owner_k.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());

    owner_k.crash();
    // No leases here: the name server still maps the segid to the dead
    // enclave and forwards; every attempt times out at the requester.
    auto grant = co_await user_k.xpmem_get(sid.value());
    EXPECT_EQ(grant.error(), Errc::unreachable);
    EXPECT_GT(mgmt.pending_forwards(), 0u)
        << "the forwarder holds the un-responded entry for the retry window";

    // Past the window, 2 * (request_timeout + backoff_max) = 4 ms here, the
    // next message the forwarder handles sweeps it.
    co_await sim::delay(2 * (cfg.request_timeout + cfg.backoff_max) + 1_ms);
    (void)co_await user_k.xpmem_search("nothing");
    EXPECT_EQ(mgmt.pending_forwards(), 0u);
    EXPECT_GE(mgmt.stats().fwd_expired, 1u);
  };
  eng.run(main());
}

TEST(Fault, KilledLinkFailsFastAndInvalidatesRoute) {
  // kill() models abrupt link death: requests across it burn their
  // retries, fail with unreachable, and the stale route is forgotten.
  sim::Engine eng(7005);
  Node node(hw::Machine::r420());
  node.set_kernel_config(tight_config());
  node.enable_fault_injection(FaultSpec{}, /*seed=*/502);  // transparent wrap
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("ck").create_process(8_MiB).value();
    auto sid = co_await ck.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    EXPECT_TRUE(mgmt.knows_route(ck.id()));

    for (const auto& ep : node.faulty_endpoints()) ep->kill();

    auto grant = co_await mgmt.xpmem_get(sid.value());
    EXPECT_EQ(grant.error(), Errc::unreachable);
    EXPECT_GT(mgmt.stats().timeouts, 0u);
    EXPECT_EQ(mgmt.stats().retries, mgmt.config().max_retries);
    EXPECT_FALSE(mgmt.knows_route(ck.id())) << "stale route invalidated";
  };
  eng.run(main());
}

TEST(Fault, InjectionScheduleIsDeterministicPerSeed) {
  // The fault schedule is a pure function of the injector seed and the
  // traffic order: identical seeds produce identical drop/dup/delay
  // counts and identical end-to-end timing.
  auto run_once = [](u64 inj_seed) {
    sim::Engine eng(7006);
    Node node(hw::Machine::r420());
    node.set_kernel_config(tight_config());
    node.enable_fault_injection(FaultSpec::loss(0.15), inj_seed);
    auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);
    u64 fingerprint = 0;
    auto main = [&]() -> sim::Task<void> {
      co_await node.start();
      os::Process* op = node.enclave("ck").create_process(8_MiB).value();
      os::Process* up = node.enclave("linux").create_process(1_MiB).value();
      auto sid = co_await ck.xpmem_make(*op, op->image_base(), 1_MiB);
      CO_ASSERT_TRUE(sid.ok());
      for (int i = 0; i < 10; ++i) {
        auto grant = co_await mgmt.xpmem_get(sid.value());
        CO_ASSERT_TRUE(grant.ok());
        auto att = co_await mgmt.xpmem_attach(*up, grant.value(), 0, 1_MiB);
        CO_ASSERT_TRUE(att.ok());
        CO_ASSERT_TRUE((co_await mgmt.xpmem_detach(*up, att.value())).ok());
      }
      u64 dropped = 0;
      for (const auto& ep : node.faulty_endpoints()) dropped += ep->fault_stats().dropped;
      fingerprint = sim::now() ^ (dropped << 48) ^
                    ((mgmt.stats().retries + ck.stats().retries) << 32);
    };
    eng.run(main());
    return fingerprint;
  };
  const u64 a = run_once(11);
  const u64 b = run_once(11);
  const u64 c = run_once(12);
  EXPECT_EQ(a, b) << "identical injector seeds reproduce exactly";
  EXPECT_NE(a, c) << "different injector seeds perturb the run";
}

TEST(Fault, HeartbeatsEveryThirdOfLeaseKeepEnclaveAlive) {
  // Lease renewal runs at a fixed cadence derived from the lease: one
  // heartbeat per lease_duration / 3, so a healthy enclave is never
  // garbage-collected even when it is otherwise idle.
  sim::Engine eng(7008);
  Node node(hw::Machine::r420());
  KernelConfig cfg = tight_config();
  cfg.lease_duration = 3_ms;
  node.set_kernel_config(cfg);
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    const u64 beats = ck.stats().heartbeats_sent;
    co_await sim::delay(4 * cfg.lease_duration);
    EXPECT_EQ(ck.stats().heartbeats_sent - beats, 12u)
        << "one heartbeat per lease_duration / 3 = 1 ms";
    os::Process* p = node.enclave("ck").create_process(1_MiB).value();
    auto sid = co_await ck.xpmem_make(*p, p->image_base(), 4_KiB);
    CO_ASSERT_TRUE(sid.ok());
    EXPECT_EQ(mgmt.stats().leases_expired, 0u);
  };
  eng.run(main());
}

TEST(Fault, HeartbeatAtExpiryDoesNotResurrectLease) {
  // Defined edge-case semantics: a lease whose expiry instant has been
  // reached is expired (expiry <= now), and the garbage-collection sweep
  // runs before lease renewal on every NS command — so a heartbeat
  // arriving at (or after) the expiry instant finds the lease collected
  // and must NOT resurrect it. Regular heartbeats, by contrast, keep the
  // lease alive indefinitely.
  sim::Engine eng(7009);
  Node node(hw::Machine::r420());
  KernelConfig cfg = tight_config();
  cfg.lease_duration = 5_ms;
  node.set_kernel_config(cfg);
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  // The test plays an enclave over a raw side channel so it controls the
  // heartbeat schedule exactly (no kernel heartbeat_actor interference).
  auto side = pisces::make_ipi_channel(&node.machine().core(1),
                                       &node.machine().core(2));
  mgmt.add_channel(side.b.get());

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    Message alloc;
    alloc.cmd = Cmd::alloc_enclave_id;
    alloc.dst = EnclaveId{0};
    alloc.req_id = 0xbeef0001;
    co_await side.a->send(std::move(alloc));
    Message resp = co_await side.a->inbox().recv();
    CO_ASSERT_TRUE(resp.status == Errc::ok);
    const EnclaveId fake{resp.payload.at(0)};
    EXPECT_TRUE(mgmt.ns_has_lease(fake));

    auto beat = [&]() -> sim::Task<void> {
      Message hb;
      hb.cmd = Cmd::heartbeat;
      hb.src = fake;
      hb.dst = EnclaveId{0};
      hb.req_id = 0xbeef1000 + u64(sim::now());
      co_await side.a->send(std::move(hb));
    };

    // Healthy cadence: beats at lease/2 keep the lease alive across many
    // would-be expiries.
    for (int i = 0; i < 6; ++i) {
      co_await sim::delay(cfg.lease_duration / 2);
      co_await beat();
    }
    EXPECT_TRUE(mgmt.ns_has_lease(fake));
    EXPECT_EQ(mgmt.stats().leases_expired, 0u);

    // Silence past the expiry instant, then a late heartbeat: the sweep
    // collects first, the renewal finds nothing, the lease stays dead.
    co_await sim::delay(cfg.lease_duration + 1_ms);
    co_await beat();
    co_await sim::delay(1_ms);  // let the NS service the beat
    EXPECT_FALSE(mgmt.ns_has_lease(fake));
    EXPECT_EQ(mgmt.stats().leases_expired, 1u);

    // Still dead after more late beats: no resurrection path exists.
    co_await beat();
    co_await sim::delay(1_ms);
    EXPECT_FALSE(mgmt.ns_has_lease(fake));
    EXPECT_EQ(mgmt.stats().leases_expired, 1u);
  };
  eng.run(main());
}

// Tight policy for the name-server death tests: NS-bound requests and
// discovery give up in simulated milliseconds.
KernelConfig ns_death_config() {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.ping_timeout = 200_us;
  cfg.max_retries = 2;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  cfg.lease_duration = 5_ms;
  return cfg;
}

// A status a workload may see once the central name server is dead:
// transient, or cleanly terminal.
bool clean_ns_error(Errc e) {
  return e == Errc::unreachable || e == Errc::no_name_server ||
         e == Errc::no_such_segid;
}

// One crashpoint-sweep run: kill the name server immediately before its
// k-th processed command (k = 0 disables the hook) and drive the full
// make/get/attach/read/detach/release/remove sequence with bounded
// retries. Nothing takes over the registry (DESIGN.md §6b), so every op
// past the crash fails — it must fail with a clean status, never hang.
struct NsSweep {
  u64 ns_requests{0};  // commands the (dead or alive) NS processed
  bool completed{false};  // every op succeeded
};

NsSweep run_ns_crashpoint(u64 k) {
  NsSweep out;
  sim::Engine eng(9100);  // same seed for every k: only the crashpoint moves
  Node node(hw::Machine::r420());
  node.set_kernel_config(ns_death_config());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck1 = node.add_cokernel("ck1", 0, {4, 5}, 256_MiB);
  auto& ck2 = node.add_cokernel("ck2", 0, {6, 7}, 256_MiB);
  node.link_peers("ck1", "ck2");
  mgmt.crash_after_ns_requests(k);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("ck2").create_process(8_MiB).value();
    os::Process* up = node.enclave("ck1").create_process(1_MiB).value();
    std::vector<u8> pattern(64_KiB);
    for (size_t i = 0; i < pattern.size(); ++i) pattern[i] = u8(i * 53 + k);
    if (ck2.id().valid()) {
      CO_ASSERT_TRUE(node.enclave("ck2")
                         .proc_write(*op, op->image_base(), pattern.data(),
                                     pattern.size())
                         .ok());
    }

    // make (owner ck2)
    Result<Segid> sid{Errc::unreachable};
    for (int i = 0; i < 120; ++i) {
      sid = co_await ck2.xpmem_make(*op, op->image_base(), 64_KiB, "sweep");
      if (sid.ok()) break;
      CO_ASSERT_TRUE(clean_ns_error(sid.error()));
      if (sid.error() == Errc::no_name_server) break;  // terminal
      co_await sim::delay(500_us);
    }

    // get + attach + read (attacher ck1)
    Result<XpmemGrant> grant{Errc::unreachable};
    Result<XpmemAttachment> att{Errc::unreachable};
    if (sid.ok()) {
      for (int i = 0; i < 120; ++i) {
        grant = co_await ck1.xpmem_get(sid.value());
        if (grant.ok()) {
          att = co_await ck1.xpmem_attach(*up, grant.value(), 0, 64_KiB);
          if (att.ok()) break;
          CO_ASSERT_TRUE(clean_ns_error(att.error()));
          (void)co_await ck1.xpmem_release(grant.value());
          grant = Errc::unreachable;
        } else {
          CO_ASSERT_TRUE(clean_ns_error(grant.error()));
          if (grant.error() == Errc::no_name_server) break;
        }
        co_await sim::delay(500_us);
      }
    }
    if (att.ok()) {
      co_await node.enclave("ck1").touch_attached(*up, att.value().va,
                                                  att.value().pages);
      std::vector<u8> got(pattern.size());
      CO_ASSERT_TRUE(node.enclave("ck1")
                         .proc_read(*up, att.value().va, got.data(), got.size())
                         .ok());
      EXPECT_EQ(got, pattern) << "crashpoint " << k;
    }

    // detach + release
    Result<void> d{Errc::unreachable};
    if (att.ok()) {
      for (int i = 0; i < 120; ++i) {
        d = co_await ck1.xpmem_detach(*up, att.value());
        // not_attached: a retried detach whose predecessor's owner half
        // did land (response lost with the dying forwarder) — converged.
        if (d.ok() || d.error() == Errc::not_attached) break;
        CO_ASSERT_TRUE(clean_ns_error(d.error()));
        if (d.error() == Errc::no_name_server) break;
        co_await sim::delay(500_us);
      }
    }
    if (grant.ok()) (void)co_await ck1.xpmem_release(grant.value());

    // remove (owner withdraws the export)
    Result<void> rm{Errc::unreachable};
    if (sid.ok()) {
      for (int i = 0; i < 120; ++i) {
        rm = co_await ck2.xpmem_remove(*op, sid.value());
        if (rm.ok()) break;
        CO_ASSERT_TRUE(clean_ns_error(rm.error()) || rm.error() == Errc::busy);
        if (rm.error() == Errc::no_name_server) break;
        co_await sim::delay(500_us);
      }
    }
    out.completed = sid.ok() && att.ok() && d.ok() && rm.ok();

    if (mgmt.is_crashed()) {
      // The registry died with the hub: an owner-side pin whose detach
      // (or whose attach response) was lost with it can no longer be
      // released over the protocol. Owner-side cleanup frees it; a
      // retried attach must have pinned at most once.
      EXPECT_LE(ck2.reap_attacher_pins(ck1.id()), 1u) << "crashpoint " << k;
    }
    EXPECT_EQ(ck1.pinned_frames(), 0u) << "crashpoint " << k;
    EXPECT_EQ(ck2.pinned_frames(), 0u) << "crashpoint " << k;
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u) << "crashpoint " << k;
    out.ns_requests = mgmt.stats().ns_requests;
  };
  eng.run(main());
  return out;
}

TEST(Fault, NsCrashpointSweepConverges) {
  // Enumerate every command the central name server processes during a
  // make/get/attach/release/remove workload and kill it at each one. The
  // k = 0 baseline completes every op; every other crashpoint must end
  // with clean statuses and no leaked frame references.
  NsSweep base = run_ns_crashpoint(0);
  EXPECT_TRUE(base.completed) << "baseline: nothing dies, everything works";
  ASSERT_GT(base.ns_requests, 4u);
  for (u64 k = 1; k <= base.ns_requests + 2; ++k) run_ns_crashpoint(k);
}

TEST(Fault, StandbylessCrashIsDefinedFailureMode) {
  // A name-server crash never aborts or hangs: NS-bound requests exhaust
  // their retries, discovery exhausts its probe rounds, and callers get
  // the terminal Errc::no_name_server.
  sim::Engine eng(9003);
  Node node(hw::Machine::r420());
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.ping_timeout = 200_us;
  cfg.max_retries = 2;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  node.set_kernel_config(cfg);
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    mgmt.crash();
    EXPECT_TRUE(mgmt.is_crashed());

    // Interim attempts may see plain unreachable while retries burn down
    // and discovery sweeps its 512 rounds of (200 us probe + 200 us
    // backoff), about 205 ms; the terminal state must be reached, bounded,
    // with no hang.
    Errc last = Errc::ok;
    for (int i = 0; i < 400; ++i) {
      auto s = co_await ck.xpmem_search("anything");
      CO_ASSERT_TRUE(!s.ok());
      last = s.error();
      CO_ASSERT_TRUE(last == Errc::unreachable || last == Errc::no_name_server);
      if (last == Errc::no_name_server) break;
      co_await sim::delay(1_ms);
    }
    EXPECT_EQ(last, Errc::no_name_server);
    EXPECT_TRUE(ck.ns_lost());
    // The enclave registered before the crash, so only the service — not
    // the registration — is lost.
    EXPECT_FALSE(ck.registration_failed());
  };
  eng.run(main());
}

TEST(Fault, FullyPartitionedEnclaveSurfacesTerminalStatus) {
  // An enclave whose every channel is dead must not retry discovery into
  // the void forever — registration gives up after 512 probe rounds and
  // surfaces a terminal status.
  sim::Engine eng(9004);
  Node node(hw::Machine::r420());
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.ping_timeout = 200_us;
  cfg.max_retries = 1;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  node.set_kernel_config(cfg);
  node.enable_fault_injection(FaultSpec{}, /*seed=*/601);  // transparent wrap
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);
  // Sever the enclave's only link before anything starts.
  for (const auto& ep : node.faulty_endpoints()) ep->kill();

  auto main = [&]() -> sim::Task<void> {
    const sim::TimePoint t0 = sim::now();
    co_await node.start();  // completes: registration fails terminally
    EXPECT_TRUE(ck.ns_lost());
    EXPECT_TRUE(ck.registration_failed());
    EXPECT_FALSE(ck.id().valid());
    // Bounded: 512 sweeps of (probe timeout + backoff), about 205 ms, not
    // forever.
    EXPECT_LT(sim::now() - t0, u64(1'000) * 1_ms);

    os::Process* p = node.enclave("ck").create_process(1_MiB).value();
    auto sid = co_await ck.xpmem_make(*p, p->image_base(), 4_KiB);
    EXPECT_EQ(sid.error(), Errc::no_name_server);
  };
  eng.run(main());
}

}  // namespace
}  // namespace xemem
