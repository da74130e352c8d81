// Capability-based segment permissions (DESIGN.md §9): owner capabilities
// minted by xpmem_make, restricted derivation (the rights lattice only
// narrows), server-side validation on get/attach, live revocation that
// unmaps every attachment under the revoked subtree, bounded per-segment
// accounting, and the deterministic owner-crash crashpoint sweep.
#include <gtest/gtest.h>

#include <vector>

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

KernelConfig cap_config() {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 3;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  cfg.lease_duration = 5_ms;
  cfg.capabilities = true;
  return cfg;
}

struct Fixture {
  sim::Engine eng;
  Node node{hw::Machine::r420()};

  explicit Fixture(u64 seed = 71, KernelConfig cfg = cap_config()) : eng(seed) {
    node.set_kernel_config(cfg);
    node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
    node.add_cokernel("user", 0, {6, 7}, 256_MiB);
  }
};

TEST(Capabilities, DisabledByDefaultClassicPathUnchanged) {
  // With capabilities off no tree is minted, grants carry cap 0,
  // and the capability API rejects cleanly — pay-for-use.
  sim::Engine eng(70);
  Node node(hw::Machine::r420());
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("ck").create_process(1_MiB).value();
    os::Process* up = node.enclave("linux").create_process(1_MiB).value();
    auto sid = co_await ck.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    EXPECT_EQ(ck.stats().caps_minted, 0u);
    EXPECT_EQ(ck.cap_root(sid.value()).error(), Errc::invalid_argument);
    EXPECT_EQ(ck.cap_count(sid.value()), 0u);

    auto& lin = node.kernel("linux");
    auto grant = co_await lin.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());
    EXPECT_EQ(grant.value().cap, 0u);
    auto att = co_await lin.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(att.ok());
    CO_ASSERT_TRUE((co_await lin.xpmem_detach(*up, att.value())).ok());
    EXPECT_EQ(ck.stats().cap_denials, 0u);
  };
  eng.run(main());
}

TEST(Capabilities, MakeMintsRootAndDerivationOnlyNarrows) {
  Fixture f;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& owner = f.node.kernel("owner");
    os::Process* op = f.node.enclave("owner").create_process(1_MiB).value();
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    EXPECT_EQ(owner.stats().caps_minted, 1u);

    auto root = owner.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());
    EXPECT_NE(root.value().id, 0u);
    EXPECT_EQ(owner.cap_count(sid.value()), 1u);

    // A read-only, windowed, attach-capped child narrows fine.
    CapRights ro;
    ro.access = AccessMode::read_only;
    ro.window_off = 0;
    ro.window_size = 64_KiB;
    ro.attach_limit = 2;
    auto child = co_await owner.cap_derive(root.value(), ro);
    CO_ASSERT_TRUE(child.ok());
    EXPECT_EQ(owner.stats().caps_derived, 1u);
    EXPECT_EQ(owner.cap_count(sid.value()), 2u);
    EXPECT_EQ(owner.cap_accounting(sid.value()).derived_caps, 1u);

    // Every widening attempt is an escalation: denied and accounted.
    const u64 denials_before = owner.stats().cap_denials;
    CapRights rw;  // rw from a ro parent
    rw.access = AccessMode::read_write;
    EXPECT_EQ((co_await owner.cap_derive(child.value(), rw)).error(),
              Errc::permission_denied);
    CapRights wide;  // window escaping the parent's
    wide.access = AccessMode::read_only;
    wide.window_off = 32_KiB;
    wide.window_size = 64_KiB;  // ends at 96 KiB > parent's 64 KiB
    EXPECT_EQ((co_await owner.cap_derive(child.value(), wide)).error(),
              Errc::permission_denied);
    CapRights unlimited;  // attach_limit 0 (unlimited) from a capped parent
    unlimited.access = AccessMode::read_only;
    unlimited.window_size = 64_KiB;
    unlimited.attach_limit = 0;
    EXPECT_EQ((co_await owner.cap_derive(child.value(), unlimited)).error(),
              Errc::permission_denied);
    EXPECT_EQ(owner.stats().cap_denials, denials_before + 3);
    EXPECT_EQ(owner.cap_accounting(sid.value()).denials, denials_before + 3);

    // A non-derivable child is a leaf: derivation under it is denied.
    CapRights leaf;
    leaf.access = AccessMode::read_only;
    leaf.window_size = 64_KiB;
    leaf.attach_limit = 1;
    leaf.derivable = false;
    auto l = co_await owner.cap_derive(child.value(), leaf);
    CO_ASSERT_TRUE(l.ok());
    EXPECT_EQ((co_await owner.cap_derive(l.value(), leaf)).error(),
              Errc::permission_denied);

    // A non-transferable parent cannot mint a transferable child.
    CapRights priv;
    priv.transferable = false;
    auto p = co_await owner.cap_derive(root.value(), priv);
    CO_ASSERT_TRUE(p.ok());
    CapRights leak;
    leak.transferable = true;
    EXPECT_EQ((co_await owner.cap_derive(p.value(), leak)).error(),
              Errc::permission_denied);
  };
  f.eng.run(main());
}

TEST(Capabilities, GetAndAttachValidateRightsServerSide) {
  Fixture f;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& owner = f.node.kernel("owner");
    auto& user = f.node.kernel("user");
    auto& lin = f.node.kernel("linux");
    os::Process* op = f.node.enclave("owner").create_process(1_MiB).value();
    os::Process* up = f.node.enclave("user").create_process(1_MiB).value();
    os::Process* lp = f.node.enclave("linux").create_process(1_MiB).value();

    const u64 marker = 0xCA11AB1Eull;
    CO_ASSERT_TRUE(
        f.node.enclave("owner").proc_write(*op, op->image_base(), &marker, 8).ok());
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto root = owner.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());

    // Read-only window over the first 64 KiB, at most one live attach.
    CapRights r;
    r.access = AccessMode::read_only;
    r.window_off = 0;
    r.window_size = 64_KiB;
    r.attach_limit = 1;
    auto cap = co_await owner.cap_derive(root.value(), r);
    CO_ASSERT_TRUE(cap.ok());

    // rw get through the ro capability is an escalation.
    EXPECT_EQ((co_await user.xpmem_get(cap.value(), AccessMode::read_write))
                  .error(),
              Errc::permission_denied);
    auto grant = co_await user.xpmem_get(cap.value(), AccessMode::read_only);
    CO_ASSERT_TRUE(grant.ok());
    EXPECT_EQ(grant.value().cap, cap.value().id);

    // Attaching outside the window is denied; inside it flows data.
    EXPECT_EQ((co_await user.xpmem_attach(*up, grant.value(), 64_KiB, 64_KiB))
                  .error(),
              Errc::permission_denied);
    auto att = co_await user.xpmem_attach(*up, grant.value(), 0, 64_KiB);
    CO_ASSERT_TRUE(att.ok());
    co_await f.node.enclave("user").touch_attached(*up, att.value().va,
                                                   att.value().pages);
    u64 got = 0;
    CO_ASSERT_TRUE(f.node.enclave("user").proc_read(*up, att.value().va, &got, 8).ok());
    EXPECT_EQ(got, marker);
    // The ro capability maps without write permission (PTE-level).
    const u64 evil = 1;
    EXPECT_EQ(f.node.enclave("user").proc_write(*up, att.value().va, &evil, 8)
                  .error(),
              Errc::permission_denied);

    // attach_limit 1: a second enclave's attach through the same cap is
    // denied while the first is live, and admitted after it detaches.
    auto lgrant = co_await lin.xpmem_get(cap.value(), AccessMode::read_only);
    CO_ASSERT_TRUE(lgrant.ok());
    EXPECT_EQ((co_await lin.xpmem_attach(*lp, lgrant.value(), 0, 64_KiB)).error(),
              Errc::permission_denied);
    EXPECT_EQ(owner.cap_accounting(sid.value()).live_attaches, 1u);
    CO_ASSERT_TRUE((co_await user.xpmem_detach(*up, att.value())).ok());
    EXPECT_EQ(owner.cap_accounting(sid.value()).live_attaches, 0u);
    auto att2 = co_await lin.xpmem_attach(*lp, lgrant.value(), 0, 64_KiB);
    CO_ASSERT_TRUE(att2.ok());
    CO_ASSERT_TRUE((co_await lin.xpmem_detach(*lp, att2.value())).ok());
  };
  f.eng.run(main());
}

TEST(Capabilities, NonTransferableCapIsBoundToItsHolder) {
  Fixture f;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& owner = f.node.kernel("owner");
    auto& user = f.node.kernel("user");
    auto& lin = f.node.kernel("linux");
    os::Process* op = f.node.enclave("owner").create_process(1_MiB).value();
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto root = owner.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());

    // Owner mints a cap bound to the "user" enclave specifically.
    CapRights r;
    r.transferable = false;
    auto cap =
        co_await owner.cap_derive(root.value(), r, user.id().value());
    CO_ASSERT_TRUE(cap.ok());

    CO_ASSERT_TRUE((co_await user.xpmem_get(cap.value())).ok());
    // Anyone else presenting the same id is rejected server-side.
    EXPECT_EQ((co_await lin.xpmem_get(cap.value())).error(),
              Errc::permission_denied);
  };
  f.eng.run(main());
}

TEST(Capabilities, LiveRevocationUnmapsRemoteAttachers) {
  Fixture f;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& owner = f.node.kernel("owner");
    auto& user = f.node.kernel("user");
    auto& lin = f.node.kernel("linux");
    auto& user_os = f.node.enclave("user");
    os::Process* op = f.node.enclave("owner").create_process(1_MiB).value();
    os::Process* up = user_os.create_process(1_MiB).value();
    os::Process* lp = f.node.enclave("linux").create_process(1_MiB).value();

    const u64 marker = 0xFEEDFACEull;
    CO_ASSERT_TRUE(
        f.node.enclave("owner").proc_write(*op, op->image_base(), &marker, 8).ok());
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto root = owner.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());
    auto cap = co_await owner.cap_derive(root.value(), CapRights{});
    CO_ASSERT_TRUE(cap.ok());

    // Two enclaves hold live attachments under the doomed capability.
    auto g1 = co_await user.xpmem_get(cap.value());
    auto g2 = co_await lin.xpmem_get(cap.value());
    CO_ASSERT_TRUE(g1.ok() && g2.ok());
    auto a1 = co_await user.xpmem_attach(*up, g1.value(), 0, 1_MiB);
    auto a2 = co_await lin.xpmem_attach(*lp, g2.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(a1.ok() && a2.ok());
    co_await user_os.touch_attached(*up, a1.value().va, a1.value().pages);
    u64 got = 0;
    CO_ASSERT_TRUE(user_os.proc_read(*up, a1.value().va, &got, 8).ok());
    EXPECT_EQ(got, marker);
    EXPECT_GT(owner.pinned_frames(), 0u);
    EXPECT_EQ(owner.cap_accounting(sid.value()).live_attaches, 2u);

    // Revoke: both attachments are torn down, owner pins drain, and the
    // attachers degrade to clean errors instead of wild reads. The pin
    // sweep is synchronous at the owner; the attacher-side unmap arrives
    // on the one-way fan-out, so give the notes a moment to land.
    CO_ASSERT_TRUE((co_await owner.cap_revoke(cap.value())).ok());
    co_await sim::delay(1_ms);
    EXPECT_EQ(owner.pinned_frames(), 0u);
    EXPECT_EQ(f.node.machine().pmem().total_refs(), 0u);
    EXPECT_EQ(owner.stats().revocations, 1u);
    EXPECT_EQ(owner.stats().revoke_unmaps, 2u);
    EXPECT_EQ(owner.cap_accounting(sid.value()).live_attaches, 0u);
    EXPECT_EQ(owner.cap_accounting(sid.value()).revocations, 1u);

    // The mapping is gone: access through the old VA faults gracefully.
    EXPECT_FALSE(user_os.proc_read(*up, a1.value().va, &got, 8).ok());

    // Re-presenting the dead capability is terminal (no retry storm).
    EXPECT_EQ((co_await user.xpmem_get(cap.value())).error(), Errc::revoked);
    EXPECT_EQ((co_await user.xpmem_attach(*up, g1.value(), 0, 1_MiB)).error(),
              Errc::revoked);
    // Detaching the already-swept attachment is vacuous, not an error.
    CO_ASSERT_TRUE((co_await user.xpmem_detach(*up, a1.value())).ok());
    CO_ASSERT_TRUE((co_await lin.xpmem_detach(*lp, a2.value())).ok());

    // The owner's own data was never at risk.
    u64 still = 0;
    CO_ASSERT_TRUE(
        f.node.enclave("owner").proc_read(*op, op->image_base(), &still, 8).ok());
    EXPECT_EQ(still, marker);

    // Classic capless access still works: the root survives.
    auto g3 = co_await user.xpmem_get(sid.value());
    CO_ASSERT_TRUE(g3.ok());
  };
  f.eng.run(main());
}

TEST(Capabilities, RevokeKillsWholeSubtreeButSparesSiblings) {
  Fixture f;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& owner = f.node.kernel("owner");
    auto& user = f.node.kernel("user");
    os::Process* op = f.node.enclave("owner").create_process(1_MiB).value();
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto root = owner.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());

    auto a = co_await owner.cap_derive(root.value(), CapRights{});
    CO_ASSERT_TRUE(a.ok());
    auto b = co_await owner.cap_derive(a.value(), CapRights{});  // child of a
    CO_ASSERT_TRUE(b.ok());
    auto c = co_await owner.cap_derive(root.value(), CapRights{});  // sibling
    CO_ASSERT_TRUE(c.ok());
    EXPECT_EQ(owner.cap_count(sid.value()), 4u);

    CO_ASSERT_TRUE((co_await owner.cap_revoke(a.value())).ok());
    EXPECT_EQ(owner.cap_count(sid.value()), 2u);  // root + c survive
    EXPECT_EQ((co_await user.xpmem_get(a.value())).error(), Errc::revoked);
    EXPECT_EQ((co_await user.xpmem_get(b.value())).error(), Errc::revoked);
    CO_ASSERT_TRUE((co_await user.xpmem_get(c.value())).ok());

    // Retried revoke (dedup/restart) is idempotent: ok, not double-counted.
    CO_ASSERT_TRUE((co_await owner.cap_revoke(a.value())).ok());
    EXPECT_EQ(owner.stats().revocations, 1u);

    // Revoking the root cuts classic capless access too.
    CO_ASSERT_TRUE((co_await owner.cap_revoke(root.value())).ok());
    EXPECT_EQ((co_await user.xpmem_get(sid.value())).error(), Errc::revoked);
    EXPECT_EQ((co_await user.xpmem_get(c.value())).error(), Errc::revoked);
  };
  f.eng.run(main());
}

TEST(Capabilities, RequireCapShutsTheCaplessDoor) {
  Fixture f;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& owner = f.node.kernel("owner");
    auto& user = f.node.kernel("user");
    os::Process* op = f.node.enclave("owner").create_process(1_MiB).value();
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    CO_ASSERT_TRUE((co_await user.xpmem_get(sid.value())).ok());

    CO_ASSERT_TRUE(owner.cap_require(*op, sid.value()).ok());
    EXPECT_EQ((co_await user.xpmem_get(sid.value())).error(),
              Errc::permission_denied);
    // Holders of an explicit capability are unaffected.
    auto root = owner.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());
    auto cap = co_await owner.cap_derive(root.value(), CapRights{});
    CO_ASSERT_TRUE(cap.ok());
    CO_ASSERT_TRUE((co_await user.xpmem_get(cap.value())).ok());
    // Only the exporting process may flip the policy.
    os::Process* other = f.node.enclave("owner").create_process(1_MiB).value();
    EXPECT_EQ(owner.cap_require(*other, sid.value()).error(),
              Errc::permission_denied);
  };
  f.eng.run(main());
}

TEST(Capabilities, GetsDuringAnInflightRemoveSeeNoSuchSegid) {
  // xpmem_remove marks the export removing before its name-service round
  // trip. A get in the owner's own enclave that lands in that window, by
  // segid or by capability, must be refused like a remote one: otherwise
  // it returns ok and counts a grant on an export about to be erased.
  Fixture f(74);
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& owner = f.node.kernel("owner");
    os::Process* op = f.node.enclave("owner").create_process(1_MiB).value();
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto root = owner.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());

    Errc by_segid = Errc::ok;
    Errc by_cap = Errc::ok;
    sim::Event got;
    auto getter = [&]() -> sim::Task<void> {
      co_await sim::delay(1);  // the remove is now awaiting the name server
      by_segid = (co_await owner.xpmem_get(sid.value())).error();
      by_cap = (co_await owner.xpmem_get(root.value())).error();
      got.set();
    };
    sim::Engine::current()->spawn(getter());
    CO_ASSERT_TRUE((co_await owner.xpmem_remove(*op, sid.value())).ok());
    co_await got.wait();
    EXPECT_EQ(by_segid, Errc::no_such_segid) << errc_name(by_segid);
    EXPECT_EQ(by_cap, Errc::no_such_segid) << errc_name(by_cap);
    EXPECT_EQ(owner.exports_live(), 0u);
  };
  f.eng.run(main());
}

TEST(Capabilities, RevocationRacingInflightAttachesConverges) {
  // An attacher hammers attach/detach through a capability while the
  // owner revokes it mid-stream. Every attach must end ok (and then be
  // swept) or fail with the terminal revoked status — never hang, never
  // leak a pin — and the attacher ends the run cut off.
  Fixture f(73);
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& owner = f.node.kernel("owner");
    auto& user = f.node.kernel("user");
    os::Process* op = f.node.enclave("owner").create_process(1_MiB).value();
    os::Process* up = f.node.enclave("user").create_process(1_MiB).value();
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto root = owner.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());
    auto cap = co_await owner.cap_derive(root.value(), CapRights{});
    CO_ASSERT_TRUE(cap.ok());
    auto grant = co_await user.xpmem_get(cap.value());
    CO_ASSERT_TRUE(grant.ok());

    bool revoked_seen = false;
    u64 attaches_ok = 0;
    sim::Event attacher_done;
    auto attacker = [&]() -> sim::Task<void> {
      for (int i = 0; i < 64 && !revoked_seen; ++i) {
        auto att = co_await user.xpmem_attach(*up, grant.value(), 0, 64_KiB);
        if (att.ok()) {
          ++attaches_ok;
          auto d = co_await user.xpmem_detach(*up, att.value());
          EXPECT_TRUE(d.ok() || d.error() == Errc::revoked)
              << errc_name(d.error());
        } else if (att.error() == Errc::revoked) {
          revoked_seen = true;
        } else {
          ADD_FAILURE() << "unexpected attach error "
                        << errc_name(att.error());
          break;
        }
      }
      attacher_done.set();
    };
    sim::Engine::current()->spawn(attacker());
    co_await sim::delay(300_us);  // let a few attach cycles land
    CO_ASSERT_TRUE((co_await owner.cap_revoke(cap.value())).ok());
    co_await attacher_done.wait();

    EXPECT_TRUE(revoked_seen) << "attacher must observe the revocation";
    EXPECT_GT(attaches_ok, 0u) << "some attaches must land pre-revoke";
    EXPECT_EQ(owner.pinned_frames(), 0u);
    EXPECT_EQ(f.node.machine().pmem().total_refs(), 0u);
    EXPECT_EQ(owner.cap_accounting(sid.value()).live_attaches, 0u);
  };
  f.eng.run(main());
}

TEST(Capabilities, DerivationTableAndAccountingAreBounded) {
  Fixture f(74);
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& owner = f.node.kernel("owner");
    os::Process* op = f.node.enclave("owner").create_process(8_MiB).value();

    // The per-segment derivation tree refuses growth past 256 nodes.
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto root = owner.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());
    Result<Capability> last{Errc::unreachable};
    u64 minted = 0;
    for (u64 i = 0; i < 300; ++i) {
      last = co_await owner.cap_derive(root.value(), CapRights{});
      if (!last.ok()) break;
      ++minted;
    }
    EXPECT_EQ(last.error(), Errc::out_of_memory);
    EXPECT_EQ(minted, 255u);  // root occupies one slot
    EXPECT_EQ(owner.cap_count(sid.value()), 256u);
    EXPECT_EQ(owner.cap_accounting(sid.value()).derived_caps, 255u);

    // Accounting memory is bounded at 1024 segments: the oldest segment's
    // counters survive 1023 newer segments and are evicted (read back as
    // zeros) by the 1024th.
    for (int i = 0; i < 1024; ++i) {
      if (i == 1023) {
        EXPECT_EQ(owner.cap_accounting(sid.value()).derived_caps, 255u);
      }
      auto s = co_await owner.xpmem_make(*op, op->image_base() + 1_MiB, 4_KiB);
      CO_ASSERT_TRUE(s.ok());
    }
    EXPECT_EQ(owner.cap_accounting(sid.value()).derived_caps, 0u)
        << "oldest segment's accounting must have been evicted";
  };
  f.eng.run(main());
}

// ------------------------------------------------- crashpoint sweep (§9)

// A protocol error a converging client may surface once the owner died
// mid-capability-operation: transient routing loss, the lease reaper
// having GC'd the segment, or the terminal revoked status itself.
bool cap_clean_error(Errc e) {
  return e == Errc::unreachable || e == Errc::no_such_segid ||
         e == Errc::retry_later || e == Errc::stale_epoch ||
         e == Errc::no_name_server || e == Errc::revoked ||
         e == Errc::permission_denied || e == Errc::not_attached;
}

struct CapSweep {
  u64 end_ns{0};
  u64 revocations{0};
  u64 revoke_unmaps{0};
  u64 denials{0};
  bool completed{false};  // the full derive/attach/revoke chain ran
};

// One crashpoint-sweep run: the owner crashes immediately before its k-th
// capability-relevant command (k = 0 disables the hook) while a remote
// client runs derive -> get -> attach -> read -> revoke -> detach. Every
// step must complete or fail with a clean status, and no pins or frame
// refs may survive.
CapSweep run_cap_crashpoint(u64 k) {
  CapSweep out;
  sim::Engine eng(7700);  // same seed for every k: only the crashpoint moves
  Node node(hw::Machine::r420());
  node.set_kernel_config(cap_config());
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user = node.add_cokernel("user", 0, {6, 7}, 256_MiB);
  owner.crash_after_cap_requests(k);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(1_MiB).value();
    const u64 marker = 0xC0FFEEull + k;
    CO_ASSERT_TRUE(
        node.enclave("owner").proc_write(*op, op->image_base(), &marker, 8).ok());
    auto sid = co_await owner.xpmem_make(*op, op->image_base(), 64_KiB);
    CO_ASSERT_TRUE(sid.ok());
    auto root = owner.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());

    bool alive = true;
    auto cap = co_await user.cap_derive(root.value(), CapRights{});
    if (!cap.ok()) {
      CO_ASSERT_TRUE(cap_clean_error(cap.error()));
      alive = false;
    }
    Result<XpmemAttachment> att{Errc::unreachable};
    if (alive) {
      auto grant = co_await user.xpmem_get(cap.value());
      if (grant.ok()) {
        att = co_await user.xpmem_attach(*up, grant.value(), 0, 64_KiB);
        if (att.ok()) {
          co_await node.enclave("user").touch_attached(*up, att.value().va,
                                                       att.value().pages);
          u64 got = 0;
          CO_ASSERT_TRUE(
              node.enclave("user").proc_read(*up, att.value().va, &got, 8).ok());
          EXPECT_EQ(got, marker) << "crashpoint " << k;
        } else {
          CO_ASSERT_TRUE(cap_clean_error(att.error()));
          alive = false;
        }
      } else {
        CO_ASSERT_TRUE(cap_clean_error(grant.error()));
        alive = false;
      }
    }
    if (alive) {
      auto rv = co_await user.cap_revoke(cap.value());
      if (rv.ok()) {
        out.completed = true;
        // The revocation's unmap fan-out raced our attachment: the old VA
        // must be dead (graceful fault), never serving stale frames.
        if (att.ok()) {
          u64 dummy = 0;
          EXPECT_FALSE(node.enclave("user")
                           .proc_read(*up, att.value().va, &dummy, 8)
                           .ok())
              << "crashpoint " << k;
        }
      } else {
        CO_ASSERT_TRUE(cap_clean_error(rv.error()));
      }
    }
    if (att.ok()) {
      auto d = co_await user.xpmem_detach(*up, att.value());
      CO_ASSERT_TRUE(d.ok() || cap_clean_error(d.error()));
    }

    // Convergence invariants: crash or not, nothing leaks.
    EXPECT_EQ(owner.pinned_frames(), 0u) << "crashpoint " << k;
    EXPECT_EQ(user.pinned_frames(), 0u) << "crashpoint " << k;
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u) << "crashpoint " << k;

    out.revocations = owner.stats().revocations;
    out.revoke_unmaps = owner.stats().revoke_unmaps;
    out.denials = owner.stats().cap_denials;
  };
  eng.run(main());
  out.end_ns = eng.now();
  return out;
}

TEST(Capabilities, OwnerCrashpointSweepConverges) {
  // k = 0 (no crash) must complete the whole chain; every k in 1..8 kills
  // the owner before a different capability command and must still
  // converge with clean statuses and zero leaked pins.
  CapSweep base = run_cap_crashpoint(0);
  EXPECT_TRUE(base.completed);
  EXPECT_EQ(base.revocations, 1u);
  EXPECT_GE(base.revoke_unmaps, 1u);
  bool any_crash_interrupted = false;
  for (u64 k = 1; k <= 8; ++k) {
    CapSweep r = run_cap_crashpoint(k);
    if (!r.completed) any_crash_interrupted = true;
  }
  EXPECT_TRUE(any_crash_interrupted)
      << "the sweep must actually hit the capability path";
}

TEST(Capabilities, CrashpointSweepIsDeterministicPerSeed) {
  // Same seed + same crashpoint => bit-identical outcome: end-of-run
  // simulated time and every capability counter must match across runs.
  for (u64 k : {0ull, 2ull, 3ull}) {
    CapSweep a = run_cap_crashpoint(k);
    CapSweep b = run_cap_crashpoint(k);
    EXPECT_EQ(a.end_ns, b.end_ns) << "crashpoint " << k;
    EXPECT_EQ(a.revocations, b.revocations) << "crashpoint " << k;
    EXPECT_EQ(a.revoke_unmaps, b.revoke_unmaps) << "crashpoint " << k;
    EXPECT_EQ(a.denials, b.denials) << "crashpoint " << k;
    EXPECT_EQ(a.completed, b.completed) << "crashpoint " << k;
  }
}

}  // namespace
}  // namespace xemem
