// Tests for the XPMEM permission model (read-only grants enforced at the
// PTE level across native and VM attachers) and the name-space
// discoverability extensions (xpmem_search / xpmem_list).
#include <gtest/gtest.h>

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

struct Fixture {
  sim::Engine eng{21};
  Node node{hw::Machine::r420()};

  Fixture() {
    node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    node.add_cokernel("kitten0", 0, {6, 7}, 1_GiB);
    node.add_vm("vm0", "linux", 256_MiB, {4, 5});
  }
};

TEST(Permissions, ReadOnlyExportDeniesWriteGrant) {
  Fixture f;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& kitten = f.node.kernel("kitten0");
    os::Process* p = f.node.enclave("kitten0").create_process(1_MiB).value();
    auto sid = co_await kitten.xpmem_make(*p, p->image_base(), 1_MiB, "",
                                          AccessMode::read_only);
    CO_ASSERT_TRUE(sid.ok());

    // Remote rw request denied; ro request granted.
    auto rw = co_await f.node.kernel("linux").xpmem_get(sid.value(),
                                                        AccessMode::read_write);
    EXPECT_EQ(rw.error(), Errc::permission_denied);
    auto ro = co_await f.node.kernel("linux").xpmem_get(sid.value(),
                                                        AccessMode::read_only);
    CO_ASSERT_TRUE(ro.ok());
    EXPECT_EQ(ro.value().mode, AccessMode::read_only);

    // Local rw request denied too.
    os::Process* q = f.node.enclave("kitten0").create_process(1_MiB).value();
    auto local_rw = co_await kitten.xpmem_get(sid.value(), AccessMode::read_write);
    EXPECT_EQ(local_rw.error(), Errc::permission_denied);
    (void)q;
  };
  f.eng.run(main());
}

TEST(Permissions, ReadOnlyAttachmentBlocksWritesButAllowsReads) {
  Fixture f;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& kitten = f.node.kernel("kitten0");
    auto& linux_k = f.node.kernel("linux");
    auto& kitten_os = f.node.enclave("kitten0");
    auto& linux_os = f.node.enclave("linux");
    os::Process* owner = kitten_os.create_process(1_MiB).value();
    os::Process* user = linux_os.create_process(1_MiB).value();

    const u64 marker = 0x524f4e4c59ull;  // "RONLY"
    CO_ASSERT_TRUE(
        kitten_os.proc_write(*owner, owner->image_base(), &marker, 8).ok());
    auto sid = co_await kitten.xpmem_make(*owner, owner->image_base(), 1_MiB, "",
                                          AccessMode::read_write);
    auto grant = co_await linux_k.xpmem_get(sid.value(), AccessMode::read_only);
    CO_ASSERT_TRUE(grant.ok());
    auto att = co_await linux_k.xpmem_attach(*user, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(att.ok());

    // Reads flow; writes fault.
    u64 got = 0;
    CO_ASSERT_TRUE(linux_os.proc_read(*user, att.value().va, &got, 8).ok());
    EXPECT_EQ(got, marker);
    const u64 evil = 666;
    auto w = linux_os.proc_write(*user, att.value().va, &evil, 8);
    EXPECT_EQ(w.error(), Errc::permission_denied);
    // The owner's data is untouched.
    u64 still = 0;
    CO_ASSERT_TRUE(kitten_os.proc_read(*owner, owner->image_base(), &still, 8).ok());
    EXPECT_EQ(still, marker);
    CO_ASSERT_TRUE((co_await linux_k.xpmem_detach(*user, att.value())).ok());
  };
  f.eng.run(main());
}

TEST(Permissions, ReadOnlyEnforcedInsideVmGuests) {
  Fixture f;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& kitten = f.node.kernel("kitten0");
    auto& vm_k = f.node.kernel("vm0");
    os::Process* owner = f.node.enclave("kitten0").create_process(1_MiB).value();
    os::Process* guest = f.node.enclave("vm0").create_process(1_MiB).value();

    auto sid = co_await kitten.xpmem_make(*owner, owner->image_base(), 1_MiB, "",
                                          AccessMode::read_only);
    auto grant = co_await vm_k.xpmem_get(sid.value(), AccessMode::read_only);
    CO_ASSERT_TRUE(grant.ok());
    auto att = co_await vm_k.xpmem_attach(*guest, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(att.ok());
    const u64 evil = 1;
    EXPECT_EQ(f.node.enclave("vm0").proc_write(*guest, att.value().va, &evil, 8)
                  .error(),
              Errc::permission_denied);
    CO_ASSERT_TRUE((co_await vm_k.xpmem_detach(*guest, att.value())).ok());
  };
  f.eng.run(main());
}

TEST(Permissions, LazyLocalLinuxAttachHonorsReadOnly) {
  sim::Engine eng(33);
  Node node(hw::Machine::optiplex());
  auto& k = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    auto& lin = node.enclave("linux");
    os::Process* a = lin.create_process(1_MiB).value();
    os::Process* b = lin.create_process(1_MiB).value();
    auto sid = co_await k.xpmem_make(*a, a->image_base(), 1_MiB);
    auto grant = co_await k.xpmem_get(sid.value(), AccessMode::read_only);
    auto att = co_await k.xpmem_attach(*b, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(att.ok());
    co_await lin.touch_attached(*b, att.value().va, att.value().pages);
    const u64 evil = 1;
    EXPECT_EQ(lin.proc_write(*b, att.value().va, &evil, 8).error(),
              Errc::permission_denied);
    u64 v = 0;
    EXPECT_TRUE(lin.proc_read(*b, att.value().va, &v, 8).ok());
    CO_ASSERT_TRUE((co_await k.xpmem_detach(*b, att.value())).ok());
  };
  eng.run(main());
}

TEST(Permissions, VmGuestCannotEscalateMaxAccessOrCapabilityRights) {
  // Negative escalation paths through a VM guest: neither the export's
  // max_access nor a derived capability's narrowed rights can be widened
  // by a guest — not via get, not via attach-and-write, and not via a
  // remote cap_derive asking for more than its parent holds.
  sim::Engine eng(27);
  Node node(hw::Machine::r420());
  KernelConfig cfg;
  cfg.capabilities = true;
  node.set_kernel_config(cfg);
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("kitten0", 0, {6, 7}, 1_GiB);
  node.add_vm("vm0", "linux", 256_MiB, {4, 5});

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    auto& kitten = node.kernel("kitten0");
    auto& vm_k = node.kernel("vm0");
    os::Process* owner = node.enclave("kitten0").create_process(2_MiB).value();
    os::Process* guest = node.enclave("vm0").create_process(1_MiB).value();

    // A read-only export: the guest cannot get rw, with or without caps.
    auto ro_sid = co_await kitten.xpmem_make(*owner, owner->image_base(), 1_MiB,
                                             "", AccessMode::read_only);
    CO_ASSERT_TRUE(ro_sid.ok());
    EXPECT_EQ((co_await vm_k.xpmem_get(ro_sid.value(), AccessMode::read_write))
                  .error(),
              Errc::permission_denied);

    // A rw export narrowed to ro by capability: the guest holding the ro
    // capability cannot escalate through any path.
    auto sid = co_await kitten.xpmem_make(*owner, owner->image_base() + 1_MiB,
                                          1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto root = kitten.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());
    CapRights ro;
    ro.access = AccessMode::read_only;
    auto cap = co_await kitten.cap_derive(root.value(), ro);
    CO_ASSERT_TRUE(cap.ok());

    // (a) rw get through the ro capability.
    EXPECT_EQ((co_await vm_k.xpmem_get(cap.value(), AccessMode::read_write))
                  .error(),
              Errc::permission_denied);
    // (b) the ro attachment's PTEs refuse guest writes.
    auto grant = co_await vm_k.xpmem_get(cap.value(), AccessMode::read_only);
    CO_ASSERT_TRUE(grant.ok());
    auto att = co_await vm_k.xpmem_attach(*guest, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(att.ok());
    const u64 evil = 1;
    EXPECT_EQ(
        node.enclave("vm0").proc_write(*guest, att.value().va, &evil, 8).error(),
        Errc::permission_denied);
    // (c) a remote cap_derive from the guest asking for rw is denied
    // owner-side — the denial is accounted against the segment.
    const u64 denials = kitten.stats().cap_denials;
    CapRights rw;
    rw.access = AccessMode::read_write;
    EXPECT_EQ((co_await vm_k.cap_derive(cap.value(), rw)).error(),
              Errc::permission_denied);
    EXPECT_GT(kitten.stats().cap_denials, denials);
    CO_ASSERT_TRUE((co_await vm_k.xpmem_detach(*guest, att.value())).ok());
  };
  eng.run(main());
}

TEST(Discoverability, ListEnumeratesPublishedNames) {
  Fixture f;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto& kitten = f.node.kernel("kitten0");
    auto& vm_k = f.node.kernel("vm0");
    os::Process* kp = f.node.enclave("kitten0").create_process(4_MiB).value();
    os::Process* vp = f.node.enclave("vm0").create_process(4_MiB).value();

    auto s1 = co_await kitten.xpmem_make(*kp, kp->image_base(), 1_MiB, "mesh");
    auto s2 =
        co_await kitten.xpmem_make(*kp, kp->image_base() + 1_MiB, 1_MiB, "field");
    auto s3 = co_await vm_k.xpmem_make(*vp, vp->image_base(), 1_MiB, "vm-out");
    CO_ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());

    // Anonymous exports do not appear in the namespace.
    auto anon = co_await kitten.xpmem_make(*kp, kp->image_base() + 2_MiB, 1_MiB);
    CO_ASSERT_TRUE(anon.ok());

    // List from a remote enclave (routed to the NS) and from the NS itself.
    for (XememKernel* k : {&f.node.kernel("vm0"), &f.node.kernel("linux")}) {
      auto list = co_await k->xpmem_list();
      CO_ASSERT_TRUE(list.ok());
      std::map<std::string, Segid> by_name(list.value().begin(),
                                           list.value().end());
      EXPECT_EQ(by_name.size(), 3u);
      EXPECT_EQ(by_name["mesh"], s1.value());
      EXPECT_EQ(by_name["field"], s2.value());
      EXPECT_EQ(by_name["vm-out"], s3.value());
    }

    // Removal withdraws the name from the listing.
    CO_ASSERT_TRUE((co_await kitten.xpmem_remove(*kp, s2.value())).ok());
    auto after = co_await vm_k.xpmem_list();
    CO_ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().size(), 2u);
  };
  f.eng.run(main());
}

TEST(Discoverability, EmptyNamespaceListsNothing) {
  Fixture f;
  auto main = [&]() -> sim::Task<void> {
    co_await f.node.start();
    auto list = co_await f.node.kernel("kitten0").xpmem_list();
    CO_ASSERT_TRUE(list.ok());
    EXPECT_TRUE(list.value().empty());
  };
  f.eng.run(main());
}

}  // namespace
}  // namespace xemem
