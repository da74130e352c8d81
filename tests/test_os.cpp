// Tests for the enclave OS personalities: Kitten's static address spaces,
// SMARTMAP local sharing and dynamic heap extension; Linux's scattered
// allocation, eager remote mapping, SMP interference factor; and the
// guest-Linux VM paths including data-plane translation.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "os/guest_linux.hpp"
#include "os/kitten.hpp"
#include "os/linux.hpp"
#include "palacios/vm.hpp"
#include "sim/sync.hpp"

#define CO_ASSERT_TRUE(x)                            \
  do {                                               \
    if (!(x)) {                                      \
      ADD_FAILURE() << "CO_ASSERT_TRUE failed: " #x; \
      co_return;                                     \
    }                                                \
  } while (0)

namespace xemem::os {
namespace {

struct Rig {
  hw::Machine machine{hw::Machine::r420()};
  sim::Engine eng{5};

  KittenEnclave make_kitten() {
    return KittenEnclave("kitten", machine, machine.zone(0), machine.socket_bw(0),
                         {&machine.core(6), &machine.core(7)}, &machine.core(6));
  }
  LinuxEnclave make_linux() {
    return LinuxEnclave("linux", machine, machine.zone(0), machine.socket_bw(0),
                        {&machine.core(0), &machine.core(1)}, &machine.core(0));
  }
};

// ------------------------------------------------------------------ Kitten

TEST(Kitten, ProcessImageIsEagerAndContiguous) {
  Rig rig;
  auto kitten = rig.make_kitten();
  Process* p = kitten.create_process(8_MiB).value();
  EXPECT_EQ(p->pt().mapped_pages(), 2048u) << "static mapping at creation";
  // Contiguous frames: the image compresses to one extent.
  EXPECT_EQ(p->pt().translate_range(p->image_base(), 2048).value().run_count(), 1u);
  kitten.destroy_process(p);
  EXPECT_EQ(rig.machine.zone(0).free_frames(), rig.machine.zone(0).total_frames());
}

TEST(Kitten, SmartmapWindowsResolveAcrossProcesses) {
  Rig rig;
  auto kitten = rig.make_kitten();
  Process* a = kitten.create_process(1_MiB).value();
  Process* b = kitten.create_process(1_MiB).value();

  const u64 marker = 0x534d415254ull;  // "SMART"
  ASSERT_TRUE(kitten.proc_write(*a, a->image_base(), &marker, 8).ok());

  // Process b addresses a's memory through a's SMARTMAP slot.
  const Vaddr win = KittenEnclave::smartmap_va(*a, a->image_base());
  auto [target, local] = kitten.smartmap_resolve(win);
  ASSERT_EQ(target, a);
  EXPECT_EQ(local, a->image_base());

  u64 got = 0;
  ASSERT_TRUE(kitten.smartmap_read(win, &got, 8).ok());
  EXPECT_EQ(got, marker);

  // Writes through the window land in the target's memory.
  const u64 reply = 77;
  ASSERT_TRUE(kitten.smartmap_write(win + 8, &reply, 8).ok());
  u64 back = 0;
  ASSERT_TRUE(kitten.proc_read(*a, a->image_base() + 8, &back, 8).ok());
  EXPECT_EQ(back, reply);
  (void)b;
}

TEST(Kitten, SmartmapRejectsDeadSlots) {
  Rig rig;
  auto kitten = rig.make_kitten();
  auto [target, va] = kitten.smartmap_resolve(Vaddr{(99ull + 1) << 39});
  EXPECT_EQ(target, nullptr);
  u64 v;
  EXPECT_FALSE(kitten.smartmap_read(Vaddr{(99ull + 1) << 39}, &v, 8).ok());
}

TEST(Kitten, DynamicHeapExtensionMapsRemoteFrames) {
  Rig rig;
  auto kitten = rig.make_kitten();
  auto run = [&]() -> sim::Task<void> {
    Process* p = kitten.create_process(1_MiB).value();
    const u64 static_pages = p->pt().mapped_pages();
    mm::PfnList remote;
    for (u64 i = 0; i < 64; ++i) remote.push_back(Pfn{500000 + i * 3});
    auto va = co_await kitten.map_attachment(*p, remote, /*lazy=*/false, /*writable=*/true);
    CO_ASSERT_TRUE(va.ok());
    EXPECT_GE(va.value(), p->image_base() + 1_MiB)
        << "attachments extend above the static image";
    EXPECT_EQ(p->pt().mapped_pages(), static_pages + 64);
    // The static image is untouched (SMARTMAP compatibility).
    EXPECT_TRUE(p->pt().lookup(p->image_base()).has_value());
    CO_ASSERT_TRUE((co_await kitten.unmap_attachment(*p, va.value(), 64)).ok());
    EXPECT_EQ(p->pt().mapped_pages(), static_pages);
  };
  rig.eng.run(run());
}

// ------------------------------------------------------------------- Linux

TEST(Linux, ProcessFramesAreScattered) {
  Rig rig;
  auto linux_os = rig.make_linux();
  Process* p = linux_os.create_process(8_MiB).value();
  EXPECT_GT(p->pt().translate_range(p->image_base(), 2048).value().run_count(), 10u)
      << "Linux page-at-a-time allocation must fragment the PFN list "
         "(this is what forces per-page Palacios map entries)";
}

TEST(Linux, EagerRemoteMapChargesMoreThanKitten) {
  Rig rig;
  auto linux_os = rig.make_linux();
  auto kitten = rig.make_kitten();
  mm::PfnList remote;
  for (u64 i = 0; i < 1024; ++i) remote.push_back(Pfn{600000 + i});

  auto run = [&]() -> sim::Task<void> {
    Process* lp = linux_os.create_process(1_MiB).value();
    Process* kp = kitten.create_process(1_MiB).value();
    const u64 t0 = sim::now();
    CO_ASSERT_TRUE((co_await linux_os.map_attachment(*lp, remote, false, true)).ok());
    const u64 linux_ns = sim::now() - t0;
    const u64 t1 = sim::now();
    CO_ASSERT_TRUE((co_await kitten.map_attachment(*kp, remote, false, true)).ok());
    const u64 kitten_ns = sim::now() - t1;
    EXPECT_GT(linux_ns, kitten_ns)
        << "VMA bookkeeping makes Linux mapping costlier per page";
  };
  rig.eng.run(run());
}

TEST(Linux, SmpInterferenceInflatesConcurrentMaps) {
  // Two concurrent eager maps each pay the interference factor; a solo map
  // does not (paper section 5.3's shared-mm-structure contention).
  auto measure = [](int concurrent) -> u64 {
    hw::Machine machine(hw::Machine::r420());
    sim::Engine eng(9);
    LinuxEnclave linux_os("linux", machine, machine.zone(0), machine.socket_bw(0),
                          {&machine.core(0), &machine.core(1), &machine.core(2)},
                          &machine.core(0));
    mm::PfnList remote;
    for (u64 i = 0; i < 4096; ++i) remote.push_back(Pfn{700000 + i});
    u64 longest = 0;
    sim::Barrier done(static_cast<u64>(concurrent) + 1);
    auto worker = [&](int i) -> sim::Task<void> {
      Process* p = linux_os.create_process(64 * kPageSize,
                                           &machine.core(1 + static_cast<u32>(i) % 2))
                       .value();
      const u64 t0 = sim::now();
      auto r = co_await linux_os.map_attachment(*p, remote, false, true);
      XEMEM_ASSERT(r.ok());
      longest = std::max(longest, sim::now() - t0);
      co_await done.arrive_and_wait();
    };
    auto main = [&]() -> sim::Task<void> {
      for (int i = 0; i < concurrent; ++i) sim::Engine::current()->spawn(worker(i));
      co_await done.arrive_and_wait();
    };
    eng.run(main());
    return longest;
  };
  const u64 solo = measure(1);
  const u64 pair = measure(2);
  EXPECT_GT(pair, solo) << "concurrent in-flight maps pay the interference factor";
  EXPECT_LT(static_cast<double>(pair), static_cast<double>(solo) * 1.2)
      << "the effect is a presence factor, not a serialization";
}

TEST(Linux, LazyAttachPartialTouchThenUnmapIsClean) {
  Rig rig;
  auto linux_os = rig.make_linux();
  auto run = [&]() -> sim::Task<void> {
    Process* p = linux_os.create_process(1_MiB).value();
    mm::PfnList remote;
    for (u64 i = 0; i < 256; ++i) remote.push_back(Pfn{800000 + i});
    auto va = co_await linux_os.map_attachment(*p, remote, /*lazy=*/true, /*writable=*/true);
    CO_ASSERT_TRUE(va.ok());
    EXPECT_EQ(linux_os.pending_fault_pages(), 256u);
    // Touch only the first 100 pages.
    co_await linux_os.touch_attached(*p, va.value(), 100);
    EXPECT_EQ(linux_os.pending_fault_pages(), 156u);
    EXPECT_TRUE(p->pt().lookup(va.value() + 99 * kPageSize).has_value());
    EXPECT_FALSE(p->pt().lookup(va.value() + 100 * kPageSize).has_value());
    // Unmapping a partially-faulted range must not touch unmapped PTEs.
    CO_ASSERT_TRUE((co_await linux_os.unmap_attachment(*p, va.value(), 256)).ok());
    EXPECT_EQ(linux_os.pending_fault_pages(), 0u);
  };
  rig.eng.run(run());
}

// ------------------------------------------------------------- Guest Linux

struct VmRig {
  hw::Machine machine{hw::Machine::r420()};
  sim::Engine eng{5};
  palacios::PalaciosVm vm{
      palacios::PalaciosVm::Config{"vm", 256_MiB, 1_GiB, palacios::MapBackend::rbtree},
      machine.zone(0)};

  VmRig() { XEMEM_ASSERT(vm.init().ok()); }

  GuestLinuxEnclave make_guest() {
    return GuestLinuxEnclave("guest", machine, vm, machine.socket_bw(0),
                             {&machine.core(4), &machine.core(5)},
                             &machine.core(4), &machine.core(4));
  }
};

TEST(GuestLinux, DataPlaneTranslatesThroughMemoryMap) {
  VmRig rig;
  auto guest = rig.make_guest();
  Process* p = guest.create_process(1_MiB).value();
  const u64 marker = 0xfeedface;
  ASSERT_TRUE(guest.proc_write(*p, p->image_base(), &marker, 8).ok());
  // The write must have landed in *host* memory owned by the VM's backing.
  auto pte = p->pt().lookup(p->image_base());
  ASSERT_TRUE(pte.has_value());
  auto host = guest.frame_to_host(pte->pfn);
  ASSERT_TRUE(host.ok());
  u64 got = 0;
  rig.machine.pmem().read(host.value().paddr(), &got, 8);
  EXPECT_EQ(got, marker);
}

TEST(GuestLinux, ExportReturnsHostFrames) {
  VmRig rig;
  auto guest = rig.make_guest();
  auto run = [&]() -> sim::Task<void> {
    Process* p = guest.create_process(1_MiB).value();
    auto frames = co_await guest.service_make_pfn_list(*p, p->image_base(), 64);
    CO_ASSERT_TRUE(frames.ok());
    // Every frame must be a host frame inside the VM's backing zone.
    for (const auto& r : frames.value().runs()) {
      EXPECT_TRUE(rig.machine.zone(0).owns(r.start));
      EXPECT_TRUE(rig.machine.zone(0).owns(r.start + (r.count - 1)));
    }
  };
  rig.eng.run(run());
}

TEST(GuestLinux, AttachCreatesAndRetiresHotplugMappings) {
  VmRig rig;
  auto guest = rig.make_guest();
  auto run = [&]() -> sim::Task<void> {
    Process* p = guest.create_process(1_MiB).value();
    const u64 base_entries = rig.vm.memory_map().entries();
    mm::PfnList host;
    for (u64 i = 0; i < 512; ++i) host.push_back(Pfn{900000 + 2 * i});
    auto va = co_await guest.map_attachment(*p, host, false, true);
    CO_ASSERT_TRUE(va.ok());
    EXPECT_EQ(rig.vm.memory_map().entries(), base_entries + 512);
    EXPECT_GT(guest.vmm_map_ns(), 0u);
    // Data plane: a write through the attachment reaches the host frame.
    const u64 v = 42;
    CO_ASSERT_TRUE(guest.proc_write(*p, va.value(), &v, 8).ok());
    u64 got = 0;
    rig.machine.pmem().read(Pfn{900000}.paddr(), &got, 8);
    EXPECT_EQ(got, 42u);
    CO_ASSERT_TRUE((co_await guest.unmap_attachment(*p, va.value(), 512)).ok());
    EXPECT_EQ(rig.vm.memory_map().entries(), base_entries);
  };
  rig.eng.run(run());
}

TEST(GuestLinux, MemOverheadFactorReflectsNestedPaging) {
  VmRig rig;
  auto guest = rig.make_guest();
  auto linux_like = LinuxEnclave("l", rig.machine, rig.machine.zone(1),
                                 rig.machine.socket_bw(1), {&rig.machine.core(0)},
                                 &rig.machine.core(0));
  EXPECT_GT(guest.mem_overhead_factor(), 1.0);
  EXPECT_EQ(linux_like.mem_overhead_factor(), 1.0);
}

}  // namespace
}  // namespace xemem::os
