// Tests for 2 MiB large-page support: page-table mechanics (map/lookup/
// unmap/translate, mixed granularity), aligned frame allocation, and the
// Kitten large-page mode end to end through a full XEMEM attachment.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "mm/page_table.hpp"
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

constexpr u64 kSpan = mm::PageTable::kLargeSpan;
constexpr u64 kLargeBytes = kSpan * kPageSize;

// ------------------------------------------------------------- page table

TEST(LargePages, MapLargeResolvesEveryContainedPage) {
  mm::PageTable pt;
  ASSERT_TRUE(pt.map_large(Vaddr{4 * kLargeBytes}, Pfn{kSpan * 7},
                           mm::PageFlags::writable)
                  .ok());
  EXPECT_EQ(pt.mapped_pages(), kSpan);
  EXPECT_EQ(pt.large_mappings(), 1u);
  for (u64 i : {u64{0}, u64{1}, u64{255}, kSpan - 1}) {
    auto v = pt.lookup(Vaddr{4 * kLargeBytes + i * kPageSize});
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->large);
    EXPECT_EQ(v->pfn, Pfn{kSpan * 7 + i});
  }
  EXPECT_FALSE(pt.lookup(Vaddr{5 * kLargeBytes}).has_value());
}

TEST(LargePages, AlignmentRequirementsEnforced) {
  mm::PageTable pt;
  EXPECT_FALSE(pt.map_large(Vaddr{kPageSize}, Pfn{kSpan}, mm::PageFlags::none).ok());
  EXPECT_FALSE(pt.map_large(Vaddr{kLargeBytes}, Pfn{3}, mm::PageFlags::none).ok());
}

TEST(LargePages, ConflictsWithSmallMappingsRejected) {
  mm::PageTable pt;
  // 4 KiB page inside the window blocks a large mapping...
  ASSERT_TRUE(pt.map(Vaddr{2 * kLargeBytes + kPageSize}, Pfn{9},
                     mm::PageFlags::none)
                  .ok());
  EXPECT_EQ(pt.map_large(Vaddr{2 * kLargeBytes}, Pfn{kSpan}, mm::PageFlags::none)
                .error(),
            Errc::already_exists);
  // ...and a large mapping blocks 4 KiB maps inside its window.
  ASSERT_TRUE(pt.map_large(Vaddr{8 * kLargeBytes}, Pfn{kSpan * 2},
                           mm::PageFlags::none)
                  .ok());
  EXPECT_EQ(
      pt.map(Vaddr{8 * kLargeBytes + 3 * kPageSize}, Pfn{11}, mm::PageFlags::none)
          .error(),
      Errc::already_exists);
  // Small unmap inside a large mapping is rejected (use unmap_large).
  EXPECT_FALSE(pt.unmap(Vaddr{8 * kLargeBytes}).ok());
  ASSERT_TRUE(pt.unmap_large(Vaddr{8 * kLargeBytes}).ok());
  EXPECT_EQ(pt.large_mappings(), 0u);
}

TEST(LargePages, TranslateRangeCollapsesWalkWork) {
  mm::PageTable pt;
  // 16 MiB as large pages vs as 4 KiB pages: compare walk work.
  for (u64 i = 0; i < 8; ++i) {
    ASSERT_TRUE(pt.map_large(Vaddr{i * kLargeBytes}, Pfn{i * kSpan},
                             mm::PageFlags::none)
                    .ok());
  }
  mm::WalkStats large_walk;
  auto big = pt.translate_range(Vaddr{0}, 8 * kSpan, &large_walk);
  ASSERT_TRUE(big.ok());
  ASSERT_EQ(big.value().page_count(), 8 * kSpan);
  ASSERT_EQ(big.value().run_count(), 1u);
  EXPECT_EQ(big.value().runs()[0], (hw::FrameExtent{Pfn{0}, 8 * kSpan}));

  mm::PageTable small;
  ASSERT_TRUE(
      small.map_range(Vaddr{0}, big.value(), mm::PageFlags::none).ok());
  mm::WalkStats small_walk;
  ASSERT_TRUE(small.translate_range(Vaddr{0}, 8 * kSpan, &small_walk).ok());

  EXPECT_LT(large_walk.entries_visited * 100, small_walk.entries_visited)
      << "large-page walks must be orders of magnitude cheaper";
}

TEST(LargePages, MapRangeBestMixesGranularities) {
  mm::PageTable pt;
  // Aligned contiguous run + a scattered tail.
  mm::PfnList frames;
  frames.append(hw::FrameExtent{Pfn{kSpan * 4}, kSpan});                  // large-able
  for (u64 i = 0; i < 10; ++i) frames.push_back(Pfn{99000 + i * 2});     // scattered
  ASSERT_TRUE(pt.map_range_best(Vaddr{0}, frames, mm::PageFlags::writable).ok());
  EXPECT_EQ(pt.large_mappings(), 1u);
  EXPECT_EQ(pt.mapped_pages(), kSpan + 10);
  auto all = pt.translate_range(Vaddr{0}, kSpan + 10);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), frames);
  ASSERT_TRUE(pt.unmap_range(Vaddr{0}, kSpan + 10).ok());
  EXPECT_EQ(pt.mapped_pages(), 0u);
  EXPECT_LE(pt.table_nodes(), 1u);
}

// ------------------------------------------------------------ frame zones

TEST(LargePages, AlignedAllocationRespectsAlignment) {
  hw::FrameZone z(Pfn{3}, 8192);  // deliberately misaligned base
  auto a = z.alloc_contiguous_aligned(1024, 512);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().start.value() % 512, 0u);
  EXPECT_EQ(a.value().count, 1024u);
  // The skipped head is still allocatable.
  auto b = z.alloc(509, hw::AllocPolicy::contiguous);
  ASSERT_TRUE(b.ok());
  z.free(a.value());
  for (auto e : b.value()) z.free(e);
  EXPECT_EQ(z.free_frames(), 8192u);
}

TEST(LargePages, AlignedAllocationFailsWhenFragmented) {
  hw::FrameZone z(Pfn{0}, 1024);
  auto a = z.alloc(1000, hw::AllocPolicy::contiguous).value()[0];
  EXPECT_FALSE(z.alloc_contiguous_aligned(512, 512).ok());
  z.free(a);
  EXPECT_TRUE(z.alloc_contiguous_aligned(512, 512).ok());
}

// ------------------------------------------------- end-to-end via XEMEM

TEST(LargePages, KittenLargePageExportAttachesCorrectly) {
  sim::Engine eng(7);
  Node node(hw::Machine::r420());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ckk = node.add_cokernel("ck", 0, {6, 7}, 512_MiB);
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    auto* ck = static_cast<os::KittenEnclave*>(&node.enclave("ck"));
    ck->set_large_pages(true);
    os::Process* p = ck->create_process(64_MiB).value();
    EXPECT_EQ(p->pt().large_mappings(), 32u) << "64 MiB = 32 large pages";

    const u64 marker = 0x2a2a2a;
    CO_ASSERT_TRUE(
        ck->proc_write(*p, p->image_base() + 5 * kPageSize, &marker, 8).ok());

    auto sid = co_await ckk.xpmem_make(*p, p->image_base(), 64_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto grant = co_await mgmt.xpmem_get(sid.value());
    os::Process* u = node.enclave("linux").create_process(1_MiB).value();
    auto att = co_await mgmt.xpmem_attach(*u, grant.value(), 0, 64_MiB);
    CO_ASSERT_TRUE(att.ok());
    u64 got = 0;
    CO_ASSERT_TRUE(node.enclave("linux")
                       .proc_read(*u, att.value().va + 5 * kPageSize, &got, 8)
                       .ok());
    EXPECT_EQ(got, marker);
    CO_ASSERT_TRUE((co_await mgmt.xpmem_detach(*u, att.value())).ok());
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);

    // Runs are maximal: two adjacent 256-frame runs appended at a 512-aligned
    // start are one run, so they map with one 2 MiB entry and charge the
    // same WalkStats as one 512-frame run. Large-page eligibility and
    // extents_shipped both rest on this.
    mm::PfnList halves;
    halves.append(hw::FrameExtent{Pfn{kSpan * 3000}, kSpan / 2});
    halves.append(hw::FrameExtent{Pfn{kSpan * 3000 + kSpan / 2}, kSpan / 2});
    mm::PfnList whole;
    whole.append(hw::FrameExtent{Pfn{kSpan * 3000}, kSpan});
    EXPECT_EQ(halves, whole);
    mm::PageTable pt_halves;
    mm::PageTable pt_whole;
    mm::WalkStats st_halves;
    mm::WalkStats st_whole;
    const auto flags = mm::PageFlags::writable | mm::PageFlags::user;
    CO_ASSERT_TRUE(
        pt_halves.map_range_best(Vaddr{kLargeBytes}, halves, flags, &st_halves).ok());
    CO_ASSERT_TRUE(
        pt_whole.map_range_best(Vaddr{kLargeBytes}, whole, flags, &st_whole).ok());
    EXPECT_EQ(pt_halves.large_mappings(), 1u);
    EXPECT_EQ(st_halves.entries_visited, st_whole.entries_visited);
    EXPECT_EQ(st_halves.tables_allocated, st_whole.tables_allocated);
    EXPECT_EQ(st_halves.tables_freed, st_whole.tables_freed);
    // A one-frame gap keeps them two runs: 512 pages, but no 2 MiB entry.
    mm::PfnList gapped;
    gapped.append(hw::FrameExtent{Pfn{kSpan * 3000}, kSpan / 2});
    gapped.append(hw::FrameExtent{Pfn{kSpan * 3000 + kSpan / 2 + 1}, kSpan / 2});
    mm::PageTable pt_gapped;
    mm::WalkStats st_gapped;
    CO_ASSERT_TRUE(
        pt_gapped.map_range_best(Vaddr{kLargeBytes}, gapped, flags, &st_gapped).ok());
    EXPECT_EQ(pt_gapped.large_mappings(), 0u);
    EXPECT_EQ(pt_gapped.mapped_pages(), kSpan);
    EXPECT_EQ(st_gapped.entries_visited, 4 * kSpan);
    const u64 large_before = p->pt().large_mappings();
    auto va = co_await ck->map_attachment(*p, halves, false, true);
    CO_ASSERT_TRUE(va.ok());
    EXPECT_EQ(p->pt().large_mappings(), large_before + 1);
    const auto pte = p->pt().lookup(va.value() + 300 * kPageSize);
    CO_ASSERT_TRUE(pte.has_value());
    EXPECT_EQ(pte->pfn, Pfn{kSpan * 3000 + 300});
    CO_ASSERT_TRUE((co_await ck->unmap_attachment(*p, va.value(), kSpan)).ok());
    EXPECT_EQ(p->pt().large_mappings(), large_before);
  };
  eng.run(main());
}

TEST(LargePages, ExportWalkIsMuchFasterWithLargePages) {
  auto attach_time = [](bool large) -> u64 {
    sim::Engine eng(8);
    Node node(hw::Machine::r420());
    auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    auto& ckk = node.add_cokernel("ck", 0, {6, 7}, 512_MiB);
    u64 out = 0;
    auto main = [&]() -> sim::Task<void> {
      co_await node.start();
      auto* ck = static_cast<os::KittenEnclave*>(&node.enclave("ck"));
      ck->set_large_pages(large);
      os::Process* p = ck->create_process(256_MiB).value();
      auto sid = co_await ckk.xpmem_make(*p, p->image_base(), 256_MiB);
      auto grant = co_await mgmt.xpmem_get(sid.value());
      os::Process* u = node.enclave("linux").create_process(1_MiB).value();
      const u64 t0 = sim::now();
      auto att = co_await mgmt.xpmem_attach(*u, grant.value(), 0, 256_MiB);
      out = sim::now() - t0;
      XEMEM_ASSERT(att.ok());
    };
    eng.run(main());
    return out;
  };
  const u64 small = attach_time(false);
  const u64 large = attach_time(true);
  // Only the exporter-side walk shrinks (the Linux attacher still maps
  // 4 KiB pages), which is roughly the walk share of the total.
  EXPECT_LT(large, small * 80 / 100)
      << "large-page exports must cut the attach path by the walk share";
}

}  // namespace
}  // namespace xemem
