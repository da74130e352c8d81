// Tests for the Palacios substrate: the instrumented red-black tree
// (differential + invariant property tests), both guest memory-map
// backends, and the VM container's Figure-4 translation paths.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/phys_mem.hpp"
#include "palacios/memory_map.hpp"
#include "palacios/rbtree.hpp"
#include "palacios/vm.hpp"

namespace xemem::palacios {
namespace {

// ------------------------------------------------------------------ RbTree

TEST(RbTree, InsertFindBasics) {
  RbTree<u64, int> t;
  EXPECT_TRUE(t.empty());
  auto [v1, fresh1] = t.insert(10, 100);
  EXPECT_TRUE(fresh1);
  EXPECT_EQ(*v1, 100);
  auto [v2, fresh2] = t.insert(10, 200);
  EXPECT_FALSE(fresh2) << "duplicate key must not insert";
  EXPECT_EQ(*v2, 100);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NE(t.find(10), nullptr);
  EXPECT_EQ(t.find(11), nullptr);
}

TEST(RbTree, EraseBasics) {
  RbTree<u64, int> t;
  for (u64 k = 0; k < 100; ++k) t.insert(k, static_cast<int>(k));
  EXPECT_TRUE(t.erase(50));
  EXPECT_FALSE(t.erase(50));
  EXPECT_EQ(t.size(), 99u);
  EXPECT_EQ(t.find(50), nullptr);
  EXPECT_TRUE(t.validate());
}

TEST(RbTree, FloorSemantics) {
  RbTree<u64, int> t;
  t.insert(10, 1);
  t.insert(20, 2);
  t.insert(30, 3);
  EXPECT_EQ(t.floor(5).first, nullptr);
  EXPECT_EQ(*t.floor(10).first, 10u);
  EXPECT_EQ(*t.floor(19).first, 10u);
  EXPECT_EQ(*t.floor(20).first, 20u);
  EXPECT_EQ(*t.floor(1000).first, 30u);
}

TEST(RbTree, InOrderTraversalIsSorted) {
  Rng rng(5);
  RbTree<u64, u64> t;
  for (int i = 0; i < 1000; ++i) t.insert(rng.next() % 10000, 0);
  u64 prev = 0;
  bool first = true;
  t.for_each([&](const u64& k, const u64&) {
    if (!first) EXPECT_GT(k, prev);
    prev = k;
    first = false;
  });
}

TEST(RbTree, StatsGrowLogarithmically) {
  RbTree<u64, int> t;
  RbOpStats small, large;
  for (u64 k = 0; k < 64; ++k) t.insert(k * 2, 0);
  t.find(63 * 2, &small);
  for (u64 k = 64; k < 65536; ++k) t.insert(k * 2, 0);
  t.find(65535 * 2, &large);
  EXPECT_GT(large.nodes_visited, small.nodes_visited);
  EXPECT_LE(large.nodes_visited, 2 * 17u) << "rb depth bound 2*log2(n+1)";
}

TEST(RbTree, SequentialInsertTriggersRotations) {
  RbTree<u64, int> t;
  RbOpStats st;
  for (u64 k = 0; k < 4096; ++k) t.insert(k, 0, &st);
  EXPECT_GT(st.rotations, 1000u) << "sorted inserts re-balance constantly";
  EXPECT_TRUE(t.validate());
}

// Property: random op sequences behave exactly like std::map and keep all
// red-black invariants at every step.
TEST(RbTreeProperty, DifferentialAgainstStdMap) {
  Rng rng(99);
  RbTree<u64, u64> t;
  std::map<u64, u64> oracle;
  for (int step = 0; step < 20000; ++step) {
    const u64 k = rng.uniform_u64(500);
    const double dice = rng.uniform();
    if (dice < 0.5) {
      const u64 v = rng.next();
      auto [slot, fresh] = t.insert(k, v);
      auto [it, ofresh] = oracle.emplace(k, v);
      ASSERT_EQ(fresh, ofresh);
      ASSERT_EQ(*slot, it->second);
    } else if (dice < 0.8) {
      ASSERT_EQ(t.erase(k), oracle.erase(k) == 1);
    } else if (dice < 0.9) {
      auto* v = t.find(k);
      auto it = oracle.find(k);
      ASSERT_EQ(v != nullptr, it != oracle.end());
      if (v) ASSERT_EQ(*v, it->second);
    } else {
      auto [fk, fv] = t.floor(k);
      auto it = oracle.upper_bound(k);
      if (it == oracle.begin()) {
        ASSERT_EQ(fk, nullptr);
      } else {
        --it;
        ASSERT_NE(fk, nullptr);
        ASSERT_EQ(*fk, it->first);
        ASSERT_EQ(*fv, it->second);
      }
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(t.validate()) << "red-black invariant broken at step " << step;
      ASSERT_EQ(t.size(), oracle.size());
    }
  }
  ASSERT_TRUE(t.validate());
  ASSERT_EQ(t.size(), oracle.size());
}

// Fixed-seed op sequence: an ascending attach-style fill, random churn
// over a 4096-key space, then an ascending drain.
RbOpStats run_fixed_sequence(RbTree<u64, u64>& t) {
  RbOpStats total;
  for (u64 k = 0; k < 3000; ++k) (void)t.insert(100000 + k, k, &total);
  Rng rng(1616);
  for (int step = 0; step < 40000; ++step) {
    const u64 k = rng.uniform_u64(4096);
    const double dice = rng.uniform();
    if (dice < 0.45) {
      (void)t.insert(k, step, &total);
    } else if (dice < 0.85) {
      (void)t.erase(k, &total);
    } else {
      (void)t.floor(k, &total);
    }
  }
  for (u64 k = 0; k < 3000; ++k) (void)t.erase(100000 + k, &total);
  return total;
}

// The node pool must not change the algorithm: these totals were recorded
// with the tree allocating each node with new/delete.
TEST(RbTree, OpStatsPinnedForFixedSequence) {
  RbTree<u64, u64> t;
  const RbOpStats s = run_fixed_sequence(t);
  EXPECT_EQ(s.nodes_visited, 706644u);
  EXPECT_EQ(s.rotations, 11752u);
  EXPECT_EQ(s.recolorings, 48596u);
  EXPECT_EQ(t.size(), 2138u);
  EXPECT_TRUE(t.validate());
}

// Erased nodes are reused: churn at a steady size allocates no new blocks.
TEST(RbTree, PoolBlocksStayFlatUnderSteadyChurn) {
  RbTree<u64, u64> t;
  Rng rng(7);
  std::vector<u64> keys;
  for (u64 i = 0; i < 5000; ++i) {
    keys.push_back(rng.next());
    ASSERT_TRUE(t.insert(keys.back(), i).second);
  }
  const u64 blocks = t.pool_blocks();
  EXPECT_GT(blocks, 0u);
  for (int step = 0; step < 50000; ++step) {
    const u64 pick = rng.uniform_u64(keys.size());
    ASSERT_TRUE(t.erase(keys[pick]));
    keys[pick] = rng.next();
    ASSERT_TRUE(t.insert(keys[pick], static_cast<u64>(step)).second);
  }
  EXPECT_EQ(t.size(), 5000u);
  EXPECT_EQ(t.pool_blocks(), blocks);
  EXPECT_TRUE(t.validate());
  t.clear();
  EXPECT_EQ(t.pool_blocks(), 0u);
}

// ----------------------------------------------------------- GuestMemoryMap

class MemoryMapTest : public ::testing::TestWithParam<MapBackend> {};

TEST_P(MemoryMapTest, InsertTranslateRemove) {
  GuestMemoryMap m(GetParam());
  ASSERT_TRUE(m.insert_region(GuestPaddr{0}, HostPaddr{1_MiB}, 64 * kPageSize).ok());
  auto hpa = m.translate(GuestPaddr{5 * kPageSize + 12});
  ASSERT_TRUE(hpa.has_value());
  EXPECT_EQ(hpa->value(), 1_MiB + 5 * kPageSize + 12);
  EXPECT_FALSE(m.translate(GuestPaddr{64 * kPageSize}).has_value());
  ASSERT_TRUE(m.remove_region(GuestPaddr{0}, 64 * kPageSize).ok());
  EXPECT_FALSE(m.translate(GuestPaddr{0}).has_value());
  EXPECT_EQ(m.entries(), 0u);
}

TEST_P(MemoryMapTest, OverlapRejected) {
  GuestMemoryMap m(GetParam());
  ASSERT_TRUE(m.insert_region(GuestPaddr{16 * kPageSize}, HostPaddr{0}, 16 * kPageSize).ok());
  EXPECT_FALSE(
      m.insert_region(GuestPaddr{24 * kPageSize}, HostPaddr{1_MiB}, 16 * kPageSize).ok());
  // A failed insert must not leave partial state behind.
  EXPECT_FALSE(m.translate(GuestPaddr{33 * kPageSize}).has_value());
  ASSERT_TRUE(
      m.insert_region(GuestPaddr{32 * kPageSize}, HostPaddr{1_MiB}, 16 * kPageSize).ok());
}

TEST_P(MemoryMapTest, MisalignedRejected) {
  GuestMemoryMap m(GetParam());
  EXPECT_FALSE(m.insert_region(GuestPaddr{100}, HostPaddr{0}, kPageSize).ok());
  EXPECT_FALSE(m.insert_region(GuestPaddr{0}, HostPaddr{0}, 100).ok());
}

TEST_P(MemoryMapTest, TranslateFramesRoundTrip) {
  Rng rng(17);
  GuestMemoryMap m(GetParam());
  std::vector<Gfn> gfns;
  std::vector<Pfn> expected;
  for (u64 i = 0; i < 300; ++i) {
    const Gfn g{1000 + i};
    const Pfn h{rng.uniform_u64(1 << 20)};
    ASSERT_TRUE(m.insert_region(g.paddr(), h.paddr(), kPageSize).ok());
    gfns.push_back(g);
    expected.push_back(h);
  }
  auto host = m.translate_frames(gfns);
  ASSERT_TRUE(host.ok());
  EXPECT_EQ(host.value().pfns, expected);
}

INSTANTIATE_TEST_SUITE_P(Backends, MemoryMapTest,
                         ::testing::Values(MapBackend::rbtree, MapBackend::radix),
                         [](const auto& info) {
                           return info.param == MapBackend::rbtree ? "rbtree"
                                                                   : "radix";
                         });

TEST(MemoryMapCost, RadixInsertsAreCheaperThanRbAtScale) {
  GuestMemoryMap rb(MapBackend::rbtree);
  GuestMemoryMap rx(MapBackend::radix);
  MapWork rb_work, rx_work;
  // Simulate a 64 Mi attachment of scattered frames: per-page inserts.
  for (u64 i = 0; i < 16384; ++i) {
    ASSERT_TRUE(
        rb.insert_region(GuestPaddr{i * kPageSize}, HostPaddr{i * 2 * kPageSize},
                         kPageSize, &rb_work)
            .ok());
    ASSERT_TRUE(
        rx.insert_region(GuestPaddr{i * kPageSize}, HostPaddr{i * 2 * kPageSize},
                         kPageSize, &rx_work)
            .ok());
  }
  EXPECT_GT(rb_work.steps, 4 * rx_work.steps)
      << "rb-tree descent+rebalance should dwarf radix constant work";
  EXPECT_GT(rb_work.rotations, 0u);
  EXPECT_EQ(rx_work.rotations, 0u);
}

// translate_frames walks the tree once per region but must charge what one
// translate() per page charges, across regions and up to an unmapped gfn.
TEST(MemoryMapCost, TranslateFramesChargesPerPageWalks) {
  for (MapBackend backend : {MapBackend::rbtree, MapBackend::radix}) {
    GuestMemoryMap m(backend);
    // Two adjacent multi-page regions, then single-page entries.
    ASSERT_TRUE(m.insert_region(Gfn{100}.paddr(), HostPaddr{1_MiB}, 40 * kPageSize).ok());
    ASSERT_TRUE(m.insert_region(Gfn{140}.paddr(), HostPaddr{8_MiB}, 24 * kPageSize).ok());
    for (u64 i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          m.insert_region(Gfn{300 + i}.paddr(), HostPaddr{(64 + 3 * i) * kPageSize},
                          kPageSize)
              .ok());
    }
    auto per_page = [&](const std::vector<Gfn>& gfns, MapWork& w) {
      std::vector<Pfn> out;
      for (Gfn g : gfns) {
        auto hpa = m.translate(g.paddr(), &w);
        if (!hpa) return false;
        out.push_back(Pfn::of(*hpa));
      }
      auto got = m.translate_frames(gfns);
      return got.ok() && got.value().pfns == out;
    };
    std::vector<Gfn> run;  // spans both regions, back and forth, then singles
    for (u64 g = 120; g < 164; ++g) run.push_back(Gfn{g});
    for (u64 g = 139; g > 130; --g) run.push_back(Gfn{g});
    for (u64 g = 300; g < 500; ++g) run.push_back(Gfn{g});
    MapWork fast;
    MapWork slow;
    ASSERT_TRUE(m.translate_frames(run, &fast).ok());
    ASSERT_TRUE(per_page(run, slow));
    EXPECT_EQ(fast.steps, slow.steps);
    EXPECT_GT(fast.steps, run.size());

    // An unmapped gfn (between the regions and the singles) fails the call;
    // the charge still matches the per-page loop up to and including it.
    std::vector<Gfn> holey(run.begin(), run.begin() + 50);
    holey.push_back(Gfn{200});
    holey.push_back(Gfn{301});
    MapWork fast_err;
    MapWork slow_err;
    EXPECT_FALSE(m.translate_frames(holey, &fast_err).ok());
    EXPECT_FALSE(per_page(holey, slow_err));
    EXPECT_EQ(fast_err.steps, slow_err.steps);
  }
}

// -------------------------------------------------------------- PalaciosVm

TEST(PalaciosVm, InitMapsRamWithFewEntries) {
  hw::PhysicalMemory pm;
  pm.add_zone(4_GiB);
  PalaciosVm::Config cfg{"vm", 1_GiB, 1_GiB, MapBackend::rbtree};
  PalaciosVm vm(cfg, pm.zone(0));
  ASSERT_TRUE(vm.init().ok());
  EXPECT_LE(vm.memory_map().entries(), 4u)
      << "guest RAM from contiguous host blocks keeps the map tiny";
  // GPA 0 translates somewhere inside the host zone.
  auto h = vm.translate_gfn(Gfn{0});
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(pm.zone(0).owns(h.value()));
}

TEST(PalaciosVm, MapHostFramesCreatesPerPageEntries) {
  hw::PhysicalMemory pm;
  pm.add_zone(4_GiB);
  PalaciosVm::Config cfg{"vm", 256_MiB, 1_GiB, MapBackend::rbtree};
  PalaciosVm vm(cfg, pm.zone(0));
  ASSERT_TRUE(vm.init().ok());
  const u64 base_entries = vm.memory_map().entries();

  // Scattered host frames, as a Linux exporter would provide.
  auto scattered = pm.zone(0).alloc(512, hw::AllocPolicy::scattered).value();
  mm::PfnList host = mm::PfnList::from_extents(scattered);
  auto mapped = vm.map_host_frames(host);
  ASSERT_TRUE(mapped.ok());
  auto& [gfns, work] = mapped.value();
  EXPECT_EQ(gfns.size(), 512u);
  EXPECT_EQ(vm.memory_map().entries(), base_entries + 512)
      << "one memory-map entry per attached page (paper section 4.4)";
  EXPECT_GT(work.rotations, 0u);

  // Figure 4(a)/(b) round trip: guest frames translate back to the host
  // frames we attached.
  auto back = vm.guest_to_host(gfns);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().pfns, host.pfns);

  auto unwork = vm.unmap_host_frames(gfns);
  ASSERT_TRUE(unwork.ok());
  EXPECT_EQ(vm.memory_map().entries(), base_entries);
  for (auto e : scattered) pm.zone(0).free(e);
}

TEST(PalaciosVm, HotplugRegionIsReusedAfterUnmap) {
  hw::PhysicalMemory pm;
  pm.add_zone(2_GiB);
  PalaciosVm::Config cfg{"vm", 128_MiB, 256_MiB, MapBackend::radix};
  PalaciosVm vm(cfg, pm.zone(0));
  ASSERT_TRUE(vm.init().ok());
  auto fr = pm.zone(0).alloc(64, hw::AllocPolicy::scattered).value();
  mm::PfnList host = mm::PfnList::from_extents(fr);
  for (int round = 0; round < 100; ++round) {
    auto mapped = vm.map_host_frames(host);
    ASSERT_TRUE(mapped.ok());
    ASSERT_TRUE(vm.unmap_host_frames(mapped.value().first).ok());
  }
  for (auto e : fr) pm.zone(0).free(e);
}

TEST(PalaciosVm, GuestRamExhaustionFails) {
  hw::PhysicalMemory pm;
  pm.add_zone(256_MiB);
  PalaciosVm::Config cfg{"vm", 512_MiB, 64_MiB, MapBackend::rbtree};
  PalaciosVm vm(cfg, pm.zone(0));
  EXPECT_FALSE(vm.init().ok());
}

}  // namespace
}  // namespace xemem::palacios
