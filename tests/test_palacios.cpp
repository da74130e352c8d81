// Tests for the Palacios substrate: the instrumented red-black tree
// (differential + invariant property tests), both guest memory-map
// backends, and the VM container's Figure-4 translation paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
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

// The rbtree memory map as it updated the tree page by page before window
// updates: floor() + insert() to map a region and find() + erase() to unmap
// it, each call counted and charged on its own. The twin of the
// differential tests below.
class PerPageTwin {
 public:
  bool insert(u64 gpa, u64 bytes, MapWork& w) {
    RbOpStats st;
    auto [fk, fv] = t_.floor(gpa + bytes - 1, &st);
    w.steps += st.nodes_visited;
    if (fk != nullptr && *fk + *fv > gpa) return false;
    RbOpStats ins;
    EXPECT_TRUE(t_.insert(gpa, bytes, &ins).second);
    w.steps += ins.nodes_visited + ins.recolorings;
    w.rotations += ins.rotations;
    ++w.entries_touched;
    return true;
  }

  bool remove(u64 gpa, u64 bytes, MapWork& w) {
    RbOpStats st;
    const u64* b = t_.find(gpa, &st);
    w.steps += st.nodes_visited;
    if (b == nullptr || *b != bytes) return false;
    RbOpStats er;
    EXPECT_TRUE(t_.erase(gpa, &er));
    w.steps += er.nodes_visited + er.recolorings;
    w.rotations += er.rotations;
    ++w.entries_touched;
    return true;
  }

  u64 size() const { return t_.size(); }

 private:
  RbTree<u64, u64> t_;  // gpa -> bytes
};

bool same_work(const MapWork& a, const MapWork& b) {
  return a.steps == b.steps && a.rotations == b.rotations &&
         a.entries_touched == b.entries_touched;
}

// Window updates against the per-page twin: seeded worlds of a few
// multi-page entries, then windows of 1-600 pages placed below, between
// and above live entries, some of them running into an entry mid-window
// and going on past it, interleaved with in-order runs of removes. Half
// the windows start a fresh cursor, as map_host_frames does; the rest
// keep the previous window's, which removes in between make stale. Every
// page must succeed or fail as the twin's does and be charged the same
// work.
TEST(MemoryMapDifferential, WindowUpdatesMatchPerPageTwin) {
  constexpr u64 kSpace = 1 << 15;  // guest frames the worlds live in
  u64 ops = 0;
  u64 overlaps = 0;
  u64 mismatches = 0;
  for (u64 seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    GuestMemoryMap m(MapBackend::rbtree);
    PerPageTwin twin;
    std::set<u64> live;  // guest frames that start an entry
    GuestMemoryMap::InsertCursor cursor;
    auto check = [&](bool ok, const MapWork& w, bool twin_ok, const MapWork& tw) {
      ++ops;
      if (ok == twin_ok && same_work(w, tw)) return;
      if (mismatches++ == 0) {
        ADD_FAILURE() << "seed " << seed << " op " << ops << ": ok " << ok << "/"
                      << twin_ok << " steps " << w.steps << "/" << tw.steps
                      << " rotations " << w.rotations << "/" << tw.rotations
                      << " entries " << w.entries_touched << "/"
                      << tw.entries_touched;
      }
    };
    for (int r = 0; r < 3; ++r) {
      const u64 gfn = rng.uniform_u64(kSpace);
      const u64 pages = 64 + rng.uniform_u64(2048);
      MapWork w, tw;
      const bool ok = m.insert_region(Gfn{gfn}.paddr(), HostPaddr{0}, pages * kPageSize, &w)
                          .ok();
      check(ok, w, twin.insert(Gfn{gfn}.paddr().value(), pages * kPageSize, tw), tw);
      if (ok) live.insert(gfn);
    }
    for (int step = 0; step < 14; ++step) {
      const u64 len = 1 + rng.uniform_u64(600);
      if (rng.uniform() < 0.6 || live.empty()) {
        // A window; a quarter of them start just below a live entry.
        u64 start = rng.uniform_u64(kSpace);
        if (!live.empty() && rng.uniform() < 0.25) {
          auto it = live.lower_bound(start);
          if (it == live.end()) it = live.begin();
          start = *it - std::min(*it, rng.uniform_u64(len));
        }
        if (rng.uniform() < 0.5) cursor = GuestMemoryMap::InsertCursor{};
        for (u64 g = start; g < start + len; ++g) {
          MapWork w, tw;
          const bool ok =
              m.insert_region(Gfn{g}.paddr(), HostPaddr{g * kPageSize}, kPageSize, &w,
                              cursor)
                  .ok();
          const bool twin_ok = twin.insert(Gfn{g}.paddr().value(), kPageSize, tw);
          check(ok, w, twin_ok, tw);
          overlaps += twin_ok ? 0 : 1;
          if (ok) live.insert(g);
        }
        ASSERT_TRUE(m.validate()) << "seed " << seed << " step " << step;
      } else {
        // An in-order run of page removes from a live entry on; pages that
        // are not single-page entries fail on both sides.
        auto it = live.begin();
        std::advance(it, rng.uniform_u64(live.size()));
        for (u64 g = *it, end = *it + len; g < end; ++g) {
          MapWork w, tw;
          const bool ok = m.remove_region(Gfn{g}.paddr(), kPageSize, &w).ok();
          check(ok, w, twin.remove(Gfn{g}.paddr().value(), kPageSize, tw), tw);
          if (ok) live.erase(g);
        }
      }
      ASSERT_EQ(m.entries(), twin.size());
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << ops << " operations";
  EXPECT_GT(overlaps, 1000u) << "windows must run into live entries";
  RecordProperty("operations", static_cast<int>(ops));
  RecordProperty("overlaps", static_cast<int>(overlaps));
}

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
  mm::PfnList gframes;
  mm::PfnList expected;
  for (u64 i = 0; i < 300; ++i) {
    const Gfn g{1000 + i};
    const Pfn h{rng.uniform_u64(1 << 20)};
    ASSERT_TRUE(m.insert_region(g.paddr(), h.paddr(), kPageSize).ok());
    gframes.push_back(Pfn{g.value()});
    expected.push_back(h);
  }
  auto host = m.translate_frames(gframes);
  ASSERT_TRUE(host.ok());
  EXPECT_EQ(host.value(), expected);
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
    // The fast side gets the gfns as runs; the per-page twin walks them
    // one translate() at a time and is the reference.
    auto runs_of = [](const std::vector<Gfn>& gfns) {
      mm::PfnList l;
      for (Gfn g : gfns) l.push_back(Pfn{g.value()});
      return l;
    };
    auto per_page = [&](const std::vector<Gfn>& gfns, MapWork& w) {
      mm::PfnList out;
      for (Gfn g : gfns) {
        auto hpa = m.translate(g.paddr(), &w);
        if (!hpa) return false;
        out.push_back(Pfn::of(*hpa));
      }
      auto got = m.translate_frames(runs_of(gfns));
      return got.ok() && got.value() == out;
    };
    std::vector<Gfn> run;  // spans both regions, back and forth, then singles
    for (u64 g = 120; g < 164; ++g) run.push_back(Gfn{g});
    for (u64 g = 139; g > 130; --g) run.push_back(Gfn{g});
    for (u64 g = 300; g < 500; ++g) run.push_back(Gfn{g});
    ASSERT_EQ(runs_of(run).run_count(), 11u) << "one run over both regions";
    MapWork fast;
    MapWork slow;
    ASSERT_TRUE(m.translate_frames(runs_of(run), &fast).ok());
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
    EXPECT_FALSE(m.translate_frames(runs_of(holey), &fast_err).ok());
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
  const mm::PfnList host(scattered);
  MapWork work;
  auto mapped = vm.map_host_frames(host, &work);
  ASSERT_TRUE(mapped.ok());
  const hw::FrameExtent window = mapped.value();
  EXPECT_EQ(window.count, 512u);
  EXPECT_EQ(vm.memory_map().entries(), base_entries + 512)
      << "one memory-map entry per attached page (paper section 4.4)";
  EXPECT_GT(work.rotations, 0u);

  // Figure 4(a)/(b) round trip: guest frames translate back to the host
  // frames we attached.
  mm::PfnList gframes;
  gframes.append(window);
  auto back = vm.guest_to_host(gframes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), host);

  auto unwork = vm.unmap_host_frames(window);
  ASSERT_TRUE(unwork.ok());
  EXPECT_EQ(vm.memory_map().entries(), base_entries);
  for (auto e : scattered) pm.zone(0).free(e);
}

// A window that runs into an existing entry fails with the per-page
// error, charges what the per-page twin charges for the inserts up to the
// collision and the in-order rollback of the pages before it, frees the
// window and leaves the map's earlier entries as they were.
TEST(PalaciosVm, MapHostFramesRollbackMatchesTwin) {
  hw::PhysicalMemory pm;
  pm.add_zone(2_GiB);
  PalaciosVm::Config cfg{"vm", 256_MiB, 256_MiB, MapBackend::rbtree};
  PalaciosVm vm(cfg, pm.zone(0));
  ASSERT_TRUE(vm.init().ok());
  ASSERT_EQ(vm.memory_map().entries(), 1u) << "guest RAM is one entry at GPA 0";
  // The first hot-plug frame starts the next window; its page 100 collides.
  const u64 hot = Gfn{pages_for(256_MiB)}.paddr().value();
  const u64 blocker = hot + 100 * kPageSize;
  ASSERT_TRUE(
      vm.memory_map().insert_region(GuestPaddr{blocker}, HostPaddr{0}, kPageSize).ok());
  PerPageTwin twin;
  MapWork setup;
  ASSERT_TRUE(twin.insert(0, 256_MiB, setup));
  ASSERT_TRUE(twin.insert(blocker, kPageSize, setup));

  auto frames = pm.zone(0).alloc(300, hw::AllocPolicy::scattered).value();
  const mm::PfnList host(frames);
  MapWork work;
  auto mapped = vm.map_host_frames(host, &work);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.error(), Errc::already_exists);

  MapWork expect;
  u64 pages = 0;
  while (twin.insert(hot + pages * kPageSize, kPageSize, expect)) ++pages;
  ASSERT_EQ(pages, 100u);
  for (u64 j = 0; j < pages; ++j) {
    ASSERT_TRUE(twin.remove(hot + j * kPageSize, kPageSize, expect));
  }
  EXPECT_EQ(work.steps, expect.steps);
  EXPECT_EQ(work.rotations, expect.rotations);
  EXPECT_EQ(work.entries_touched, expect.entries_touched);

  EXPECT_EQ(vm.memory_map().entries(), 2u);
  EXPECT_TRUE(vm.memory_map().validate());
  EXPECT_TRUE(vm.translate_gfn(Gfn{0}).ok());
  EXPECT_EQ(vm.translate_gfn(Gfn::of(GuestPaddr{blocker})).value(), Pfn{0});
  EXPECT_FALSE(vm.translate_gfn(Gfn::of(GuestPaddr{hot})).ok()) << "rolled back";

  // The window went back to the hot-plug zone: with the blocker gone, the
  // next map gets the same frames.
  ASSERT_TRUE(vm.memory_map().remove_region(GuestPaddr{blocker}, kPageSize).ok());
  auto again = vm.map_host_frames(host);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().start, Pfn{Gfn::of(GuestPaddr{hot}).value()});
  ASSERT_TRUE(vm.unmap_host_frames(again.value()).ok());
  for (auto e : frames) pm.zone(0).free(e);
}

TEST(PalaciosVm, HotplugRegionIsReusedAfterUnmap) {
  hw::PhysicalMemory pm;
  pm.add_zone(2_GiB);
  PalaciosVm::Config cfg{"vm", 128_MiB, 256_MiB, MapBackend::radix};
  PalaciosVm vm(cfg, pm.zone(0));
  ASSERT_TRUE(vm.init().ok());
  auto fr = pm.zone(0).alloc(64, hw::AllocPolicy::scattered).value();
  const mm::PfnList host(fr);
  for (int round = 0; round < 100; ++round) {
    auto mapped = vm.map_host_frames(host);
    ASSERT_TRUE(mapped.ok());
    ASSERT_TRUE(vm.unmap_host_frames(mapped.value()).ok());
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
