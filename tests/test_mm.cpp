// Tests for the 4-level page-table implementation and PFN lists, including
// the map/translate round-trip property XEMEM's attach path depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "mm/page_table.hpp"
#include "mm/pfn_list.hpp"

namespace xemem::mm {
namespace {

// A PfnList holding @p pfns in order, appended page by page.
PfnList list_of(const std::vector<Pfn>& pfns) {
  PfnList l;
  for (Pfn p : pfns) l.push_back(p);
  return l;
}

// The per-page expansion of @p l.
std::vector<Pfn> flat(const PfnList& l) {
  std::vector<Pfn> out;
  for (const auto& r : l.runs()) {
    for (u64 k = 0; k < r.count; ++k) out.push_back(r.start + k);
  }
  return out;
}

TEST(PageTable, MapThenLookup) {
  PageTable pt;
  ASSERT_TRUE(pt.map(Vaddr{0x1000}, Pfn{42}, PageFlags::writable).ok());
  auto pte = pt.lookup(Vaddr{0x1000});
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->pfn, Pfn{42});
  EXPECT_TRUE(has_flag(pte->flags, PageFlags::writable));
  EXPECT_EQ(pt.mapped_pages(), 1u);
}

TEST(PageTable, LookupOfUnmappedIsEmpty) {
  PageTable pt;
  EXPECT_FALSE(pt.lookup(Vaddr{0x2000}).has_value());
  ASSERT_TRUE(pt.map(Vaddr{0x1000}, Pfn{1}, PageFlags::none).ok());
  EXPECT_FALSE(pt.lookup(Vaddr{0x2000}).has_value());
  // Same L1 table, different slot.
  EXPECT_FALSE(pt.lookup(Vaddr{0x0}).has_value());
}

TEST(PageTable, DoubleMapFails) {
  PageTable pt;
  ASSERT_TRUE(pt.map(Vaddr{0x5000}, Pfn{1}, PageFlags::none).ok());
  auto r = pt.map(Vaddr{0x5000}, Pfn{2}, PageFlags::none);
  EXPECT_EQ(r.error(), Errc::already_exists);
  EXPECT_EQ(pt.lookup(Vaddr{0x5000})->pfn, Pfn{1});
}

TEST(PageTable, MisalignedAddressRejected) {
  PageTable pt;
  EXPECT_EQ(pt.map(Vaddr{0x1001}, Pfn{1}, PageFlags::none).error(),
            Errc::invalid_argument);
  EXPECT_EQ(pt.unmap(Vaddr{0x123}).error(), Errc::invalid_argument);
}

TEST(PageTable, UnmapReclaimsEmptyTables) {
  PageTable pt;
  ASSERT_TRUE(pt.map(Vaddr{0x1000}, Pfn{7}, PageFlags::none).ok());
  const u64 nodes_with_mapping = pt.table_nodes();
  EXPECT_EQ(nodes_with_mapping, 4u);  // L4..L1 chain
  ASSERT_TRUE(pt.unmap(Vaddr{0x1000}).ok());
  EXPECT_EQ(pt.mapped_pages(), 0u);
  EXPECT_EQ(pt.table_nodes(), 1u) << "only the root should survive";
  EXPECT_FALSE(pt.lookup(Vaddr{0x1000}).has_value());
}

TEST(PageTable, UnmapOfUnmappedFails) {
  PageTable pt;
  EXPECT_EQ(pt.unmap(Vaddr{0x4000}).error(), Errc::not_attached);
}

TEST(PageTable, HighCanonicalishAddresses) {
  PageTable pt;
  const Vaddr hi{0x00007fffffffe000ull};  // top of the user half
  ASSERT_TRUE(pt.map(hi, Pfn{99}, PageFlags::user).ok());
  auto pte = pt.lookup(hi);
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->pfn, Pfn{99});
  EXPECT_TRUE(has_flag(pte->flags, PageFlags::user));
}

TEST(PageTable, MapRangeRollsBackOnConflict) {
  PageTable pt;
  ASSERT_TRUE(pt.map(Vaddr{0x3000}, Pfn{50}, PageFlags::none).ok());
  const PfnList frames = list_of({Pfn{1}, Pfn{2}, Pfn{3}});
  auto r = pt.map_range(Vaddr{0x1000}, frames, PageFlags::none);  // hits 0x3000
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(pt.mapped_pages(), 1u) << "partial range must be rolled back";
  EXPECT_TRUE(pt.lookup(Vaddr{0x3000}).has_value());
  EXPECT_FALSE(pt.lookup(Vaddr{0x1000}).has_value());
}

TEST(PageTable, TranslateRangeGeneratesPfnListInOrder) {
  PageTable pt;
  std::vector<Pfn> pfns{Pfn{10}, Pfn{300}, Pfn{7}, Pfn{8}};
  ASSERT_TRUE(pt.map_range(Vaddr{0x10000}, list_of(pfns), PageFlags::writable).ok());
  auto r = pt.translate_range(Vaddr{0x10000}, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(flat(r.value()), pfns);
  EXPECT_EQ(r.value().run_count(), 3u) << "7, 8 is one run";
}

TEST(PageTable, TranslateRangeWithHoleFails) {
  PageTable pt;
  ASSERT_TRUE(pt.map(Vaddr{0x1000}, Pfn{1}, PageFlags::none).ok());
  ASSERT_TRUE(pt.map(Vaddr{0x3000}, Pfn{3}, PageFlags::none).ok());
  EXPECT_FALSE(pt.translate_range(Vaddr{0x1000}, 3).ok());
}

TEST(PageTable, WalkStatsCountStructuralWork) {
  PageTable pt;
  WalkStats st;
  ASSERT_TRUE(pt.map(Vaddr{0x1000}, Pfn{1}, PageFlags::none, &st).ok());
  EXPECT_EQ(st.entries_visited, 4u);
  EXPECT_EQ(st.tables_allocated, 4u);
  WalkStats st2;
  ASSERT_TRUE(pt.map(Vaddr{0x2000}, Pfn{2}, PageFlags::none, &st2).ok());
  EXPECT_EQ(st2.tables_allocated, 0u) << "same L1 table reused";
}

// Property: map a random set of pages, then translate_range over each run
// reproduces exactly the frames mapped (the attach-path invariant), and a
// full unmap returns the tree to just the root.
TEST(PageTableProperty, MapTranslateUnmapRoundTrip) {
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    PageTable pt;
    const u64 count = 1 + rng.uniform_u64(500);
    const Vaddr base{(1 + rng.uniform_u64(1000)) * 0x200000ull};
    std::vector<Pfn> pfns;
    for (u64 i = 0; i < count; ++i) pfns.push_back(Pfn{rng.uniform_u64(1 << 20)});
    ASSERT_TRUE(pt.map_range(base, list_of(pfns), PageFlags::writable).ok());
    EXPECT_EQ(pt.mapped_pages(), count);
    auto got = pt.translate_range(base, count);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(flat(got.value()), pfns);
    ASSERT_TRUE(pt.unmap_range(base, count).ok());
    EXPECT_EQ(pt.mapped_pages(), 0u);
    EXPECT_LE(pt.table_nodes(), 1u);
  }
}

// Property: sparse random single mappings behave like a std::map oracle.
TEST(PageTableProperty, DifferentialAgainstMapOracle) {
  Rng rng(23);
  PageTable pt;
  std::map<u64, u64> oracle;
  for (int step = 0; step < 2000; ++step) {
    const Vaddr va{rng.uniform_u64(1 << 16) << kPageShift};
    const double dice = rng.uniform();
    if (dice < 0.5) {
      const Pfn pfn{1 + rng.uniform_u64(1 << 30)};
      auto r = pt.map(va, pfn, PageFlags::none);
      if (oracle.contains(va.value())) {
        EXPECT_EQ(r.error(), Errc::already_exists);
      } else {
        EXPECT_TRUE(r.ok());
        oracle[va.value()] = pfn.value();
      }
    } else if (dice < 0.75) {
      auto r = pt.unmap(va);
      EXPECT_EQ(r.ok(), oracle.erase(va.value()) == 1);
    } else {
      auto pte = pt.lookup(va);
      auto it = oracle.find(va.value());
      ASSERT_EQ(pte.has_value(), it != oracle.end());
      if (pte) {
        EXPECT_EQ(pte->pfn.value(), it->second);
      }
    }
  }
  EXPECT_EQ(pt.mapped_pages(), oracle.size());
}

// ---------------------------------------------- range ops vs per-page twin

// The per-page loops the range operations replaced, driven through the
// public single-page calls. A range operation must charge exactly what
// these charge, on success and on every error path.
Result<void> twin_map_range(PageTable& pt, Vaddr va, const std::vector<Pfn>& pfns,
                            PageFlags flags, WalkStats* st) {
  for (u64 i = 0; i < pfns.size(); ++i) {
    auto r = pt.map(va + i * kPageSize, pfns[i], flags, st);
    if (!r.ok()) {
      for (u64 j = 0; j < i; ++j) (void)pt.unmap(va + j * kPageSize, st);
      return r;
    }
  }
  return {};
}

u64 twin_map_prefix(PageTable& pt, Vaddr va, const std::vector<Pfn>& pfns,
                    PageFlags flags, WalkStats* st) {
  u64 i = 0;
  while (i < pfns.size() && pt.map(va + i * kPageSize, pfns[i], flags, st).ok()) ++i;
  return i;
}

Result<void> twin_unmap_range(PageTable& pt, Vaddr va, u64 count, WalkStats* st) {
  constexpr u64 kSpan = PageTable::kLargeSpan;
  u64 done = 0;
  while (done < count) {
    const Vaddr cur = va + done * kPageSize;
    auto view = pt.lookup(cur, nullptr);
    if (view && view->large) {
      if (cur.value() % (kSpan * kPageSize) != 0 || count - done < kSpan) {
        return Errc::invalid_argument;
      }
      auto r = pt.unmap_large(cur, st);
      if (!r.ok()) return r;
      done += kSpan;
      continue;
    }
    auto r = pt.unmap(cur, st);
    if (!r.ok()) return r;
    ++done;
  }
  return {};
}

Result<std::vector<Pfn>> twin_translate_range(const PageTable& pt, Vaddr va, u64 count,
                                              WalkStats* st) {
  constexpr u64 kSpan = PageTable::kLargeSpan;
  if ((va.value() & kPageMask) != 0) return Errc::invalid_argument;
  std::vector<Pfn> out;
  u64 i = 0;
  while (i < count) {
    auto pte = pt.lookup(va + i * kPageSize, st);
    if (!pte) return Errc::invalid_argument;
    if (pte->large) {
      const u64 off = ((va.value() >> kPageShift) + i) & (kSpan - 1);
      const u64 run = std::min(count - i, kSpan - off);
      for (u64 k = 0; k < run; ++k) out.push_back(pte->pfn + k);
      i += run;
    } else {
      out.push_back(pte->pfn);
      ++i;
    }
  }
  return out;
}

Result<void> twin_map_range_best(PageTable& pt, Vaddr va, const std::vector<Pfn>& pfns,
                                 PageFlags flags, WalkStats* st) {
  constexpr u64 kSpan = PageTable::kLargeSpan;
  u64 i = 0;
  while (i < pfns.size()) {
    const Vaddr cur = va + i * kPageSize;
    bool large = cur.value() % (kSpan * kPageSize) == 0 &&
                 pfns[i].value() % kSpan == 0 && pfns.size() - i >= kSpan;
    for (u64 k = 1; k < kSpan && large; ++k) large = pfns[i + k] == pfns[i] + k;
    auto r = large ? pt.map_large(cur, pfns[i], flags, st)
                   : pt.map(cur, pfns[i], flags, st);
    if (!r.ok()) {
      (void)twin_unmap_range(pt, va, i, st);
      return r;
    }
    i += large ? kSpan : 1;
  }
  return {};
}

bool same_stats(const WalkStats& a, const WalkStats& b) {
  return a.entries_visited == b.entries_visited &&
         a.tables_allocated == b.tables_allocated && a.tables_freed == b.tables_freed;
}

// Differential: random ranges that straddle leaf tables, 2 MiB windows and
// a 1 GiB (level-3) boundary, over tables seeded with single-page conflicts,
// holes and 2 MiB mappings. Every range operation must return what its
// per-page twin returns and charge identical WalkStats, leaving identical
// mapped_pages() and table_nodes().
TEST(PageTableDifferential, RangeOpsMatchPerPageTwin) {
  constexpr u64 kSpan = PageTable::kLargeSpan;
  constexpr u64 kWindowPages = 6 * kSpan;
  const Vaddr base{(1ull << 30) - 2 * kSpan * kPageSize};  // straddles 1 GiB
  Rng rng(1606);
  PageTable fast;
  PageTable twin;
  u64 range_ok = 0;
  u64 range_failed = 0;
  auto random_pfns = [&](u64 n) {
    std::vector<Pfn> pfns;
    const double shape = rng.uniform();
    if (shape < 0.3) {  // an aligned contiguous run: 2 MiB candidates
      const u64 start = (1 + rng.uniform_u64(64)) * kSpan;
      for (u64 i = 0; i < n; ++i) pfns.push_back(Pfn{start + i});
    } else if (shape < 0.5) {
      // Runs of 1..700 frames, half starting 512-aligned: run ends fall
      // inside leaves and 2 MiB windows, some runs hold a 2 MiB candidate.
      while (pfns.size() < n) {
        const u64 start = (1 + rng.uniform_u64(1u << 14)) *
                          (rng.uniform() < 0.5 ? kSpan : 1);
        const u64 len = std::min<u64>(1 + rng.uniform_u64(700), n - pfns.size());
        for (u64 i = 0; i < len; ++i) pfns.push_back(Pfn{start + i});
      }
    } else {
      for (u64 i = 0; i < n; ++i) pfns.push_back(Pfn{1 + rng.uniform_u64(1u << 24)});
    }
    return pfns;
  };
  std::vector<std::pair<Vaddr, u64>> live;  // ranges a range op mapped
  for (int step = 0; step < 4000; ++step) {
    const u64 first = rng.uniform_u64(kWindowPages);
    const u64 cap = rng.uniform() < 0.5 ? 64 : 1100;
    const u64 max_len = std::min<u64>(kWindowPages - first, cap);
    u64 len = 1 + rng.uniform_u64(max_len);
    Vaddr va = base + first * kPageSize;
    // Large-window ranges start on a 2 MiB boundary now and then.
    if (rng.uniform() < 0.2) va = Vaddr{va.value() & ~(kSpan * kPageSize - 1)};
    // Unmaps and translates mostly revisit a range mapped earlier.
    const bool revisit = !live.empty() && rng.uniform() < 0.6;
    u64 revisit_at = 0;
    if (revisit) {
      revisit_at = rng.uniform_u64(live.size());
      std::tie(va, len) = live[revisit_at];
    }
    if (rng.uniform() < 0.01) va = va + 8;  // misaligned: rejected at page 0
    WalkStats fs;
    WalkStats ts;
    const double dice = rng.uniform();
    if (dice < 0.04) {
      // Seed a conflict page.
      const Pfn pfn{1 + rng.uniform_u64(1u << 20)};
      ASSERT_EQ(fast.map(va, pfn, PageFlags::none, &fs).error(),
                twin.map(va, pfn, PageFlags::none, &ts).error());
    } else if (dice < 0.08) {
      // Punch a hole.
      ASSERT_EQ(fast.unmap(va, &fs).error(), twin.unmap(va, &ts).error());
    } else if (dice < 0.11) {
      const Vaddr w{va.value() & ~(kSpan * kPageSize - 1)};
      const Pfn pfn{(1 + rng.uniform_u64(64)) * kSpan};
      ASSERT_EQ(fast.map_large(w, pfn, PageFlags::writable, &fs).error(),
                twin.map_large(w, pfn, PageFlags::writable, &ts).error());
    } else if (dice < 0.31) {
      const auto pfns = random_pfns(len);
      const auto r = fast.map_range(va, list_of(pfns), PageFlags::writable, &fs);
      ASSERT_EQ(r.error(),
                twin_map_range(twin, va, pfns, PageFlags::writable, &ts).error());
      ++(r.ok() ? range_ok : range_failed);
      if (r.ok()) live.emplace_back(va, len);
    } else if (dice < 0.43) {
      const auto pfns = random_pfns(len);
      const auto r = fast.map_range_best(va, list_of(pfns), PageFlags::writable, &fs);
      ASSERT_EQ(r.error(),
                twin_map_range_best(twin, va, pfns, PageFlags::writable, &ts).error());
      ++(r.ok() ? range_ok : range_failed);
      if (r.ok()) live.emplace_back(va, len);
    } else if (dice < 0.50) {
      const auto pfns = random_pfns(len);
      ASSERT_EQ(fast.map_prefix(va, list_of(pfns), PageFlags::user, &fs),
                twin_map_prefix(twin, va, pfns, PageFlags::user, &ts));
    } else if (dice < 0.75) {
      const auto r = fast.unmap_range(va, len, &fs);
      ASSERT_EQ(r.error(), twin_unmap_range(twin, va, len, &ts).error());
      ++(r.ok() ? range_ok : range_failed);
      if (revisit) {
        live[revisit_at] = live.back();
        live.pop_back();
      }
    } else {
      const auto got = fast.translate_range(va, len, &fs);
      const auto want = twin_translate_range(twin, va, len, &ts);
      ASSERT_EQ(got.ok(), want.ok());
      // Equal lists, and maximal runs: list_of builds those.
      if (got.ok()) {
        ASSERT_EQ(got.value(), list_of(want.value()));
      }
      ++(got.ok() ? range_ok : range_failed);
    }
    ASSERT_TRUE(same_stats(fs, ts))
        << "step " << step << ": visited " << fs.entries_visited << " vs "
        << ts.entries_visited << ", allocated " << fs.tables_allocated << " vs "
        << ts.tables_allocated << ", freed " << fs.tables_freed << " vs "
        << ts.tables_freed;
    ASSERT_EQ(fast.mapped_pages(), twin.mapped_pages()) << "step " << step;
    ASSERT_EQ(fast.table_nodes(), twin.table_nodes()) << "step " << step;
    ASSERT_EQ(fast.large_mappings(), twin.large_mappings()) << "step " << step;
  }
  // Same contents page by page.
  for (u64 i = 0; i < kWindowPages; ++i) {
    const auto a = fast.lookup(base + i * kPageSize);
    const auto b = twin.lookup(base + i * kPageSize);
    ASSERT_EQ(a.has_value(), b.has_value()) << "page " << i;
    if (a) {
      ASSERT_EQ(a->pfn, b->pfn) << "page " << i;
    }
  }
  // Both outcomes were exercised often enough to mean something.
  EXPECT_GT(range_ok, 300u);
  EXPECT_GT(range_failed, 300u);
}

// ----------------------------------------------------------------- PfnList

TEST(PfnList, WireBytesAre8PerEntry) {
  const PfnList l = list_of({Pfn{1}, Pfn{2}, Pfn{9}});
  EXPECT_EQ(l.wire_bytes(), 24u);
  EXPECT_EQ(l.byte_span(), 3 * kPageSize);
}

TEST(PfnList, ContiguousRunCompressesToOneExtent) {
  PfnList l;
  for (u64 i = 100; i < 612; ++i) l.push_back(Pfn{i});
  ASSERT_EQ(l.run_count(), 1u);
  EXPECT_EQ(l.runs()[0], (hw::FrameExtent{Pfn{100}, 512}));
}

TEST(PfnList, ScatteredListStaysPerPage) {
  PfnList l;
  for (u64 i = 0; i < 64; ++i) l.push_back(Pfn{i * 2});  // all gaps
  EXPECT_EQ(l.run_count(), 64u);
}

// Property: a list built from frames and chunks (some continuing the last
// run) matches a flat per-page oracle. Its runs are maximal; per-page
// expansion, at() and slices across run boundaries equal the oracle's;
// the wire charges are 8 B per page flat and 12 B per maximal run. Covers
// random lists and the degenerate shapes: empty, single page, contiguous
// and alternating gap-per-page.
TEST(PfnList, RunsMatchFlatOracleProperty) {
  Rng rng(7);
  auto check = [&](const PfnList& l, const std::vector<Pfn>& oracle) {
    ASSERT_EQ(flat(l), oracle);
    EXPECT_EQ(l.page_count(), oracle.size());
    EXPECT_EQ(l.byte_span(), oracle.size() * kPageSize);
    u64 breaks = 0;
    for (size_t i = 0; i < oracle.size(); ++i) {
      if (i == 0 || oracle[i - 1] + 1 != oracle[i]) ++breaks;
      ASSERT_EQ(l.at(i), oracle[i]);
    }
    EXPECT_EQ(l.run_count(), breaks) << "runs must be maximal";
    for (const auto& r : l.runs()) EXPECT_GT(r.count, 0u);
    EXPECT_EQ(l.wire_bytes(), oracle.size() * 8);
    EXPECT_EQ(l.extent_wire_bytes(), breaks * PfnList::kExtentWireBytes);
    EXPECT_EQ(PfnList(l.runs()), l);
    for (int s = 0; s < 8; ++s) {
      const u64 first = rng.uniform_u64(oracle.size() + 1);
      const u64 count = rng.uniform_u64(oracle.size() - first + 1);
      const std::vector<Pfn> want(oracle.begin() + static_cast<long>(first),
                                  oracle.begin() + static_cast<long>(first + count));
      ASSERT_EQ(l.slice(first, count), list_of(want))
          << "slice(" << first << ", " << count << ")";
    }
  };

  for (int trial = 0; trial < 200; ++trial) {
    PfnList l;
    std::vector<hw::FrameExtent> chunks;
    std::vector<Pfn> oracle;
    u64 next = rng.uniform_u64(1 << 20);
    const u64 n = rng.uniform_u64(40);
    for (u64 c = 0; c < n; ++c) {
      // 40% of chunks continue the last run; the rest jump.
      if (rng.uniform() >= 0.4) next += 1 + rng.uniform_u64(1000);
      const hw::FrameExtent chunk{Pfn{next}, 1 + rng.uniform_u64(20)};
      if (rng.uniform() < 0.5) {
        l.append(chunk);
      } else {
        for (u64 k = 0; k < chunk.count; ++k) l.push_back(chunk.start + k);
      }
      chunks.push_back(chunk);
      for (u64 k = 0; k < chunk.count; ++k) oracle.push_back(chunk.start + k);
      next += chunk.count;
    }
    check(l, oracle);
    EXPECT_EQ(PfnList(chunks), l);
  }

  check(PfnList{}, {});
  EXPECT_EQ(PfnList{}.extent_wire_bytes(), 0u);

  check(list_of({Pfn{77}}), {Pfn{77}});

  PfnList contiguous;  // four adjacent chunks: one run
  std::vector<Pfn> contiguous_oracle;
  for (u64 c = 0; c < 4; ++c) {
    contiguous.append(hw::FrameExtent{Pfn{5000 + 256 * c}, 256});
  }
  for (u64 i = 0; i < 1024; ++i) contiguous_oracle.push_back(Pfn{5000 + i});
  check(contiguous, contiguous_oracle);
  EXPECT_EQ(contiguous.run_count(), 1u);
  EXPECT_LT(contiguous.extent_wire_bytes(), contiguous.wire_bytes());

  // Alternating: every page its own run — the shape where the extent
  // encoding (12 B/run) is strictly worse than flat (8 B/page).
  std::vector<Pfn> alternating;
  for (u64 i = 0; i < 64; ++i) alternating.push_back(Pfn{i * 2});
  check(list_of(alternating), alternating);
  EXPECT_GT(list_of(alternating).extent_wire_bytes(), list_of(alternating).wire_bytes());
}

TEST(PfnList, SliceCopiesWindow) {
  PfnList l;
  for (u64 i = 0; i < 100; ++i) l.push_back(Pfn{i * 3});
  const PfnList w = l.slice(10, 5);
  ASSERT_EQ(w.page_count(), 5u);
  for (u64 i = 0; i < 5; ++i) EXPECT_EQ(w.at(i), Pfn{(10 + i) * 3});
  EXPECT_EQ(l.slice(0, 100), l);
  EXPECT_EQ(l.slice(99, 1).at(0), Pfn{99 * 3});
}

}  // namespace
}  // namespace xemem::mm
