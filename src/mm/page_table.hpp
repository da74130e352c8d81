// x86-64-style 4-level page tables.
//
// Every enclave OS personality manages process address spaces through this
// structure. It is a real radix tree — map/unmap/walk genuinely traverse
// and mutate 512-ary levels — because two XEMEM code paths depend on its
// mechanics (paper section 4.3):
//
//  * PFN-list generation: when an enclave receives a remote attachment
//    request for a segid it owns, it walks the owning process's page
//    tables to produce the list of physical frames backing the region.
//  * Attachment mapping: the attaching enclave installs the received PFN
//    list into the attaching process's page tables using its local OS's
//    mapping routines.
//
// Walk statistics (entries visited, tables allocated/freed) are reported to
// the caller so OS personalities can charge simulated time proportional to
// the structural work actually performed.
//
// Range operations walk to each 512-entry leaf table once and then sweep
// its slots, but charge exactly what the equivalent per-page map/unmap/
// lookup calls would (4 entries visited per 4 KiB page, the same tables
// allocated and freed). On a conflict or a hole they hand the failing page
// to the per-page code, so error-path stats and rollback are those of the
// per-page loop.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace xemem::mm {

/// PTE permission/attribute flags (subset of x86-64).
enum class PageFlags : u64 {
  none = 0,
  writable = 1ull << 1,
  user = 1ull << 2,
};

constexpr PageFlags operator|(PageFlags a, PageFlags b) {
  return static_cast<PageFlags>(static_cast<u64>(a) | static_cast<u64>(b));
}
constexpr bool has_flag(PageFlags set, PageFlags f) {
  return (static_cast<u64>(set) & static_cast<u64>(f)) != 0;
}

/// Decoded view of one present PTE. For a 2 MiB large mapping resolved at
/// a 4 KiB granularity, `pfn` is the frame of the *queried page* (base
/// frame + offset within the large page) and `large` is set.
struct PteView {
  Pfn pfn;
  PageFlags flags;
  bool large{false};
};

/// Counters describing the structural work of one operation; used by the
/// OS personalities to charge simulated time.
struct WalkStats {
  u64 entries_visited{0};   ///< directory + leaf slots touched
  u64 tables_allocated{0};  ///< new paging structures created
  u64 tables_freed{0};      ///< paging structures reclaimed by unmap

  WalkStats& operator+=(const WalkStats& o) {
    entries_visited += o.entries_visited;
    tables_allocated += o.tables_allocated;
    tables_freed += o.tables_freed;
    return *this;
  }
};

class PageTable {
 public:
  PageTable() = default;
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  /// Number of 4 KiB pages covered by one large (2 MiB) mapping.
  static constexpr u64 kLargeSpan = 512;

  /// Install a mapping va -> pfn. Fails with already_exists if va is mapped.
  Result<void> map(Vaddr va, Pfn pfn, PageFlags flags, WalkStats* stats = nullptr);

  /// Install a 2 MiB large-page mapping at level 2. @p va must be 2 MiB
  /// aligned and @p pfn 512-frame aligned; the whole 2 MiB window must be
  /// unmapped. One entry covers 512 base pages — the walk/map cost drops
  /// accordingly (see bench/ablation_large_pages).
  Result<void> map_large(Vaddr va, Pfn pfn, PageFlags flags,
                         WalkStats* stats = nullptr);

  /// Remove a large mapping installed by map_large.
  Result<void> unmap_large(Vaddr va, WalkStats* stats = nullptr);

  /// Map @p count consecutive pages starting at @p va to the given frames.
  Result<void> map_range(Vaddr va, const std::vector<Pfn>& pfns, PageFlags flags,
                         WalkStats* stats = nullptr);

  /// Map pfns in order at @p va, stopping at the first page map() rejects
  /// and keeping what was installed (first-touch fault-in). Returns the
  /// pages mapped; @p stats include the rejected attempt, as a per-page
  /// loop's would.
  u64 map_prefix(Vaddr va, std::span<const Pfn> pfns, PageFlags flags,
                 WalkStats* stats = nullptr);

  /// Like map_range, but uses 2 MiB large mappings wherever the VA and a
  /// 512-frame run of the PFN list are suitably aligned and contiguous,
  /// falling back to 4 KiB pages elsewhere.
  Result<void> map_range_best(Vaddr va, const std::vector<Pfn>& pfns,
                              PageFlags flags, WalkStats* stats = nullptr);

  /// Remove the mapping at @p va, reclaiming empty paging structures.
  Result<void> unmap(Vaddr va, WalkStats* stats = nullptr);

  /// Unmap @p count consecutive pages starting at @p va.
  Result<void> unmap_range(Vaddr va, u64 count, WalkStats* stats = nullptr);

  /// Walk the tree for @p va; nullopt if not present.
  std::optional<PteView> lookup(Vaddr va, WalkStats* stats = nullptr) const;

  /// Generate the PFN list for pages [va, va + count*4K) — the core of
  /// XEMEM's attachment servicing. Every page must be present.
  Result<std::vector<Pfn>> translate_range(Vaddr va, u64 count,
                                           WalkStats* stats = nullptr) const;

  /// Number of present 4 KiB-equivalent mappings (a large mapping counts
  /// as kLargeSpan).
  u64 mapped_pages() const { return mapped_; }
  /// Number of live 2 MiB mappings.
  u64 large_mappings() const { return large_; }
  /// Number of live paging-structure nodes (leak diagnostics).
  u64 table_nodes() const { return nodes_; }

 private:
  // One paging-structure page. Levels 4..2 use children; level 1 uses pte.
  // (Separate leaf/dir types would save memory; a single node type keeps
  // the walk logic uniform and the simulator's footprint is modest.)
  struct Node {
    std::array<std::unique_ptr<Node>, 512> children{};
    std::array<u64, 512> pte{};
    u16 used{0};  // occupied slots at this node
  };

  static constexpr u64 kPresent = 1ull << 0;
  static constexpr u64 kLargeBit = 1ull << 7;  // x86 PS bit position
  static constexpr u64 kPfnShift = 12;

  static u32 index_at(Vaddr va, int level) {
    // level 4 -> bits 39..47, level 1 -> bits 12..20.
    return static_cast<u32>((va.value() >> (kPageShift + 9 * (level - 1))) & 0x1ff);
  }

  /// Entries one 4 KiB map/unmap/lookup visits: one per level.
  static constexpr u64 kLevels = 4;

  /// Walk to the leaf table covering @p va without allocating; if given,
  /// path[l-1] receives the table at level l. nullptr if a table is missing
  /// or a 2 MiB mapping covers @p va.
  Node* find_leaf(Vaddr va, Node** path = nullptr) const;
  /// Walk to the leaf table covering @p va, creating missing tables (counted
  /// in @p st). nullptr if a 2 MiB mapping covers @p va; then nothing was
  /// created.
  Node* make_leaf(Vaddr va, WalkStats& st);
  /// Map pfns[0, n) at @p va leaf by leaf, stopping before the first page
  /// that map() would reject. Returns the pages mapped.
  u64 map_run(Vaddr va, std::span<const Pfn> pfns, PageFlags flags, WalkStats& st);
  /// Unmap the present pages at the front of [va, va + n*4K) inside one
  /// leaf, reclaiming emptied tables as unmap() would. Returns the pages
  /// unmapped (0 if the first page is absent or in a 2 MiB mapping).
  u64 unmap_run(Vaddr va, u64 n, WalkStats& st);
  /// Free the tables on @p path that unmapping left empty (root is kept).
  void reclaim(Vaddr va, Node** path, int from_level, WalkStats& st);

  static u64 encode(Pfn pfn, PageFlags flags) {
    return kPresent | (static_cast<u64>(flags) & 0x6) | (pfn.value() << kPfnShift);
  }
  static PteView decode(u64 pte) {
    return PteView{Pfn{pte >> kPfnShift},
                   static_cast<PageFlags>(pte & 0x6)};
  }

  std::unique_ptr<Node> root_;
  u64 mapped_{0};
  u64 nodes_{0};
  u64 large_{0};
};

}  // namespace xemem::mm
