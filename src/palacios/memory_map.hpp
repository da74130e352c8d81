// The Palacios guest memory map: GPA -> HPA translation.
//
// Palacios tracks each guest's physical address space as a set of entries,
// each mapping a physically contiguous guest region to a physically
// contiguous host region. Normal guest RAM is carved from large host
// blocks, so the map starts tiny; XEMEM attachments of scattered host
// frames add one entry per page (paper section 4.4), and the paper shows
// the resulting red-black-tree inserts dominate guest attach cost
// (section 5.4: 3.99 GB/s with inserts vs 8.79 GB/s without).
//
// Two backends are provided:
//  * MapBackend::rbtree — the shipping Palacios design (RbTree of region
//    entries, O(log n) insert with re-balancing);
//  * MapBackend::radix — the paper's proposed future-work replacement, a
//    page-table-like 512-ary radix keyed by guest frame number with O(4)
//    per-page cost and no re-balancing. `bench/ablation_memory_map`
//    quantifies the difference.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <optional>

#include "common/status.hpp"
#include "common/types.hpp"
#include "mm/pfn_list.hpp"
#include "palacios/rbtree.hpp"

namespace xemem::palacios {

enum class MapBackend { rbtree, radix };

/// Structural work of a memory-map operation (for the VMM's time charge).
struct MapWork {
  u64 steps{0};      ///< node/slot visits
  u64 rotations{0};  ///< rb-tree rotations (0 for radix)
  u64 entries_touched{0};

  MapWork& operator+=(const MapWork& o) {
    steps += o.steps;
    rotations += o.rotations;
    entries_touched += o.entries_touched;
    return *this;
  }
};

class GuestMemoryMap {
  struct Region {
    HostPaddr hpa;
    u64 bytes;
  };

 public:
  /// Lets a run of insert_region() calls at ascending GPAs (rbtree backend)
  /// start each insert from the entry the previous one added instead of
  /// from the root. Results and charges are those of calls without one; an
  /// update of the map made without it costs the next insert a full descent.
  using InsertCursor = RbTree<u64, Region>::Finger;

  /// Lets a run of remove_region() calls at ascending GPAs (rbtree backend)
  /// find each entry where the previous remove left the entry after it,
  /// instead of from the root. Results and charges are those of calls
  /// without one; any other update of the map voids it.
  using RemoveCursor = RbTree<u64, Region>::Successor;

  explicit GuestMemoryMap(MapBackend backend) : backend_(backend) {
    if (backend == MapBackend::radix) radix_root_ = std::make_unique<RadixNode>();
  }

  MapBackend backend() const { return backend_; }

  /// Map guest region [gpa, gpa+bytes) to host region [hpa, hpa+bytes).
  /// Both must be page aligned; the guest range must be unmapped.
  Result<void> insert_region(GuestPaddr gpa, HostPaddr hpa, u64 bytes,
                             MapWork* work = nullptr) {
    InsertCursor run_of_one;
    return insert_region(gpa, hpa, bytes, work, run_of_one);
  }

  /// The same, as the next insert of the run @p cursor follows.
  Result<void> insert_region(GuestPaddr gpa, HostPaddr hpa, u64 bytes, MapWork* work,
                             InsertCursor& cursor);

  /// Remove the mapping of guest region [gpa, gpa+bytes).
  Result<void> remove_region(GuestPaddr gpa, u64 bytes, MapWork* work = nullptr) {
    RemoveCursor run_of_one;
    return remove_region(gpa, bytes, work, run_of_one);
  }

  /// The same, as the next remove of the run @p cursor follows.
  Result<void> remove_region(GuestPaddr gpa, u64 bytes, MapWork* work,
                             RemoveCursor& cursor);

  /// Translate one guest physical address.
  std::optional<HostPaddr> translate(GuestPaddr gpa, MapWork* work = nullptr) const;

  /// Translate a guest frame list to host frames (Figure 4(b) path). The
  /// guest frames are domain frames, held as Pfn like a guest page table's.
  Result<mm::PfnList> translate_frames(const mm::PfnList& gframes,
                                       MapWork* work = nullptr) const;

  /// Number of live map entries (rb-tree nodes / radix leaf slots).
  u64 entries() const { return entries_; }

  /// rb-tree backend only: whether remove_region(@p gpa) takes its entry
  /// from @p cursor instead of descending (the tests count these).
  bool serves(const RemoveCursor& cursor, GuestPaddr gpa) const {
    return backend_ == MapBackend::rbtree && rb_.serves(cursor, gpa.value());
  }

  /// rb-tree backend only: verify the red-black invariants.
  bool validate() const {
    return backend_ == MapBackend::rbtree ? rb_.validate() : true;
  }

 private:
  // ---- radix backend: 4-level 512-ary tree keyed by guest frame number.
  struct RadixNode {
    std::array<std::unique_ptr<RadixNode>, 512> children{};
    std::array<u64, 512> slot{};  // level-1: hpa | present-bit
    u16 used{0};
  };
  static constexpr u64 kPresent = 1;

  static u32 radix_index(Gfn gfn, int level) {
    return static_cast<u32>((gfn.value() >> (9 * (level - 1))) & 0x1ff);
  }

  Result<void> rb_insert(GuestPaddr gpa, HostPaddr hpa, u64 bytes, MapWork* work,
                         InsertCursor& cursor);
  Result<void> radix_insert(GuestPaddr gpa, HostPaddr hpa, u64 bytes, MapWork* work);
  Result<void> rb_remove(GuestPaddr gpa, u64 bytes, MapWork* work, RemoveCursor& cursor);
  Result<void> radix_remove(GuestPaddr gpa, u64 bytes, MapWork* work);
  Result<void> radix_insert_page(Gfn gfn, HostPaddr hpa, MapWork& w);
  Result<void> radix_remove_page(Gfn gfn, MapWork& w);
  std::optional<HostPaddr> radix_translate(GuestPaddr gpa, MapWork& w) const;

  MapBackend backend_;
  RbTree<u64, Region> rb_;  // key: gpa start
  std::unique_ptr<RadixNode> radix_root_;
  u64 entries_{0};
};

inline Result<void> GuestMemoryMap::insert_region(GuestPaddr gpa, HostPaddr hpa,
                                                  u64 bytes, MapWork* work,
                                                  InsertCursor& cursor) {
  if ((gpa.value() | hpa.value() | bytes) & kPageMask) return Errc::invalid_argument;
  if (bytes == 0) return Errc::invalid_argument;
  // One function per backend, so that the rbtree side's inlined tree code
  // does not weigh on each radix page insert.
  return backend_ == MapBackend::rbtree ? rb_insert(gpa, hpa, bytes, work, cursor)
                                        : radix_insert(gpa, hpa, bytes, work);
}

inline Result<void> GuestMemoryMap::rb_insert(GuestPaddr gpa, HostPaddr hpa, u64 bytes,
                                              MapWork* work, InsertCursor& cursor) {
  // Overlap check: the floor of the region's last byte must end at or
  // before gpa. Then no key lies inside the region, so insert(gpa) would
  // descend to the probe's nil slot; link there and charge that walk as
  // the insert's descent.
  MapWork w;
  const auto s = rb_.seek(gpa.value() + bytes - 1, cursor);
  w.steps += s.steps();
  if (s.key() != nullptr && *s.key() + s.value()->bytes > gpa.value()) {
    if (work) *work += w;
    return Errc::already_exists;
  }
  RbOpStats ins;
  rb_.link(s, gpa.value(), Region{hpa, bytes}, cursor, &ins);
  w.steps += ins.nodes_visited + ins.recolorings;
  w.rotations += ins.rotations;
  w.entries_touched += 1;
  ++entries_;
  if (work) *work += w;
  return {};
}

inline Result<void> GuestMemoryMap::radix_insert(GuestPaddr gpa, HostPaddr hpa, u64 bytes,
                                                 MapWork* work) {
  MapWork w;
  const u64 pages = bytes >> kPageShift;
  for (u64 i = 0; i < pages; ++i) {
    auto r = radix_insert_page(Gfn::of(gpa + i * kPageSize), hpa + i * kPageSize, w);
    if (!r.ok()) {
      // Roll back prior pages of this call.
      for (u64 j = 0; j < i; ++j) {
        (void)radix_remove_page(Gfn::of(gpa + j * kPageSize), w);
      }
      if (work) *work += w;
      return r;
    }
  }
  if (work) *work += w;
  return {};
}

inline Result<void> GuestMemoryMap::remove_region(GuestPaddr gpa, u64 bytes,
                                                  MapWork* work, RemoveCursor& cursor) {
  if ((gpa.value() | bytes) & kPageMask) return Errc::invalid_argument;
  // One function per backend, as for inserts.
  return backend_ == MapBackend::rbtree ? rb_remove(gpa, bytes, work, cursor)
                                        : radix_remove(gpa, bytes, work);
}

// Out of line: inlined, the tree code made remove_region() too big to be
// inlined into a window's page loop, and every radix page paid for a call.
[[gnu::noinline]] inline Result<void> GuestMemoryMap::rb_remove(GuestPaddr gpa, u64 bytes,
                                                                MapWork* work,
                                                                RemoveCursor& cursor) {
  // The lookup's descent, or the cursor's depth in its place, also serves
  // the erase, which counts it again.
  MapWork w;
  const auto hit = rb_.locate(gpa.value(), cursor);
  w.steps += hit.steps();
  if (hit.value() == nullptr || hit.value()->bytes != bytes) {
    if (work) *work += w;
    return Errc::invalid_argument;
  }
  RbOpStats er;
  rb_.erase_at(hit, &cursor, &er);
  w.steps += er.nodes_visited + er.recolorings;
  w.rotations += er.rotations;
  w.entries_touched += 1;
  --entries_;
  if (work) *work += w;
  return {};
}

inline Result<void> GuestMemoryMap::radix_remove(GuestPaddr gpa, u64 bytes, MapWork* work) {
  MapWork w;
  const u64 pages = bytes >> kPageShift;
  for (u64 i = 0; i < pages; ++i) {
    auto r = radix_remove_page(Gfn::of(gpa + i * kPageSize), w);
    if (!r.ok()) {
      if (work) *work += w;
      return r;
    }
  }
  if (work) *work += w;
  return {};
}

inline std::optional<HostPaddr> GuestMemoryMap::translate(GuestPaddr gpa,
                                                          MapWork* work) const {
  MapWork w;
  std::optional<HostPaddr> out;
  if (backend_ == MapBackend::rbtree) {
    RbOpStats st;
    auto [k, v] = const_cast<RbTree<u64, Region>&>(rb_).floor(gpa.value(), &st);
    w.steps += st.nodes_visited;
    if (k != nullptr && gpa.value() < *k + v->bytes) {
      out = v->hpa + (gpa.value() - *k);
    }
  } else {
    out = radix_translate(gpa, w);
  }
  if (work) *work += w;
  return out;
}

inline Result<mm::PfnList> GuestMemoryMap::translate_frames(
    const mm::PfnList& gframes, MapWork* work) const {
  mm::PfnList out;
  if (backend_ == MapBackend::radix) {
    for (const auto& run : gframes.runs()) {
      for (u64 k = 0; k < run.count; ++k) {
        auto hpa = translate(Gfn{run.start.value() + k}.paddr(), work);
        if (!hpa) return Errc::invalid_argument;
        out.push_back(Pfn::of(*hpa));
      }
    }
    return out;
  }
  // Every address inside one region compares the same way against every
  // key in the tree, so its floor() descends the same path: walk once per
  // region and charge that walk's steps to each page translated through it.
  MapWork w;
  u64 start = 0;
  u64 end = 0;  // [start, end) is the region last walked to; empty at first
  HostPaddr hpa{0};
  u64 steps = 0;
  for (const auto& run : gframes.runs()) {
    u64 gpa = Gfn{run.start.value()}.paddr().value();
    const u64 run_end = gpa + run.count * kPageSize;
    while (gpa < run_end) {
      if (gpa < start || gpa >= end) {
        RbOpStats st;
        auto [k, v] = const_cast<RbTree<u64, Region>&>(rb_).floor(gpa, &st);
        steps = st.nodes_visited;
        if (k == nullptr || gpa >= *k + v->bytes) {
          w.steps += steps;
          if (work) *work += w;
          return Errc::invalid_argument;
        }
        start = *k;
        end = *k + v->bytes;
        hpa = v->hpa;
      }
      // The pages of this run inside the region: one host run.
      const u64 pages = (std::min(run_end, end) - gpa) >> kPageShift;
      w.steps += steps * pages;
      out.append(hw::FrameExtent{Pfn::of(hpa + (gpa - start)), pages});
      gpa += pages * kPageSize;
    }
  }
  if (work) *work += w;
  return out;
}

inline Result<void> GuestMemoryMap::radix_insert_page(Gfn gfn, HostPaddr hpa,
                                                      MapWork& w) {
  RadixNode* node = radix_root_.get();
  for (int level = 4; level >= 2; --level) {
    ++w.steps;
    auto& child = node->children[radix_index(gfn, level)];
    if (!child) {
      child = std::make_unique<RadixNode>();
      ++node->used;
    }
    node = child.get();
  }
  ++w.steps;
  u64& slot = node->slot[radix_index(gfn, 1)];
  if (slot & kPresent) return Errc::already_exists;
  slot = hpa.value() | kPresent;
  ++node->used;
  ++entries_;
  ++w.entries_touched;
  return {};
}

inline Result<void> GuestMemoryMap::radix_remove_page(Gfn gfn, MapWork& w) {
  RadixNode* node = radix_root_.get();
  for (int level = 4; level >= 2 && node; --level) {
    ++w.steps;
    node = node->children[radix_index(gfn, level)].get();
  }
  if (!node) return Errc::invalid_argument;
  ++w.steps;
  u64& slot = node->slot[radix_index(gfn, 1)];
  if (!(slot & kPresent)) return Errc::invalid_argument;
  slot = 0;
  --node->used;
  --entries_;
  ++w.entries_touched;
  // Interior nodes are retained (as real radix page tables usually do);
  // entry accounting is what the ablation measures.
  return {};
}

inline std::optional<HostPaddr> GuestMemoryMap::radix_translate(GuestPaddr gpa,
                                                                MapWork& w) const {
  const Gfn gfn = Gfn::of(gpa);
  const RadixNode* node = radix_root_.get();
  for (int level = 4; level >= 2 && node; --level) {
    ++w.steps;
    node = node->children[radix_index(gfn, level)].get();
  }
  if (!node) return std::nullopt;
  ++w.steps;
  const u64 slot = node->slot[radix_index(gfn, 1)];
  if (!(slot & kPresent)) return std::nullopt;
  return HostPaddr{(slot & ~kPresent) | (gpa.value() & kPageMask)};
}

}  // namespace xemem::palacios
