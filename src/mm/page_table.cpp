#include "mm/page_table.hpp"

#include <algorithm>

namespace xemem::mm {

Result<void> PageTable::map(Vaddr va, Pfn pfn, PageFlags flags, WalkStats* stats) {
  if ((va.value() & kPageMask) != 0) return Errc::invalid_argument;
  WalkStats local;
  Node* leaf = make_leaf(va, local);
  // A 2 MiB mapping already covering the window ends the walk at level 2.
  local.entries_visited += leaf ? kLevels : kLevels - 1;
  Result<void> r = Errc::already_exists;
  if (leaf && !(leaf->pte[index_at(va, 1)] & kPresent)) {
    leaf->pte[index_at(va, 1)] = encode(pfn, flags);
    ++leaf->used;
    ++mapped_;
    r = {};
  }
  if (stats) *stats += local;
  return r;
}

Result<void> PageTable::map_large(Vaddr va, Pfn pfn, PageFlags flags,
                                  WalkStats* stats) {
  constexpr u64 kLargeBytes = kLargeSpan * kPageSize;
  if (va.value() % kLargeBytes != 0 || pfn.value() % kLargeSpan != 0) {
    return Errc::invalid_argument;
  }
  WalkStats local;
  if (!root_) {
    root_ = std::make_unique<Node>();
    ++nodes_;
    ++local.tables_allocated;
  }
  Node* node = root_.get();
  for (int level = 4; level >= 3; --level) {
    const u32 idx = index_at(va, level);
    ++local.entries_visited;
    auto& child = node->children[idx];
    if (!child) {
      child = std::make_unique<Node>();
      ++node->used;
      ++nodes_;
      ++local.tables_allocated;
    }
    node = child.get();
  }
  const u32 idx = index_at(va, 2);
  ++local.entries_visited;
  if ((node->pte[idx] & kPresent) || node->children[idx]) {
    // Already a large mapping, or 4 KiB mappings exist inside the window.
    if (stats) *stats += local;
    return Errc::already_exists;
  }
  node->pte[idx] = encode(pfn, flags) | kLargeBit;
  ++node->used;
  mapped_ += kLargeSpan;
  ++large_;
  if (stats) *stats += local;
  return {};
}

PageTable::Node* PageTable::find_leaf(Vaddr va, Node** path) const {
  Node* node = root_.get();
  for (int level = 4; level >= 2 && node; --level) {
    if (path) path[level - 1] = node;
    const u32 idx = index_at(va, level);
    if (level == 2 && (node->pte[idx] & kPresent)) return nullptr;
    node = node->children[idx].get();
  }
  if (path) path[0] = node;
  return node;
}

PageTable::Node* PageTable::make_leaf(Vaddr va, WalkStats& st) {
  if (!root_) {
    root_ = std::make_unique<Node>();
    ++nodes_;
    ++st.tables_allocated;
  }
  Node* node = root_.get();
  for (int level = 4; level >= 2; --level) {
    const u32 idx = index_at(va, level);
    // A 2 MiB mapping implies every table above it exists: nothing was
    // created on the way down.
    if (level == 2 && (node->pte[idx] & kPresent)) return nullptr;
    auto& child = node->children[idx];
    if (!child) {
      child = std::make_unique<Node>();
      ++node->used;
      ++nodes_;
      ++st.tables_allocated;
    }
    node = child.get();
  }
  return node;
}

u64 PageTable::map_run(Vaddr va, std::span<const Pfn> pfns, PageFlags flags,
                       WalkStats& st) {
  if ((va.value() & kPageMask) != 0) return 0;
  u64 done = 0;
  while (done < pfns.size()) {
    const Vaddr cur = va + done * kPageSize;
    Node* leaf = make_leaf(cur, st);
    if (!leaf) break;
    // A taken slot means the leaf already existed, so make_leaf created
    // nothing that the per-page map() of the prefix would not have.
    const u32 first = index_at(cur, 1);
    const u64 n = std::min<u64>(pfns.size() - done, kLargeSpan - first);
    u64 k = 0;
    for (; k < n && !(leaf->pte[first + k] & kPresent); ++k) {
      leaf->pte[first + k] = encode(pfns[done + k], flags);
    }
    leaf->used = static_cast<u16>(leaf->used + k);
    mapped_ += k;
    st.entries_visited += kLevels * k;
    done += k;
    if (k < n) break;
  }
  return done;
}

Result<void> PageTable::map_range(Vaddr va, const std::vector<Pfn>& pfns,
                                  PageFlags flags, WalkStats* stats) {
  WalkStats local;
  const u64 done = map_run(va, pfns, flags, local);
  Result<void> r;
  if (done < pfns.size()) {
    r = map(va + done * kPageSize, pfns[done], flags, &local);
    // Roll back the partial mapping so failures leave no residue.
    for (u64 j = 0; j < done; ++j) (void)unmap(va + j * kPageSize, &local);
  }
  if (stats) *stats += local;
  return r;
}

u64 PageTable::map_prefix(Vaddr va, std::span<const Pfn> pfns, PageFlags flags,
                          WalkStats* stats) {
  WalkStats local;
  const u64 done = map_run(va, pfns, flags, local);
  if (done < pfns.size()) (void)map(va + done * kPageSize, pfns[done], flags, &local);
  if (stats) *stats += local;
  return done;
}

void PageTable::reclaim(Vaddr va, Node** path, int from_level, WalkStats& st) {
  for (int level = from_level; level <= 3; ++level) {
    Node* cur = path[level - 1];
    Node* parent = path[level];
    if (cur->used != 0 || parent == nullptr) break;
    parent->children[index_at(va, level + 1)].reset();
    --parent->used;
    --nodes_;
    ++st.tables_freed;
  }
}

Result<void> PageTable::unmap(Vaddr va, WalkStats* stats) {
  if ((va.value() & kPageMask) != 0) return Errc::invalid_argument;
  WalkStats local;
  Node* path[4] = {nullptr, nullptr, nullptr, nullptr};  // path[l-1] = node at level l
  Node* node = root_.get();
  for (int level = 4; level >= 2 && node; --level) {
    path[level - 1] = node;
    const u32 idx = index_at(va, level);
    ++local.entries_visited;
    if (level == 2 && (node->pte[idx] & kPresent)) {
      if (stats) *stats += local;
      return Errc::invalid_argument;  // inside a large mapping: unmap_large
    }
    node = node->children[idx].get();
  }
  if (!node) {
    if (stats) *stats += local;
    return Errc::not_attached;
  }
  path[0] = node;
  const u32 l1 = index_at(va, 1);
  ++local.entries_visited;
  if (!(node->pte[l1] & kPresent)) {
    if (stats) *stats += local;
    return Errc::not_attached;
  }
  node->pte[l1] = 0;
  --node->used;
  --mapped_;

  // Reclaim empty paging structures bottom-up (root is kept).
  reclaim(va, path, 1, local);
  if (stats) *stats += local;
  return {};
}

Result<void> PageTable::unmap_large(Vaddr va, WalkStats* stats) {
  constexpr u64 kLargeBytes = kLargeSpan * kPageSize;
  if (va.value() % kLargeBytes != 0) return Errc::invalid_argument;
  WalkStats local;
  Node* path[4] = {nullptr, nullptr, nullptr, nullptr};
  Node* node = root_.get();
  for (int level = 4; level >= 3 && node; --level) {
    path[level - 1] = node;
    ++local.entries_visited;
    node = node->children[index_at(va, level)].get();
  }
  if (!node) {
    if (stats) *stats += local;
    return Errc::not_attached;
  }
  path[1] = node;
  const u32 idx = index_at(va, 2);
  ++local.entries_visited;
  if (!(node->pte[idx] & kPresent) || !(node->pte[idx] & kLargeBit)) {
    if (stats) *stats += local;
    return Errc::not_attached;
  }
  node->pte[idx] = 0;
  --node->used;
  mapped_ -= kLargeSpan;
  --large_;

  reclaim(va, path, 2, local);
  if (stats) *stats += local;
  return {};
}

u64 PageTable::unmap_run(Vaddr va, u64 n, WalkStats& st) {
  if ((va.value() & kPageMask) != 0) return 0;
  Node* path[4] = {nullptr, nullptr, nullptr, nullptr};
  Node* leaf = find_leaf(va, path);
  if (!leaf) return 0;
  const u32 first = index_at(va, 1);
  u64 k = 0;
  for (; k < n && (leaf->pte[first + k] & kPresent); ++k) leaf->pte[first + k] = 0;
  if (k == 0) return 0;
  leaf->used = static_cast<u16>(leaf->used - k);
  mapped_ -= k;
  st.entries_visited += kLevels * k;
  // Per-page unmap() tries reclaim after every page, but only the page that
  // empties the leaf can free anything: trying once at the end is the same.
  reclaim(va, path, 1, st);
  return k;
}

Result<void> PageTable::unmap_range(Vaddr va, u64 count, WalkStats* stats) {
  // Honors mixed mappings: a 2 MiB-aligned position covered by a large
  // mapping releases the whole window in one step.
  WalkStats local;
  Result<void> r;
  u64 done = 0;
  while (done < count && r.ok()) {
    const Vaddr cur = va + done * kPageSize;
    const u64 in_leaf = std::min<u64>(count - done, kLargeSpan - index_at(cur, 1));
    if (const u64 k = unmap_run(cur, in_leaf, local)) {
      done += k;
      continue;
    }
    // A 2 MiB mapping, or a page unmap() rejects: the per-page step.
    auto view = lookup(cur, nullptr);
    if (view && view->large) {
      if (cur.value() % (kLargeSpan * kPageSize) != 0 || count - done < kLargeSpan) {
        r = Errc::invalid_argument;  // partial large-page unmap
        break;
      }
      r = unmap_large(cur, &local);
      done += kLargeSpan;
      continue;
    }
    r = unmap(cur, &local);
    ++done;
  }
  if (stats) *stats += local;
  return r;
}

std::optional<PteView> PageTable::lookup(Vaddr va, WalkStats* stats) const {
  WalkStats local;
  Node* node = root_.get();
  std::optional<PteView> out;
  for (int level = 4; level >= 2 && node; --level) {
    ++local.entries_visited;
    const u32 idx = index_at(va, level);
    if (level == 2 && (node->pte[idx] & kPresent)) {
      // Large mapping: resolve the queried 4 KiB page within it.
      PteView v = decode(node->pte[idx]);
      const u64 off = (va.value() >> kPageShift) & (kLargeSpan - 1);
      out = PteView{v.pfn + off, v.flags, true};
      if (stats) *stats += local;
      return out;
    }
    node = node->children[idx].get();
  }
  if (node) {
    ++local.entries_visited;
    const u64 pte = node->pte[index_at(va, 1)];
    if (pte & kPresent) out = decode(pte);
  }
  if (stats) *stats += local;
  return out;
}

Result<std::vector<Pfn>> PageTable::translate_range(Vaddr va, u64 count,
                                                    WalkStats* stats) const {
  if ((va.value() & kPageMask) != 0) return Errc::invalid_argument;
  std::vector<Pfn> out;
  out.reserve(count);
  WalkStats local;
  u64 i = 0;
  while (i < count) {
    const Vaddr cur = va + i * kPageSize;
    if (const Node* leaf = find_leaf(cur)) {
      const u32 first = index_at(cur, 1);
      const u64 n = std::min<u64>(count - i, kLargeSpan - first);
      u64 k = 0;
      for (; k < n && (leaf->pte[first + k] & kPresent); ++k) {
        out.push_back(decode(leaf->pte[first + k]).pfn);
      }
      local.entries_visited += kLevels * k;
      i += k;
      if (k == n) continue;
    }
    // A hole or a 2 MiB mapping: the per-page walk.
    auto pte = lookup(va + i * kPageSize, &local);
    if (!pte) {
      if (stats) *stats += local;
      return Errc::invalid_argument;
    }
    if (pte->large) {
      // One walk resolves the whole 2 MiB window: enumerate the covered
      // frames without re-walking per page (this is where large-page
      // exports collapse the PFN-list generation cost).
      const u64 off = ((va.value() >> kPageShift) + i) & (kLargeSpan - 1);
      const u64 run = std::min(count - i, kLargeSpan - off);
      for (u64 k = 0; k < run; ++k) out.push_back(pte->pfn + k);
      i += run;
    } else {
      out.push_back(pte->pfn);
      ++i;
    }
  }
  if (stats) *stats += local;
  return out;
}

Result<void> PageTable::map_range_best(Vaddr va, const std::vector<Pfn>& pfns,
                                       PageFlags flags, WalkStats* stats) {
  WalkStats local;
  Result<void> r;
  u64 i = 0;
  while (i < pfns.size()) {
    const Vaddr cur = va + i * kPageSize;
    const bool aligned = cur.value() % (kLargeSpan * kPageSize) == 0 &&
                         pfns[i].value() % kLargeSpan == 0 &&
                         pfns.size() - i >= kLargeSpan;
    bool contiguous = aligned;
    if (aligned) {
      for (u64 k = 1; k < kLargeSpan && contiguous; ++k) {
        contiguous = pfns[i + k].value() == pfns[i].value() + k;
      }
    }
    if (contiguous) {
      r = map_large(cur, pfns[i], flags, &local);
      if (!r.ok()) break;
      i += kLargeSpan;
      continue;
    }
    // 4 KiB pages up to the next 2 MiB boundary, where a large mapping may
    // start again: one leaf.
    const u64 stretch = std::min<u64>(pfns.size() - i, kLargeSpan - index_at(cur, 1));
    const u64 k = map_run(cur, std::span(pfns).subspan(i, stretch), flags, local);
    i += k;
    if (k < stretch) {
      r = map(va + i * kPageSize, pfns[i], flags, &local);
      if (!r.ok()) break;
      ++i;
    }
  }
  if (!r.ok()) (void)unmap_range(va, i, &local);  // roll back what we installed
  if (stats) *stats += local;
  return r;
}

}  // namespace xemem::mm
