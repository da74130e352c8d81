#include "hw/phys_mem.hpp"

#include <algorithm>

namespace xemem::hw {

Result<std::vector<FrameExtent>> FrameZone::alloc(u64 count, AllocPolicy policy) {
  if (count == 0) return Errc::invalid_argument;
  if (count > free_count_) return Errc::out_of_memory;

  std::vector<FrameExtent> out;

  if (policy == AllocPolicy::contiguous) {
    // First-fit over the (address-ordered) free list.
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second >= count) {
        out.push_back(FrameExtent{Pfn{it->first}, count});
        const u64 rest = it->second - count;
        const u64 new_start = it->first + count;
        free_.erase(it);
        if (rest > 0) free_.emplace(new_start, rest);
        free_count_ -= count;
        return out;
      }
    }
    return Errc::out_of_memory;  // fragmented: no single run large enough
  }

  // Scattered: take pages in small chunks, alternating between the front
  // and the back of free extents so that even a freshly-created zone hands
  // out non-adjacent runs — modeling a fragmented Linux page pool. The
  // chunk size (8 pages) keeps allocator overhead low while reliably
  // breaking contiguity.
  constexpr u64 kChunk = 8;
  u64 remaining = count;
  u64 skip = scatter_cursor_ % std::max<u64>(free_.size(), 1);
  while (remaining > 0) {
    XEMEM_ASSERT(!free_.empty());
    auto it = free_.begin();
    std::advance(it, skip % free_.size());
    skip = 1;  // after the first pick, walk round-robin
    const u64 take = std::min({remaining, it->second, kChunk});
    const bool from_back = (scatter_cursor_++ & 1) != 0 && it->second > take;
    const u64 ext_start = it->first;
    const u64 ext_len = it->second;
    const u64 chunk_start = from_back ? ext_start + ext_len - take : ext_start;
    out.push_back(FrameExtent{Pfn{chunk_start}, take});
    free_.erase(it);
    if (from_back) {
      free_.emplace(ext_start, ext_len - take);
    } else if (ext_len > take) {
      free_.emplace(ext_start + take, ext_len - take);
    }
    free_count_ -= take;
    remaining -= take;
  }
  return out;
}

Result<FrameExtent> FrameZone::alloc_contiguous_aligned(u64 count,
                                                        u64 align_frames) {
  if (count == 0 || align_frames == 0) return Errc::invalid_argument;
  if (count > free_count_) return Errc::out_of_memory;
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const u64 start = it->first;
    const u64 len = it->second;
    const u64 aligned = (start + align_frames - 1) / align_frames * align_frames;
    const u64 skip = aligned - start;
    if (skip >= len || len - skip < count) continue;
    // Split the extent into [start, aligned) + taken + tail.
    free_.erase(it);
    if (skip > 0) free_.emplace(start, skip);
    const u64 tail = len - skip - count;
    if (tail > 0) free_.emplace(aligned + count, tail);
    free_count_ -= count;
    return FrameExtent{Pfn{aligned}, count};
  }
  return Errc::out_of_memory;
}

void FrameZone::free(FrameExtent ext) {
  XEMEM_ASSERT(ext.count > 0);
  XEMEM_ASSERT_MSG(owns(ext.start) && owns(ext.start + (ext.count - 1)),
                   "free of frames outside zone");
  // Insert and coalesce with neighbors.
  auto [it, inserted] = free_.emplace(ext.start.value(), ext.count);
  XEMEM_ASSERT_MSG(inserted, "double free of frame extent");
  // Coalesce with successor.
  auto next = std::next(it);
  if (next != free_.end()) {
    XEMEM_ASSERT_MSG(it->first + it->second <= next->first, "double free (overlap)");
    if (it->first + it->second == next->first) {
      it->second += next->second;
      free_.erase(next);
    }
  }
  // Coalesce with predecessor.
  if (it != free_.begin()) {
    auto prev = std::prev(it);
    XEMEM_ASSERT_MSG(prev->first + prev->second <= it->first, "double free (overlap)");
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_.erase(it);
    }
  }
  free_count_ += ext.count;
}

bool FrameZone::is_allocated(Pfn pfn) const {
  if (!owns(pfn)) return false;
  // Allocated iff not inside any free extent.
  auto it = free_.upper_bound(pfn.value());
  if (it == free_.begin()) return true;
  --it;
  return !(it->first <= pfn.value() && pfn.value() < it->first + it->second);
}

u32 PhysicalMemory::add_zone(u64 bytes) {
  const u64 frames = pages_for(bytes);
  zones_.push_back(std::make_unique<FrameZone>(Pfn{next_base_frame_}, frames));
  next_base_frame_ += frames;
  return static_cast<u32>(zones_.size() - 1);
}

FrameZone& PhysicalMemory::zone_of(Pfn pfn) {
  for (auto& z : zones_) {
    if (z->owns(pfn)) return *z;
  }
  XEMEM_PANIC("pfn outside all zones");
}

void PhysicalMemory::ref_run(FrameExtent ext) {
  u64 pfn = ext.start.value();
  const u64 end = pfn + ext.count;
  while (pfn < end) {
    const u64 c = pfn / kPinChunk;
    if (c >= pins_.size()) pins_.resize(c + 1);
    if (!pins_[c]) pins_[c] = std::make_unique<PinChunk>();
    PinChunk& chunk = *pins_[c];
    for (const u64 stop = std::min(end, (c + 1) * kPinChunk); pfn < stop; ++pfn) {
      if (chunk.count[pfn % kPinChunk]++ == 0) ++chunk.live;
    }
  }
  total_refs_ += ext.count;
}

void PhysicalMemory::unref_run(FrameExtent ext) {
  u64 pfn = ext.start.value();
  const u64 end = pfn + ext.count;
  while (pfn < end) {
    const u64 c = pfn / kPinChunk;
    XEMEM_ASSERT_MSG(c < pins_.size() && pins_[c], "unref of unreferenced frame");
    PinChunk& chunk = *pins_[c];
    for (const u64 stop = std::min(end, (c + 1) * kPinChunk); pfn < stop; ++pfn) {
      u32& n = chunk.count[pfn % kPinChunk];
      XEMEM_ASSERT_MSG(n > 0, "unref of unreferenced frame");
      if (--n == 0) --chunk.live;
    }
    if (chunk.live == 0) pins_[c].reset();
  }
  total_refs_ -= ext.count;
}

u8* PhysicalMemory::backing_for(Pfn pfn) const {
  auto it = backing_.find(pfn.value());
  if (it == backing_.end()) {
    auto page = std::make_unique<u8[]>(kPageSize);
    std::memset(page.get(), 0, kPageSize);
    it = backing_.emplace(pfn.value(), std::move(page)).first;
  }
  return it->second.get();
}

std::span<u8, kPageSize> PhysicalMemory::frame_data(Pfn pfn) {
  return std::span<u8, kPageSize>{backing_for(pfn), kPageSize};
}

void PhysicalMemory::write(HostPaddr pa, const void* src, u64 len) {
  const u8* s = static_cast<const u8*>(src);
  while (len > 0) {
    const Pfn pfn = Pfn::of(pa);
    const u64 off = pa.value() & kPageMask;
    const u64 n = std::min(len, kPageSize - off);
    std::memcpy(backing_for(pfn) + off, s, n);
    s += n;
    pa += n;
    len -= n;
  }
}

void PhysicalMemory::read(HostPaddr pa, void* dst, u64 len) const {
  u8* d = static_cast<u8*>(dst);
  while (len > 0) {
    const Pfn pfn = Pfn::of(pa);
    const u64 off = pa.value() & kPageMask;
    const u64 n = std::min(len, kPageSize - off);
    std::memcpy(d, backing_for(pfn) + off, n);
    d += n;
    pa += n;
    len -= n;
  }
}

}  // namespace xemem::hw
