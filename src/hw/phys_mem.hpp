// Simulated physical memory: frame allocation, reference counting, and a
// lazily-backed data plane.
//
// Control plane: every page frame of the simulated machine is tracked with
// an allocation state and a share/pin reference count. XEMEM attachments
// take references on the exporter's frames, so tests can verify that
// detach/remove sequences return the machine to a leak-free state — the
// paper's dynamic mapping design (section 3.3) depends on this bookkeeping.
//
// Data plane: frames are backed by real host memory, allocated lazily on
// first access. Workloads genuinely read and write shared memory (the
// in-situ stop/go signal variables, verification patterns), but a frame
// that is only ever mapped — the common case in the throughput experiments,
// which attach a 1 GiB region 500 times without touching most of it — costs
// nothing on the host.
#pragma once

#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace xemem::hw {

/// Allocation policy for a frame request.
enum class AllocPolicy {
  /// One physically contiguous run (Kitten-style block allocation: the LWK
  /// maps whole regions eagerly from large contiguous extents).
  contiguous,
  /// Deliberately scattered frames (Linux-style page-at-a-time allocation
  /// from a fragmented pool). Scattered PFN lists are what force the
  /// Palacios memory map to take one red-black-tree entry per page
  /// (paper section 4.4).
  scattered,
};

/// A run of physically contiguous frames [start, start + count).
struct FrameExtent {
  Pfn start;
  u64 count;
};

/// Physical memory of one NUMA zone: extent-based allocator + frame table.
class FrameZone {
 public:
  /// Manages frames [base, base + frames).
  FrameZone(Pfn base, u64 frames) : base_(base), frames_(frames) {
    free_.emplace(base.value(), frames);
    free_count_ = frames;
  }

  FrameZone(const FrameZone&) = delete;
  FrameZone& operator=(const FrameZone&) = delete;

  u64 total_frames() const { return frames_; }
  u64 free_frames() const { return free_count_; }
  Pfn base() const { return base_; }

  /// Allocate @p count frames. Contiguous requests return one extent;
  /// scattered requests deliberately split across free extents (round-robin
  /// over the free list) to produce non-contiguous PFN lists.
  Result<std::vector<FrameExtent>> alloc(u64 count, AllocPolicy policy);

  /// Allocate one contiguous extent whose start frame is a multiple of
  /// @p align_frames (2 MiB large-page mappings need 512-frame alignment).
  Result<FrameExtent> alloc_contiguous_aligned(u64 count, u64 align_frames);

  /// Release one extent. Frames must be allocated and unreferenced.
  void free(FrameExtent ext);

  /// Share/pin refcounting. A frame may be freed only at refcount 0;
  /// alloc() sets refcount 0 (owner's allocation is tracked separately).
  void ref(Pfn pfn) { ++refcounts_[pfn.value()]; }
  void unref(Pfn pfn) {
    auto it = refcounts_.find(pfn.value());
    XEMEM_ASSERT_MSG(it != refcounts_.end() && it->second > 0,
                     "unref of unreferenced frame");
    if (--it->second == 0) refcounts_.erase(it);
  }
  u64 refcount(Pfn pfn) const {
    auto it = refcounts_.find(pfn.value());
    return it == refcounts_.end() ? 0 : it->second;
  }
  /// Total outstanding share references (leak checking in tests).
  u64 total_refs() const {
    u64 n = 0;
    for (auto& [pfn, c] : refcounts_) n += c;
    return n;
  }

  bool owns(Pfn pfn) const {
    return pfn >= base_ && pfn.value() < base_.value() + frames_;
  }
  bool is_allocated(Pfn pfn) const;

 private:
  Pfn base_;
  u64 frames_;
  u64 free_count_;
  // Free extents keyed by start frame number -> length. Adjacent extents are
  // coalesced on free.
  std::map<u64, u64> free_;
  std::unordered_map<u64, u64> refcounts_;
  u64 scatter_cursor_{0};
};

/// Whole-machine physical memory: the set of NUMA zones plus the lazily
/// backed data plane.
class PhysicalMemory {
 public:
  /// Append a NUMA zone of @p bytes; returns its zone index. Zones are laid
  /// out back to back in the physical address space.
  u32 add_zone(u64 bytes);

  u32 zone_count() const { return static_cast<u32>(zones_.size()); }
  FrameZone& zone(u32 idx) {
    XEMEM_ASSERT(idx < zones_.size());
    return *zones_[idx];
  }
  /// Zone owning @p pfn (asserts if unowned).
  FrameZone& zone_of(Pfn pfn);

  /// Raw access to one frame's backing bytes (allocated+zeroed on demand).
  std::span<u8, kPageSize> frame_data(Pfn pfn);

  /// Convenience: copy @p len bytes to/from a physical address range that
  /// may span frames.
  void write(HostPaddr pa, const void* src, u64 len);
  void read(HostPaddr pa, void* dst, u64 len) const;

  /// Number of frames with real host backing (diagnostics).
  u64 backed_frames() const { return backing_.size(); }

  /// Machine-global share/pin refcounts. XEMEM pins exported frames here
  /// (rather than in a FrameZone) because enclaves own carved sub-zones of
  /// the socket zones: the pin must be visible wherever the frame came
  /// from. Pinning works run-at-a-time so callers holding extent-compressed
  /// frame lists never expand them just to bump refcounts. Leak tests
  /// assert total_refs() == 0 after teardown.
  void ref_run(FrameExtent ext);
  /// Drop one reference from every frame of a run; every frame must be
  /// referenced.
  void unref_run(FrameExtent ext);
  u64 refcount(Pfn pfn) const {
    const u64 c = pfn.value() / kPinChunk;
    return c < pins_.size() && pins_[c] ? pins_[c]->count[pfn.value() % kPinChunk] : 0;
  }
  u64 total_refs() const { return total_refs_; }

 private:
  std::vector<std::unique_ptr<FrameZone>> zones_;
  u64 next_base_frame_{0};
  // Lazily-populated data plane.
  mutable std::unordered_map<u64, std::unique_ptr<u8[]>> backing_;
  // Pin counts in 512-frame chunks indexed by pfn / kPinChunk: a chunk is
  // created by the first pin inside it and freed with its last, so the
  // counts stay as sparse as the pins, and a run costs one lookup per chunk
  // rather than a hash per frame.
  static constexpr u64 kPinChunk = 512;
  struct PinChunk {
    std::array<u32, kPinChunk> count{};
    u32 live{0};  ///< frames with a nonzero count
  };
  std::vector<std::unique_ptr<PinChunk>> pins_;
  u64 total_refs_{0};

  u8* backing_for(Pfn pfn) const;
};

}  // namespace xemem::hw
