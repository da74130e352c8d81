// PFN lists: the frames XEMEM attachment responses carry.
//
// When an enclave services a remote attachment it walks page tables and
// produces the list of physical frames backing the exported region (paper
// sections 4.2-4.3). The list is then shipped through a cross-enclave
// channel — its wire size determines the channel transfer cost — and the
// attaching enclave maps it page by page.
//
// The list is held as maximal runs of consecutive frames: appending a frame
// or run that continues the last run extends it, so no two neighbouring
// runs are adjacent. A contiguous Kitten export is one run; a scattered
// Linux export stays many short runs. Simulated costs are still charged
// per page (4 entries per PTE, one Palacios memory-map insert per host
// page, 8 B per page on the wire); the runs only decide the host work and,
// with extent encoding, which wire size a message is charged.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "hw/phys_mem.hpp"

namespace xemem::mm {

/// An ordered frame list stored as maximal runs, with wire-size accounting.
class PfnList {
 public:
  /// Bytes one run occupies on a channel: 8 B start frame + 4 B run
  /// length (run lengths never exceed an enclave's frame count, which fits
  /// 32 bits for any machine this simulates).
  static constexpr u64 kExtentWireBytes = 12;

  PfnList() = default;
  /// The frames of @p runs in order (adjacent runs merge).
  explicit PfnList(std::span<const hw::FrameExtent> runs) {
    for (const auto& r : runs) append(r);
  }

  /// Append @p run, extending the last run if it continues it.
  void append(hw::FrameExtent run) {
    if (run.count == 0) return;
    if (!runs_.empty() && runs_.back().start + runs_.back().count == run.start) {
      runs_.back().count += run.count;
    } else {
      runs_.push_back(run);
    }
    pages_ += run.count;
  }
  void push_back(Pfn pfn) { append(hw::FrameExtent{pfn, 1}); }

  const std::vector<hw::FrameExtent>& runs() const { return runs_; }
  u64 run_count() const { return runs_.size(); }
  u64 page_count() const { return pages_; }
  u64 byte_span() const { return pages_ * kPageSize; }

  /// Bytes of the flat encoding on a channel (8 B per page, matching the
  /// u64 frame numbers the real implementation ships).
  u64 wire_bytes() const { return pages_ * sizeof(u64); }
  /// Bytes of the extent encoding on a channel (12 B per run).
  u64 extent_wire_bytes() const { return runs_.size() * kExtentWireBytes; }

  /// Frame of page @p page (a scan over the runs: for error paths and tests).
  Pfn at(u64 page) const {
    XEMEM_ASSERT(page < pages_);
    for (const auto& r : runs_) {
      if (page < r.count) return r.start + page;
      page -= r.count;
    }
    XEMEM_PANIC("page index past the list");
  }

  /// Pages [first, first + count) of this list (attachment reuse and lazy
  /// fault-in map sub-windows of an already-fetched frame list).
  PfnList slice(u64 first, u64 count) const {
    XEMEM_ASSERT(first + count <= pages_);
    PfnList out;
    for (const auto& r : runs_) {
      if (count == 0) break;
      if (first >= r.count) {
        first -= r.count;
        continue;
      }
      const u64 take = std::min(count, r.count - first);
      out.append(hw::FrameExtent{r.start + first, take});
      count -= take;
      first = 0;
    }
    return out;
  }

  bool operator==(const PfnList&) const = default;

 private:
  std::vector<hw::FrameExtent> runs_;
  u64 pages_{0};
};

}  // namespace xemem::mm
