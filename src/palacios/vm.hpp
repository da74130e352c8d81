// Palacios virtual machine container.
//
// Owns a guest's physical address space: the RAM region (carved from large
// contiguous host blocks, so the initial memory map is a handful of
// entries) plus a hot-plug region above RAM into which XEMEM attachments
// are materialized (paper Figure 4(a): "Allocate New Guest Pages").
//
// Host frames arriving in XEMEM attachments are inserted into the memory
// map one entry per page, without coalescing — matching the shipping
// Palacios implementation the paper measures in section 5.4 ("the process
// of updating the memory map may require a new entry in the red-black tree
// for each host page frame"). The MapBackend::radix alternative implements
// the paper's proposed fix; bench/ablation_memory_map compares them.
#pragma once

#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/costs.hpp"
#include "common/status.hpp"
#include "hw/machine.hpp"
#include "mm/pfn_list.hpp"
#include "palacios/memory_map.hpp"

namespace xemem::palacios {

class PalaciosVm {
 public:
  struct Config {
    std::string name;
    u64 guest_ram_bytes;
    u64 hotplug_bytes;  ///< GPA window reserved for XEMEM attachments
    MapBackend backend{MapBackend::rbtree};
  };

  /// @param host_zone  the host NUMA zone backing guest RAM.
  PalaciosVm(Config cfg, hw::FrameZone& host_zone)
      : cfg_(std::move(cfg)),
        host_zone_(host_zone),
        map_(cfg_.backend),
        guest_ram_(Pfn{0}, pages_for(cfg_.guest_ram_bytes)),
        hotplug_(Pfn{pages_for(cfg_.guest_ram_bytes)}, pages_for(cfg_.hotplug_bytes)) {
  }

  ~PalaciosVm() {
    for (auto e : host_ram_extents_) host_zone_.free(e);
  }

  PalaciosVm(const PalaciosVm&) = delete;
  PalaciosVm& operator=(const PalaciosVm&) = delete;

  /// Allocate host RAM and populate the initial GPA->HPA map. The host
  /// allocation is contiguous-first: typical Palacios deployments hand the
  /// guest a few large blocks, keeping the initial map tiny — which is why
  /// Table 2's guest-export path (map lookups, no inserts) stays fast.
  Result<void> init() {
    auto r = host_zone_.alloc(guest_ram_.total_frames(), hw::AllocPolicy::contiguous);
    if (!r.ok()) {
      // Fall back to scattered chunks if the host zone is fragmented.
      r = host_zone_.alloc(guest_ram_.total_frames(), hw::AllocPolicy::scattered);
      if (!r.ok()) return r.error();
    }
    host_ram_extents_ = std::move(r).value();
    u64 gpa = 0;
    for (auto e : host_ram_extents_) {
      auto ins = map_.insert_region(GuestPaddr{gpa}, e.start.paddr(),
                                    e.count * kPageSize, nullptr);
      if (!ins.ok()) return ins;
      gpa += e.count * kPageSize;
    }
    return {};
  }

  const std::string& name() const { return cfg_.name; }
  GuestMemoryMap& memory_map() { return map_; }
  const GuestMemoryMap& memory_map() const { return map_; }

  /// Guest-physical RAM allocator (frame numbers are *guest* frames; the
  /// Pfn type is reused as a domain-local frame number).
  hw::FrameZone& guest_ram() { return guest_ram_; }

  /// Figure 4(a): materialize a host PFN list as new guest-physical pages.
  /// Allocates a fresh hot-plug GPA run and inserts one memory-map entry
  /// per page (see file comment). Returns the new guest frames (one run)
  /// and adds the structural work for the caller's time charge to @p work,
  /// including, when a page collides, the rollback of the pages before it.
  Result<hw::FrameExtent> map_host_frames(const mm::PfnList& host,
                                          MapWork* work = nullptr) {
    auto gpas = hotplug_.alloc(host.page_count(), hw::AllocPolicy::contiguous);
    if (!gpas.ok()) return gpas.error();
    XEMEM_ASSERT(gpas.value().size() == 1);
    const hw::FrameExtent window = gpas.value()[0];
    // The window's pages ascend and nothing else updates the map meanwhile,
    // so each insert continues from where the previous one left the tree.
    GuestMemoryMap::InsertCursor cursor;
    u64 i = 0;
    for (const auto& run : host.runs()) {
      for (u64 k = 0; k < run.count; ++k, ++i) {
        auto ins = map_.insert_region(gpa_of(window, i), (run.start + k).paddr(),
                                      kPageSize, work, cursor);
        if (!ins.ok()) {
          for (u64 j = 0; j < i; ++j) {
            (void)map_.remove_region(gpa_of(window, j), kPageSize, work);
          }
          hotplug_.free(window);
          return ins.error();
        }
      }
    }
    return window;
  }

  /// Tear down a hot-plug attachment created by map_host_frames.
  Result<MapWork> unmap_host_frames(hw::FrameExtent window) {
    MapWork work;
    for (u64 i = 0; i < window.count; ++i) {
      auto r = map_.remove_region(gpa_of(window, i), kPageSize, &work);
      if (!r.ok()) return r.error();
    }
    if (window.count > 0) hotplug_.free(window);
    return work;
  }

  /// Figure 4(b): translate guest frames exported by the guest into host
  /// frames, walking the memory map per page.
  Result<mm::PfnList> guest_to_host(const mm::PfnList& gframes,
                                    MapWork* work = nullptr) {
    return map_.translate_frames(gframes, work);
  }

  /// Data-plane translation of one guest frame (no charge; correctness).
  Result<Pfn> translate_gfn(Gfn gfn) const {
    auto hpa = map_.translate(gfn.paddr(), nullptr);
    if (!hpa) return Errc::invalid_argument;
    return Pfn::of(*hpa);
  }

  /// Simulated-time charge for @p work on this VM's memory-map backend.
  u64 map_work_cost(const MapWork& work) const {
    if (cfg_.backend == MapBackend::rbtree) {
      return work.steps * costs::kRbStepCost + work.rotations * costs::kRbRotationCost;
    }
    return work.steps * costs::kRadixStepCost;
  }

 private:
  /// Guest-physical address of page @p i of a run of guest frames.
  static GuestPaddr gpa_of(hw::FrameExtent gframes, u64 i) {
    return Gfn{gframes.start.value() + i}.paddr();
  }

  Config cfg_;
  hw::FrameZone& host_zone_;
  GuestMemoryMap map_;
  hw::FrameZone guest_ram_;  // guest frame numbers [0, ram)
  hw::FrameZone hotplug_;    // guest frame numbers [ram, ram + hotplug)
  std::vector<hw::FrameExtent> host_ram_extents_;
};

}  // namespace xemem::palacios
