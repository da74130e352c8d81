// Kitten lightweight-kernel personality.
//
// Kitten (paper section 4) maps every virtual region of a process to
// physical memory statically at process creation from contiguous blocks,
// and originally supported local shared memory only through SMARTMAP
// page-table aliasing. XEMEM adds (paper section 4.3):
//  * dynamic heap expansion — a virtual region above the static image into
//    which remote PFN lists are mapped, without disturbing SMARTMAP or the
//    static regions;
//  * PFN-list generation using the kernel's existing page-table walkers.
#pragma once

#include "common/costs.hpp"
#include "os/enclave.hpp"

namespace xemem::os {

class KittenEnclave final : public Enclave {
 public:
  using Enclave::Enclave;

  /// Eagerly allocates contiguous frames and maps the whole image at
  /// creation — Kitten's static address-space policy. Contiguity is what
  /// keeps Kitten exports compressible and its noise profile flat.
  Result<Process*> create_process(u64 image_bytes, hw::Core* core = nullptr) override;

  sim::Task<Result<mm::PfnList>> service_make_pfn_list(Process& owner, Vaddr va,
                                                       u64 pages) override;
  sim::Task<Result<Vaddr>> map_attachment(Process& attacher,
                                          const mm::PfnList& host_frames, bool lazy,
                                          bool writable) override;
  sim::Task<void> touch_attached(Process& attacher, Vaddr va, u64 pages) override;
  sim::Task<Result<void>> unmap_attachment(Process& attacher, Vaddr va,
                                           u64 pages) override;
  Result<Pfn> frame_to_host(Pfn domain_frame) const override {
    return domain_frame;  // native enclave: domain frames are host frames
  }

  // ------------------------------------------------------------ SMARTMAP
  //
  // SMARTMAP [Brightwell et al., SC'08] gives every local process a window
  // onto every other local process's address space by sharing top-level
  // page-table entries: process T's memory appears in process V at
  //   smartmap_va(T, va) = (T.pid + 1) << 39 | va.
  // Setup is O(1) (one top-level entry), which is why the paper keeps
  // SMARTMAP for *local* sharing while XEMEM handles cross-enclave
  // sharing. bench/micro_datastructures compares the two local paths.

  static Vaddr smartmap_va(const Process& target, Vaddr va) {
    return Vaddr{((static_cast<u64>(target.pid()) + 1) << 39) | va.value()};
  }

  /// Resolve a SMARTMAP window address to (target process, local VA);
  /// nullptr if the slot does not name a live process.
  std::pair<Process*, Vaddr> smartmap_resolve(Vaddr smartmap_addr) {
    const u32 slot = static_cast<u32>(smartmap_addr.value() >> 39);
    if (slot == 0) return {nullptr, Vaddr{}};
    Process* t = process(slot - 1);
    return {t, Vaddr{smartmap_addr.value() & ((1ull << 39) - 1)}};
  }

  /// Read through a SMARTMAP window (data plane).
  Result<void> smartmap_read(Vaddr smartmap_addr, void* dst, u64 len) {
    auto [target, va] = smartmap_resolve(smartmap_addr);
    if (target == nullptr) return Errc::invalid_argument;
    return proc_read(*target, va, dst, len);
  }
  Result<void> smartmap_write(Vaddr smartmap_addr, const void* src, u64 len) {
    auto [target, va] = smartmap_resolve(smartmap_addr);
    if (target == nullptr) return Errc::invalid_argument;
    return proc_write(*target, va, src, len);
  }

  /// Simulated cost of establishing a SMARTMAP window: one top-level PTE
  /// write, independent of region size.
  static constexpr u64 kSmartmapSetupCost = 2 * costs::kPtEntryVisit;

  // -------------------------------------------------------- large pages
  //
  // Extension beyond the paper: with 2 MiB mappings a 1 GiB export is 512
  // page-table entries instead of 262,144, collapsing both the exporter's
  // PFN-list walk and the attacher's mapping cost (the dominant terms of
  // Figure 5 / Figure 7). bench/ablation_large_pages quantifies it. The
  // trade-off is granularity: frames must be 2 MiB-aligned and regions are
  // shared in 2 MiB units.
  void set_large_pages(bool on) { large_pages_ = on; }

 private:
  Result<std::vector<hw::FrameExtent>> frames_alloc(u64 pages);

  bool large_pages_{false};
};

}  // namespace xemem::os
