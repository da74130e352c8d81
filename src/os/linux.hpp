// Linux fullweight personality.
//
// Models the behaviours of the paper's Linux XEMEM kernel module
// (section 4.3):
//  * exports pin memory with get_user_pages before the page-table walk;
//  * remote attachments map eagerly with vm_mmap + remap_pfn_range;
//  * *local* (single-OS) attachments use Linux's native page-fault
//    semantics: the mapping is installed lazily, one fault per page on
//    first touch — the overhead the paper blames for the Linux-only
//    configuration's recurring-attachment slowdown and variance
//    (section 6.4);
//  * per-page map work is inflated by a small interference factor while
//    multiple attachments are in flight in the same Linux instance
//    (shared mm structures; paper section 5.3).
//
// Process memory is allocated page-at-a-time from a fragmented pool
// (AllocPolicy::scattered), so Linux exports produce non-contiguous PFN
// lists — the property that forces per-page Palacios memory-map entries.
#pragma once

#include <unordered_map>

#include "common/costs.hpp"
#include "os/enclave.hpp"

namespace xemem::os {

class LinuxEnclave final : public Enclave {
 public:
  using Enclave::Enclave;

  /// Creates the process image from scattered frames. Population is eager
  /// (the CG/STREAM workloads touch their whole working set in the first
  /// iteration anyway); XEMEM-attachment fault semantics are modeled
  /// separately via map_attachment(lazy=true).
  Result<Process*> create_process(u64 image_bytes, hw::Core* core = nullptr) override;

  sim::Task<Result<mm::PfnList>> service_make_pfn_list(Process& owner, Vaddr va,
                                                       u64 pages) override;
  sim::Task<Result<Vaddr>> map_attachment(Process& attacher,
                                          const mm::PfnList& host_frames, bool lazy,
                                          bool writable) override;
  sim::Task<void> touch_attached(Process& attacher, Vaddr va, u64 pages) override;
  sim::Task<Result<void>> unmap_attachment(Process& attacher, Vaddr va,
                                           u64 pages) override;
  Result<Pfn> frame_to_host(Pfn domain_frame) const override { return domain_frame; }
  bool lazy_local_attach() const override { return true; }

  /// Pages of lazily-attached regions still waiting for their first fault
  /// (diagnostics / tests).
  u64 pending_fault_pages() const {
    u64 n = 0;
    for (auto& [va, rec] : lazy_) n += rec.remaining;
    return n;
  }

 private:
  struct LazyRange {
    mm::PfnList frames;
    u64 remaining;  // pages not yet faulted in
    bool writable;
  };

  /// Interference multiplier on per-page map work (see costs.hpp).
  double smp_factor() const {
    return attach_inflight_ > 1 ? 1.0 + costs::kLinuxSmpInterference : 1.0;
  }

  // Lazily attached ranges keyed by (pid, base va).
  std::unordered_map<u64, LazyRange> lazy_;
  static u64 lazy_key(const Process& p, Vaddr va) {
    return (static_cast<u64>(p.pid()) << 48) ^ va.value();
  }
};

}  // namespace xemem::os
