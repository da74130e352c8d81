// Linux running inside a Palacios VM (paper section 4.4).
//
// Identical userspace behaviour to LinuxEnclave, but the frames its page
// tables reference are *guest* frames, so every XEMEM operation crosses
// the VMM boundary:
//
//  * Export (Figure 4(b)): the guest pins + walks its page tables to get a
//    guest frame list, stages it through the virtual PCI device window,
//    and issues a hypercall; Palacios walks the memory map per page to
//    build the host frame list. Cheap while the map is small — this is
//    Table 2's 12.6 GB/s row.
//  * Attach (Figure 4(a)): Palacios allocates fresh hot-plug guest pages,
//    inserts one memory-map entry per host frame (the red-black-tree cost
//    of Table 2's 3.99 GB/s row), stages the new guest-frame list through
//    the PCI window, raises a virtual IRQ, and the guest maps the frames
//    into the attaching process — each guest PTE update paying the
//    nested-paging surcharge.
#pragma once

#include <unordered_map>

#include "common/costs.hpp"
#include "os/enclave.hpp"
#include "palacios/vm.hpp"

namespace xemem::os {

class GuestLinuxEnclave final : public Enclave {
 public:
  /// @param vm         the Palacios container this guest runs in
  /// @param host_core  core where VMM work (map updates, hypercall
  ///                   handling) executes — a core of the *host* enclave
  GuestLinuxEnclave(std::string name, hw::Machine& machine, palacios::PalaciosVm& vm,
                    sim::SharedBandwidth& membw, std::vector<hw::Core*> guest_cores,
                    hw::Core* guest_service_core, hw::Core* host_core)
      : Enclave(std::move(name), machine, vm.guest_ram(), membw,
                std::move(guest_cores), guest_service_core),
        vm_(vm),
        host_core_(host_core) {}

  palacios::PalaciosVm& vm() { return vm_; }
  hw::Core* host_core() { return host_core_; }

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
    return vm_.translate_gfn(Gfn{domain_frame.value()});
  }

  /// Nested-paging overhead on bandwidth-bound guest kernels (~10% for
  /// STREAM-class access patterns under 4 KiB nested mappings).
  double mem_overhead_factor() const override { return 1.10; }

  /// Cumulative simulated time charged for VMM memory-map updates during
  /// attachments — the quantity Table 2 isolates as "(w/o rb-tree
  /// inserts)". Reset before a measurement window.
  u64 vmm_map_ns() const { return vmm_map_ns_; }
  void reset_vmm_map_ns() { vmm_map_ns_ = 0; }

 private:
  /// PCI-window staging of @p bytes: sender-side copy + world switch +
  /// receiver-side copy (see palacios/pci_channel.hpp; the attach path
  /// stages PFN lists through the same device).
  sim::Task<void> pci_stage(u64 bytes, hw::Core* from, hw::Core* to);

  palacios::PalaciosVm& vm_;
  hw::Core* host_core_;
  u64 vmm_map_ns_{0};
  // Hot-plug guest frames of each live attachment (one run), keyed by
  // (pid, va), for unmap.
  std::unordered_map<u64, hw::FrameExtent> attachments_;
  static u64 att_key(const Process& p, Vaddr va) {
    return (static_cast<u64>(p.pid()) << 48) ^ va.value();
  }
};

}  // namespace xemem::os
