#include "os/guest_linux.hpp"

namespace xemem::os {

Result<Process*> GuestLinuxEnclave::create_process(u64 image_bytes, hw::Core* core) {
  const u64 pages = pages_for(image_bytes);
  // Guest Linux allocates guest frames page-at-a-time like native Linux.
  auto fr = frames().alloc(pages, hw::AllocPolicy::scattered);
  if (!fr.ok()) return fr.error();

  auto proc = std::make_unique<Process>(next_pid(), this, pick_core(core));
  Process* p = proc.get();
  const Vaddr base = p->alloc_va(image_bytes);
  auto mapped = p->pt().map_range(base, mm::PfnList(fr.value()),
                                  mm::PageFlags::writable | mm::PageFlags::user);
  if (!mapped.ok()) {
    for (auto e : fr.value()) frames().free(e);
    return mapped.error();
  }
  p->adopt_frames(fr.value());
  p->set_image(base, pages);
  return add_process(std::move(proc));
}

sim::Task<void> GuestLinuxEnclave::pci_stage(u64 bytes, hw::Core* from, hw::Core* to) {
  const u64 copy_ns =
      static_cast<u64>(static_cast<double>(bytes) / costs::kPciWindowBytesPerNs);
  co_await from->run_irq(copy_ns);               // stage into the window
  co_await sim::delay(costs::kVmEntryExit);      // IRQ injection / hypercall
  co_await to->run_irq(copy_ns);                 // copy out on the other side
}

sim::Task<Result<mm::PfnList>> GuestLinuxEnclave::service_make_pfn_list(
    Process& owner, Vaddr va, u64 pages) {
  // Guest side: get_user_pages + page-table walk, yielding *guest* frames.
  mm::WalkStats st;
  auto gframes = owner.pt().translate_range(va, pages, &st);
  if (!gframes.ok()) co_return gframes.error();
  co_await service_core()->run_irq(pages * costs::kLinuxPinPerPage +
                                   st.entries_visited * costs::kPtEntryVisit);

  // Stage the guest frame list through the PCI device and hypercall out
  // (Figure 4(b), steps 1-2).
  co_await pci_stage(gframes.value().wire_bytes(), service_core(), host_core_);

  // Host side: Palacios walks the memory map per page (steps 3-4).
  palacios::MapWork work;
  auto host = vm_.guest_to_host(gframes.value(), &work);
  if (!host.ok()) co_return host.error();
  co_await host_core_->run_irq(vm_.map_work_cost(work));
  co_return std::move(host).value();
}

sim::Task<Result<Vaddr>> GuestLinuxEnclave::map_attachment(
    Process& attacher, const mm::PfnList& host_frames, bool lazy, bool writable) {
  (void)lazy;  // remote frames reach a guest only through the VMM: eager
  // Host side (Figure 4(a) steps 1-2): allocate new guest pages and map
  // them to the host frames — one memory-map entry per page.
  palacios::MapWork work;
  auto mapped = vm_.map_host_frames(host_frames, &work);
  if (!mapped.ok()) co_return mapped.error();
  const hw::FrameExtent window = mapped.value();
  const u64 map_ns = vm_.map_work_cost(work);
  vmm_map_ns_ += map_ns;
  co_await host_core_->run_irq(map_ns);

  // Steps 3-4: stage the new guest-frame list through the device and
  // raise the virtual IRQ.
  mm::PfnList gframes;
  gframes.append(window);
  co_await pci_stage(gframes.wire_bytes(), host_core_, service_core());

  // Step 5 (guest): map the new guest pages into the attaching process.
  const Vaddr va = attacher.alloc_va(host_frames.byte_span());
  const mm::PageFlags flags =
      writable ? mm::PageFlags::writable | mm::PageFlags::user : mm::PageFlags::user;
  mm::WalkStats st;
  auto r = attacher.pt().map_range(va, gframes, flags, &st);
  if (!r.ok()) {
    (void)vm_.unmap_host_frames(window);
    co_return r.error();
  }
  const u64 guest_map_cost =
      st.entries_visited * costs::kPtEntryVisit +
      window.count * (costs::kLinuxMapPerPage + costs::kVmGuestMapExtraPerPage);
  co_await attacher.core()->compute(guest_map_cost);

  attachments_.emplace(att_key(attacher, va), window);
  co_return va;
}

sim::Task<void> GuestLinuxEnclave::touch_attached(Process&, Vaddr, u64) {
  co_return;  // guest attachments are installed eagerly
}

sim::Task<Result<void>> GuestLinuxEnclave::unmap_attachment(Process& attacher,
                                                            Vaddr va, u64 pages) {
  auto it = attachments_.find(att_key(attacher, va));
  if (it == attachments_.end()) co_return Errc::not_attached;
  const hw::FrameExtent window = it->second;
  attachments_.erase(it);
  XEMEM_ASSERT(window.count == pages);

  mm::WalkStats st;
  auto r = attacher.pt().unmap_range(va, pages, &st);
  if (!r.ok()) co_return r;
  co_await attacher.core()->compute(st.entries_visited * costs::kPtEntryVisit);

  // Hypercall so Palacios can retire the hot-plug region and its map
  // entries.
  co_await pci_stage(window.count * sizeof(u64), service_core(), host_core_);
  auto work = vm_.unmap_host_frames(window);
  if (!work.ok()) co_return work.error();
  co_await host_core_->run_irq(vm_.map_work_cost(work.value()));
  co_return Result<void>{};
}

}  // namespace xemem::os
