#include "os/linux.hpp"

namespace xemem::os {

Result<Process*> LinuxEnclave::create_process(u64 image_bytes, hw::Core* core) {
  const u64 pages = pages_for(image_bytes);
  auto fr = frames().alloc(pages, hw::AllocPolicy::scattered);
  if (!fr.ok()) return fr.error();

  auto proc = std::make_unique<Process>(next_pid(), this, pick_core(core));
  Process* p = proc.get();
  const Vaddr base = p->alloc_va(image_bytes);
  const auto list = mm::PfnList::from_extents(fr.value());
  auto mapped = p->pt().map_range(
      base, list.pfns, mm::PageFlags::writable | mm::PageFlags::user);
  if (!mapped.ok()) {
    for (auto e : fr.value()) frames().free(e);
    return mapped.error();
  }
  p->adopt_frames(fr.value());
  p->set_image(base, pages);
  return add_process(std::move(proc));
}

sim::Task<Result<mm::PfnList>> LinuxEnclave::service_make_pfn_list(Process& owner,
                                                                   Vaddr va,
                                                                   u64 pages) {
  // get_user_pages: pin the range (pages are generally already present —
  // the function's main purpose is preventing page-out; see the paper's
  // footnote 1), then walk the page tables to build the list.
  mm::WalkStats st;
  auto pfns = owner.pt().translate_range(va, pages, &st);
  if (!pfns.ok()) co_return pfns.error();
  const u64 cost = pages * costs::kLinuxPinPerPage +
                   st.entries_visited * costs::kPtEntryVisit;
  co_await service_core()->run_irq(cost);
  co_return mm::PfnList{std::move(pfns).value()};
}

sim::Task<Result<Vaddr>> LinuxEnclave::map_attachment(Process& attacher,
                                                      const mm::PfnList& host_frames,
                                                      bool lazy, bool writable) {
  const Vaddr va = attacher.alloc_va(host_frames.byte_span());
  if (lazy) {
    // Single-OS fault semantics: vm_mmap reserves the VMA now; PTEs are
    // installed page-by-page on first touch (touch_attached).
    lazy_.emplace(lazy_key(attacher, va),
                  LazyRange{host_frames, host_frames.page_count(), writable});
    co_await attacher.core()->compute(costs::kNameServerOp);  // VMA setup
    co_return va;
  }

  // Remote attachment: vm_mmap + remap_pfn_range, eager.
  ++attach_inflight_;
  const mm::PageFlags flags =
      writable ? mm::PageFlags::writable | mm::PageFlags::user : mm::PageFlags::user;
  mm::WalkStats st;
  auto r = attacher.pt().map_range(va, host_frames.pfns, flags, &st);
  if (!r.ok()) {
    --attach_inflight_;
    co_return r.error();
  }
  const double per_page = static_cast<double>(costs::kLinuxMapPerPage) * smp_factor();
  const u64 cost =
      st.entries_visited * costs::kPtEntryVisit +
      static_cast<u64>(static_cast<double>(host_frames.page_count()) * per_page);
  co_await attacher.core()->compute(cost);
  --attach_inflight_;
  co_return va;
}

sim::Task<Result<Vaddr>> LinuxEnclave::map_attachment_extents(
    Process& attacher, const std::vector<hw::FrameExtent>& extents, bool lazy,
    bool writable) {
  if (lazy) {
    // Single-OS fault semantics tracks per-page fault-in state: keep the
    // flat-list path, which the lazy_ bookkeeping is built around.
    co_return co_await map_attachment(attacher, mm::PfnList::from_extents(extents),
                                      lazy, writable);
  }
  // Eager remote attachment, run-at-a-time: same remap_pfn_range cost
  // model as map_attachment, without materializing per-page PFNs first.
  u64 pages = 0;
  for (const auto& e : extents) pages += e.count;
  const Vaddr va = attacher.alloc_va(pages * kPageSize);
  ++attach_inflight_;
  const mm::PageFlags flags =
      writable ? mm::PageFlags::writable | mm::PageFlags::user : mm::PageFlags::user;
  mm::WalkStats st;
  Vaddr cur = va;
  std::vector<Pfn> run;
  for (const auto& e : extents) {
    run.clear();
    run.reserve(e.count);
    for (u64 i = 0; i < e.count; ++i) run.push_back(e.start + i);
    auto r = attacher.pt().map_range(cur, run, flags, &st);
    if (!r.ok()) {
      --attach_inflight_;
      co_return r.error();
    }
    cur += e.count * kPageSize;
  }
  const double per_page = static_cast<double>(costs::kLinuxMapPerPage) * smp_factor();
  const u64 cost = st.entries_visited * costs::kPtEntryVisit +
                   static_cast<u64>(static_cast<double>(pages) * per_page);
  co_await attacher.core()->compute(cost);
  --attach_inflight_;
  co_return va;
}

sim::Task<void> LinuxEnclave::touch_attached(Process& attacher, Vaddr va, u64 pages) {
  auto it = lazy_.find(lazy_key(attacher, va));
  if (it == lazy_.end()) co_return;  // eagerly-mapped range: no fault cost
  LazyRange& rec = it->second;
  const u64 to_fault = std::min(pages, rec.remaining);
  if (to_fault == 0) co_return;
  // Install the PTEs for the faulting pages (front of the range first).
  const u64 first = rec.frames.page_count() - rec.remaining;
  const mm::PageFlags flags = rec.writable
                                  ? mm::PageFlags::writable | mm::PageFlags::user
                                  : mm::PageFlags::user;
  // A page that is already mapped (double touch) stops the fault-in silently.
  mm::WalkStats st;
  (void)attacher.pt().map_prefix(va + first * kPageSize,
                                 std::span(rec.frames.pfns).subspan(first, to_fault),
                                 flags, &st);
  rec.remaining -= to_fault;
  co_await attacher.core()->compute(to_fault * costs::kLinuxFaultPerPage +
                                    st.entries_visited * costs::kPtEntryVisit);
}

sim::Task<Result<void>> LinuxEnclave::unmap_attachment(Process& attacher, Vaddr va,
                                                       u64 pages) {
  // Lazily-attached ranges may be only partially populated.
  auto it = lazy_.find(lazy_key(attacher, va));
  u64 mapped_pages = pages;
  if (it != lazy_.end()) {
    mapped_pages = it->second.frames.page_count() - it->second.remaining;
    lazy_.erase(it);
  }
  mm::WalkStats st;
  if (mapped_pages > 0) {
    auto r = attacher.pt().unmap_range(va, mapped_pages, &st);
    if (!r.ok()) co_return r;
  }
  co_await attacher.core()->compute(st.entries_visited * costs::kPtEntryVisit);
  co_return Result<void>{};
}

}  // namespace xemem::os
