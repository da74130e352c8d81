#include "os/kitten.hpp"

namespace xemem::os {

Result<Process*> KittenEnclave::create_process(u64 image_bytes, hw::Core* core) {
  constexpr u64 kSpan = mm::PageTable::kLargeSpan;
  // In large-page mode, round the image up to a 2 MiB multiple and demand
  // aligned frames so the whole image maps with large entries.
  u64 pages = pages_for(image_bytes);
  if (large_pages_) pages = (pages + kSpan - 1) / kSpan * kSpan;

  std::vector<hw::FrameExtent> extents;
  if (large_pages_) {
    auto fr = frames().alloc_contiguous_aligned(pages, kSpan);
    if (!fr.ok()) return fr.error();
    extents.push_back(fr.value());
  } else {
    auto fr = frames_alloc(pages);
    if (!fr.ok()) return fr.error();
    extents = std::move(fr).value();
  }

  auto proc = std::make_unique<Process>(next_pid(), this, pick_core(core));
  Process* p = proc.get();
  const Vaddr base = large_pages_
                         ? p->alloc_va_aligned(pages * kPageSize, kSpan * kPageSize)
                         : p->alloc_va(image_bytes);

  // Kitten maps the entire image statically at creation (large entries
  // where alignment permits).
  const mm::PfnList list(extents);
  const auto flags = mm::PageFlags::writable | mm::PageFlags::user;
  auto mapped = large_pages_ ? p->pt().map_range_best(base, list, flags)
                             : p->pt().map_range(base, list, flags);
  if (!mapped.ok()) {
    for (auto e : extents) frames().free(e);
    return mapped.error();
  }
  p->adopt_frames(extents);
  p->set_image(base, pages);
  return add_process(std::move(proc));
}

Result<std::vector<hw::FrameExtent>> KittenEnclave::frames_alloc(u64 pages) {
  // Contiguous-first (the LWK manages large blocks); scattered fallback
  // only if the pool has fragmented.
  auto r = frames().alloc(pages, hw::AllocPolicy::contiguous);
  if (r.ok()) return r;
  return frames().alloc(pages, hw::AllocPolicy::scattered);
}

sim::Task<Result<mm::PfnList>> KittenEnclave::service_make_pfn_list(Process& owner,
                                                                    Vaddr va,
                                                                    u64 pages) {
  // Kernel command-thread work on the service core: the page-table walk.
  // Kitten has no paging, so there is nothing to pin.
  mm::WalkStats st;
  auto walked = owner.pt().translate_range(va, pages, &st);
  if (!walked.ok()) co_return walked.error();
  co_await service_core()->run_irq(st.entries_visited * costs::kPtEntryVisit);
  co_return std::move(walked);
}

sim::Task<Result<Vaddr>> KittenEnclave::map_attachment(Process& attacher,
                                                       const mm::PfnList& host_frames,
                                                       bool lazy, bool writable) {
  (void)lazy;  // Kitten always maps eagerly — it has no fault path at all.
  // Dynamic heap expansion: carve a fresh virtual region above the static
  // image and install the remote frames there. In large-page mode, align
  // the region and use 2 MiB entries for eligible frame runs.
  constexpr u64 kSpan = mm::PageTable::kLargeSpan;
  const Vaddr va =
      large_pages_
          ? attacher.alloc_va_aligned(host_frames.byte_span(), kSpan * kPageSize)
          : attacher.alloc_va(host_frames.byte_span());
  const mm::PageFlags flags =
      writable ? mm::PageFlags::writable | mm::PageFlags::user : mm::PageFlags::user;
  mm::WalkStats st;
  auto r = large_pages_
               ? attacher.pt().map_range_best(va, host_frames, flags, &st)
               : attacher.pt().map_range(va, host_frames, flags, &st);
  if (!r.ok()) co_return r.error();
  const u64 cost = st.entries_visited * costs::kPtEntryVisit +
                   host_frames.page_count() * costs::kKittenMapPerPage;
  co_await attacher.core()->compute(cost);
  co_return va;
}

sim::Task<void> KittenEnclave::touch_attached(Process&, Vaddr, u64) {
  co_return;  // everything is mapped eagerly; first touch costs nothing extra
}

sim::Task<Result<void>> KittenEnclave::unmap_attachment(Process& attacher, Vaddr va,
                                                        u64 pages) {
  mm::WalkStats st;
  auto r = attacher.pt().unmap_range(va, pages, &st);
  if (!r.ok()) co_return r;
  co_await attacher.core()->compute(st.entries_visited * costs::kPtEntryVisit);
  co_return Result<void>{};
}

}  // namespace xemem::os
