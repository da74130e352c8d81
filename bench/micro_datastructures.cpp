// Micro-benchmarks (google-benchmark) for the data structures whose real
// structural work drives the simulator's cost model:
//
//  * red-black tree insert/find/erase (the Palacios memory map) vs the
//    radix alternative — the host-CPU analogue of the section 5.4 effect —
//    and a whole guest attach/detach window through PalaciosVm;
//  * 4-level page-table map/translate (every attachment's exporter walk
//    and attacher map);
//  * frame-zone allocation policies;
//  * CG iteration and STREAM pass (the real arithmetic inside the in-situ
//    workload);
//  * aligned frame allocation and large-page mapping (ablation C support).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "hw/phys_mem.hpp"
#include "mm/page_table.hpp"
#include "mm/pfn_list.hpp"
#include "palacios/memory_map.hpp"
#include "palacios/rbtree.hpp"
#include "palacios/vm.hpp"
#include "workloads/hpccg.hpp"
#include "workloads/stream.hpp"

namespace xemem {
namespace {

void BM_RbTreeInsert(benchmark::State& state) {
  const u64 n = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    palacios::RbTree<u64, u64> tree;
    state.ResumeTiming();
    for (u64 i = 0; i < n; ++i) tree.insert(i * kPageSize, i);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_RbTreeInsert)->Range(1 << 10, 1 << 18);

void BM_RadixInsert(benchmark::State& state) {
  const u64 n = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    palacios::GuestMemoryMap map(palacios::MapBackend::radix);
    state.ResumeTiming();
    for (u64 i = 0; i < n; ++i) {
      (void)map.insert_region(GuestPaddr{i * kPageSize}, HostPaddr{i * kPageSize},
                              kPageSize);
    }
    benchmark::DoNotOptimize(map.entries());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_RadixInsert)->Range(1 << 10, 1 << 18);

void BM_RbTreeFind(benchmark::State& state) {
  palacios::RbTree<u64, u64> tree;
  const u64 n = static_cast<u64>(state.range(0));
  for (u64 i = 0; i < n; ++i) tree.insert(i, i);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(rng.uniform_u64(n)));
  }
}
BENCHMARK(BM_RbTreeFind)->Range(1 << 10, 1 << 18);

// One hot-plug window (Figure 4(a)): map_host_frames puts one memory-map
// entry per page next to the guest's 1 GiB RAM region, and
// unmap_host_frames takes them out again. Reported per page.
void BM_MemoryMapWindow(benchmark::State& state) {
  const u64 pages = static_cast<u64>(state.range(0));
  const auto backend =
      state.range(1) == 0 ? palacios::MapBackend::rbtree : palacios::MapBackend::radix;
  hw::PhysicalMemory pm;
  pm.add_zone(4ull << 30);
  palacios::PalaciosVm vm({"vm", 1ull << 30, 1ull << 30, backend}, pm.zone(0));
  if (!vm.init().ok()) {
    state.SkipWithError("guest RAM does not fit");
    return;
  }
  const auto frames = pm.zone(0).alloc(pages, hw::AllocPolicy::scattered).value();
  const mm::PfnList host(frames);
  for (auto _ : state) {
    palacios::MapWork work;
    auto window = vm.map_host_frames(host, &work);
    benchmark::DoNotOptimize(work.steps);
    benchmark::DoNotOptimize(vm.unmap_host_frames(window.value()).ok());
  }
  for (auto e : frames) pm.zone(0).free(e);
  state.SetLabel(backend == palacios::MapBackend::rbtree ? "rbtree" : "radix");
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(pages));
}
BENCHMARK(BM_MemoryMapWindow)->ArgsProduct({{1 << 14, 1 << 17}, {0, 1}});

void BM_PageTableMapRange(benchmark::State& state) {
  const u64 pages = static_cast<u64>(state.range(0));
  mm::PfnList frames;  // scattered: one run per page
  for (u64 i = 0; i < pages; ++i) frames.push_back(Pfn{i * 2});
  for (auto _ : state) {
    state.PauseTiming();
    mm::PageTable pt;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        pt.map_range(Vaddr{0x10000000}, frames, mm::PageFlags::writable).ok());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(pages));
}
BENCHMARK(BM_PageTableMapRange)->Range(1 << 10, 1 << 16);

void BM_PageTableTranslateRange(benchmark::State& state) {
  const u64 pages = static_cast<u64>(state.range(0));
  mm::PageTable pt;
  mm::PfnList frames;
  for (u64 i = 0; i < pages; ++i) frames.push_back(Pfn{i * 2});
  (void)pt.map_range(Vaddr{0x10000000}, frames, mm::PageFlags::writable);
  for (auto _ : state) {
    auto r = pt.translate_range(Vaddr{0x10000000}, pages);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(pages));
}
BENCHMARK(BM_PageTableTranslateRange)->Range(1 << 10, 1 << 16);

void BM_FrameZoneAlloc(benchmark::State& state) {
  const bool scattered = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    hw::FrameZone zone(Pfn{0}, 1 << 20);
    state.ResumeTiming();
    auto r = zone.alloc(1 << 16,
                        scattered ? hw::AllocPolicy::scattered
                                  : hw::AllocPolicy::contiguous);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_FrameZoneAlloc)->Arg(0)->Arg(1);

void BM_CgIteration(benchmark::State& state) {
  const u32 g = static_cast<u32>(state.range(0));
  workloads::CgSolver cg(workloads::CgSolver::Grid{g, g, g});
  for (auto _ : state) {
    if (cg.residual_norm() < 1e-10) cg.reset();
    benchmark::DoNotOptimize(cg.iterate());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(cg.flops_per_iteration()));
}
BENCHMARK(BM_CgIteration)->Arg(8)->Arg(12)->Arg(16);

void BM_StreamPass(benchmark::State& state) {
  workloads::Stream stream(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    stream.pass();
    benchmark::DoNotOptimize(stream.checksum());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(state.range(0)) * 8 * 10);
}
BENCHMARK(BM_StreamPass)->Range(1 << 12, 1 << 18);

void BM_FrameZoneAlignedAlloc(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    hw::FrameZone zone(Pfn{3}, 1 << 20);
    state.ResumeTiming();
    auto r = zone.alloc_contiguous_aligned(1 << 16, 512);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_FrameZoneAlignedAlloc);

void BM_PageTableMapRangeBest_Large(benchmark::State& state) {
  const u64 pages = static_cast<u64>(state.range(0));
  mm::PfnList frames;
  frames.append(hw::FrameExtent{Pfn{1 << 20}, pages});
  for (auto _ : state) {
    state.PauseTiming();
    mm::PageTable pt;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        pt.map_range_best(Vaddr{0x40000000}, frames, mm::PageFlags::writable).ok());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(pages));
}
BENCHMARK(BM_PageTableMapRangeBest_Large)->Range(1 << 12, 1 << 16);

}  // namespace
}  // namespace xemem

BENCHMARK_MAIN();
