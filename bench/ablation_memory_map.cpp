// Ablation A: red-black tree vs radix-tree Palacios memory map.
//
// Paper section 5.4 identifies per-page red-black-tree inserts as ~80% of
// the guest-attachment mapping cost and proposes, as future work, "more
// intelligent radix tree based data structures that can more appropriately
// mimic a page table's organization". This harness implements that future
// work (palacios::MapBackend::radix) and measures the Table 2 VM-attacher
// configuration under both backends.
//
// Expectation: the radix backend approaches the paper's "(w/o rb-tree
// inserts)" 8.79 GB/s figure, because a fixed-depth radix descent has no
// comparisons and no re-balancing.
#include "bench_util.hpp"
#include "os/guest_linux.hpp"
#include "workloads/insitu.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

constexpr u64 kRegion = 1ull << 30;

double run_backend(palacios::MapBackend backend, int reps) {
  sim::Engine eng(99);
  Node node(hw::Machine::r420());
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("kitten0", 0, {6}, kRegion + (64ull << 20));
  node.add_vm("vm0", "linux", 2ull << 30, {4, 5}, backend);

  double gbps = 0;
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* exporter =
        node.enclave("kitten0").create_process(kRegion + kPageSize).value();
    os::Process* attacher = node.enclave("vm0").create_process(4ull << 20).value();
    auto segid = co_await node.kernel("kitten0").xpmem_make(
        *exporter, exporter->image_base(), kRegion);
    auto grant = co_await node.kernel("vm0").xpmem_get(segid.value());
    u64 attach_ns = 0;
    for (int r = 0; r < reps; ++r) {
      const u64 t0 = sim::now();
      auto att = co_await node.kernel("vm0").xpmem_attach(*attacher, grant.value(),
                                                          0, kRegion);
      attach_ns += sim::now() - t0;
      XEMEM_ASSERT(att.ok());
      XEMEM_ASSERT(
          (co_await node.kernel("vm0").xpmem_detach(*attacher, att.value())).ok());
    }
    gbps = gb_per_s(kRegion * static_cast<u64>(reps), attach_ns);
  };
  eng.run(main());
  return gbps;
}

}  // namespace
}  // namespace xemem

int main(int argc, char** argv) {
  using namespace xemem;
  const bench::WallClock wall_clock;
  bench::parse_args(argc, argv);
  const int reps = bench::runs_override(5);
  bench::header(
      "Ablation A: Palacios memory-map structure (section 5.4 future work)",
      "rb-tree backend ~3.99 GB/s for 1 GB guest attachments; removing the "
      "insert cost would yield 8.79 GB/s — a radix map should approach that");

  const double rb = run_backend(palacios::MapBackend::rbtree, reps);
  const double rx = run_backend(palacios::MapBackend::radix, reps);
  std::printf("%-24s %10s\n", "memory-map backend", "GB/s");
  std::printf("%-24s %10.3f\n", "red-black tree", rb);
  std::printf("%-24s %10.3f\n", "radix (future work)", rx);
  std::printf("speedup from radix map: %.2fx\n", rx / rb);

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  checks.expect(rb > 3.0 && rb < 5.5, "rb-tree backend near the paper's 3.99 GB/s");
  checks.expect(rx > 7.0 && rx < 10.5,
                "radix backend approaches the paper's 8.79 GB/s w/o-inserts bound");
  checks.expect(rx / rb > 1.6, "the proposed radix map removes most of the overhead");
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
