// Figure 5: Cross-enclave throughput using shared memory vs RDMA Verbs/IB.
//
// Paper setup (section 5.2): one Kitten co-kernel enclave plus the Linux
// control enclave. A Kitten process exports a region of 128 MB - 1 GB; a
// Linux process repeatedly attaches to it, measuring attach time and
// attach+read time. The RDMA comparison writes the same sizes between two
// SR-IOV virtual functions assigned to KVM VMs.
//
// Paper result: XEMEM attach ~13 GB/s, attach+read ~12 GB/s, both flat in
// region size; RDMA slightly below 3.5 GB/s. The point: XEMEM's dynamic
// mapping overhead does not reduce shared-memory throughput to the level
// of a network-based transport.
//
// Note on repetitions: the paper attaches 500 times to average out
// hardware jitter; this simulator is deterministic per seed, so fewer
// repetitions suffice (XEMEM_BENCH_RUNS overrides).
#include "bench_util.hpp"
#include "common/costs.hpp"
#include "net/ib.hpp"
#include "workloads/insitu.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

struct SizeResult {
  double attach_gbps;
  double attach_read_gbps;
  double rdma_gbps;
};

SizeResult run_size(u64 region_bytes, int reps) {
  sim::Engine eng(2025);
  Node node(hw::Machine::r420());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3, 4, 5});
  auto& kitten = node.add_cokernel("kitten0", 0, {6}, region_bytes + (64ull << 20));

  SizeResult out{};
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    auto& kitten_os = node.enclave("kitten0");
    auto& linux_os = node.enclave("linux");
    os::Process* exporter = kitten_os.create_process(region_bytes + kPageSize).value();
    os::Process* attacher =
        linux_os.create_process(1ull << 20, &node.machine().core(2)).value();

    auto segid =
        co_await kitten.xpmem_make(*exporter, exporter->image_base(), region_bytes);
    auto grant = co_await mgmt.xpmem_get(segid.value());

    const u64 pages = pages_for(region_bytes);
    u64 attach_ns_total = 0;
    u64 read_ns_total = 0;
    for (int r = 0; r < reps; ++r) {
      const u64 t0 = sim::now();
      auto att = co_await mgmt.xpmem_attach(*attacher, grant.value(), 0, region_bytes);
      XEMEM_ASSERT(att.ok());
      const u64 t1 = sim::now();
      // "Read out the memory contents": per-page verification touch (one
      // cache line per page; see costs.hpp for the calibration argument).
      co_await linux_os.membw().transfer(pages * costs::kReadTouchBytesPerPage);
      co_await attacher->core()->compute(pages * costs::kReadLoopPerPage);
      const u64 t2 = sim::now();
      attach_ns_total += t1 - t0;
      read_ns_total += t2 - t1;
      XEMEM_ASSERT((co_await mgmt.xpmem_detach(*attacher, att.value())).ok());
    }
    out.attach_gbps = gb_per_s(region_bytes * reps, attach_ns_total);
    out.attach_read_gbps =
        gb_per_s(region_bytes * reps, attach_ns_total + read_ns_total);

    // RDMA comparison: write bandwidth between two SR-IOV VFs.
    net::IbDevice ib;
    ib.enable_sriov(2);
    const u64 t0 = sim::now();
    for (int r = 0; r < reps; ++r) co_await ib.vf(0).rdma_write(region_bytes);
    out.rdma_gbps = gb_per_s(region_bytes * reps, sim::now() - t0);
  };
  eng.run(main());
  return out;
}

}  // namespace
}  // namespace xemem

int main(int argc, char** argv) {
  using namespace xemem;
  const bench::WallClock wall_clock;
  bench::parse_args(argc, argv);
  const int reps = bench::runs_override(10);
  bench::header(
      "Figure 5: Cross-enclave throughput, XEMEM shared memory vs RDMA Verbs/IB",
      "XEMEM attach ~13 GB/s, attach+read ~12 GB/s, RDMA just under 3.5 GB/s; "
      "all flat across 128 MB - 1 GB");

  std::printf("%-10s %18s %24s %12s\n", "size_mb", "xemem_attach_gbps",
              "xemem_attach_read_gbps", "rdma_gbps");
  const u64 sizes[] = {128ull << 20, 256ull << 20, 512ull << 20, 1024ull << 20};
  double min_attach = 1e9, max_attach = 0, last_rdma = 0, last_attach = 0,
         last_read = 0;
  for (u64 s : sizes) {
    auto r = run_size(s, reps);
    std::printf("%-10llu %18.2f %24.2f %12.2f\n",
                static_cast<unsigned long long>(s >> 20), r.attach_gbps,
                r.attach_read_gbps, r.rdma_gbps);
    min_attach = std::min(min_attach, r.attach_gbps);
    max_attach = std::max(max_attach, r.attach_gbps);
    last_attach = r.attach_gbps;
    last_read = r.attach_read_gbps;
    last_rdma = r.rdma_gbps;
  }

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  checks.expect(last_attach > 11.0 && last_attach < 15.0,
                "attach throughput lands near the paper's ~13 GB/s");
  checks.expect(last_read < last_attach && last_read > 10.5,
                "attach+read slightly below attach, near ~12 GB/s");
  checks.expect(last_rdma > 3.0 && last_rdma < 3.5,
                "RDMA lands slightly under 3.5 GB/s");
  checks.expect(last_attach > 3.0 * last_rdma,
                "XEMEM sustains >3x the RDMA transport");
  checks.expect((max_attach - min_attach) / max_attach < 0.10,
                "attach throughput flat across region sizes (good scalability)");
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
