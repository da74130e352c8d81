// Baseline comparison: local-node sharing mechanisms (paper sections 2, 3.3).
//
// The paper positions XEMEM against two single-OS/R mechanisms:
//
//  * SMARTMAP (Kitten): shared top-level page-table entries give O(1)
//    setup and zero-copy access — but only between processes of one
//    lightweight kernel, which is why Kitten *keeps* SMARTMAP for local
//    sharing while XEMEM handles cross-enclave sharing.
//  * KNEM (Linux): kernel-assisted single-copy transfers — no mapping
//    setup, but every byte moved pays a copy.
//  * XEMEM local attachments: per-page mapping setup (amortized across
//    uses), then zero-copy access.
//
// The harness reports setup cost and per-use cost for each mechanism, and
// the break-even number of uses where XEMEM's dynamic mapping beats KNEM's
// copies — quantifying the design argument of section 3.3.
#include "bench_util.hpp"
#include "os/knem.hpp"
#include "workloads/insitu.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

struct Row {
  double smartmap_setup_us;
  double xemem_setup_us;
  double knem_per_copy_us;
  double xemem_per_use_us;  // one full read pass through the mapping
};

Row run_size(u64 bytes) {
  sim::Engine eng(12);
  Node node(hw::Machine::r420());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("kitten0", 0, {6, 7}, bytes + (64ull << 20));

  Row row{};
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    auto* kitten = static_cast<os::KittenEnclave*>(&node.enclave("kitten0"));
    auto& linux_os = node.enclave("linux");

    // --- SMARTMAP: O(1) aliasing between two Kitten processes.
    os::Process* ka = kitten->create_process(bytes + kPageSize).value();
    os::Process* kb = kitten->create_process(1ull << 20).value();
    (void)kb;
    const u64 t0 = sim::now();
    co_await node.machine().core(7).compute(os::KittenEnclave::kSmartmapSetupCost);
    row.smartmap_setup_us = static_cast<double>(sim::now() - t0) / 1000.0;
    // (access through the window is plain zero-copy afterwards)
    XEMEM_ASSERT(
        kitten->smartmap_resolve(os::KittenEnclave::smartmap_va(*ka, ka->image_base()))
            .first == ka);

    // --- XEMEM local attachment within the Linux enclave.
    os::Process* la = linux_os.create_process(bytes + kPageSize).value();
    os::Process* lb = linux_os.create_process(1ull << 20).value();
    auto sid = co_await mgmt.xpmem_make(*la, la->image_base(), bytes);
    auto grant = co_await mgmt.xpmem_get(sid.value());
    const u64 t1 = sim::now();
    auto att = co_await mgmt.xpmem_attach(*lb, grant.value(), 0, bytes);
    XEMEM_ASSERT(att.ok());
    co_await linux_os.touch_attached(*lb, att.value().va, att.value().pages);
    row.xemem_setup_us = static_cast<double>(sim::now() - t1) / 1000.0;
    // Per-use cost: stream the region once through the zero-copy mapping.
    const u64 t2 = sim::now();
    co_await linux_os.membw().transfer(bytes);
    row.xemem_per_use_us = static_cast<double>(sim::now() - t2) / 1000.0;

    // --- KNEM single-copy between the same two Linux processes.
    os::KnemService knem(linux_os);
    auto cookie = knem.declare(*la, la->image_base(), bytes);
    XEMEM_ASSERT(cookie.ok());
    const u64 t3 = sim::now();
    auto cp = co_await knem.copy_from(cookie.value(), 0, bytes, *lb,
                                      lb->image_base());
    XEMEM_ASSERT(cp.ok());
    row.knem_per_copy_us = static_cast<double>(sim::now() - t3) / 1000.0;
  };
  eng.run(main());
  return row;
}

}  // namespace
}  // namespace xemem

int main(int argc, char** argv) {
  using namespace xemem;
  const bench::WallClock wall_clock;
  bench::parse_args(argc, argv);
  bench::header(
      "Baseline: local-node sharing mechanisms (SMARTMAP / XEMEM / KNEM)",
      "SMARTMAP setup is O(1); XEMEM setup is per-page but amortizes into "
      "zero-copy use; KNEM pays a copy per transfer (sections 2, 3.3)");

  const u64 sizes[] = {64ull << 10, 1ull << 20, 16ull << 20, 256ull << 20};
  std::printf("%-10s %18s %16s %16s %16s %12s\n", "size", "smartmap_setup_us",
              "xemem_setup_us", "xemem_use_us", "knem_copy_us", "break_even");
  Row rows[4];
  for (int i = 0; i < 4; ++i) {
    rows[i] = run_size(sizes[i]);
    // Uses after which attach+N zero-copy passes beat N single copies.
    const double be = rows[i].xemem_setup_us /
                      std::max(rows[i].knem_per_copy_us - rows[i].xemem_per_use_us,
                               1e-9);
    std::printf("%-10llu %18.3f %16.1f %16.1f %16.1f %12.1f\n",
                static_cast<unsigned long long>(sizes[i] >> 10), // KiB
                rows[i].smartmap_setup_us, rows[i].xemem_setup_us,
                rows[i].xemem_per_use_us, rows[i].knem_per_copy_us, be);
  }
  std::printf("(size in KiB; break_even = uses after which XEMEM's mapping "
              "amortizes against KNEM copies)\n");

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  checks.expect(rows[3].smartmap_setup_us == rows[0].smartmap_setup_us,
                "SMARTMAP setup is size-independent (one top-level entry)");
  checks.expect(rows[3].xemem_setup_us > 100 * rows[0].xemem_setup_us,
                "XEMEM setup scales with region size (per-page mapping)");
  checks.expect(rows[3].knem_per_copy_us > 2 * rows[3].xemem_per_use_us,
                "KNEM pays ~2x the traffic of zero-copy use at large sizes");
  const double be_large = rows[3].xemem_setup_us /
                          (rows[3].knem_per_copy_us - rows[3].xemem_per_use_us);
  checks.expect(be_large < 20,
                "XEMEM amortizes within a few uses even for 256 MiB regions");
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
