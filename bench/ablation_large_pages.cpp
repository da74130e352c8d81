// Ablation C: 2 MiB large-page mappings (extension beyond the paper).
//
// The paper's costs are page-granular: a 1 GiB attachment walks and maps
// 262,144 entries, which is both the Figure 5 critical path and the 23 ms
// Figure 7 detour. With 2 MiB mappings the same region is 512 entries.
// This harness measures three configurations of the Figure 5 experiment:
//
//   4K / 4K       — the paper's system (baseline);
//   2M export /4K — Kitten exports large pages, Linux still maps 4 KiB
//                   (the exporter-side walk collapses; the attacher-side
//                   map still dominates);
//   2M / 2M       — Kitten-to-Kitten with large pages on both sides (the
//                   whole mapping path collapses).
//
// It also reports the exporter-side service time for one 1 GiB attachment
// (the Figure 7 detour that would perturb an HPC simulation).
#include "bench_util.hpp"
#include "os/kitten.hpp"
#include "workloads/insitu.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

constexpr u64 kRegion = 1ull << 30;

struct Row {
  double gbps;
  double walk_ms;  // exporter-side service (the Figure 7 detour)
};

Row run_config(bool exporter_large, bool attacher_kitten, bool attacher_large,
               int reps) {
  sim::Engine eng(321);
  Node node(hw::Machine::r420());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("exp", 0, {6}, kRegion + (256ull << 20));
  if (attacher_kitten) node.add_cokernel("att", 0, {7}, 64ull << 20);
  XememKernel& att_kernel = attacher_kitten ? node.kernel("att") : mgmt;
  const std::string att_name = attacher_kitten ? "att" : "linux";

  Row row{};
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    auto* exp = static_cast<os::KittenEnclave*>(&node.enclave("exp"));
    exp->set_large_pages(exporter_large);
    if (attacher_kitten) {
      static_cast<os::KittenEnclave*>(&node.enclave(att_name))
          ->set_large_pages(attacher_large);
    }
    os::Process* owner = exp->create_process(kRegion + kPageSize).value();
    os::Process* user = node.enclave(att_name).create_process(1ull << 20).value();

    auto sid = co_await node.kernel("exp").xpmem_make(*owner, owner->image_base(),
                                                      kRegion);
    auto grant = co_await att_kernel.xpmem_get(sid.value());
    XEMEM_ASSERT(grant.ok());

    hw::Core& exp_core = node.machine().core(6);
    u64 attach_ns = 0;
    u64 walk_ns = 0;
    for (int r = 0; r < reps; ++r) {
      const u64 stolen0 = exp_core.stolen_ns();
      const u64 t0 = sim::now();
      auto att = co_await att_kernel.xpmem_attach(*user, grant.value(), 0, kRegion);
      attach_ns += sim::now() - t0;
      XEMEM_ASSERT(att.ok());
      walk_ns += exp_core.stolen_ns() - stolen0;
      XEMEM_ASSERT((co_await att_kernel.xpmem_detach(*user, att.value())).ok());
    }
    row.gbps = gb_per_s(kRegion * static_cast<u64>(reps), attach_ns);
    row.walk_ms = static_cast<double>(walk_ns) / static_cast<double>(reps) / 1e6;
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
  const int reps = bench::runs_override(5);
  bench::header(
      "Ablation C: 2 MiB large-page mappings (extension; 1 GiB attachments)",
      "baseline ~13 GB/s with a ~23 ms exporter-side walk; large-page "
      "exports collapse the walk; large pages on both sides collapse the "
      "whole mapping path");

  const Row base = run_config(false, false, false, reps);
  const Row exp_large = run_config(true, false, false, reps);
  const Row both_large = run_config(true, true, true, reps);
  const Row k2k_4k = run_config(false, true, false, reps);

  std::printf("%-34s %10s %18s\n", "configuration", "GB/s", "exporter_svc_ms");
  std::printf("%-34s %10.2f %18.3f\n", "4K export / 4K attach (paper)", base.gbps,
              base.walk_ms);
  std::printf("%-34s %10.2f %18.3f\n", "2M export / 4K attach (Linux)",
              exp_large.gbps, exp_large.walk_ms);
  std::printf("%-34s %10.2f %18.3f\n", "4K export / 4K attach (Kitten)", k2k_4k.gbps,
              k2k_4k.walk_ms);
  std::printf("%-34s %10.2f %18.3f\n", "2M export / 2M attach (Kitten)",
              both_large.gbps, both_large.walk_ms);

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  checks.expect(base.gbps > 11 && base.gbps < 15,
                "baseline reproduces the Figure 5 plateau");
  checks.expect(base.walk_ms > 20 && base.walk_ms < 27,
                "baseline exporter service is the Figure 7 ~23 ms detour");
  checks.expect(exp_large.walk_ms < 0.5,
                "large-page exports collapse the exporter-side walk (the "
                "Figure 7 detour all but disappears)");
  checks.expect(exp_large.gbps > 1.3 * base.gbps,
                "collapsing the walk lifts end-to-end throughput");
  checks.expect(both_large.gbps > 4 * base.gbps,
                "large pages on both sides collapse the whole mapping path");
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
