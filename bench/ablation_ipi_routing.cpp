// Ablation B: core-0-restricted vs distributed IPI handling.
//
// Paper section 5.3 attributes the 1->2 enclave throughput dip of Figure 6
// partly to the co-kernel architecture restricting "all IPI-based
// communication with the Linux management enclave to core 0 of the
// system", and names "more intelligent mechanisms for interrupt handling"
// as future work. This harness reruns the Figure 6 8-enclave configuration
// with each co-kernel's management-side channel handled on a distinct
// Linux core, isolating the serialization component of the dip.
#include "bench_util.hpp"
#include "workloads/insitu.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

constexpr u64 kRegion = 512ull << 20;

double run_mode(bool distributed, u32 enclaves, int reps) {
  sim::Engine eng(500 + enclaves);
  Node node(hw::Machine::r420());
  auto& mgmt = node.add_linux_mgmt(
      "linux", 0, {0, 1, 2, 3, 12, 13, 14, 15, 16, 17, 18, 19});
  for (u32 i = 0; i < enclaves; ++i) {
    // Stock Pisces: every channel handled on core 0. Distributed: channel
    // i handled on Linux core i (0..3 spread).
    const i32 channel_core = distributed ? static_cast<i32>(i % 4) : 0;
    node.add_cokernel("k" + std::to_string(i), 0, {4 + i}, kRegion + (64ull << 20),
                      channel_core);
  }

  RunningStats per_attacher;
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    struct Pair {
      os::Process* exporter;
      os::Process* attacher;
      Segid segid;
    };
    std::vector<Pair> pairs(enclaves);
    for (u32 i = 0; i < enclaves; ++i) {
      pairs[i].exporter = node.enclave("k" + std::to_string(i))
                              .create_process(kRegion + kPageSize)
                              .value();
      pairs[i].attacher =
          node.enclave("linux")
              .create_process(1ull << 20, &node.machine().core(12 + i))
              .value();
      auto sid = co_await node.kernel("k" + std::to_string(i))
                     .xpmem_make(*pairs[i].exporter,
                                 pairs[i].exporter->image_base(), kRegion);
      pairs[i].segid = sid.value();
    }
    sim::Barrier done(enclaves + 1);
    auto loop = [&](u32 i) -> sim::Task<void> {
      auto grant = co_await mgmt.xpmem_get(pairs[i].segid);
      u64 attach_ns = 0;
      for (int r = 0; r < reps; ++r) {
        const u64 t0 = sim::now();
        auto att = co_await mgmt.xpmem_attach(*pairs[i].attacher, grant.value(), 0,
                                              kRegion);
        attach_ns += sim::now() - t0;
        XEMEM_ASSERT(att.ok());
        XEMEM_ASSERT(
            (co_await mgmt.xpmem_detach(*pairs[i].attacher, att.value())).ok());
      }
      per_attacher.add(gb_per_s(kRegion * static_cast<u64>(reps), attach_ns));
      co_await done.arrive_and_wait();
    };
    for (u32 i = 0; i < enclaves; ++i) sim::Engine::current()->spawn(loop(i));
    co_await done.arrive_and_wait();
  };
  eng.run(main());
  return per_attacher.mean();
}

}  // namespace
}  // namespace xemem

int main(int argc, char** argv) {
  using namespace xemem;
  const bench::WallClock wall_clock;
  bench::parse_args(argc, argv);
  const int reps = bench::runs_override(5);
  bench::header(
      "Ablation B: IPI handling, core-0-restricted vs distributed "
      "(section 5.3 future work)",
      "distributing channel handling across management cores should recover "
      "part of the multi-enclave contention dip (the rest is shared Linux "
      "mm-structure interference, which distribution cannot remove)");

  std::printf("%-10s %18s %18s\n", "enclaves", "core0_gbps", "distributed_gbps");
  double core0[3], dist[3];
  const u32 counts[] = {2, 4, 8};
  for (int i = 0; i < 3; ++i) {
    core0[i] = run_mode(false, counts[i], reps);
    dist[i] = run_mode(true, counts[i], reps);
    std::printf("%-10u %18.2f %18.2f\n", counts[i], core0[i], dist[i]);
  }
  const double solo = run_mode(false, 1, reps);
  std::printf("%-10s %18.2f %18s\n", "1 (ref)", solo, "-");

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  bool improves = true;
  for (int i = 0; i < 3; ++i) improves = improves && dist[i] >= core0[i];
  checks.expect(improves, "distributed handling never hurts");
  checks.expect(dist[2] > core0[2] + 0.01,
                "distributed handling recovers measurable throughput at 8 enclaves");
  checks.expect(dist[2] < solo,
                "a residual dip remains (Linux mm interference is not an IPI issue)");
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
