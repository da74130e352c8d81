// Figure 7: Noise profile of a Kitten enclave serving XEMEM attachments.
//
// Paper setup (section 5.5): a single-core Kitten enclave exports regions
// of 4 KB, 2 MB, and 1 GB; the Selfish Detour benchmark runs on that core
// for 10 seconds while a Linux process attaches to each region, sleeps one
// second, and repeats.
//
// Paper result: Kitten's baseline is a dense band of ~12 us detours plus
// sparse ~100 us events (SMIs). 4 KB attachment service disappears into
// the baseline; 2 MB service is visible but below the SMI band; 1 GB
// service produces detours two orders of magnitude above everything else
// (the 23,000-24,000 us band of the figure's top panel).
#include <algorithm>

#include "bench_util.hpp"
#include "workloads/detour.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

struct Profile {
  workloads::DetourTrace trace;
  u64 attaches{0};
};

Profile run_profile(bool with_attachments) {
  sim::Engine eng(424242);
  Node node(hw::Machine::r420());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("kitten0", 0, {6}, (1ull << 30) + (64ull << 20));

  Profile out;
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    auto& kitten_os = node.enclave("kitten0");
    auto& kernel = node.kernel("kitten0");
    hw::Core& kcore = node.machine().core(6);

    // Kitten's own noise signature + machine SMIs on the measured core.
    Rng rng(9);
    hw::spawn_noise(eng, kcore, hw::kitten_noise(), rng, 11'000'000'000ull);
    hw::spawn_noise(eng, kcore, hw::smi_noise(), rng, 11'000'000'000ull);

    // Export the three regions from a process on the measured core.
    os::Process* exporter = kitten_os.create_process((1ull << 30) + (8ull << 20))
                                .value();
    const u64 sizes[] = {4096, 2ull << 20, 1ull << 30};
    Segid segids[3];
    for (int i = 0; i < 3; ++i) {
      auto sid = co_await kernel.xpmem_make(
          *exporter, exporter->image_base() + static_cast<u64>(i) * (4096 + (2ull << 20)),
          sizes[i]);
      XEMEM_ASSERT(sid.ok());
      segids[i] = sid.value();
    }

    // Linux attacher: attach each region, sleep 1 s, repeat (section 5.5).
    os::Process* attacher =
        node.enclave("linux").create_process(1ull << 20, &node.machine().core(2))
            .value();
    auto attacher_loop = [&]() -> sim::Task<void> {
      XpmemGrant grants[3];
      for (int i = 0; i < 3; ++i) {
        auto g = co_await mgmt.xpmem_get(segids[i]);
        XEMEM_ASSERT(g.ok());
        grants[i] = g.value();
      }
      for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 3; ++i) {
          auto att =
              co_await mgmt.xpmem_attach(*attacher, grants[i], 0, sizes[i]);
          XEMEM_ASSERT(att.ok());
          ++out.attaches;
          XEMEM_ASSERT((co_await mgmt.xpmem_detach(*attacher, att.value())).ok());
        }
        co_await sim::delay(1'000'000'000ull);  // sleep(1)
      }
    };
    if (with_attachments) eng.spawn(attacher_loop());

    // 10 seconds of Selfish Detour on the Kitten core.
    out.trace = co_await workloads::selfish_detour(kcore, 10'000'000'000ull);
  };
  eng.run(main());
  return out;
}

u64 count_band(const workloads::DetourTrace& t, double lo_us, double hi_us) {
  u64 n = 0;
  for (const auto& d : t.detours) {
    const double us = static_cast<double>(d.duration) / 1000.0;
    if (us >= lo_us && us < hi_us) ++n;
  }
  return n;
}

}  // namespace
}  // namespace xemem

int main(int argc, char** argv) {
  using namespace xemem;
  const bench::WallClock wall_clock;
  bench::parse_args(argc, argv);
  bench::header(
      "Figure 7: Noise profile of a Kitten enclave serving XEMEM attachments",
      "dense ~12 us baseline band; sparse ~100-160 us SMIs; 2 MB service "
      "detours ~45 us (below the SMI band); 1 GB service detours in the "
      "23,000-24,000 us band — two orders above any other event");

  auto base = run_profile(/*with_attachments=*/false);
  auto full = run_profile(/*with_attachments=*/true);

  auto summarize = [](const char* name, workloads::DetourTrace& t) {
    std::printf("%s: %zu detours over 10 s (%.3f%% of CPU time)\n", name,
                t.detours.size(), 100.0 * t.noise_fraction(10'000'000'000ull));
    const double bands[][2] = {{1, 30},      {30, 80},        {80, 300},
                               {300, 10000}, {10000, 100000}};
    const char* labels[] = {"1-30us (LWK baseline)", "30-80us (2MB service)",
                            "80-300us (SMI band)", "0.3-10ms",
                            "10-100ms (1GB service)"};
    for (int i = 0; i < 5; ++i) {
      u64 n = 0;
      double mean = 0;
      for (const auto& d : t.detours) {
        const double us = static_cast<double>(d.duration) / 1000.0;
        if (us >= bands[i][0] && us < bands[i][1]) {
          ++n;
          mean += us;
        }
      }
      if (n > 0) {
        std::printf("  %-26s %6llu events, mean %10.1f us\n", labels[i],
                    static_cast<unsigned long long>(n), mean / static_cast<double>(n));
      }
    }
  };

  std::printf("baseline (no attachments):\n");
  summarize("  detour trace", base.trace);
  std::printf("\nwith attachment service (4 KB / 2 MB / 1 GB every second):\n");
  summarize("  detour trace", full.trace);
  std::printf("  attachments served: %llu\n",
              static_cast<unsigned long long>(full.attaches));

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  checks.expect(count_band(base.trace, 8, 20) > 1000,
                "dense baseline band near 12 us");
  checks.expect(count_band(base.trace, 80, 300) >= 5 &&
                    count_band(base.trace, 80, 300) <= 40,
                "sparse SMI band near 100-160 us");
  checks.expect(count_band(base.trace, 1000, 1e6) == 0,
                "baseline has no millisecond-scale events");
  // 4 KB service (and the ~10 us chunked PFN-list transmissions of the
  // larger attachments) hide inside the baseline band: the band grows only
  // modestly and its mean stays near 12 us, so in the paper's plot these
  // events are indistinguishable from LWK housekeeping.
  const double base_small = static_cast<double>(count_band(base.trace, 8, 20));
  const double full_small = static_cast<double>(count_band(full.trace, 8, 20));
  checks.expect((full_small - base_small) / base_small < 0.25,
                "4 KB attachments (and chunk transmissions) vanish into the "
                "12 us baseline band");
  checks.expect(count_band(full.trace, 30, 80) >= 10,
                "2 MB service appears as ~45 us detours (below the SMI band)");
  const u64 huge = count_band(full.trace, 10000, 100000);
  checks.expect(huge == 10, "exactly the ten 1 GB services appear as ~23 ms detours");
  double huge_mean = 0;
  for (const auto& d : full.trace.detours) {
    const double us = static_cast<double>(d.duration) / 1000.0;
    if (us >= 10000) huge_mean += us;
  }
  if (huge > 0) huge_mean /= static_cast<double>(huge);
  checks.expect(huge_mean > 20000 && huge_mean < 27000,
                "1 GB detours land in the paper's 23,000-24,000 us band");
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
