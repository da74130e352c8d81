// OS and hardware noise models.
//
// The paper's Figure 7 measures the Kitten enclave's noise profile with
// the ANL Selfish Detour benchmark and finds (a) a dense band of ~12 us
// detours, (b) sparse ~100 us events attributed to SMIs, and (c) detours
// injected by XEMEM attachment servicing. Figures 8 and 9 show that the
// Linux-only configurations suffer both longer mean runtimes and much
// higher run-to-run variance, attributed to the interference a fullweight
// OS imposes on co-located workloads.
//
// Each noise component below (hw::NoiseComponent, declared in hw/core.hpp)
// becomes an independent arrival stream owned by one core. The core
// applies its occurrences in interrupt context, in FIFO order with the
// protocol handlers, whenever something observes it, so noise steals time
// from whatever application compute is in flight there without creating
// engine events (see hw::Core and DESIGN.md §14).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/core.hpp"
#include "sim/engine.hpp"

namespace xemem::hw {

/// A named set of components (an OS personality's noise signature).
struct NoiseProfile {
  const char* name;
  std::vector<NoiseComponent> components;
};

/// Hardware-only noise every enclave inherits: System Management
/// Interrupts. Calibrated to the sparse ~100-160 us band Figure 7 shows
/// even on Kitten (the paper: "less frequent interruptions likely caused
/// by periodic hardware events such as SMIs around the 100 us mark").
inline NoiseProfile smi_noise() {
  return NoiseProfile{
      "smi",
      {NoiseComponent{"smi", /*period=*/static_cast<double>(700_ms), 0.3,
                      /*poisson=*/false, /*median=*/static_cast<double>(110_us),
                      /*sigma=*/0.15}}};
}

/// Kitten LWK noise: the dense band of short detours Figure 7 shows
/// around 12 us (minimal kernel housekeeping). Total utilization is
/// ~0.25% — "largely non-existent" as the paper puts it. SMIs are a
/// hardware property: apply smi_noise() separately to every core of the
/// machine (xemem::Node::spawn_std_noise does this).
inline NoiseProfile kitten_noise() {
  return NoiseProfile{"kitten",
                      {NoiseComponent{"lwk-housekeeping", static_cast<double>(5_ms),
                                      0.5, /*poisson=*/false,
                                      static_cast<double>(12_us), 0.05}}};
}

/// Fullweight Linux noise: 1 kHz timer ticks, short daemon wakeups, and
/// rare heavyweight bursts (kswapd scans, cron, journald flushes). The
/// burst component carries the run-to-run variance that produces the wide
/// error bars of the paper's Linux-only configurations (Figures 8 and 9).
inline NoiseProfile linux_noise() {
  return NoiseProfile{
      "linux",
      {
          NoiseComponent{"timer-tick", static_cast<double>(1_ms), 0.02,
                         /*poisson=*/false, static_cast<double>(4_us), 0.05},
          NoiseComponent{"daemon-wakeup", static_cast<double>(25_ms), 0.0,
                         /*poisson=*/true, static_cast<double>(300_us), 0.8},
          NoiseComponent{"daemon-burst", static_cast<double>(10_s), 0.0,
                         /*poisson=*/true, static_cast<double>(80_ms), 1.4},
      }};
}

/// Guest Linux inside a Palacios VM: ticks cost more (each tick takes a
/// VM exit) but the freshly-booted guest runs fewer daemons; bursts are
/// rarer and smaller. The Kitten-hosted VM inherits only SMIs from the
/// host; the Linux-hosted VM should additionally receive linux_noise() on
/// its physical cores (composed by the experiment configuration).
inline NoiseProfile vm_linux_noise() {
  return NoiseProfile{
      "vm-linux",
      {
          NoiseComponent{"guest-tick", static_cast<double>(1_ms), 0.02,
                         /*poisson=*/false, static_cast<double>(7_us), 0.05},
          NoiseComponent{"guest-daemon", static_cast<double>(50_ms), 0.0,
                         /*poisson=*/true, static_cast<double>(200_us), 0.6},
          NoiseComponent{"guest-burst", static_cast<double>(15_s), 0.0,
                         /*poisson=*/true, static_cast<double>(25_ms), 0.8},
      }};
}

/// Start every component of @p profile on @p core at the engine's current
/// time, each with its own Rng forked from @p parent_rng in component
/// order. A stream ends at its first arrival at or after @p until
/// (default: never). Streams create no engine events, so a finite
/// @p until does not keep Engine::run_until_idle() busy until then; the
/// core's counters settle against @p eng, which must outlive their reads.
inline void spawn_noise(sim::Engine& eng, Core& core, const NoiseProfile& profile,
                        Rng& parent_rng, sim::TimePoint until = ~u64{0}) {
  for (const auto& c : profile.components) {
    core.add_noise(eng, c, parent_rng.fork(), until);
  }
}

}  // namespace xemem::hw
