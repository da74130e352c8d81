// Unit and property tests for the hardware substrate: frame zones
// (alloc/free invariants, pins blocking process teardown), the physical
// data plane, core IRQ stealing, IPI delivery, and the noise models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/core.hpp"
#include "hw/ipi.hpp"
#include "hw/machine.hpp"
#include "hw/noise.hpp"
#include "hw/phys_mem.hpp"
#include "os/kitten.hpp"
#include "sim/engine.hpp"

namespace xemem::hw {
namespace {

// ---------------------------------------------------------------- FrameZone

TEST(FrameZone, ContiguousAllocationIsOneExtent) {
  FrameZone z(Pfn{0}, 1024);
  auto r = z.alloc(100, AllocPolicy::contiguous);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].count, 100u);
  EXPECT_EQ(z.free_frames(), 924u);
}

TEST(FrameZone, ScatteredAllocationFragmentsAcrossPool) {
  FrameZone z(Pfn{0}, 4096);
  // Fragment the pool first.
  auto a = z.alloc(64, AllocPolicy::scattered).value();
  auto b = z.alloc(512, AllocPolicy::scattered).value();
  EXPECT_GT(b.size(), 1u) << "scattered allocation should not be one extent";
  u64 total = 0;
  for (auto e : b) total += e.count;
  EXPECT_EQ(total, 512u);
  for (auto e : a) z.free(e);
  for (auto e : b) z.free(e);
  EXPECT_EQ(z.free_frames(), 4096u);
}

TEST(FrameZone, ExhaustionReturnsOutOfMemory) {
  FrameZone z(Pfn{0}, 16);
  auto r1 = z.alloc(16, AllocPolicy::contiguous);
  ASSERT_TRUE(r1.ok());
  auto r2 = z.alloc(1, AllocPolicy::contiguous);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.error(), Errc::out_of_memory);
}

TEST(FrameZone, FreeCoalescesAdjacentExtents) {
  FrameZone z(Pfn{0}, 256);
  auto a = z.alloc(64, AllocPolicy::contiguous).value()[0];
  auto b = z.alloc(64, AllocPolicy::contiguous).value()[0];
  auto c = z.alloc(64, AllocPolicy::contiguous).value()[0];
  z.free(a);
  z.free(c);
  z.free(b);  // middle free must stitch all three back together
  // If coalescing worked, a full-size contiguous allocation succeeds.
  auto big = z.alloc(256, AllocPolicy::contiguous);
  EXPECT_TRUE(big.ok());
}

// Pins live in PhysicalMemory: tearing down a process whose frame is still
// pinned for an attachment is fatal; once unpinned, its frames free.
TEST(FrameZone, RefcountsBlockFree) {
  Machine machine{Machine::r420()};
  os::KittenEnclave kitten("kitten", machine, machine.zone(0), machine.socket_bw(0),
                           {&machine.core(6)}, &machine.core(6));
  os::Process* p = kitten.create_process(4 * kPageSize).value();
  const FrameExtent pinned{p->owned_frames()[0].start + 2, 1};
  machine.pmem().ref_run(pinned);
  EXPECT_EQ(machine.pmem().refcount(pinned.start), 1u);
  EXPECT_DEATH(kitten.destroy_process(p), "still-referenced");
  machine.pmem().unref_run(pinned);
  kitten.destroy_process(p);
  EXPECT_EQ(machine.zone(0).free_frames(), machine.zone(0).total_frames());
}

TEST(FrameZone, DoubleFreeIsFatal) {
  FrameZone z(Pfn{0}, 64);
  auto ext = z.alloc(4, AllocPolicy::contiguous).value()[0];
  z.free(ext);
  EXPECT_DEATH(z.free(ext), "double free");
}

TEST(FrameZone, IsAllocatedTracksState) {
  FrameZone z(Pfn{10}, 32);
  EXPECT_FALSE(z.is_allocated(Pfn{12}));
  auto ext = z.alloc(8, AllocPolicy::contiguous).value()[0];
  EXPECT_TRUE(z.is_allocated(ext.start));
  EXPECT_TRUE(z.is_allocated(ext.start + 7));
  z.free(ext);
  EXPECT_FALSE(z.is_allocated(ext.start));
}

// Property: random alloc/free sequences never hand out the same frame
// twice and always restore the zone exactly.
TEST(FrameZoneProperty, RandomAllocFreeNeverDoublesAllocates) {
  Rng rng(7);
  FrameZone z(Pfn{0}, 2048);
  std::vector<std::vector<FrameExtent>> live;
  std::set<u64> owned;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.uniform() < 0.6) {
      const u64 want = 1 + rng.uniform_u64(64);
      auto pol = rng.uniform() < 0.5 ? AllocPolicy::contiguous : AllocPolicy::scattered;
      auto r = z.alloc(want, pol);
      if (!r.ok()) continue;
      for (auto e : r.value()) {
        for (u64 i = 0; i < e.count; ++i) {
          auto [it, fresh] = owned.insert(e.start.value() + i);
          ASSERT_TRUE(fresh) << "frame handed out twice";
        }
      }
      live.push_back(std::move(r).value());
    } else {
      const u64 idx = rng.uniform_u64(live.size());
      for (auto e : live[idx]) {
        for (u64 i = 0; i < e.count; ++i) owned.erase(e.start.value() + i);
        z.free(e);
      }
      live.erase(live.begin() + static_cast<long>(idx));
    }
  }
  for (auto& v : live) {
    for (auto e : v) z.free(e);
  }
  EXPECT_EQ(z.free_frames(), 2048u);
}

// ----------------------------------------------------------- PhysicalMemory

TEST(PhysicalMemory, ZonesAreDisjoint) {
  PhysicalMemory pm;
  pm.add_zone(16ull << 20);
  pm.add_zone(16ull << 20);
  auto a = pm.zone(0).alloc(4, AllocPolicy::contiguous).value()[0];
  auto b = pm.zone(1).alloc(4, AllocPolicy::contiguous).value()[0];
  EXPECT_GE(b.start.value(), pm.zone(0).base().value() + pm.zone(0).total_frames());
  EXPECT_TRUE(pm.zone(0).owns(a.start));
  EXPECT_FALSE(pm.zone(0).owns(b.start));
  EXPECT_EQ(&pm.zone_of(b.start), &pm.zone(1));
}

TEST(PhysicalMemory, DataPlaneRoundTripsAcrossFrames) {
  PhysicalMemory pm;
  pm.add_zone(1ull << 20);
  std::vector<u8> src(3 * kPageSize);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<u8>(i * 7);
  // Unaligned write spanning three frames.
  HostPaddr pa{kPageSize / 2};
  pm.write(pa, src.data(), src.size());
  std::vector<u8> dst(src.size());
  pm.read(pa, dst.data(), dst.size());
  EXPECT_EQ(src, dst);
}

TEST(PhysicalMemory, BackingIsLazy) {
  PhysicalMemory pm;
  pm.add_zone(1ull << 30);
  EXPECT_EQ(pm.backed_frames(), 0u);
  pm.frame_data(Pfn{100});
  EXPECT_EQ(pm.backed_frames(), 1u);
}

// Differential: overlapping ref_run/unref_run that cross 512-frame chunk
// boundaries keep every frame's pin count equal to a std::map oracle, and
// total_refs() equal to the oracle's sum.
TEST(PhysicalMemory, PinCountsMatchOracleAcrossChunks) {
  PhysicalMemory pm;
  pm.add_zone(64ull << 20);
  const u64 frames = pm.zone(0).total_frames();
  Rng rng(512);
  std::map<u64, u64> oracle;
  std::vector<FrameExtent> live;  // runs pinned and not yet released
  u64 oracle_total = 0;
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.uniform() < 0.55) {
      const u64 count = 1 + rng.uniform_u64(1300);  // up to ~3 chunks
      // Cluster starts near a few chunk boundaries so runs overlap.
      const u64 boundary = (1 + rng.uniform_u64(6)) * 512;
      const u64 start = std::min(frames - count, boundary + rng.uniform_u64(900) - 450);
      const FrameExtent ext{Pfn{start}, count};
      pm.ref_run(ext);
      for (u64 i = 0; i < count; ++i) ++oracle[start + i];
      oracle_total += count;
      live.push_back(ext);
    } else {
      const u64 pick = rng.uniform_u64(live.size());
      const FrameExtent ext = live[pick];
      live[pick] = live.back();
      live.pop_back();
      pm.unref_run(ext);
      for (u64 i = 0; i < ext.count; ++i) {
        if (--oracle[ext.start.value() + i] == 0) oracle.erase(ext.start.value() + i);
      }
      oracle_total -= ext.count;
    }
    ASSERT_EQ(pm.total_refs(), oracle_total) << "step " << step;
    if (step % 97 == 0) {
      for (u64 f = 0; f < 10 * 512; ++f) {
        const auto it = oracle.find(f);
        ASSERT_EQ(pm.refcount(Pfn{f}), it == oracle.end() ? 0 : it->second)
            << "step " << step << " frame " << f;
      }
    }
  }
  for (const auto& ext : live) pm.unref_run(ext);
  EXPECT_EQ(pm.total_refs(), 0u);
  for (u64 f = 0; f < 10 * 512; ++f) ASSERT_EQ(pm.refcount(Pfn{f}), 0u);
}

TEST(PhysicalMemoryDeathTest, UnrefOfUnpinnedFrameIsFatal) {
  PhysicalMemory pm;
  pm.add_zone(16ull << 20);
  // No chunk at all, and a pinned chunk whose frame has no pin.
  EXPECT_DEATH(pm.unref_run(FrameExtent{Pfn{5}, 1}), "unref of unreferenced frame");
  pm.ref_run(FrameExtent{Pfn{510}, 4});
  EXPECT_DEATH(pm.unref_run(FrameExtent{Pfn{509}, 2}), "unref of unreferenced frame");
  EXPECT_DEATH(pm.unref_run(FrameExtent{Pfn{512}, 3}), "unref of unreferenced frame");
  pm.unref_run(FrameExtent{Pfn{510}, 4});
  EXPECT_EQ(pm.total_refs(), 0u);
}

TEST(PhysicalMemory, FreshFramesReadAsZero) {
  PhysicalMemory pm;
  pm.add_zone(1ull << 20);
  u64 v = 123;
  pm.read(HostPaddr{40960}, &v, sizeof(v));
  EXPECT_EQ(v, 0u);
}

// ------------------------------------------------------------------- Core

TEST(Core, IrqStealsFromCompute) {
  sim::Engine eng;
  Core core(0, 0);
  auto app = [&]() -> sim::Task<u64> {
    co_await core.compute(100_us);
    co_return sim::now();
  };
  auto intr = [&]() -> sim::Task<void> {
    co_await sim::delay(50_us);
    co_await core.run_irq(10_us);
  };
  eng.spawn(intr());
  auto done = eng.run(app());
  // 100us of compute + 10us stolen by the interrupt.
  EXPECT_EQ(done, 110_us);
  EXPECT_EQ(core.stolen_ns(), 10_us);
  EXPECT_EQ(core.irq_events(), 1u);
}

TEST(Core, IrqHandlersSerializePerCore) {
  sim::Engine eng;
  Core core(0, 0);
  std::vector<u64> ends;
  auto handler = [&]() -> sim::Task<void> {
    co_await core.run_irq(10_us);
    ends.push_back(sim::now());
  };
  eng.spawn(handler());
  eng.spawn(handler());
  eng.spawn(handler());
  eng.run_until_idle();
  EXPECT_EQ(ends, (std::vector<u64>{10_us, 20_us, 30_us}));
}

TEST(Core, ComputeUnaffectedOnQuietCore) {
  sim::Engine eng;
  Core core(3, 1);
  auto app = [&]() -> sim::Task<u64> {
    co_await core.compute(1_ms);
    co_return sim::now();
  };
  EXPECT_EQ(eng.run(app()), 1_ms);
}

TEST(Core, BackToBackIrqsAllStolen) {
  sim::Engine eng;
  Core core(0, 0);
  auto app = [&]() -> sim::Task<u64> {
    co_await core.compute(50_us);
    co_return sim::now();
  };
  auto storm = [&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await sim::delay(5_us);
      co_await core.run_irq(5_us);
    }
  };
  eng.spawn(storm());
  auto done = eng.run(app());
  // 50us work + 25us stolen (5 x 5us), with handler queueing accounted.
  EXPECT_EQ(done, 75_us);
}

// -------------------------------------------------------------------- IPI

TEST(Ipi, DeliversToRegisteredHandler) {
  sim::Engine eng;
  Core core(0, 0);
  IpiController ipi;
  int fired = 0;
  u64 fire_time = 0;
  ipi.register_handler(&core, 0xf0, 2_us, [&] {
    ++fired;
    fire_time = sim::now();
  });
  auto sender = [&]() -> sim::Task<void> {
    co_await sim::delay(10_us);
    ipi.post(0, 0xf0);
  };
  eng.spawn(sender());
  eng.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fire_time, 12_us);  // 10us send + 2us handler cost
  EXPECT_EQ(core.stolen_ns(), 2_us);
}

TEST(Ipi, ConcurrentIpisToOneCoreSerialize) {
  sim::Engine eng;
  Core core0(0, 0);
  IpiController ipi;
  std::vector<u64> times;
  ipi.register_handler(&core0, 0xf0, 3_us, [&] { times.push_back(sim::now()); });
  auto sender = [&]() -> sim::Task<void> {
    ipi.post(0, 0xf0);
    ipi.post(0, 0xf0);
    ipi.post(0, 0xf0);
    co_return;
  };
  eng.spawn(sender());
  eng.run_until_idle();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 3_us);
  EXPECT_EQ(times[1], 6_us);
  EXPECT_EQ(times[2], 9_us);
}

TEST(Ipi, UnregisteredVectorIsFatal) {
  sim::Engine eng;
  IpiController ipi;
  auto t = [&]() -> sim::Task<void> {
    ipi.post(0, 0x99);
    co_return;
  };
  EXPECT_DEATH(eng.run(t()), "unregistered");
}

// ------------------------------------------------------------------ Noise

TEST(Noise, KittenUtilizationIsTiny) {
  sim::Engine eng(42);
  Machine m(Machine::r420());
  Rng rng(1);
  spawn_noise(eng, m.core(0), kitten_noise(), rng, 10_s);
  eng.run_until(10_s);
  const double util = static_cast<double>(m.core(0).stolen_ns()) / 10e9;
  EXPECT_LT(util, 0.01) << "Kitten noise should be well under 1%";
  EXPECT_GT(m.core(0).irq_events(), 1000u) << "the 12us band should be dense";
}

TEST(Noise, LinuxStealsMoreThanKitten) {
  sim::Engine eng(42);
  Machine m(Machine::r420());
  Rng rng(1);
  spawn_noise(eng, m.core(0), kitten_noise(), rng, 20_s);
  spawn_noise(eng, m.core(1), linux_noise(), rng, 20_s);
  eng.run_until(20_s);
  EXPECT_GT(m.core(1).stolen_ns(), 3 * m.core(0).stolen_ns());
}

TEST(Noise, DeterministicGivenSeed) {
  auto run_once = [] {
    sim::Engine eng(7);
    Machine m(Machine::optiplex());
    Rng rng(9);
    spawn_noise(eng, m.core(0), linux_noise(), rng, 5_s);
    eng.run_until(5_s);
    return m.core(0).stolen_ns();
  };
  EXPECT_EQ(run_once(), run_once());
}

sim::Task<void> linux_noise_for_10ms(sim::Engine* eng, Core* core, Rng* rng) {
  spawn_noise(*eng, *core, linux_noise(), *rng);
  co_await sim::delay(10_ms);
}

TEST(Noise, CountersFailOutsideTheCoresPartition) {
  // After a multi-partition run the context is partition 0, whose clock
  // says nothing about partition 1: the read must fail, not miss noise.
  sim::Engine eng(7);
  eng.set_partitions(2);
  Core core(0, 0);
  core.set_partition(1);
  Rng rng(9);
  eng.spawn_in(1, linux_noise_for_10ms(&eng, &core, &rng));
  eng.run_until_idle();
  EXPECT_DEATH(core.stolen_ns(), "read from another partition");
  EXPECT_DEATH(core.irq_events(), "read from another partition");
}

// ------------------------------------------------------ Noise equivalence

// Test-only reference: the event-driven noise model the per-core streams
// replaced. One coroutine per component arrives, draws and charges the core
// through run_irq, at two engine events per occurrence. It uses nothing but
// Core::run_irq, so it runs unchanged against the lazy Core.
sim::Task<void> reference_noise_actor(Core* core, NoiseComponent c, Rng rng,
                                      sim::TimePoint until) {
  // Random initial phase so components do not all fire at t=0.
  co_await sim::delay(static_cast<u64>(rng.uniform(0.0, c.period_ns)));
  while (sim::now() < until) {
    const double gap =
        c.poisson_arrivals
            ? rng.exponential(c.period_ns)
            : c.period_ns * rng.uniform(1.0 - c.period_jitter, 1.0 + c.period_jitter);
    co_await sim::delay(static_cast<u64>(std::max(gap, 1.0)));
    if (sim::now() >= until) break;
    const double dur =
        c.duration_sigma == 0.0
            ? c.duration_median_ns
            : rng.lognormal(std::log(c.duration_median_ns), c.duration_sigma);
    co_await core->run_irq(static_cast<u64>(std::max(dur, 1.0)));
  }
}

void spawn_reference_noise(sim::Engine& eng, Core& core, const NoiseProfile& profile,
                           Rng& parent_rng, sim::TimePoint until = ~u64{0}) {
  for (const auto& c : profile.components) {
    eng.spawn(reference_noise_actor(&core, c, parent_rng.fork(), until));
  }
}

/// Zero jitter and zero sigma: arrivals a driver can predict exactly.
const NoiseComponent kMetronome{"metronome", static_cast<double>(30_us), 0.0,
                                /*poisson=*/false, static_cast<double>(2_us), 0.0};

/// Dense enough that noise, handlers and compute windows overlap all the
/// time within a few simulated milliseconds.
NoiseProfile dense_noise() {
  return NoiseProfile{
      "dense",
      {
          NoiseComponent{"tick", static_cast<double>(40_us), 0.1, false,
                         static_cast<double>(3_us), 0.3},
          NoiseComponent{"daemon", static_cast<double>(150_us), 0.0, true,
                         static_cast<double>(20_us), 0.8},
          NoiseComponent{"burst", static_cast<double>(3_ms), 0.0, true,
                         static_cast<double>(400_us), 1.0},
          kMetronome,
      }};
}

struct EquivalenceRun {
  std::vector<u64> compute_done;  ///< compute completion times, per driver
  std::vector<u64> irq_done;      ///< protocol handler completion times
  u64 stolen_a{0}, irq_a{0}, stolen_b{0}, irq_b{0};
  u64 events{0};
};

/// One core with dense noise under random protocol handlers and two
/// concurrent compute drivers, plus a metronome-only core whose every
/// arrival coincides with a protocol handler and a compute start. The
/// drivers reach a protocol handler's instant through a wake scheduled one
/// nanosecond earlier, so the reference actor's arrival event at that
/// instant always fires first — the lazy model's documented tie rule.
EquivalenceRun run_equivalence(u64 seed, bool lazy) {
  sim::Engine eng(seed);
  Core a(0, 0);
  Core b(1, 0);
  const auto spawn = lazy ? &spawn_noise : &spawn_reference_noise;
  Rng noise_a(seed * 31 + 1);
  Rng noise_b(seed * 31 + 2);
  spawn(eng, a, dense_noise(), noise_a, 20_ms);
  Rng probe = noise_b;
  const u64 phase = static_cast<u64>(probe.fork().uniform(0.0, kMetronome.period_ns));
  spawn(eng, b, NoiseProfile{"metronome", {kMetronome}}, noise_b, ~u64{0});

  EquivalenceRun out;
  std::vector<u64> done[3];
  constexpr sim::TimePoint kStop = 22_ms;
  auto wake_at = [](sim::TimePoint t) -> sim::Task<void> {
    co_await sim::delay_until(t - 1);
    co_await sim::delay(1);
  };
  auto handler = [&](Core& c, sim::Duration d) -> sim::Task<void> {
    co_await c.run_irq(d);
    out.irq_done.push_back(sim::now());
  };
  auto timed_compute = [&](Core& c, sim::Duration work, std::vector<u64>* log) -> sim::Task<void> {
    co_await c.compute(work);
    log->push_back(sim::now());
  };
  auto compute_driver = [&](u64 dseed, std::vector<u64>* log) -> sim::Task<void> {
    Rng r(dseed);
    while (sim::now() < kStop) {
      co_await sim::delay(r.uniform_u64(50_us));
      const u64 work = r.uniform() < 0.1 ? 1_ms + r.uniform_u64(2_ms) : 1 + r.uniform_u64(200_us);
      co_await timed_compute(a, work, log);
    }
  };
  auto protocol_driver = [&](u64 dseed) -> sim::Task<void> {
    Rng r(dseed);
    while (sim::now() < kStop) {
      co_await wake_at(sim::now() + 2 + r.uniform_u64(150_us));
      const double kind = r.uniform();
      if (kind < 0.2) {
        // Back-to-back handlers issued at one instant queue FIFO.
        const u64 n = 2 + r.uniform_u64(3);
        for (u64 i = 0; i < n; ++i) eng.spawn(handler(a, 1 + r.uniform_u64(20_us)));
      } else {
        // Some handlers outlive whole compute windows.
        const u64 d = kind < 0.35 ? 100_us + r.uniform_u64(500_us) : 1 + r.uniform_u64(30_us);
        co_await handler(a, d);
      }
    }
  };
  // Core b's driver models b's FIFO (the metronome plus its own handlers)
  // to aim every handler at a metronome arrival.
  auto metronome_driver = [&](u64 dseed) -> sim::Task<void> {
    Rng r(dseed);
    const u64 period = static_cast<u64>(kMetronome.period_ns);
    const u64 dur = static_cast<u64>(kMetronome.duration_median_ns);
    u64 arrival = phase + period;
    u64 free = 0;
    while (sim::now() < kStop) {
      while (arrival <= sim::now()) {  // queued behind the last handler
        free = std::max(arrival, free) + dur;
        arrival = free + period;
      }
      co_await wake_at(arrival);
      free = std::max(arrival, free) + dur;  // the metronome goes first
      arrival = free + period;
      eng.spawn(timed_compute(b, 1 + r.uniform_u64(60_us), &done[2]));
      const u64 d = 1 + r.uniform_u64(2 * period);
      co_await handler(b, d);
      free += d;
      EXPECT_EQ(sim::now(), free) << "handler must queue behind the coinciding arrival";
    }
  };
  eng.spawn(compute_driver(seed * 7 + 1, &done[0]));
  eng.spawn(compute_driver(seed * 7 + 2, &done[1]));
  eng.spawn(protocol_driver(seed * 7 + 3));
  eng.spawn(metronome_driver(seed * 7 + 4));
  eng.run_until(40_ms);
  for (const auto& d : done) out.compute_done.insert(out.compute_done.end(), d.begin(), d.end());
  out.stolen_a = a.stolen_ns();
  out.irq_a = a.irq_events();
  out.stolen_b = b.stolen_ns();
  out.irq_b = b.irq_events();
  out.events = eng.events_processed();
  return out;
}

TEST(NoiseEquivalence, LazyStreamsMatchEventDrivenReference) {
  for (u64 seed = 1; seed <= 40; ++seed) {
    const EquivalenceRun lazy = run_equivalence(seed, /*lazy=*/true);
    const EquivalenceRun ref = run_equivalence(seed, /*lazy=*/false);
    ASSERT_GT(lazy.compute_done.size(), 100u);
    EXPECT_EQ(lazy.compute_done, ref.compute_done) << "seed " << seed;
    EXPECT_EQ(lazy.irq_done, ref.irq_done) << "seed " << seed;
    EXPECT_EQ(lazy.stolen_a, ref.stolen_a) << "seed " << seed;
    EXPECT_EQ(lazy.irq_a, ref.irq_a) << "seed " << seed;
    EXPECT_EQ(lazy.stolen_b, ref.stolen_b) << "seed " << seed;
    EXPECT_EQ(lazy.irq_b, ref.irq_b) << "seed " << seed;
    EXPECT_LT(lazy.events, ref.events) << "noise must not cost engine events";
  }
}

/// Phase a component draws from @p fork (a copy of its forked Rng).
u64 phase_of(Rng fork, u64 period) {
  return static_cast<u64>(fork.uniform(0.0, static_cast<double>(period)));
}

/// Completion times of back-to-back short computes on a core carrying
/// @p profile, then the core's stolen_ns() and irq_events().
std::vector<u64> run_short_computes(const NoiseProfile& profile, u64 seed, bool lazy) {
  sim::Engine eng(seed);
  Core core(0, 0);
  Rng noise(seed);
  const auto spawn = lazy ? &spawn_noise : &spawn_reference_noise;
  spawn(eng, core, profile, noise, ~u64{0});
  std::vector<u64> out;
  auto driver = [&]() -> sim::Task<void> {
    Rng r(seed);
    while (sim::now() < 2_ms) {
      co_await core.compute(1 + r.uniform_u64(3_us));
      out.push_back(sim::now());
    }
  };
  eng.run(driver());
  out.push_back(core.stolen_ns());
  out.push_back(core.irq_events());
  return out;
}

TEST(NoiseEquivalence, SimultaneousArrivalsRunInGapDrawOrder) {
  // Two zero-jitter, zero-sigma components whose first arrivals coincide,
  // the lower-index one having drawn its gap later. The reference actors'
  // arrival events run in the order they were scheduled, so the
  // higher-index arrival goes first; the lazy streams must agree.
  constexpr u64 kPeriodA = 40_us;
  for (u64 seed = 1; seed < 200; ++seed) {
    Rng probe(seed);
    const Rng fork_a = probe.fork();
    const Rng fork_b = probe.fork();
    const u64 phase_a = phase_of(fork_a, kPeriodA);
    const u64 arrival = phase_a + kPeriodA;
    for (u64 period_b = arrival / 2; period_b <= arrival; ++period_b) {
      const u64 phase_b = phase_of(fork_b, period_b);
      if (phase_b + period_b != arrival || phase_b >= phase_a) continue;
      const NoiseProfile tie{
          "tie",
          {NoiseComponent{"a", static_cast<double>(kPeriodA), 0.0, false,
                          static_cast<double>(3_us), 0.0},
           NoiseComponent{"b", static_cast<double>(period_b), 0.0, false,
                          static_cast<double>(5_us), 0.0}}};
      EXPECT_EQ(run_short_computes(tie, seed, /*lazy=*/true),
                run_short_computes(tie, seed, /*lazy=*/false))
          << "seed " << seed << ", tie at " << arrival << " ns";
      return;
    }
  }
  FAIL() << "no seed below 200 gives a tie";
}

// ---------------------------------------------------------------- Machine

TEST(Machine, R420MatchesPaperTopology) {
  Machine m(Machine::r420());
  EXPECT_EQ(m.core_count(), 24u);
  EXPECT_EQ(m.socket_count(), 2u);
  EXPECT_EQ(m.zone(0).total_frames() * kPageSize, 16ull << 30);
  EXPECT_EQ(m.core(0).socket(), 0u);
  EXPECT_EQ(m.core(12).socket(), 1u);
}

TEST(Machine, OptiplexMatchesPaperTopology) {
  Machine m(Machine::optiplex());
  EXPECT_EQ(m.core_count(), 8u);
  EXPECT_EQ(m.socket_count(), 1u);
  EXPECT_EQ(m.zone(0).total_frames() * kPageSize, 8ull << 30);
}

}  // namespace
}  // namespace xemem::hw
