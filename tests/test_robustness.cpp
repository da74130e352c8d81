// Robustness and reproducibility: discovery resilience against dead
// neighbors (request timeouts), error propagation for withdrawn segids,
// and system-level determinism (identical seeds produce bit-identical
// experiment results).
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "pisces/ipi_channel.hpp"
#include "workloads/insitu.hpp"
#include "xemem/system.hpp"

#define CO_ASSERT_TRUE(x)                            \
  do {                                               \
    if (!(x)) {                                      \
      ADD_FAILURE() << "CO_ASSERT_TRUE failed: " #x; \
      co_return;                                     \
    }                                                \
  } while (0)

namespace xemem {
namespace {

TEST(Robustness, DiscoverySurvivesDeadNeighborChannel) {
  // An enclave with two channels: the first leads to a peer that never
  // answers (no kernel services it), the second to the name server. The
  // ping timeout must let discovery move past the dead link.
  sim::Engine eng(91);
  hw::Machine machine(hw::Machine::r420());
  os::LinuxEnclave mgmt("mgmt", machine, machine.zone(0), machine.socket_bw(0),
                        {&machine.core(0), &machine.core(1)}, &machine.core(0));
  os::KittenEnclave ck("ck", machine, machine.zone(1), machine.socket_bw(1),
                       {&machine.core(12)}, &machine.core(12));
  XememKernel ns(mgmt, /*is_name_server=*/true);
  XememKernel ckk(ck, false);

  // Dead link first (nobody ever recvs from its peer inbox)...
  auto dead = pisces::make_ipi_channel(&machine.core(1), &machine.core(12));
  ckk.add_channel(dead.b.get());
  // ...live link to the name server second.
  auto live = pisces::make_ipi_channel(&machine.core(0), &machine.core(12));
  ns.add_channel(live.a.get());
  ckk.add_channel(live.b.get());

  auto main = [&]() -> sim::Task<void> {
    ns.start();
    ckk.start();
    co_await ckk.wait_registered();
    EXPECT_TRUE(ckk.id().valid());
    // Registration took at least one ping timeout (the dead probe).
    EXPECT_GE(sim::now(), KernelConfig{}.ping_timeout);
  };
  eng.run(main());
}

TEST(Robustness, CommandsAgainstWithdrawnSegidsFailCleanly) {
  sim::Engine eng(92);
  Node node(hw::Machine::r420());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* p = node.enclave("ck").create_process(4_MiB).value();
    os::Process* u = node.enclave("linux").create_process(1_MiB).value();
    auto sid = co_await ck.xpmem_make(*p, p->image_base(), 1_MiB);
    auto grant = co_await mgmt.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());
    CO_ASSERT_TRUE((co_await ck.xpmem_remove(*p, sid.value())).ok());

    // The stale grant no longer attaches; errors, not hangs or leaks.
    auto att = co_await mgmt.xpmem_attach(*u, grant.value(), 0, 1_MiB);
    EXPECT_EQ(att.error(), Errc::no_such_segid);
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

TEST(Robustness, KernelStatsTrackProtocolActivity) {
  sim::Engine eng(93);
  Node node(hw::Machine::r420());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);
  node.add_vm("vm", "ck", 64_MiB, {7});
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* p = node.enclave("ck").create_process(4_MiB).value();
    os::Process* u = node.enclave("linux").create_process(1_MiB).value();
    auto sid = co_await ck.xpmem_make(*p, p->image_base(), 1_MiB);
    auto grant = co_await mgmt.xpmem_get(sid.value());
    auto att = co_await mgmt.xpmem_attach(*u, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(att.ok());

    EXPECT_EQ(ck.stats().makes, 1u);
    EXPECT_EQ(ck.stats().attaches_served, 1u);
    EXPECT_EQ(ck.stats().pages_shared, 256u);
    EXPECT_EQ(mgmt.stats().attaches_issued, 1u);
    EXPECT_GT(mgmt.stats().ns_requests, 0u) << "NS processed protocol commands";
    // The VM registered through the co-kernel, so the co-kernel forwarded
    // its discovery/registration traffic.
    EXPECT_GT(ck.stats().messages_forwarded, 0u);
    CO_ASSERT_TRUE((co_await mgmt.xpmem_detach(*u, att.value())).ok());
  };
  eng.run(main());
}

// System-level determinism: the same seed reproduces a full experiment
// (noise, protocol, workload) to the exact simulated nanosecond.
TEST(Robustness, FullExperimentIsDeterministicPerSeed) {
  auto run_once = [](u64 seed) {
    sim::Engine eng(seed);
    Node node(hw::Machine::optiplex());
    node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    node.add_cokernel("sim", 0, {4, 5, 6, 7}, 128_MiB);
    u64 end_time = 0;
    auto main = [&]() -> sim::Task<void> {
      co_await node.start();
      Rng noise_rng(seed + 1);
      node.spawn_std_noise(*sim::Engine::current(), noise_rng, 10'000'000'000ull);
      workloads::InsituConfig cfg;
      cfg.iterations = 40;
      cfg.signal_every = 20;
      cfg.region_bytes = 8ull << 20;
      cfg.sim_compute_ns = 2'000'000;
      cfg.sim_mem_bytes = 16ull << 20;
      cfg.grid = 8;
      cfg.stream_elems = 1 << 12;
      cfg.poll_interval = 20'000;
      auto r = co_await workloads::run_insitu(node, "sim", "linux", cfg);
      (void)r;
      end_time = sim::now();
    };
    eng.run(main());
    return end_time;
  };
  const u64 a = run_once(4242);
  const u64 b = run_once(4242);
  const u64 c = run_once(4243);
  EXPECT_EQ(a, b) << "identical seeds must reproduce to the nanosecond";
  EXPECT_NE(a, c) << "different seeds must differ (noise models active)";
  // The end time the event-driven noise model (one actor and two engine
  // events per occurrence) produced for this seed: a change that moves the
  // noise model fails here, not only when it disagrees with itself.
  EXPECT_EQ(a, 143'691'012u);
}

// Determinism must also hold under fault injection: the fault schedule is
// drawn from seeded Rng streams in send order, so a lossy channel plus
// retry/backoff recovery still reproduces to the simulated nanosecond.
TEST(Robustness, LossyExperimentIsDeterministicPerSeed) {
  auto run_once = [](u64 seed) {
    sim::Engine eng(seed);
    Node node(hw::Machine::optiplex());
    KernelConfig kcfg;
    kcfg.request_timeout = 2_ms;  // fail fast enough to retry within the run
    kcfg.max_retries = 8;
    kcfg.backoff_base = 200_us;
    kcfg.backoff_max = 2_ms;
    node.set_kernel_config(kcfg);
    node.enable_fault_injection(FaultSpec::loss(0.05), seed + 7);
    node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
    auto& ck = node.add_cokernel("sim", 0, {4, 5, 6, 7}, 128_MiB);
    u64 end_time = 0;
    u64 retries = 0;
    auto main = [&]() -> sim::Task<void> {
      co_await node.start();
      Rng noise_rng(seed + 1);
      node.spawn_std_noise(*sim::Engine::current(), noise_rng, 10'000'000'000ull);
      workloads::InsituConfig cfg;
      cfg.iterations = 40;
      cfg.signal_every = 20;
      cfg.region_bytes = 8ull << 20;
      cfg.sim_compute_ns = 2'000'000;
      cfg.sim_mem_bytes = 16ull << 20;
      cfg.grid = 8;
      cfg.stream_elems = 1 << 12;
      cfg.poll_interval = 20'000;
      auto r = co_await workloads::run_insitu(node, "sim", "linux", cfg);
      (void)r;
      end_time = sim::now();
      retries = ck.stats().retries + node.kernel("linux").stats().retries;
    };
    eng.run(main());
    return std::make_pair(end_time, retries);
  };
  const auto a = run_once(4242);
  const auto b = run_once(4242);
  const auto c = run_once(4243);
  EXPECT_EQ(a, b) << "identical seeds must reproduce to the nanosecond";
  EXPECT_NE(a.first, c.first) << "different seeds must differ";
}

}  // namespace
}  // namespace xemem
