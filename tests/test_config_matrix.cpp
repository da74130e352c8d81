// Every combination of the kernel's four opt-in switches (leases, the
// attach fast path, sharding, capabilities) drives the same XPMEM
// lifecycles over the four cross-enclave paths of one node, and every
// combination must leave nothing behind: no pinned frames after each
// lifecycle, and no exports, registry entries or frame references at the
// end.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/units.hpp"
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

struct Switches {
  bool leases;
  bool fast_path;
  bool sharding;
  bool capabilities;
};

KernelConfig config_of(const Switches& sw) {
  KernelConfig cfg;
  cfg.lease_duration = sw.leases ? 5_ms : 0;
  cfg.attach_fast_path = sw.fast_path;
  if (sw.sharding) cfg.ns_shards = {{1, 2, 3}};
  cfg.capabilities = sw.capabilities;
  return cfg;
}

struct Path {
  const char* name;
  const char* exporter;
  const char* attacher;
};
constexpr std::array<Path, 4> kPaths{{{"k2l", "kitten0", "linux"},
                                      {"k2vm", "kitten1", "vm"},
                                      {"vm2k", "vm", "kitten0"},
                                      {"l2k", "linux", "kitten1"}}};
const std::vector<std::string> kEnclaves{"linux", "kitten0", "kitten1", "vm"};

constexpr u64 kRegion = 1_MiB;
constexpr u64 kProbes = 8;
constexpr u64 kRounds = 2;

class ConfigMatrix : public ::testing::TestWithParam<Switches> {};

TEST_P(ConfigMatrix, LifecyclesLeaveNothingBehind) {
  const Switches sw = GetParam();
  sim::Engine eng(4242);
  Node node(hw::Machine::r420());
  node.set_kernel_config(config_of(sw));
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  node.add_cokernel("kitten0", 0, {6, 7}, 256_MiB);
  node.add_cokernel("kitten1", 0, {8, 9}, 256_MiB);
  node.add_vm("vm", "linux", 256_MiB, {4, 5});

  auto lifecycle = [&](const Path& p, u64 round) -> sim::Task<void> {
    XememKernel& ek = node.kernel(p.exporter);
    XememKernel& ak = node.kernel(p.attacher);
    os::Enclave& eos = node.enclave(p.exporter);
    os::Enclave& aos = node.enclave(p.attacher);
    os::Process* ep = eos.create_process(kRegion).value();
    os::Process* ap = aos.create_process(1_MiB).value();
    const std::string where = std::string(p.name) + " round " + std::to_string(round);

    // Probe words at distinct offsets, one per 128 KiB slice.
    std::array<u64, kProbes> off{}, val{};
    for (u64 k = 0; k < kProbes; ++k) {
      off[k] = k * (kRegion / kProbes) + (k + round) * sizeof(u64);
      val[k] = 0x9e3779b97f4a7c15ull * (k + 1) + round;
      CO_ASSERT_TRUE(eos.proc_write(*ep, ep->image_base() + off[k], &val[k],
                                    sizeof(u64))
                         .ok());
    }

    const std::string name = std::string("matrix-") + p.name + "-" + std::to_string(round);
    auto sid = co_await ek.xpmem_make(*ep, ep->image_base(), kRegion, name);
    CO_ASSERT_TRUE(sid.ok());
    auto found = co_await ak.xpmem_search(name);
    CO_ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), sid.value()) << where;
    auto grant = co_await ak.xpmem_get(found.value());
    EXPECT_TRUE(grant.ok()) << where << ": get";
    CO_ASSERT_TRUE(grant.ok());

    // The same window twice: with the fast path on, the second attach
    // reuses the first one's frames or, under capabilities, which re-check
    // every attach at the owner, the owner's memoized walk.
    const u64 reuse0 = ak.stats().reuse_hits;
    const u64 walk0 = ek.stats().walk_cache_hits;
    auto a1 = co_await ak.xpmem_attach(*ap, grant.value(), 0, kRegion);
    auto a2 = co_await ak.xpmem_attach(*ap, grant.value(), 0, kRegion);
    EXPECT_TRUE(a1.ok() && a2.ok()) << where << ": attach";
    CO_ASSERT_TRUE(a1.ok() && a2.ok());
    EXPECT_EQ(ak.stats().reuse_hits - reuse0, sw.fast_path && !sw.capabilities ? 1u : 0u)
        << where;
    EXPECT_EQ(ek.stats().walk_cache_hits - walk0, sw.fast_path && sw.capabilities ? 1u : 0u)
        << where;
    const std::array<XpmemAttachment, 2> atts{a1.value(), a2.value()};
    for (const XpmemAttachment& att : atts) {
      co_await aos.touch_attached(*ap, att.va, att.pages);
      for (u64 k = 0; k < kProbes; ++k) {
        u64 got = 0;
        CO_ASSERT_TRUE(aos.proc_read(*ap, att.va + off[k], &got, sizeof(u64)).ok());
        EXPECT_EQ(got, val[k]) << where << ": probe " << k;
      }
    }

    EXPECT_TRUE((co_await ak.xpmem_detach(*ap, a1.value())).ok()) << where;
    EXPECT_TRUE((co_await ak.xpmem_detach(*ap, a2.value())).ok()) << where;
    EXPECT_TRUE((co_await ak.xpmem_release(grant.value())).ok()) << where;
    EXPECT_TRUE((co_await ek.xpmem_remove(*ep, sid.value())).ok()) << where;
    for (const auto& e : kEnclaves) {
      EXPECT_EQ(node.kernel(e).pinned_frames(), 0u) << where << ": " << e;
    }
  };

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    for (u64 round = 0; round < kRounds; ++round) {
      for (const Path& p : kPaths) co_await lifecycle(p, round);
    }
    for (const auto& e : kEnclaves) {
      const XememKernel& k = node.kernel(e);
      EXPECT_EQ(k.exports_live(), 0u) << e;
      EXPECT_EQ(k.ns_segid_count(), 0u) << e;
      EXPECT_EQ(k.ns_name_count(), 0u) << e;
      if (k.hosts_shard(0)) {
        EXPECT_EQ(k.shard_segid_count(0), 0u) << e;
      }
    }
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

std::vector<Switches> all_combinations() {
  std::vector<Switches> out;
  for (int bits = 0; bits < 16; ++bits) {
    out.push_back({(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0, (bits & 8) != 0});
  }
  return out;
}

std::string switches_name(const ::testing::TestParamInfo<Switches>& info) {
  const Switches& sw = info.param;
  return std::string(sw.leases ? "Leases" : "NoLeases") +
         (sw.fast_path ? "_Fast" : "_Cold") + (sw.sharding ? "_Sharded" : "_Central") +
         (sw.capabilities ? "_Caps" : "_NoCaps");
}

INSTANTIATE_TEST_SUITE_P(AllSwitches, ConfigMatrix, ::testing::ValuesIn(all_combinations()),
                         switches_name);

}  // namespace
}  // namespace xemem
