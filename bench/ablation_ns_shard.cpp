// Ablation: sharded, quorum-replicated name service (DESIGN.md §6b).
//
// The default registry is one shard hosted by the hub alone, serializing
// every registration and lookup on the hub's service core. This harness
// measures what sharding buys and what replication costs:
//
//   - a registration/lookup/removal storm against the hub's shard (the
//     central baseline) and against 1/2/4 shards (R = 1) on co-kernels,
//     showing ops/sec scaling with shard count;
//   - the same storm with 3-way replicated shards (majority-ack writes);
//   - a churn storm: every shard primary crashes mid-storm and the
//     elections must recover bounded while the storm rides the retries;
//   - a dead-replica row: one follower per shard down, lookups and
//     writes keep serving from the remaining majority;
//
// The central baseline doubles as the pay-for-use check: a group of one
// commits every write at once, with no replication and no election.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "xemem/system.hpp"
#include "xemem/wire.hpp"

namespace xemem {
namespace {

struct Row {
  std::string name;
  u32 shards{0};  // 0 = the default: one shard hosted by the hub
  u32 repl{0};
  u64 ops{0};
  double kops{0};  // completed registry ops per simulated second / 1000
  u64 failures{0};
  u64 quorum_writes{0};
  u64 replications{0};
  u64 promotions{0};
  double recovery_ms{0};  // churn row: crash -> every shard has a primary
  double sim_ms{0};
};

KernelConfig shard_config(std::vector<std::vector<u64>> groups) {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.ping_timeout = 200_us;
  cfg.max_retries = 2;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  if (!groups.empty()) {
    cfg.ns_shards = std::move(groups);
    cfg.shard_probe_period = 500_us;
    cfg.shard_probe_misses = 2;
    cfg.partition_grace = 4_ms;
  }
  return cfg;
}

bool clean_error(Errc e) {
  return e == Errc::unreachable || e == Errc::retry_later ||
         e == Errc::stale_epoch || e == Errc::not_primary ||
         e == Errc::no_quorum || e == Errc::no_such_segid ||
         e == Errc::no_name_server;
}

// Replica groups for @p shards shards R-way replicated over @p hosts
// host enclaves (runtime ids 1..hosts): group s starts at host s*R mod
// hosts and wraps, so groups overlap once shards*R exceeds hosts.
std::vector<std::vector<u64>> make_groups(u32 shards, u32 repl, u32 hosts) {
  std::vector<std::vector<u64>> groups;
  for (u32 s = 0; s < shards; ++s) {
    std::vector<u64> g;
    for (u32 j = 0; j < repl; ++j) {
      g.push_back(((static_cast<u64>(s) * repl + j) % hosts) + 1);
    }
    groups.push_back(std::move(g));
  }
  return groups;
}

// Storm throughput: 8 co-kernel enclaves, every one a client running
// `workers` concurrent make/search/remove loops against the registry.
// With co-kernel shards the registry work spreads over the shard hosts'
// service cores; with the default shard every op serializes on the hub.
Row run_storm(const std::string& name, u32 shards, u32 repl, int workers,
              int iters) {
  Row row;
  row.name = name;
  row.shards = shards;
  row.repl = repl;
  sim::Engine eng(8100);
  Node node(hw::Machine::r420());
  constexpr u32 kEnclaves = 8;
  node.set_kernel_config(
      shard_config(shards == 0 ? std::vector<std::vector<u64>>{}
                               : make_groups(shards, repl, kEnclaves)));
  node.add_linux_mgmt("linux", 0, {0, 1});
  std::vector<std::string> names;
  for (u32 i = 0; i < kEnclaves; ++i) {
    names.push_back("ck" + std::to_string(i));
    node.add_cokernel(names.back(), 0, {2 + 2 * i, 3 + 2 * i}, 256_MiB);
  }
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      node.link_peers(names[i], names[j]);
    }
  }

  Throughput tp;
  u64 failures = 0;

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    std::vector<os::Process*> procs;
    for (const auto& n : names) {
      procs.push_back(node.enclave(n).create_process(8_MiB).value());
    }

    u32 pending = kEnclaves * static_cast<u32>(workers);
    sim::Event done;
    auto worker = [&](u32 e, int w) -> sim::Task<void> {
      XememKernel* k = &node.kernel(names[e]);
      os::Process* p = procs[e];
      for (int i = 0; i < iters; ++i) {
        const std::string nm = "e" + std::to_string(e) + "w" +
                               std::to_string(w) + "i" + std::to_string(i);
        auto sid = co_await k->xpmem_make(*p, p->image_base(), 4_KiB, nm);
        if (!sid.ok()) {
          ++failures;
          continue;
        }
        tp.add();
        auto f = co_await k->xpmem_search(nm);
        if (f.ok()) tp.add(); else ++failures;
        auto rm = co_await k->xpmem_remove(*p, sid.value());
        if (rm.ok()) tp.add(); else ++failures;
      }
      if (--pending == 0) done.set();
    };
    tp.begin(sim::now());
    for (u32 e = 0; e < kEnclaves; ++e) {
      for (int w = 0; w < workers; ++w) {
        sim::Engine::current()->spawn(worker(e, w));
      }
    }
    co_await done.wait();
    tp.end(sim::now());

    for (const auto& n : names) {
      const auto& st = node.kernel(n).stats();
      row.quorum_writes += st.quorum_writes;
      row.replications += st.replications;
      row.promotions += st.shard_promotions;
    }
    const auto& hub = node.kernel("linux").stats();
    row.quorum_writes += hub.quorum_writes;
    row.replications += hub.replications;
    row.promotions += hub.shard_promotions;
    row.sim_ms = static_cast<double>(sim::now()) / 1e6;
  };
  eng.run(main());
  row.ops = tp.events();
  row.kops = tp.per_sec() / 1e3;
  row.failures = failures;
  return row;
}

// Churn storm: 4 shards 3-way replicated over 8 host enclaves, 2 client
// enclaves driving deadline-bounded op loops. Mid-storm every shard's
// boot primary crashes at once; the elections must all resolve bounded
// and every op in the storm must still converge.
Row run_churn(int workers, int iters) {
  Row row;
  row.name = "churn-storm";
  row.shards = 4;
  row.repl = 3;
  sim::Engine eng(8200);
  Node node(hw::Machine::r420());
  constexpr u32 kHosts = 8;
  // Boot primaries (first member, epoch 1) on disjoint hosts 1-4 with
  // followers drawn from hosts 5-8: crashing every boot primary at once
  // still leaves each shard a 2-of-3 majority to elect from. (The wrapped
  // make_groups layout would put one shard's primary in another's
  // follower slot, and the storm would kill majorities outright.)
  const std::vector<std::vector<u64>> groups{
      {1, 5, 6}, {2, 6, 7}, {3, 7, 8}, {4, 8, 5}};
  node.set_kernel_config(shard_config(groups));
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  std::vector<std::string> names;
  for (u32 i = 0; i < kHosts + 2; ++i) {  // 8 hosts + 2 pure clients
    names.push_back("ck" + std::to_string(i));
    node.add_cokernel(names.back(), 0, {4 + 2 * i, 5 + 2 * i}, 256_MiB);
  }
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      node.link_peers(names[i], names[j]);
    }
  }

  Throughput tp;
  u64 failures = 0;

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    // Runtime ids 9 and 10 host no replica slot: they are the clients.
    std::vector<XememKernel*> clients;
    std::vector<os::Process*> procs;
    for (u64 eid : {u64{9}, u64{10}}) {
      XememKernel* k = node.kernel_with_id(eid);
      clients.push_back(k);
      for (const auto& n : names) {
        if (&node.kernel(n) == k) {
          procs.push_back(node.enclave(n).create_process(8_MiB).value());
        }
      }
    }

    u32 pending = static_cast<u32>(clients.size()) * workers;
    sim::Event done;
    auto worker = [&](u32 c, int w) -> sim::Task<void> {
      XememKernel* k = clients[c];
      os::Process* p = procs[c];
      for (int i = 0; i < iters; ++i) {
        const std::string nm = "c" + std::to_string(c) + "w" +
                               std::to_string(w) + "i" + std::to_string(i);
        Result<Segid> sid{Errc::unreachable};
        for (int t = 0; t < 240; ++t) {
          sid = co_await k->xpmem_make(*p, p->image_base(), 4_KiB, nm);
          if (sid.ok()) break;
          // A retry whose predecessor committed before the primary died:
          // converged, the registration is durable — fetch it by name.
          if (sid.error() == Errc::already_exists) {
            sid = co_await k->xpmem_search(nm);
            if (sid.ok()) break;
          }
          if (!clean_error(sid.error())) break;
          co_await sim::delay(500_us);
        }
        if (!sid.ok()) {
          ++failures;
          continue;
        }
        tp.add();
        Result<Segid> f{Errc::unreachable};
        for (int t = 0; t < 240; ++t) {
          f = co_await k->xpmem_search(nm);
          if (f.ok()) break;
          if (!clean_error(f.error())) break;
          co_await sim::delay(500_us);
        }
        if (f.ok()) tp.add(); else ++failures;
        Result<void> rm{Errc::unreachable};
        for (int t = 0; t < 240; ++t) {
          rm = co_await k->xpmem_remove(*p, sid.value());
          if (rm.ok() || rm.error() == Errc::no_such_segid) break;
          if (!clean_error(rm.error())) break;
          co_await sim::delay(500_us);
        }
        if (rm.ok() || rm.error() == Errc::no_such_segid) {
          tp.add();
        } else {
          ++failures;
        }
      }
      if (--pending == 0) done.set();
    };
    tp.begin(sim::now());
    for (u32 c = 0; c < clients.size(); ++c) {
      for (int w = 0; w < workers; ++w) {
        sim::Engine::current()->spawn(worker(c, w));
      }
    }

    // Kill every boot primary mid-storm, while workers still have
    // iterations left to ride the elections' retries.
    co_await sim::delay(200_us);
    for (const auto& g : groups) {
      XememKernel* p = node.kernel_with_id(g[0]);
      if (p != nullptr && !p->is_crashed()) p->crash();
    }
    const sim::TimePoint t_crash = sim::now();
    bool recovered = false;
    for (int i = 0; i < 2000 && !recovered; ++i) {
      recovered = true;
      for (u32 s = 0; s < 4; ++s) {
        bool has_primary = false;
        for (const auto& n : names) {
          XememKernel& k = node.kernel(n);
          if (!k.is_crashed() && k.is_shard_primary(s)) has_primary = true;
        }
        recovered = recovered && has_primary;
      }
      if (!recovered) co_await sim::delay(100_us);
    }
    if (recovered) {
      row.recovery_ms = static_cast<double>(sim::now() - t_crash) / 1e6;
    }

    co_await done.wait();
    tp.end(sim::now());
    for (const auto& n : names) {
      const auto& st = node.kernel(n).stats();
      row.quorum_writes += st.quorum_writes;
      row.replications += st.replications;
      row.promotions += st.shard_promotions;
    }
    row.sim_ms = static_cast<double>(sim::now()) / 1e6;
  };
  eng.run(main());
  row.ops = tp.events();
  row.kops = tp.per_sec() / 1e3;
  row.failures = failures;
  return row;
}

// Dead-replica row: 2 shards 3-way replicated; one follower per shard is
// down. Lookups and writes keep serving from the remaining majority and
// no election runs (the primaries are alive).
Row run_dead_replica(int iters) {
  Row row;
  row.name = "dead-replica";
  row.shards = 2;
  row.repl = 3;
  sim::Engine eng(8300);
  Node node(hw::Machine::r420());
  const auto groups = make_groups(2, 3, 6);  // hosts 1..6, disjoint groups
  node.set_kernel_config(shard_config(groups));
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  std::vector<std::string> names;
  for (u32 i = 0; i < 8; ++i) {  // 6 hosts + 2 clients
    names.push_back("ck" + std::to_string(i));
    node.add_cokernel(names.back(), 0, {4 + 2 * i, 5 + 2 * i}, 256_MiB);
  }
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      node.link_peers(names[i], names[j]);
    }
  }

  Throughput tp;
  u64 failures = 0;

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    std::vector<XememKernel*> clients;
    std::vector<os::Process*> procs;
    for (u64 eid : {u64{7}, u64{8}}) {
      XememKernel* k = node.kernel_with_id(eid);
      clients.push_back(k);
      for (const auto& n : names) {
        if (&node.kernel(n) == k) {
          procs.push_back(node.enclave(n).create_process(8_MiB).value());
        }
      }
    }

    // Seed the registry, then kill the last follower of each group.
    std::vector<std::string> published;
    for (int i = 0; i < 8; ++i) {
      const std::string nm = "seed" + std::to_string(i);
      auto s = co_await clients[0]->xpmem_make(*procs[0], procs[0]->image_base(),
                                               4_KiB, nm);
      if (!s.ok()) { ++failures; continue; }
      published.push_back(nm);
    }
    for (const auto& g : groups) node.kernel_with_id(g.back())->crash();

    u32 pending = static_cast<u32>(clients.size());
    sim::Event done;
    auto worker = [&](u32 c) -> sim::Task<void> {
      XememKernel* k = clients[c];
      os::Process* p = procs[c];
      for (int i = 0; i < iters; ++i) {
        auto f = co_await k->xpmem_search(published[i % published.size()]);
        if (f.ok()) tp.add(); else ++failures;
        // Writes still commit 2-of-3.
        const std::string nm =
            "dr" + std::to_string(c) + "i" + std::to_string(i);
        auto s = co_await k->xpmem_make(*p, p->image_base(), 4_KiB, nm);
        if (s.ok()) tp.add(); else ++failures;
        auto rm = co_await k->xpmem_remove(*p, s.ok() ? s.value() : Segid{0});
        if (rm.ok()) tp.add(); else ++failures;
      }
      if (--pending == 0) done.set();
    };
    tp.begin(sim::now());
    for (u32 c = 0; c < clients.size(); ++c) {
      sim::Engine::current()->spawn(worker(c));
    }
    co_await done.wait();
    tp.end(sim::now());
    for (const auto& n : names) {
      const auto& st = node.kernel(n).stats();
      row.quorum_writes += st.quorum_writes;
      row.replications += st.replications;
      row.promotions += st.shard_promotions;
    }
    row.sim_ms = static_cast<double>(sim::now()) / 1e6;
  };
  eng.run(main());
  row.ops = tp.events();
  row.kops = tp.per_sec() / 1e3;
  row.failures = failures;
  return row;
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%14s %6s %4s %7s %9s %8s %8s %7s %6s %11s %7s\n", "case",
              "shards", "repl", "ops", "kops/sec", "failures", "qwrites",
              "repls", "promos", "recovery_ms", "sim_ms");
  for (const auto& r : rows) {
    std::printf("%14s %6u %4u %7llu %9.1f %8llu %8llu %7llu %6llu %11.2f %7.1f\n",
                r.name.c_str(), r.shards, r.repl,
                static_cast<unsigned long long>(r.ops), r.kops,
                static_cast<unsigned long long>(r.failures),
                static_cast<unsigned long long>(r.quorum_writes),
                static_cast<unsigned long long>(r.replications),
                static_cast<unsigned long long>(r.promotions), r.recovery_ms,
                r.sim_ms);
  }
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                bool passed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_ns_shard\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"case\": \"%s\", \"shards\": %u, \"repl\": %u, \"ops\": %llu, "
        "\"kops_per_sec\": %.2f, \"failures\": %llu, \"quorum_writes\": %llu, "
        "\"replications\": %llu, \"promotions\": %llu, "
        "\"recovery_ms\": %.3f, \"sim_ms\": %.3f}%s\n",
        r.name.c_str(), r.shards, r.repl,
        static_cast<unsigned long long>(r.ops), r.kops,
        static_cast<unsigned long long>(r.failures),
        static_cast<unsigned long long>(r.quorum_writes),
        static_cast<unsigned long long>(r.replications),
        static_cast<unsigned long long>(r.promotions), r.recovery_ms, r.sim_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"all_checks_passed\": %s\n}\n",
               passed ? "true" : "false");
  std::fclose(f);
}

}  // namespace
}  // namespace xemem

int main(int argc, char** argv) {
  using namespace xemem;
  const bench::WallClock wall_clock;
  const auto [quick, json_path] = bench::parse_args(argc, argv, true);

  bench::header(
      "Ablation: sharded quorum-replicated name service",
      "shards the registry by segid/name hash across name-service "
      "enclaves and replicates each shard to a majority-ack group; "
      "measures ops/sec scaling with shard count against the central "
      "single-NS baseline, the cost of 3-way replication, recovery from "
      "a churn storm that kills every shard primary at once, and service "
      "continuity with a dead replica per shard");

  const int workers = 3;
  const int iters = quick ? 8 : 40;
  std::vector<Row> rows;
  rows.push_back(run_storm("central-baseline", 0, 0, workers, iters));
  rows.push_back(run_storm("shards-1", 1, 1, workers, iters));
  rows.push_back(run_storm("shards-2", 2, 1, workers, iters));
  rows.push_back(run_storm("shards-4", 4, 1, workers, iters));
  rows.push_back(run_storm("shards-4-r3", 4, 3, workers, iters));
  rows.push_back(run_churn(2, quick ? 6 : 20));
  rows.push_back(run_dead_replica(quick ? 10 : 40));
  print_rows(rows);

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  const Row& base = rows[0];
  const Row& s1 = rows[1];
  const Row& s2 = rows[2];
  const Row& s4 = rows[3];
  const Row& r3 = rows[4];
  const Row& churn = rows[5];
  const Row& dead = rows[6];
  checks.expect(base.failures == 0 && base.quorum_writes == s1.quorum_writes &&
                    base.replications == 0 && base.promotions == 0,
                "pay-for-use: the hub's group of one commits at once, with no "
                "replication or election");
  checks.expect(s1.failures == 0 && s2.failures == 0 && s4.failures == 0,
                "healthy sharded storms complete without failures");
  checks.expect(s1.kops > 0.5 * base.kops,
                "one shard roughly matches the central baseline");
  checks.expect(s2.kops > 1.4 * s1.kops && s4.kops > 2.0 * s1.kops,
                "throughput scales with shard count");
  checks.expect(r3.failures == 0 && r3.replications > 0,
                "3-way replication serves the storm with follower traffic");
  checks.expect(churn.failures == 0,
                "the churn storm rides out every primary crash");
  checks.expect(churn.promotions >= 4,
                "every crashed primary was replaced by election");
  checks.expect(churn.recovery_ms > 0 && churn.recovery_ms < 50.0,
                "recovery from the simultaneous crash is bounded");
  checks.expect(dead.failures == 0 && dead.promotions == 0,
                "a dead follower per shard costs no availability");

  if (!json_path.empty()) {
    write_json(json_path, rows, checks.all_passed());
    std::printf("\njson written to %s\n", json_path.c_str());
  }
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
