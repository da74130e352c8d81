// Ablation: cross-enclave burst-buffer I/O cache (DESIGN.md §11).
//
// Sweeps the replay families (checkpoint / dl_training / scan) over client
// count and cache capacity and reports, per cell: hit rate, attach rate,
// and warm-vs-cold access latency. The qualitative shapes this must
// reproduce: warm accesses (cached attachment, no fetch) are far cheaper
// than cold ones (backing-store latency + bandwidth); the DL-training
// family's hit rate responds to capacity (hot set resident vs thrashing);
// the streaming scan family gets little from any capacity. A second
// section counts lease-renewal traffic: one heartbeat message per peer
// enclave per tick, carrying the list of shards that peer hosts.
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "iocache/cache.hpp"
#include "iocache/replay.hpp"
#include "workloads/multinode.hpp"
#include "xemem/system.hpp"

namespace xemem {
namespace {

using iocache::BackingStore;
using iocache::CacheClient;
using iocache::CacheServer;
using iocache::Family;
using iocache::family_name;

struct Row {
  Family family{Family::checkpoint};
  u32 clients{0};
  u64 capacity{0};
  u64 ops{0};
  double hit_rate{0};
  double attaches_per_sec{0};
  double warm_p50_ns{0};
  double cold_p50_ns{0};
  u64 store_reads{0};
  u64 store_writes{0};
  double sim_ms{0};
  bool clean{false};
};

KernelConfig cache_kernel_config() {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 3;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  cfg.lease_duration = 5_ms;
  return cfg;
}

/// Replays one rank's trace through its cache client.
sim::Task<void> drive_rank(CacheClient* c, std::vector<iocache::ReplayOp> trace,
                           u64 rank, bool* clean, u32* pending,
                           sim::Event* done) {
  u64 next_stamp = (rank + 1) * 1000000;
  for (const auto& op : trace) {
    if (op.is_write) {
      if (!(co_await c->write(op.block, next_stamp++)).ok()) *clean = false;
    } else {
      if (!(co_await c->read(op.block)).ok()) *clean = false;
    }
  }
  if (--*pending == 0) done->set();
}

Row run_cell(Family family, u32 nclients, u64 capacity, u64 file_blocks,
             u64 ops_per_rank) {
  Row row;
  row.family = family;
  row.clients = nclients;
  row.capacity = capacity;

  iocache::Config io;
  io.file_blocks = file_blocks;
  io.capacity_blocks = capacity;
  io.block_bytes = 16_KiB;
  io.num_clients = nclients;
  io.block_lease = 200_us;

  sim::Engine eng(4242);  // same seed for every cell: only the knobs move
  Node node(hw::Machine::r420());
  node.set_kernel_config(cache_kernel_config());
  node.add_linux_mgmt("linux", 0, {0, 1});
  node.add_cokernel("srv0", 0, {2, 3}, 1_GiB);
  for (u32 c = 0; c < nclients; ++c) {
    node.add_cokernel("cli" + std::to_string(c), 0, {4 + c}, 256_MiB);
  }
  BackingStore store(file_blocks, 42);

  iocache::ReplayParams rp;
  rp.file_blocks = file_blocks;
  rp.ops_per_rank = ops_per_rank;
  rp.seed = 7;

  auto main = [&]() -> sim::Task<void> {
    bool clean = true;
    co_await node.start();
    CacheServer srv(node.kernel("srv0"), node.enclave("srv0"), 0, io, store);
    std::vector<std::unique_ptr<CacheClient>> cls;
    for (u32 c = 0; c < nclients; ++c) {
      const std::string n = "cli" + std::to_string(c);
      cls.push_back(std::make_unique<CacheClient>(node.kernel(n),
                                                  node.enclave(n), c, io));
      clean = (co_await cls.back()->start()).ok() && clean;
    }
    clean = (co_await srv.start()).ok() && clean;

    const sim::TimePoint t0 = sim::now();
    u32 pending = nclients;
    sim::Event done;
    for (u32 c = 0; c < nclients; ++c) {
      sim::Engine::current()->spawn(
          drive_rank(cls[c].get(), iocache::make_trace(family, c, nclients, rp),
                     c, &clean, &pending, &done));
    }
    co_await done.wait();
    const double window_ns = static_cast<double>(sim::now() - t0);

    u64 ops = 0;
    u64 hits = 0;
    u64 attaches = 0;
    Samples warm;
    Samples cold;
    for (auto& c : cls) {
      auto& m = c->metrics();
      ops += m.ops;
      hits += m.hits;
      attaches += m.attaches;
      for (double x : m.warm_ns.values()) warm.add(x);
      for (double x : m.cold_ns.values()) cold.add(x);
    }
    row.ops = ops;
    row.hit_rate =
        ops ? static_cast<double>(hits) / static_cast<double>(ops) : 0.0;
    row.attaches_per_sec =
        window_ns > 0 ? static_cast<double>(attaches) * 1e9 / window_ns : 0.0;
    row.warm_p50_ns = warm.empty() ? 0.0 : warm.percentile(50);
    row.cold_p50_ns = cold.empty() ? 0.0 : cold.percentile(50);

    for (auto& c : cls) co_await c->shutdown();
    clean = (co_await srv.stop()).ok() && clean;
    clean = clean && node.kernel("srv0").pinned_frames() == 0;
    for (u32 c = 0; c < nclients; ++c) {
      clean =
          clean && node.kernel("cli" + std::to_string(c)).pinned_frames() == 0;
    }
    row.store_reads = store.reads();
    row.store_writes = store.writes();
    row.sim_ms = static_cast<double>(sim::now()) / 1e6;
    row.clean = clean;
  };
  eng.run(main());
  return row;
}

/// Lease-renewal traffic: total heartbeat messages across the node with
/// three NS shards replicated on two enclaves, idle for a fixed window.
/// Returns {heartbeat messages sent, leases expired}.
std::pair<u64, u64> run_renewal() {
  KernelConfig cfg = cache_kernel_config();
  cfg.ns_shards = {{1, 2}, {1, 2}, {1, 2}};
  sim::Engine eng(808);
  Node node(hw::Machine::r420());
  node.set_kernel_config(cfg);
  node.add_linux_mgmt("linux", 0, {0, 1});
  node.add_cokernel("cka", 0, {2, 3}, 256_MiB);
  node.add_cokernel("ckb", 0, {4, 5}, 256_MiB);
  u64 sent = 0;
  u64 expired = 0;
  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    co_await sim::delay(40_ms);
    for (const char* n : {"linux", "cka", "ckb"}) {
      sent += node.kernel(n).stats().heartbeats_sent;
      expired += node.kernel(n).stats().leases_expired;
    }
  };
  eng.run(main());
  return {sent, expired};
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%12s %8s %9s %6s %9s %12s %12s %12s %8s %9s %6s\n", "family",
              "clients", "capacity", "ops", "hit_rate", "attach_per_s",
              "warm_p50_ns", "cold_p50_ns", "pfs_rd", "pfs_wr", "clean");
  for (const auto& r : rows) {
    std::printf(
        "%12s %8u %9llu %6llu %9.3f %12.0f %12.0f %12.0f %8llu %9llu %6s\n",
        family_name(r.family), r.clients,
        static_cast<unsigned long long>(r.capacity),
        static_cast<unsigned long long>(r.ops), r.hit_rate, r.attaches_per_sec,
        r.warm_p50_ns, r.cold_p50_ns,
        static_cast<unsigned long long>(r.store_reads),
        static_cast<unsigned long long>(r.store_writes),
        r.clean ? "yes" : "NO");
  }
}

/// Same-seed serial-vs-parallel engine comparison on the multi-node I/O
/// cache workload (DESIGN.md §12): the simulated results must match
/// bit-for-bit; only host wall-clock may differ.
struct EngineSpeedup {
  u32 nodes{0};
  u32 workers{0};
  double serial_wall_ms{0};
  double parallel_wall_ms{0};
  double speedup{0};
  bool checksum_match{false};
};

void write_json(const std::string& path, const std::vector<Row>& rows,
                u64 renewal_msgs, const EngineSpeedup& es, bool passed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_iocache\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"family\": \"%s\", \"clients\": %u, \"capacity\": %llu, "
        "\"ops\": %llu, \"hit_rate\": %.4f, \"attaches_per_sec\": %.1f, "
        "\"warm_p50_ns\": %.1f, \"cold_p50_ns\": %.1f, "
        "\"store_reads\": %llu, \"store_writes\": %llu, \"sim_ms\": %.3f, "
        "\"clean\": %s}%s\n",
        family_name(r.family), r.clients,
        static_cast<unsigned long long>(r.capacity),
        static_cast<unsigned long long>(r.ops), r.hit_rate, r.attaches_per_sec,
        r.warm_p50_ns, r.cold_p50_ns,
        static_cast<unsigned long long>(r.store_reads),
        static_cast<unsigned long long>(r.store_writes), r.sim_ms,
        r.clean ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"lease_renewal\": {\"heartbeat_msgs\": %llu},\n"
               "  \"engine_speedup\": {\"nodes\": %u, \"workers\": %u, "
               "\"serial_wall_ms\": %.1f, \"parallel_wall_ms\": %.1f, "
               "\"speedup\": %.3f, \"checksum_match\": %s},\n"
               "  \"all_checks_passed\": %s\n}\n",
               static_cast<unsigned long long>(renewal_msgs), es.nodes,
               es.workers, es.serial_wall_ms, es.parallel_wall_ms, es.speedup,
               es.checksum_match ? "true" : "false",
               passed ? "true" : "false");
  std::fclose(f);
}

EngineSpeedup run_engine_speedup(bool quick) {
  workloads::MultinodeParams p;
  p.nodes = 4;
  p.clients_per_node = 2;
  p.ops_per_rank = quick ? 32 : 48;
  p.kind = sim::EngineKind::serial;
  const auto serial = workloads::run_multinode_iocache(p);
  p.kind = sim::EngineKind::parallel;
  p.workers = 4;
  const auto parallel = workloads::run_multinode_iocache(p);
  EngineSpeedup s;
  s.nodes = p.nodes;
  s.workers = p.workers;
  s.serial_wall_ms = serial.wall_ms;
  s.parallel_wall_ms = parallel.wall_ms;
  s.speedup = parallel.wall_ms > 0 ? serial.wall_ms / parallel.wall_ms : 0.0;
  s.checksum_match = serial.checksum == parallel.checksum &&
                     serial.sim_ms == parallel.sim_ms && serial.clean &&
                     parallel.clean;
  return s;
}

double cell_hit_rate(const std::vector<Row>& rows, Family f, u32 clients,
                     u64 capacity) {
  for (const auto& r : rows) {
    if (r.family == f && r.clients == clients && r.capacity == capacity) {
      return r.hit_rate;
    }
  }
  return -1.0;
}

}  // namespace
}  // namespace xemem

int main(int argc, char** argv) {
  using namespace xemem;
  const bench::WallClock wall_clock;
  const auto [quick, json_path] = bench::parse_args(argc, argv, true);

  bench::header(
      "Ablation: burst-buffer I/O cache (replay families x clients x "
      "capacity)",
      "cache-server enclaves share PFS blocks with every job on the node "
      "through XEMEM attach-on-read; warm accesses skip the backing store "
      "entirely, so hit rate (a function of family reuse and cache "
      "capacity) sets the latency profile; batched lease renewals cut the "
      "name-service heartbeat load");

  const u64 file_blocks = 96;
  const u64 ops_per_rank = quick ? 64 : 128;
  const std::vector<u32> client_counts = {2, 6};
  const std::vector<u64> capacities = {file_blocks / 8, file_blocks / 2};

  std::vector<Row> rows;
  for (Family fam : {Family::checkpoint, Family::dl_training, Family::scan}) {
    for (u32 nc : client_counts) {
      for (u64 cap : capacities) {
        rows.push_back(run_cell(fam, nc, cap, file_blocks, ops_per_rank));
      }
    }
  }
  print_rows(rows);

  const auto [renewal_msgs, renewal_exp] = run_renewal();
  std::printf(
      "\nlease renewal (3 NS shards on 2 enclaves, 40 ms idle): %llu "
      "heartbeat msgs\n",
      static_cast<unsigned long long>(renewal_msgs));

  const EngineSpeedup es = run_engine_speedup(quick);
  std::printf(
      "\nengine speedup (multi-node epochs, %u nodes, same seed):\n"
      "  serial:      %.1f ms wall\n"
      "  parallel:%u   %.1f ms wall (%.2fx, results %s)\n",
      es.nodes, es.serial_wall_ms, es.workers, es.parallel_wall_ms, es.speedup,
      es.checksum_match ? "bit-identical" : "MISMATCH");

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  bool all_clean = true;
  bool warm_cheaper = true;
  for (const auto& r : rows) {
    all_clean = all_clean && r.clean;
    if (r.warm_p50_ns > 0 && r.cold_p50_ns > 0) {
      warm_cheaper = warm_cheaper && r.warm_p50_ns < r.cold_p50_ns;
    }
  }
  checks.expect(all_clean, "every cell converges with zero leaked pins");
  checks.expect(warm_cheaper,
                "warm accesses beat cold ones in every cell (p50)");
  const double dl_small =
      cell_hit_rate(rows, iocache::Family::dl_training, 2, capacities[0]);
  const double dl_large =
      cell_hit_rate(rows, iocache::Family::dl_training, 2, capacities[1]);
  checks.expect(dl_large > dl_small + 0.1,
                "dl_training hit rate responds to capacity (hot set resident "
                "vs thrashing)");
  const double scan_large =
      cell_hit_rate(rows, iocache::Family::scan, 2, capacities[1]);
  checks.expect(scan_large < dl_large,
                "streaming scan reuses less than dl_training at equal "
                "capacity");
  checks.expect(renewal_exp == 0, "no lease expires while renewals run");
  // Pinned: per tick, each of the two replica hosts sends one message to
  // the name server and one to its peer (4 per tick); any change to the
  // renewal scheme moves this count.
  // Per tick, each co-kernel sends one message to the other replica host
  // and the hub one to each: 2 x 23 ticks after registration plus 2 x 24
  // from the hub's start.
  checks.expect(renewal_msgs == 94,
                "renewal sends one message per peer per tick (94 in 40 ms)");
  checks.expect(es.checksum_match,
                "serial and parallel engines agree bit-for-bit on the "
                "multi-node workload (same seed)");

  if (!json_path.empty()) {
    write_json(json_path, rows, renewal_msgs, es, checks.all_passed());
    std::printf("\njson written to %s\n", json_path.c_str());
  }
  bench::wall_clock_row(wall_clock);
  return checks.exit_code();
}
