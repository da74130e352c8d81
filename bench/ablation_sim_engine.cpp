// Ablation: serial vs parallel discrete-event engine (DESIGN.md §12).
//
// Sweeps the multi-node workloads (hierarchical collectives, burst-buffer
// I/O cache epochs) over node count x engine {serial, parallel:1/2/4} and
// reports, per cell: simulated time, host wall-clock, and the end-state
// checksum. The determinism contract is re-checked on every timed cell —
// all engine variants of a cell must reproduce the serial checksum and
// simulated end time bit-for-bit; only the wall-clock row may move. Every
// row also records the host cost per executed event (host_ns_per_event =
// wall_ms * 1e6 / events).
//
// The parallel engine targets >= 2x wall-clock at 16 enclaves / 4 workers;
// that check needs >= 4 hardware threads and is reported as skipped on
// smaller hosts (the determinism checks still run everywhere).
//
// Usage: ablation_sim_engine [--quick] [--json PATH]
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sim/engine.hpp"
#include "workloads/multinode.hpp"

namespace xemem {
namespace {

using workloads::MultinodeParams;
using workloads::MultinodeResult;

struct Row {
  std::string workload;
  u32 nodes{0};
  u32 enclaves{0};
  std::string engine;
  u32 workers{1};
  double sim_ms{0};
  double wall_ms{0};
  u64 checksum{0};
  u64 events{0};
  bool clean{false};
  double speedup{0};  ///< serial wall / this wall, within the same cell

  double host_ns_per_event() const {
    return events > 0 ? wall_ms * 1e6 / static_cast<double>(events) : 0.0;
  }
};

MultinodeParams coll_params(u32 nodes, bool quick) {
  MultinodeParams p;
  p.nodes = nodes;
  p.ranks_per_node = 4;
  p.enclaves_per_node = 4;
  p.iters = quick ? 3 : 5;
  p.bytes = 16384;
  return p;
}

MultinodeParams io_params(u32 nodes, bool quick) {
  MultinodeParams p;
  p.nodes = nodes;
  p.clients_per_node = 2;  // + server + mgmt enclaves = 4 per node
  p.ops_per_rank = quick ? 32 : 64;
  p.epoch_ops = 16;
  p.capacity_blocks = 24;
  p.file_blocks = 48;
  return p;
}

Row run_row(const char* workload, MultinodeParams p, sim::EngineKind kind,
            u32 workers) {
  p.kind = kind;
  p.workers = workers;
  const bool coll = std::string(workload) == "collectives";
  const MultinodeResult r = coll ? workloads::run_multinode_collectives(p)
                                 : workloads::run_multinode_iocache(p);
  Row row;
  row.workload = workload;
  row.nodes = p.nodes;
  row.enclaves = r.enclaves;
  row.engine = kind == sim::EngineKind::serial
                   ? "serial"
                   : "parallel:" + std::to_string(workers);
  row.workers = kind == sim::EngineKind::serial ? 1 : workers;
  row.sim_ms = r.sim_ms;
  row.wall_ms = r.wall_ms;
  row.checksum = r.checksum;
  row.events = r.events;
  row.clean = r.clean;
  return row;
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-12s %6s %9s %12s %8s %10s %10s %8s %12s %6s\n",
              "workload", "nodes", "enclaves", "engine", "workers", "sim_ms",
              "wall_ms", "speedup", "ns_per_event", "clean");
  for (const auto& r : rows) {
    std::printf("%-12s %6u %9u %12s %8u %10.2f %10.1f %7.2fx %12.0f %6s\n",
                r.workload.c_str(), r.nodes, r.enclaves, r.engine.c_str(),
                r.workers, r.sim_ms, r.wall_ms, r.speedup,
                r.host_ns_per_event(), r.clean ? "yes" : "NO");
  }
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                double speedup_16_4, bool passed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"ablation_sim_engine\",\n"
               "  \"host_threads\": %u,\n  \"rows\": [\n",
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"nodes\": %u, \"enclaves\": %u, "
        "\"engine\": \"%s\", \"workers\": %u, \"sim_ms\": %.3f, "
        "\"wall_ms\": %.1f, \"checksum\": %llu, \"events\": %llu, "
        "\"host_ns_per_event\": %.0f, \"speedup_vs_serial\": %.3f, "
        "\"clean\": %s}%s\n",
        r.workload.c_str(), r.nodes, r.enclaves, r.engine.c_str(), r.workers,
        r.sim_ms, r.wall_ms, static_cast<unsigned long long>(r.checksum),
        static_cast<unsigned long long>(r.events), r.host_ns_per_event(),
        r.speedup, r.clean ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"speedup_16_enclaves_4_workers\": %.3f,\n"
               "  \"all_checks_passed\": %s\n}\n",
               speedup_16_4, passed ? "true" : "false");
  std::fclose(f);
}

}  // namespace
}  // namespace xemem

int main(int argc, char** argv) {
  using namespace xemem;
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::header(
      "Ablation: parallel discrete-event engine (workers x enclaves)",
      "extension beyond the paper — per-node event queues under "
      "conservative channel lookahead (fabric latency), same-seed "
      "bit-identical results on every engine; only wall-clock moves");

  const u32 host_threads = std::thread::hardware_concurrency();
  std::printf("host threads: %u\n\n", host_threads);

  struct CellSpec {
    const char* workload;
    MultinodeParams params;
  };
  std::vector<CellSpec> cells;
  for (u32 nodes : quick ? std::vector<u32>{4} : std::vector<u32>{2, 4}) {
    cells.push_back({"collectives", coll_params(nodes, quick)});
  }
  for (u32 nodes : quick ? std::vector<u32>{4} : std::vector<u32>{2, 4}) {
    cells.push_back({"iocache", io_params(nodes, quick)});
  }
  const std::vector<u32> worker_counts =
      quick ? std::vector<u32>{4} : std::vector<u32>{1, 2, 4};

  std::vector<Row> rows;
  bool checksums_match = true;
  bool all_clean = true;
  double speedup_16_4 = 0;
  for (const auto& cell : cells) {
    Row serial =
        run_row(cell.workload, cell.params, sim::EngineKind::serial, 1);
    serial.speedup = 1.0;
    all_clean = all_clean && serial.clean;
    rows.push_back(serial);
    for (u32 w : worker_counts) {
      if (w > cell.params.nodes) continue;
      Row par = run_row(cell.workload, cell.params, sim::EngineKind::parallel,
                        w);
      par.speedup = par.wall_ms > 0 ? serial.wall_ms / par.wall_ms : 0.0;
      checksums_match = checksums_match && par.checksum == serial.checksum &&
                        par.sim_ms == serial.sim_ms;
      all_clean = all_clean && par.clean;
      if (par.enclaves == 16 && par.workers == 4) {
        speedup_16_4 = std::max(speedup_16_4, par.speedup);
      }
      rows.push_back(par);
    }
  }
  print_rows(rows);

  std::printf("\nshape checks:\n");
  bench::ShapeChecks checks;
  checks.expect(all_clean, "every cell converges cleanly on every engine");
  checks.expect(checksums_match,
                "same seed, same checksum and simulated time on every "
                "engine variant (bit-identical results)");
  if (host_threads >= 4) {
    checks.expect(speedup_16_4 >= 2.0,
                  ">= 2x wall-clock at 16 enclaves / 4 workers");
  } else {
    std::printf(
        "  [SKIP] >= 2x wall-clock at 16 enclaves / 4 workers (host has "
        "%u thread%s; measured %.2fx)\n",
        host_threads, host_threads == 1 ? "" : "s", speedup_16_4);
  }

  if (!json_path.empty()) {
    write_json(json_path, rows, speedup_16_4, checks.all_passed());
    std::printf("\njson written to %s\n", json_path.c_str());
  }
  return checks.exit_code();
}
