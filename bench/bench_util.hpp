// Shared support for the experiment harnesses: paper-style table output,
// run-count control, and common topology builders.
//
// Each bench binary regenerates one table or figure of the paper and
// prints (a) the measured series, (b) the paper's reference values, and
// (c) PASS/FAIL qualitative shape checks. Set XEMEM_BENCH_RUNS to override
// the per-configuration repetition count (the simulator is deterministic
// given a seed, so repetitions exist to sample the seeded noise models,
// not hardware jitter).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/engine.hpp"

namespace xemem::bench {

inline int runs_override(int default_runs) {
  if (const char* env = std::getenv("XEMEM_BENCH_RUNS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return default_runs;
}

inline void header(const char* title, const char* paper_ref) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper reference: %s\n\n", paper_ref);
}

/// Engine the bench's Engine instances default to (XEMEM_ENGINE).
inline const char* engine_mode() {
  return sim::Engine::default_kind() == sim::EngineKind::parallel ? "parallel"
                                                                  : "serial";
}

/// A harness's command-line options. Only the harnesses that write JSON
/// take any; the engine is chosen by XEMEM_ENGINE alone.
struct Args {
  bool quick{false};      ///< --quick: the reduced sweep CI runs
  std::string json_path;  ///< --json PATH: also write the rows as JSON
};

/// Parse a harness's argv. @p quick_json accepts --quick and --json PATH;
/// any other argument prints a usage line and exits with status 2.
inline Args parse_args(int argc, char** argv, bool quick_json = false) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (quick_json && arg == "--quick") {
      args.quick = true;
    } else if (quick_json && arg == "--json" && i + 1 < argc) {
      args.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s%s\n", argv[0],
                   quick_json ? " [--quick] [--json PATH]" : "");
      std::exit(2);
    }
  }
  return args;
}

/// Host wall-clock stopwatch for the bench footer: simulated results are
/// deterministic per seed, but the wall-clock row is what XEMEM_ENGINE
/// exists to move.
class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Standard bench footer: which engine ran the simulation and how long it
/// took in host time.
inline void wall_clock_row(const WallClock& wc) {
  std::printf("\nengine: %s, host wall clock: %.0f ms\n", engine_mode(),
              wc.elapsed_ms());
}

/// A qualitative shape assertion, reported PASS/FAIL (benches exit nonzero
/// if any check fails, so CI catches shape regressions).
class ShapeChecks {
 public:
  void expect(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) failed_ = true;
  }
  bool all_passed() const { return !failed_; }
  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_{false};
};

}  // namespace xemem::bench
