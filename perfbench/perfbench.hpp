// Shared declarations of the end-to-end benchmark (see perfbench.cpp).
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"
#include "xemem/system.hpp"

namespace perfbench {

using xemem::u32;
using xemem::u64;

/// splitmix-style order-sensitive fold for digests and seed derivation.
inline u64 mix(u64 h, u64 v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Seed of op @p i: a fresh, uncorrelated stream per op.
inline u64 op_seed(u64 seed, u64 i) {
  xemem::Rng r(mix(seed, i));
  return r.next();
}

/// Linear-interpolation quantile (the numpy default) of @p v, q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Named metric values. Every name a run prints is declared up front with
/// its unit; a value set under an undeclared name is a benchmark bug.
class Metrics {
 public:
  void declare(const std::string& name, const std::string& unit) {
    index_[name] = rows_.size();
    rows_.push_back({name, unit, 0.0});
  }
  void set(const std::string& name, double value) {
    auto it = index_.find(name);
    XEMEM_ASSERT_MSG(it != index_.end(), "undeclared metric");
    rows_[it->second].value = value;
  }
  double get(const std::string& name) const { return rows_[index_.at(name)].value; }
  struct Row {
    std::string name;
    std::string unit;
    double value;
  };
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
  std::map<std::string, size_t> index_;
};

/// Simulator counters of one Node, summed over the named enclaves' kernels
/// and every core of its machine. Differences of two reads are what an op
/// did.
struct NodeCounters {
  u64 irq_events{0};
  u64 stolen_ns{0};
  u64 vmm_map_ns{0};
  u64 ns_requests{0};
  u64 messages_forwarded{0};
  u64 retries{0};
  u64 timeouts{0};
  u64 pages_shared{0};
  u64 dedup_entries{0};

  static NodeCounters read(xemem::Node& node, const std::vector<std::string>& enclaves);
  NodeCounters& operator+=(const NodeCounters& o);
  NodeCounters operator-(const NodeCounters& o) const;
  /// Set the hw, mm, palacios and xemem per-op metrics these counters give
  /// over @p ops ops (dedup_entries is a level, set by the caller).
  void set_per_op(Metrics& m, double ops) const;
};

/// Engine kind and worker count a workload actually ran on.
struct EngineStamp {
  std::string kind;
  u32 workers{1};
};

inline EngineStamp stamp_of(const xemem::sim::Engine& eng) {
  return {eng.kind() == xemem::sim::EngineKind::parallel ? "parallel" : "serial",
          eng.workers()};
}

/// What one op reports to the closed loop.
struct OpResult {
  bool ok{false};
  double sim_ms{0};
};

/// One workload of the benchmark. The closed loop calls setup() several
/// times (each call rebuilds the world from scratch), then op() a fixed
/// number of times, one op starting when the previous one ends.
class Workload {
 public:
  explicit Workload(u64 seed, Tracer& tr) : seed_(seed), tr_(tr) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Build the world: topology, boot, process images, untimed warm-up.
  virtual void setup() = 0;
  /// Run op @p index; @p traced records spans and layer counters.
  virtual OpResult op(u64 index, bool traced) = 0;
  /// Checks that run once after the loop; returns how many ops they fail.
  virtual u64 verify() { return 0; }
  /// Set the per-layer metrics this workload reaches from its traced ops.
  virtual void layer_metrics(Metrics& m) const = 0;
  /// Lines of the paper check and the predictions, for the traced run.
  virtual void print_checks() const {}
  virtual EngineStamp engine() const = 0;

  /// Digest of every simulated output of the ops run so far.
  u64 digest() const { return digest_; }

  /// Test hook: make op @p index issue one XPMEM call that must fail.
  void inject_failure_at(u64 index) { fail_op_ = index; }

 protected:
  void fold(u64 v) { digest_ = mix(digest_, v); }

  u64 seed_;
  Tracer& tr_;
  u64 fail_op_{~u64{0}};

 private:
  u64 digest_{0};
};

std::unique_ptr<Workload> make_attach(u64 seed, Tracer& tr);
std::unique_ptr<Workload> make_insitu(u64 seed, Tracer& tr);
std::unique_ptr<Workload> make_multinode(u64 seed, Tracer& tr);

}  // namespace perfbench
