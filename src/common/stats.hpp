// Streaming and exact statistics used by the benchmark harnesses, plus the
// bounded accounting map the kernel uses for per-key bookkeeping that must
// not grow with workload size.
#pragma once

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace xemem {

/// Bounded per-key accounting: an unordered_map with FIFO eviction once it
/// holds more than `cap` keys. The kernel uses it for per-segment capability
/// accounting (and revocation tombstones) where the key space is unbounded
/// over a long run but only recent keys matter — memory stays O(cap)
/// regardless of how many segments ever existed. Eviction drops whole
/// entries; `evictions()` exposes how much history was shed so tests can
/// assert the bound actually engaged.
template <typename K, typename V, typename Hash = std::hash<K>>
class BoundedAccountingMap {
 public:
  explicit BoundedAccountingMap(u64 cap = 1024) : cap_(cap < 1 ? 1 : cap) {}

  u64 cap() const { return cap_; }

  /// Value for @p k, inserting (and possibly evicting the oldest key) if
  /// absent. Reference stays valid until the next touch()/erase().
  V& touch(const K& k) {
    auto it = map_.find(k);
    if (it != map_.end()) return it->second;
    fifo_.push_back(k);
    map_[k];
    shrink();
    // cap_ >= 1 and the new key sits at the fifo back, so shrink() cannot
    // have evicted it — unless an older duplicate fifo entry for the same
    // key (erase + re-touch) was popped as victim. Reinsert in that case.
    return map_[k];
  }

  const V* find(const K& k) const {
    auto it = map_.find(k);
    return it == map_.end() ? nullptr : &it->second;
  }
  V* find(const K& k) {
    auto it = map_.find(k);
    return it == map_.end() ? nullptr : &it->second;
  }

  bool contains(const K& k) const { return map_.count(k) != 0; }

  void erase(const K& k) { map_.erase(k); }  // fifo entry lazily skipped

  u64 size() const { return map_.size(); }
  u64 evictions() const { return evictions_; }
  void clear() {
    map_.clear();
    fifo_.clear();
  }

  auto begin() const { return map_.begin(); }
  auto end() const { return map_.end(); }

 private:
  void shrink() {
    while (map_.size() > cap_ && !fifo_.empty()) {
      const K victim = fifo_.front();
      fifo_.pop_front();
      if (map_.erase(victim) != 0) ++evictions_;
    }
    // Drop stale fifo heads left by erase() so the queue cannot outgrow
    // the map by more than the erased keys.
    while (fifo_.size() > 2 * cap_ + 2) {
      const K head = fifo_.front();
      fifo_.pop_front();
      if (map_.count(head) != 0) fifo_.push_back(head);
    }
  }

  u64 cap_;
  u64 evictions_{0};
  std::unordered_map<K, V, Hash> map_;
  std::deque<K> fifo_;
};

/// Welford streaming mean/variance — O(1) memory, numerically stable.
/// Used where the harness only needs mean ± stddev (e.g. the error bars in
/// the paper's Figures 8 and 9).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  u64 count() const { return n_; }
  double mean() const { return mean_; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  u64 n_{0};
  double mean_{0};
  double m2_{0};
  double min_{0};
  double max_{0};
};

/// Exact sample collector with percentiles — used by the noise-profile
/// harness (Figure 7) where the distribution's tail is the whole point.
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }
  void reserve(size_t n) { xs_.reserve(n); }
  size_t count() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  const std::vector<double>& values() const { return xs_; }

  double mean() const {
    double s = 0;
    for (double x : xs_) s += x;
    return xs_.empty() ? 0.0 : s / static_cast<double>(xs_.size());
  }

  /// Percentile by linear interpolation on the sorted sample, q in [0, 100].
  double percentile(double q) {
    XEMEM_ASSERT(!xs_.empty());
    sort();
    const double rank = q / 100.0 * static_cast<double>(xs_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, xs_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs_[lo] + frac * (xs_[hi] - xs_[lo]);
  }

  double min() {
    XEMEM_ASSERT(!xs_.empty());
    sort();
    return xs_.front();
  }
  double max() {
    XEMEM_ASSERT(!xs_.empty());
    sort();
    return xs_.back();
  }

 private:
  void sort() {
    if (!sorted_) {
      std::sort(xs_.begin(), xs_.end());
      sorted_ = true;
    }
  }
  std::vector<double> xs_;
  bool sorted_{true};
};

/// Sustained-rate accumulator for the ablation harnesses: counts events
/// over an explicitly marked simulated-time window (the simulator clock is
/// u64 nanoseconds), so throughput rows report ops/sec of the measured
/// phase rather than of the whole run including setup.
class Throughput {
 public:
  void begin(u64 now_ns) { t0_ = now_ns; }
  void end(u64 now_ns) { t1_ = now_ns; }
  void add(u64 events = 1) { n_ += events; }

  u64 events() const { return n_; }
  double seconds() const {
    return t1_ > t0_ ? static_cast<double>(t1_ - t0_) / 1e9 : 0.0;
  }
  double per_sec() const {
    const double s = seconds();
    return s > 0.0 ? static_cast<double>(n_) / s : 0.0;
  }

 private:
  u64 t0_{0};
  u64 t1_{0};
  u64 n_{0};
};

/// Fixed-bucket histogram over a log scale; prints ASCII sparklines in the
/// Figure-7 harness.
class LogHistogram {
 public:
  /// Buckets are decades/sub-decades over [lo, hi); values are clamped.
  LogHistogram(double lo, double hi, int buckets_per_decade = 4)
      : lo_(lo), hi_(hi), bpd_(buckets_per_decade) {
    XEMEM_ASSERT(lo > 0 && hi > lo);
    const double decades = std::log10(hi / lo);
    counts_.assign(static_cast<size_t>(std::ceil(decades * bpd_)) + 1, 0);
  }

  void add(double x) {
    x = std::clamp(x, lo_, hi_);
    auto idx = static_cast<size_t>(std::log10(x / lo_) * bpd_);
    idx = std::min(idx, counts_.size() - 1);
    ++counts_[idx];
  }

  size_t buckets() const { return counts_.size(); }
  u64 count_at(size_t i) const { return counts_[i]; }
  /// Lower edge of bucket @p i.
  double edge(size_t i) const {
    return lo_ * std::pow(10.0, static_cast<double>(i) / bpd_);
  }

 private:
  double lo_, hi_;
  int bpd_;
  std::vector<u64> counts_;
};

/// Counters of the cross-enclave I/O cache (src/iocache/). Kept here so
/// the attribution rules stay next to the kernel's own Stats conventions:
/// a cache hit is an access served from a resident block (the attach it
/// triggers — if any — is counted by the kernel as exactly one of
/// local_attaches, attaches_issued, or reuse_hits, never two); a miss is
/// an access that had to fetch from the backing store.
struct IoCacheStats {
  u64 hits{0};        ///< accesses served from a resident block
  u64 misses{0};      ///< accesses that triggered a backing-store fetch
  u64 evictions{0};   ///< blocks reclaimed to make room
  u64 writebacks{0};  ///< dirty blocks flushed to the backing store
  u64 revoked_evictions{0};  ///< evictions that live-unmapped attachers
  u64 dirty_marks{0};        ///< write-back intents received from clients
  u64 lease_wait_ns{0};      ///< simulated time evictions spent waiting
                             ///  out unexpired attacher leases
};

/// Counters of the inter-node fabric's fault-injection and reliability
/// layers (src/net/fabric.hpp). These live *only* here: a fabric drop or
/// retransmit never touches the per-kernel Stats retry counters (those
/// count intra-node channel retries), so the two families can be summed
/// without double counting — asserted by FabricFault.NoDoubleCount.
///
/// Attribution: injection counters (drops/dups/delayed) and retransmits
/// are charged to the *sending* rank; dedup/stale suppression to the
/// *receiving* rank; node_failures to each rank that learns of a death
/// (one increment per (observer, dead peer) pair); collectives_failed
/// and rebuilds to the rank whose operation failed / committed.
struct FabricStats {
  u64 fabric_drops{0};        ///< packets swallowed by link fault injection
  u64 fabric_dups{0};         ///< duplicate deliveries injected
  u64 fabric_delayed{0};      ///< packets held back (reordered)
  u64 fabric_retransmits{0};  ///< unacknowledged sends retried
  u64 fabric_dedup{0};        ///< duplicate arrivals suppressed by seq dedup
  u64 fabric_stale{0};        ///< arrivals for an already-rebuilt epoch
  u64 fabric_probes{0};       ///< liveness probes sent while waiting
  u64 fabric_acks{0};         ///< transport acknowledgements sent
  u64 fabric_node_failures{0};  ///< peer deaths learned (detected or told)
  u64 collectives_failed{0};  ///< run_op calls that returned node_failed
  u64 rebuilds{0};            ///< communicator rebuild commits

  FabricStats& operator+=(const FabricStats& o) {
    fabric_drops += o.fabric_drops;
    fabric_dups += o.fabric_dups;
    fabric_delayed += o.fabric_delayed;
    fabric_retransmits += o.fabric_retransmits;
    fabric_dedup += o.fabric_dedup;
    fabric_stale += o.fabric_stale;
    fabric_probes += o.fabric_probes;
    fabric_acks += o.fabric_acks;
    fabric_node_failures += o.fabric_node_failures;
    collectives_failed += o.collectives_failed;
    rebuilds += o.rebuilds;
    return *this;
  }
};

}  // namespace xemem
