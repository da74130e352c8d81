// Simulated CPU cores with interrupt accounting and lazily applied noise.
//
// A Core models one hardware thread. Two kinds of activity execute on it:
//
//  * Interrupt-context work (`run_irq`): IPI handlers, channel handlers,
//    attachment servicing — and OS/hardware noise. Handlers are serialized
//    per core in FIFO order — exactly the property that makes the Pisces
//    channel's core-0 restriction a contention point (paper section 5.3).
//  * Application compute (`compute`): workload phases charge virtual CPU
//    time; any interrupt-context time that lands on the core while a
//    computation is in flight *steals* from it, extending the computation.
//    This is the mechanism behind both the OS-noise experiment (Figure 7,
//    where the selfish-detour loop observes the stolen gaps) and the
//    variance of the Linux-only in-situ configurations (Figures 8 and 9).
//
// Noise creates no engine events. Each noise component (hw/noise.hpp) is a
// NoiseStream owned by the core: it holds its next arrival and draws phase,
// gap and duration from its own Rng in a fixed order. Whenever something
// observes the core — run_irq, compute, or the stolen_ns()/irq_events()
// counters — the core first applies every noise arrival at or before `now`
// through the same FIFO and busy-segment arithmetic a protocol handler
// uses. Tie rule: noise arriving at t <= now is applied before the
// observer; simultaneous noise arrivals go in the order their gaps were
// drawn, as the old actors' arrival events did, then in stream order.
// compute() keeps its remaining-work loop and settles before each
// busy-time read, so it sees exactly the busy time the noise would have
// charged as events.
// DESIGN.md §14 describes the model.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace xemem::hw {

/// One recurring source of stolen CPU time on a core (the profiles that
/// combine them live in hw/noise.hpp).
struct NoiseComponent {
  const char* name;
  /// Mean inter-arrival time. Periodic sources use uniform jitter around
  /// this; Poisson sources draw exponential inter-arrivals.
  double period_ns;
  /// For periodic sources: uniform jitter fraction (0.2 = +/-20%).
  double period_jitter;
  bool poisson_arrivals;
  /// Event duration: lognormal with this median...
  double duration_median_ns;
  /// ...and this sigma (log-space). sigma 0 gives deterministic durations.
  double duration_sigma;
};

/// The arrival stream of one noise component on one core. The draws follow
/// one fixed order per stream: the phase when the stream starts, then for
/// each occurrence a gap measured from the previous occurrence's completion
/// and, if that arrival falls before `until`, a duration. A stream ends at
/// the first arrival at or after `until`.
class NoiseStream {
 public:
  static constexpr sim::TimePoint kNever = ~u64{0};

  NoiseStream(const NoiseComponent& c, Rng rng, sim::TimePoint start,
              sim::TimePoint until)
      : c_(c), rng_(rng), until_(until), log_median_(std::log(c.duration_median_ns)) {
    // Random initial phase so components do not all fire at t=0.
    arm(start + static_cast<u64>(rng_.uniform(0.0, c_.period_ns)));
  }

  /// Arrival time of the next occurrence (kNever once the stream ended).
  sim::TimePoint next() const { return next_; }

  /// True if this stream's next occurrence goes before @p o's: it arrives
  /// earlier, or at the same instant with its gap drawn from an earlier
  /// time. The event-driven actor scheduled each arrival when it drew the
  /// gap, so that is the order in which the engine ran simultaneous ones.
  bool before(const NoiseStream& o) const {
    return next_ < o.next_ || (next_ == o.next_ && from_ < o.from_);
  }

  /// Duration of the occurrence arriving at next().
  sim::Duration draw_duration() {
    const double dur = c_.duration_sigma == 0.0
                           ? c_.duration_median_ns
                           : rng_.lognormal(log_median_, c_.duration_sigma);
    return static_cast<u64>(std::max(dur, 1.0));
  }

  /// Draw the gap from @p from (the phase end or the previous occurrence's
  /// completion) to the next arrival.
  void arm(sim::TimePoint from) {
    from_ = from;
    next_ = kNever;
    if (from >= until_) return;
    const double gap =
        c_.poisson_arrivals
            ? rng_.exponential(c_.period_ns)
            : c_.period_ns * rng_.uniform(1.0 - c_.period_jitter, 1.0 + c_.period_jitter);
    const sim::TimePoint at = from + static_cast<u64>(std::max(gap, 1.0));
    if (at < until_) next_ = at;
  }

 private:
  NoiseComponent c_;
  Rng rng_;
  sim::TimePoint until_;
  double log_median_;
  sim::TimePoint from_{0};  // when the gap to next_ was drawn
  sim::TimePoint next_{kNever};
};

class Core {
 public:
  Core(u32 id, u32 socket) : id_(id), socket_(socket) {}

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  u32 id() const { return id_; }
  u32 socket() const { return socket_; }

  /// Engine partition this core's machine belongs to (multi-node runs tag
  /// every core with its node's partition; see DESIGN.md §12). Core time
  /// may only be charged from that partition — charging it from another
  /// would entangle two nodes' clocks outside the channel lookahead, so
  /// run_irq/compute assert the executing partition matches.
  void set_partition(u32 p) { partition_ = p; }
  u32 partition() const { return partition_; }

  /// Add the arrival stream of noise component @p c, starting at @p eng's
  /// current time and ending at the first arrival at or after @p until
  /// (hw::spawn_noise calls this once per component). The counters settle
  /// the streams up to @p eng's clock, so @p eng must outlive every
  /// stolen_ns()/irq_events() read.
  void add_noise(sim::Engine& eng, const NoiseComponent& c, Rng rng,
                 sim::TimePoint until) {
    XEMEM_ASSERT_MSG(noise_eng_ == nullptr || noise_eng_ == &eng,
                     "all noise streams of a core must share one engine");
    XEMEM_ASSERT_MSG(eng.current_partition() == partition_,
                     "noise added to a core of another partition");
    noise_eng_ = &eng;
    noise_.emplace_back(c, rng, eng.now(), until);
    next_noise_ = std::min(next_noise_, noise_.back().next());
  }

  /// Execute @p d nanoseconds of interrupt-context work on this core.
  /// Handlers are serialized: if another handler (or noise) is in flight,
  /// this one queues behind it. Completes when the handler finishes.
  sim::Task<void> run_irq(sim::Duration d) {
    auto* eng = sim::Engine::current();
    XEMEM_ASSERT_MSG(eng->current_partition() == partition_,
                     "interrupt charged to a core of another partition");
    const sim::TimePoint now = eng->now();
    settle(now);
    co_await sim::delay_until(charge(now, d));
  }

  /// Execute @p work nanoseconds of application compute on this core.
  /// Interrupt-context time overlapping the computation is stolen from it:
  /// the task finishes after `work` ns of interrupt-free core time, using
  /// the exact busy-interval overlap (a handler outliving the window
  /// blocks the core for its tail but is not double-charged).
  sim::Task<void> compute(sim::Duration work) {
    XEMEM_ASSERT_MSG(
        sim::Engine::current()->current_partition() == partition_,
        "compute charged to a core of another partition");
    u64 remaining = work;
    while (remaining > 0) {
      settle(sim::now());
      // If interrupt context currently owns the core, wait it out.
      if (sim::now() < irq_free_at_) {
        co_await sim::delay_until(irq_free_at_);
        continue;
      }
      const u64 busy_before = busy_integral(sim::now());
      co_await sim::delay(remaining);
      // Re-run exactly the cycles interrupts overlapped with the window,
      // the noise that arrived inside it included.
      settle(sim::now());
      remaining = busy_integral(sim::now()) - busy_before;
    }
  }

  /// Cumulative interrupt-context nanoseconds charged to this core. Like
  /// irq_events(), it first applies the noise due by the clock of the
  /// engine passed to spawn_noise. A core with noise must therefore be read
  /// from its own partition (outside event execution the context is
  /// partition 0); a read from any other partition fails an assertion
  /// rather than return a count that misses noise.
  u64 stolen_ns() {
    settle_to_engine_clock();
    return stolen_ns_;
  }
  /// Number of interrupt-context executions.
  u64 irq_events() {
    settle_to_engine_clock();
    return irq_events_;
  }

 private:
  /// Book @p d ns of interrupt-context work arriving at @p at (FIFO behind
  /// whatever is in flight) and return its completion time. Back-to-back
  /// handlers merge into contiguous busy segments; the closed-segment
  /// accumulator plus the current segment give an exact busy-time integral
  /// B(t), which compute() uses for precise stolen-time accounting.
  sim::TimePoint charge(sim::TimePoint at, sim::Duration d) {
    const sim::TimePoint start = std::max(at, irq_free_at_);
    if (start > irq_free_at_) {
      // Gap since the previous segment: close it.
      busy_closed_ += irq_free_at_ - seg_start_;
      seg_start_ = start;
    }
    irq_free_at_ = start + d;
    stolen_ns_ += d;
    ++irq_events_;
    return irq_free_at_;
  }

  /// Total interrupt-busy time in [0, t] for t <= now (or t in the
  /// currently scheduled busy segment), once settle(now) ran.
  u64 busy_integral(sim::TimePoint t) const {
    const sim::TimePoint seg_end = std::min(t, irq_free_at_);
    const u64 current = seg_end > seg_start_ ? seg_end - seg_start_ : 0;
    return busy_closed_ + current;
  }

  /// Index of the stream whose occurrence goes first (NoiseStream::before;
  /// the lowest index among equal ones). Only called while some stream is
  /// pending.
  size_t earliest() const {
    size_t best = 0;
    for (size_t i = 1; i < noise_.size(); ++i) {
      if (noise_[i].before(noise_[best])) best = i;
    }
    return best;
  }

  /// Apply every noise arrival at or before @p t, in time order.
  void settle(sim::TimePoint t) {
    if (next_noise_ > t) return;
    size_t i = earliest();
    for (; noise_[i].next() <= t; i = earliest()) {
      NoiseStream& s = noise_[i];
      s.arm(charge(s.next(), s.draw_duration()));
    }
    next_noise_ = noise_[i].next();
  }

  /// Settle up to the noise engine's clock. Only the core's own partition
  /// may read it: during a parallel run another partition's clock is not
  /// ours to read, and after one the context is partition 0.
  void settle_to_engine_clock() {
    if (noise_eng_ == nullptr) return;
    XEMEM_ASSERT_MSG(noise_eng_->current_partition() == partition_,
                     "counters of a noisy core read from another partition");
    settle(noise_eng_->now());
  }

  u32 id_;
  u32 socket_;
  u32 partition_{0};
  sim::TimePoint irq_free_at_{0};
  sim::TimePoint seg_start_{0};  // start of the current busy segment
  u64 busy_closed_{0};           // busy time of all closed segments
  u64 stolen_ns_{0};
  u64 irq_events_{0};

  sim::Engine* noise_eng_{nullptr};  // engine whose clock the counters settle to
  std::vector<NoiseStream> noise_;
  sim::TimePoint next_noise_{NoiseStream::kNever};  // earliest pending arrival
};

}  // namespace xemem::hw
