// The discrete-event simulation engine.
//
// A single Engine instance drives one experiment. Two implementations sit
// behind this facade (selected per instance, or process-wide through
// XEMEM_ENGINE):
//
//  * serial   — one thread, one clock, one queue (serial_engine.hpp);
//  * parallel — one queue and local clock per *partition*, executed by
//    worker threads under conservative channel lookahead
//    (parallel_engine.hpp).
//
// A partition corresponds to one simulated node: enclaves of a node are
// entangled at zero latency (shared memory, shared cores, IPIs), so the
// node is the smallest unit that can own an independent clock; nodes
// couple only through the fabric, whose modeled latency
// (costs::kIbEndToEndLatency) provides the lookahead. Events at equal
// times fire in (creating partition, per-partition sequence) order, which
// makes runs bit-for-bit reproducible on either engine — a
// single-partition run reproduces the historical (time, seq) FIFO order
// exactly.
//
// Coroutines obtain "their" engine through Engine::current(), which is
// thread-local and set for the duration of every resumption — simulation
// code can simply write
//   co_await sim::delay(5_us);
// without threading an engine pointer through every call.
//
// Environment override: XEMEM_ENGINE=serial | parallel | parallel:<N>
// selects the default implementation (and worker count) for every Engine
// constructed without an explicit kind — benches and tests honor it
// process-wide.
#pragma once

#include <coroutine>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "common/assert.hpp"
#include "common/costs.hpp"
#include "common/rng.hpp"
#include "sim/engine_core.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/serial_engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace xemem::sim {

namespace detail {

struct EngineDefault {
  EngineKind kind{EngineKind::serial};
  u32 workers{0};  // 0: pick from hardware concurrency at run time
};

inline const EngineDefault& engine_default() {
  static const EngineDefault d = [] {
    EngineDefault v;
    if (const char* env = std::getenv("XEMEM_ENGINE")) {
      const std::string s(env);
      if (s.rfind("parallel", 0) == 0) {
        v.kind = EngineKind::parallel;
        const auto colon = s.find(':');
        if (colon != std::string::npos) {
          const int n = std::atoi(s.c_str() + colon + 1);
          if (n > 0) v.workers = static_cast<u32>(n);
        }
      }
    }
    return v;
  }();
  return d;
}

}  // namespace detail

class Engine {
 public:
  /// Default construction follows the process-wide engine selection
  /// (XEMEM_ENGINE), so every existing harness can be moved onto the
  /// parallel engine without a code change.
  explicit Engine(u64 seed = 1)
      : Engine(seed, detail::engine_default().kind,
               detail::engine_default().workers) {}

  Engine(u64 seed, EngineKind kind, u32 workers = 0) : kind_(kind) {
    if (kind == EngineKind::parallel) {
      impl_ = std::make_unique<detail::ParallelEngine>(this, seed, workers);
    } else {
      impl_ = std::make_unique<detail::SerialEngine>(this, seed);
    }
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time (of the partition executing the current
  /// event; partition 0's clock outside event execution).
  TimePoint now() const { return impl_->now(); }

  /// RNG stream of the current partition (partition 0 keeps the seed
  /// verbatim, so single-partition runs draw the historical stream).
  Rng& rng() { return impl_->rng(); }

  /// Engine driving the currently-executing coroutine (thread-local; set
  /// during event execution).
  static Engine* current() {
    XEMEM_ASSERT_MSG(detail::g_current_engine != nullptr,
                     "no simulation engine is running");
    return detail::g_current_engine;
  }

  /// Process-wide default implementation (XEMEM_ENGINE), overridden per
  /// instance by the explicit-kind constructor.
  static EngineKind default_kind() { return detail::engine_default().kind; }

  EngineKind kind() const { return kind_; }

  // ------------------------------------------------------------ scheduling

  /// Schedule @p h to resume at absolute time @p t (>= now) in the
  /// current partition.
  void schedule_at(TimePoint t, std::coroutine_handle<> h) {
    impl_->schedule_at(t, h);
  }

  /// Schedule @p h to resume after @p d.
  void schedule_after(Duration d, std::coroutine_handle<> h) {
    schedule_at(now() + d, h);
  }

  /// Schedule a plain callback (used by non-coroutine models, e.g. the
  /// processor-sharing resource's completion timers).
  void call_at(TimePoint t, std::function<void()> fn) {
    impl_->call_at(t, std::move(fn));
  }

  /// Schedule a plain callback into partition @p part. Cross-partition
  /// targets require `t >= now + lookahead()` — this is the only legal
  /// cross-partition edge, used by channel delivery paths whose modeled
  /// latency covers the lookahead.
  void call_in(u32 part, TimePoint t, std::function<void()> fn) {
    impl_->call_in(part, t, std::move(fn));
  }

  /// Launch a detached background actor in the current partition. The
  /// engine keeps the coroutine frame alive until it completes; an
  /// exception escaping a detached task aborts the simulation (actors are
  /// expected to handle their own errors).
  void spawn(Task<void> task) {
    impl_->spawn_in(impl_->current_partition(), std::move(task));
  }

  /// Launch a detached actor in partition @p part (setup-time only for
  /// foreign partitions: harnesses place per-node drivers before run()).
  void spawn_in(u32 part, Task<void> task) {
    impl_->spawn_in(part, std::move(task));
  }

  // ------------------------------------------------------------ execution

  /// Run @p main to completion (processing all events it transitively
  /// depends on) and return its result. Detached actors keep running only
  /// while events remain reachable before main finishes. The root task
  /// executes in partition 0.
  template <typename T>
  T run(Task<T> main) {
    bool done = false;
    main.set_done_flag(&done);
    impl_->run_root(main.handle(), &done);
    return main.take_result();
  }

  /// Process events until every queue is empty.
  void run_until_idle() { impl_->run_until_idle(); }

  /// Process events until the clock would pass @p t, then set now = t
  /// (single-partition engines only under the parallel implementation).
  void run_until(TimePoint t) { impl_->run_until(t); }

  /// Execute one event. Returns false if the queue is empty
  /// (single-partition engines only under the parallel implementation).
  bool step() { return impl_->step(); }

  // ------------------------------------------------------------ partitions

  /// Split the simulation into @p n partitions (one per simulated node)
  /// coupled only through channels of latency >= @p lookahead. Must be
  /// called before any scheduling. With n == 1 this is a no-op beyond
  /// recording the lookahead.
  void set_partitions(u32 n,
                      Duration lookahead = costs::kIbEndToEndLatency) {
    impl_->set_partitions(n, lookahead);
  }

  u32 partitions() const { return impl_->partitions(); }
  u32 current_partition() const { return impl_->current_partition(); }
  Duration lookahead() const { return impl_->lookahead(); }

  /// Worker threads a parallel run would use (1 for the serial engine).
  u32 workers() const {
    if (kind_ != EngineKind::parallel) return 1;
    return static_cast<detail::ParallelEngine*>(impl_.get())
        ->effective_workers();
  }

  // ------------------------------------------------------------ diagnostics

  /// Number of events executed so far (summed over partitions).
  u64 events_processed() const { return impl_->events_processed(); }

  /// Number of events ever scheduled (executed or still pending).
  u64 events_scheduled() const { return impl_->events_scheduled(); }

 private:
  EngineKind kind_;
  std::unique_ptr<detail::EngineImpl> impl_;
};

/// Awaitable: suspend the current coroutine for @p d simulated nanoseconds.
inline auto delay(Duration d) {
  struct Awaiter {
    Duration d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      Engine::current()->schedule_after(d, h);
    }
    void await_resume() const noexcept {}
  };
  return Awaiter{d};
}

/// Awaitable: suspend until absolute simulated time @p t (no-op if past).
inline auto delay_until(TimePoint t) {
  struct Awaiter {
    TimePoint t;
    bool await_ready() const noexcept { return Engine::current()->now() >= t; }
    void await_suspend(std::coroutine_handle<> h) const {
      Engine::current()->schedule_at(t, h);
    }
    void await_resume() const noexcept {}
  };
  return Awaiter{t};
}

/// Awaitable: yield to other events scheduled at the current time.
inline auto yield_now() { return delay(0); }

/// Convenience: current simulated time from coroutine context.
inline TimePoint now() { return Engine::current()->now(); }

}  // namespace xemem::sim
