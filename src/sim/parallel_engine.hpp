// Parallel discrete-event engine: conservative synchronization in the
// Chandy-Misra-Bryant style, with published per-partition clocks instead
// of explicit null messages.
//
// Each partition owns an event heap, a local virtual clock, a sequence
// counter, an RNG stream, and a mutex-protected inbox for events other
// partitions send it. Partitions are statically assigned to worker
// threads (partition p runs on worker p mod W), so all of a partition's
// state is only ever touched by one thread per run.
//
// Safety rule. Partition p may execute events strictly below
//
//     horizon(p) = min over q != p of (clock(q) + lookahead)
//
// where clock(q) is q's published lower bound on the time of any event it
// will still create. Each poll round a partition publishes
//
//     clock(p) = min(head of p's queue, horizon(p))
//
// which is monotone (both inputs only grow) and safe: p's next execution
// cannot happen earlier than that bound, and every cross-partition event
// p creates while executing at time T carries t >= T + lookahead (the
// call_in contract, derived from the modeled channel latency in
// common/costs.hpp). Deadlock-freedom follows from lookahead > 0: the
// partition holding the globally earliest event eventually observes every
// other clock at or above that time, so its horizon strictly exceeds its
// head and it makes progress.
//
// Memory ordering. A sender pushes into the receiver's inbox (under the
// inbox mutex) *before* its next clock publish (release store); a
// receiver reads neighbor clocks (acquire), then drains its inbox, then
// executes events below the horizon it computed. Any event that could
// violate a computed horizon is therefore already visible in the inbox
// when the horizon is used.
//
// Termination. pending_ counts events queued or inboxed anywhere. A
// visit does no atomic work per event: it nets its local pushes against
// its executions in Part::pending_net and adds that net to pending_ once,
// before it publishes its clock. While the visit runs, pending_ still
// counts every event the partition held when the visit began, which is at
// least one whenever the visit executes anything, and a cross-partition
// call_in increments pending_ before the event enters the inbox. So
// pending_ never reads zero while any event is queued, inboxed or
// executing, and a zero read means the run is idle (or, for a root run,
// deadlocked).
//
// Callbacks. Each partition owns a CallbackTable; its events carry slot
// indices into it. A cross-partition call_in carries the std::function
// itself through the inbox, and the destination files it into its own
// table when it drains, so every table is touched by one thread only.
//
// Determinism. Events carry the key (t, creating partition, creating
// partition's sequence number) — all simulation-derived, never wall-clock
// arrival order — so each partition pops its events in exactly the order
// the serial engine would interleave them, regardless of worker count or
// thread scheduling. A single-partition run executes the bit-identical
// schedule of the serial engine, including the exact stop point of
// run(): the root-done flag is checked after every partition-0 event.
#pragma once

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine_core.hpp"

namespace xemem::sim::detail {

class ParallelEngine final : public EngineImpl {
 public:
  ParallelEngine(Engine* owner, u64 seed, u32 workers)
      : owner_(owner), seed_(seed), workers_cfg_(workers) {
    parts_.push_back(std::make_unique<Part>(0, partition_seed(seed, 0)));
  }

  ~ParallelEngine() override {
    for (auto& p : parts_) p->detached.clear();
  }

  TimePoint now() const override { return cur_part_const().now; }
  Rng& rng() override { return cur_part().rng; }

  void schedule_at(TimePoint t, std::coroutine_handle<> h) override {
    Part& p = cur_part();
    XEMEM_ASSERT(t >= p.now);
    push_local(p, Event::resume(t, next_key(p), p.id, h));
  }

  void call_at(TimePoint t, std::function<void()> fn) override {
    Part& p = cur_part();
    XEMEM_ASSERT(t >= p.now);
    const u32 slot = p.callbacks.put(std::move(fn));
    push_local(p, Event::callback(t, next_key(p), p.id, slot));
  }

  void call_in(u32 part, TimePoint t, std::function<void()> fn) override {
    XEMEM_ASSERT(part < parts_.size());
    Part& src = cur_part();
    if (part == src.id) {
      call_at(t, std::move(fn));
      return;
    }
    XEMEM_ASSERT_MSG(t >= sat_add(src.now, lookahead_),
                     "cross-partition event inside the lookahead window");
    // The destination's table is not ours to touch: the callback travels
    // in the inbox and drain_inbox() files it there. Counted at once, so
    // the destination's work is in pending_ before this visit ends.
    Inbound in{t, next_key(src), std::move(fn)};
    Part& dst = *parts_[part];
    pending_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> g(dst.inbox_mu);
      dst.inbox.push_back(std::move(in));
      dst.inbox_flag.store(true, std::memory_order_release);
    }
  }

  void spawn_in(u32 part, Task<void> task) override {
    XEMEM_ASSERT(part < parts_.size());
    Part& p = *parts_[part];
    XEMEM_ASSERT_MSG(!running_ || &p == &cur_part(),
                     "runtime spawns must target the current partition");
    auto node = std::make_unique<Detached>();
    node->handle = task.release();
    node->handle.promise().done_flag = &node->done;
    p.detached.push_back(std::move(node));
    push_local(p, Event::resume(p.now, next_key(p), p.id,
                                p.detached.back()->handle));
  }

  void run_root(std::coroutine_handle<> h, bool* done) override {
    Part& p0 = *parts_[0];
    push_local(p0, Event::resume(p0.now, next_key(p0), 0, h));
    run_workers(Mode::root, done);
    XEMEM_ASSERT_MSG(!deadlock_,
                     "simulation deadlocked: main task never finished");
    for (auto& p : parts_) reap(*p);
  }

  void run_until_idle() override {
    run_workers(Mode::idle, nullptr);
    for (auto& p : parts_) reap(*p);
  }

  void run_until(TimePoint t) override {
    XEMEM_ASSERT_MSG(parts_.size() == 1,
                     "run_until() requires a single-partition engine");
    Part& p = *parts_[0];
    TlsScope scope(this, &p);
    while (!p.queue.empty() && p.queue.top().t <= t) exec_one(p);
    XEMEM_ASSERT(t >= p.now);
    p.now = t;
    reap(p);
  }

  bool step() override {
    XEMEM_ASSERT_MSG(parts_.size() == 1,
                     "step() requires a single-partition engine");
    Part& p = *parts_[0];
    if (p.queue.empty()) return false;
    TlsScope scope(this, &p);
    exec_one(p);
    return true;
  }

  void set_partitions(u32 n, Duration lookahead) override {
    XEMEM_ASSERT(n >= 1 && !running_);
    XEMEM_ASSERT_MSG(n <= kMaxPartitions,
                     "too many partitions for the event key");
    XEMEM_ASSERT_MSG(parts_.size() == 1 && parts_[0]->seq == 0,
                     "set_partitions() must precede any scheduling");
    XEMEM_ASSERT_MSG(n == 1 || lookahead > 0,
                     "multi-partition runs need a positive lookahead");
    lookahead_ = lookahead;
    for (u32 p = 1; p < n; ++p) {
      parts_.push_back(std::make_unique<Part>(p, partition_seed(seed_, p)));
    }
  }

  u32 partitions() const override { return static_cast<u32>(parts_.size()); }

  u32 current_partition() const override { return cur_part_const().id; }

  Duration lookahead() const override { return lookahead_; }

  u64 events_processed() const override {
    u64 n = 0;
    for (const auto& p : parts_) n += p->processed;
    return n;
  }

  u64 events_scheduled() const override {
    u64 n = 0;
    for (const auto& p : parts_) n += p->seq;
    return n;
  }

  u32 effective_workers() const {
    u32 w = workers_cfg_;
    if (w == 0) {
      const u32 hw = std::thread::hardware_concurrency();
      w = hw == 0 ? 1 : hw;
    }
    return std::min<u32>(std::max<u32>(w, 1),
                         static_cast<u32>(parts_.size()));
  }

 private:
  /// Executed events per partition visit before republishing the clock
  /// and letting sibling partitions on the same worker advance.
  static constexpr u32 kBatchEvents = 64;

  /// A callback sent from another partition, waiting in the inbox.
  struct Inbound {
    TimePoint t;
    u64 key;
    std::function<void()> fn;
  };

  struct Part {
    const u32 id;
    TimePoint now{kTimeZero};
    u64 seq{0};
    u64 processed{0};
    u64 steps_since_reap{0};
    /// Local pushes minus executions not yet added to pending_.
    i64 pending_net{0};
    EventHeap queue;
    CallbackTable callbacks;
    std::vector<Inbound> drained;  ///< reused buffer of drain_inbox()
    std::vector<std::unique_ptr<Detached>> detached;
    Rng rng;

    // Shared with other workers: the published clock and the inbox.
    alignas(64) std::atomic<TimePoint> clock{kTimeZero};
    std::atomic<bool> inbox_flag{false};
    std::mutex inbox_mu;
    std::vector<Inbound> inbox;

    Part(u32 i, u64 seed) : id(i), rng(seed) {}
  };

  enum class Mode { root, idle };

  /// Execution context: which engine/partition the current thread is
  /// inside. Static so nested engines (an event that builds and runs its
  /// own Engine) resolve their own state, not the outer engine's.
  struct Tls {
    ParallelEngine* eng;
    Part* part;
  };
  static inline thread_local Tls tls_{nullptr, nullptr};

  struct TlsScope {
    Engine* prev_eng;
    Tls prev;
    TlsScope(ParallelEngine* e, Part* p) : prev_eng(g_current_engine), prev(tls_) {
      g_current_engine = e->owner_;
      tls_ = Tls{e, p};
    }
    ~TlsScope() {
      tls_ = prev;
      g_current_engine = prev_eng;
    }
  };

  Part& cur_part() {
    return tls_.eng == this && tls_.part != nullptr ? *tls_.part : *parts_[0];
  }
  const Part& cur_part_const() const {
    return tls_.eng == this && tls_.part != nullptr ? *tls_.part : *parts_[0];
  }

  static u64 next_key(Part& p) { return pack_key(p.id, p.seq++); }

  static void push_local(Part& p, const Event& e) {
    ++p.pending_net;
    p.queue.push(e);
  }

  static void exec_one(Part& p) {
    const Event ev = p.queue.pop();
    XEMEM_ASSERT(ev.t >= p.now);
    p.now = ev.t;
    if (ev.is_callback()) {
      p.callbacks.take(ev.slot())();
    } else {
      ev.handle().resume();
    }
    ++p.processed;
    --p.pending_net;
    if (++p.steps_since_reap >= 4096) reap(p);
  }

  /// Add p's net of local pushes and executions to pending_. Called once
  /// per visit, before the clock publish, and for every partition before
  /// workers start (setup-time spawns, run_until() and step() net here).
  void flush_pending(Part& p) {
    if (p.pending_net == 0) return;
    pending_.fetch_add(static_cast<u64>(p.pending_net),
                       std::memory_order_acq_rel);
    p.pending_net = 0;
  }

  static void reap(Part& p) {
    p.steps_since_reap = 0;
    std::erase_if(p.detached,
                  [](const std::unique_ptr<Detached>& d) { return d->done; });
  }

  TimePoint horizon(u32 self) const {
    TimePoint hz = kInfTime;
    for (const auto& q : parts_) {
      if (q->id == self) continue;
      hz = std::min(hz, sat_add(q->clock.load(std::memory_order_acquire),
                                lookahead_));
    }
    return hz;
  }

  /// Move inbox callbacks into p's own table and heap. They were counted
  /// in pending_ when sent, so the pending net does not change.
  static void drain_inbox(Part& p) {
    if (!p.inbox_flag.load(std::memory_order_acquire)) return;
    {
      std::lock_guard<std::mutex> g(p.inbox_mu);
      p.drained.swap(p.inbox);
      p.inbox_flag.store(false, std::memory_order_relaxed);
    }
    for (auto& in : p.drained) {
      const u32 slot = p.callbacks.put(std::move(in.fn));
      p.queue.push(Event::callback(in.t, in.key, p.id, slot));
    }
    p.drained.clear();
  }

  /// One visit to partition p: drain, execute a bounded batch below the
  /// horizon, republish the clock. `root_done` is non-null only for the
  /// partition hosting the run() root, whose worker owns that flag.
  bool advance_partition(Part& p, bool* root_done) {
    TlsScope scope(this, &p);
    bool progress = false;
    // Acquire peer clocks BEFORE draining: any event below clock+la was
    // pushed into our inbox before that clock value was published, so the
    // subsequent drain is guaranteed to see it (the documented memory
    // ordering above). Draining first would let a peer slip an event under
    // a freshly-read higher clock.
    const TimePoint hz = horizon(p.id);
    drain_inbox(p);
    u32 budget = kBatchEvents;
    while (budget-- != 0 && !p.queue.empty() && p.queue.top().t < hz) {
      exec_one(p);
      progress = true;
      if (root_done != nullptr && *root_done) {
        stop_.store(true, std::memory_order_release);
        break;
      }
      if (stop_.load(std::memory_order_relaxed)) break;
    }
    flush_pending(p);
    // Publish min(head, horizon): the earliest time at which p could
    // still execute anything (monotone; hz is a stale-read lower bound).
    const TimePoint head = p.queue.empty() ? kInfTime : p.queue.top().t;
    const TimePoint nc = std::min(head, hz);
    if (nc > p.clock.load(std::memory_order_relaxed)) {
      p.clock.store(nc, std::memory_order_release);
    }
    return progress;
  }

  void worker_main(u32 w, u32 nworkers, Mode mode, bool* root_done) {
    u64 idle_rounds = 0;
    try {
      while (!stop_.load(std::memory_order_acquire)) {
        bool progress = false;
        for (u32 pi = w; pi < parts_.size(); pi += nworkers) {
          if (stop_.load(std::memory_order_relaxed)) break;
          progress |= advance_partition(
              *parts_[pi], mode == Mode::root && pi == 0 ? root_done : nullptr);
        }
        if (mode == Mode::root && w == 0 && *root_done) {
          stop_.store(true, std::memory_order_release);
          break;
        }
        if (pending_.load(std::memory_order_acquire) == 0) {
          // Globally idle: nothing queued, inboxed, or executing (a visit
          // subtracts its executions only at its end, together with its
          // pushes; see flush_pending). For a root run that means the main
          // task can never resume: report the deadlock from the root
          // worker.
          if (mode == Mode::root) {
            if (w == 0) {
              deadlock_ = !*root_done;
              stop_.store(true, std::memory_order_release);
            }
          } else {
            stop_.store(true, std::memory_order_release);
          }
          if (mode == Mode::idle) break;
        }
        if (progress) {
          idle_rounds = 0;
        } else if (++idle_rounds > 4) {
          // Lockstep politeness: another partition holds the global
          // minimum; let its worker run (essential on few-core hosts).
          std::this_thread::yield();
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> g(error_mu_);
      if (!error_) error_ = std::current_exception();
      stop_.store(true, std::memory_order_release);
    }
  }

  void run_workers(Mode mode, bool* root_done) {
    XEMEM_ASSERT(!running_);
    stop_.store(false, std::memory_order_relaxed);
    deadlock_ = false;
    // Re-initialize published clocks: while a partition idles near the end
    // of a run its clock ratchets toward infinity, which would let peers in
    // a follow-up run compute horizons past deliveries this partition will
    // still send. min(now, queue head, inbox head) is a valid lower bound
    // on anything the partition can still execute or create (thread
    // creation below orders these plain stores before any worker's loads).
    for (auto& p : parts_) {
      TimePoint lb = p->now;
      if (!p->queue.empty()) lb = std::min(lb, p->queue.top().t);
      {
        std::lock_guard<std::mutex> g(p->inbox_mu);
        for (const auto& in : p->inbox) lb = std::min(lb, in.t);
      }
      p->clock.store(lb, std::memory_order_relaxed);
      flush_pending(*p);
    }
    running_ = true;
    const u32 W = effective_workers();
    Engine* prev_eng = g_current_engine;
    std::vector<std::thread> threads;
    threads.reserve(W);
    for (u32 w = 0; w < W; ++w) {
      threads.emplace_back([this, w, W, mode, root_done] {
        g_current_engine = owner_;
        worker_main(w, W, mode, root_done);
        g_current_engine = nullptr;
      });
    }
    for (auto& t : threads) t.join();
    g_current_engine = prev_eng;
    running_ = false;
    if (error_) {
      std::exception_ptr e = std::exchange(error_, nullptr);
      std::rethrow_exception(e);
    }
  }

  Engine* owner_;
  u64 seed_;
  u32 workers_cfg_;
  Duration lookahead_{0};
  bool running_{false};
  bool deadlock_{false};
  std::vector<std::unique_ptr<Part>> parts_;
  std::atomic<u64> pending_{0};
  std::atomic<bool> stop_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;
};

}  // namespace xemem::sim::detail
