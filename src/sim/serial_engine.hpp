// Serial discrete-event engine: one OS thread, one global clock, one
// global event heap. This is the historical engine refactored onto the
// shared core — a single-partition run produces exactly the schedules the
// old (time, seq) engine produced, because the (time, key_part, key_seq)
// key degenerates to (time, 0, seq).
//
// The serial engine also understands partitions: it keeps per-partition
// sequence counters and RNG streams and enforces the same cross-partition
// lookahead contract as the parallel engine, so a multi-partition model
// produces the identical event schedule under either implementation (the
// serial one simply interleaves all partitions on one thread in global
// key order). This is what makes same-seed serial-vs-parallel equivalence
// testable.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "sim/engine_core.hpp"

namespace xemem::sim::detail {

class SerialEngine final : public EngineImpl {
 public:
  SerialEngine(Engine* owner, u64 seed) : owner_(owner), seed_(seed) {
    parts_.push_back(std::make_unique<Part>(partition_seed(seed, 0)));
  }

  ~SerialEngine() override {
    // Unfinished actors at teardown are destroyed while suspended; their
    // frames unwind normally because Task locals are regular RAII objects.
    detached_.clear();
  }

  TimePoint now() const override { return now_; }
  Rng& rng() override { return parts_[cur_part_]->rng; }

  void schedule_at(TimePoint t, std::coroutine_handle<> h) override {
    XEMEM_ASSERT(t >= now_);
    queue_.push(Event::resume(t, next_key(cur_part_), cur_part_, h));
  }

  void call_at(TimePoint t, std::function<void()> fn) override {
    call_in(cur_part_, t, std::move(fn));
  }

  void call_in(u32 part, TimePoint t, std::function<void()> fn) override {
    XEMEM_ASSERT(part < parts_.size());
    XEMEM_ASSERT(t >= now_);
    XEMEM_ASSERT_MSG(part == cur_part_ || t >= sat_add(now_, lookahead_),
                     "cross-partition event inside the lookahead window");
    queue_.push(Event::callback(t, next_key(cur_part_), part,
                                callbacks_.put(std::move(fn))));
  }

  void spawn_in(u32 part, Task<void> task) override {
    XEMEM_ASSERT(part < parts_.size());
    XEMEM_ASSERT_MSG(!running_ || part == cur_part_,
                     "runtime spawns must target the current partition");
    auto node = std::make_unique<Detached>();
    node->handle = task.release();
    node->handle.promise().done_flag = &node->done;
    detached_.push_back(std::move(node));
    queue_.push(
        Event::resume(now_, next_key(part), part, detached_.back()->handle));
  }

  void run_root(std::coroutine_handle<> h, bool* done) override {
    schedule_at(now_, h);
    running_ = true;
    while (!*done) {
      XEMEM_ASSERT_MSG(step_one(),
                       "simulation deadlocked: main task never finished");
    }
    running_ = false;
    reap();
  }

  void run_until_idle() override {
    running_ = true;
    while (step_one()) {
    }
    running_ = false;
    reap();
  }

  void run_until(TimePoint t) override {
    running_ = true;
    while (!queue_.empty() && queue_.top().t <= t) {
      XEMEM_ASSERT(step_one());
    }
    running_ = false;
    XEMEM_ASSERT(t >= now_);
    now_ = t;
    reap();
  }

  bool step() override { return step_one(); }

  void set_partitions(u32 n, Duration lookahead) override {
    XEMEM_ASSERT(n >= 1 && !running_);
    XEMEM_ASSERT_MSG(n <= kMaxPartitions,
                     "too many partitions for the event key");
    XEMEM_ASSERT_MSG(queue_.empty() && parts_.size() == 1 &&
                         parts_[0]->seq == 0,
                     "set_partitions() must precede any scheduling");
    XEMEM_ASSERT_MSG(n == 1 || lookahead > 0,
                     "multi-partition runs need a positive lookahead");
    lookahead_ = lookahead;
    for (u32 p = 1; p < n; ++p) {
      parts_.push_back(std::make_unique<Part>(partition_seed(seed_, p)));
    }
  }

  u32 partitions() const override { return static_cast<u32>(parts_.size()); }
  u32 current_partition() const override { return cur_part_; }
  Duration lookahead() const override { return lookahead_; }
  u64 events_processed() const override { return processed_; }

  u64 events_scheduled() const override {
    u64 n = 0;
    for (const auto& p : parts_) n += p->seq;
    return n;
  }

 private:
  struct Part {
    u64 seq{0};
    Rng rng;
    explicit Part(u64 seed) : rng(seed) {}
  };

  u64 next_key(u32 part) { return pack_key(part, parts_[part]->seq++); }

  bool step_one() {
    if (queue_.empty()) return false;
    const Event ev = queue_.pop();
    XEMEM_ASSERT(ev.t >= now_);
    now_ = ev.t;
    cur_part_ = ev.owner_part;
    Engine* prev = g_current_engine;
    g_current_engine = owner_;
    if (ev.is_callback()) {
      callbacks_.take(ev.slot())();
    } else {
      ev.handle().resume();
    }
    g_current_engine = prev;
    cur_part_ = 0;  // outside event execution, context reverts to partition 0
    ++processed_;
    if (++steps_since_reap_ >= 4096) reap();
    return true;
  }

  void reap() {
    steps_since_reap_ = 0;
    std::erase_if(detached_,
                  [](const std::unique_ptr<Detached>& d) { return d->done; });
  }

  Engine* owner_;
  u64 seed_;
  TimePoint now_{kTimeZero};
  u32 cur_part_{0};
  u64 processed_{0};
  u64 steps_since_reap_{0};
  bool running_{false};
  Duration lookahead_{0};
  EventHeap queue_;
  CallbackTable callbacks_;
  std::vector<std::unique_ptr<Part>> parts_;
  std::vector<std::unique_ptr<Detached>> detached_;
};

}  // namespace xemem::sim::detail
