// Synchronization primitives for simulation coroutines.
//
// These mirror the kernel-level constructs the real system uses: an Event
// is a wakeup flag (completion notification), a Mailbox is a kernel message
// queue (the command queues behind each cross-enclave channel), a Semaphore
// bounds concurrent access to a modeled resource, and a Barrier lets
// benchmark harnesses launch N workers and join them.
//
// All primitives are strictly FIFO: waiters wake in arrival order, which
// keeps simulations deterministic.
#pragma once

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "sim/engine.hpp"

namespace xemem::sim {

namespace detail {

/// Partition-discipline guard for sync primitives. Waking a waiter is an
/// immediate same-time schedule, which is only legal within one engine
/// partition — cross-partition coupling must go through channels whose
/// modeled latency covers the lookahead (Engine::call_in, DESIGN.md §12).
/// A primitive adopts the partition that first touches it and rejects use
/// from any other. No-op outside a running engine (setup code) and in
/// single-partition runs.
struct PartitionTag {
  static constexpr u32 kUnbound = ~0u;
  mutable u32 part{kUnbound};

  void check() const {
    Engine* e = g_current_engine;
    if (e == nullptr || e->partitions() == 1) return;
    const u32 cur = e->current_partition();
    if (part == kUnbound) {
      part = cur;
      return;
    }
    XEMEM_ASSERT_MSG(part == cur,
                     "sync primitive shared across partitions; nodes may "
                     "couple only through channels with lookahead");
  }
};

}  // namespace detail

/// One-shot / resettable wakeup flag. `set()` releases every current
/// waiter; waiters arriving after `set()` (and before `reset()`) do not
/// block.
class Event {
 public:
  bool is_set() const { return set_; }

  void set() {
    tag_.check();
    set_ = true;
    auto* eng = Engine::current();
    for (auto h : waiters_) eng->schedule_at(eng->now(), h);
    waiters_.clear();
  }

  void reset() { set_ = false; }

  auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const noexcept { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        ev->tag_.check();
        ev->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  bool set_{false};
  detail::PartitionTag tag_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO message queue between coroutines.
///
/// send() never blocks; recv() suspends until a message is available.
/// Delivery order matches send order, and when several receivers wait,
/// messages are handed out in receiver-arrival order.
template <typename T>
class Mailbox {
 public:
  void send(T msg) {
    tag_.check();
    if (!waiters_.empty()) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      *w.slot = std::move(msg);
      auto* eng = Engine::current();
      eng->schedule_at(eng->now(), w.h);
      return;
    }
    queue_.push_back(std::move(msg));
  }

  /// Awaitable receive.
  auto recv() {
    struct Awaiter {
      Mailbox* mb;
      std::optional<T> slot;

      bool await_ready() noexcept {
        if (!mb->queue_.empty()) {
          slot = std::move(mb->queue_.front());
          mb->queue_.pop_front();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        mb->tag_.check();
        mb->waiters_.push_back(Waiter{h, &slot});
      }
      T await_resume() {
        XEMEM_ASSERT(slot.has_value());
        return std::move(*slot);
      }
    };
    return Awaiter{this, std::nullopt};
  }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    if (queue_.empty()) return std::nullopt;
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

  size_t pending() const { return queue_.size(); }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    std::optional<T>* slot;
  };

  detail::PartitionTag tag_;
  std::deque<T> queue_;
  std::deque<Waiter> waiters_;
};

/// Counting semaphore with FIFO handoff.
class Semaphore {
 public:
  explicit Semaphore(u64 initial) : count_(initial) {}

  auto acquire() {
    struct Awaiter {
      Semaphore* s;
      bool await_ready() const noexcept {
        if (s->count_ > 0) {
          --s->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        s->tag_.check();
        s->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void release() {
    tag_.check();
    if (!waiters_.empty()) {
      // Hand the permit directly to the oldest waiter (no barging).
      auto h = waiters_.front();
      waiters_.pop_front();
      auto* eng = Engine::current();
      eng->schedule_at(eng->now(), h);
      return;
    }
    ++count_;
  }

  u64 available() const { return count_; }

 private:
  u64 count_;
  detail::PartitionTag tag_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Mutual exclusion (a binary semaphore with scoped-lock sugar).
class Mutex {
 public:
  Mutex() : sem_(1) {}

  [[nodiscard]] Task<void> lock() {
    co_await sem_.acquire();
  }
  void unlock() { sem_.release(); }

  /// `co_await mtx.with([&]() -> Task<void> { ... })` convenience is not
  /// provided; callers use lock()/unlock() explicitly, matching the
  /// spinlock discipline of the kernel code being modeled.
 private:
  Semaphore sem_;
};

/// Reusable barrier for @p parties coroutines.
class Barrier {
 public:
  explicit Barrier(u64 parties) : parties_(parties) { XEMEM_ASSERT(parties > 0); }

  /// Suspend until all parties have arrived; the last arriver releases all.
  auto arrive_and_wait() {
    struct Awaiter {
      Barrier* b;
      bool await_ready() const noexcept { return b->parties_ == 1; }
      bool await_suspend(std::coroutine_handle<> h) {
        b->tag_.check();
        if (b->arrived_ + 1 == b->parties_) {
          b->arrived_ = 0;
          auto* eng = Engine::current();
          for (auto w : b->waiters_) eng->schedule_at(eng->now(), w);
          b->waiters_.clear();
          return false;  // last arriver proceeds immediately
        }
        ++b->arrived_;
        b->waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  u64 parties_;
  u64 arrived_{0};
  detail::PartitionTag tag_;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace xemem::sim
