// Coroutine task type for simulation actors.
//
// Every simulated activity — an OS servicing an attachment, a workload
// iterating its solver loop, an IPI handler — is a `sim::Task<T>`
// coroutine. Tasks are lazy (they do not run until awaited or spawned on
// an Engine) and never shared between threads: the serial engine runs
// everything on one OS thread, and the parallel engine runs each partition
// on one worker thread per run, with tasks confined to their partition.
// Determinism comes from the event order, not from locks.
//
// Ownership: the Task object owns the coroutine frame and destroys it in
// its destructor. Awaiting a child task keeps the Task object alive in the
// parent's frame for the child's whole lifetime, so the common
// `co_await some_child_coroutine(...)` pattern is safe. Detached tasks are
// kept alive by the Engine until they complete (see engine.hpp).
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "common/assert.hpp"

namespace xemem::sim {

template <typename T = void>
class Task;

namespace detail {

/// State shared by Task<T> and Task<void> promises: continuation chaining,
/// exception capture, and the completion flag used by Engine::run / spawn.
struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};
  bool* done_flag{nullptr};

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      if (p.done_flag != nullptr) *p.done_flag = true;
      // Symmetric transfer back to whoever co_awaited this task; root tasks
      // (spawned or run by the Engine) have no continuation.
      return p.continuation ? p.continuation : std::noop_coroutine();
    }

    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started coroutine producing a value of type T.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// Awaiting a task starts it and suspends the awaiter until it finishes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;  // symmetric transfer: start the child immediately
      }
      T await_resume() {
        auto& p = h.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        XEMEM_ASSERT_MSG(p.value.has_value(), "task finished without a value");
        return std::move(*p.value);
      }
    };
    return Awaiter{h_};
  }

  std::coroutine_handle<> handle() const { return h_; }
  bool valid() const { return h_ != nullptr; }

  /// Engine plumbing: arrange for *flag to become true at completion.
  void set_done_flag(bool* flag) { h_.promise().done_flag = flag; }

  /// Extract the result after completion (Engine::run uses this).
  T take_result() {
    auto& p = h_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    XEMEM_ASSERT_MSG(p.value.has_value(), "task not complete");
    return std::move(*p.value);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  friend struct promise_type;

  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> h_{};
};

/// Task<void>: same machinery, no value.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;
      }
      void await_resume() {
        auto& p = h.promise();
        if (p.exception) std::rethrow_exception(p.exception);
      }
    };
    return Awaiter{h_};
  }

  std::coroutine_handle<> handle() const { return h_; }
  bool valid() const { return h_ != nullptr; }
  void set_done_flag(bool* flag) { h_.promise().done_flag = flag; }

  void take_result() {
    auto& p = h_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
  }

  /// Release ownership of the frame (Engine detach plumbing only).
  std::coroutine_handle<promise_type> release() { return std::exchange(h_, nullptr); }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  friend struct promise_type;

  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> h_{};
};

}  // namespace xemem::sim
