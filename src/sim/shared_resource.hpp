// Processor-sharing (fair-share) resource model.
//
// Models a capacity shared equally among all concurrent users — the main
// use is a NUMA socket's memory bandwidth: when the HPC simulation and the
// analytics program stream memory at the same time (the asynchronous
// in-situ model of paper section 6.2.1), each sees roughly half the socket
// bandwidth. This is the classic M/G/1-PS fluid model: with n active jobs,
// every job progresses at capacity/n.
//
// Implementation: between membership changes all jobs deplete at the same
// rate, so only the minimum-remaining job can finish next. A generation-
// counted timer fires at that completion time; admissions bump the
// generation to invalidate stale timers.
#pragma once

#include <cmath>
#include <coroutine>
#include <list>

#include "common/assert.hpp"
#include "sim/engine.hpp"

namespace xemem::sim {

class SharedBandwidth {
 public:
  /// @param bytes_per_ns total capacity (e.g. 12.8 for a 12.8 GB/s socket).
  explicit SharedBandwidth(double bytes_per_ns) : cap_(bytes_per_ns) {
    XEMEM_ASSERT(bytes_per_ns > 0);
  }

  /// Awaitable: move @p bytes through the resource, sharing capacity fairly
  /// with all concurrent transfers. Completes when the full amount has been
  /// transferred.
  auto transfer(u64 bytes) {
    struct Awaiter {
      SharedBandwidth* r;
      u64 bytes;
      bool await_ready() const noexcept { return bytes == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        auto* eng = Engine::current();
        r->advance(eng->now());
        r->jobs_.push_back(Job{static_cast<double>(bytes), h});
        r->arm_timer(eng);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, bytes};
  }

  /// Number of concurrently active transfers (diagnostics / tests).
  size_t active() const { return jobs_.size(); }

 private:
  struct Job {
    double remaining;
    std::coroutine_handle<> h;
  };

  /// Deplete all active jobs for the time elapsed since the last update.
  void advance(TimePoint t) {
    if (t <= last_) {
      last_ = t;
      return;
    }
    if (!jobs_.empty()) {
      const double dec =
          static_cast<double>(t - last_) * cap_ / static_cast<double>(jobs_.size());
      for (auto& j : jobs_) j.remaining -= dec;
    }
    last_ = t;
  }

  void arm_timer(Engine* eng) {
    ++timer_gen_;
    if (jobs_.empty()) return;
    double min_rem = jobs_.front().remaining;
    for (const auto& j : jobs_) min_rem = std::min(min_rem, j.remaining);
    // Sub-byte residue counts as done (floating-point tolerance).
    double dt_ns = std::max(min_rem, 0.0) * static_cast<double>(jobs_.size()) / cap_;
    TimePoint fire = std::max(eng->now(), last_ + static_cast<u64>(std::ceil(dt_ns)));
    const u64 gen = timer_gen_;
    eng->call_at(fire, [this, gen] { on_timer(gen); });
  }

  void on_timer(u64 gen) {
    if (gen != timer_gen_) return;  // superseded by a membership change
    auto* eng = Engine::current();
    advance(eng->now());
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      if (it->remaining <= 0.5) {
        eng->schedule_at(eng->now(), it->h);
        it = jobs_.erase(it);
      } else {
        ++it;
      }
    }
    arm_timer(eng);
  }

  double cap_;
  TimePoint last_{0};
  u64 timer_gen_{0};
  std::list<Job> jobs_;
};

}  // namespace xemem::sim
