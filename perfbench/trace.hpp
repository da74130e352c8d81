// Outside-in span recorder for the traced run.
//
// Spans are recorded in memory around every call the benchmark makes into
// a layer of the simulator (name prefix = the src/ module: "sim.run",
// "xemem.attach", "workloads.run_insitu", ...). Each span carries host and
// simulated begin/end, its parent span and the op it belongs to. The
// benchmark is one closed-loop client on one thread, so spans nest
// strictly and a stack gives each span its parent.
//
// At exit the spans are written as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it) and summarized as per-layer self time: a
// span's duration minus the part its child spans cover.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using xemem::u32;
using xemem::u64;

struct Span {
  std::string name;
  std::string tag;  ///< optional qualifier, e.g. the attach path "k2vm"
  u32 parent{0};    ///< index + 1 of the parent span; 0 for a root span
  u64 op{0};
  double host_begin_us{0};
  double host_end_us{0};
  u64 sim_begin_ns{0};
  u64 sim_end_ns{0};

  double host_us() const { return host_end_us - host_begin_us; }
  double sim_us() const { return static_cast<double>(sim_end_ns - sim_begin_ns) / 1e3; }
};

class Tracer {
 public:
  static constexpr u32 kOff = ~u32{0};

  explicit Tracer(bool on) : on_(on), t0_(std::chrono::steady_clock::now()) {}

  /// Spans opened from now on belong to op @p op; @p recording false
  /// suppresses them (untimed warm-up, the untraced half of a pair).
  void set_op(u64 op, bool recording) {
    op_ = op;
    recording_ = on_ && recording;
  }
  bool recording() const { return recording_; }
  void set_recording(bool r) { recording_ = on_ && r; }

  /// Open a span at simulated time @p sim_ns; returns its handle (kOff
  /// when not recording, which makes end() a no-op).
  u32 begin(const char* name, u64 sim_ns, std::string tag = {}) {
    if (!recording_) return kOff;
    Span s;
    s.name = name;
    s.tag = std::move(tag);
    s.parent = stack_.empty() ? 0 : stack_.back() + 1;
    s.op = op_;
    s.sim_begin_ns = sim_ns;
    s.host_begin_us = now_us();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<u32>(spans_.size() - 1));
    return stack_.back();
  }

  void end(u32 h, u64 sim_ns) {
    if (h == kOff) return;
    Span& s = spans_[h];
    s.host_end_us = now_us();
    s.sim_end_ns = sim_ns;
    XEMEM_ASSERT_MSG(!stack_.empty() && stack_.back() == h, "spans must nest");
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Host (or simulated) durations in microseconds of every span named
  /// @p name, optionally restricted to tag @p tag.
  std::vector<double> host_us(const std::string& name, const std::string& tag = "*") const {
    return collect(name, tag, [](const Span& s) { return s.host_us(); });
  }
  std::vector<double> sim_us(const std::string& name, const std::string& tag = "*") const {
    return collect(name, tag, [](const Span& s) { return s.sim_us(); });
  }

  /// Host self time per layer (the span-name prefix before the first '.').
  std::map<std::string, double> self_us_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child[s.parent - 1] += s.host_us();
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const std::string& n = spans_[i].name;
      out[n.substr(0, n.find('.'))] += spans_[i].host_us() - child[i];
    }
    return out;
  }

  /// Write every span as a Chrome trace-event "complete" event. @p meta
  /// is a JSON object stored under "otherData" (provenance stamp).
  bool write_chrome_json(const std::string& path, const std::string& meta) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[\n",
                 meta.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string& n = s.name;
      std::fprintf(f,
                   "%s{\"name\":\"%s%s%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%u,\"op\":%llu,\"sim_begin_ns\":%llu,"
                   "\"sim_end_ns\":%llu}}",
                   i == 0 ? "" : ",\n", n.c_str(), s.tag.empty() ? "" : " ",
                   s.tag.c_str(), n.substr(0, n.find('.')).c_str(), s.host_begin_us,
                   s.host_us(), i + 1, s.parent,
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.sim_begin_ns),
                   static_cast<unsigned long long>(s.sim_end_ns));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0_)
        .count();
  }

  template <typename F>
  std::vector<double> collect(const std::string& name, const std::string& tag, F f) const {
    std::vector<double> v;
    for (const Span& s : spans_) {
      if (s.name == name && (tag == "*" || s.tag == tag)) v.push_back(f(s));
    }
    return v;
  }

  bool on_;
  bool recording_{false};
  std::chrono::steady_clock::time_point t0_;
  u64 op_{0};
  std::vector<Span> spans_;
  std::vector<u32> stack_;
};

/// RAII span whose simulated timestamps come from @p eng (0 without one).
class Scope {
 public:
  Scope(Tracer& tr, const char* name, const xemem::sim::Engine* eng, std::string tag = {})
      : tr_(tr), eng_(eng), h_(tr.begin(name, sim_now(), std::move(tag))) {}
  ~Scope() { tr_.end(h_, sim_now()); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  u64 sim_now() const { return eng_ != nullptr ? eng_->now() : 0; }

  Tracer& tr_;
  const xemem::sim::Engine* eng_;
  u32 h_;
};

}  // namespace perfbench
