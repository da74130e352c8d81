// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload attach|insitu|multinode --seed N --seconds S --trace 0|1
//
// One process runs one workload as a closed loop with a single client:
// each op starts when the previous one ends. The op count is fixed by
// --seconds (at this commit's speed a run measures about that long), so
// every run of a seed does identical simulated work and host times compare
// as fixed-work times.
//
// Host speed drifts with the host's load, by up to 1.7x for minutes, so
// after every few ops and after every set-up the loop times a fixed
// reference kernel (ref_kernel.hpp). wall_rel is raw op time over raw
// reference time. wall_s, the op percentiles and setup_s are taken over
// host times each divided by the reference passes that follow them and
// scaled to the kernel's nominal pass: seconds at a steady host speed. The
// raw figures are printed on the "raw" line.
//
// --trace 0 prints the end-to-end metrics. --trace 1 is a separate run: it
// runs every op input twice, once untraced and once with spans around each
// call into a layer (alternating which goes first), prints the per-layer
// metrics and the tracing overhead, and writes Chrome trace-event JSON
// next to the binary. The last stdout line is always the JSON result.
//
// --fail-op K (attach only) makes op K attach to a removed segment: a test
// hook for the correctness oracle.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "os/guest_linux.hpp"
#include "perfbench.hpp"
#include "ref_kernel.hpp"

namespace perfbench {

NodeCounters NodeCounters::read(xemem::Node& node, const std::vector<std::string>& enclaves) {
  NodeCounters c;
  for (const auto& e : enclaves) {
    const auto& st = node.kernel(e).stats();
    c.ns_requests += st.ns_requests;
    c.messages_forwarded += st.messages_forwarded;
    c.retries += st.retries;
    c.timeouts += st.timeouts;
    c.pages_shared += st.pages_shared;
    c.dedup_entries += node.kernel(e).dedup_entries();
    if (auto* g = dynamic_cast<xemem::os::GuestLinuxEnclave*>(&node.enclave(e))) {
      c.vmm_map_ns += g->vmm_map_ns();
    }
  }
  auto& m = node.machine();
  for (u32 i = 0; i < m.core_count(); ++i) {
    c.irq_events += m.core(i).irq_events();
    c.stolen_ns += m.core(i).stolen_ns();
  }
  return c;
}

NodeCounters& NodeCounters::operator+=(const NodeCounters& o) {
  irq_events += o.irq_events;
  stolen_ns += o.stolen_ns;
  vmm_map_ns += o.vmm_map_ns;
  ns_requests += o.ns_requests;
  messages_forwarded += o.messages_forwarded;
  retries += o.retries;
  timeouts += o.timeouts;
  pages_shared += o.pages_shared;
  dedup_entries += o.dedup_entries;
  return *this;
}

NodeCounters NodeCounters::operator-(const NodeCounters& o) const {
  NodeCounters d = *this;
  d.irq_events -= o.irq_events;
  d.stolen_ns -= o.stolen_ns;
  d.vmm_map_ns -= o.vmm_map_ns;
  d.ns_requests -= o.ns_requests;
  d.messages_forwarded -= o.messages_forwarded;
  d.retries -= o.retries;
  d.timeouts -= o.timeouts;
  d.pages_shared -= o.pages_shared;
  d.dedup_entries -= o.dedup_entries;
  return d;
}

void NodeCounters::set_per_op(Metrics& m, double ops) const {
  m.set("hw.irq_events_per_op", static_cast<double>(irq_events) / ops);
  m.set("hw.stolen_sim_ms_per_op", static_cast<double>(stolen_ns) / 1e6 / ops);
  m.set("mm.pages_attached_per_op", static_cast<double>(pages_shared) / ops);
  m.set("palacios.vmm_map_sim_ms_per_op", static_cast<double>(vmm_map_ns) / 1e6 / ops);
  m.set("xemem.ns_requests_per_op", static_cast<double>(ns_requests) / ops);
  m.set("xemem.messages_forwarded_per_op", static_cast<double>(messages_forwarded) / ops);
  m.set("xemem.retries_per_op", static_cast<double>(retries) / ops);
  m.set("xemem.timeouts_per_op", static_cast<double>(timeouts) / ops);
}

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// How each workload's run is shaped. `ops_per_s` converts --seconds to
/// the fixed op count; a reference pass follows every `ref_every` ops.
struct Plan {
  const char* name;
  std::unique_ptr<Workload> (*make)(u64, Tracer&);
  double ops_per_s;
  u32 ref_every;
  u32 ref_passes;
};

const Plan kPlans[] = {
    {"insitu", make_insitu, 0.47, 1, 4},
    {"attach", make_attach, 60.0, 4, 1},
    {"multinode", make_multinode, 21.0, 1, 1},
};

constexpr u32 kSetups = 7;
/// Reference pass time the drift-compensated op percentiles are scaled to
/// (about one pass on the host this benchmark was tuned on).
constexpr double kRefNominalMs = 5.0;

const char* kPaths[] = {"k2l", "k2vm", "vm2k", "l2k"};
const char* kCalls[] = {"make", "search", "get", "attach", "detach", "release", "remove"};
const char* kInsituConfigs[] = {"linux_linux", "kitten_linux", "vm_on_linux", "vm_on_kitten"};

void declare_end_to_end(Metrics& m) {
  m.declare("wall_s", "s");
  m.declare("wall_rel", "ratio");
  m.declare("op_host_ms_p50", "ms");
  m.declare("op_host_ms_p90", "ms");
  m.declare("setup_s", "s");
  m.declare("peak_rss_mb", "MiB");
  m.declare("ops_ok_ratio", "ratio");
  m.declare("sim_op_ms", "sim_ms");
}

void declare_per_layer(Metrics& m) {
  m.declare("sim.events_per_op", "count");
  m.declare("sim.events_per_sim_s", "1/sim_s");
  m.declare("sim.host_ns_per_event", "ns");
  m.declare("hw.irq_events_per_op", "count");
  m.declare("hw.stolen_sim_ms_per_op", "sim_ms");
  m.declare("os.create_process.host_ms", "ms");
  m.declare("os.touch.host_us_p50", "us");
  m.declare("mm.pages_attached_per_op", "count");
  m.declare("palacios.vmm_map_sim_ms_per_op", "sim_ms");
  m.declare("palacios.map_entries_peak", "count");
  m.declare("palacios.rbtree_share", "ratio");
  for (const char* c : kCalls) {
    m.declare(std::string("xemem.") + c + ".host_us_p50", "us");
    m.declare(std::string("xemem.") + c + ".sim_us_p50", "sim_us");
  }
  for (const char* c : {"attach", "detach"}) {
    for (const char* p : kPaths) {
      m.declare(std::string("xemem.") + c + ".host_us_p50." + p, "us");
      m.declare(std::string("xemem.") + c + ".sim_us_p50." + p, "sim_us");
    }
  }
  m.declare("xemem.ns_requests_per_op", "count");
  m.declare("xemem.messages_forwarded_per_op", "count");
  m.declare("xemem.retries_per_op", "count");
  m.declare("xemem.timeouts_per_op", "count");
  m.declare("xemem.dedup_entries", "count");
  for (const char* c : kInsituConfigs) {
    m.declare(std::string("workloads.insitu.host_ms_p50.") + c, "ms");
    m.declare(std::string("workloads.insitu.sim_s.") + c, "sim_s");
  }
  for (const char* w : {"multinode_coll", "multinode_io"}) {
    m.declare(std::string("workloads.") + w + ".host_ms_p50", "ms");
    m.declare(std::string("workloads.") + w + ".events", "count");
    m.declare(std::string("workloads.") + w + ".sim_ms", "sim_ms");
  }
  m.declare("bench.ref_ms", "ms");
  m.declare("bench.trace_overhead", "ratio");
}

/// Refuse to report from anything but an optimized, uninstrumented build.
const char* build_refusal() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return "not an optimized build (NDEBUG/-O missing)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  const std::string bt = PERFBENCH_BUILD_TYPE;
  if (bt != "Release" && bt != "RelWithDebInfo") return "build type is not Release/RelWithDebInfo";
  return nullptr;
#endif
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_metrics(const Metrics& m) {
  std::string s = "{";
  char buf[256];
  for (const auto& r : m.rows()) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  s.size() > 1 ? ", " : "", r.name.c_str(), r.value, r.unit.c_str());
    s += buf;
  }
  return s + "}";
}

void print_rows(const Metrics& m) {
  for (const auto& r : m.rows()) {
    std::printf("  %-36s %18.6f %s\n", r.name.c_str(), r.value, r.unit.c_str());
  }
}

struct Args {
  std::string workload;
  u64 seed{1};
  double seconds{10};
  bool trace{false};
  u64 fail_op{~u64{0}};
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (!(a->seconds > 0 && a->seconds <= 600)) return false;
    } else if (k == "--trace") {
      a->trace = std::string(v) == "1";
      if (!a->trace && std::string(v) != "0") return false;
    } else if (k == "--fail-op") {
      a->fail_op = std::strtoull(v, &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto t_start = Clock::now();
  // Engines must follow the default selection, never the caller's.
  unsetenv("XEMEM_ENGINE");

  Args args;
  const Plan* plan = nullptr;
  if (parse(argc, argv, &args)) {
    for (const Plan& p : kPlans) {
      if (args.workload == p.name) plan = &p;
    }
  }
  if (plan == nullptr || (args.fail_op != ~u64{0} && args.workload != "attach")) {
    std::fprintf(stderr,
                 "usage: %s --workload insitu|attach|multinode --seed N --seconds S "
                 "--trace 0|1 [--fail-op K (attach)]\n",
                 argv[0]);
    return 2;
  }
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "perfbench: refusing to report from this binary: %s\n", why);
    return 2;
  }

  Tracer tr(args.trace);
  auto w = plan->make(args.seed, tr);
  w->inject_failure_at(args.fail_op);

  RefKernel ref;
  const u64 ref_sum = ref.pass();  // untimed warm pass
  bool ref_stable = true;
  auto ref_pass_ms = [&] {
    const auto t = Clock::now();
    ref_stable = ref.pass() == ref_sum && ref_stable;
    return secs_since(t) * 1e3;
  };

  // The world is set up kSetups times: first from process start to the
  // first op, then spread evenly over the run. Each set-up is followed by
  // one reference pass; setup_s is the median drift-compensated set-up.
  constexpr u64 kSetupOp = ~u64{0};
  std::vector<double> setup_s;
  std::vector<double> setup_s_rel;
  auto setup = [&](Clock::time_point t) {
    tr.set_op(kSetupOp, true);
    w->setup();
    setup_s.push_back(secs_since(t));
    setup_s_rel.push_back(setup_s.back() * kRefNominalMs / ref_pass_ms());
  };
  setup(t_start);

  // Untraced op host times, and the same divided by the mean time of the
  // reference passes that follow them (scaled to the kernel's nominal pass
  // time): wall_s and the percentiles are taken over the latter.
  std::vector<double> op_ms;
  std::vector<double> op_ms_rel;
  std::vector<double> ref_ms;
  auto ref_passes = [&] {
    double sum = 0;
    for (u32 k = 0; k < plan->ref_passes; ++k) {
      ref_ms.push_back(ref_pass_ms());
      sum += ref_ms.back();
    }
    const double scale = kRefNominalMs / (sum / plan->ref_passes);
    for (size_t k = op_ms_rel.size(); k < op_ms.size(); ++k) {
      op_ms_rel.push_back(op_ms[k] * scale);
    }
  };

  const u64 ops = std::max<u64>(1, std::llround(args.seconds * plan->ops_per_s));
  double traced_s = 0;
  double untraced_s = 0;
  double sim_ms = 0;
  u64 attempted = 0;
  u64 failed = 0;
  auto run_op = [&](u64 i, bool traced) {
    tr.set_op(i, traced);
    const auto t = Clock::now();
    const OpResult r = w->op(i, traced);
    const double dt = secs_since(t);
    ++attempted;
    failed += r.ok ? 0 : 1;
    (traced ? traced_s : untraced_s) += dt;
    if (!traced) {
      op_ms.push_back(dt * 1e3);
      sim_ms += r.sim_ms;
    }
  };
  // The trace run pairs each input (half as many) with an untraced twin.
  const u64 inputs = args.trace ? std::max<u64>(1, ops / 2) : ops;
  for (u64 i = 0; i < inputs; ++i) {
    while (setup_s.size() < kSetups && i >= setup_s.size() * inputs / kSetups) {
      setup(Clock::now());
    }
    if (args.trace) {
      run_op(i, i % 2 == 1);
      run_op(i, i % 2 == 0);
    } else {
      run_op(i, false);
    }
    if ((i + 1) % plan->ref_every == 0) ref_passes();
  }
  if (ref_ms.empty() || op_ms_rel.size() < op_ms.size()) ref_passes();
  failed += w->verify();

  const EngineStamp eng = w->engine();
  auto sum = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s;
  };
  const double ref_total_ms = sum(ref_ms);
  const bool correct = failed == 0 && ref_stable;

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", plan->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  char prov[512];
  std::snprintf(prov, sizeof(prov),
                "{\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
                "\"engine\": \"%s\", \"workers\": %u, \"workload\": \"%s\", \"seed\": %llu, "
                "\"ops\": %llu, \"setups\": %u, \"ref_passes\": %zu, \"trace\": %d}",
                PERFBENCH_BUILD_TYPE, __VERSION__, std::thread::hardware_concurrency(),
                eng.kind.c_str(), eng.workers, plan->name,
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(attempted), kSetups, ref_ms.size(),
                args.trace ? 1 : 0);
  std::printf("provenance %s\n", prov);
  std::printf("ops attempted %llu, failed %llu; digest of simulated outputs %016llx\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(w->digest()));

  Metrics m;
  if (!args.trace) {
    declare_end_to_end(m);
    m.set("wall_s", sum(op_ms_rel) / 1e3);
    m.set("wall_rel", untraced_s * 1e3 / ref_total_ms);
    m.set("op_host_ms_p50", median(op_ms_rel));
    m.set("op_host_ms_p90", quantile(op_ms_rel, 0.9));
    m.set("setup_s", median(setup_s_rel));
    m.set("peak_rss_mb", peak_rss_mib());
    m.set("ops_ok_ratio", static_cast<double>(attempted - failed) / static_cast<double>(attempted));
    m.set("sim_op_ms", sim_ms / static_cast<double>(op_ms.size()));
    std::printf("raw {\"wall_s\": %.9g, \"setup_s\": %.9g, \"op_host_ms_p50\": %.9g, "
                "\"op_host_ms_p90\": %.9g, \"ref_pass_ms_p50\": %.9g}\n",
                untraced_s, median(setup_s), median(op_ms), quantile(op_ms, 0.9), median(ref_ms));
    std::printf("end-to-end metrics (%zu ops; host times drift-compensated to a %.0f ms "
                "reference pass):\n",
                op_ms.size(), kRefNominalMs);
    print_rows(m);
  } else {
    declare_per_layer(m);
    w->layer_metrics(m);
    m.set("bench.ref_ms", ref_total_ms / static_cast<double>(ref_ms.size()));
    m.set("bench.trace_overhead", traced_s / untraced_s - 1.0);
    std::printf("host self time by layer (traced ops and setups):\n");
    for (const auto& [layer, us] : tr.self_us_by_layer()) {
      std::printf("  %-12s %12.1f ms\n", layer.c_str(), us / 1e3);
    }
    std::printf("per-layer metrics:\n");
    print_rows(m);
    if (const double share = m.get("palacios.rbtree_share"); share > 0) {
      std::printf("paper check: palacios.rbtree_share %.3f (paper section 5.4: ~0.8 of a "
                  "VM attach; table2_vm_throughput at 1 GiB: 0.56)\n",
                  share);
    }
    std::printf("paper check: xemem.dedup_entries %.0f beside peak_rss_mb %.1f\n",
                m.get("xemem.dedup_entries"), peak_rss_mib());
    w->print_checks();
    const std::string path = std::string(argv[0]) + "-trace-" + plan->name + "-" +
                             std::to_string(args.seed) + ".json";
    if (tr.write_chrome_json(path, prov)) {
      std::printf("trace: %zu spans written to %s\n", tr.spans().size(), path.c_str());
    } else {
      std::printf("trace: could not write %s\n", path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json_metrics(m).c_str());
  return 0;
}
