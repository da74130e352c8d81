// Multi-node workload drivers (see multinode.hpp for the contract).
#include "workloads/multinode.hpp"

#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "collectives/comm.hpp"
#include "common/units.hpp"
#include "iocache/cache.hpp"
#include "iocache/replay.hpp"
#include "net/fabric.hpp"
#include "xemem/system.hpp"

namespace xemem::workloads {
namespace {

/// splitmix-style fold; order-sensitive, so per-node digests combine in
/// node order and per-rank digests in rank order.
u64 mix(u64 h, u64 v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Fold the node's own fabric counters into its digest. Every counter of
/// slot n is only mutated by partition-n events, so the value at the
/// (partition-n) recording event is engine-independent.
u64 mix_fabric(u64 h, const FabricStats& f) {
  h = mix(h, f.fabric_drops);
  h = mix(h, f.fabric_dups);
  h = mix(h, f.fabric_delayed);
  h = mix(h, f.fabric_retransmits);
  h = mix(h, f.fabric_dedup);
  h = mix(h, f.fabric_stale);
  h = mix(h, f.fabric_probes);
  h = mix(h, f.fabric_acks);
  h = mix(h, f.fabric_node_failures);
  h = mix(h, f.collectives_failed);
  h = mix(h, f.rebuilds);
  return h;
}

/// One socket per enclave, ten threads each (the collectives-scaling
/// machine shape, sized to the node's enclave count).
hw::MachineConfig coll_machine(u32 enclaves) {
  hw::MachineConfig cfg;
  for (u32 s = 0; s < enclaves; ++s) {
    cfg.sockets.push_back(hw::SocketConfig{10, 4_GiB, 12.8});
  }
  return cfg;
}

std::vector<u32> socket_cores(u32 socket, u32 count) {
  std::vector<u32> ids;
  for (u32 c = 0; c < count; ++c) ids.push_back(socket * 10 + c);
  return ids;
}

/// Collectives-world kernels keep the default protocol parameters but a
/// short RPC timeout: intra-node RPCs complete in microseconds, and the
/// 10 s default would leave stale timeout timers that a post-kill drain
/// must retire -- which the parallel engine can only reach by ratcheting
/// partition clocks in lookahead-sized steps (seconds of wall time for a
/// 10 s gap).
KernelConfig coll_kernel_config() {
  KernelConfig cfg;
  cfg.request_timeout = 5_ms;
  return cfg;
}

KernelConfig cache_kernel_config() {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 3;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 400_us;
  cfg.lease_duration = 5_ms;
  return cfg;
}

/// Shared driver context: per-node digests are written by each node's
/// driver in its own partition and read on the launching thread after
/// run() returns (worker join orders the accesses).
struct Ctx {
  const MultinodeParams* p{nullptr};
  net::Communicator* fabric{nullptr};
  std::vector<std::unique_ptr<Node>>* nodes{nullptr};
  std::vector<std::unique_ptr<iocache::BackingStore>>* stores{nullptr};
  std::vector<u64> node_sum;
  std::vector<u8> node_clean;
  std::vector<u64> node_reresolves;
};

/// Closing barrier with ULFM-style agreement. If the barrier fails while
/// this node lives, a peer died mid-exchange and some survivor may still
/// be inside its main loop waiting for our rebuild vote: join the
/// rebuild — contributing @p done_word, our "past the end" resume point,
/// so stragglers agree to stop — and retry the barrier on the shrunken
/// communicator. Each retry consumes at least one peer death, so the
/// loop is bounded.
sim::Task<void> closing_sync(Ctx& cx, u32 n, u64 done_word) {
  while (cx.fabric->alive(n)) {
    const auto st = co_await cx.fabric->barrier(n);
    if (st.ok() || !cx.fabric->alive(n)) co_return;
    const auto rb = co_await cx.fabric->rebuild(n, done_word);
    if (!rb.ok()) co_return;
  }
}

// ------------------------------------------------------------- collectives

/// Per-iteration control word rank 0 broadcasts intra-node after the
/// fabric exchange: where to resume (fabric agreement may skip ahead),
/// whether this iteration's values count, and whether the node is done.
struct FabCtrl {
  u64 next_it{0};
  double global{0};
  u8 stop{0};
  u8 fold{0};
  u8 pad[6]{};  ///< keep the broadcast payload fully initialized
};

/// Per-node job: every rank runs hierarchical intra-node allreduces; rank
/// 0 bridges the nodes with a fabric allreduce each iteration and rebroadcasts
/// the (modeled) global value intra-node, coupling each node's next
/// iteration to the slowest node — the straggler dynamic of paper §7 at
/// multi-node scale.
///
/// Degradation: when a fabric peer dies, survivors observe node_failed,
/// re-form via rebuild() — agreeing (max-fold) on the iteration to resume
/// at — and continue on the shrunken communicator; the dead node records
/// its digest and drops out of the job.
sim::Task<void> coll_node_driver(Ctx& cx, u32 n) {
  const MultinodeParams& p = *cx.p;
  Node& node = *(*cx.nodes)[n];
  bool clean = true;
  co_await node.start();

  coll::CollConfig ccfg;
  ccfg.slot_bytes = std::max<u64>(1_MiB, p.bytes);
  ccfg.chunk_bytes = 64_KiB;
  ccfg.poll_interval = 2'000;
  const u32 ranks = p.ranks_per_node;

  // Place ranks round-robin over enclave cores, as collectives_scaling does.
  std::vector<coll::Comm::Member> members;
  std::vector<u32> next_core(p.enclaves_per_node, 0);
  for (u32 r = 0; r < ranks; ++r) {
    const u32 e = r * p.enclaves_per_node / ranks;
    const std::string ename = "e" + std::to_string(e);
    auto& enclave = node.enclave(ename);
    hw::Core* core = enclave.cores()[next_core[e]++ % enclave.cores().size()];
    auto proc = enclave.create_process(
        coll::Comm::region_bytes(ranks, ccfg) + kPageSize, core);
    XEMEM_ASSERT_MSG(proc.ok(), "multinode process creation failed");
    members.push_back(coll::Comm::Member{&node.kernel(ename), &enclave,
                                         proc.value(), core,
                                         proc.value()->image_base()});
  }

  auto fanout = [&](auto body) -> sim::Task<void> {
    u32 pending = ranks;
    sim::Event done;
    auto wrap = [&](u32 r) -> sim::Task<void> {
      co_await body(r);
      if (--pending == 0) done.set();
    };
    for (u32 r = 0; r < ranks; ++r) sim::Engine::current()->spawn(wrap(r));
    co_await done.wait();
  };

  std::vector<std::unique_ptr<coll::Comm>> comms(ranks);
  co_await fanout([&](u32 r) -> sim::Task<void> {
    auto c = co_await coll::Comm::create(members[r], "mn", r, ranks, ccfg);
    XEMEM_ASSERT_MSG(c.ok(), "multinode comm bootstrap failed");
    comms[r] = std::move(c).value();
  });

  std::vector<u64> rank_sum(ranks, 0);
  co_await fanout([&](u32 r) -> sim::Task<void> {
    const u64 elems = std::max<u64>(1, p.bytes / sizeof(double));
    std::vector<double> in(elems, 1.0 + r + n), out(elems, 0.0);
    FabCtrl ctrl;
    u64 it = 0;
    while (it < static_cast<u64>(p.iters)) {
      clean = (co_await comms[r]->allreduce(in.data(), out.data(), elems,
                                            coll::ReduceOp::sum))
                  .ok() &&
              clean;
      if (r == 0) {
        ctrl = FabCtrl{};
        ctrl.next_it = it + 1;
        ctrl.fold = 1;
        const auto st = co_await cx.fabric->allreduce(p.bytes, n);
        if (st.ok()) {
          ctrl.global = out[0] + static_cast<double>(it);
        } else if (!cx.fabric->alive(n)) {
          // We are the dead node: drop out of the cluster job. What
          // follows the loop is post-mortem accounting for the digest.
          ctrl.stop = 1;
          ctrl.fold = 0;
        } else {
          // A peer died mid-exchange: agree with the other survivors on
          // the resume iteration and carry on, shrunken.
          const auto rb = co_await cx.fabric->rebuild(n, it + 1);
          if (rb.ok()) {
            ctrl.next_it = rb.value().app_word;
            ctrl.fold = 0;
          } else {
            ctrl.stop = 1;
            ctrl.fold = 0;
          }
        }
      }
      clean =
          (co_await comms[r]->bcast(&ctrl, sizeof(ctrl), 0)).ok() && clean;
      if (ctrl.fold) {
        rank_sum[r] = mix(rank_sum[r], std::bit_cast<u64>(out[0]));
        rank_sum[r] = mix(rank_sum[r], std::bit_cast<u64>(ctrl.global));
      }
      if (ctrl.stop) break;
      it = ctrl.next_it;
    }
  });

  u64 sum = 0;
  for (u32 r = 0; r < ranks; ++r) sum = mix(sum, rank_sum[r]);
  sum = mix(sum, comms[0]->stats().of(coll::OpKind::allreduce).ops);
  u64 moved = 0;
  for (const auto& c : comms) {
    moved += c->stats().of(coll::OpKind::allreduce).bytes_moved;
  }
  sum = mix(sum, moved);

  co_await fanout([&](u32 r) -> sim::Task<void> {
    clean = (co_await comms[r]->finalize()).ok() && clean;
  });

  sum = mix_fabric(sum, cx.fabric->rank_stats(n));
  sum = mix(sum, static_cast<u64>(sim::now()));
  cx.node_sum[n] = sum;
  cx.node_clean[n] = clean ? 1 : 0;
  // Record *before* the closing barrier: every node's digest is then
  // written at a time no later than the root's completion (or, for a
  // dead node, before the drain finishes), so both engines execute every
  // recording event.
  co_await closing_sync(cx, n, static_cast<u64>(p.iters));
  // Fault/kill runs drain the engine afterwards; stop the kernels'
  // lifetime actors so the drain can reach an idle heap.
  if (p.has_fabric_failures()) node.quiesce();
}

// ---------------------------------------------------------------- I/O cache

/// Per-node job: one cache-server enclave plus client enclaves replaying
/// the dl_training family, with a fabric barrier between trace epochs
/// (coordinated checkpoint windows across the cluster).
///
/// Degradation: on the killed node the primary cache server crashes at
/// the kill instant; a supervisor starts the standby (srv1), which
/// re-exports the directory once lease GC frees the dead server's name;
/// in-flight client ops re-resolve the directory, and the node drains its
/// epoch before leaving the job.
/// Survivors observe node_failed on the epoch barrier, rebuild, agree on
/// the resume epoch and finish on the shrunken communicator.
sim::Task<void> io_node_driver(Ctx& cx, u32 n) {
  const MultinodeParams& p = *cx.p;
  Node& node = *(*cx.nodes)[n];
  const bool victim = p.has_kill() && p.kill_rank == n;
  bool clean = true;
  co_await node.start();

  iocache::Config io;
  io.file_blocks = p.file_blocks;
  io.capacity_blocks = p.capacity_blocks;
  io.block_bytes = 16_KiB;
  io.num_clients = p.clients_per_node;
  io.block_lease = 200_us;

  iocache::CacheServer srv(node.kernel("srv0"), node.enclave("srv0"), 0, io,
                           *(*cx.stores)[n]);
  std::vector<std::unique_ptr<iocache::CacheClient>> cls;
  for (u32 c = 0; c < p.clients_per_node; ++c) {
    const std::string cn = "cli" + std::to_string(c);
    cls.push_back(std::make_unique<iocache::CacheClient>(node.kernel(cn),
                                                         node.enclave(cn), c,
                                                         io));
    clean = (co_await cls.back()->start()).ok() && clean;
  }
  clean = (co_await srv.start()).ok() && clean;

  // Victim node: the primary cache server dies with the fabric link. A
  // supervisor watches for the crash and starts the standby, which
  // re-exports the directory under the same name after lease GC (the
  // recovery protocol test_iocache sweeps).
  std::unique_ptr<iocache::CacheServer> takeover;
  bool supervisor_done = false;
  sim::Event supervisor_exit;
  u64 io_errors = 0;
  if (victim) {
    auto supervise = [&]() -> sim::Task<void> {
      while (!supervisor_done) {
        if (node.kernel("srv0").is_crashed() && !takeover) {
          // Same shard id as the primary: the standby takes over shard 0's
          // directory name and the clients' existing rings.
          takeover = std::make_unique<iocache::CacheServer>(
              node.kernel("srv1"), node.enclave("srv1"), 0, io,
              *(*cx.stores)[n]);
          clean =
              (co_await takeover->start(/*takeover=*/true)).ok() && clean;
        }
        co_await sim::delay(200_us);
      }
      supervisor_exit.set();
    };
    auto crash_primary = [&cx, n]() -> sim::Task<void> {
      co_await sim::delay_until(cx.p->kill_time_ns);
      Node& nd = *(*cx.nodes)[n];
      if (!nd.kernel("srv0").is_crashed()) nd.kernel("srv0").crash();
    };
    sim::Engine::current()->spawn(supervise());
    sim::Engine::current()->spawn(crash_primary());
  }

  iocache::ReplayParams rp;
  rp.file_blocks = p.file_blocks;
  rp.ops_per_rank = p.ops_per_rank;
  rp.seed = 7;
  std::vector<std::vector<iocache::ReplayOp>> traces;
  std::vector<u64> next_stamp;
  for (u32 c = 0; c < p.clients_per_node; ++c) {
    traces.push_back(iocache::make_trace(iocache::Family::dl_training, c,
                                         p.clients_per_node, rp));
    next_stamp.push_back((n * 64 + c + 1) * 1000000ull);
  }

  // Op failures on the victim during the crash->takeover window are
  // expected degradation, counted rather than marring `clean`.
  auto drive_slice = [&](u32 c, u64 lo, u64 hi) -> sim::Task<void> {
    for (u64 k = lo; k < hi && k < traces[c].size(); ++k) {
      const auto& op = traces[c][k];
      const bool ok =
          op.is_write
              ? (co_await cls[c]->write(op.block, next_stamp[c]++)).ok()
              : (co_await cls[c]->read(op.block)).ok();
      if (!ok) {
        if (victim) {
          ++io_errors;
        } else {
          clean = false;
        }
      }
    }
  };

  const u64 epochs = (p.ops_per_rank + p.epoch_ops - 1) / p.epoch_ops;
  u64 e = 0;
  bool stop = false;
  while (e < epochs && !stop) {
    u32 pending = p.clients_per_node;
    sim::Event done;
    auto wrap = [&](u32 c) -> sim::Task<void> {
      co_await drive_slice(c, e * p.epoch_ops, (e + 1) * p.epoch_ops);
      if (--pending == 0) done.set();
    };
    for (u32 c = 0; c < p.clients_per_node; ++c) {
      sim::Engine::current()->spawn(wrap(c));
    }
    co_await done.wait();
    const auto st = co_await cx.fabric->barrier(n);
    if (st.ok()) {
      ++e;
      continue;
    }
    if (!cx.fabric->alive(n)) {
      stop = true;  // we are the dead node: drain locally, leave the job
      break;
    }
    const auto rb = co_await cx.fabric->rebuild(n, e + 1);
    if (!rb.ok()) {
      stop = true;
      break;
    }
    e = rb.value().app_word;
  }

  if (victim) {
    supervisor_done = true;
    co_await supervisor_exit.wait();
  }
  for (auto& c : cls) co_await c->shutdown();
  if (takeover) {
    clean = (co_await takeover->stop()).ok() && clean;
  }
  if (!node.kernel("srv0").is_crashed()) {
    clean = (co_await srv.stop()).ok() && clean;
    clean = clean && node.kernel("srv0").pinned_frames() == 0;
  }

  u64 sum = 0;
  u64 reresolves = 0;
  for (u32 c = 0; c < p.clients_per_node; ++c) {
    const auto& m = cls[c]->metrics();
    sum = mix(sum, m.ops);
    sum = mix(sum, m.hits);
    sum = mix(sum, m.cold);
    sum = mix(sum, m.attaches);
    sum = mix(sum, m.reresolves);
    reresolves += m.reresolves;
    clean = clean &&
            (victim ||
             node.kernel("cli" + std::to_string(c)).pinned_frames() == 0);
  }
  const auto& store = *(*cx.stores)[n];
  sum = mix(sum, store.reads());
  sum = mix(sum, store.writes());
  sum = mix(sum, io_errors);
  sum = mix_fabric(sum, cx.fabric->rank_stats(n));
  sum = mix(sum, static_cast<u64>(sim::now()));
  cx.node_sum[n] = sum;
  cx.node_clean[n] = clean ? 1 : 0;
  cx.node_reresolves[n] = reresolves;
  co_await closing_sync(cx, n, epochs);
  // Fault/kill runs drain the engine afterwards; stop the kernels'
  // lifetime actors (heartbeats, the NS lease reaper) so the drain can
  // reach an idle heap.
  if (p.has_fabric_failures()) node.quiesce();
}

// ------------------------------------------------------------------- runner

using Driver = sim::Task<void> (*)(Ctx&, u32);

MultinodeResult run(const MultinodeParams& p, Driver driver,
                    bool iocache_world) {
  MultinodeResult res;
  sim::Engine eng(p.seed, p.kind, p.workers);
  eng.set_partitions(p.nodes);
  net::Communicator fabric(p.nodes);

  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::unique_ptr<iocache::BackingStore>> stores;
  for (u32 n = 0; n < p.nodes; ++n) {
    fabric.bind_rank(n, n);
    if (iocache_world) {
      auto node = std::make_unique<Node>(hw::Machine::r420());
      node->set_kernel_config(cache_kernel_config());
      node->add_linux_mgmt("linux", 0, {0, 1});
      node->add_cokernel("srv0", 0, {2, 3}, 1_GiB);
      for (u32 c = 0; c < p.clients_per_node; ++c) {
        node->add_cokernel("cli" + std::to_string(c), 0, {4 + c}, 256_MiB);
      }
      if (p.has_kill() && p.kill_rank == n) {
        // Standby cache server for the NS-takeover degradation path.
        node->add_cokernel("srv1", 0,
                           {4 + p.clients_per_node, 5 + p.clients_per_node},
                           1_GiB);
        res.enclaves += 1;
      }
      nodes.push_back(std::move(node));
      stores.push_back(
          std::make_unique<iocache::BackingStore>(p.file_blocks, 42));
      res.enclaves += 2 + p.clients_per_node;
    } else {
      auto node = std::make_unique<Node>(coll_machine(p.enclaves_per_node));
      node->set_kernel_config(coll_kernel_config());
      node->add_linux_mgmt("e0", 0, socket_cores(0, 8));
      for (u32 s = 1; s < p.enclaves_per_node; ++s) {
        node->add_cokernel("e" + std::to_string(s), s, socket_cores(s, 8),
                           2_GiB);
      }
      nodes.push_back(std::move(node));
      res.enclaves += p.enclaves_per_node;
    }
    nodes.back()->set_partition(n);
  }
  // Fault/kill wiring must follow bind_rank: the kill actor spawns into
  // the victim's (now bound) partition.
  if (p.fabric_faults.any()) {
    fabric.set_fabric_faults(p.fabric_faults, p.fabric_fault_seed);
  }
  if (p.has_kill()) {
    XEMEM_ASSERT(p.kill_rank < p.nodes);
    fabric.schedule_kill(eng, p.kill_rank, p.kill_time_ns);
  }

  Ctx cx;
  cx.p = &p;
  cx.fabric = &fabric;
  cx.nodes = &nodes;
  cx.stores = &stores;
  cx.node_sum.assign(p.nodes, 0);
  cx.node_clean.assign(p.nodes, 0);
  cx.node_reresolves.assign(p.nodes, 0);

  for (u32 n = 1; n < p.nodes; ++n) eng.spawn_in(n, driver(cx, n));
  const auto w0 = std::chrono::steady_clock::now();
  eng.run(driver(cx, 0));
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - w0)
                    .count();
  res.sim_ms = static_cast<double>(eng.now()) / 1e6;
  if (p.has_fabric_failures()) {
    // Drain: a dead node's recording event has no causal edge to the
    // root's completion, so only a full drain executes it on both
    // engines; the drain also retires every straggling ack/retransmit
    // timer, making finish_run()'s checks and the aggregated fabric
    // counters deterministic.
    eng.run_until_idle();
    fabric.finish_run();
    res.fabric = fabric.stats();
  }
  res.events = eng.events_processed();
  res.clean = true;
  for (u32 n = 0; n < p.nodes; ++n) {
    res.checksum = mix(res.checksum, cx.node_sum[n]);
    res.clean = res.clean && cx.node_clean[n] != 0;
    res.reresolves += cx.node_reresolves[n];
    if (fabric.alive(n)) ++res.survivors;
  }
  return res;
}

}  // namespace

MultinodeResult run_multinode_collectives(const MultinodeParams& p) {
  return run(p, &coll_node_driver, /*iocache_world=*/false);
}

MultinodeResult run_multinode_iocache(const MultinodeParams& p) {
  return run(p, &io_node_driver, /*iocache_world=*/true);
}

}  // namespace xemem::workloads
