#include "xemem/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <map>

#include "common/log.hpp"
#include "sim/engine.hpp"

namespace xemem {

namespace {
// Globally unique request ids, kept collision-free even before enclaves
// hold ids (server-side dedup caches key on req_id alone, so per-kernel
// namespacing is not enough). Atomic because the parallel engine mints
// ids from several partition workers at once; the id *values* are not
// part of the determinism contract — they never reach Stats, timing, or
// dedup ordering — only their uniqueness matters.
std::atomic<u64> g_req_counter{1};

// Response command correlated to a request command (for rejections a shard
// replica builds before dispatching the request, e.g. its epoch guard).
Cmd response_cmd(Cmd c) {
  switch (c) {
    case Cmd::ping_ns: return Cmd::ping_ns_resp;
    case Cmd::alloc_enclave_id: return Cmd::enclave_id_resp;
    case Cmd::segid_alloc: return Cmd::segid_alloc_resp;
    case Cmd::segid_remove: return Cmd::segid_remove_resp;
    case Cmd::name_lookup: return Cmd::name_lookup_resp;
    case Cmd::name_list: return Cmd::name_list_resp;
    case Cmd::get: return Cmd::get_resp;
    case Cmd::attach: return Cmd::attach_resp;
    case Cmd::detach: return Cmd::detach_resp;
    case Cmd::shard_replicate: return Cmd::shard_replicate_resp;
    case Cmd::shard_sync: return Cmd::shard_sync_resp;
    case Cmd::shard_vote: return Cmd::shard_vote_resp;
    case Cmd::shard_probe: return Cmd::shard_probe_resp;
    case Cmd::cap_derive: return Cmd::cap_derive_resp;
    case Cmd::cap_revoke: return Cmd::cap_revoke_resp;
    default: return c;
  }
}
}  // namespace

// Registry commands a client stamps with (shard, shard_epoch); everything
// else carrying shard fields is the replica group's internal protocol.
bool XememKernel::is_shard_client_cmd(Cmd c) {
  switch (c) {
    case Cmd::segid_alloc:
    case Cmd::segid_remove:
    case Cmd::name_lookup:
    case Cmd::name_list:
    case Cmd::get:
    case Cmd::attach:
    case Cmd::detach:
    case Cmd::release:
    case Cmd::cap_derive:
    case Cmd::cap_revoke:
    case Cmd::heartbeat:
      return true;
    default:
      return false;
  }
}

bool XememKernel::is_segid_cmd(Cmd c) {
  switch (c) {
    case Cmd::get:
    case Cmd::attach:
    case Cmd::detach:
    case Cmd::release:
    case Cmd::cap_derive:
    case Cmd::cap_revoke:
      return true;
    default:
      return false;
  }
}

// Capability-protocol commands served by the segment's owner enclave; they
// route exactly like get/attach (the home shard resolves the owner, then
// forwards).
bool XememKernel::is_cap_cmd(Cmd c) {
  return c == Cmd::cap_derive || c == Cmd::cap_revoke;
}

bool XememKernel::is_shard_service_cmd(Cmd c) {
  switch (c) {
    case Cmd::shard_replicate:
    case Cmd::shard_sync:
    case Cmd::shard_vote:
    case Cmd::shard_probe:
    case Cmd::shard_announce:
      return true;
    default:
      return false;
  }
}

void XememKernel::encode_shard_ops(const std::vector<ShardOp>& ops, Message* m) {
  bool first = m->name.empty() && m->payload.empty();
  for (const auto& op : ops) {
    m->payload.push_back(static_cast<u64>(op.kind));
    m->payload.push_back(op.epoch);
    m->payload.push_back(op.segid);
    m->payload.push_back(op.size);
    m->payload.push_back(op.owner);
    if (!first) m->name += '\n';
    m->name += op.name;
    first = false;
  }
}

std::vector<XememKernel::ShardOp> XememKernel::decode_shard_ops(const Message& m) {
  std::vector<ShardOp> ops;
  const u64 n = m.payload.size() / 5;
  ops.reserve(n);
  size_t pos = 0;
  for (u64 i = 0; i < n; ++i) {
    ShardOp op;
    op.kind = static_cast<ShardOp::Kind>(m.payload[5 * i]);
    op.epoch = m.payload[5 * i + 1];
    op.segid = m.payload[5 * i + 2];
    op.size = m.payload[5 * i + 3];
    op.owner = m.payload[5 * i + 4];
    const size_t next = m.name.find('\n', pos);
    op.name = m.name.substr(pos, next - pos);
    pos = next == std::string::npos ? m.name.size() : next + 1;
    ops.push_back(std::move(op));
  }
  return ops;
}

bool XememKernel::same_shard_op(const ShardOp& a, const ShardOp& b) {
  return a.kind == b.kind && a.epoch == b.epoch && a.segid == b.segid &&
         a.owner == b.owner;
}

XememKernel::XememKernel(os::Enclave& os, bool is_name_server, KernelConfig cfg)
    : os_(os), is_ns_(is_name_server), cfg_(cfg) {
  const KernelConfig defaults;
  if (cfg_.request_timeout == 0) cfg_.request_timeout = defaults.request_timeout;
  if (cfg_.ping_timeout == 0) cfg_.ping_timeout = defaults.ping_timeout;
  // The paper's central name server is one shard hosted by the hub alone.
  if (cfg_.ns_shards.empty()) cfg_.ns_shards = {{0}};
  if (cfg_.partition_grace == 0) {
    cfg_.partition_grace =
        std::max<sim::Duration>(cfg_.lease_duration, 2 * cfg_.request_timeout);
  }
  if (cfg_.shard_probe_period == 0) {
    cfg_.shard_probe_period =
        cfg_.lease_duration > 0 ? heartbeat_period() : 10'000'000ull;  // 10 ms
  }
  if (cfg_.shard_probe_misses == 0) cfg_.shard_probe_misses = 1;
  for (const auto& group : cfg_.ns_shards) {
    XEMEM_ASSERT_MSG(!group.empty(), "empty shard replica group");
  }
  shard_epoch_.assign(cfg_.ns_shards.size(), 1);
}

void XememKernel::add_channel(ChannelEndpoint* ep) {
  channels_.push_back(ep);
  // Channels appear at co-kernel/VM boot time, which may be long after
  // this kernel started (dynamic repartitioning): service it immediately.
  if (started_) sim::Engine::current()->spawn(service_loop(ep));
}

void XememKernel::start() {
  XEMEM_ASSERT(!started_);
  started_ = true;
  auto* eng = sim::Engine::current();
  for (auto* ep : channels_) eng->spawn(service_loop(ep));
  if (is_ns_) {
    os_.set_id(EnclaveId{0});
    registered_.set();
  } else {
    eng->spawn(discovery());
  }
  if (cfg_.lease_duration > 0) {
    // Liveness machinery is opt-in (KernelConfig::lease_duration): these
    // actors run for the kernel's whole lifetime, so enabling them makes
    // Engine::run_until_idle() unsuitable for the enclosing experiment.
    eng->spawn(heartbeat_actor());
  }
  // The hub knows its id now, so it serves its replicas from the first
  // command on; every other kernel hosts its replicas once registered.
  if (is_ns_) {
    host_replicas();
  } else {
    eng->spawn(shard_bootstrap_actor());
  }
  // Peers learn direct routes only when some replica lives off the hub:
  // registry traffic to it then need not detour through the hub.
  for (const auto& group : cfg_.ns_shards) {
    if (std::any_of(group.begin(), group.end(), [](u64 e) { return e != 0; })) {
      eng->spawn(hello_actor());
      break;
    }
  }
}

void XememKernel::crash() {
  // A registry host's crash is a defined failure mode (DESIGN.md §6b):
  // requests fail with no_name_server once discovery exhausts its probe
  // rounds. Only a shard replicated on several enclaves outlives a host.
  if (crashed_) return;
  crashed_ = true;
  stopped_ = true;
  // The dying OS's memory is reclaimed by the node: every frame pinned on
  // behalf of attachers is released. Attachments in surviving enclaves
  // keep their (now dangling) mappings until they detach, exactly like an
  // abrupt peer death on real hardware.
  for (auto& [h, rec] : pins_) unpin_frames(rec.frames);
  pins_.clear();
  exports_.clear();
  pending_fwd_.clear();
  fwd_log_.clear();
  // Attach fast-path caches die with the kernel: memoized walks reference
  // exports that no longer exist, learned owner routes will be retired by
  // lease expiry, and the reuse entries' owner-side pins are orphaned just
  // like any attachment whose attacher dies without detaching.
  walk_cache_.clear();
  walk_fifo_.clear();
  owner_cache_.clear();
  owner_fifo_.clear();
  attach_cache_.clear();
  // Capability state dies with the kernel: derivation trees describe
  // exports that no longer exist, and the attacher-side mapping records
  // point into an OS being reclaimed.
  cap_trees_.clear();
  cap_maps_.clear();
  revoked_caps_.clear();
  revoked_handles_.clear();
  XLOG_WARN("xemem", "%s: enclave crashed (abrupt)", os_.name().c_str());
}

sim::Task<void> XememKernel::wait_registered() { co_await registered_.wait(); }

sim::Task<Result<void>> XememKernel::shutdown() {
  XEMEM_ASSERT_MSG(!is_ns_, "the name-server enclave cannot shut down");
  for (const auto& [sid, rec] : exports_) {
    if (rec.attachments > 0) co_return Errc::busy;
  }
  // Withdraw every export from the global name space.
  std::vector<u64> sids;
  sids.reserve(exports_.size());
  for (const auto& [sid, rec] : exports_) sids.push_back(sid);
  for (u64 sid : sids) {
    Message req;
    req.cmd = Cmd::segid_remove;
    req.segid = Segid{sid};
    req.shard = shard_of_segid(req.segid, static_cast<u32>(cfg_.ns_shards.size()));
    req.shard_epoch = shard_believed_epoch(req.shard);
    auto resp = co_await request(std::move(req));
    if (!resp.ok()) co_return resp.error();
    exports_.erase(sid);
  }
  // Tell the hub to retire this enclave (one-way; the registry replicas it
  // hosts also retire any segids registered but not locally tracked).
  Message bye;
  bye.cmd = Cmd::enclave_shutdown;
  bye.dst = EnclaveId{0};
  bye.src = id();
  bye.req_id = g_req_counter++;
  ChannelEndpoint* via = route_for(bye.dst);
  if (via != nullptr) co_await via->send(std::move(bye));
  stopped_ = true;
  walk_cache_.clear();
  walk_fifo_.clear();
  owner_cache_.clear();
  owner_fifo_.clear();
  attach_cache_.clear();
  co_return Result<void>{};
}

// --------------------------------------------------------------- discovery

sim::Task<void> XememKernel::discovery() {
  // Paper section 3.2: broadcast on every channel until some neighbor
  // responds that it knows a path to the name server; then request an
  // enclave ID through that channel. Probes are single-shot (retrying a
  // probe on a dead link would only stall the sweep; the outer loop
  // already re-probes every channel with backoff). Sweeps are bounded by
  // kDiscoveryMaxRounds: a fully partitioned enclave (or one orphaned by
  // a name-server death) must not retry into the void forever — it
  // surfaces a terminal state instead.
  if (discovering_) co_return;
  discovering_ = true;
  u32 rounds = 0;
  while (!crashed_ && !stopped_) {
    while (ns_channel_ == nullptr) {
      if (crashed_ || stopped_) {
        discovering_ = false;
        co_return;
      }
      const std::vector<ChannelEndpoint*> eps = channels_;  // request() suspends
      for (auto* ep : eps) {
        Message ping;
        ping.cmd = Cmd::ping_ns;
        auto resp = co_await request(std::move(ping), ep, cfg_.ping_timeout,
                                     /*max_retries=*/0);
        if (resp.ok() && resp.value().status == Errc::ok) {
          ns_channel_ = ep;
          break;
        }
      }
      if (ns_channel_ != nullptr) break;
      if (++rounds >= kDiscoveryMaxRounds) {
        ns_lost_ = true;
        // Unblock wait_registered() waiters; the id stays invalid and
        // registration_failed() reports the terminal state.
        registered_.set();
        XLOG_WARN("xemem",
                  "%s: discovery exhausted %u probe rounds with no path to a "
                  "name server",
                  os_.name().c_str(), rounds);
        discovering_ = false;
        co_return;
      }
      co_await sim::delay(200'000 /*200us backoff*/);
    }

    // Re-discovery after a route loss keeps the already-allocated ID; only
    // first-time registration allocates one.
    if (id().valid()) break;

    Message alloc;
    alloc.cmd = Cmd::alloc_enclave_id;
    alloc.dst = EnclaveId{0};
    auto resp = co_await request(std::move(alloc), ns_channel_);
    if (resp.ok() && resp.value().status == Errc::ok) {
      os_.set_id(EnclaveId{resp.value().payload.at(0)});
      XLOG_DEBUG("xemem", "%s registered as enclave %llu", os_.name().c_str(),
                 static_cast<unsigned long long>(id().value()));
      registered_.set();
      break;
    }
    // The name server went silent (or rejected us) mid-registration:
    // forget the direction and re-probe, still bounded by the round limit.
    ns_channel_ = nullptr;
    if (++rounds >= kDiscoveryMaxRounds) {
      ns_lost_ = true;
      registered_.set();
      XLOG_WARN("xemem", "%s: registration exhausted its probe rounds",
                os_.name().c_str());
      break;
    }
  }
  discovering_ = false;
}

// Lease renewal: while the enclave lives, every registry replica hears
// from it at least every heartbeat_period() (lease_duration / 3), so a
// healthy enclave is never garbage-collected even when it is otherwise
// idle. The hub renews like every other kernel.
sim::Task<void> XememKernel::heartbeat_actor() {
  co_await registered_.wait();
  while (!stopped_ && !crashed_) {
    // Leases live on the shard replicas, so the renewal reaches every
    // replica of every shard (not just a primary — followers must not
    // garbage-collect an idle owner after an election just because the
    // renewal raced the epoch bump). One message per peer enclave per
    // tick, listing in the payload every additional shard that peer hosts
    // a replica of; a replica hosted here renews in place, with no message
    // and no service-core charge. Ordered map: deterministic send order.
    std::map<u64, std::vector<u64>> by_peer;
    for (u32 s = 0; s < cfg_.ns_shards.size(); ++s) {
      for (u64 peer : cfg_.ns_shards[s]) {
        if (peer == id().value()) {
          auto it = shard_replicas_.find(s);
          if (it != shard_replicas_.end()) {
            it->second->registry.renew(id(), sim::now() + cfg_.lease_duration);
          }
          continue;
        }
        by_peer[peer].push_back(s);
      }
    }
    for (auto& [peer, shards] : by_peer) {
      if (stopped_ || crashed_) break;
      Message shb;
      shb.cmd = Cmd::heartbeat;
      shb.dst = EnclaveId{peer};
      shb.src = id();
      shb.req_id = g_req_counter++;
      shb.shard = static_cast<u32>(shards.front());
      shb.shard_epoch = shard_believed_epoch(static_cast<u32>(shards.front()));
      shb.payload.assign(shards.begin() + 1, shards.end());
      ChannelEndpoint* out = route_for(shb.dst);
      if (out != nullptr) {
        ++stats_.heartbeats_sent;
        co_await out->send(std::move(shb));  // one-way
      }
    }
    co_await sim::delay(heartbeat_period());
  }
}

// ---------------------------------------------------------------- plumbing

sim::Task<void> XememKernel::service_loop(ChannelEndpoint* ep) {
  for (;;) {
    Message msg = co_await ep->inbox().recv();
    co_await handle(std::move(msg), ep);
  }
}

ChannelEndpoint* XememKernel::route_for(EnclaveId dst) {
  auto it = enclave_map_.find(dst.value());
  if (it != enclave_map_.end()) return it->second;
  return ns_channel_;  // default route: toward the hub
}

sim::Task<Result<Message>> XememKernel::request(Message msg) {
  co_return co_await request(std::move(msg), nullptr);
}

sim::Task<void> XememKernel::timeout_actor(XememKernel* k, u64 rid,
                                           sim::Duration t) {
  co_await sim::delay(t);
  auto it = k->pending_resp_.find(rid);
  if (it != k->pending_resp_.end()) {
    // Deliver an expiry sentinel; the real response (if it ever arrives)
    // is dropped as an orphan because the waiter has gone.
    Message expired;
    expired.req_id = rid;
    expired.status = Errc::unreachable;
    it->second->send(std::move(expired));
  }
}

sim::Task<Result<Message>> XememKernel::request(Message msg, ChannelEndpoint* via_in,
                                                sim::Duration timeout,
                                                i32 max_retries) {
  msg.req_id = g_req_counter++;
  if (msg.src == EnclaveId::invalid()) msg.src = id();
  const u64 rid = msg.req_id;
  if (timeout == 0) timeout = cfg_.request_timeout;
  const u32 retries =
      max_retries < 0 ? cfg_.max_retries : static_cast<u32>(max_retries);
  sim::Duration backoff = cfg_.backoff_base;

  // Registry traffic re-resolves its destination on every attempt: the
  // believed primary of its shard's current epoch, rotated through the
  // replica group on not_primary bounces and timeouts so a dead or deposed
  // primary cannot absorb the whole retry budget.
  const bool shard_bound = msg.shard_epoch != 0 && is_shard_client_cmd(msg.cmd);
  u32 rot = 0;

  for (u32 attempt = 0;; ++attempt) {
    if (crashed_) co_return Errc::unreachable;
    if (shard_bound) {
      const auto& group = cfg_.ns_shards[msg.shard];
      const u64 believed = shard_believed_epoch(msg.shard);
      msg.shard_epoch = believed;
      msg.dst = EnclaveId{group[(believed - 1 + rot) % group.size()]};
    }
    const bool here = shard_bound && msg.dst == id();
    ChannelEndpoint* via = nullptr;
    Message resp;
    if (here) {
      auto served = co_await serve_here(msg);
      if (!served.ok()) co_return served;
      resp = std::move(served).value();
    } else {
      via = via_in != nullptr ? via_in : route_for(msg.dst);
      if (via == nullptr) {
        // NS-bound traffic with the name service terminally lost (discovery
        // exhausted) fails with the dedicated status so callers can
        // distinguish "no name server anywhere" from a transient routing
        // failure.
        co_return (msg.dst == EnclaveId{0} && ns_lost_) ? Errc::no_name_server
                                                        : Errc::unreachable;
      }
      sim::Mailbox<Message> mb;
      pending_resp_[rid] = &mb;
      sim::Engine::current()->spawn(timeout_actor(this, rid, timeout));
      Message copy = msg;  // keep the original for retransmission
      co_await via->send(std::move(copy));
      resp = co_await mb.recv();
      pending_resp_.erase(rid);
    }
    if (here || !(resp.status == Errc::unreachable && resp.cmd == Cmd::ping_ns)) {
      // A real response (the sentinel has a default-constructed cmd).
      // Retryable shard rejections — the shard epoch moved under us, the
      // replica is inside its partition grace, or we hit a follower — are
      // retried under the same req_id with the usual backoff; everything
      // else returns.
      const bool retryable = !crashed_ && (resp.status == Errc::stale_epoch ||
                                           resp.status == Errc::retry_later ||
                                           resp.status == Errc::not_primary);
      if (!retryable || attempt >= retries) {
        if (!here) {
          // Remember the id so a late duplicate of this response is
          // counted, not warned about.
          completed_reqs_[rid] = 1;
          completed_log_.emplace_back(rid, sim::now());
          while (completed_log_.size() > kDedupCacheCap) {
            completed_reqs_.erase(completed_log_.front().first);
            completed_log_.pop_front();
            ++stats_.dedup_evictions;
          }
        }
        co_return resp;
      }
      ++stats_.retries;
      if (shard_bound) {
        // A not_primary bounce means "try the next replica"; an epoch or
        // grace rejection means "re-resolve the believed primary afresh"
        // (maybe_adopt_shard_epoch already absorbed the response's epoch).
        rot = resp.status == Errc::not_primary ? rot + 1 : 0;
      }
      co_await sim::delay(backoff);
      backoff = std::min<sim::Duration>(backoff * 2, cfg_.backoff_max);
      continue;
    }

    ++stats_.timeouts;
    if (shard_bound) ++rot;  // a silent replica: rotate before retrying
    if (attempt >= retries) {
      // The destination stayed silent through every retry: treat the
      // learned route (if any) as stale so later traffic falls back to
      // the default route and rediscovers.
      if (msg.dst != EnclaveId::invalid() && msg.dst != EnclaveId{0}) {
        enclave_map_.erase(msg.dst.value());
        // Learned-route invalidation extends to the segid->owner cache:
        // anything we believed this enclave owned must be re-resolved
        // through the name server, which will have garbage-collected the
        // segids if the owner really died (lease expiry).
        drop_owner_cache_for(msg.dst);
      }
      // If the silent link was our path toward the name server, forget it
      // and re-run discovery over the remaining channels (the enclave ID
      // is retained; only the route is re-learned).
      if (via == ns_channel_) {
        ns_channel_ = nullptr;
        for (auto it = enclave_map_.begin(); it != enclave_map_.end();) {
          it = it->second == via ? enclave_map_.erase(it) : std::next(it);
        }
        sim::Engine::current()->spawn(discovery());
      }
      co_return (msg.dst == EnclaveId{0} && ns_lost_) ? Errc::no_name_server
                                                      : Errc::unreachable;
    }
    ++stats_.retries;
    co_await sim::delay(backoff);
    backoff = std::min<sim::Duration>(backoff * 2, cfg_.backoff_max);
  }
}

sim::Task<Result<Message>> XememKernel::request_to_owner(Message msg) {
  const Segid sid = msg.segid;
  const u32 shard = shard_of_segid(sid, static_cast<u32>(cfg_.ns_shards.size()));
  // A kernel hosting the home shard's believed primary resolves the owner
  // in place, so the owner cache would save it nothing.
  const bool resolves_here = local_primary(shard) != nullptr;

  // Fast path: a previous response taught us which enclave owns this
  // segid, so address it directly — intermediate enclaves forward by
  // destination id and the request never climbs to the name server for a
  // lookup. A stale entry must never change outcomes: on transport
  // failure or a no-such-segid answer (removed/crashed owner), drop the
  // entry and fall back once to the authoritative name-server route.
  auto cached = owner_cache_.find(sid.value());
  if (!resolves_here && cached != owner_cache_.end()) {
    Message direct = msg;
    direct.dst = cached->second;
    ++stats_.lookup_cache_hits;
    auto fast = co_await request(std::move(direct));
    if (fast.ok() && fast.value().status != Errc::no_such_segid) {
      co_return fast;
    }
    drop_owner_cache(sid);
  }

  // Route to the segid's home shard (derivable from the segid itself); the
  // serving replica forwards to the owner.
  msg.shard = shard;
  msg.shard_epoch = shard_believed_epoch(shard);
  auto resp = co_await request(std::move(msg));
  if (!resolves_here && cfg_.attach_fast_path && resp.ok() &&
      resp.value().status == Errc::ok) {
    cache_owner(sid, resp.value().src);
  }
  co_return resp;
}

sim::Task<void> XememKernel::forward(Message msg, ChannelEndpoint* from) {
  // Requests remember their inbound channel so the response can retrace
  // the path even before routing tables know the requester. One-way
  // messages (release, heartbeat, enclave_shutdown) have no response to
  // retrace and must not pollute the table. Entries expire after the retry
  // window (see prune_pending_fwd) so a request whose response never
  // arrives — the owner crashed, the response was lost past every retry —
  // cannot leak its entry forever.
  if (!msg.is_response() && !msg.is_one_way()) {
    if (!pending_fwd_.contains(msg.req_id)) {
      fwd_log_.emplace_back(msg.req_id, sim::now());
    }
    pending_fwd_[msg.req_id] = from;
  }
  ++stats_.messages_forwarded;
  ChannelEndpoint* out = route_for(msg.dst);
  // Note: out == from is legitimate — e.g. the name server bouncing an
  // attach back down the same link when the owner lives in the subtree the
  // request came from. The hierarchy is a tree, so forwarding terminates.
  // A missing route is reachable, not a bug: owner-cache direct addressing
  // can target an enclave whose route the name server's lease GC already
  // reclaimed. Drop the message; the sender's retry/timeout machinery owns
  // recovery (and evicts its stale cache entry on exhaustion).
  if (out == nullptr) co_return;
  co_await os_.service_core()->run_irq(costs::kRouteHop);
  co_await out->send(std::move(msg));
}

sim::Task<void> XememKernel::handle(Message msg, ChannelEndpoint* from) {
  if (crashed_) co_return;  // a dead enclave hears nothing
  prune_pending_fwd();
  maybe_adopt_shard_epoch(msg);
  if (msg.cmd == Cmd::hello) {
    // A directly linked peer announced itself: learn the route so traffic
    // to it (shard commands, replication) skips the management-hub detour.
    if (msg.src.valid()) enclave_map_[msg.src.value()] = from;
    co_return;
  }

  // 1. Responses retracing a forwarded request.
  if (msg.is_response()) {
    auto fwd = pending_fwd_.find(msg.req_id);
    if (fwd != pending_fwd_.end()) {
      ChannelEndpoint* back = fwd->second;
      pending_fwd_.erase(fwd);
      // Learn routes from enclave-id allocations passing through us
      // (paper section 3.2's LWK D / VM F example).
      if (msg.cmd == Cmd::enclave_id_resp && msg.status == Errc::ok) {
        enclave_map_[msg.payload.at(0)] = back;
      }
      co_await os_.service_core()->run_irq(costs::kRouteHop);
      co_await back->send(std::move(msg));
      co_return;
    }
    auto wait = pending_resp_.find(msg.req_id);
    if (wait != pending_resp_.end()) {
      wait->second->send(std::move(msg));
      co_return;
    }
    if (completed_reqs_.contains(msg.req_id)) {
      // Duplicate of a response we already consumed (a retry raced its
      // original, or the channel replayed the delivery).
      ++stats_.dup_suppressed;
      co_return;
    }
    XLOG_DEBUG("xemem", "%s: dropping orphan response %s", os_.name().c_str(),
               cmd_name(msg.cmd));
    co_return;
  }

  // 2. Channel-local probes are answered immediately, never forwarded.
  if (msg.cmd == Cmd::ping_ns) {
    Message resp;
    resp.cmd = Cmd::ping_ns_resp;
    resp.req_id = msg.req_id;
    resp.src = id();
    resp.status = (is_ns_ || ns_channel_ != nullptr) ? Errc::ok : Errc::unreachable;
    co_await from->send(std::move(resp));
    co_return;
  }

  // 3. Traffic addressed to a registry replica this enclave hosts: the
  // replica-group protocol itself, or a client registry command stamped
  // with shard fields. A group of one never waits on a peer, so it is
  // served inline, in arrival order. A larger group is served detached: a
  // quorum write suspends awaiting acks that can retrace the very channel
  // it arrived on (hub-relayed replication), so an inline await would
  // head-of-line block the service loop against itself until the request
  // timeout. The replica state machine already tolerates the reordering
  // this allows — hub-relayed delivery reorders anyway.
  if (msg.dst == id() && (is_shard_service_cmd(msg.cmd) || msg.shard_epoch != 0)) {
    if (msg.shard < cfg_.ns_shards.size() && cfg_.ns_shards[msg.shard].size() == 1) {
      co_await shard_handle(std::move(msg), from);
    } else {
      sim::Engine::current()->spawn(shard_handle(std::move(msg), from));
    }
    co_return;
  }

  // 4. The hub's own duties.
  if (is_ns_ && msg.dst == id() &&
      (msg.cmd == Cmd::alloc_enclave_id || msg.cmd == Cmd::enclave_shutdown ||
       msg.cmd == Cmd::cap_revoked)) {
    co_await hub_handle(std::move(msg), from);
    co_return;
  }

  // 5. Traffic addressed to this enclave: owner-side servicing. Commands
  // are idempotent per req_id: a duplicate delivery (channel replay, or a
  // retry whose original did arrive) is answered from the response cache
  // instead of re-executing — re-serving an attach would double-pin
  // frames, and re-serving a detach would fail with not_attached.
  if (msg.dst == id()) {
    Message cached;
    if (dedup_hit(msg.req_id, &cached)) {
      ++stats_.dup_suppressed;
      if (!msg.is_one_way()) co_await route_response(std::move(cached), from);
      co_return;
    }
    if (msg.cmd == Cmd::cap_revoked) {
      co_await apply_cap_revoked(std::move(msg));
      co_return;  // one-way
    }
    auto resp = co_await serve_owned(msg);
    if (resp.has_value()) co_await route_response(std::move(*resp), from);
    co_return;
  }

  // 6. Everything else is in transit.
  co_await forward(std::move(msg), from);
}

sim::Task<void> XememKernel::route_response(Message resp, ChannelEndpoint* from) {
  // Prefer an exact learned route; otherwise retrace the path the request
  // arrived on (always valid in the tree topology); only fall back to the
  // default name-server route when neither is available.
  auto it = enclave_map_.find(resp.dst.value());
  ChannelEndpoint* out = it != enclave_map_.end() ? it->second : from;
  if (out == nullptr) out = ns_channel_;
  if (out == nullptr) co_return;  // no path back: drop
  co_await out->send(std::move(resp));
}

bool XememKernel::dedup_hit(u64 rid, Message* out) {
  prune_dedup();
  auto it = dedup_.find(rid);
  if (it == dedup_.end()) return false;
  *out = it->second.resp;
  // Touch: move to the LRU tail and refresh the idle-TTL clock, so an
  // entry still absorbing retries is the last to be evicted.
  it->second.touched = sim::now();
  dedup_lru_.splice(dedup_lru_.end(), dedup_lru_, it->second.pos);
  return true;
}

void XememKernel::dedup_store(u64 rid, const Message& resp) {
  prune_dedup();
  auto it = dedup_.find(rid);
  if (it != dedup_.end()) {
    it->second.resp = resp;
    it->second.touched = sim::now();
    dedup_lru_.splice(dedup_lru_.end(), dedup_lru_, it->second.pos);
    return;
  }
  dedup_lru_.push_back(rid);
  dedup_.emplace(rid, DedupEntry{resp, sim::now(), std::prev(dedup_lru_.end())});
  while (dedup_.size() > kDedupCacheCap) {
    dedup_.erase(dedup_lru_.front());
    dedup_lru_.pop_front();
    ++stats_.dedup_evictions;
  }
}

// Expire dedup entries idle past the retry window: a retry can no longer
// arrive for them (the window bounds the forwarding fabric the same way), so
// keeping them only delays capacity eviction of entries that still matter.
void XememKernel::prune_dedup() {
  const sim::TimePoint t = sim::now();
  while (!dedup_lru_.empty()) {
    auto it = dedup_.find(dedup_lru_.front());
    XEMEM_ASSERT(it != dedup_.end());
    if (it->second.touched + retry_window() > t) break;
    dedup_.erase(it);
    dedup_lru_.pop_front();
    ++stats_.dedup_evictions;
  }
  // The completed-request id log ages out on the same clock.
  while (!completed_log_.empty() &&
         completed_log_.front().second + retry_window() <= t) {
    if (completed_reqs_.erase(completed_log_.front().first) != 0) {
      ++stats_.dedup_evictions;
    }
    completed_log_.pop_front();
  }
}

void XememKernel::prune_pending_fwd() {
  const sim::TimePoint t = sim::now();
  while (!fwd_log_.empty() && fwd_log_.front().second + retry_window() <= t) {
    if (pending_fwd_.erase(fwd_log_.front().first) != 0) ++stats_.fwd_expired;
    fwd_log_.pop_front();
  }
  prune_dedup();
}

// --------------------------------------------------------------------- hub

bool XememKernel::ns_crashpoint() {
  ++stats_.ns_requests;
  // Die on the N-th name-service command, consuming it before any
  // processing: the sweep never observes a half-applied registry mutation.
  if (crash_after_ns_requests_ != 0 &&
      stats_.ns_requests >= crash_after_ns_requests_) {
    crash();
    return true;
  }
  return false;
}

sim::Task<void> XememKernel::hub_handle(Message msg, ChannelEndpoint* from) {
  if (ns_crashpoint()) co_return;
  co_await os_.service_core()->run_irq(costs::kNameServerOp);

  // A retried alloc_enclave_id must not burn a second id.
  Message cached;
  if (dedup_hit(msg.req_id, &cached)) {
    ++stats_.dup_suppressed;
    if (!msg.is_one_way()) co_await from->send(std::move(cached));
    co_return;
  }

  if (msg.cmd == Cmd::enclave_shutdown) {
    // Retire the departing enclave (one-way): its route here, and its
    // lease and any leftover segids at every shard the hub leads, inline
    // for a group of one and detached for a larger group, as in handle().
    enclave_map_.erase(msg.src.value());
    for (auto& [s, rep] : shard_replicas_) {
      if (!rep->primary) continue;
      if (cfg_.ns_shards[s].size() == 1) {
        co_await shard_retire(rep.get(), msg.src);
      } else {
        sim::Engine::current()->spawn(shard_retire(rep.get(), msg.src));
      }
    }
    co_return;
  }
  if (msg.cmd == Cmd::cap_revoked) {
    // The hub held attachments under a revoked subtree: the owner's
    // fan-out addresses it as dst 0. Apply the teardown here.
    co_await apply_cap_revoked(std::move(msg));
    co_return;
  }

  const u64 fresh = next_enclave_id_++;
  enclave_map_[fresh] = from;
  Message resp;
  resp.cmd = Cmd::enclave_id_resp;
  resp.req_id = msg.req_id;
  resp.src = id();
  resp.dst = EnclaveId{fresh};
  resp.status = Errc::ok;
  resp.payload.push_back(fresh);
  dedup_store(msg.req_id, resp);
  co_await from->send(std::move(resp));
}

sim::Task<void> XememKernel::route_to_owner(const Registry& reg, Message msg,
                                            Message resp, ChannelEndpoint* from) {
  const Registry::Record* rec = reg.find(msg.segid);
  if (rec == nullptr) {
    if (msg.cmd == Cmd::release) co_return;  // one-way: drop
    resp.status = Errc::no_such_segid;
    dedup_store(msg.req_id, resp);
    co_await from->send(std::move(resp));
    co_return;
  }
  if (rec->owner == id()) {
    // The registry host's own enclave owns the segid: serve it here.
    auto out = co_await serve_owned(msg);
    if (out.has_value()) co_await from->send(std::move(*out));
    co_return;
  }
  msg.dst = rec->owner;
  msg.shard = 0;
  msg.shard_epoch = 0;  // leaves the shard fabric: plain owner traffic
  co_await forward(std::move(msg), from);
}

// ----------------------------------------------------- owner-side servicing

sim::Task<std::optional<Message>> XememKernel::serve_owned(const Message& msg) {
  if (cap_crashpoint(msg)) co_return std::nullopt;
  Message resp;
  switch (msg.cmd) {
    case Cmd::get: resp = co_await serve_get(msg); break;
    case Cmd::attach: resp = co_await serve_attach(msg); break;
    case Cmd::detach: resp = co_await serve_detach(msg); break;
    case Cmd::cap_derive: resp = co_await serve_cap_derive(msg); break;
    case Cmd::cap_revoke: resp = co_await serve_cap_revoke(msg); break;
    case Cmd::release: {
      dedup_store(msg.req_id, Message{});  // one-way: marker suppresses replays
      auto it = exports_.find(msg.segid.value());
      if (it != exports_.end() && it->second.grants > 0) --it->second.grants;
      co_return std::nullopt;
    }
    default:
      XLOG_WARN("xemem", "%s: unexpected command %s", os_.name().c_str(),
                cmd_name(msg.cmd));
      co_return std::nullopt;
  }
  dedup_store(msg.req_id, resp);
  co_return resp;
}

sim::Task<Message> XememKernel::serve_get(const Message& msg) {
  Message resp;
  resp.cmd = Cmd::get_resp;
  resp.req_id = msg.req_id;
  resp.src = id();
  resp.dst = msg.src;
  auto it = exports_.find(msg.segid.value());
  if (it == exports_.end() || it->second.removing) {
    resp.status = Errc::no_such_segid;
    co_return resp;
  }
  const auto want = static_cast<AccessMode>(msg.access);
  CapNode* node = nullptr;
  if (cfg_.capabilities) {
    // Server-side capability validation: the presented cap id (0 resolves
    // to the root unless the export demands explicit caps) must be live,
    // usable by this presenter, and at least as strong as the wanted mode.
    const Errc ce =
        cap_check(msg.segid.value(), msg.cap, msg.src, want, 0, 0, false, &node);
    if (ce != Errc::ok) {
      resp.status = ce;
      co_return resp;
    }
  }
  if (want == AccessMode::read_write &&
      it->second.max_access == AccessMode::read_only) {
    resp.status = Errc::permission_denied;
    co_return resp;
  }
  ++it->second.grants;
  resp.status = Errc::ok;
  resp.segid = msg.segid;
  resp.size = it->second.pages * kPageSize;
  resp.access = msg.access;
  if (node != nullptr) resp.cap = node->id;
  co_return resp;
}

sim::Task<Message> XememKernel::serve_attach(const Message& msg) {
  Message resp;
  resp.cmd = Cmd::attach_resp;
  resp.req_id = msg.req_id;
  resp.src = id();
  resp.dst = msg.src;

  auto it = exports_.find(msg.segid.value());
  if (it == exports_.end() || it->second.removing) {
    resp.status = Errc::no_such_segid;
    co_return resp;
  }
  ExportRecord& rec = it->second;
  const u64 pages = pages_for(msg.size);
  if ((msg.offset & kPageMask) != 0 ||
      (msg.offset >> kPageShift) + pages > rec.pages || pages == 0) {
    resp.status = Errc::invalid_argument;
    co_return resp;
  }

  // Rights check BEFORE any cache can answer: a memoized walk or warm
  // route must never let a weaker capability holder bypass the window,
  // access-mode, or attach-limit validation (the fast path is a cache of
  // frames, not of authorization).
  CapNode* node = nullptr;
  if (cfg_.capabilities) {
    const Errc ce =
        cap_check(msg.segid.value(), msg.cap, msg.src,
                  static_cast<AccessMode>(msg.access), msg.offset, msg.size,
                  true, &node);
    if (ce != Errc::ok) {
      resp.status = ce;
      co_return resp;
    }
  }

  // Reserve the attachment before the page-table walk suspends: a
  // concurrent remove must see the count and return busy rather than
  // erase the export out from under the walk.
  ++rec.attachments;

  mm::PfnList frames;
  const auto walk_key = std::make_tuple(msg.segid.value(), msg.offset, pages);
  auto memo = walk_cache_.find(walk_key);
  if (memo != walk_cache_.end()) {
    // Repeat window: reuse the memoized page-table walk. Frames are still
    // pinned per attachment below (each pin record unpins independently on
    // detach), but the walk cost — and for guest enclaves the PCI staging
    // of the frame list — is paid once per window, not once per attacher.
    frames = memo->second;
    ++stats_.walk_cache_hits;
  } else {
    auto walked = co_await os_.service_make_pfn_list(*rec.proc,
                                                     rec.va + msg.offset, pages);
    if (!walked.ok()) {
      --rec.attachments;
      resp.status = walked.error();
      co_return resp;
    }
    frames = std::move(walked).value();
    if (cfg_.attach_fast_path) {
      walk_cache_.emplace(walk_key, frames);
      walk_fifo_.push_back(walk_key);
      while (walk_fifo_.size() > kWalkCacheCap) {
        walk_cache_.erase(walk_fifo_.front());
        walk_fifo_.pop_front();
      }
    }
  }
  pin_frames(frames);
  ++stats_.attaches_served;
  stats_.pages_shared += frames.page_count();
  const u64 handle = next_handle_++;
  resp.status = Errc::ok;
  resp.segid = msg.segid;
  resp.offset = handle;  // owner-side pin handle, echoed back on detach
  resp.size = msg.size;
  ship_frames(resp, frames);
  u64 capid = 0;
  if (node != nullptr) {
    // Charge the attach to its capability so cap_revoke can find and tear
    // down exactly the attachments minted under the revoked subtree.
    capid = node->id;
    ++node->live_attaches;
    ++cap_acct(msg.segid.value()).live_attaches;
    resp.cap = capid;
  }
  pins_.emplace(handle, PinRecord{msg.segid, std::move(frames), capid, msg.src});
  co_return resp;
}

sim::Task<Message> XememKernel::serve_detach(const Message& msg) {
  Message resp;
  resp.cmd = Cmd::detach_resp;
  resp.req_id = msg.req_id;
  resp.src = id();
  resp.dst = msg.src;

  auto pin = pins_.find(msg.offset);  // offset carries the owner handle
  if (pin == pins_.end() || pin->second.segid != msg.segid) {
    // A detach of a handle that revocation already swept answers with the
    // terminal status, not not_attached: the attacher learns its mapping
    // died under it and tears down cleanly.
    resp.status = cfg_.capabilities && handle_revoked(msg.segid.value(), msg.offset)
                      ? Errc::revoked
                      : Errc::not_attached;
    co_return resp;
  }
  if (cfg_.capabilities && pin->second.cap != 0) {
    auto t = cap_trees_.find(msg.segid.value());
    if (t != cap_trees_.end()) {
      auto n = t->second.nodes.find(pin->second.cap);
      if (n != t->second.nodes.end() && n->second.live_attaches > 0) {
        --n->second.live_attaches;
      }
    }
    if (auto* a = cap_accounting_.find(msg.segid.value());
        a != nullptr && a->live_attaches > 0) {
      --a->live_attaches;
    }
  }
  unpin_frames(pin->second.frames);
  pins_.erase(pin);
  auto ex = exports_.find(msg.segid.value());
  if (ex != exports_.end()) {
    XEMEM_ASSERT(ex->second.attachments > 0);
    --ex->second.attachments;
  }
  resp.status = Errc::ok;
  co_return resp;
}

u64 XememKernel::reap_attacher_pins(EnclaveId attacher) {
  u64 released = 0;
  for (auto it = pins_.begin(); it != pins_.end();) {
    PinRecord& pin = it->second;
    if (pin.attacher.value() != attacher.value()) {
      ++it;
      continue;
    }
    unpin_frames(pin.frames);
    auto ex = exports_.find(pin.segid.value());
    if (ex != exports_.end() && ex->second.attachments > 0) {
      --ex->second.attachments;
    }
    if (cfg_.capabilities && pin.cap != 0) {
      auto t = cap_trees_.find(pin.segid.value());
      if (t != cap_trees_.end()) {
        auto n = t->second.nodes.find(pin.cap);
        if (n != t->second.nodes.end() && n->second.live_attaches > 0) {
          --n->second.live_attaches;
        }
      }
      if (auto* a = cap_accounting_.find(pin.segid.value());
          a != nullptr && a->live_attaches > 0) {
        --a->live_attaches;
      }
    }
    ++released;
    it = pins_.erase(it);
  }
  return released;
}

// --------------------------------------------- capability model (§9)

namespace {

// cap_derive rights wire codec: 6 u64s in the request payload, 5 echoed in
// the response (the holder binding is server state, not a right).
void encode_cap_rights(const CapRights& r, u64 holder, std::vector<u64>* out) {
  out->push_back(static_cast<u64>(r.access));
  out->push_back(r.attach_limit);
  out->push_back(r.window_off);
  out->push_back(r.window_size);
  out->push_back((r.transferable ? 1u : 0u) | (r.derivable ? 2u : 0u));
  out->push_back(holder);
}

CapRights decode_cap_rights(const std::vector<u64>& p) {
  CapRights r;
  if (p.size() < 5) return r;
  r.access = static_cast<AccessMode>(p[0]);
  r.attach_limit = p[1];
  r.window_off = p[2];
  r.window_size = p[3];
  r.transferable = (p[4] & 1u) != 0;
  r.derivable = (p[4] & 2u) != 0;
  return r;
}

}  // namespace

u64 XememKernel::mint_cap_id(CapTree& tree) {
  // splitmix64 over a per-kernel counter salted with the enclave id:
  // deterministic per seed (the crashpoint-sweep tests depend on it), yet
  // sparse in 64 bits — unforgeable by convention, like real XPMEM segids.
  for (;;) {
    u64 z = (next_cap_seq_++ + (id().value() << 32)) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    if (z != 0 && !tree.nodes.contains(z)) return z;
  }
}

XememKernel::SegAccounting& XememKernel::cap_acct(u64 segid) {
  return cap_accounting_.touch(segid);
}

void XememKernel::tombstone_cap(u64 cap_id) {
  if (cap_id != 0) revoked_caps_.touch(cap_id) = 1;
}

void XememKernel::tombstone_handle(u64 segid, u64 handle) {
  revoked_handles_.touch({segid, handle}) = 1;
}

bool XememKernel::cap_crashpoint(const Message& msg) {
  if (crash_after_cap_requests_ == 0 || !cfg_.capabilities) return false;
  // Only capability-relevant owner-side commands advance the countdown:
  // derive/revoke always, get/attach only when they present a capability.
  const bool relevant =
      is_cap_cmd(msg.cmd) ||
      ((msg.cmd == Cmd::get || msg.cmd == Cmd::attach) && msg.cap != 0);
  if (!relevant) return false;
  if (++cap_requests_seen_ >= crash_after_cap_requests_) {
    crash();
    return true;
  }
  return false;
}

Errc XememKernel::cap_check(u64 segid, u64 cap_id, EnclaveId presenter,
                            AccessMode want, u64 offset, u64 size,
                            bool attaching, CapNode** out) {
  if (out != nullptr) *out = nullptr;
  if (!cfg_.capabilities) return Errc::ok;
  auto deny = [&](Errc e) {
    ++stats_.cap_denials;
    ++cap_acct(segid).denials;
    return e;
  };
  auto tree_it = cap_trees_.find(segid);
  if (tree_it == cap_trees_.end()) return Errc::ok;  // pre-capability export
  CapTree& tree = tree_it->second;
  u64 resolved = cap_id;
  if (resolved == 0) {
    // Capless (classic permit) access rides the root capability, so legacy
    // tenants keep working — and revoking the root cuts them off too.
    if (tree.require_cap) return deny(Errc::permission_denied);
    resolved = tree.root;
  }
  auto node_it = tree.nodes.find(resolved);
  if (node_it == tree.nodes.end()) return deny(Errc::permission_denied);
  CapNode& node = node_it->second;
  if (node.revoked) return deny(Errc::revoked);
  if (!node.rights.transferable && node.holder != 0 &&
      presenter.value() != node.holder) {
    return deny(Errc::permission_denied);
  }
  if (want == AccessMode::read_write &&
      node.rights.access == AccessMode::read_only) {
    return deny(Errc::permission_denied);
  }
  if (attaching) {
    const auto ex = exports_.find(segid);
    const u64 seg_bytes =
        ex != exports_.end() ? ex->second.pages * kPageSize : 0;
    const u64 wend = node.rights.window_size != 0
                         ? node.rights.window_off + node.rights.window_size
                         : seg_bytes;
    if (offset < node.rights.window_off || offset + size > wend) {
      return deny(Errc::permission_denied);
    }
    if (node.rights.attach_limit != 0 &&
        node.live_attaches >= node.rights.attach_limit) {
      return deny(Errc::permission_denied);
    }
  }
  if (out != nullptr) *out = &node;
  return Errc::ok;
}

Result<Capability> XememKernel::cap_derive_local(u64 segid, u64 parent_id,
                                                 EnclaveId presenter,
                                                 CapRights rights, u64 holder) {
  auto deny = [&](Errc e) {
    ++stats_.cap_denials;
    ++cap_acct(segid).denials;
    return Result<Capability>{e};
  };
  auto tree_it = cap_trees_.find(segid);
  if (tree_it == cap_trees_.end()) return Errc::no_such_segid;
  CapTree& tree = tree_it->second;
  const u64 pid = parent_id != 0 ? parent_id : tree.root;
  auto pit = tree.nodes.find(pid);
  if (pit == tree.nodes.end()) return deny(Errc::permission_denied);
  CapNode& parent = pit->second;  // unordered_map references survive insert
  if (parent.revoked) return deny(Errc::revoked);
  if (!parent.rights.derivable) return deny(Errc::permission_denied);
  if (!parent.rights.transferable && parent.holder != 0 &&
      presenter.value() != parent.holder) {
    return deny(Errc::permission_denied);
  }

  // The rights lattice only narrows on derivation; any widening attempt is
  // an escalation and is denied (and accounted).
  if (parent.rights.access == AccessMode::read_only &&
      rights.access == AccessMode::read_write) {
    return deny(Errc::permission_denied);
  }
  const auto ex = exports_.find(segid);
  const u64 seg_bytes = ex != exports_.end() ? ex->second.pages * kPageSize : 0;
  const u64 parent_end = parent.rights.window_size != 0
                             ? parent.rights.window_off + parent.rights.window_size
                             : seg_bytes;
  const u64 child_end = rights.window_size != 0
                            ? rights.window_off + rights.window_size
                            : seg_bytes;
  if (rights.window_off < parent.rights.window_off || child_end > parent_end ||
      rights.window_off > child_end) {
    return deny(Errc::permission_denied);
  }
  if (parent.rights.attach_limit != 0 &&
      (rights.attach_limit == 0 ||
       rights.attach_limit > parent.rights.attach_limit)) {
    return deny(Errc::permission_denied);
  }
  if (!parent.rights.transferable && rights.transferable) {
    return deny(Errc::permission_denied);
  }

  if (tree.nodes.size() >= kCapTableCap) return Errc::out_of_memory;
  const u64 cid = mint_cap_id(tree);
  // A non-transferable child with no explicit holder binds to whoever
  // derived it.
  if (!rights.transferable && holder == 0) holder = presenter.value();
  CapNode child;
  child.id = cid;
  child.parent = pid;
  child.rights = rights;
  child.holder = holder;
  tree.nodes.emplace(cid, std::move(child));
  parent.children.push_back(cid);
  ++stats_.caps_derived;
  ++cap_acct(segid).derived_caps;
  return Capability{Segid{segid}, cid, rights};
}

Result<Capability> XememKernel::cap_root(Segid segid) const {
  if (!cfg_.capabilities) return Errc::invalid_argument;
  auto it = cap_trees_.find(segid.value());
  if (it == cap_trees_.end()) return Errc::no_such_segid;
  const CapNode& root = it->second.nodes.at(it->second.root);
  if (root.revoked) return Errc::revoked;
  return Capability{segid, root.id, root.rights};
}

Result<void> XememKernel::cap_require(os::Process& owner, Segid segid) {
  if (!cfg_.capabilities) return Errc::invalid_argument;
  auto ex = exports_.find(segid.value());
  if (ex == exports_.end()) return Errc::no_such_segid;
  if (ex->second.proc != &owner) return Errc::permission_denied;
  auto it = cap_trees_.find(segid.value());
  if (it == cap_trees_.end()) return Errc::no_such_segid;
  it->second.require_cap = true;
  return Result<void>{};
}

XememKernel::SegAccounting XememKernel::cap_accounting(Segid segid) const {
  const auto* a = cap_accounting_.find(segid.value());
  return a != nullptr ? *a : SegAccounting{};
}

u64 XememKernel::cap_count(Segid segid) const {
  auto it = cap_trees_.find(segid.value());
  if (it == cap_trees_.end()) return 0;
  u64 n = 0;
  for (const auto& [cid, node] : it->second.nodes) {
    if (!node.revoked) ++n;
  }
  return n;
}

sim::Task<Result<Capability>> XememKernel::cap_derive(const Capability& parent,
                                                      CapRights rights,
                                                      u64 holder) {
  if (!cfg_.capabilities || !parent.valid()) co_return Errc::invalid_argument;
  if (revoked_caps_.contains(parent.id)) co_return Errc::revoked;
  if (exports_.contains(parent.segid.value())) {
    co_return cap_derive_local(parent.segid.value(), parent.id, id(), rights,
                               holder);
  }
  Message req;
  req.cmd = Cmd::cap_derive;
  req.segid = parent.segid;
  req.cap = parent.id;
  encode_cap_rights(rights, holder, &req.payload);
  auto resp = co_await request_to_owner(std::move(req));
  if (!resp.ok()) co_return resp.error();
  Message& r = resp.value();
  if (r.status == Errc::revoked) tombstone_cap(parent.id);
  if (r.status != Errc::ok) co_return r.status;
  co_return Capability{parent.segid, r.cap, decode_cap_rights(r.payload)};
}

sim::Task<Result<void>> XememKernel::cap_revoke(const Capability& cap) {
  if (!cfg_.capabilities || !cap.valid()) co_return Errc::invalid_argument;
  if (exports_.contains(cap.segid.value())) {
    // Owner-local revoke: run the same server core directly (it unmaps
    // local attachments inline and fans out to remote attachers).
    Message fake;
    fake.segid = cap.segid;
    fake.cap = cap.id;
    fake.src = id();
    Message resp = co_await serve_cap_revoke(fake);
    tombstone_cap(cap.id);
    co_return resp.status == Errc::ok ? Result<void>{}
                                      : Result<void>{resp.status};
  }
  if (revoked_caps_.contains(cap.id)) co_return Result<void>{};  // idempotent
  Message req;
  req.cmd = Cmd::cap_revoke;
  req.segid = cap.segid;
  req.cap = cap.id;
  auto resp = co_await request_to_owner(std::move(req));
  if (!resp.ok()) co_return resp.error();
  if (resp.value().status == Errc::ok) tombstone_cap(cap.id);
  co_return resp.value().status == Errc::ok
      ? Result<void>{}
      : Result<void>{resp.value().status};
}

sim::Task<Message> XememKernel::serve_cap_derive(const Message& msg) {
  Message resp;
  resp.cmd = Cmd::cap_derive_resp;
  resp.req_id = msg.req_id;
  resp.src = id();
  resp.dst = msg.src;
  if (!cfg_.capabilities || msg.payload.size() < 6) {
    resp.status = Errc::invalid_argument;
    co_return resp;
  }
  co_await os_.service_core()->run_irq(costs::kNameServerOp);
  const CapRights rights = decode_cap_rights(msg.payload);
  const u64 holder = msg.payload[5];
  auto derived = cap_derive_local(msg.segid.value(), msg.cap, msg.src, rights,
                                  holder);
  if (!derived.ok()) {
    resp.status = derived.error();
    co_return resp;
  }
  resp.status = Errc::ok;
  resp.segid = msg.segid;
  resp.cap = derived.value().id;
  encode_cap_rights(derived.value().rights, 0, &resp.payload);
  resp.payload.pop_back();  // holder binding is server state, not a right
  co_return resp;
}

sim::Task<Message> XememKernel::serve_cap_revoke(const Message& msg) {
  Message resp;
  resp.cmd = Cmd::cap_revoke_resp;
  resp.req_id = msg.req_id;
  resp.src = id();
  resp.dst = msg.src;
  if (!cfg_.capabilities) {
    resp.status = Errc::invalid_argument;
    co_return resp;
  }
  auto tree_it = cap_trees_.find(msg.segid.value());
  if (tree_it == cap_trees_.end()) {
    resp.status = Errc::no_such_segid;
    co_return resp;
  }
  CapTree& tree = tree_it->second;
  auto node_it = tree.nodes.find(msg.cap);
  if (node_it == tree.nodes.end()) {
    resp.status = Errc::invalid_argument;
    co_return resp;
  }
  if (node_it->second.revoked) {
    resp.status = Errc::ok;  // idempotent: a retried revoke re-succeeds
    co_return resp;
  }

  // Walk the derivation subtree, marking every node revoked. Possession of
  // the cap id is the revoke authority (capability model: whoever can name
  // it can kill it) — typically the owner or the holder itself.
  std::vector<u64> stack{msg.cap};
  std::unordered_map<u64, u8> subtree;
  while (!stack.empty()) {
    const u64 cid = stack.back();
    stack.pop_back();
    auto it = tree.nodes.find(cid);
    if (it == tree.nodes.end() || it->second.revoked) continue;
    it->second.revoked = true;
    subtree.emplace(cid, 1);
    for (u64 ch : it->second.children) stack.push_back(ch);
  }
  ++stats_.revocations;
  ++cap_acct(msg.segid.value()).revocations;

  // Sweep every live attachment minted under the subtree: release the
  // owner pin, tombstone the handle, and group the teardown work per
  // attacher enclave for the one-way fan-out.
  std::map<u64, std::vector<u64>> by_attacher;  // enclave -> handles
  u64 unmaps = 0;
  for (auto it = pins_.begin(); it != pins_.end();) {
    PinRecord& pin = it->second;
    if (pin.segid != msg.segid || pin.cap == 0 || !subtree.contains(pin.cap)) {
      ++it;
      continue;
    }
    unpin_frames(pin.frames);
    tombstone_handle(msg.segid.value(), it->first);
    by_attacher[pin.attacher.value()].push_back(it->first);
    auto ex = exports_.find(msg.segid.value());
    if (ex != exports_.end() && ex->second.attachments > 0) {
      --ex->second.attachments;
    }
    if (auto* a = cap_accounting_.find(msg.segid.value());
        a != nullptr && a->live_attaches > 0) {
      --a->live_attaches;
    }
    ++stats_.revoke_unmaps;
    ++unmaps;
    it = pins_.erase(it);
  }
  // Reuse the PR-3 invalidation plumbing: memoized walks for the segment
  // are flushed (conservative — survivors re-walk), and our own route
  // entry for it drops.
  drop_walk_cache(msg.segid);
  drop_owner_cache(msg.segid);

  // Fan the revocation out. Remote attachers get a one-way cap_revoked
  // carrying the dead cap ids and their handles; best-effort delivery —
  // server-side validation is the backstop for anyone who missed it.
  const std::vector<u64> dead_caps = [&] {
    std::vector<u64> v;
    v.reserve(subtree.size());
    for (const auto& [cid, one] : subtree) v.push_back(cid);
    std::sort(v.begin(), v.end());  // deterministic wire order
    return v;
  }();
  for (auto& [enclave, handles] : by_attacher) {
    if (enclave == id().value()) {
      // Our own enclave held attachments (owner self-attach): tear the
      // local mappings down inline.
      for (u64 cid : dead_caps) tombstone_cap(cid);
      for (u64 h : handles) co_await unmap_revoked_handle(msg.segid.value(), h);
      continue;
    }
    Message note;
    note.cmd = Cmd::cap_revoked;
    note.src = id();
    note.dst = EnclaveId{enclave};
    note.req_id = g_req_counter++;
    note.segid = msg.segid;
    note.cap = msg.cap;
    note.size = dead_caps.size();  // payload = [caps...] ++ [handles...]
    note.payload = dead_caps;
    note.payload.insert(note.payload.end(), handles.begin(), handles.end());
    ChannelEndpoint* via = route_for(note.dst);
    if (via == nullptr) continue;  // unreachable: their next access learns
    co_await via->send(std::move(note));
  }

  resp.status = Errc::ok;
  resp.size = unmaps;
  co_return resp;
}

sim::Task<void> XememKernel::apply_cap_revoked(Message msg) {
  if (!cfg_.capabilities) co_return;
  const u64 segid = msg.segid.value();
  const u64 ncaps = std::min<u64>(msg.size, msg.payload.size());
  for (u64 i = 0; i < ncaps; ++i) tombstone_cap(msg.payload[i]);
  for (u64 i = ncaps; i < msg.payload.size(); ++i) {
    const u64 handle = msg.payload[i];
    tombstone_handle(segid, handle);
    // Mapping-reuse drop: the shared owner pin is gone; nothing may be
    // served from these frames again.
    attach_cache_.erase({segid, handle});
    co_await unmap_revoked_handle(segid, handle);
  }
  // Route-cache evict, same as every other invalidation path.
  drop_owner_cache(msg.segid);
}

sim::Task<void> XememKernel::unmap_revoked_handle(u64 segid, u64 handle) {
  auto it = cap_maps_.find({segid, handle});
  if (it == cap_maps_.end()) co_return;
  std::vector<CapMapRec> recs = std::move(it->second);
  cap_maps_.erase(it);
  for (auto& rec : recs) {
    // Already-unmapped is fine (the application detached concurrently);
    // any later load/store through the cleared PTEs surfaces as a graceful
    // error from proc_read/proc_write, never a wild pointer.
    auto r = co_await os_.unmap_attachment(*rec.proc, rec.map_base, rec.pages);
    (void)r;
  }
}

void XememKernel::pin_frames(const mm::PfnList& frames) {
  auto& pm = os_.machine().pmem();
  for (const auto& run : frames.runs()) pm.ref_run(run);
}

void XememKernel::unpin_frames(const mm::PfnList& frames) {
  auto& pm = os_.machine().pmem();
  for (const auto& run : frames.runs()) pm.unref_run(run);
}

void XememKernel::ship_frames(Message& resp, const mm::PfnList& frames) {
  resp.frames = frames;
  if (!cfg_.attach_fast_path) return;
  const u64 flat_bytes = frames.wire_bytes();
  const u64 ext_bytes = frames.extent_wire_bytes();
  // Charge the smaller encoding: a fully scattered list costs 12 B/run vs
  // 8 B/page flat, so the extent encoding is not unconditionally a win.
  if (ext_bytes < flat_bytes) {
    resp.frames_flat = false;
    stats_.extents_shipped += frames.run_count();
    stats_.wire_bytes_saved += flat_bytes - ext_bytes;
  }
}

void XememKernel::cache_owner(Segid segid, EnclaveId owner) {
  if (!cfg_.attach_fast_path || !owner.valid() || owner == EnclaveId{0} ||
      owner == id()) {
    return;
  }
  if (!owner_cache_.contains(segid.value())) owner_fifo_.push_back(segid.value());
  owner_cache_[segid.value()] = owner;
  while (owner_fifo_.size() > kOwnerCacheCap) {
    owner_cache_.erase(owner_fifo_.front());
    owner_fifo_.pop_front();
  }
}

void XememKernel::drop_owner_cache(Segid segid) {
  // The FIFO entry stays behind; evicting an already-dropped key later is
  // a harmless no-op and the deque is bounded by kOwnerCacheCap anyway.
  owner_cache_.erase(segid.value());
}

void XememKernel::drop_owner_cache_for(EnclaveId dead) {
  for (auto it = owner_cache_.begin(); it != owner_cache_.end();) {
    it = it->second == dead ? owner_cache_.erase(it) : std::next(it);
  }
}

void XememKernel::drop_walk_cache(Segid segid) {
  for (auto it = walk_cache_.begin(); it != walk_cache_.end();) {
    it = std::get<0>(it->first) == segid.value() ? walk_cache_.erase(it)
                                                 : std::next(it);
  }
}

u64 XememKernel::pinned_frames() const {
  u64 n = 0;
  for (const auto& [h, rec] : pins_) n += rec.frames.page_count();
  return n;
}

// ---------------------------------------------------------------- user API

sim::Task<Result<Segid>> XememKernel::xpmem_make(os::Process& owner, Vaddr va,
                                                 u64 size, std::string name,
                                                 AccessMode max_access) {
  if ((va.value() & kPageMask) != 0 || size == 0) co_return Errc::invalid_argument;
  const u64 pages = pages_for(size);

  Message req;
  req.cmd = Cmd::segid_alloc;
  req.size = size;
  req.name = name;
  // Named exports hash to their home shard (search must agree); anonymous
  // ones round-robin so registration load spreads.
  const auto S = static_cast<u32>(cfg_.ns_shards.size());
  req.shard = name.empty() ? static_cast<u32>(shard_rr_++ % S) : shard_of_name(name, S);
  req.shard_epoch = shard_believed_epoch(req.shard);
  auto resp = co_await request(std::move(req));
  if (!resp.ok()) co_return resp.error();
  if (resp.value().status != Errc::ok) co_return resp.value().status;
  const Segid sid = resp.value().segid;
  exports_.emplace(sid.value(),
                   ExportRecord{&owner, va, pages, std::move(name), max_access});
  ++stats_.makes;
  if (cfg_.capabilities) {
    // Mint the owner capability: the widest rights the export allows (full
    // window, unlimited attaches, transferable, derivable). Everything a
    // peer gets is derived — and therefore revocable — from this root.
    CapTree tree;
    CapNode root;
    root.id = mint_cap_id(tree);
    root.rights = CapRights{max_access, 0, 0, 0, true, true};
    tree.root = root.id;
    tree.nodes.emplace(root.id, std::move(root));
    cap_trees_[sid.value()] = std::move(tree);
    ++stats_.caps_minted;
    cap_acct(sid.value());  // reserve the accounting slot
  }
  co_return sid;
}

sim::Task<Result<void>> XememKernel::xpmem_remove(os::Process& owner, Segid segid) {
  auto it = exports_.find(segid.value());
  if (it == exports_.end()) co_return Errc::no_such_segid;
  if (it->second.proc != &owner) co_return Errc::permission_denied;
  if (it->second.attachments > 0) co_return Errc::busy;
  // Tombstone before the deregistration round-trip: an attach or get that
  // arrives while we await below must not slip past the busy check above
  // (it would pin frames on an export about to be erased).
  it->second.removing = true;

  Message req;
  req.cmd = Cmd::segid_remove;
  req.segid = segid;
  req.shard = shard_of_segid(segid, static_cast<u32>(cfg_.ns_shards.size()));
  req.shard_epoch = shard_believed_epoch(req.shard);
  auto resp = co_await request(std::move(req));
  if (!resp.ok()) {
    it->second.removing = false;
    co_return resp.error();
  }
  if (resp.value().status != Errc::ok) {
    it->second.removing = false;
    co_return resp.value().status;
  }
  exports_.erase(it);
  // The export is gone: memoized walks for it must never serve again (a
  // later attach must fail no_such_segid, not hand out freed frames).
  drop_walk_cache(segid);
  drop_owner_cache(segid);
  cap_trees_.erase(segid.value());  // no attachments existed; tree retires
  co_return Result<void>{};
}

sim::Task<Result<XpmemGrant>> XememKernel::xpmem_get(Segid segid, AccessMode want) {
  if (!segid.valid()) co_return Errc::invalid_argument;
  // Local fast path.
  auto it = exports_.find(segid.value());
  if (it != exports_.end() && it->second.removing) co_return Errc::no_such_segid;
  if (it != exports_.end()) {
    if (want == AccessMode::read_write &&
        it->second.max_access == AccessMode::read_only) {
      co_return Errc::permission_denied;
    }
    u64 capid = 0;
    if (cfg_.capabilities) {
      // A capless local get rides the export's root capability (so classic
      // tenants keep working); a revoked root denies even the owner path.
      CapNode* node = nullptr;
      const Errc ce =
          cap_check(segid.value(), 0, id(), want, 0, 0, false, &node);
      if (ce != Errc::ok) co_return ce;
      capid = node->id;
    }
    ++it->second.grants;
    co_return XpmemGrant{segid, it->second.pages * kPageSize, want, capid};
  }
  Message req;
  req.cmd = Cmd::get;
  req.segid = segid;
  req.access = static_cast<u8>(want);
  auto resp = co_await request_to_owner(std::move(req));
  if (!resp.ok()) co_return resp.error();
  if (resp.value().status != Errc::ok) co_return resp.value().status;
  // Under capabilities the owner resolved the capability this grant rides
  // (the root, for a capless request) and echoed its id.
  co_return XpmemGrant{segid, resp.value().size,
                       static_cast<AccessMode>(resp.value().access),
                       resp.value().cap};
}

sim::Task<Result<XpmemGrant>> XememKernel::xpmem_get(const Capability& cap,
                                                     AccessMode want) {
  if (!cfg_.capabilities || !cap.valid()) co_return Errc::invalid_argument;
  if (revoked_caps_.contains(cap.id)) co_return Errc::revoked;
  auto it = exports_.find(cap.segid.value());
  if (it != exports_.end() && it->second.removing) co_return Errc::no_such_segid;
  if (it != exports_.end()) {
    CapNode* node = nullptr;
    const Errc ce =
        cap_check(cap.segid.value(), cap.id, id(), want, 0, 0, false, &node);
    if (ce != Errc::ok) co_return ce;
    ++it->second.grants;
    co_return XpmemGrant{cap.segid, it->second.pages * kPageSize, want, node->id};
  }
  Message req;
  req.cmd = Cmd::get;
  req.segid = cap.segid;
  req.access = static_cast<u8>(want);
  req.cap = cap.id;
  auto resp = co_await request_to_owner(std::move(req));
  if (!resp.ok()) co_return resp.error();
  if (resp.value().status == Errc::revoked) tombstone_cap(cap.id);
  if (resp.value().status != Errc::ok) co_return resp.value().status;
  co_return XpmemGrant{cap.segid, resp.value().size,
                       static_cast<AccessMode>(resp.value().access),
                       resp.value().cap != 0 ? resp.value().cap : cap.id};
}

sim::Task<Result<void>> XememKernel::xpmem_release(const XpmemGrant& grant) {
  auto it = exports_.find(grant.segid.value());
  if (it != exports_.end()) {
    if (it->second.grants > 0) --it->second.grants;
    co_return Result<void>{};
  }
  Message req;
  req.cmd = Cmd::release;
  req.segid = grant.segid;
  req.src = id();
  req.req_id = g_req_counter++;
  const u32 shard =
      shard_of_segid(grant.segid, static_cast<u32>(cfg_.ns_shards.size()));
  if (ShardReplica* rep = local_primary(shard)) {
    // The home shard's believed primary is local: address the owner
    // straight from its registry. Like an owner-cache hit, this only
    // picks a destination, so no registry op is charged.
    const Registry::Record* rec = rep->registry.find(grant.segid);
    if (rec == nullptr) co_return Errc::no_such_segid;
    req.dst = rec->owner;
  } else if (auto oc = owner_cache_.find(grant.segid.value());
             oc != owner_cache_.end()) {
    // One-way releases benefit from the owner cache too: send straight to
    // the owner instead of bouncing off the name server.
    req.dst = oc->second;
    ++stats_.lookup_cache_hits;
  } else {
    // One-way and best-effort: aim at the believed primary of the segid's
    // home shard, which forwards to the owner. A missed grant decrement is
    // tolerable (releases are advisory; remove still fails busy only on
    // attachments).
    req.shard = shard;
    req.shard_epoch = shard_believed_epoch(shard);
    const auto& group = cfg_.ns_shards[shard];
    req.dst = EnclaveId{group[(req.shard_epoch - 1) % group.size()]};
  }
  ChannelEndpoint* via = route_for(req.dst);
  if (via == nullptr) co_return Errc::unreachable;
  co_await via->send(std::move(req));  // one-way
  co_return Result<void>{};
}

sim::Task<Result<XpmemAttachment>> XememKernel::xpmem_attach(os::Process& attacher,
                                                             const XpmemGrant& grant,
                                                             u64 offset, u64 size) {
  if (!grant.valid() || size == 0 || offset + size > grant.size) {
    co_return Errc::invalid_argument;
  }
  // XPMEM permits byte-granular requests: map the covering pages and
  // return an address pointing at the requested byte.
  const u64 page_off = page_align_down(offset);
  const u64 sub = offset - page_off;
  const u64 pages = pages_for(sub + size);

  // A capability known revoked fails fast locally — no protocol traffic,
  // terminal status (the owner would only tell us the same thing).
  if (cfg_.capabilities && grant.cap != 0 && revoked_caps_.contains(grant.cap)) {
    co_return Errc::revoked;
  }

  // Local fast path: exporter lives in this enclave (paper section 4.2:
  // "the attachment proceeds using the conventions of the local OS").
  auto it = exports_.find(grant.segid.value());
  if (it != exports_.end() && it->second.removing) co_return Errc::no_such_segid;
  if (it != exports_.end()) {
    ExportRecord& rec = it->second;
    if ((page_off >> kPageShift) + pages > rec.pages) {
      co_return Errc::invalid_argument;
    }
    CapNode* node = nullptr;
    if (cfg_.capabilities) {
      // The local fast path enforces the same server-side validation the
      // remote path gets: window, access mode, attach limit (checked on
      // the page-rounded request, like the wire carries it).
      const Errc ce = cap_check(grant.segid.value(), grant.cap, id(),
                                grant.mode, page_off, pages * kPageSize, true,
                                &node);
      if (ce != Errc::ok) co_return ce;
    }
    // Reserved before the walk suspends so a concurrent remove returns
    // busy instead of erasing the export under us.
    ++rec.attachments;
    auto frames =
        co_await os_.service_make_pfn_list(*rec.proc, rec.va + page_off, pages);
    if (!frames.ok()) {
      --rec.attachments;
      co_return frames.error();
    }
    pin_frames(frames.value());
    ++stats_.local_attaches;
    stats_.pages_shared += frames.value().page_count();
    auto va = co_await os_.map_attachment(attacher, frames.value(),
                                          os_.lazy_local_attach(),
                                          grant.mode == AccessMode::read_write);
    if (!va.ok()) {
      unpin_frames(frames.value());
      --rec.attachments;
      co_return va.error();
    }
    const u64 handle = next_handle_++;
    u64 capid = 0;
    if (node != nullptr) {
      capid = node->id;
      ++node->live_attaches;
      ++cap_acct(grant.segid.value()).live_attaches;
    }
    pins_.emplace(handle,
                  PinRecord{grant.segid, std::move(frames).value(), capid, id()});
    if (cfg_.capabilities) {
      cap_maps_[{grant.segid.value(), handle}].push_back(
          CapMapRec{&attacher, va.value(), pages});
    }
    co_return XpmemAttachment{grant.segid, va.value() + sub, va.value(), pages,
                              id(), handle, true};
  }

  const bool writable = grant.mode == AccessMode::read_write;

  // Attacher-side mapping reuse: a window contained in one of our live
  // attachments of this segment needs no protocol traffic at all — the
  // frames are known and the owner already holds a pin covering them.
  // Install a fresh local mapping and share the owner-side pin by
  // refcount; the last detach releases it remotely. Safe against reuse of
  // stale frames because entries only exist while their remote pin does
  // (detach/crash erase them) and segids are never recycled.
  //
  // Under capabilities the cache cannot be trusted at all for remote
  // segments: a revocation sweeping the owner's pins propagates here via
  // a one-way note, and until it lands a cached entry would hand out
  // frames the owner has already unpinned. Rights must be re-validated by
  // the owner on every attach — reuse is a capabilities-off optimization
  // (pay-for-use; see DESIGN.md §9).
  if (cfg_.attach_fast_path && !cfg_.capabilities) {
    for (auto& [key, entry] : attach_cache_) {
      if (key.first != grant.segid.value()) continue;
      if (entry.page_off > page_off ||
          page_off + pages * kPageSize > entry.page_off + entry.pages * kPageSize) {
        continue;
      }
      auto va = co_await os_.map_attachment(
          attacher,
          entry.frames.slice((page_off - entry.page_off) >> kPageShift, pages),
          false, writable);
      if (!va.ok()) co_return va.error();
      ++entry.refs;
      ++stats_.reuse_hits;
      co_return XpmemAttachment{grant.segid, va.value() + sub, va.value(),
                                pages, entry.owner, key.second, false};
    }
  }

  // Remote path: route the attach through the name server to the owner.
  Message req;
  req.cmd = Cmd::attach;
  req.segid = grant.segid;
  req.offset = page_off;
  req.size = pages * kPageSize;
  req.access = static_cast<u8>(grant.mode);
  req.cap = grant.cap;
  auto resp = co_await request_to_owner(std::move(req));
  if (!resp.ok()) co_return resp.error();
  Message& r = resp.value();
  if (r.status == Errc::revoked) tombstone_cap(grant.cap);
  if (r.status != Errc::ok) co_return r.status;

  mm::PfnList frames = std::move(r.frames);
  ++stats_.attaches_issued;
  auto va = co_await os_.map_attachment(attacher, frames, false, writable);
  if (!va.ok()) co_return va.error();
  if (cfg_.capabilities) {
    // Revocation raced this attach and its fan-out overtook the response:
    // the owner already released the pin, so the mapping we just installed
    // is dead. Tear it down and surface the terminal status.
    const u64 effective = grant.cap != 0 ? grant.cap : r.cap;
    if (handle_revoked(grant.segid.value(), r.offset) ||
        (effective != 0 && revoked_caps_.contains(effective))) {
      co_await os_.unmap_attachment(attacher, va.value(), pages);
      co_return Errc::revoked;
    }
    cap_maps_[{grant.segid.value(), r.offset}].push_back(
        CapMapRec{&attacher, va.value(), pages});
  }
  if (cfg_.attach_fast_path) {
    attach_cache_.emplace(
        std::make_pair(grant.segid.value(), r.offset),
        ReuseEntry{page_off, pages, std::move(frames), r.src, 1, grant.cap});
  }
  co_return XpmemAttachment{grant.segid, va.value() + sub, va.value(), pages,
                            r.src, r.offset, false};
}

sim::Task<Result<void>> XememKernel::xpmem_detach(os::Process& attacher,
                                                  const XpmemAttachment& att) {
  auto unmapped = co_await os_.unmap_attachment(attacher, att.map_base, att.pages);
  // A retried detach may find the range already unmapped by a failed
  // predecessor (local half done, owner half lost with a dying forwarder)
  // — or by a revocation sweep that got here first.
  // Push on to the owner-side release anyway so its pin cannot leak.
  if (!unmapped.ok() && unmapped.error() != Errc::not_attached) co_return unmapped;

  if (cfg_.capabilities) {
    // Retire our teardown record for this mapping (the revocation fan-out
    // must not unmap an address the application already recycled).
    auto cm = cap_maps_.find({att.segid.value(), att.owner_handle});
    if (cm != cap_maps_.end()) {
      auto& recs = cm->second;
      for (auto r = recs.begin(); r != recs.end(); ++r) {
        if (r->map_base == att.map_base && r->proc == &attacher) {
          recs.erase(r);
          break;
        }
      }
      if (recs.empty()) cap_maps_.erase(cm);
    }
  }

  if (att.local) {
    auto pin = pins_.find(att.owner_handle);
    if (pin == pins_.end()) {
      // Revocation swept the pin before this detach: the teardown already
      // happened, so the detach succeeds vacuously.
      if (cfg_.capabilities && handle_revoked(att.segid.value(), att.owner_handle)) {
        co_return Result<void>{};
      }
      co_return Errc::not_attached;
    }
    if (cfg_.capabilities && pin->second.cap != 0) {
      auto t = cap_trees_.find(att.segid.value());
      if (t != cap_trees_.end()) {
        auto n = t->second.nodes.find(pin->second.cap);
        if (n != t->second.nodes.end() && n->second.live_attaches > 0) {
          --n->second.live_attaches;
        }
      }
      if (auto* a = cap_accounting_.find(att.segid.value());
          a != nullptr && a->live_attaches > 0) {
        --a->live_attaches;
      }
    }
    unpin_frames(pin->second.frames);
    pins_.erase(pin);
    auto ex = exports_.find(att.segid.value());
    if (ex != exports_.end() && ex->second.attachments > 0) --ex->second.attachments;
    co_return Result<void>{};
  }

  // Other local attachments may share this owner-side pin (fast-path reuse):
  // only the last one releases it remotely.
  const auto reuse_key = std::make_pair(att.segid.value(), att.owner_handle);
  auto cached = attach_cache_.find(reuse_key);
  if (cached != attach_cache_.end() && --cached->second.refs > 0) {
    co_return Result<void>{};
  }

  if (cfg_.capabilities && handle_revoked(att.segid.value(), att.owner_handle)) {
    // The owner already released this pin when it revoked the capability:
    // a detach round-trip would only be told "revoked". Clean up locally.
    attach_cache_.erase(reuse_key);
    co_return Result<void>{};
  }

  Message req;
  req.cmd = Cmd::detach;
  req.segid = att.segid;
  req.offset = att.owner_handle;
  auto resp = co_await request_to_owner(std::move(req));
  // Erase by key, not iterator: a concurrent crash() clears the cache
  // while we awaited the response. Drop the entry even on a failed detach
  // (the owner is unreachable or gone; reusing its frames would be stale).
  attach_cache_.erase(reuse_key);
  if (!resp.ok()) co_return resp.error();
  // "revoked" on a detach means the owner tore the attachment down before
  // we asked: the end state (unmapped, unpinned) is what a detach wants.
  co_return resp.value().status == Errc::ok || resp.value().status == Errc::revoked
      ? Result<void>{}
      : Result<void>{resp.value().status};
}

namespace {

std::vector<std::pair<std::string, Segid>> decode_name_list(const Message& m) {
  std::vector<std::pair<std::string, Segid>> out;
  size_t pos = 0;
  for (u64 sid : m.payload) {
    const size_t next = m.name.find('\n', pos);
    out.emplace_back(m.name.substr(pos, next - pos), Segid{sid});
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

}  // namespace

sim::Task<Result<std::vector<std::pair<std::string, Segid>>>>
XememKernel::xpmem_list() {
  // The registry is partitioned: enumerate every shard and merge.
  std::vector<std::pair<std::string, Segid>> out;
  for (u32 s = 0; s < cfg_.ns_shards.size(); ++s) {
    Message req;
    req.cmd = Cmd::name_list;
    req.shard = s;
    req.shard_epoch = shard_believed_epoch(s);
    auto resp = co_await request(std::move(req));
    if (!resp.ok()) co_return resp.error();
    if (resp.value().status != Errc::ok) co_return resp.value().status;
    for (auto& p : decode_name_list(resp.value())) out.push_back(std::move(p));
  }
  co_return out;
}

sim::Task<Result<Segid>> XememKernel::xpmem_search(const std::string& name) {
  Message req;
  req.cmd = Cmd::name_lookup;
  req.name = name;
  req.shard = shard_of_name(name, static_cast<u32>(cfg_.ns_shards.size()));
  req.shard_epoch = shard_believed_epoch(req.shard);
  auto resp = co_await request(std::move(req));
  if (!resp.ok()) co_return resp.error();
  if (resp.value().status != Errc::ok) co_return resp.value().status;
  co_return resp.value().segid;
}

// --------------------------------------------- name service (DESIGN §6b)

sim::Task<void> XememKernel::shard_bootstrap_actor() {
  co_await registered_.wait();
  if (crashed_ || stopped_ || !id().valid()) co_return;
  host_replicas();
}

void XememKernel::host_replicas() {
  auto* eng = sim::Engine::current();
  for (u32 s = 0; s < cfg_.ns_shards.size(); ++s) {
    const auto& group = cfg_.ns_shards[s];
    for (u32 i = 0; i < group.size(); ++i) {
      if (group[i] != id().value()) continue;
      auto rep = std::make_unique<ShardReplica>();
      rep->shard = s;
      rep->self_index = i;
      rep->primary = (i == 0);  // boot primary of epoch 1
      rep->last_primary_contact = sim::now();
      for (u64 peer : group) {
        if (peer != id().value()) rep->peer_contact[peer] = sim::now();
      }
      shard_replicas_.emplace(s, std::move(rep));
      // A group of one has no primary to probe and never elects.
      if (group.size() > 1) eng->spawn(shard_probe_actor(s));
      if (cfg_.lease_duration > 0) eng->spawn(shard_lease_reaper(s));
    }
  }
}

sim::Task<void> XememKernel::hello_actor() {
  co_await registered_.wait();
  if (crashed_ || stopped_ || !id().valid()) co_return;
  // Snapshot: channels_ may grow while this coroutine suspends in send().
  const std::vector<ChannelEndpoint*> eps = channels_;
  for (auto* ep : eps) {
    Message m;
    m.cmd = Cmd::hello;
    m.src = id();
    m.req_id = g_req_counter++;
    co_await ep->send(std::move(m));
  }
}

sim::Task<void> XememKernel::shard_handle(Message msg, ChannelEndpoint* from) {
  auto repit = shard_replicas_.find(msg.shard);
  if (repit == shard_replicas_.end()) {
    // Misaddressed: a stale believed epoch can point a client at an
    // enclave that hosts no replica of this shard. Retryable — the client
    // rotates and eventually reaches a member carrying the real epoch.
    if (msg.is_one_way()) co_return;
    Message rej = shard_reply(msg, shard_believed_epoch(msg.shard));
    rej.status = Errc::retry_later;
    co_await from->send(std::move(rej));
    co_return;
  }
  ShardReplica* rep = repit->second.get();
  if (ns_crashpoint()) co_return;
  co_await os_.service_core()->run_irq(costs::kNameServerOp);
  if (crashed_) co_return;

  const auto& group = cfg_.ns_shards[msg.shard];
  if (msg.src.valid() &&
      std::find(group.begin(), group.end(), msg.src.value()) != group.end()) {
    rep->peer_contact[msg.src.value()] = sim::now();
  }

  Message resp = shard_reply(msg, rep->epoch);

  // ----- Replica-group protocol.

  if (msg.cmd == Cmd::shard_probe) {
    // A follower checking on its believed primary. A not_primary answer
    // (carrying our epoch) redirects it without counting as a miss.
    resp.status = rep->primary ? Errc::ok : Errc::not_primary;
    co_await from->send(std::move(resp));
    co_return;
  }

  if (msg.cmd == Cmd::shard_vote) {
    // Paxos-style prepare: promise the proposal unless already promised
    // (or in) something at least as new; a promise carries the full op
    // log so the winner adopts the most complete history in the quorum.
    const u64 flr = std::max(rep->epoch, rep->promised);
    if (msg.shard_epoch <= flr) {
      resp.status = Errc::stale_epoch;
      resp.shard_epoch = flr;
    } else {
      rep->promised = msg.shard_epoch;
      encode_shard_ops(rep->log, &resp);
      resp.offset = rep->log.size();
    }
    co_await from->send(std::move(resp));
    co_return;
  }

  if (msg.cmd == Cmd::shard_announce) {
    if (msg.shard_epoch > rep->epoch) {
      rep->epoch = msg.shard_epoch;
      rep->primary = false;
      rep->promoting = false;  // abort any in-flight candidacy: it lost
      rep->last_primary_contact = sim::now();
      rep->quorum_lost_at = 0;
      if (msg.shard < shard_epoch_.size()) {
        shard_epoch_[msg.shard] =
            std::max(shard_epoch_[msg.shard], msg.shard_epoch);
      }
    }
    co_return;  // one-way
  }

  if (msg.cmd == Cmd::shard_replicate || msg.cmd == Cmd::shard_sync) {
    const u64 flr = std::max(rep->epoch, rep->promised);
    if (msg.shard_epoch < flr) {
      resp.status = Errc::stale_epoch;
      resp.shard_epoch = flr;
      co_await from->send(std::move(resp));
      co_return;
    }
    if (msg.shard_epoch > rep->epoch || rep->primary) {
      // A primary of a newer epoch exists (or we wrongly believed we led):
      // step down and follow it.
      rep->epoch = msg.shard_epoch;
      rep->primary = false;
      rep->promoting = false;
      if (msg.shard < shard_epoch_.size()) {
        shard_epoch_[msg.shard] =
            std::max(shard_epoch_[msg.shard], msg.shard_epoch);
      }
    }
    rep->last_primary_contact = sim::now();
    rep->quorum_lost_at = 0;
    if (msg.offset > rep->log.size()) {
      // Gap: we missed earlier entries. Ask for a catch-up suffix starting
      // at our log end (retry_later + offset is the protocol for that).
      resp.status = Errc::retry_later;
      resp.offset = rep->log.size();
      co_await from->send(std::move(resp));
      co_return;
    }
    const std::vector<ShardOp> ops = decode_shard_ops(msg);
    bool truncated = false;
    u64 index = msg.offset;
    for (const auto& op : ops) {
      if (index < rep->log.size()) {
        if (!same_shard_op(rep->log[index], op)) {
          // Conflict: an uncommitted tail from a deposed primary. The
          // current primary's log wins; drop ours from here on.
          rep->log.resize(index);
          truncated = true;
          rep->log.push_back(op);
        }
      } else {
        rep->log.push_back(op);
      }
      ++index;
    }
    if (truncated) {
      shard_rebuild(rep);
    } else {
      while (rep->applied < rep->log.size()) {
        shard_apply(rep, rep->log[rep->applied]);
        ++rep->applied;
      }
    }
    if (msg.cmd == Cmd::shard_replicate) {
      ++stats_.replications;
    } else {
      ++stats_.catchups;
    }
    resp.offset = rep->log.size();
    resp.shard_epoch = rep->epoch;
    co_await from->send(std::move(resp));
    co_return;
  }

  // ----- Client registry commands.

  if (shard_leases_due(*rep)) co_await shard_sweep_leases(rep);
  if (crashed_) co_return;
  if (!shard_admit(rep, msg, &resp, /*in_place=*/false)) {
    if (!msg.is_one_way()) co_await from->send(std::move(resp));
    co_return;
  }
  if (is_segid_cmd(msg.cmd)) {
    // Segid-keyed commands resolve the owner here and forward (the
    // response retraces through the pending_fwd_ table).
    co_await route_to_owner(rep->registry, std::move(msg), std::move(resp), from);
    co_return;
  }
  co_await shard_registry_op(rep, msg, &resp, /*in_place=*/false);
  if (crashed_) co_return;
  co_await from->send(std::move(resp));
}

bool XememKernel::shard_admit(ShardReplica* rep, const Message& msg,
                              Message* resp, bool in_place) {
  // Liveness bookkeeping: the caller swept expired leases first (so a
  // retry against a dead owner's segid fails fast with no_such_segid, and
  // a renewal arriving at the expiry instant finds the lease already
  // collected); now renew the sender's. Renewal is epoch-agnostic and
  // renew-only: an idle-but-alive owner must never be garbage-collected
  // because its renewal raced an election it had not heard about, and a
  // collected owner is not resurrected by stale traffic.
  if (cfg_.lease_duration > 0 && msg.src.valid()) {
    const sim::TimePoint expiry = sim::now() + cfg_.lease_duration;
    rep->registry.renew(msg.src, expiry);
    if (msg.cmd == Cmd::heartbeat) {
      // The payload lists every additional shard we host whose renewal
      // the sender coalesced into this one message.
      for (u64 s : msg.payload) {
        auto extra = shard_replicas_.find(static_cast<u32>(s));
        if (extra != shard_replicas_.end()) {
          extra->second->registry.renew(msg.src, expiry);
        }
      }
    }
  }
  if (msg.cmd == Cmd::heartbeat) return false;  // one-way: renewal only

  if (msg.shard_epoch < rep->epoch) {
    ++stats_.epoch_rejects;
    resp->status = Errc::stale_epoch;
    return false;
  }
  if (msg.shard_epoch > rep->epoch) {
    // The client is ahead of us: an election we have not heard of. Never
    // serve from a view we know is behind.
    resp->status = Errc::retry_later;
    return false;
  }
  if (!in_place && dedup_hit(msg.req_id, resp)) {
    ++stats_.dup_suppressed;
    return false;
  }
  const bool is_write =
      msg.cmd == Cmd::segid_alloc || msg.cmd == Cmd::segid_remove;
  if (is_write && !rep->primary) {
    ++stats_.not_primary_rejects;
    resp->status = Errc::not_primary;
    return false;
  }
  if (!shard_is_fresh(*rep)) {
    // Minority side of a partition (or an isolated replica): answer
    // retry_later inside the grace window, terminal no_quorum after it.
    if (msg.is_one_way()) return false;  // release: drop
    resp->status = shard_unavailable_status(rep);
    if (resp->status == Errc::no_quorum) ++stats_.no_quorum_rejects;
    return false;
  }
  return true;
}

sim::Task<void> XememKernel::shard_registry_op(ShardReplica* rep,
                                               const Message& msg,
                                               Message* resp, bool in_place) {
  switch (msg.cmd) {
    case Cmd::segid_alloc:
    case Cmd::segid_remove: {
      ShardOp op;
      op.epoch = rep->epoch;
      if (msg.cmd == Cmd::segid_alloc) {
        op.kind = ShardOp::Kind::alloc;
        op.size = msg.size;
        op.owner = msg.src.value();
        op.name = msg.name;
      } else {
        const Registry::Record* rec = rep->registry.find(msg.segid);
        if (rec == nullptr) {
          // Authoritative: this replica is fresh and the quorum-intersection
          // property makes its committed view complete.
          resp->status = Errc::no_such_segid;
          break;
        }
        op.kind = ShardOp::Kind::remove;
        op.segid = msg.segid.value();
        op.size = rec->size;
        op.owner = rec->owner.value();
        op.name = rec->name;
      }
      auto committed = co_await shard_quorum_commit(rep, &op);
      resp->shard_epoch = rep->epoch;
      if (!committed.ok()) {
        resp->status = committed.error();
        // A failed write is never dedup-stored: the client's retry must
        // re-execute against whichever primary survives.
        if (resp->status != Errc::already_exists) {
          if (resp->status == Errc::no_quorum) ++stats_.no_quorum_rejects;
          co_return;
        }
        break;
      }
      if (op.kind == ShardOp::Kind::alloc) resp->segid = Segid{op.segid};
      break;
    }
    case Cmd::name_lookup:
      rep->registry.lookup(msg.name, resp);
      co_return;
    case Cmd::name_list:
      rep->registry.list(resp);
      co_return;
    default:
      XLOG_WARN("xemem", "%s: shard %u: unexpected %s", os_.name().c_str(),
                msg.shard, cmd_name(msg.cmd));
      resp->status = Errc::invalid_argument;
      co_return;
  }
  // Allocations and removals: a retried command is answered from the
  // dedup cache. An in-place command is never retransmitted.
  if (!in_place) dedup_store(msg.req_id, *resp);
}

Message XememKernel::shard_reply(const Message& msg, u64 epoch) const {
  Message resp;
  resp.cmd = response_cmd(msg.cmd);
  resp.req_id = msg.req_id;
  resp.src = id();
  resp.dst = msg.src;
  resp.shard = msg.shard;
  resp.shard_epoch = epoch;
  resp.status = Errc::ok;
  return resp;
}

XememKernel::ShardReplica* XememKernel::local_primary(u32 shard) {
  const auto& group = cfg_.ns_shards[shard];
  if (group[(shard_believed_epoch(shard) - 1) % group.size()] != id().value()) {
    return nullptr;
  }
  auto it = shard_replicas_.find(shard);
  return it != shard_replicas_.end() ? it->second.get() : nullptr;
}

sim::Task<Result<Message>> XememKernel::serve_here(Message msg) {
  auto it = shard_replicas_.find(msg.shard);
  if (it == shard_replicas_.end()) {
    Message rej = shard_reply(msg, msg.shard_epoch);
    rej.status = Errc::retry_later;  // the replica is not installed yet
    co_return rej;
  }
  ShardReplica* rep = it->second.get();
  co_await os_.service_core()->run_irq(costs::kNameServerOp);
  if (crashed_) co_return Errc::unreachable;
  Message resp = shard_reply(msg, rep->epoch);
  if (shard_leases_due(*rep)) co_await shard_sweep_leases(rep);
  if (crashed_) co_return Errc::unreachable;
  if (!shard_admit(rep, msg, &resp, /*in_place=*/true)) co_return resp;
  if (is_segid_cmd(msg.cmd)) {
    const Registry::Record* rec = rep->registry.find(msg.segid);
    if (rec == nullptr) {
      resp.status = Errc::no_such_segid;
      co_return resp;
    }
    if (rec->owner == id()) {
      // Our own segment, yet not a local export any more: the owner-side
      // dispatch gives the answer a remote requester would get.
      auto out = co_await serve_owned(msg);
      if (!out.has_value()) co_return Errc::unreachable;
      co_return *out;
    }
    msg.dst = rec->owner;
    msg.shard = 0;
    msg.shard_epoch = 0;  // plain owner traffic from here
    co_return co_await request(std::move(msg));
  }
  co_await shard_registry_op(rep, msg, &resp, /*in_place=*/true);
  if (crashed_) co_return Errc::unreachable;
  co_return resp;
}

sim::Task<Result<void>> XememKernel::shard_quorum_commit(ShardReplica* rep,
                                                         ShardOp* op) {
  const auto& group = cfg_.ns_shards[rep->shard];
  // Admission under the write mutex (see below), then the mint. Checking
  // the name here, not before waiting for the mutex, lets the second of
  // two concurrent allocs of one name see the first one's commit; a
  // rejected alloc uses up no sequence number.
  auto admit = [&]() -> Errc {
    if (crashed_) return Errc::unreachable;
    if (!rep->primary || rep->epoch != op->epoch) return Errc::not_primary;
    if (op->kind != ShardOp::Kind::alloc) return Errc::ok;
    if (!op->name.empty() && rep->registry.has_name(op->name)) {
      return Errc::already_exists;
    }
    // The minting shard issues sequence numbers congruent to itself (mod
    // the shard count) so shard_of_segid routes segid-keyed commands home
    // without a directory; the epoch prefix keeps segids unique across
    // elections (seq restarts per epoch).
    op->segid = make_segid_value(
        rep->epoch, rep->next_seq++ * cfg_.ns_shards.size() + rep->shard);
    return Errc::ok;
  };
  if (group.size() == 1) {
    // A group of one commits at once: nothing suspends, so no other write
    // can interleave, and no peer would ever read its log back.
    const Errc e = admit();
    if (e != Errc::ok) co_return e;
    shard_apply(rep, *op);
    ++stats_.quorum_writes;
    co_return Result<void>{};
  }

  // One write in flight per shard: the log index appended below must be
  // settled (committed or rolled back) before the next write picks its own.
  co_await rep->write_mutex.lock();
  if (const Errc e = admit(); e != Errc::ok) {
    rep->write_mutex.unlock();
    co_return e;
  }
  const u64 index = rep->log.size();
  const u64 epoch = rep->epoch;
  XEMEM_ASSERT_MSG(rep->applied == index,
                   "primary log must be fully applied before a new write");
  rep->log.push_back(*op);

  auto round = std::make_shared<QuorumRound>();
  round->total = static_cast<u32>(group.size());
  round->majority = round->total / 2 + 1;
  auto* eng = sim::Engine::current();
  for (u64 peer : group) {
    if (peer == id().value()) continue;
    eng->spawn(shard_replicate_to(this, rep, peer, index, *op, round));
  }
  // Each replication attempt is bounded by request_timeout, so this wait
  // is bounded too: a replica crashing mid-replication can delay the
  // round, never hang it.
  co_await round->settled.wait();

  const bool won = round->acks >= round->majority && !crashed_ &&
                   rep->primary && rep->epoch == epoch;
  if (won) {
    shard_apply(rep, rep->log[index]);
    rep->applied = index + 1;
    rep->quorum_lost_at = 0;
    ++stats_.quorum_writes;
    rep->write_mutex.unlock();
    co_return Result<void>{};
  }
  ++stats_.quorum_fails;
  // Roll the unacknowledged tail back so a failed write leaves no trace —
  // unless an adoption already rewrote the log underneath us.
  if (rep->log.size() == index + 1 && rep->applied <= index &&
      same_shard_op(rep->log[index], *op)) {
    rep->log.pop_back();
  }
  rep->write_mutex.unlock();
  if (crashed_) co_return Errc::unreachable;
  if (!rep->primary || rep->epoch != epoch) co_return Errc::not_primary;
  co_return shard_unavailable_status(rep);
}

sim::Task<void> XememKernel::shard_replicate_to(
    XememKernel* k, ShardReplica* rep, u64 peer, u64 index, ShardOp op,
    std::shared_ptr<QuorumRound> round) {
  bool acked = false;
  Message m;
  m.cmd = Cmd::shard_replicate;
  m.src = k->id();
  m.dst = EnclaveId{peer};
  m.shard = rep->shard;
  m.shard_epoch = op.epoch;
  m.offset = index;
  encode_shard_ops({op}, &m);
  auto resp = co_await k->request(std::move(m), nullptr, k->cfg_.request_timeout,
                                  /*max_retries=*/0);
  if (!k->crashed_ && resp.ok()) {
    Message& r = resp.value();
    if (r.status == Errc::ok) {
      acked = true;
    } else if (r.status == Errc::retry_later && r.offset < index) {
      // The follower is missing earlier entries: ship the whole suffix it
      // lacks in one shard_sync, bounded like the replicate itself. Guard
      // against the log shifting underneath us while suspended (adoption).
      if (rep->epoch == op.epoch && rep->log.size() > index &&
          same_shard_op(rep->log[index], op)) {
        Message sync;
        sync.cmd = Cmd::shard_sync;
        sync.src = k->id();
        sync.dst = EnclaveId{peer};
        sync.shard = rep->shard;
        sync.shard_epoch = op.epoch;
        sync.offset = r.offset;
        const std::vector<ShardOp> suffix(
            rep->log.begin() + static_cast<i64>(r.offset),
            rep->log.begin() + static_cast<i64>(index) + 1);
        encode_shard_ops(suffix, &sync);
        auto sr = co_await k->request(std::move(sync), nullptr,
                                      k->cfg_.request_timeout, 0);
        if (!k->crashed_ && sr.ok()) {
          if (sr.value().status == Errc::ok) {
            acked = true;
          } else if (sr.value().status == Errc::stale_epoch &&
                     sr.value().shard_epoch > rep->epoch) {
            rep->epoch = sr.value().shard_epoch;
            rep->primary = false;
          }
        }
      }
    } else if (r.status == Errc::stale_epoch && r.shard_epoch > rep->epoch) {
      // Deposed: a newer epoch exists somewhere in the group.
      rep->epoch = r.shard_epoch;
      rep->primary = false;
      rep->promoting = false;
    }
  }
  if (acked && !k->crashed_) {
    ++round->acks;
    rep->peer_contact[peer] = sim::now();
  }
  ++round->done;
  if (round->acks >= round->majority || round->done >= round->total) {
    round->settled.set();
  }
}

sim::Task<void> XememKernel::shard_probe_actor(u32 shard) {
  auto it = shard_replicas_.find(shard);
  if (it == shard_replicas_.end()) co_return;
  ShardReplica* rep = it->second.get();
  const auto& group = cfg_.ns_shards[shard];
  u32 misses = 0;
  for (;;) {
    co_await sim::delay(cfg_.shard_probe_period);
    if (stopped_ || crashed_) co_return;
    if (rep->primary) {
      misses = 0;
      if (!shard_is_fresh(*rep)) {
        // Check-quorum: a primary that lost its majority probes its peers
        // directly — to refresh contact after a healed partition, or to
        // learn it was deposed while isolated and step down. Without this
        // a deposed primary would keep answering retry_later/no_quorum
        // forever: nobody probes *it*, and announces were lost to the
        // partition.
        for (u64 peer : group) {
          if (peer == id().value()) continue;
          Message probe;
          probe.cmd = Cmd::shard_probe;
          probe.dst = EnclaveId{peer};
          probe.shard = shard;
          probe.shard_epoch = rep->epoch;
          auto pr = co_await request(std::move(probe), nullptr,
                                     cfg_.ping_timeout, /*max_retries=*/0);
          if (stopped_ || crashed_) co_return;
          if (!rep->primary) break;  // deposed mid-probe by other traffic
          if (!pr.ok()) continue;
          if (pr.value().shard_epoch > rep->epoch) {
            rep->epoch = pr.value().shard_epoch;
            rep->primary = false;
            rep->promoting = false;
            rep->last_primary_contact = sim::now();
            rep->quorum_lost_at = 0;
            if (shard < shard_epoch_.size()) {
              shard_epoch_[shard] =
                  std::max(shard_epoch_[shard], pr.value().shard_epoch);
            }
            XLOG_WARN("xemem", "%s: shard %u primary deposed by epoch %llu",
                      os_.name().c_str(), shard,
                      (unsigned long long)rep->epoch);
            break;
          }
          rep->peer_contact[peer] = sim::now();
        }
      }
      continue;
    }
    const u64 primary = group[(rep->epoch - 1) % group.size()];
    if (primary == id().value()) {
      // The epoch maps the primary slot to us but we are not (yet) primary
      // — a vote is in flight or an announce is coming; don't probe self.
      misses = 0;
      continue;
    }
    Message probe;
    probe.cmd = Cmd::shard_probe;
    probe.dst = EnclaveId{primary};
    probe.shard = shard;
    probe.shard_epoch = rep->epoch;
    auto resp = co_await request(std::move(probe), nullptr, cfg_.ping_timeout,
                                 /*max_retries=*/0);
    if (stopped_ || crashed_) co_return;
    if (rep->primary) {
      misses = 0;
      continue;
    }
    if (resp.ok()) {
      Message& r = resp.value();
      if (r.shard_epoch > rep->epoch) {
        // Someone is ahead of us: adopt and give the new regime a fresh
        // probe cycle before judging it.
        rep->epoch = r.shard_epoch;
        rep->promoting = false;
        rep->last_primary_contact = sim::now();
        if (shard < shard_epoch_.size()) {
          shard_epoch_[shard] = std::max(shard_epoch_[shard], r.shard_epoch);
        }
        misses = 0;
        continue;
      }
      if (r.status == Errc::ok) {
        misses = 0;
        rep->last_primary_contact = sim::now();
        rep->quorum_lost_at = 0;
        continue;
      }
    }
    if (++misses >= cfg_.shard_probe_misses) {
      misses = 0;
      co_await shard_try_promote(shard);
      if (stopped_ || crashed_) co_return;
    }
  }
}

sim::Task<void> XememKernel::shard_try_promote(u32 shard) {
  auto mapit = shard_replicas_.find(shard);
  if (mapit == shard_replicas_.end()) co_return;
  ShardReplica* rep = mapit->second.get();
  if (rep->promoting || rep->primary || crashed_ || stopped_) co_return;
  rep->promoting = true;
  const auto& group = cfg_.ns_shards[shard];
  const auto n = static_cast<u64>(group.size());
  // Candidate epochs are position-keyed — the smallest epoch above
  // everything seen whose primary slot ((e-1) % n) is this replica — so
  // concurrent candidates never propose the same epoch.
  const u64 flr = std::max(rep->epoch, rep->promised) + 1;
  const u64 e = flr + ((rep->self_index + n - ((flr - 1) % n)) % n);
  rep->promised = e;
  u32 votes = 1;  // self
  bool outbid = false;
  std::vector<ShardOp> best = rep->log;
  for (u64 peer : group) {
    if (peer == id().value()) continue;
    if (crashed_ || stopped_ || !rep->promoting) break;
    Message vote;
    vote.cmd = Cmd::shard_vote;
    vote.dst = EnclaveId{peer};
    vote.shard = shard;
    vote.shard_epoch = e;
    auto resp = co_await request(std::move(vote), nullptr, cfg_.request_timeout,
                                 /*max_retries=*/0);
    if (crashed_ || stopped_) {
      rep->promoting = false;
      co_return;
    }
    if (!resp.ok()) continue;
    Message& r = resp.value();
    if (r.status == Errc::stale_epoch) {
      if (r.shard_epoch > rep->promised) rep->promised = r.shard_epoch;
      outbid = true;
      continue;
    }
    if (r.status != Errc::ok) continue;
    ++votes;
    rep->peer_contact[peer] = sim::now();
    // Adopt the most complete log in the vote quorum: any op committed by
    // a prior primary lives on a majority, and majorities intersect, so
    // the best log in our quorum contains every committed op.
    std::vector<ShardOp> peer_log = decode_shard_ops(r);
    const u64 be = best.empty() ? 0 : best.back().epoch;
    const u64 pe = peer_log.empty() ? 0 : peer_log.back().epoch;
    if (pe > be || (pe == be && peer_log.size() > best.size())) {
      best = std::move(peer_log);
    }
  }
  const auto majority = static_cast<u32>(n / 2 + 1);
  if (!outbid && !crashed_ && !stopped_ && rep->promoting &&
      votes >= majority && e > rep->epoch) {
    rep->epoch = e;
    rep->primary = true;
    rep->next_seq = 1;  // the epoch prefix keeps restarted seqs unique
    rep->log = std::move(best);
    shard_rebuild(rep);  // re-arms every lease at now + lease_duration
    rep->quorum_lost_at = 0;
    rep->last_primary_contact = sim::now();
    for (u64 peer : group) {
      if (peer != id().value()) rep->peer_contact[peer] = sim::now();
    }
    if (shard < shard_epoch_.size()) {
      shard_epoch_[shard] = std::max(shard_epoch_[shard], e);
    }
    ++stats_.shard_promotions;
    sim::Engine::current()->spawn(shard_announce_actor(shard, e));
    XLOG_WARN("xemem", "%s: promoted to primary of shard %u, epoch %llu "
              "(log %zu)",
              os_.name().c_str(), shard, static_cast<unsigned long long>(e),
              rep->log.size());
  }
  rep->promoting = false;
}

sim::Task<void> XememKernel::shard_announce_actor(u32 shard, u64 epoch) {
  // Targeted one-way announce to the replica group (clients learn the
  // epoch lazily from their first stale_epoch rejection).
  const std::vector<u64> group = cfg_.ns_shards[shard];  // send() suspends
  for (u64 peer : group) {
    if (peer == id().value()) continue;
    if (crashed_ || stopped_) co_return;
    Message ann;
    ann.cmd = Cmd::shard_announce;
    ann.src = id();
    ann.dst = EnclaveId{peer};
    ann.req_id = g_req_counter++;
    ann.shard = shard;
    ann.shard_epoch = epoch;
    ChannelEndpoint* via = route_for(ann.dst);
    if (via != nullptr) co_await via->send(std::move(ann));
  }
}

// Expire leases even when no traffic arrives: the lazy sweep before every
// served command covers the common case, but a fully idle system must
// still collect its dead.
sim::Task<void> XememKernel::shard_lease_reaper(u32 shard) {
  auto it = shard_replicas_.find(shard);
  if (it == shard_replicas_.end()) co_return;
  ShardReplica* rep = it->second.get();
  for (;;) {
    co_await sim::delay(heartbeat_period());
    if (stopped_ || crashed_) co_return;
    if (shard_leases_due(*rep)) co_await shard_sweep_leases(rep);
  }
}

bool XememKernel::shard_leases_due(const ShardReplica& rep) const {
  // Expiry is a replicated decision: only a fresh primary may GC (a
  // follower's local clocks never GC anything). One sweep at a time, so
  // two detached handlers never collect the same enclave twice.
  return cfg_.lease_duration > 0 && rep.primary && !rep.sweeping &&
         shard_is_fresh(rep) && !rep.registry.expired(sim::now()).empty();
}

sim::Task<void> XememKernel::shard_sweep_leases(ShardReplica* rep) {
  rep->sweeping = true;
  for (EnclaveId enclave : rep->registry.expired(sim::now())) {
    if (crashed_ || !rep->primary) break;
    // Renewed (or already collected) while an earlier commit suspended.
    if (!rep->registry.lease_expired(enclave, sim::now())) continue;
    ShardOp op;
    op.kind = ShardOp::Kind::lease_gc;
    op.epoch = rep->epoch;
    op.owner = enclave.value();
    auto committed = co_await shard_quorum_commit(rep, &op);
    if (!committed.ok()) continue;
    enclave_map_.erase(enclave.value());
    ++stats_.leases_expired;
    XLOG_WARN("xemem", "%s: shard %u: lease of enclave %llu expired, "
              "garbage-collected its segids/names/route",
              os_.name().c_str(), rep->shard,
              static_cast<unsigned long long>(enclave.value()));
  }
  rep->sweeping = false;
}

sim::Task<void> XememKernel::shard_retire(ShardReplica* rep, EnclaveId owner) {
  ShardOp op;
  op.kind = ShardOp::Kind::lease_gc;
  op.epoch = rep->epoch;
  op.owner = owner.value();
  (void)co_await shard_quorum_commit(rep, &op);
}

void XememKernel::shard_apply(ShardReplica* rep, const ShardOp& op) {
  switch (op.kind) {
    case ShardOp::Kind::alloc:
      rep->registry.add(Segid{op.segid}, EnclaveId{op.owner}, op.size, op.name);
      if (cfg_.lease_duration > 0) {
        rep->registry.grant(EnclaveId{op.owner}, sim::now() + cfg_.lease_duration);
      }
      break;
    case ShardOp::Kind::remove:
      rep->registry.erase(Segid{op.segid});
      break;
    case ShardOp::Kind::lease_gc:
      rep->registry.erase_owner(EnclaveId{op.owner});
      break;
  }
}

void XememKernel::shard_rebuild(ShardReplica* rep) {
  rep->registry.clear();
  rep->applied = 0;
  for (const auto& op : rep->log) {
    shard_apply(rep, op);
    ++rep->applied;
  }
}

u64 XememKernel::shard_believed_epoch(u32 shard) const {
  auto it = shard_replicas_.find(shard);
  if (it != shard_replicas_.end()) return it->second->epoch;
  if (shard < shard_epoch_.size()) return std::max<u64>(shard_epoch_[shard], 1);
  return 1;
}

void XememKernel::maybe_adopt_shard_epoch(const Message& msg) {
  if (msg.shard_epoch == 0) return;
  if (msg.shard >= shard_epoch_.size()) return;
  if (msg.shard_epoch > shard_epoch_[msg.shard]) {
    shard_epoch_[msg.shard] = msg.shard_epoch;
  }
}

bool XememKernel::shard_is_fresh(const ShardReplica& rep) const {
  const auto& group = cfg_.ns_shards[rep.shard];
  const auto n = group.size();
  if (n == 1) return true;  // a replication factor of one is always "fresh"
  // "Recent" = a couple of probe cycles: within that bound a partitioned
  // minority keeps answering from possibly-stale state (retry_later tells
  // the client so), beyond it the majority side has certainly elected.
  const sim::Duration bound =
      2 * static_cast<sim::Duration>(cfg_.shard_probe_misses) *
      cfg_.shard_probe_period;
  const sim::TimePoint t = sim::now();
  if (!rep.primary) return rep.last_primary_contact + bound >= t;
  u32 heard = 1;  // self
  for (const auto& [peer, when] : rep.peer_contact) {
    if (when + bound >= t) ++heard;
  }
  return heard >= n / 2 + 1;
}

Errc XememKernel::shard_unavailable_status(ShardReplica* rep) {
  // The grace window anchors at the first observed quorum loss; any
  // successful quorum write or primary contact resets it.
  if (rep->quorum_lost_at == 0) rep->quorum_lost_at = sim::now();
  return sim::now() - rep->quorum_lost_at <= cfg_.partition_grace
             ? Errc::retry_later
             : Errc::no_quorum;
}

}  // namespace xemem
