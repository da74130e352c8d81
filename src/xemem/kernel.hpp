// The XEMEM kernel module: one instance per enclave.
//
// Implements (paper section 4):
//  * the XPMEM-compatible user API (Table 1) on top of the cross-enclave
//    protocol, with a local fast path when exporter and attacher share an
//    enclave;
//  * the hierarchical routing protocol (section 3.2): name-server
//    discovery by broadcast, enclave-ID allocation through the hierarchy,
//    per-enclave routing tables learned from forwarded responses, and
//    default routing toward the name server;
//  * the name server itself (section 3.1) when this enclave hosts it:
//    globally unique segids, segid -> owner-enclave records, and the
//    well-known-name registry that provides discoverability;
//  * export-side attachment servicing: page-table walk via the enclave
//    personality, frame pinning, PFN-list responses (section 4.2).
#pragma once

#include <algorithm>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/costs.hpp"
#include "common/stats.hpp"
#include "mm/pfn_list.hpp"
#include "os/enclave.hpp"
#include "xemem/api.hpp"
#include "xemem/channel.hpp"
#include "xemem/wire.hpp"

namespace xemem {

/// Tunable protocol policy: what some caller actually sets. The defaults
/// reproduce the historical behavior (10 s request timeout, 5 ms discovery
/// probes, a couple of retries, no leases); tests and benches tighten them
/// instead of simulating multi-second waits. Cache and table bounds are
/// fixed constants of XememKernel, and the heartbeat cadence and the retry
/// window are derived from the fields below.
struct KernelConfig {
  /// Request/response timeout before a retry (0 is normalized to this
  /// default at construction).
  sim::Duration request_timeout{10'000'000'000ull};  // 10 s
  /// Discovery probe timeout: short, so one dead neighbor cannot stall
  /// registration when another channel leads to the name server.
  sim::Duration ping_timeout{5'000'000ull};  // 5 ms
  /// Retries after the first timeout, with exponential backoff. Requests
  /// keep their req_id across retries so the receiving side's dedup cache
  /// can suppress re-execution of a command that in fact arrived.
  u32 max_retries{2};
  sim::Duration backoff_base{1'000'000ull};  // 1 ms, doubles per retry
  sim::Duration backoff_max{1'000'000'000ull};  // 1 s cap
  /// Lease an enclave holds on its name-server registration, renewed by
  /// heartbeats every lease_duration / 3 (0 = lease/heartbeat machinery
  /// disabled; crash recovery then relies solely on request timeouts).
  sim::Duration lease_duration{0};

  // ----- Sharded, quorum-replicated name service (opt-in; DESIGN.md §6c).
  // The only way the registry outlives the enclave serving it.

  /// Replica groups, one per registry shard: ns_shards[s] lists the
  /// enclave ids hosting shard s; ns_shards[s][0] is the boot primary
  /// (epoch 1), and the primary of epoch e is ns_shards[s][(e-1) % size].
  /// Groups must not contain enclave 0 (the root keeps discovery,
  /// enclave-id allocation, and routing duties). Empty = classic
  /// single-registry behavior.
  std::vector<std::vector<u64>> ns_shards;
  /// Follower -> primary liveness probe cadence (0 -> lease_duration / 3,
  /// or 10 ms when leases are off).
  sim::Duration shard_probe_period{0};
  /// Consecutive unanswered probes before a follower calls a vote.
  u32 shard_probe_misses{3};
  /// Per-replica bound on one quorum-write replication attempt, so an
  /// in-flight write outlives no crashed follower (0 -> request_timeout).
  sim::Duration quorum_timeout{0};
  /// After losing quorum (or primary contact), replicas answer
  /// Errc::retry_later for this long, then terminal Errc::no_quorum
  /// (0 -> max(lease_duration, 2 * request_timeout)).
  sim::Duration partition_grace{0};

  /// Attach fast path (opt-in, like the lease machinery: the default
  /// reproduces the cold path the paper measured; DESIGN.md §8). Turns on
  /// four layers together: attach responses charge their frames at the
  /// extent encoding (12 B/run) when that is smaller than 8 B/page; a
  /// segid -> owner cache lets repeat get/attach/detach skip the
  /// name-server hop; owners memoize (segid, window) page-table walks;
  /// and a window contained in a live attachment of the same segment is
  /// re-mapped from the frames already held, with no protocol traffic.
  bool attach_fast_path{false};

  /// Capability model (opt-in; DESIGN.md §9). Segids act as capabilities:
  /// xpmem_make mints an owner capability, cap_derive mints restricted
  /// children, get/attach validate the presented capability owner-side,
  /// and cap_revoke unmaps every live attachment under the revoked
  /// subtree. When off, the classic permit path is untouched: no cap
  /// state, no extra wire fields consulted, no per-segment accounting.
  bool capabilities{false};
};

class XememKernel {
 public:
  /// @param is_name_server  exactly one kernel per system hosts the name
  ///                        server (deployable in any enclave; section 3.2)
  XememKernel(os::Enclave& os, bool is_name_server, KernelConfig cfg = {});

  XememKernel(const XememKernel&) = delete;
  XememKernel& operator=(const XememKernel&) = delete;

  os::Enclave& os() { return os_; }
  bool is_name_server() const { return is_ns_; }
  EnclaveId id() const { return os_.id(); }

  /// Register a channel to a neighboring enclave. Call before start().
  void add_channel(ChannelEndpoint* ep);

  /// Spawn the per-channel service loops and, for non-name-server
  /// enclaves, begin name-server discovery. Must run inside a simulation.
  void start();

  /// Awaitable: completes when this enclave holds a valid enclave ID
  /// (i.e. discovery + registration finished).
  sim::Task<void> wait_registered();

  /// Graceful shutdown for dynamic repartitioning (paper section 3.2:
  /// partitions "are likely to be dynamic and will change in response to
  /// the node's workload characteristics"). Withdraws every local export
  /// from the name server and deregisters the enclave's routes. Fails with
  /// Errc::busy while any local export has outstanding attachments; the
  /// caller must quiesce its own traffic first.
  sim::Task<Result<void>> shutdown();
  bool is_shutdown() const { return stopped_; }

  /// Stop the kernel's lifetime liveness actors (heartbeat sender / lease
  /// reaper) without the graceful-shutdown protocol traffic. End-of-run
  /// teardown for experiments that must drain the engine afterwards
  /// (Engine::run_until_idle) — with leases enabled those actors
  /// otherwise reschedule forever and the heap never goes idle.
  void quiesce() { stopped_ = true; }

  /// Abrupt enclave death: the kernel goes silent mid-protocol without
  /// any goodbye traffic. Messages already in flight are ignored, local
  /// requests in progress fail with Errc::unreachable after their
  /// retries, and the enclave's pinned frames are released (the dying
  /// OS's memory is reclaimed by the node). The name server learns of
  /// the death only through lease expiry (KernelConfig::lease_duration)
  /// and then garbage-collects the enclave's segids, names, and routes.
  void crash();
  bool is_crashed() const { return crashed_; }

  /// Owner-side cleanup once an *attacher* enclave is known dead (its
  /// name-service lease expired, or an application-level protocol — e.g.
  /// the I/O cache's directory re-resolution — confirmed the crash):
  /// release every frame pinned on the dead enclave's behalf and drop the
  /// corresponding export attachment counts, so exports withdrawn later
  /// don't stay busy waiting for detaches that can never arrive. The dead
  /// enclave's own page tables are its crashed kernel's problem; only
  /// this owner's bookkeeping is touched. Returns the pins released.
  u64 reap_attacher_pins(EnclaveId attacher);

  // --------------------------------------------------------- XPMEM API

  /// Export [va, va+size) of @p owner under a fresh globally-unique segid.
  /// @p name optionally publishes the segment for xpmem_search discovery;
  /// @p max_access caps what grants may request (XPMEM permit model).
  sim::Task<Result<Segid>> xpmem_make(os::Process& owner, Vaddr va, u64 size,
                                      std::string name = "",
                                      AccessMode max_access = AccessMode::read_write);

  /// Withdraw an export. Fails with Errc::busy while attachments exist.
  sim::Task<Result<void>> xpmem_remove(os::Process& owner, Segid segid);

  /// Request permission to attach @p segid with @p want access. Fails with
  /// permission_denied if the export's max access is weaker.
  sim::Task<Result<XpmemGrant>> xpmem_get(Segid segid,
                                          AccessMode want = AccessMode::read_write);

  /// Drop a permission grant.
  sim::Task<Result<void>> xpmem_release(const XpmemGrant& grant);

  /// Map [offset, offset+size) of the granted segment into @p attacher.
  sim::Task<Result<XpmemAttachment>> xpmem_attach(os::Process& attacher,
                                                  const XpmemGrant& grant,
                                                  u64 offset, u64 size);

  /// Unmap an attachment and unpin the owner-side frames.
  sim::Task<Result<void>> xpmem_detach(os::Process& attacher,
                                       const XpmemAttachment& att);

  /// Discoverability: resolve a published name to its segid via the name
  /// server.
  sim::Task<Result<Segid>> xpmem_search(const std::string& name);

  /// Discoverability: enumerate every published (name, segid) pair known
  /// to the name server (paper section 3.1: "the name server can be
  /// queried for information regarding the existence and names of shared
  /// memory regions").
  sim::Task<Result<std::vector<std::pair<std::string, Segid>>>> xpmem_list();

  // --------------------------------------- capability model (DESIGN.md §9)

  /// The owner capability minted for a local export by xpmem_make (only
  /// when capabilities are enabled). Carries the widest rights the export
  /// allows; hand-derived children to peers instead of this.
  Result<Capability> cap_root(Segid segid) const;

  /// Strict mode for a local export: once required, capless (classic
  /// permit) get/attach of the segment are denied — every requester must
  /// present a capability. Collectives and legacy tenants keep working on
  /// segments that never call this.
  Result<void> cap_require(os::Process& owner, Segid segid);

  /// Mint a restricted child of @p parent. @p rights may only narrow:
  /// access <= parent access, window within the parent window, and the
  /// transferable/derivable bits only clearable — escalation attempts fail
  /// with Errc::permission_denied. @p holder optionally binds the child to
  /// one enclave (enforced when the parent is non-transferable semantics
  /// demand it; 0 = any holder). Served by the segment owner; dedup-safe
  /// on retry (a retried derive mints once).
  sim::Task<Result<Capability>> cap_derive(const Capability& parent,
                                           CapRights rights, u64 holder = 0);

  /// Revoke @p cap and its whole derivation subtree. Live attachments
  /// minted under the subtree are unmapped everywhere: owner pins release,
  /// attacher PTEs clear, route/walk/reuse caches flush. Idempotent; a
  /// revoked root leaves the segment reachable only by... nobody.
  sim::Task<Result<void>> cap_revoke(const Capability& cap);

  /// xpmem_get presenting a capability: the grant (and every attach under
  /// it) is bound to the capability's rights, validated owner-side.
  sim::Task<Result<XpmemGrant>> xpmem_get(const Capability& cap,
                                          AccessMode want = AccessMode::read_write);

  // -------------------------------------------------------- diagnostics

  /// Pinned frames currently held on behalf of remote/local attachers.
  u64 pinned_frames() const;
  /// Known enclave-id -> channel routes (learned from forwarded traffic).
  u64 known_routes() const { return enclave_map_.size(); }
  bool knows_route(EnclaveId e) const { return enclave_map_.contains(e.value()); }
  u64 exports_live() const { return exports_.size(); }
  /// Forwarded requests still awaiting a response to retrace (each entry
  /// expires after retry_window(); see the orphan-response expiry logic).
  u64 pending_forwards() const { return pending_fwd_.size(); }
  /// Name-server registry sizes (0 on non-name-server kernels).
  u64 ns_segid_count() const { return ns_segids_.size(); }
  u64 ns_name_count() const { return ns_names_.size(); }
  /// Whether the name server currently holds a live lease for @p e.
  bool ns_has_lease(EnclaveId e) const { return ns_leases_.contains(e.value()); }
  /// Attach fast-path cache occupancy (invalidation tests assert these
  /// drain back to zero after remove/crash/lease expiry).
  u64 owner_cache_entries() const { return owner_cache_.size(); }
  bool knows_owner(Segid s) const { return owner_cache_.contains(s.value()); }
  u64 walk_cache_entries() const { return walk_cache_.size(); }
  u64 attach_cache_entries() const { return attach_cache_.size(); }
  /// Discovery terminally exhausted every probe round without finding a
  /// name server; NS-bound requests now fail fast with no_name_server.
  bool ns_lost() const { return ns_lost_; }
  /// Registration gave up: the enclave never obtained an id (fully
  /// partitioned, or the name server died mid-registration).
  bool registration_failed() const { return ns_lost_ && !id().valid(); }

  /// Deterministic crashpoint hook: crash() this (name-server) kernel
  /// immediately before executing its @p n-th name-server command. The
  /// crashpoint-sweep harness enumerates every protocol step this way
  /// (0 disables the hook).
  void crash_after_ns_requests(u64 n) { crash_after_ns_requests_ = n; }
  /// Same hook for shard replicas: crash() immediately before this
  /// replica's @p n-th shard-service command (any role, any shard hosted
  /// here). Extends the crashpoint sweep to shard primaries and followers.
  void crash_after_shard_requests(u64 n) { crash_after_shard_requests_ = n; }
  /// Same hook for the capability protocol: crash() this (owner) kernel
  /// immediately before serving its @p n-th capability-relevant command
  /// (cap_derive/cap_revoke, and get/attach presented with a capability).
  /// Drives the revocation crashpoint sweep (0 disables).
  void crash_after_cap_requests(u64 n) { crash_after_cap_requests_ = n; }

  // -------------------------------------- capability diagnostics (§9)

  /// Per-segment accounting surfaced in bounded memory (kCapAccountingCap
  /// segments): counters survive slot eviction only as the aggregate
  /// Stats.
  struct SegAccounting {
    u64 live_attaches{0};  ///< attachments currently served by the owner
    u64 derived_caps{0};   ///< children minted under the segment's tree
    u64 revocations{0};    ///< revoke operations applied
    u64 denials{0};        ///< get/attach/derive rejected by cap checks
  };
  /// Accounting for @p segid (zeros if unknown/evicted).
  SegAccounting cap_accounting(Segid segid) const;
  /// Live (non-revoked) nodes in a local segment's derivation tree.
  u64 cap_count(Segid segid) const;
  /// Revoked-capability tombstones held attacher-side (bounded).
  u64 revoked_cap_count() const { return revoked_caps_.size(); }

  // ------------------------------------------ shard diagnostics (§6c)

  /// Whether the sharded name service is configured on this kernel.
  bool sharding_enabled() const { return !cfg_.ns_shards.empty(); }
  /// Whether this enclave hosts a replica of shard @p s.
  bool hosts_shard(u32 s) const { return shard_replicas_.contains(s); }
  /// Whether this replica currently believes it is shard @p s's primary.
  bool is_shard_primary(u32 s) const {
    auto it = shard_replicas_.find(s);
    return it != shard_replicas_.end() && it->second->primary;
  }
  /// The shard epoch this replica of @p s is in (0 if not hosted here).
  u64 shard_epoch_of(u32 s) const {
    auto it = shard_replicas_.find(s);
    return it != shard_replicas_.end() ? it->second->epoch : 0;
  }
  /// Registry view / op-log sizes of the local replica of shard @p s.
  u64 shard_segid_count(u32 s) const {
    auto it = shard_replicas_.find(s);
    return it != shard_replicas_.end() ? it->second->segids.size() : 0;
  }
  u64 shard_log_size(u32 s) const {
    auto it = shard_replicas_.find(s);
    return it != shard_replicas_.end() ? it->second->log.size() : 0;
  }
  /// Dedup-cache occupancy (bounded by kDedupCacheCap and retry_window()).
  u64 dedup_entries() const { return dedup_.size(); }

  const KernelConfig& config() const { return cfg_; }

  /// Introspection counters (the /proc/xemem-style view a real module
  /// would expose). Monotonic over the kernel's lifetime.
  struct Stats {
    u64 makes{0};            ///< segments exported by local processes
    u64 attaches_served{0};  ///< attach requests serviced as owner
    u64 attaches_issued{0};  ///< attach requests issued as attacher
    u64 pages_shared{0};     ///< pages pinned on behalf of attachers (gross)
    u64 messages_forwarded{0};  ///< routed on behalf of other enclaves
    u64 ns_requests{0};      ///< commands processed as name server
    u64 timeouts{0};         ///< request attempts that expired unanswered
    u64 retries{0};          ///< request re-sends after a timeout
    u64 dup_suppressed{0};   ///< duplicate deliveries answered from cache
    u64 leases_expired{0};   ///< enclaves garbage-collected as name server
    u64 fwd_expired{0};      ///< forwarded requests whose response never came
    u64 local_attaches{0};   ///< same-enclave attaches (local fast path)
    u64 lookup_cache_hits{0};///< requests routed via the segid->owner cache
    u64 walk_cache_hits{0};  ///< attaches served from a memoized walk
    u64 reuse_hits{0};       ///< attaches satisfied from already-held frames
    u64 extents_shipped{0};  ///< extent records sent in attach responses
    u64 wire_bytes_saved{0}; ///< flat-PFN bytes avoided by extent encoding
    u64 epoch_rejects{0};    ///< stale-epoch commands rejected as a replica
    u64 dedup_evictions{0};  ///< dedup-cache entries evicted (cap or TTL)
    u64 shard_requests{0};   ///< commands processed as a shard replica
    u64 quorum_writes{0};    ///< shard writes committed with majority acks
    u64 quorum_fails{0};     ///< shard writes that missed their majority
    u64 replications{0};     ///< ops applied from a primary's replicate
    u64 catchups{0};         ///< log-suffix syncs absorbed as a follower
    u64 shard_promotions{0}; ///< elections won as a shard replica
    u64 not_primary_rejects{0};  ///< writes bounced because we follow
    u64 no_quorum_rejects{0};    ///< terminal rejections past the grace
    u64 caps_minted{0};      ///< owner capabilities minted by xpmem_make
    u64 caps_derived{0};     ///< children minted by cap_derive
    u64 revocations{0};      ///< cap_revoke operations applied as owner
    u64 cap_denials{0};      ///< get/attach/derive rejected by cap checks
    u64 revoke_unmaps{0};    ///< live attachments torn down by revocation
    u64 heartbeats_sent{0};  ///< lease-renewal messages put on the wire
  };
  const Stats& stats() const { return stats_; }

 private:
  // Fixed bounds (FIFO or LRU eviction past each).
  static constexpr u64 kWalkCacheCap = 64;      ///< memoized owner-side walks
  static constexpr u64 kOwnerCacheCap = 1024;   ///< segid -> owner entries
  static constexpr u64 kDedupCacheCap = 1024;   ///< remembered responses
  static constexpr u64 kCapTableCap = 256;      ///< derivation nodes per segment
  static constexpr u64 kCapAccountingCap = 1024;  ///< accounting/tombstone slots
  /// Discovery gives up after this many full probe sweeps with no path to
  /// a name server and surfaces Errc::no_name_server (DESIGN.md §6b).
  static constexpr u32 kDiscoveryMaxRounds = 512;

  /// Lease renewal cadence: three heartbeats per lease.
  sim::Duration heartbeat_period() const {
    return std::max<sim::Duration>(cfg_.lease_duration / 3, 1);
  }
  /// How long a request can still be retried: a forwarder's pending entry
  /// and a served response in the dedup cache are kept this long.
  sim::Duration retry_window() const {
    return 2 * (cfg_.request_timeout + cfg_.backoff_max);
  }

  struct ExportRecord {
    os::Process* proc;
    Vaddr va;
    u64 pages;
    std::string name;
    AccessMode max_access{AccessMode::read_write};
    u64 attachments{0};  // outstanding attach count (blocks remove)
    u64 grants{0};
    bool removing{false};  // remove in flight: new gets/attaches refused so
                           // none can slip in while the remove awaits the
                           // name-service deregistration
  };

  struct PinRecord {
    Segid segid;
    mm::PfnList frames;
    u64 cap{0};  ///< capability the attach was validated under (0 = classic)
    EnclaveId attacher{EnclaveId::invalid()};  ///< who holds the mapping
  };

  // ------------------------------------------- capability model (§9)

  /// One node of a segment's derivation tree (owner-side authoritative
  /// state). Rights are stored absolute (windows in segment coordinates),
  /// so validation never needs to walk ancestors.
  struct CapNode {
    u64 id{0};
    u64 parent{0};  ///< 0 for the root
    CapRights rights{};
    u64 holder{0};  ///< enclave bound to a non-transferable cap (0 = any)
    bool revoked{false};
    u64 live_attaches{0};  ///< owner-served attaches charged to this node
    std::vector<u64> children;
  };

  struct CapTree {
    u64 root{0};
    bool require_cap{false};  ///< deny capless get/attach (strict mode)
    std::unordered_map<u64, CapNode> nodes;
  };

  // Name-server global state.
  struct NsSegidRecord {
    EnclaveId owner;
    u64 size;
    std::string name;
  };

  // ----------------------------------------- sharded name service (§6c)

  /// One entry of a shard's replicated op log. The log is the durable
  /// truth: every replica's registry view is a pure replay of its log
  /// prefix, so follower catch-up and post-election adoption are log
  /// copies.
  struct ShardOp {
    enum class Kind : u8 { alloc = 1, remove = 2, lease_gc = 3 };
    Kind kind{Kind::alloc};
    u64 epoch{0};  ///< shard epoch whose primary appended it
    u64 segid{0};  ///< alloc/remove target (lease_gc: unused)
    u64 size{0};
    u64 owner{0};  ///< owning enclave (lease_gc: the expired enclave)
    std::string name;
  };

  /// Per-shard replica state. Heap-allocated (unique_ptr) so suspended
  /// quorum/vote coroutines can hold stable pointers across map growth.
  struct ShardReplica {
    u32 shard{0};
    u32 self_index{0};  ///< position in cfg_.ns_shards[shard]
    u64 epoch{1};       ///< current shard epoch (primary = group[(e-1)%n])
    u64 promised{0};    ///< highest vote proposal promised to
    bool primary{false};
    bool promoting{false};
    std::vector<ShardOp> log;
    u64 applied{0};   ///< log prefix materialized into the view below
    u64 next_seq{1};  ///< per-epoch mint counter (segid seq = seq*S + shard)
    // Registry view: a replay of the log prefix.
    std::unordered_map<u64, NsSegidRecord> segids;
    std::unordered_map<std::string, Segid> names;
    std::unordered_map<u64, sim::TimePoint> leases;  // owner -> expiry
    // Liveness bookkeeping: when each peer replica was last heard from
    // (probe answers, replicate acks, votes) and, on followers, when the
    // primary last proved itself. Drives read-freshness and the
    // retry_later -> no_quorum partition transition.
    std::unordered_map<u64, sim::TimePoint> peer_contact;
    sim::TimePoint last_primary_contact{0};
    sim::TimePoint quorum_lost_at{0};  ///< first failed write (0 = healthy)
    sim::Mutex write_mutex;  ///< quorum writes serialize per shard
  };

  /// Shared fan-out state of one quorum write (heap-shared with the
  /// per-follower replication tasks, which may outlive the commit wait).
  struct QuorumRound {
    u32 acks{1};  ///< self-ack included
    u32 done{1};
    u32 total{0};
    u32 majority{0};
    sim::Event settled;
  };

  // ------------------------------------------------------------ plumbing

  sim::Task<void> service_loop(ChannelEndpoint* ep);
  sim::Task<void> handle(Message msg, ChannelEndpoint* from);
  sim::Task<void> discovery();
  sim::Task<void> heartbeat_actor();
  sim::Task<void> lease_reaper();

  /// Send a request and await its correlated response, retrying with
  /// exponential backoff on timeout (@p max_retries overrides the config;
  /// -1 = use config, 0 = single attempt). Retries reuse the req_id so
  /// receiver-side dedup caches suppress double execution. @p via
  /// overrides route selection (used by discovery probes). @p timeout
  /// bounds each attempt (0 = config request_timeout); exhaustion returns
  /// Errc::unreachable, invalidates any learned route to the destination,
  /// and a late response is dropped as a duplicate.
  sim::Task<Result<Message>> request(Message msg);
  sim::Task<Result<Message>> request(Message msg, ChannelEndpoint* via,
                                     sim::Duration timeout = 0,
                                     i32 max_retries = -1);
  static sim::Task<void> timeout_actor(XememKernel* k, u64 rid, sim::Duration t);
  /// Send an owner-side response toward its requester.
  sim::Task<void> route_response(Message resp, ChannelEndpoint* from);
  /// Forward @p msg toward msg.dst (or toward the name server).
  sim::Task<void> forward(Message msg, ChannelEndpoint* from);
  /// Request routed to the owner of msg.segid. On a normal enclave this
  /// just addresses the name server; on the name-server enclave itself it
  /// resolves the owner locally and routes directly.
  sim::Task<Result<Message>> request_to_owner(Message msg);
  /// Next hop toward @p dst: a learned route, else the default route
  /// toward the name server. A sharded kernel's own id maps to
  /// self_channel_, so a replica host serves its own shard requests.
  ChannelEndpoint* route_for(EnclaveId dst);

  u64 fresh_req_id() { return (id().value() << 32) | next_req_++; }

  // Name-server command handling (only when is_ns_).
  sim::Task<void> ns_handle(Message msg, ChannelEndpoint* from);

  // ----- Sharded name service plumbing (DESIGN.md §6c).
  /// Commands a client addresses to a shard (as opposed to the replica
  /// group's internal protocol traffic).
  static bool is_shard_client_cmd(Cmd c);
  /// The replica-group protocol commands themselves.
  static bool is_shard_service_cmd(Cmd c);
  /// Install local ShardReplica state and actors once registered.
  sim::Task<void> shard_bootstrap_actor();
  /// One-way announce of this enclave's id on every channel after
  /// registration, so directly linked peers learn each other's routes and
  /// shard traffic need not detour through the management hub.
  sim::Task<void> hello_actor();
  /// Shard-op wire codec: 5 u64s per op in payload (kind, epoch, segid,
  /// size, owner) plus one '\n'-separated name field per op.
  static void encode_shard_ops(const std::vector<ShardOp>& ops, Message* m);
  static std::vector<ShardOp> decode_shard_ops(const Message& m);
  static bool same_shard_op(const ShardOp& a, const ShardOp& b);
  /// Serve one shard-addressed command on a hosted replica.
  sim::Task<void> shard_handle(Message msg, ChannelEndpoint* from);
  /// Append @p op, replicate to the group, apply on majority ack.
  /// Returns retry_later/no_quorum on a missed majority.
  sim::Task<Result<void>> shard_quorum_commit(ShardReplica* rep, ShardOp op);
  static sim::Task<void> shard_replicate_to(XememKernel* k, ShardReplica* rep,
                                            u64 peer, u64 index, ShardOp op,
                                            std::shared_ptr<QuorumRound> round);
  /// Follower-side probe of the believed primary; calls a vote on misses.
  sim::Task<void> shard_probe_actor(u32 shard);
  sim::Task<void> shard_try_promote(u32 shard);
  sim::Task<void> shard_announce_actor(u32 shard, u64 epoch);
  /// Primary-side lease sweep: expiries become quorum-committed lease_gc
  /// ops so followers GC the same enclaves at the same log index.
  sim::Task<void> shard_lease_reaper(u32 shard);
  /// Apply one committed op to the replica's registry view.
  void shard_apply(ShardReplica* rep, const ShardOp& op);
  /// Rebuild the view by replaying the whole log (conflict truncation,
  /// post-election adoption).
  void shard_rebuild(ShardReplica* rep);
  /// Client-side believed epoch for @p shard (local replica knows best).
  u64 shard_believed_epoch(u32 shard) const;
  void maybe_adopt_shard_epoch(const Message& msg);
  /// Read-freshness: this replica has heard from a majority (primary) or
  /// its primary (follower) recently enough to answer authoritatively.
  bool shard_is_fresh(const ShardReplica& rep) const;
  /// retry_later inside the partition grace window, no_quorum after it.
  Errc shard_unavailable_status(ShardReplica* rep);

  // Per-command idempotency: responses are remembered by req_id so a
  // retried command that actually arrived is answered from the cache
  // instead of executing twice (double-pinning frames, leaking segids).
  // LRU + idle-TTL bounded (satellite: dedup_evictions accounting).
  bool dedup_hit(u64 rid, Message* out);
  void dedup_store(u64 rid, const Message& resp);
  void prune_dedup();
  // Lease bookkeeping (name-server side; no-ops when leases disabled).
  void ns_touch_lease(EnclaveId e);
  void ns_gc_expired_leases();
  // Expire forwarded-request entries whose response never arrived.
  void prune_pending_fwd();

  // Owner-side servicing of attach/detach/get for local exports.
  sim::Task<Message> serve_get(const Message& msg);
  sim::Task<Message> serve_attach(const Message& msg);
  sim::Task<Message> serve_detach(const Message& msg);

  // ----- Capability plumbing (DESIGN.md §9).
  /// Owner-side: is @p c one of the capability-protocol commands served by
  /// the export's enclave (rides the same segid routing as get/attach)?
  static bool is_cap_cmd(Cmd c);
  /// Deterministic sparse cap-id mint (splitmix64 over a per-kernel
  /// counter; never 0, retried on intra-tree collision).
  u64 mint_cap_id(CapTree& tree);
  /// Resolve + validate a presented capability for @p segid. cap_id 0
  /// resolves to the root unless the tree requires explicit caps.
  /// @p attaching additionally checks the window ([offset,offset+size))
  /// and the attach-count limit. Returns ok and sets @p out on success;
  /// denials bump cap_denials accounting.
  Errc cap_check(u64 segid, u64 cap_id, EnclaveId presenter, AccessMode want,
                 u64 offset, u64 size, bool attaching, CapNode** out);
  /// Owner-side derive core, shared by the local API fast path and
  /// serve_cap_derive.
  Result<Capability> cap_derive_local(u64 segid, u64 parent_id,
                                      EnclaveId presenter, CapRights rights,
                                      u64 holder);
  sim::Task<Message> serve_cap_derive(const Message& msg);
  /// Owner-side revoke: mark the subtree, release pins, notify attachers.
  sim::Task<Message> serve_cap_revoke(const Message& msg);
  /// Attacher-side handling of the owner's one-way revocation fan-out.
  sim::Task<void> apply_cap_revoked(Message msg);
  /// Attacher-side local teardown of every mapping under (segid, handle).
  sim::Task<void> unmap_revoked_handle(u64 segid, u64 handle);
  /// Record a revoked cap id / owner handle in the bounded tombstone sets.
  void tombstone_cap(u64 cap_id);
  void tombstone_handle(u64 segid, u64 handle);
  bool handle_revoked(u64 segid, u64 handle) const {
    return revoked_handles_.contains({segid, handle});
  }
  /// Deterministic crashpoint: consume the cap-request countdown; true
  /// means the kernel just crashed and the caller must go silent.
  bool cap_crashpoint(const Message& msg);
  /// Per-segment accounting slot (bounded map).
  SegAccounting& cap_acct(u64 segid);

  // Pin bookkeeping works run-at-a-time.
  void pin_frames(const mm::PfnList& frames);
  void unpin_frames(const mm::PfnList& frames);

  // Puts @p frames on an attach response. With the attach fast path, the
  // wire charges the runs instead of 8 B/page whenever that is smaller, and
  // the savings are accounted.
  void ship_frames(Message& resp, const mm::PfnList& frames);
  void cache_owner(Segid segid, EnclaveId owner);
  void drop_owner_cache(Segid segid);
  void drop_owner_cache_for(EnclaveId dead);
  void drop_walk_cache(Segid segid);

  os::Enclave& os_;
  const bool is_ns_;
  KernelConfig cfg_;
  bool started_{false};
  bool stopped_{false};
  bool crashed_{false};
  Stats stats_;

  std::vector<ChannelEndpoint*> channels_;
  ChannelEndpoint* ns_channel_{nullptr};  // next hop toward the name server
  LoopbackEndpoint self_channel_;  // sharded only: requests to our own replicas
  std::unordered_map<u64, ChannelEndpoint*> enclave_map_;  // id -> channel
  std::unordered_map<u64, ChannelEndpoint*> pending_fwd_;  // req_id -> came-from
  std::deque<std::pair<u64, sim::TimePoint>> fwd_log_;  // insertion order/time
  std::unordered_map<u64, sim::Mailbox<Message>*> pending_resp_;
  // Requests this kernel completed (response consumed); late duplicate
  // responses to them are counted, not warned about. Bounded by the same
  // cap/TTL policy as the dedup cache.
  std::unordered_map<u64, u8> completed_reqs_;
  std::deque<std::pair<u64, sim::TimePoint>> completed_log_;
  // Served-response cache for duplicate-request suppression: LRU order in
  // dedup_lru_ (front = least recently touched), idle TTL per entry.
  struct DedupEntry {
    Message resp;
    sim::TimePoint touched;
    std::list<u64>::iterator pos;
  };
  std::unordered_map<u64, DedupEntry> dedup_;
  std::list<u64> dedup_lru_;
  sim::Event registered_;

  // Local exports (this enclave's processes) keyed by segid.
  std::unordered_map<u64, ExportRecord> exports_;
  // Owner-side pins keyed by handle.
  std::unordered_map<u64, PinRecord> pins_;

  // ----------------------------------------------- attach fast-path state
  // segid -> owning enclave, learned from successful responses. A stale
  // entry is harmless: a direct request that fails (or answers
  // no_such_segid) drops the entry and falls back to the authoritative
  // name-server route.
  std::unordered_map<u64, EnclaveId> owner_cache_;
  std::deque<u64> owner_fifo_;
  // Owner-side memoized page-table walks keyed (segid, page_off, pages).
  // Segids are globally unique and never recycled, so entries can only go
  // stale via xpmem_remove/crash — both flush them.
  std::map<std::tuple<u64, u64, u64>, mm::PfnList> walk_cache_;
  std::deque<std::tuple<u64, u64, u64>> walk_fifo_;
  // Attacher-side live remote attachments keyed (segid, owner pin handle),
  // for containment-based mapping reuse. refs counts local attachments
  // sharing the one owner-side pin; the last detach releases it remotely.
  struct ReuseEntry {
    u64 page_off;
    u64 pages;
    mm::PfnList frames;
    EnclaveId owner;
    u64 refs;
    u64 cap{0};  ///< capability the cached mapping was granted under
  };
  std::map<std::pair<u64, u64>, ReuseEntry> attach_cache_;

  // ------------------------------------------- capability state (§9)
  // Owner-side derivation trees keyed by segid (local exports only).
  std::unordered_map<u64, CapTree> cap_trees_;
  u64 next_cap_seq_{1};
  // Attacher-side record of every local mapping made under a capability,
  // keyed (segid, owner handle): the revocation fan-out tears these down
  // without the application's cooperation.
  struct CapMapRec {
    os::Process* proc;
    Vaddr map_base;
    u64 pages;
  };
  std::map<std::pair<u64, u64>, std::vector<CapMapRec>> cap_maps_;
  // Bounded tombstones: caps/handles known revoked, so later get/attach
  // fail fast locally and detach of a dead handle stays silent.
  BoundedAccountingMap<u64, u8> revoked_caps_{kCapAccountingCap};
  struct PairHash {
    size_t operator()(const std::pair<u64, u64>& p) const {
      return std::hash<u64>()(p.first * 0x9e3779b97f4a7c15ull ^ p.second);
    }
  };
  BoundedAccountingMap<std::pair<u64, u64>, u8, PairHash> revoked_handles_{
      kCapAccountingCap};
  // Per-segment accounting (bounded).
  BoundedAccountingMap<u64, SegAccounting> cap_accounting_{kCapAccountingCap};
  u64 crash_after_cap_requests_{0};
  u64 cap_requests_seen_{0};

  u64 next_handle_{1};
  u32 next_req_{1};

  // Name-server state.
  u64 next_segid_{1};
  u64 next_enclave_id_{1};  // 0 is the name server itself
  std::unordered_map<u64, NsSegidRecord> ns_segids_;
  std::unordered_map<std::string, Segid> ns_names_;
  std::unordered_map<u64, sim::TimePoint> ns_leases_;  // enclave -> expiry

  // ------------------------------------------- name-server death (§6b)
  bool ns_lost_{false};      // discovery terminally exhausted
  bool discovering_{false};  // a discovery() actor is already running
  u64 crash_after_ns_requests_{0};

  // ------------------------------------------- sharded name service state
  // Replicas this enclave hosts, keyed by shard. Never erased (crash()
  // included): suspended quorum/vote coroutines hold ShardReplica*.
  std::unordered_map<u32, std::unique_ptr<ShardReplica>> shard_replicas_;
  // Client-side believed shard epochs (index = shard; boot epoch 1).
  std::vector<u64> shard_epoch_;
  u64 shard_rr_{0};  // round-robin spreader for unnamed exports
  u64 crash_after_shard_requests_{0};
};

}  // namespace xemem
