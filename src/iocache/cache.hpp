// Cross-enclave burst-buffer block cache over XEMEM segments.
//
// The ROADMAP's I/O-cache workload family, made concrete: cache-server
// enclaves hold parallel-filesystem blocks in node-local memory and share
// them with every job (enclave) on the node, bbThemis-style. All data
// moves through ordinary XEMEM exports — the cache is a *composition* on
// top of the kernel API, not a kernel feature:
//
//   * each server exports one **directory segment** (a named, attachable
//     table of per-block entries: segid, capability, version, state) plus
//     one anonymous **data segment per resident block**;
//   * clients attach the directory once, then resolve blocks by reading
//     entries through shared memory and **attach-on-read** the block
//     segments they touch, caching the attachment for re-reads;
//   * writes go straight through the attachment (zero-copy); the client
//     marks the block dirty via its request ring and the server writes it
//     back to the modeled backing store (on eviction, or periodically);
//   * misses are requested through a per-client SPSC request ring (the
//     ring lives in client memory; the server attaches it), fetched from
//     the backing store under hw-charged latency/bandwidth, and published
//     by a directory-entry update the polling client observes;
//   * eviction is lease-guarded: with capabilities on, the server revokes
//     the per-block client capability (`cap_revoke` live-unmaps every
//     attacher, exact counts in Stats::revoke_unmaps); with capabilities
//     off, clients renew per-block leases on every access and promise to
//     detach at expiry, so the server waits leases out before reclaiming;
//   * the directory is sharded across servers by block id for multi-server
//     scaling; each shard evicts independently under its own capacity;
//   * a crashed server takes every resident block (and the directory) with
//     it: clients take terminal faults on cached handles, poll the name
//     service until a recovery server re-exports the directory under a
//     fresh segid, and re-resolve against a cold cache.
//
// See DESIGN.md §11 for the protocol walk-through and crash semantics, and
// src/iocache/replay.hpp for the darshan-log-shaped access families that
// drive it.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/costs.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/shared_resource.hpp"
#include "sim/sync.hpp"
#include "xemem/ring.hpp"
#include "xemem/system.hpp"

namespace xemem::iocache {

// ------------------------------------------------------------ wire formats

/// Directory-entry lifecycle, as published in the shared directory segment.
enum : u64 {
  kStateInvalid = 0,   ///< not cached; a FETCH will load it
  kStateLoading = 1,   ///< fetch in flight; poll until ready
  kStateReady = 2,     ///< resident; entry carries segid/cap/version
  kStateEvicting = 3,  ///< being reclaimed; treat as a miss in progress
};

/// One directory entry as laid out in the directory segment (32 B/block,
/// entry i at byte offset i * sizeof(DirEntry)).
struct DirEntry {
  u64 segid{0};    ///< data segment of the resident block (0 = none)
  u64 cap{0};      ///< derived client capability (0 = classic permits)
  u64 version{0};  ///< bumped on every (re)load and every eviction
  u64 state{kStateInvalid};
};
static_assert(sizeof(DirEntry) == 32, "directory entry layout is wire format");

/// Request-ring opcodes (client -> server, via the client's SPSC ring).
enum : u32 {
  kOpFetch = 1,      ///< miss: load the block from the backing store
  kOpTouch = 2,      ///< warm access: recency bump + lease renewal (a hit)
  kOpMarkDirty = 3,  ///< write-back intent for the given version
  kOpLease = 4,      ///< lease registration after a cold attach (not a hit)
};

/// One request-ring record.
struct RingOp {
  u32 op{0};
  u32 client{0};
  u64 block{0};
  u64 stamp{0};  ///< lease expiry (fetch/touch/lease) or version (dirty)
};
static_assert(sizeof(RingOp) == 24);

// ------------------------------------------------------------ configuration

enum class EvictPolicy { lru, clock };

struct Config {
  std::string name_prefix{"iocache"};
  u64 block_bytes{64_KiB};
  u64 file_blocks{64};      ///< backing-store object count (directory size)
  u64 capacity_blocks{16};  ///< per-server resident-block capacity
  u32 num_servers{1};       ///< directory shards (block -> block % servers)
  u32 num_clients{1};
  bool use_capabilities{false};  ///< eviction revokes instead of lease-waits
  EvictPolicy policy{EvictPolicy::lru};
  sim::Duration block_lease{400_us};   ///< attacher lease per block (lease mode)
  sim::Duration poll_interval{5_us};   ///< ring poll / directory poll cadence
  sim::Duration fetch_retry{200_us};   ///< client re-pushes FETCH past this
  sim::Duration fetch_deadline{8_ms};  ///< miss unserved this long => server
                                       ///  presumed dead; re-resolve by name
  sim::Duration reresolve_patience{15_ms};  ///< re-resolution accepts the
                                            ///  *same* directory segid after
                                            ///  this long: a dead server's
                                            ///  name would have been lease-
                                            ///  GC'd by now, so a persisting
                                            ///  name means slow, not dead
  sim::Duration flush_period{0};       ///< background write-back cadence
                                       ///  (0 = write back only on eviction)
  u64 ring_pages{4};        ///< request-ring region size (1 header page)
  u32 ring_slot_bytes{32};  ///< >= sizeof(u32) + sizeof(RingOp)

  u32 shard_of(u64 block) const { return static_cast<u32>(block % num_servers); }
  std::string dir_name(u32 shard) const {
    return name_prefix + "/dir/" + std::to_string(shard);
  }
  std::string ring_name(u32 shard, u32 client) const {
    return name_prefix + "/ring/" + std::to_string(shard) + "/" +
           std::to_string(client);
  }
  u64 dir_bytes() const {
    return page_align_up(file_blocks * sizeof(DirEntry));
  }
  u64 ring_bytes() const { return ring_pages * kPageSize; }
};

// ------------------------------------------------------------ backing store

/// The modeled parallel filesystem behind the cache. Content is one u64
/// stamp per block (enough to verify end-to-end data paths); time is
/// charged for real: per-op latency plus block_bytes through a shared
/// bandwidth resource, so concurrent fetches from several servers contend
/// for the node's external I/O path like they would on hardware.
class BackingStore {
 public:
  BackingStore(u64 file_blocks, u64 seed,
               double bytes_per_ns = costs::kPfsBytesPerNs)
      : bw_(bytes_per_ns), stamps_(file_blocks) {
    for (u64 b = 0; b < file_blocks; ++b) stamps_[b] = seed ^ (b * 0x9e37ull);
  }

  sim::Task<u64> read_block(u64 block, u64 bytes) {
    ++reads_;
    co_await sim::delay(costs::kPfsReadLatency);
    co_await bw_.transfer(bytes);
    co_return stamps_.at(block);
  }

  sim::Task<void> write_block(u64 block, u64 bytes, u64 stamp) {
    ++writes_;
    co_await sim::delay(costs::kPfsWriteLatency);
    co_await bw_.transfer(bytes);
    stamps_.at(block) = stamp;
  }

  u64 stamp(u64 block) const { return stamps_.at(block); }
  u64 reads() const { return reads_; }
  u64 writes() const { return writes_; }

 private:
  sim::SharedBandwidth bw_;
  std::vector<u64> stamps_;
  u64 reads_{0};
  u64 writes_{0};
};

// ------------------------------------------------------------ cache server

/// One directory shard: exports the directory + per-block data segments,
/// polls client request rings, fetches misses, evicts under capacity with
/// lease-guarded (or capability-revoking) reclaim, and writes dirty blocks
/// back to the backing store.
class CacheServer {
 public:
  CacheServer(XememKernel& kernel, os::Enclave& os, u32 shard, Config cfg,
              BackingStore& store);

  /// Export the directory, attach every client's request ring, start the
  /// poll (and optional flush) actors. With @p takeover, retries the
  /// directory export until the name service has garbage-collected a
  /// crashed predecessor's name (recovery path).
  sim::Task<Result<void>> start(bool takeover = false);

  /// Orderly shutdown: flush dirty blocks, reclaim every resident block,
  /// withdraw the directory. Clients should have detached first.
  sim::Task<Result<void>> stop();

  /// Deterministic crashpoint: crash the hosting kernel on the N-th
  /// eviction/write-back protocol step (1-based; 0 disables). Mirrors the
  /// kernel's crash_after_* hooks: the step is consumed before executing.
  void crash_after_evict_steps(u64 n) { evict_crash_at_ = n; }
  u64 evict_steps() const { return evict_steps_; }

  const IoCacheStats& stats() const { return stats_; }
  u64 resident_blocks() const { return resident_.size(); }
  u64 dirty_blocks() const { return dirty_count_; }
  XememKernel& kernel() { return kernel_; }

 private:
  struct BlockMeta {
    u64 slot{0};  ///< arena slot index (va = arena base + slot * block)
    u64 version{0};
    Segid segid{};
    Capability client_cap{};  ///< derived cap published to clients
    bool dirty{false};
    bool referenced{false};          ///< clock second-chance bit
    u64 last_touch{0};               ///< LRU tick
    sim::TimePoint lease_until{0};   ///< latest attacher lease expiry
  };

  Vaddr dir_va() const { return proc_->image_base(); }
  Vaddr slot_va(u64 slot) const {
    return proc_->image_base() + cfg_.dir_bytes() + slot * cfg_.block_bytes;
  }

  Result<void> write_entry(u64 block, const DirEntry& e);
  Result<DirEntry> read_entry(u64 block) const;

  sim::Task<void> poll_loop();
  sim::Task<void> flush_loop();
  sim::Task<void> handle_fetch(u64 block, u64 lease_stamp);
  /// Reclaim one resident block (the eviction protocol). Caller holds mu_.
  sim::Task<Result<void>> evict_one();
  /// Flush @p block's stamp to the backing store. Caller holds mu_.
  sim::Task<Result<void>> writeback(u64 block, BlockMeta& meta);
  u64 pick_victim();
  /// Crashpoint bookkeeping; true = the kernel just crashed, abort.
  bool evict_crashpoint();
  bool dead() const { return kernel_.is_crashed() || stopped_; }

  XememKernel& kernel_;
  os::Enclave& os_;
  u32 shard_;
  Config cfg_;
  BackingStore& store_;

  os::Process* proc_{nullptr};
  Segid dir_segid_{};
  std::map<u64, BlockMeta> resident_;  ///< ordered: deterministic victims
  std::vector<u64> free_slots_;
  u64 version_seq_{0};
  u64 touch_tick_{0};
  u64 clock_hand_{0};
  u64 dirty_count_{0};
  sim::Mutex mu_;  ///< serializes fetch + eviction + flush mutations

  struct ClientRing {
    XpmemGrant grant{};
    XpmemAttachment att{};
    std::unique_ptr<shm::RingConsumer> ring;
  };
  std::vector<ClientRing> rings_;

  IoCacheStats stats_;
  u64 evict_steps_{0};
  u64 evict_crash_at_{0};
  bool stopped_{false};
};

// ------------------------------------------------------------ cache client

/// Per-client view of one access (bench bookkeeping).
struct ClientMetrics {
  u64 ops{0};
  u64 hits{0};       ///< accesses served without a backing-store fetch
  u64 cold{0};       ///< accesses that waited on a fetch
  u64 attaches{0};   ///< successful xpmem_attach calls
  u64 refaults{0};   ///< terminal faults taken on cached handles
  u64 reresolves{0}; ///< directory re-resolutions (server loss/recovery)
  Samples warm_ns;   ///< per-op latency of hits
  Samples cold_ns;   ///< per-op latency of misses
};

/// A consumer enclave's handle on the cache: exports its request rings,
/// attaches directories lazily (with name-service re-resolution when a
/// server dies), attaches blocks on read, and caches attachments across
/// accesses under the lease/capability contract.
class CacheClient {
 public:
  CacheClient(XememKernel& kernel, os::Enclave& os, u32 client_id, Config cfg);

  /// Create the process and export one request ring per server shard.
  sim::Task<Result<void>> start();

  /// Read @p block through the cache; returns its stamp. @p cold_out
  /// (optional) reports whether the access waited on a backing-store
  /// fetch.
  sim::Task<Result<u64>> read(u64 block, bool* cold_out = nullptr);

  /// Write @p stamp into @p block (write-allocate, write-back).
  sim::Task<Result<void>> write(u64 block, u64 stamp, bool* cold_out = nullptr);

  /// Drop every cached handle and directory attachment (orderly teardown;
  /// errors from dead owners are tolerated).
  sim::Task<void> shutdown();

  const ClientMetrics& metrics() const { return m_; }
  ClientMetrics& metrics() { return m_; }
  u64 cached_handles() const { return handles_.size(); }
  XememKernel& kernel() { return kernel_; }

 private:
  struct Handle {
    Segid segid{};
    u64 version{0};
    XpmemGrant grant{};
    XpmemAttachment att{};
    sim::TimePoint lease_expiry{0};
  };
  struct DirView {
    Segid segid{};
    XpmemGrant grant{};
    XpmemAttachment att{};
    bool attached{false};
  };

  /// Resolve + attach the shard directory, polling the name service until
  /// a (re-)exported directory appears under a segid != @p not_this.
  sim::Task<Result<void>> resolve_directory(u32 shard, Segid not_this);
  Result<DirEntry> read_entry(u32 shard, u64 block) const;
  sim::Task<Result<void>> push_op(u32 shard, RingOp op);
  /// Acquire a usable attachment for @p block (the resolve/attach loop).
  sim::Task<Result<Handle*>> acquire(u64 block, bool* cold);
  sim::Task<void> drop_handle(u64 block);
  sim::Task<void> janitor();  ///< lease mode: detach expired handles

  XememKernel& kernel_;
  os::Enclave& os_;
  u32 id_;
  Config cfg_;

  os::Process* proc_{nullptr};
  std::vector<std::unique_ptr<shm::RingProducer>> rings_;  // one per shard
  std::vector<Segid> ring_segids_;
  std::vector<DirView> dirs_;
  std::unordered_map<u64, Handle> handles_;
  ClientMetrics m_;
  bool stopped_{false};
};

}  // namespace xemem::iocache
