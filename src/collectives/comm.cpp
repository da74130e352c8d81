// Communicator bootstrap, sequence-stamped segment primitives, and the
// flat collective algorithms. The hierarchical algorithms live in
// hierarchical.cpp.
//
// Segment word map (applies to the control segment and to every
// enclave-local segment; all words u64, written through shm::ShmWord):
//
//   +0   magic      "XEMCOLL1" — attachers verify the exporter formatted it
//   +8   parties    member-table entries
//   +16  status     sticky communicator status (Errc value; control
//                   segment only — local segments reserve the word)
//   +24..63         reserved
//   +64  member table, parties x 32 bytes:
//        +0  enclave id + 1 (0 = not yet published; bootstrap only)
//        +8  reserved
//        +16 contrib — seq-stamped chunk-publish cursor (single writer)
//        +24 done    — seq-stamped signal/ack word (single writer)
//   +header_bytes   parties staging slots, slot_stride bytes each
//
// Sequence stamping: every segment-level sub-operation consumes one
// communicator-wide sequence number on *every* rank (participants and
// bystanders alike), and single-writer words are stamped
// (seq << 20) | progress. Stamps only grow, so words never reset and a
// reader can never confuse op N's progress with op N+1's.
#include "collectives/comm.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace xemem::coll {

namespace {

constexpr u64 kMagic = 0x58454d434f4c4c31ull;  // "XEMCOLL1"
constexpr u64 kMagicOff = 0;
constexpr u64 kPartiesOff = 8;
constexpr u64 kStatusOff = 16;
constexpr u64 kFieldEnclave = 0;
constexpr u64 kFieldContrib = 16;
constexpr u64 kFieldDone = 24;

u64 chunk_count(u64 bytes, u64 chunk) { return (bytes + chunk - 1) / chunk; }

// Bootstrap-time protocol errors worth retrying within the bootstrap
// deadline: transient routing loss, a registry shard mid-election, or a
// registry entry the peer has not published yet. Everything else
// (permission, argument, protocol errors) is terminal.
bool bootstrap_retryable(Errc e) {
  switch (e) {
    case Errc::unreachable:
    case Errc::no_name_server:
    case Errc::retry_later:
    case Errc::stale_epoch:
    case Errc::no_such_segid:
    // Sharded name service: a write bounced off a follower mid-election,
    // or a shard past its partition grace. no_quorum is terminal per
    // request, but the shard may regain its majority (heal, re-election)
    // within the bootstrap deadline, so keep trying until then.
    case Errc::not_primary:
    case Errc::no_quorum:
      return true;
    // Capability model (DESIGN.md §9): revocation is terminal by design —
    // a revoked control segment never comes back under the same cap, so
    // retrying would spin until the deadline for a determined outcome.
    case Errc::revoked:
      return false;
    default:
      return false;
  }
}

u64 reduce_ns(u64 bytes) {
  return static_cast<u64>(static_cast<double>(bytes) / costs::kCollReduceBytesPerNs);
}

}  // namespace

// ------------------------------------------------------------------ geometry

u64 Comm::seg_bytes(u32 parties, const CollConfig& cfg) {
  const u64 header = page_align_up(64 + 32ull * parties);
  return header + parties * page_align_up(cfg.slot_bytes);
}

u64 Comm::region_bytes(u32 size, const CollConfig& cfg) {
  // Control segment (rank 0) plus a worst-case local segment (leaders);
  // every rank reserves both because roles are unknown until bootstrap.
  return 2 * seg_bytes(size, cfg);
}

Comm::Comm(Member m, std::string name, u32 rank, u32 size, CollConfig cfg)
    : m_(m),
      name_(std::move(name)),
      rank_(rank),
      size_(size),
      cfg_(cfg),
      core_(m.core != nullptr ? m.core : m.proc->core()) {
  if (cfg_.bootstrap_timeout == 0) cfg_.bootstrap_timeout = cfg_.timeout;
}

sim::Task<Result<std::unique_ptr<Comm>>> Comm::create(Member m, std::string name,
                                                      u32 rank, u32 size,
                                                      CollConfig cfg) {
  XEMEM_ASSERT_MSG(m.kernel != nullptr && m.os != nullptr && m.proc != nullptr,
                   "Comm::create: incomplete Member");
  XEMEM_ASSERT_MSG(size > 0 && rank < size, "Comm::create: bad rank/size");
  XEMEM_ASSERT_MSG(cfg.chunk_bytes > 0 && cfg.slot_bytes >= cfg.chunk_bytes,
                   "Comm::create: bad chunk/slot sizing");
  auto comm = std::unique_ptr<Comm>(new Comm(m, std::move(name), rank, size, cfg));
  auto r = co_await comm->bootstrap();
  if (!r.ok()) {
    co_await comm->finalize();  // best-effort unwind of partial bootstrap
    co_return r.error();
  }
  co_return std::move(comm);
}

// ----------------------------------------------------------------- words

Result<u64> Comm::load_word(const Seg& seg, u64 off) const {
  return shm::ShmWord(*m_.os, *m_.proc, seg.base + off).load();
}

Result<void> Comm::store_word(const Seg& seg, u64 off, u64 v) {
  return shm::ShmWord(*m_.os, *m_.proc, seg.base + off).store(v);
}

Errc Comm::post_status(Errc e) {
  if (root_.valid()) {
    auto cur = load_word(root_, kStatusOff);
    if (cur.ok() && cur.value() == 0) {
      (void)store_word(root_, kStatusOff, static_cast<u64>(e));
    }
  }
  return e;
}

Result<void> Comm::check_status() const {
  if (!root_.valid()) return Result<void>{};
  auto v = load_word(root_, kStatusOff);
  if (!v.ok()) return v.error();
  if (v.value() != 0) return static_cast<Errc>(v.value());
  return Result<void>{};
}

Errc Comm::status() const {
  auto s = check_status();
  return s.ok() ? Errc::ok : s.error();
}

// ------------------------------------------------------------- primitives

sim::Task<Result<void>> Comm::wait_word(const Seg& seg, u64 off, u64 target,
                                        OpCtx& ctx) {
  for (;;) {
    auto v = load_word(seg, off);
    if (!v.ok()) co_return post_status(v.error());
    ++ctx.st->polls;
    if (v.value() >= target) co_return Result<void>{};
    if (auto s = check_status(); !s.ok()) co_return s;
    if (ctx.dl.expired()) co_return post_status(Errc::unreachable);
    co_await core_->compute(costs::kCollPollCost);
    co_await sim::delay(cfg_.poll_interval);
  }
}

Result<void> Comm::seg_signal(Seg& seg, u64 seq) {
  auto r = store_word(seg, seg.member_off(seg.my_idx, kFieldDone), stamp(seq, 1));
  if (!r.ok()) return post_status(r.error());
  return r;
}

sim::Task<Result<void>> Comm::seg_wait_done(Seg& seg, u64 seq,
                                            const std::vector<u32>& parties,
                                            OpCtx& ctx) {
  const u64 target = stamp(seq, 1);
  size_t met = 0;  // parties[0..met) already observed at the target stamp
  for (;;) {
    while (met < parties.size()) {
      auto v = load_word(seg, seg.member_off(parties[met], kFieldDone));
      if (!v.ok()) co_return post_status(v.error());
      ++ctx.st->polls;
      if (v.value() < target) break;
      ++met;
    }
    if (met == parties.size()) co_return Result<void>{};
    if (auto s = check_status(); !s.ok()) co_return s;
    if (ctx.dl.expired()) co_return post_status(Errc::unreachable);
    co_await core_->compute(costs::kCollPollCost);
    co_await sim::delay(cfg_.poll_interval);
  }
}

sim::Task<Result<void>> Comm::seg_publish(Seg& seg, u64 seq, const void* data,
                                          u64 bytes, OpCtx& ctx) {
  const u64 slot = seg.slot_off(seg.my_idx);
  const u64 contrib = seg.member_off(seg.my_idx, kFieldContrib);
  const auto* src = static_cast<const u8*>(data);
  const u64 chunks = chunk_count(bytes, cfg_.chunk_bytes);
  for (u64 k = 0; k < chunks; ++k) {
    const u64 off = k * cfg_.chunk_bytes;
    const u64 len = std::min(cfg_.chunk_bytes, bytes - off);
    auto w = m_.os->proc_write(*m_.proc, seg.base + slot + off, src + off, len);
    if (!w.ok()) co_return post_status(w.error());
    co_await m_.os->membw().transfer(len);
    co_await core_->compute(costs::kCollChunkOverhead);
    auto p = store_word(seg, contrib, stamp(seq, k + 1));
    if (!p.ok()) co_return post_status(p.error());
    ++ctx.st->chunks;
    ctx.st->bytes_moved += len;
  }
  co_return Result<void>{};
}

/// Pipeline state for one in-flight chunk fetch.
struct Comm::FetchState {
  Result<void> st{};
  sim::Event done;
  std::vector<u8> buf;
  u64 len{0};
  OpCtx* ctx{nullptr};
};

sim::Task<void> Comm::fetch_chunk(Comm* c, Seg* seg, u64 contrib_off, u64 target,
                                  Vaddr src_va, FetchState* fs) {
  auto w = co_await c->wait_word(*seg, contrib_off, target, *fs->ctx);
  if (!w.ok()) {
    fs->st = w;
    fs->done.set();
    co_return;
  }
  auto r = c->m_.os->proc_read(*c->m_.proc, src_va, fs->buf.data(), fs->len);
  if (!r.ok()) {
    fs->st = c->post_status(r.error());
    fs->done.set();
    co_return;
  }
  co_await c->m_.os->membw().transfer(fs->len);
  fs->done.set();
}

sim::Task<Result<void>> Comm::seg_consume(Seg& seg, u64 seq, u32 src_idx,
                                          void* dst, u64 bytes,
                                          const ReduceOp* rop, OpCtx& ctx) {
  const u64 slot = seg.slot_off(src_idx);
  const u64 contrib_off = seg.member_off(src_idx, kFieldContrib);
  const u64 chunks = chunk_count(bytes, cfg_.chunk_bytes);

  if (rop == nullptr) {
    // Straight copy: fetch each chunk as soon as it is published.
    auto* out = static_cast<u8*>(dst);
    for (u64 k = 0; k < chunks; ++k) {
      const u64 off = k * cfg_.chunk_bytes;
      const u64 len = std::min(cfg_.chunk_bytes, bytes - off);
      auto w = co_await wait_word(seg, contrib_off, stamp(seq, k + 1), ctx);
      if (!w.ok()) co_return w;
      auto r = m_.os->proc_read(*m_.proc, seg.base + slot + off, out + off, len);
      if (!r.ok()) co_return post_status(r.error());
      co_await m_.os->membw().transfer(len);
      co_await core_->compute(costs::kCollChunkOverhead);
      ++ctx.st->chunks;
      ctx.st->bytes_moved += len;
    }
    co_return Result<void>{};
  }

  // Reduction: overlap the fetch of chunk k+1 (bandwidth) with the
  // arithmetic of chunk k (CPU) — a two-buffer pipeline. Every spawned
  // fetch is joined before the next loop step, so no fetch outlives an
  // early error return.
  auto* acc = static_cast<double*>(dst);
  FetchState fs[2];
  for (auto& f : fs) f.ctx = &ctx;
  fs[0].len = std::min(cfg_.chunk_bytes, bytes);
  fs[0].buf.resize(fs[0].len);
  co_await fetch_chunk(this, &seg, contrib_off, stamp(seq, 1), seg.base + slot,
                       &fs[0]);
  for (u64 k = 0; k < chunks; ++k) {
    FetchState& cur = fs[k % 2];
    if (!cur.st.ok()) co_return cur.st;
    const u64 off = k * cfg_.chunk_bytes;
    const u64 len = std::min(cfg_.chunk_bytes, bytes - off);
    const bool more = k + 1 < chunks;
    if (more) {
      FetchState& nxt = fs[(k + 1) % 2];
      const u64 noff = (k + 1) * cfg_.chunk_bytes;
      nxt.st = Result<void>{};
      nxt.done.reset();
      nxt.len = std::min(cfg_.chunk_bytes, bytes - noff);
      nxt.buf.resize(nxt.len);
      sim::Engine::current()->spawn(fetch_chunk(this, &seg, contrib_off,
                                                stamp(seq, k + 2),
                                                seg.base + slot + noff, &nxt));
    }
    co_await core_->compute(reduce_ns(len));
    reduce_apply(*rop, acc + off / sizeof(double),
                 reinterpret_cast<const double*>(cur.buf.data()),
                 len / sizeof(double));
    ++ctx.st->chunks;
    ctx.st->bytes_moved += len;
    if (more) co_await fs[(k + 1) % 2].done.wait();
  }
  co_return Result<void>{};
}

// -------------------------------------------------------------- bootstrap

sim::Task<Result<void>> Comm::attach_by_name(const std::string& seg_name,
                                             u32 parties, u32 my_idx, Seg* out,
                                             OpCtx& ctx) {
  const u64 bytes = seg_bytes(parties, cfg_);
  // The whole search -> get -> attach chain retries within the bootstrap
  // deadline: the exporter may not have published the name yet, and a name
  // service failing over mid-bootstrap answers with retryable statuses
  // until the registry is rebuilt.
  Segid sid{};
  Result<XpmemGrant> grant{Errc::unreachable};
  Result<XpmemAttachment> att{Errc::unreachable};
  for (;;) {
    auto s = co_await m_.kernel->xpmem_search(seg_name);
    if (s.ok()) {
      sid = s.value();
      grant = co_await m_.kernel->xpmem_get(sid);
      if (grant.ok()) {
        att = co_await m_.kernel->xpmem_attach(*m_.proc, grant.value(), 0, bytes);
        if (att.ok()) break;
        // The grant is useless without the attachment: best-effort drop it
        // before retrying so the owner's grant count does not creep up.
        (void)co_await m_.kernel->xpmem_release(grant.value());
        if (!bootstrap_retryable(att.error())) co_return att.error();
      } else if (!bootstrap_retryable(grant.error())) {
        co_return grant.error();
      }
    }
    if (ctx.dl.expired()) {
      if (!att.ok() && s.ok() && grant.ok()) co_return att.error();
      if (!grant.ok() && s.ok()) co_return grant.error();
      co_return Errc::unreachable;
    }
    co_await sim::delay(cfg_.poll_interval);
  }
  co_await m_.os->touch_attached(*m_.proc, att.value().va, att.value().pages);

  out->base = att.value().va;
  out->parties = parties;
  out->my_idx = my_idx;
  out->header_bytes = page_align_up(64 + 32ull * parties);
  out->slot_stride = page_align_up(cfg_.slot_bytes);
  out->attached = true;
  out->att = att.value();
  out->grant = grant.value();
  out->segid = sid;
  ++stats_.attaches;
  if (!att.value().local) ++stats_.cross_attaches;

  auto magic = load_word(*out, kMagicOff);
  auto np = load_word(*out, kPartiesOff);
  if (!magic.ok() || !np.ok()) co_return Errc::protocol_error;
  if (magic.value() != kMagic || np.value() != parties) {
    co_return Errc::protocol_error;
  }
  co_return Result<void>{};
}

sim::Task<Result<void>> Comm::bootstrap() {
  OpStats scratch;
  OpCtx ctx{shm::Deadline(cfg_.bootstrap_timeout), &scratch};
  const u64 root_bytes = seg_bytes(size_, cfg_);

  // Phase 1: rank 0 formats and exports the control segment; everyone
  // else discovers it by name and attaches.
  if (rank_ == 0) {
    root_.base = m_.region;
    root_.parties = size_;
    root_.my_idx = 0;
    root_.header_bytes = page_align_up(64 + 32ull * size_);
    root_.slot_stride = page_align_up(cfg_.slot_bytes);
    root_.exported = true;
    for (u64 off = kStatusOff; off < 64 + 32ull * size_; off += 8) {
      if (auto r = store_word(root_, off, 0); !r.ok()) co_return r;
    }
    if (auto r = store_word(root_, kPartiesOff, size_); !r.ok()) co_return r;
    if (auto r = store_word(root_, kMagicOff, kMagic); !r.ok()) co_return r;
    // The export must land in the name server's registry; retry through a
    // failover window (the exporter keeps its local record, so a replayed
    // segid_alloc under a new epoch is safe).
    Result<Segid> sid{Errc::unreachable};
    for (;;) {
      sid = co_await m_.kernel->xpmem_make(*m_.proc, root_.base, root_bytes,
                                           name_);
      if (sid.ok() || !bootstrap_retryable(sid.error()) || ctx.dl.expired()) {
        break;
      }
      co_await sim::delay(cfg_.poll_interval);
    }
    if (!sid.ok()) co_return sid.error();
    root_.segid = sid.value();
    ++stats_.exports;
  } else {
    auto r = co_await attach_by_name(name_, size_, rank_, &root_, ctx);
    if (!r.ok()) co_return r;
  }

  // Phase 2: publish my enclave identity, then wait for the full member
  // table (sub-op seq 1) and derive the topology from it.
  const u64 my_enclave = m_.os->id().value();
  if (auto r = store_word(root_, root_.member_off(rank_, kFieldEnclave),
                          my_enclave + 1);
      !r.ok()) {
    co_return r;
  }
  if (auto r = seg_signal(root_, 1); !r.ok()) co_return r;
  std::vector<u32> everyone(size_);
  for (u32 i = 0; i < size_; ++i) everyone[i] = i;
  if (auto r = co_await seg_wait_done(root_, 1, everyone, ctx); !r.ok()) {
    co_return r;
  }

  for (u32 r = 0; r < size_; ++r) {
    auto e = load_word(root_, root_.member_off(r, kFieldEnclave));
    if (!e.ok()) co_return e.error();
    XEMEM_ASSERT(e.value() != 0);
    const u64 enclave = e.value() - 1;
    u32 gi = 0;
    for (; gi < groups_.size(); ++gi) {
      if (groups_[gi].enclave_id == enclave) break;
    }
    if (gi == groups_.size()) groups_.push_back(Group{enclave, {}});
    groups_[gi].ranks.push_back(r);
    if (r == rank_) my_group_ = gi;
  }
  leader_ = groups_[my_group_].ranks[0] == rank_;

  // Phase 3: each multi-rank enclave assembles its local segment — the
  // leader exports, members attach through the intra-enclave fast path.
  const Group& g = groups_[my_group_];
  if (g.ranks.size() > 1) {
    const u32 parties = static_cast<u32>(g.ranks.size());
    const std::string local_name =
        name_ + ".g" + std::to_string(g.ranks[0]);
    if (leader_) {
      local_.base = m_.region + root_bytes;
      local_.parties = parties;
      local_.my_idx = 0;
      local_.header_bytes = page_align_up(64 + 32ull * parties);
      local_.slot_stride = page_align_up(cfg_.slot_bytes);
      local_.exported = true;
      for (u64 off = kStatusOff; off < 64 + 32ull * parties; off += 8) {
        if (auto r = store_word(local_, off, 0); !r.ok()) co_return r;
      }
      if (auto r = store_word(local_, kPartiesOff, parties); !r.ok()) co_return r;
      if (auto r = store_word(local_, kMagicOff, kMagic); !r.ok()) co_return r;
      Result<Segid> sid{Errc::unreachable};
      for (;;) {
        sid = co_await m_.kernel->xpmem_make(*m_.proc, local_.base,
                                             seg_bytes(parties, cfg_),
                                             local_name);
        if (sid.ok() || !bootstrap_retryable(sid.error()) || ctx.dl.expired()) {
          break;
        }
        co_await sim::delay(cfg_.poll_interval);
      }
      if (!sid.ok()) co_return sid.error();
      local_.segid = sid.value();
      ++stats_.exports;
    } else {
      auto r = co_await attach_by_name(local_name, parties, local_idx_of(rank_),
                                       &local_, ctx);
      if (!r.ok()) co_return r;
    }
  }

  // Phase 4: one full-group rendezvous (sub-op seq 2) so no rank issues
  // an operation before every segment exists.
  if (auto r = seg_signal(root_, 2); !r.ok()) co_return r;
  if (auto r = co_await seg_wait_done(root_, 2, everyone, ctx); !r.ok()) {
    co_return r;
  }
  seq_ = 3;
  stats_.bootstrap_polls = scratch.polls;
  co_return Result<void>{};
}

// -------------------------------------------------------------- topology

const Comm::Group& Comm::group_of(u32 r) const {
  for (const auto& g : groups_) {
    for (u32 m : g.ranks) {
      if (m == r) return g;
    }
  }
  XEMEM_PANIC("Comm: rank not in any group");
}

u32 Comm::local_idx_of(u32 r) const {
  const Group& g = group_of(r);
  for (u32 i = 0; i < g.ranks.size(); ++i) {
    if (g.ranks[i] == r) return i;
  }
  XEMEM_PANIC("Comm: rank not in its group");
}

bool Comm::same_group(u32 a, u32 b) const {
  return &group_of(a) == &group_of(b);
}

std::vector<u32> Comm::leader_indices_except(u32 skip_rank) const {
  std::vector<u32> out;
  for (const auto& g : groups_) {
    if (g.ranks[0] != skip_rank) out.push_back(g.ranks[0]);
  }
  return out;
}

Algo Comm::resolve(OpKind op, u64 bytes, Algo override_algo) const {
  Algo a = override_algo != Algo::automatic ? override_algo : cfg_.algo;
  if (a == Algo::automatic) {
    a = choose(op, size_, static_cast<u32>(groups_.size()), bytes);
  }
  return a;
}

// -------------------------------------------------------- flat algorithms

sim::Task<Result<void>> Comm::flat_barrier(OpCtx& ctx) {
  const u64 s = next_seq();
  if (auto r = seg_signal(root_, s); !r.ok()) co_return r;
  std::vector<u32> everyone(size_);
  for (u32 i = 0; i < size_; ++i) everyone[i] = i;
  ++ctx.st->cross_phases;
  co_return co_await seg_wait_done(root_, s, everyone, ctx);
}

sim::Task<Result<void>> Comm::flat_bcast(void* data, u64 bytes, u32 root,
                                         OpCtx& ctx) {
  const u64 s = next_seq();
  ++ctx.st->cross_phases;
  if (rank_ == root) {
    if (auto r = co_await seg_publish(root_, s, data, bytes, ctx); !r.ok()) {
      co_return r;
    }
    std::vector<u32> others;
    for (u32 i = 0; i < size_; ++i) {
      if (i != root) others.push_back(i);
    }
    co_return co_await seg_wait_done(root_, s, others, ctx);
  }
  if (auto r = co_await seg_consume(root_, s, root, data, bytes, nullptr, ctx);
      !r.ok()) {
    co_return r;
  }
  co_return seg_signal(root_, s);
}

sim::Task<Result<void>> Comm::flat_reduce(const double* in, double* out,
                                          u64 elems, u32 root, ReduceOp op,
                                          OpCtx& ctx) {
  const u64 bytes = elems * sizeof(double);
  const u64 s = next_seq();
  ++ctx.st->cross_phases;
  if (rank_ == root) {
    if (out != in) std::memmove(out, in, bytes);
    // The root's chain visits every contributor in rank order — this is
    // the serial O(ranks) bottleneck the hierarchical algorithm splits.
    for (u32 r = 0; r < size_; ++r) {
      if (r == root) continue;
      if (auto c = co_await seg_consume(root_, s, r, out, bytes, &op, ctx);
          !c.ok()) {
        co_return c;
      }
    }
    co_return seg_signal(root_, s);
  }
  if (auto r = co_await seg_publish(root_, s, in, bytes, ctx); !r.ok()) {
    co_return r;
  }
  co_return co_await seg_wait_done(root_, s, std::vector<u32>(1, root), ctx);
}

sim::Task<Result<void>> Comm::flat_allgather(const void* in, u64 bytes_per_rank,
                                             void* out, OpCtx& ctx) {
  const u64 s = next_seq();
  ++ctx.st->cross_phases;
  if (auto r = co_await seg_publish(root_, s, in, bytes_per_rank, ctx); !r.ok()) {
    co_return r;
  }
  auto* dst = static_cast<u8*>(out);
  std::memcpy(dst + static_cast<u64>(rank_) * bytes_per_rank, in, bytes_per_rank);
  // Pull peers starting after my own rank so concurrent pulls spread
  // across source slots instead of all draining rank 0 first.
  for (u32 step = 1; step < size_; ++step) {
    const u32 r = (rank_ + step) % size_;
    if (auto c = co_await seg_consume(root_, s, r,
                                      dst + static_cast<u64>(r) * bytes_per_rank,
                                      bytes_per_rank, nullptr, ctx);
        !c.ok()) {
      co_return c;
    }
  }
  if (auto r = seg_signal(root_, s); !r.ok()) co_return r;
  std::vector<u32> everyone(size_);
  for (u32 i = 0; i < size_; ++i) everyone[i] = i;
  co_return co_await seg_wait_done(root_, s, everyone, ctx);
}

// ------------------------------------------------------------- public ops

template <typename F>
sim::Task<Result<void>> Comm::run_op(OpKind kind, u64 bytes, Algo algo, F body) {
  (void)bytes;
  (void)algo;
  OpStats& st = stats_.of(kind);
  if (finalized_) {
    ++st.failures;
    co_return Errc::invalid_argument;
  }
  if (auto s = check_status(); !s.ok()) {
    ++st.failures;
    co_return s;
  }
  OpCtx ctx{shm::Deadline(cfg_.timeout), &st};
  const sim::TimePoint t0 = sim::now();
  Result<void> r = co_await body(ctx);
  if (r.ok()) {
    ++st.ops;
    st.latency_ns.add(static_cast<double>(sim::now() - t0));
  } else {
    ++st.failures;
  }
  co_return r;
}

sim::Task<Result<void>> Comm::barrier(Algo algo) {
  const Algo a = resolve(OpKind::barrier, 0, algo);
  return run_op(OpKind::barrier, 0, a,
                [this, a](OpCtx& ctx) -> sim::Task<Result<void>> {
                  if (a == Algo::hierarchical) co_return co_await hier_barrier(ctx);
                  co_return co_await flat_barrier(ctx);
                });
}

sim::Task<Result<void>> Comm::bcast(void* data, u64 bytes, u32 root, Algo algo) {
  const Algo a = resolve(OpKind::bcast, bytes, algo);
  return run_op(
      OpKind::bcast, bytes, a,
      [this, a, data, bytes, root](OpCtx& ctx) -> sim::Task<Result<void>> {
        if (root >= size_ || bytes > cfg_.slot_bytes) {
          co_return Errc::invalid_argument;
        }
        if (bytes == 0 || size_ == 1) co_return Result<void>{};
        if (a == Algo::hierarchical) {
          co_return co_await hier_bcast(data, bytes, root, ctx);
        }
        co_return co_await flat_bcast(data, bytes, root, ctx);
      });
}

sim::Task<Result<void>> Comm::reduce(const double* in, double* out, u64 elems,
                                     u32 root, ReduceOp op, Algo algo) {
  const u64 bytes = elems * sizeof(double);
  const Algo a = resolve(OpKind::reduce, bytes, algo);
  return run_op(
      OpKind::reduce, bytes, a,
      [this, a, in, out, elems, root, op](OpCtx& ctx) -> sim::Task<Result<void>> {
        const u64 b = elems * sizeof(double);
        if (root >= size_ || b > cfg_.slot_bytes) co_return Errc::invalid_argument;
        if (elems == 0) co_return Result<void>{};
        if (size_ == 1) {
          if (out != in) std::memmove(out, in, b);
          co_return Result<void>{};
        }
        if (a == Algo::hierarchical) {
          co_return co_await hier_reduce(in, out, elems, root, op, ctx);
        }
        co_return co_await flat_reduce(in, out, elems, root, op, ctx);
      });
}

sim::Task<Result<void>> Comm::allreduce(const double* in, double* out, u64 elems,
                                        ReduceOp op, Algo algo) {
  const u64 bytes = elems * sizeof(double);
  const Algo a = resolve(OpKind::allreduce, bytes, algo);
  return run_op(
      OpKind::allreduce, bytes, a,
      [this, a, in, out, elems, op](OpCtx& ctx) -> sim::Task<Result<void>> {
        const u64 b = elems * sizeof(double);
        if (b > cfg_.slot_bytes) co_return Errc::invalid_argument;
        if (elems == 0) co_return Result<void>{};
        if (size_ == 1) {
          if (out != in) std::memmove(out, in, b);
          co_return Result<void>{};
        }
        // reduce-to-0 + bcast-from-0: rank 0 is its enclave's leader, so
        // the hierarchical composition needs no extra root hop.
        if (a == Algo::hierarchical) {
          if (auto r = co_await hier_reduce(in, out, elems, 0, op, ctx); !r.ok()) {
            co_return r;
          }
          co_return co_await hier_bcast(out, b, 0, ctx);
        }
        if (auto r = co_await flat_reduce(in, out, elems, 0, op, ctx); !r.ok()) {
          co_return r;
        }
        co_return co_await flat_bcast(out, b, 0, ctx);
      });
}

sim::Task<Result<void>> Comm::allgather(const void* in, u64 bytes_per_rank,
                                        void* out, Algo algo) {
  const Algo a = resolve(OpKind::allgather, bytes_per_rank, algo);
  return run_op(
      OpKind::allgather, bytes_per_rank, a,
      [this, a, in, bytes_per_rank, out](OpCtx& ctx) -> sim::Task<Result<void>> {
        if (bytes_per_rank > cfg_.slot_bytes) co_return Errc::invalid_argument;
        if (bytes_per_rank == 0) co_return Result<void>{};
        if (size_ == 1) {
          std::memcpy(out, in, bytes_per_rank);
          co_return Result<void>{};
        }
        if (a == Algo::hierarchical) {
          co_return co_await hier_allgather(in, bytes_per_rank, out, ctx);
        }
        co_return co_await flat_allgather(in, bytes_per_rank, out, ctx);
      });
}

// --------------------------------------------------------------- teardown

sim::Task<Result<void>> Comm::finalize() {
  if (finalized_) co_return Result<void>{};
  const bool healthy = root_.valid() && check_status().ok() && seq_ >= 3;
  if (healthy) {
    // Quiesce: no rank tears its mappings down while another is still
    // inside an operation. Best-effort — a dead member must not wedge us.
    OpStats scratch;
    OpCtx ctx{shm::Deadline(cfg_.timeout), &scratch};
    (void)co_await flat_barrier(ctx);
  }
  finalized_ = true;

  Result<void> worst{};
  auto teardown = [&](Seg& seg) -> sim::Task<void> {
    if (seg.attached) {
      auto d = co_await m_.kernel->xpmem_detach(*m_.proc, seg.att);
      if (!d.ok()) worst = d;
      auto rel = co_await m_.kernel->xpmem_release(seg.grant);
      if (!rel.ok()) worst = rel;
      seg.attached = false;
    }
    if (seg.exported) {
      // Remove succeeds only once every attacher detached; poll busy.
      shm::Deadline dl(cfg_.timeout);
      for (;;) {
        auto rm = co_await m_.kernel->xpmem_remove(*m_.proc, seg.segid);
        if (rm.ok()) break;
        if (rm.error() != Errc::busy || dl.expired()) {
          worst = rm;
          break;
        }
        co_await sim::delay(cfg_.poll_interval);
      }
      seg.exported = false;
    }
  };
  co_await teardown(local_);
  co_await teardown(root_);
  co_return worst;
}

// Explicit instantiation not needed: run_op is used only in this TU and
// hierarchical.cpp contains no run_op calls.

}  // namespace xemem::coll
