// Attach fast path: extent-compressed wire PFNs, segid->owner route
// caching, owner-side walk memoization, and attacher-side mapping reuse —
// plus the invalidation coupling to the fault layer (xpmem_remove,
// crash(), lease expiry, learned-route invalidation) that keeps every
// cache from ever serving stale frames.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "pisces/ipi_channel.hpp"
#include "xemem/system.hpp"

#define CO_ASSERT_TRUE(x)                            \
  do {                                               \
    if (!(x)) {                                      \
      ADD_FAILURE() << "CO_ASSERT_TRUE failed: " #x; \
      co_return;                                     \
    }                                                \
  } while (0)

namespace xemem {
namespace {

KernelConfig fast_config() {
  KernelConfig cfg;
  cfg.request_timeout = 1_ms;
  cfg.max_retries = 6;
  cfg.backoff_base = 100_us;
  cfg.backoff_max = 1_ms;
  cfg.attach_fast_path = true;
  return cfg;
}

// ------------------------------------------------------------- wire format

TEST(AttachPath, ExtentEncodingShrinksMessageWireBytes) {
  // Pure wire accounting: 512 contiguous pages flat = 4 KiB of PFNs;
  // extent-encoded = one 12 B record. Both carry the same frames.
  Message flat;
  for (u64 i = 0; i < 512; ++i) flat.frames.push_back(Pfn{1000 + i});
  Message ext;
  ext.frames.append(hw::FrameExtent{Pfn{1000}, 512});
  ext.frames_flat = false;
  EXPECT_EQ(flat.frames, ext.frames);
  EXPECT_EQ(flat.wire_bytes(), Message::kHeaderBytes + 512 * 8);
  EXPECT_EQ(ext.wire_bytes(), Message::kHeaderBytes + mm::PfnList::kExtentWireBytes);
  EXPECT_LT(ext.wire_bytes(), flat.wire_bytes());
}

TEST(AttachPath, ContiguousExportShipsExtentsAndMapsCorrectly) {
  // A contiguous 4 MiB Kitten export crosses the wire as O(1) extents
  // instead of 8 B/page, and the decoded mapping still reaches the same
  // frames (data written by the owner is read through the attachment).
  sim::Engine eng(8101);
  Node node(hw::Machine::r420());
  node.set_kernel_config(fast_config());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);
  // Raw side channel into the co-kernel; the test plays a remote enclave
  // to read an attach response as it crosses the wire.
  auto side = pisces::make_ipi_channel(&node.machine().core(1),
                                       &node.machine().core(7));
  ck.add_channel(side.b.get());

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("ck").create_process(8_MiB).value();
    os::Process* up = node.enclave("linux").create_process(1_MiB).value();
    auto sid = co_await ck.xpmem_make(*op, op->image_base(), 4_MiB);
    CO_ASSERT_TRUE(sid.ok());

    const char pattern[] = "extent-wire-attach";
    CO_ASSERT_TRUE(node.enclave("ck")
                       .proc_write(*op, op->image_base() + 64, pattern,
                                   sizeof(pattern))
                       .ok());

    auto grant = co_await mgmt.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());
    auto att = co_await mgmt.xpmem_attach(*up, grant.value(), 0, 4_MiB);
    CO_ASSERT_TRUE(att.ok());

    // Kitten allocates contiguously: the whole list compresses to a
    // handful of runs (the acceptance bound is <= 3).
    EXPECT_GE(ck.stats().extents_shipped, 1u);
    EXPECT_LE(ck.stats().extents_shipped, 3u);
    // Flat would have been 8 B * 1024 pages; nearly all of it saved.
    EXPECT_GT(ck.stats().wire_bytes_saved,
              4_MiB / kPageSize * 8 - 3 * mm::PfnList::kExtentWireBytes - 1);

    char back[sizeof(pattern)] = {};
    CO_ASSERT_TRUE(node.enclave("linux")
                       .proc_read(*up, att.value().va + 64, back, sizeof(back))
                       .ok());
    EXPECT_STREQ(back, pattern);

    // On the wire, the response charges its runs, not 8 B per page.
    Message req;
    req.cmd = Cmd::attach;
    req.src = EnclaveId{77};  // fabricated remote enclave
    req.dst = ck.id();
    req.req_id = 0xe0001;
    req.segid = sid.value();
    req.size = 4_MiB;
    const u64 shipped = ck.stats().extents_shipped;
    co_await side.a->send(req);
    Message resp = co_await side.a->inbox().recv();
    CO_ASSERT_TRUE(resp.status == Errc::ok);
    EXPECT_EQ(resp.frames.page_count(), 4_MiB / kPageSize);
    EXPECT_FALSE(resp.frames_flat);
    EXPECT_EQ(ck.stats().extents_shipped - shipped, resp.frames.run_count());
    EXPECT_EQ(resp.wire_bytes(), Message::kHeaderBytes +
                                     resp.frames.run_count() *
                                         mm::PfnList::kExtentWireBytes);
    Message detach;
    detach.cmd = Cmd::detach;
    detach.src = EnclaveId{77};
    detach.dst = ck.id();
    detach.req_id = 0xe0002;
    detach.segid = sid.value();
    detach.offset = resp.offset;  // owner-side pin handle
    co_await side.a->send(detach);
    EXPECT_EQ((co_await side.a->inbox().recv()).status, Errc::ok);

    CO_ASSERT_TRUE((co_await mgmt.xpmem_detach(*up, att.value())).ok());
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

TEST(AttachPath, ScatteredExportNeverShipsMoreThanFlat) {
  // Linux exports are deliberately scattered (8-page allocator chunks):
  // extent encoding still wins but far less than for Kitten, and the
  // owner must never ship an encoding larger than the flat 8 B/page form
  // (the encoder falls back to flat for e.g. alternating single pages).
  sim::Engine eng(8102);
  Node node(hw::Machine::r420());
  node.set_kernel_config(fast_config());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& ck = node.add_cokernel("ck", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("linux").create_process(8_MiB).value();
    os::Process* up = node.enclave("ck").create_process(1_MiB).value();
    auto sid = co_await mgmt.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto grant = co_await ck.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());
    auto att = co_await ck.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(att.ok());

    const u64 flat_bytes = 1_MiB / kPageSize * 8;
    EXPECT_LE(mgmt.stats().extents_shipped * mm::PfnList::kExtentWireBytes,
              flat_bytes);
    if (mgmt.stats().extents_shipped > 0) {
      // Savings accounting must be exact: flat minus what the runs cost.
      EXPECT_EQ(mgmt.stats().wire_bytes_saved,
                flat_bytes -
                    mgmt.stats().extents_shipped * mm::PfnList::kExtentWireBytes);
      // Scattered lists compress far worse than contiguous ones.
      EXPECT_GT(mgmt.stats().extents_shipped, 3u);
    }

    CO_ASSERT_TRUE((co_await ck.xpmem_detach(*up, att.value())).ok());
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

// ------------------------------------------------------- owner route cache

TEST(AttachPath, RepeatAttachSkipsNameServerAndIsFaster) {
  // Three enclaves so user -> owner traffic genuinely transits the
  // management enclave: cold attach pays the name-server resolution,
  // repeat attaches address the owner directly.
  sim::Engine eng(8103);
  Node node(hw::Machine::r420());
  node.set_kernel_config(fast_config());
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner_k = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user_k = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(1_MiB).value();
    auto sid = co_await owner_k.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto grant = co_await user_k.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());
    EXPECT_TRUE(user_k.knows_owner(sid.value())) << "get primes the cache";

    const sim::TimePoint t0 = sim::now();
    auto att1 = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    const sim::Duration cold = sim::now() - t0;
    CO_ASSERT_TRUE(att1.ok());
    CO_ASSERT_TRUE((co_await user_k.xpmem_detach(*up, att1.value())).ok());

    const u64 ns_before = mgmt.stats().ns_requests;
    const u64 hits_before = user_k.stats().lookup_cache_hits;
    const sim::TimePoint t1 = sim::now();
    auto att2 = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    const sim::Duration warm = sim::now() - t1;
    CO_ASSERT_TRUE(att2.ok());

    EXPECT_GT(user_k.stats().lookup_cache_hits, hits_before);
    EXPECT_EQ(mgmt.stats().ns_requests, ns_before)
        << "repeat attach must not touch the name server";
    EXPECT_LT(warm, cold) << "cached route + memoized walk is faster";

    CO_ASSERT_TRUE((co_await user_k.xpmem_detach(*up, att2.value())).ok());
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

TEST(AttachPath, OwnerCacheInvalidatedByRemove) {
  // xpmem_remove retires the segid globally; a cached owner route must
  // not change the observable outcome (no_such_segid) and must be gone
  // after the failed fast path falls back to the name server.
  sim::Engine eng(8104);
  Node node(hw::Machine::r420());
  node.set_kernel_config(fast_config());
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner_k = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user_k = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(1_MiB).value();
    auto sid = co_await owner_k.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto grant = co_await user_k.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());
    auto att = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(att.ok());
    CO_ASSERT_TRUE((co_await user_k.xpmem_detach(*up, att.value())).ok());
    EXPECT_TRUE(user_k.knows_owner(sid.value()));
    EXPECT_GT(owner_k.walk_cache_entries(), 0u);

    CO_ASSERT_TRUE((co_await owner_k.xpmem_remove(*op, sid.value())).ok());
    EXPECT_EQ(owner_k.walk_cache_entries(), 0u)
        << "remove flushes the owner-side walk memoization";

    auto stale = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    EXPECT_EQ(stale.error(), Errc::no_such_segid)
        << "stale owner route must not resurrect a removed segment";
    EXPECT_FALSE(user_k.knows_owner(sid.value()))
        << "failed fast path drops the cached route";
  };
  eng.run(main());
}

// ----------------------------------------------------- walk cache (owner)

TEST(AttachPath, WalkMemoizationServesRepeatWindows) {
  sim::Engine eng(8105);
  Node node(hw::Machine::r420());
  node.set_kernel_config(fast_config());
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner_k = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user_k = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(1_MiB).value();
    auto sid = co_await owner_k.xpmem_make(*op, op->image_base(), 2_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto grant = co_await user_k.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());

    // Same window attached repeatedly: one real walk, the rest memoized.
    // Windows must be distinct attachments (not reuse) to exercise the
    // owner-side cache, so detach between rounds.
    for (int i = 0; i < 4; ++i) {
      auto att = co_await user_k.xpmem_attach(*up, grant.value(), 0, 2_MiB);
      CO_ASSERT_TRUE(att.ok());
      CO_ASSERT_TRUE((co_await user_k.xpmem_detach(*up, att.value())).ok());
    }
    EXPECT_EQ(owner_k.stats().walk_cache_hits, 3u);
    EXPECT_EQ(owner_k.walk_cache_entries(), 1u);

    // A different window is a different key: misses, then caches.
    auto att = co_await user_k.xpmem_attach(*up, grant.value(), 1_MiB, 1_MiB);
    CO_ASSERT_TRUE(att.ok());
    EXPECT_EQ(owner_k.stats().walk_cache_hits, 3u);
    EXPECT_EQ(owner_k.walk_cache_entries(), 2u);
    CO_ASSERT_TRUE((co_await user_k.xpmem_detach(*up, att.value())).ok());
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

// -------------------------------------------------- attacher mapping reuse

TEST(AttachPath, ContainedReattachReusesFramesWithoutProtocolTraffic) {
  sim::Engine eng(8106);
  Node node(hw::Machine::r420());
  node.set_kernel_config(fast_config());
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner_k = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user_k = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(1_MiB).value();
    auto sid = co_await owner_k.xpmem_make(*op, op->image_base(), 2_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto grant = co_await user_k.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());

    auto full = co_await user_k.xpmem_attach(*up, grant.value(), 0, 2_MiB);
    CO_ASSERT_TRUE(full.ok());
    const u64 served = owner_k.stats().attaches_served;
    const u64 pinned = owner_k.pinned_frames();
    EXPECT_EQ(user_k.attach_cache_entries(), 1u);

    // A contained sub-window: no wire traffic, no new owner pin.
    auto sub = co_await user_k.xpmem_attach(*up, grant.value(), 1_MiB, 512_KiB);
    CO_ASSERT_TRUE(sub.ok());
    EXPECT_EQ(user_k.stats().reuse_hits, 1u);
    EXPECT_EQ(owner_k.stats().attaches_served, served)
        << "reuse must not reach the owner";
    EXPECT_EQ(owner_k.pinned_frames(), pinned) << "one shared pin";
    EXPECT_EQ(sub.value().owner_handle, full.value().owner_handle);

    // The reused mapping aliases the same memory: a write through the
    // sub-window is visible through the original attachment.
    const char pattern[] = "reuse-aliases";
    CO_ASSERT_TRUE(node.enclave("user")
                       .proc_write(*up, sub.value().va, pattern, sizeof(pattern))
                       .ok());
    char back[sizeof(pattern)] = {};
    CO_ASSERT_TRUE(node.enclave("user")
                       .proc_read(*up, full.value().va + 1_MiB, back, sizeof(back))
                       .ok());
    EXPECT_STREQ(back, pattern);

    // Detach in either order: the owner pin survives until the last one.
    CO_ASSERT_TRUE((co_await user_k.xpmem_detach(*up, full.value())).ok());
    EXPECT_EQ(owner_k.pinned_frames(), pinned)
        << "pin held while the sub-window lives";
    CO_ASSERT_TRUE((co_await user_k.xpmem_detach(*up, sub.value())).ok());
    EXPECT_EQ(owner_k.pinned_frames(), 0u);
    EXPECT_EQ(user_k.attach_cache_entries(), 0u);
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
  };
  eng.run(main());
}

// ------------------------------------------- crash / lease-expiry coupling

TEST(AttachPath, OwnerCrashLeavesNoWarmCacheAnywhere) {
  // After the owner crash()es: its own caches are gone with it, the
  // attacher's route/reuse caches drain on the next use, and no cache
  // ever serves the dead owner's frames again.
  sim::Engine eng(8107);
  Node node(hw::Machine::r420());
  KernelConfig cfg = fast_config();
  cfg.lease_duration = 5_ms;
  node.set_kernel_config(cfg);
  auto& mgmt = node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner_k = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user_k = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(1_MiB).value();
    auto sid = co_await owner_k.xpmem_make(*op, op->image_base(), 1_MiB, "v");
    CO_ASSERT_TRUE(sid.ok());
    auto grant = co_await user_k.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());
    auto att = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(att.ok());
    EXPECT_GT(owner_k.walk_cache_entries(), 0u);
    EXPECT_TRUE(user_k.knows_owner(sid.value()));
    EXPECT_EQ(user_k.attach_cache_entries(), 1u);

    owner_k.crash();
    // The dead kernel's own caches died with it.
    EXPECT_EQ(owner_k.walk_cache_entries(), 0u);
    EXPECT_EQ(owner_k.owner_cache_entries(), 0u);
    EXPECT_EQ(owner_k.attach_cache_entries(), 0u);
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);

    // Detaching the dangling attachment reports the owner unreachable (or
    // already GC'd) but still unmaps locally and drops the reuse entry.
    auto det = co_await user_k.xpmem_detach(*up, att.value());
    EXPECT_FALSE(det.ok());
    EXPECT_TRUE(det.error() == Errc::unreachable ||
                det.error() == Errc::no_such_segid)
        << errc_name(det.error());
    EXPECT_EQ(user_k.attach_cache_entries(), 0u)
        << "reuse entry must never outlive its owner-side pin";
    EXPECT_FALSE(user_k.knows_owner(sid.value()))
        << "route-cache entry flushed with the learned route";

    // Past lease expiry the name server has GC'd the segid; a fresh
    // attach resolves through the name server and fails cleanly.
    co_await sim::delay(2 * cfg.lease_duration);
    auto stale = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    EXPECT_FALSE(stale.ok());
    EXPECT_TRUE(stale.error() == Errc::no_such_segid ||
                stale.error() == Errc::unreachable)
        << errc_name(stale.error());
    EXPECT_EQ(user_k.attach_cache_entries(), 0u);
    EXPECT_GE(mgmt.stats().leases_expired, 1u);
  };
  eng.run(main());
}

// --------------------------------------------------------- leak-freedom

TEST(AttachPath, RandomStormWithAllCachesOnIsLeakFree) {
  // The PR-1 storm property, re-run with every fast-path layer enabled:
  // whatever mix of reused/memoized/extent-shipped attachments occurs,
  // teardown must drain every pin and every cache entry.
  sim::Engine eng(8108);
  Node node(hw::Machine::r420());
  node.set_kernel_config(fast_config());
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner_k = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user_k = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(16_MiB).value();
    os::Process* up = node.enclave("user").create_process(1_MiB).value();
    auto sid = co_await owner_k.xpmem_make(*op, op->image_base(), 8_MiB);
    CO_ASSERT_TRUE(sid.ok());
    auto grant = co_await user_k.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());

    Rng rng(424242);
    std::vector<XpmemAttachment> live;
    for (int step = 0; step < 150; ++step) {
      if (live.empty() || rng.uniform() < 0.55) {
        const u64 pages = 1 + rng.uniform_u64(8_MiB / kPageSize);
        const u64 off = rng.uniform_u64(8_MiB / kPageSize - pages + 1);
        auto att = co_await user_k.xpmem_attach(*up, grant.value(),
                                                off * kPageSize,
                                                pages * kPageSize);
        CO_ASSERT_TRUE(att.ok());
        live.push_back(att.value());
      } else {
        const size_t pick = rng.uniform_u64(live.size());
        CO_ASSERT_TRUE((co_await user_k.xpmem_detach(*up, live[pick])).ok());
        live.erase(live.begin() + static_cast<long>(pick));
      }
    }
    EXPECT_GT(user_k.stats().reuse_hits + owner_k.stats().walk_cache_hits, 0u)
        << "the storm should exercise at least one fast-path layer";
    for (auto& att : live) {
      CO_ASSERT_TRUE((co_await user_k.xpmem_detach(*up, att)).ok());
    }
    EXPECT_EQ(user_k.attach_cache_entries(), 0u);
    EXPECT_EQ(owner_k.pinned_frames(), 0u);
    EXPECT_EQ(node.machine().pmem().total_refs(), 0u);
    CO_ASSERT_TRUE((co_await owner_k.xpmem_remove(*op, sid.value())).ok());
    EXPECT_EQ(owner_k.walk_cache_entries(), 0u);
  };
  eng.run(main());
}

TEST(AttachPath, WarmCachesNeverBypassCapabilityChecks) {
  // Regression for the capability model (DESIGN.md §9): the owner's walk
  // cache and the attacher's mapping-reuse cache are populated by earlier
  // rights-checked attaches, so a later attach under a narrower (or
  // revoked) capability must be re-validated BEFORE any cache can answer
  // — a cache hit is never an authorization.
  sim::Engine eng(8107);
  Node node(hw::Machine::r420());
  KernelConfig cfg = fast_config();
  cfg.capabilities = true;
  node.set_kernel_config(cfg);
  node.add_linux_mgmt("linux", 0, {0, 1, 2, 3});
  auto& owner_k = node.add_cokernel("owner", 0, {4, 5}, 256_MiB);
  auto& user_k = node.add_cokernel("user", 0, {6, 7}, 256_MiB);

  auto main = [&]() -> sim::Task<void> {
    co_await node.start();
    os::Process* op = node.enclave("owner").create_process(8_MiB).value();
    os::Process* up = node.enclave("user").create_process(1_MiB).value();
    auto sid = co_await owner_k.xpmem_make(*op, op->image_base(), 1_MiB);
    CO_ASSERT_TRUE(sid.ok());

    // Warm the owner's walk cache with full-rights classic attaches. (The
    // attacher-side reuse layer is disabled outright under capabilities —
    // a cached mapping cannot observe revocation, so every attach must
    // revisit the owner; the walk cache is the fast-path layer that
    // remains, and it must re-validate.)
    auto grant = co_await user_k.xpmem_get(sid.value());
    CO_ASSERT_TRUE(grant.ok());
    auto warm1 = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(warm1.ok());
    auto warm2 = co_await user_k.xpmem_attach(*up, grant.value(), 0, 1_MiB);
    CO_ASSERT_TRUE(warm2.ok());
    EXPECT_GT(owner_k.stats().walk_cache_hits, 0u)
        << "the walk cache must actually be warm for this regression to bite";
    EXPECT_EQ(user_k.stats().reuse_hits, 0u)
        << "mapping reuse must be off while capabilities are enabled";

    // A window-restricted capability over the same segment: attaching
    // outside its window must be denied even though the owner could have
    // answered from the memoized walk and the attacher holds the frames.
    auto root = owner_k.cap_root(sid.value());
    CO_ASSERT_TRUE(root.ok());
    CapRights r;
    r.access = AccessMode::read_only;
    r.window_off = 0;
    r.window_size = 64_KiB;
    auto cap = co_await owner_k.cap_derive(root.value(), r);
    CO_ASSERT_TRUE(cap.ok());
    auto cgrant = co_await user_k.xpmem_get(cap.value(), AccessMode::read_only);
    CO_ASSERT_TRUE(cgrant.ok());
    const u64 denials_before = owner_k.stats().cap_denials;
    EXPECT_EQ(
        (co_await user_k.xpmem_attach(*up, cgrant.value(), 128_KiB, 64_KiB))
            .error(),
        Errc::permission_denied);
    EXPECT_GT(owner_k.stats().cap_denials, denials_before)
        << "the denial must come from the owner's rights check";

    // Inside the window the ro capability maps — without write permission,
    // despite the warm caches having been filled by a rw attach.
    auto ro = co_await user_k.xpmem_attach(*up, cgrant.value(), 0, 64_KiB);
    CO_ASSERT_TRUE(ro.ok());
    co_await node.enclave("user").touch_attached(*up, ro.value().va,
                                                 ro.value().pages);
    const u64 evil = 1;
    EXPECT_EQ(
        node.enclave("user").proc_write(*up, ro.value().va, &evil, 8).error(),
        Errc::permission_denied);

    // After revocation, re-attaching through the dead capability is
    // terminal even though the (segid, offset) range sits in every cache.
    CO_ASSERT_TRUE((co_await owner_k.cap_revoke(cap.value())).ok());
    EXPECT_EQ((co_await user_k.xpmem_attach(*up, cgrant.value(), 0, 64_KiB))
                  .error(),
              Errc::revoked);

    // The classic grant (root capability) is untouched and still served.
    CO_ASSERT_TRUE((co_await user_k.xpmem_attach(*up, grant.value(), 0, 64_KiB)).ok());
  };
  eng.run(main());
}

}  // namespace
}  // namespace xemem
