// Unit tests for the discrete-event simulation engine: clock behaviour,
// event ordering, coroutine task composition, synchronization primitives,
// the processor-sharing bandwidth model, and the event core (4-ary heap
// against a sorted oracle, callback tables on both engines).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/shared_resource.hpp"
#include "sim/sync.hpp"

namespace xemem::sim {
namespace {

TEST(Engine, ClockStartsAtZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
}

TEST(Engine, DelayAdvancesVirtualClock) {
  Engine eng;
  auto t = eng.run([]() -> Task<u64> {
    co_await delay(250_us);
    co_return now();
  }());
  EXPECT_EQ(t, 250_us);
  EXPECT_EQ(eng.now(), 250_us);
}

TEST(Engine, NestedTasksComposeDurations) {
  Engine eng;
  auto inner = []() -> Task<u64> {
    co_await delay(10_ns);
    co_return now();
  };
  auto t = eng.run([&]() -> Task<u64> {
    co_await delay(5_ns);
    u64 mid = co_await inner();
    co_await delay(5_ns);
    co_return mid + (now() - mid);
  }());
  EXPECT_EQ(t, 20u);
}

TEST(Engine, TaskReturnsValue) {
  Engine eng;
  auto v = eng.run([]() -> Task<int> { co_return 42; }());
  EXPECT_EQ(v, 42);
}

TEST(Engine, SameTimeEventsFireInFifoOrder) {
  Engine eng;
  std::vector<int> order;
  auto mk = [&order](int id) -> Task<void> {
    co_await delay(100_ns);
    order.push_back(id);
  };
  eng.spawn(mk(1));
  eng.spawn(mk(2));
  eng.spawn(mk(3));
  eng.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, DelayUntilPastIsNoop) {
  Engine eng;
  auto t = eng.run([]() -> Task<u64> {
    co_await delay(100_ns);
    co_await delay_until(50_ns);  // already in the past
    co_return now();
  }());
  EXPECT_EQ(t, 100u);
}

TEST(Engine, RunUntilAdvancesClockWithEmptyQueue) {
  Engine eng;
  eng.run_until(1_s);
  EXPECT_EQ(eng.now(), 1_s);
}

TEST(Engine, DetachedTasksRunToCompletion) {
  Engine eng;
  int done = 0;
  eng.spawn([](int* d) -> Task<void> {
    co_await delay(1_us);
    ++*d;
  }(&done));
  eng.run_until_idle();
  EXPECT_EQ(done, 1);
}

TEST(Engine, ExceptionsPropagateThroughRun) {
  Engine eng;
  auto boom = []() -> Task<void> {
    co_await delay(1_ns);
    throw std::runtime_error("boom");
  };
  EXPECT_THROW(eng.run(boom()), std::runtime_error);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto experiment = [] {
    Engine eng(12345);
    std::vector<u64> trace;
    auto actor = [&trace](u64 base) -> Task<void> {
      Rng rng = Engine::current()->rng().fork();
      for (int i = 0; i < 10; ++i) {
        co_await delay(base + rng.uniform_u64(100));
        trace.push_back(now());
      }
    };
    eng.spawn(actor(10));
    eng.spawn(actor(20));
    eng.run_until_idle();
    return trace;
  };
  EXPECT_EQ(experiment(), experiment());
}

TEST(Event, ReleasesAllWaiters) {
  Engine eng;
  Event ev;
  int woken = 0;
  auto waiter = [&]() -> Task<void> {
    co_await ev.wait();
    ++woken;
  };
  auto setter = [&]() -> Task<void> {
    co_await delay(5_ns);
    ev.set();
    co_return;
  };
  eng.spawn(waiter());
  eng.spawn(waiter());
  eng.spawn(setter());
  eng.run_until_idle();
  EXPECT_EQ(woken, 2);
  EXPECT_TRUE(ev.is_set());
}

TEST(Event, SetBeforeWaitDoesNotBlock) {
  Engine eng;
  Event ev;
  auto t = eng.run([&]() -> Task<u64> {
    ev.set();
    co_await ev.wait();
    co_return now();
  }());
  EXPECT_EQ(t, 0u);
}

// NOTE: coroutine lambdas must outlive their coroutines (the closure is not
// copied into the frame), so tests name their lambdas as locals that live
// until run_until_idle() returns.
TEST(Mailbox, FifoDelivery) {
  Engine eng;
  Mailbox<int> mb;
  std::vector<int> got;
  auto receiver = [&]() -> Task<void> {
    for (int i = 0; i < 3; ++i) got.push_back(co_await mb.recv());
  };
  auto sender = [&]() -> Task<void> {
    mb.send(1);
    co_await delay(1_ns);
    mb.send(2);
    mb.send(3);
  };
  eng.spawn(receiver());
  eng.spawn(sender());
  eng.run_until_idle();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Mailbox, BlockedReceiverWakesOnSend) {
  Engine eng;
  Mailbox<int> mb;
  auto sender = [&]() -> Task<void> {
    co_await delay(7_ns);
    mb.send(99);
  };
  auto main = [&]() -> Task<u64> {
    Engine::current()->spawn(sender());
    int v = co_await mb.recv();
    EXPECT_EQ(v, 99);
    co_return now();
  };
  auto t = eng.run(main());
  EXPECT_EQ(t, 7u);
}

TEST(Mailbox, TryRecvNonBlocking) {
  Engine eng;
  Mailbox<int> mb;
  EXPECT_FALSE(mb.try_recv().has_value());
  eng.run([&]() -> Task<void> {
    mb.send(5);
    co_return;
  }());
  auto v = mb.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
}

TEST(Mailbox, MultipleWaitersServedInOrder) {
  Engine eng;
  Mailbox<int> mb;
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  auto rcv = [&](int id) -> Task<void> {
    int v = co_await mb.recv();
    got.emplace_back(id, v);
  };
  auto sender = [&]() -> Task<void> {
    co_await delay(1_ns);
    mb.send(10);
    mb.send(20);
  };
  eng.spawn(rcv(1));
  eng.spawn(rcv(2));
  eng.spawn(sender());
  eng.run_until_idle();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(1, 10));
  EXPECT_EQ(got[1], std::make_pair(2, 20));
}

TEST(Semaphore, LimitsConcurrency) {
  Engine eng;
  Semaphore sem(2);
  int peak = 0;
  int active = 0;
  auto worker = [&]() -> Task<void> {
    co_await sem.acquire();
    ++active;
    peak = std::max(peak, active);
    co_await delay(10_ns);
    --active;
    sem.release();
  };
  for (int i = 0; i < 5; ++i) eng.spawn(worker());
  eng.run_until_idle();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Mutex, SerializesCriticalSections) {
  Engine eng;
  Mutex mtx;
  u64 in_section = 0;
  bool overlapped = false;
  auto worker = [&]() -> Task<void> {
    co_await mtx.lock();
    if (in_section != 0) overlapped = true;
    ++in_section;
    co_await delay(50_ns);
    --in_section;
    mtx.unlock();
  };
  for (int i = 0; i < 4; ++i) eng.spawn(worker());
  eng.run_until_idle();
  EXPECT_FALSE(overlapped);
  EXPECT_EQ(eng.now(), 200u);  // 4 x 50ns strictly serialized
}

TEST(Barrier, ReleasesWhenAllArrive) {
  Engine eng;
  Barrier bar(3);
  std::vector<u64> release_times;
  auto worker = [&](Duration d) -> Task<void> {
    co_await delay(d);
    co_await bar.arrive_and_wait();
    release_times.push_back(now());
  };
  eng.spawn(worker(10_ns));
  eng.spawn(worker(20_ns));
  eng.spawn(worker(30_ns));
  eng.run_until_idle();
  ASSERT_EQ(release_times.size(), 3u);
  for (auto t : release_times) EXPECT_EQ(t, 30u);
}

TEST(SharedBandwidth, SingleTransferAtFullRate) {
  Engine eng;
  SharedBandwidth bw(2.0);  // 2 bytes/ns
  auto t = eng.run([&]() -> Task<u64> {
    co_await bw.transfer(1000);
    co_return now();
  }());
  EXPECT_EQ(t, 500u);
}

TEST(SharedBandwidth, TwoTransfersShareFairly) {
  Engine eng;
  SharedBandwidth bw(2.0);
  std::vector<u64> done;
  auto xfer = [&](u64 bytes) -> Task<void> {
    co_await bw.transfer(bytes);
    done.push_back(now());
  };
  eng.spawn(xfer(1000));
  eng.spawn(xfer(1000));
  eng.run_until_idle();
  ASSERT_EQ(done.size(), 2u);
  // Both share 2 B/ns -> each sees 1 B/ns -> both done ~1000 ns.
  EXPECT_NEAR(static_cast<double>(done[0]), 1000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(done[1]), 1000.0, 2.0);
}

TEST(SharedBandwidth, LateArrivalSlowsFirstTransfer) {
  Engine eng;
  SharedBandwidth bw(1.0);  // 1 byte/ns
  std::vector<u64> done;
  auto first = [&]() -> Task<void> {
    co_await bw.transfer(1000);
    done.push_back(now());
  };
  auto second = [&]() -> Task<void> {
    co_await delay(500_ns);  // join when the first job is half finished
    co_await bw.transfer(250);
    done.push_back(now());
  };
  eng.spawn(first());
  eng.spawn(second());
  eng.run_until_idle();
  ASSERT_EQ(done.size(), 2u);
  // t in [0,500): job1 alone, 500 bytes done. t in [500,1000): both at
  // 0.5 B/ns; job2's 250 bytes take 500 ns -> done at 1000. Job1 then has
  // 250 bytes left alone -> done at 1250.
  EXPECT_NEAR(static_cast<double>(done[0]), 1000.0, 3.0);
  EXPECT_NEAR(static_cast<double>(done[1]), 1250.0, 3.0);
}

TEST(SharedBandwidth, ZeroByteTransferIsImmediate) {
  Engine eng;
  SharedBandwidth bw(1.0);
  auto t = eng.run([&]() -> Task<u64> {
    co_await bw.transfer(0);
    co_return now();
  }());
  EXPECT_EQ(t, 0u);
}

TEST(SharedBandwidth, ManyConcurrentTransfersConserveCapacity) {
  Engine eng;
  SharedBandwidth bw(4.0);
  constexpr int kJobs = 8;
  std::vector<u64> done;
  auto job = [&]() -> Task<void> {
    co_await bw.transfer(1000);
    done.push_back(now());
  };
  for (int i = 0; i < kJobs; ++i) eng.spawn(job());
  eng.run_until_idle();
  ASSERT_EQ(done.size(), static_cast<size_t>(kJobs));
  // 8 jobs x 1000 B at 4 B/ns aggregate -> all finish ~2000 ns.
  for (auto t : done) EXPECT_NEAR(static_cast<double>(t), 2000.0, 5.0);
}

TEST(Engine, EventsProcessedCountsExecutionsNotSchedules) {
  // Regression: events_processed() used to report the schedule sequence
  // counter, so pending (never-executed) events were counted as processed.
  Engine eng;
  auto idle = []() -> Task<void> { co_await delay(10_ns); };
  eng.spawn(idle());
  eng.spawn(idle());
  ASSERT_EQ(eng.events_processed(), 0u) << "nothing has executed yet";
  EXPECT_EQ(eng.events_scheduled(), 2u);
  ASSERT_TRUE(eng.step());
  EXPECT_EQ(eng.events_processed(), 1u);
  eng.run_until_idle();
  // Every execution counted exactly once, and every schedule exists.
  EXPECT_EQ(eng.events_processed(), eng.events_scheduled());
  EXPECT_EQ(eng.events_processed(), 4u);  // 2 spawns + 2 delay resumes
}

TEST(Engine, SerialAndParallelAgreeOnSingleRun) {
  // A single-partition parallel run must execute the bit-identical
  // schedule of the serial engine: same event count, same final clock,
  // same result, same RNG stream.
  auto run_one = [](EngineKind kind) {
    Engine eng(99, kind, 1);
    std::vector<u64> draws;
    auto actor = [&](Duration d) -> Task<void> {
      co_await delay(d);
      draws.push_back(Engine::current()->rng().next());
      co_await delay(d);
      draws.push_back(Engine::current()->rng().next());
    };
    eng.spawn(actor(10_ns));
    eng.spawn(actor(15_ns));
    const u64 end = eng.run([]() -> Task<u64> {
      co_await delay(40_ns);
      co_return now();
    }());
    return std::tuple{end, eng.events_processed(), eng.events_scheduled(),
                      draws};
  };
  EXPECT_EQ(run_one(EngineKind::serial), run_one(EngineKind::parallel));
}

TEST(Engine, PartitionsExposeTopology) {
  Engine eng(1, EngineKind::parallel, 4);
  EXPECT_EQ(eng.partitions(), 1u);
  EXPECT_EQ(eng.workers(), 1u) << "workers never exceed partitions";
  eng.set_partitions(3, /*lookahead=*/1000);
  EXPECT_EQ(eng.partitions(), 3u);
  EXPECT_EQ(eng.lookahead(), 1000u);
  EXPECT_EQ(eng.workers(), 3u);
  EXPECT_EQ(eng.current_partition(), 0u) << "partition 0 outside events";
}

TEST(Engine, SpawnInRunsActorInItsPartition) {
  for (EngineKind kind : {EngineKind::serial, EngineKind::parallel}) {
    Engine eng(5, kind, 2);
    eng.set_partitions(2, /*lookahead=*/1_us);
    u32 seen = ~0u;
    auto probe = [&]() -> Task<void> {
      seen = Engine::current()->current_partition();
      co_return;
    };
    eng.spawn_in(1, probe());
    eng.run([]() -> Task<void> { co_await delay(10_us); }());
    EXPECT_EQ(seen, 1u);
  }
}

TEST(Engine, CrossPartitionCallInHonorsLookahead) {
  // call_in past the lookahead window is the one legal cross-partition
  // edge; the callback executes in the target partition at the given time.
  for (EngineKind kind : {EngineKind::serial, EngineKind::parallel}) {
    Engine eng(5, kind, 2);
    eng.set_partitions(2, /*lookahead=*/1_us);
    u32 part = ~0u;
    u64 when = 0;
    // A capture larger than std::function's inline buffer travels the
    // inbox on the heap and must arrive intact.
    std::array<u64, 24> sent{};
    for (u64 i = 0; i < sent.size(); ++i) {
      sent[i] = 0x9e3779b97f4a7c15ull * (i + 1);
    }
    std::array<u64, 24> got{};
    auto sender = [&]() -> Task<void> {
      auto* e = Engine::current();
      e->call_in(0, e->now() + 2_us, [&, words = sent] {
        part = Engine::current()->current_partition();
        when = Engine::current()->now();
        got = words;
      });
      co_return;
    };
    eng.spawn_in(1, sender());
    eng.run([]() -> Task<void> { co_await delay(10_us); }());
    EXPECT_EQ(part, 0u);
    EXPECT_EQ(when, 2_us);
    EXPECT_EQ(got, sent);
  }
}

TEST(Engine, PublishedClocksResetAcrossRuns) {
  // Regression: while a partition idles near the end of a run its
  // published clock ratchets toward the busy partitions' progress. A
  // second run on the same engine must not compute horizons from those
  // stale-high clocks, or a receiver executes past a cross-partition
  // delivery the idle partition will still send. One worker makes the
  // visit order (p0, p1, p0, ...) — and thus the failure — deterministic.
  Engine eng(5, EngineKind::parallel, 1);
  eng.set_partitions(2, /*lookahead=*/100_us);

  // Run 1: partition 0 advances to 2 ms while partition 1 stays at 0;
  // partition 1's published clock ends up near 2 ms regardless.
  eng.run([]() -> Task<void> { co_await delay(2_ms); }());

  // Run 2: partition 1 sends a delivery into partition 0 at 2 ms + 2 us;
  // partition 0 has its own local event at 2 ms + 5 us. The delivery must
  // execute first even though partition 1's stale clock would have put
  // partition 0's horizon far beyond both.
  std::vector<u64> order;
  auto sender = [&]() -> Task<void> {
    Engine::current()->call_in(0, 2_ms + 2_us, [&] {
      order.push_back(Engine::current()->now());
    });
    co_return;
  };
  eng.spawn_in(1, sender());
  eng.run([&]() -> Task<void> {
    co_await delay(5_us);
    order.push_back(Engine::current()->now());
    co_await delay(1_ms);
  }());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2_ms + 2_us);
  EXPECT_EQ(order[1], 2_ms + 5_us);
}

// ------------------------------------------------------------ event core

constexpr EngineKind kBothEngines[] = {EngineKind::serial,
                                       EngineKind::parallel};

/// Differential check of the 4-ary EventHeap against a sorted oracle on
/// (t, key_part, key_seq). Times come from a tiny range and keys from four
/// partitions, so most comparisons are ties on t broken by the key.
TEST(EventHeap, PopOrderMatchesSortedOracle) {
  using detail::Event;
  using Key = std::tuple<TimePoint, u32, u64>;
  Rng rng(2024);
  std::array<u64, 4> seq{};
  detail::EventHeap heap;
  std::set<Key> oracle;
  auto push = [&] {
    const TimePoint t = rng.next() % 4;
    const u32 part = static_cast<u32>(rng.next() % seq.size());
    const u64 s = seq[part]++;
    heap.push(Event::callback(t, detail::pack_key(part, s), part, 0));
    oracle.emplace(t, part, s);
  };
  // True if the heap pops the oracle's minimum (which is consumed).
  auto pop_matches = [&] {
    if (heap.empty() || oracle.empty()) return false;
    const Event e = heap.pop();
    const Key want = *oracle.begin();
    oracle.erase(oracle.begin());
    return Key(e.t, e.key_part(), e.key_seq()) == want;
  };
  // Sizes at the 4-ary boundaries: 5 and 21 events fill two and three
  // levels. Each round moves the heap through n - 1, n and n + 1.
  for (u32 n : {0u, 1u, 4u, 5u, 20u, 21u, 22u}) {
    for (u32 i = 0; i < n; ++i) push();
    ASSERT_EQ(heap.size(), n);
    for (int round = 0; round < 40; ++round) {
      push();
      ASSERT_TRUE(pop_matches()) << "size " << n << ", round " << round;
      if (n > 0) {
        ASSERT_TRUE(pop_matches()) << "size " << n << ", round " << round;
        push();
      }
      ASSERT_EQ(heap.size(), n);
    }
    while (!oracle.empty()) ASSERT_TRUE(pop_matches()) << "draining size " << n;
    ASSERT_TRUE(heap.empty());
  }
  // Long random interleaving; pushes outnumber pops 5:3, so the heap
  // grows to a few thousand events.
  for (int op = 0; op < 20000; ++op) {
    if (oracle.empty() || rng.next() % 8 < 5) {
      push();
    } else {
      ASSERT_TRUE(pop_matches()) << "op " << op;
    }
    ASSERT_EQ(heap.size(), oracle.size());
  }
  while (!oracle.empty()) ASSERT_TRUE(pop_matches()) << "final drain";
  EXPECT_TRUE(heap.empty());
}

/// A shared_ptr whose deleter counts how often its object is deleted.
std::shared_ptr<int> counted_token(int& deleted) {
  return std::shared_ptr<int>(new int(7), [&deleted](int* p) {
    ++deleted;
    delete p;
  });
}

TEST(CallbackTable, CaptureReleasedOnceAfterItsCallbackRuns) {
  for (EngineKind kind : kBothEngines) {
    Engine eng(1, kind, 1);
    int deleted = 0;
    auto token = counted_token(deleted);
    long during = 0;
    eng.call_at(10, [token, &during] { during = token.use_count(); });
    EXPECT_EQ(token.use_count(), 2);
    eng.run_until_idle();
    EXPECT_EQ(during, 2) << "the callback owns its capture while it runs";
    EXPECT_EQ(token.use_count(), 1) << "capture released after the run";
    // The freed slot is reused by the next callback without touching the
    // released capture.
    int reused = 0;
    eng.call_at(20, [&reused] { ++reused; });
    eng.run_until_idle();
    EXPECT_EQ(reused, 1);
    EXPECT_EQ(deleted, 0);
    token.reset();
    EXPECT_EQ(deleted, 1);
  }
}

TEST(CallbackTable, QueuedCallbacksReleasedAtTeardown) {
  for (EngineKind kind : kBothEngines) {
    int deleted = 0;
    auto token = counted_token(deleted);
    // Never run: one callback in partition 0's table, one in partition 1's
    // (on the parallel engine, still in its inbox).
    {
      Engine eng(3, kind, 2);
      eng.set_partitions(2, /*lookahead=*/1_us);
      eng.call_at(5_us, [token, pad = std::array<u64, 24>{}] { (void)pad; });
      eng.call_in(1, 2_us, [token, pad = std::array<u64, 24>{}] { (void)pad; });
      EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
    // Run, then stop with callbacks still queued behind the root task.
    {
      Engine eng(3, kind, 1);
      for (u64 i = 0; i < 5; ++i) {
        eng.call_at(20_us + i,
                    [token, pad = std::array<u64, 24>{}] { (void)pad; });
      }
      eng.run([]() -> Task<void> { co_await delay(10_us); }());
      EXPECT_EQ(token.use_count(), 6);
    }
    EXPECT_EQ(token.use_count(), 1);
    token.reset();
    EXPECT_EQ(deleted, 1);
  }
}

TEST(CallbackTable, NestedSameTimeCallbacksRunInFifoOrder) {
  for (EngineKind kind : kBothEngines) {
    Engine eng(1, kind, 1);
    std::vector<int> order;
    eng.call_at(10, [&order] {
      order.push_back(0);
      auto* e = Engine::current();
      // Two at a later common time, then two at the current time: each
      // pair runs in the order it was scheduled.
      e->call_at(20, [&order] { order.push_back(3); });
      e->call_at(20, [&order] { order.push_back(4); });
      e->call_at(e->now(), [&order] { order.push_back(1); });
      e->call_at(e->now(), [&order] { order.push_back(2); });
    });
    eng.run_until_idle();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  }
}

TEST(EventKeyDeathTest, PackedPartitionAndSequenceBounds) {
  using detail::kMaxPartitions;
  using detail::kSeqLimit;
  const u64 top = detail::pack_key(static_cast<u32>(kMaxPartitions - 1),
                                   kSeqLimit - 1);
  const auto e = detail::Event::callback(0, top, 0, 0);
  EXPECT_EQ(e.key_part(), kMaxPartitions - 1);
  EXPECT_EQ(e.key_seq(), kSeqLimit - 1);
  EXPECT_DEATH(detail::pack_key(0, kSeqLimit), "sequence number exceeds");
  EXPECT_DEATH(detail::pack_key(static_cast<u32>(kMaxPartitions), 0),
               "partition id exceeds");
  for (EngineKind kind : kBothEngines) {
    EXPECT_DEATH(
        {
          Engine eng(1, kind, 1);
          eng.set_partitions(static_cast<u32>(kMaxPartitions + 1), 1_us);
        },
        "too many partitions");
  }
}

}  // namespace
}  // namespace xemem::sim
