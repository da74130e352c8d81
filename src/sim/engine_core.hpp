// Shared core of the discrete-event engines: the 32-byte event record, the
// 4-ary event heap, the callback table, and the interface both engine
// implementations (serial_engine.hpp, parallel_engine.hpp) present to the
// sim::Engine facade in engine.hpp.
//
// Events are totally ordered by the key `(time, creating partition,
// per-partition sequence)`. A single-partition run degenerates to the
// classic `(time, seq)` FIFO tie-break, so single-partition schedules are
// bit-identical to the historical serial engine. With several partitions
// the key stays deterministic on both engines because every component is
// derived from simulation state, never from wall-clock arrival order:
// partition p stamps its p-local sequence counter into every event it
// creates, including events it sends across a partition boundary.
#pragma once

#include <algorithm>
#include <coroutine>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace xemem::sim {

class Engine;  // facade, defined in engine.hpp

/// Which implementation drives a sim::Engine.
enum class EngineKind : u8 {
  serial,    ///< one thread, one queue, one clock (the historical engine)
  parallel,  ///< one queue + clock per partition, worker threads,
             ///  conservative lookahead between partitions
};

namespace detail {

/// Engine driving the currently-executing event on this thread. The
/// facade's Engine::current() reads this; engine implementations set and
/// restore it around every event execution (and for the whole lifetime of
/// a parallel worker thread).
inline thread_local Engine* g_current_engine = nullptr;

/// Deterministic per-partition RNG seeding: partition 0 keeps the user's
/// seed verbatim (bit-compat with the historical single-clock engine);
/// higher partitions derive independent streams.
inline u64 partition_seed(u64 seed, u32 part) {
  return part == 0 ? seed : seed + 0x9e3779b97f4a7c15ull * (part + 1);
}

inline constexpr TimePoint kInfTime = std::numeric_limits<u64>::max();

/// `a + b` on TimePoints without wrapping past infinity.
inline TimePoint sat_add(TimePoint a, Duration b) {
  return a > kInfTime - b ? kInfTime : a + b;
}

/// Event keys pack (creating partition, that partition's sequence number)
/// into one word, partition in the top 16 bits, so the total order is a
/// plain compare on (t, key).
inline constexpr u32 kPartBits = 16;
inline constexpr u32 kSeqBits = 64 - kPartBits;
inline constexpr u64 kMaxPartitions = u64{1} << kPartBits;
inline constexpr u64 kSeqLimit = u64{1} << kSeqBits;

inline u64 pack_key(u32 part, u64 seq) {
  XEMEM_ASSERT_MSG(part < kMaxPartitions, "partition id exceeds the event key");
  XEMEM_ASSERT_MSG(seq < kSeqLimit, "sequence number exceeds the event key");
  return (u64{part} << kSeqBits) | seq;
}

/// One scheduled wakeup: a trivially copyable 32-byte record. The payload
/// is tagged by its low bit: a coroutine frame address (frames are at
/// least 2-byte aligned, so the bit is clear), or `(slot << 1) | 1`, an
/// index into the executing partition's CallbackTable.
struct Event {
  TimePoint t{};
  u64 key{0};         ///< pack_key(creating partition, its sequence number)
  u64 payload{0};     ///< tagged coroutine handle or callback slot
  u32 owner_part{0};  ///< partition whose clock/queue executes it

  static Event resume(TimePoint t, u64 key, u32 owner,
                      std::coroutine_handle<> h) {
    const auto addr = reinterpret_cast<u64>(h.address());
    XEMEM_ASSERT((addr & 1) == 0);
    return Event{t, key, addr, owner};
  }
  static Event callback(TimePoint t, u64 key, u32 owner, u32 slot) {
    return Event{t, key, (u64{slot} << 1) | 1, owner};
  }

  bool is_callback() const { return (payload & 1) != 0; }
  u32 slot() const { return static_cast<u32>(payload >> 1); }
  std::coroutine_handle<> handle() const {
    return std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(payload));
  }
  u32 key_part() const { return static_cast<u32>(key >> kSeqBits); }
  u64 key_seq() const { return key & (kSeqLimit - 1); }

  bool before(const Event& o) const {
    using u128 = unsigned __int128;
    return ((u128{t} << 64) | key) < ((u128{o.t} << 64) | o.key);
  }
};
static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) <= 32);

/// Min-heap of events on (t, key): a 4-ary heap, so a pop walks half the
/// levels of a binary heap, picking the least of four contiguous children
/// per level. The key is unique per event, so the pop order is the same
/// total order whatever the heap's shape.
class EventHeap {
 public:
  bool empty() const { return v_.empty(); }
  u64 size() const { return v_.size(); }
  const Event& top() const { return v_.front(); }

  void push(const Event& e) {
    size_t i = v_.size();
    v_.push_back(e);
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!e.before(v_[parent])) break;
      v_[i] = v_[parent];
      i = parent;
    }
    v_[i] = e;
  }

  Event pop() {
    const Event top = v_.front();
    const Event last = v_.back();
    v_.pop_back();
    const size_t n = v_.size();
    if (n == 0) return top;
    size_t i = 0;
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      const size_t end = std::min(first + 4, n);
      size_t best = first;
      for (size_t c = first + 1; c < end; ++c) {
        if (v_[c].before(v_[best])) best = c;
      }
      if (!v_[best].before(last)) break;
      v_[i] = v_[best];
      i = best;
    }
    v_[i] = last;
    return top;
  }

 private:
  std::vector<Event> v_;
};

/// Free-listed table of call_at/call_in callbacks, one per serial engine
/// and one per parallel partition; only the thread executing that engine
/// or partition touches it. Events carry slot indices, so the heap moves
/// 32-byte records instead of std::function objects.
class CallbackTable {
 public:
  u32 put(std::function<void()> fn) {
    if (free_.empty()) {
      slots_.push_back(std::move(fn));
      return static_cast<u32>(slots_.size() - 1);
    }
    const u32 slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(fn);
    return slot;
  }

  /// Move the callback out and free its slot, so the callback may
  /// schedule further callbacks (and grow the table) while it runs.
  std::function<void()> take(u32 slot) {
    std::function<void()> fn = std::exchange(slots_[slot], nullptr);
    free_.push_back(slot);
    return fn;
  }

 private:
  std::vector<std::function<void()>> slots_;
  std::vector<u32> free_;
};

/// A detached actor kept alive by the engine until completion. Destroying
/// a completed actor that died with an exception surfaces the failure
/// instead of silently dropping it.
struct Detached {
  std::coroutine_handle<Task<void>::promise_type> handle{};
  bool done{false};

  Detached() = default;
  Detached(const Detached&) = delete;
  Detached& operator=(const Detached&) = delete;

  ~Detached() {
    if (handle) {
      if (done && handle.promise().exception) {
        try {
          std::rethrow_exception(handle.promise().exception);
        } catch (const std::exception& e) {
          XEMEM_PANIC(e.what());
        } catch (...) {
          XEMEM_PANIC("detached simulation task failed");
        }
      }
      handle.destroy();
    }
  }
};

/// The interface both engines implement behind the sim::Engine facade.
/// Contracts shared by both:
///  * schedule_at/call_at create events in the partition executing the
///    current event (partition 0 outside event execution);
///  * call_in with a foreign target partition requires
///    `t >= now + lookahead` — channels with modeled latency are the only
///    legal cross-partition edges;
///  * spawn_in into a foreign partition is a setup-time operation (before
///    the engine runs); at runtime actors spawn into their own partition.
class EngineImpl {
 public:
  virtual ~EngineImpl() = default;

  virtual TimePoint now() const = 0;
  virtual Rng& rng() = 0;
  virtual void schedule_at(TimePoint t, std::coroutine_handle<> h) = 0;
  virtual void call_at(TimePoint t, std::function<void()> fn) = 0;
  virtual void call_in(u32 part, TimePoint t, std::function<void()> fn) = 0;
  virtual void spawn_in(u32 part, Task<void> task) = 0;
  virtual void run_root(std::coroutine_handle<> h, bool* done) = 0;
  virtual void run_until_idle() = 0;
  virtual void run_until(TimePoint t) = 0;
  virtual bool step() = 0;
  virtual void set_partitions(u32 n, Duration lookahead) = 0;
  virtual u32 partitions() const = 0;
  virtual u32 current_partition() const = 0;
  virtual Duration lookahead() const = 0;
  virtual u64 events_processed() const = 0;
  virtual u64 events_scheduled() const = 0;
};

}  // namespace detail
}  // namespace xemem::sim
