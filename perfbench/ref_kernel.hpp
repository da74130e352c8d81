// The reference kernel: a fixed host workload with the simulator's access
// mix, timed between ops in the same process.
//
// Host speed on a shared virtual machine drifts by tens of percent within
// seconds. Dividing an op's host time by the time of this kernel, run at
// the same moments, cancels most of that drift (wall_rel). The kernel calls
// no repository code, so no change to the simulator can move it; what it
// exercises mirrors where the simulator spends host time:
//  * ordered-map churn (the Palacios RB-tree, per-page kernel maps);
//  * binary-heap push/pop of (time, seq) keys (the event queues);
//  * small-object allocation churn (coroutine frames, messages);
//  * a memcpy stream (PFN lists, page tables, wire payloads).
#pragma once

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

class RefKernel {
 public:
  RefKernel() : a_(kStreamBytes, 0x5a), b_(kStreamBytes, 0xa5) {}

  /// One pass of fixed work; returns a checksum that is the same on every
  /// pass (the caller checks it, which also keeps the work observable).
  xemem::u64 pass() {
    using xemem::u64;
    u64 x = 0x243f6a8885a308d3ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    u64 acc = 0;

    std::map<u64, u64> tree;
    for (u64 i = 0; i < kMapOps; ++i) tree.emplace(next() & 0xffffff, i);
    for (u64 i = 0; i < kMapOps; ++i) {
      auto it = tree.lower_bound(next() & 0xffffff);
      if (it == tree.end()) continue;
      acc += it->second;
      tree.erase(it);
    }

    using Key = std::pair<u64, u64>;
    std::priority_queue<Key, std::vector<Key>, std::greater<>> heap;
    std::vector<std::unique_ptr<u64[]>> objs(64);
    for (u64 i = 0; i < kHeapOps; ++i) {
      heap.emplace(next() & 0xffff, i);
      objs[i % objs.size()] = std::make_unique<u64[]>(1 + (i & 15));
      objs[i % objs.size()][0] = i;
      if (i & 1) {
        acc += heap.top().second;
        heap.pop();
      }
    }
    for (const auto& o : objs) acc += o[0];

    for (u64 k = 0; k < kCopies; ++k) {
      std::memcpy(k % 2 ? a_.data() : b_.data(), k % 2 ? b_.data() : a_.data(),
                  kStreamBytes);
      acc += a_[next() % kStreamBytes];
    }
    return acc;
  }

 private:
  static constexpr xemem::u64 kMapOps = 6000;
  static constexpr xemem::u64 kHeapOps = 12000;
  static constexpr xemem::u64 kCopies = 2;
  static constexpr xemem::u64 kStreamBytes = 4u << 20;

  std::vector<unsigned char> a_;
  std::vector<unsigned char> b_;
};

}  // namespace perfbench
