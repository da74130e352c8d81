// The name-service registry (paper section 3.1): segid -> owning-enclave
// records, the well-known-name index kept in step with them, and the
// owners' leases.
//
// Every shard replica (DESIGN.md §6b), the hub's default one included,
// keeps one and applies its committed ops to it. Iteration order is
// observable: it orders name_list payloads and lease sweeps, and through
// them the shards' lease_gc commits. So the maps stay std::unordered_map, and clear()
// empties them in place (a fresh map would reset the bucket count, and
// with it the order).
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "xemem/wire.hpp"

namespace xemem {

class Registry {
 public:
  struct Record {
    EnclaveId owner;
    u64 size{0};
    std::string name;
  };

  /// The record of @p sid, or nullptr when it is not registered.
  const Record* find(Segid sid) const {
    auto it = segids_.find(sid.value());
    return it != segids_.end() ? &it->second : nullptr;
  }
  bool has_name(const std::string& name) const { return names_.contains(name); }

  /// Register @p sid to @p owner, publishing @p name (if any) with it.
  void add(Segid sid, EnclaveId owner, u64 size, std::string name) {
    if (!name.empty()) names_[name] = sid;
    segids_[sid.value()] = Record{owner, size, std::move(name)};
  }

  /// Withdraw @p sid and its name; false when it was not registered.
  bool erase(Segid sid) {
    auto it = segids_.find(sid.value());
    if (it == segids_.end()) return false;
    if (!it->second.name.empty()) names_.erase(it->second.name);
    segids_.erase(it);
    return true;
  }

  /// Retire @p owner: its lease and every segid and name it registered.
  void erase_owner(EnclaveId owner) {
    leases_.erase(owner.value());
    for (auto it = segids_.begin(); it != segids_.end();) {
      if (it->second.owner == owner) {
        if (!it->second.name.empty()) names_.erase(it->second.name);
        it = segids_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Grant @p owner a lease until @p expiry (or re-arm the one it holds).
  void grant(EnclaveId owner, sim::TimePoint expiry) {
    leases_[owner.value()] = expiry;
  }
  /// Renew-only: an owner whose lease was already collected has been
  /// garbage-collected and must not be resurrected by stale traffic.
  void renew(EnclaveId owner, sim::TimePoint expiry) {
    auto it = leases_.find(owner.value());
    if (it != leases_.end()) it->second = expiry;
  }
  /// Owners whose lease expired by @p t (expiry <= t), in lease-map order.
  std::vector<EnclaveId> expired(sim::TimePoint t) const {
    std::vector<EnclaveId> dead;
    for (const auto& [e, expiry] : leases_) {
      if (expiry <= t) dead.push_back(EnclaveId{e});
    }
    return dead;
  }
  /// Whether @p owner still holds a lease, and it expired by @p t.
  bool lease_expired(EnclaveId owner, sim::TimePoint t) const {
    auto it = leases_.find(owner.value());
    return it != leases_.end() && it->second <= t;
  }
  bool has_lease(EnclaveId owner) const { return leases_.contains(owner.value()); }

  /// Answer a name_lookup into @p resp: the segid and size published
  /// under @p name, or Errc::no_such_segid.
  void lookup(const std::string& name, Message* resp) const {
    auto it = names_.find(name);
    if (it == names_.end()) {
      resp->status = Errc::no_such_segid;
      return;
    }
    resp->segid = it->second;
    resp->size = segids_.at(it->second.value()).size;
  }
  /// Answer a name_list into @p resp: the names '\n'-separated in
  /// resp->name, their segids in resp->payload in the same order.
  void list(Message* resp) const {
    for (const auto& [name, sid] : names_) {
      if (!resp->name.empty()) resp->name += '\n';
      resp->name += name;
      resp->payload.push_back(sid.value());
    }
  }

  u64 segid_count() const { return segids_.size(); }
  u64 name_count() const { return names_.size(); }

  /// Forget everything; each map keeps its bucket array.
  void clear() {
    segids_.clear();
    names_.clear();
    leases_.clear();
  }

 private:
  std::unordered_map<u64, Record> segids_;
  std::unordered_map<std::string, Segid> names_;
  std::unordered_map<u64, sim::TimePoint> leases_;  // owner -> expiry
};

}  // namespace xemem
