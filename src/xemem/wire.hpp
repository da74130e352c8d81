// XEMEM cross-enclave wire protocol.
//
// Kernel-level messages exchanged between enclave OSes (paper sections
// 3.2, 4.2, 4.5). Messages either carry one of the XPMEM commands
// (Table 1), the routing-protocol control traffic (name-server discovery
// and enclave-ID allocation), or the name-space discoverability queries.
//
// Every message is routed by (src, dst) enclave IDs through the
// hierarchical topology; responses correlate to requests via req_id.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "mm/pfn_list.hpp"

namespace xemem {

enum class Cmd : u8 {
  // Routing protocol (section 3.2).
  ping_ns,           ///< broadcast: "do you know a path to the name server?"
  ping_ns_resp,      ///< "yes, through me"
  alloc_enclave_id,  ///< request a unique enclave ID from the name server
  enclave_id_resp,

  // Name space (sections 3.1, 4.2).
  segid_alloc,       ///< request a fresh segid (owner registers a region)
  segid_alloc_resp,
  segid_remove,      ///< owner withdraws a segid
  segid_remove_resp,
  name_lookup,       ///< discoverability: resolve a well-known name -> segid
  name_lookup_resp,
  name_list,         ///< discoverability: enumerate all published names
  name_list_resp,    ///< '\n'-joined names + parallel segid payload

  // Dynamic partitioning (section 3.2): an enclave leaving the system
  // tells the hub to retire its routes and any segids it owned.
  enclave_shutdown,

  // Liveness: one-way lease renewal sent by registered enclaves to every
  // registry replica host. Enclaves whose lease lapses (abrupt crash,
  // severed channel) are garbage-collected by the shard primaries.
  heartbeat,

  // XPMEM commands (Table 1) that cross enclaves.
  get,          ///< request access permission for a segid
  get_resp,     ///< grant (carries region size) or denial
  release,      ///< drop a permission grant
  attach,       ///< request the PFN list for (segid, offset, size)
  attach_resp,  ///< PFN list in `frames`; `frames_flat` picks its wire size
  detach,       ///< drop an attachment (owner unpins)
  detach_resp,

  // Sharded name service (DESIGN.md §6b): the quorum-replication protocol
  // among a shard's replica group, plus neighbor route learning.
  shard_replicate,       ///< primary -> follower: append one op at msg.offset
  shard_replicate_resp,
  shard_sync,            ///< primary -> lagging follower: log suffix catch-up
  shard_sync_resp,
  shard_vote,            ///< candidate -> peer: promise epoch msg.shard_epoch?
  shard_vote_resp,       ///< promise carries the voter's full op log
  shard_probe,           ///< follower -> primary liveness probe
  shard_probe_resp,
  shard_announce,        ///< one-way: "shard msg.shard epoch msg.shard_epoch
                         ///  is live, primary is msg.src"
  hello,                 ///< one-way: "enclave msg.src is on this channel" —
                         ///  neighbors learn direct routes at registration

  // Capability model (DESIGN.md §9): derivation and revocation are served
  // by the segment owner; cap_revoked is the owner's one-way unmap fan-out
  // to enclaves holding live attachments under a revoked subtree.
  cap_derive,       ///< mint a restricted child of msg.cap (rights in payload)
  cap_derive_resp,  ///< minted child id in resp.cap
  cap_revoke,       ///< revoke msg.cap and its entire derivation subtree
  cap_revoke_resp,
  cap_revoked,      ///< one-way owner -> attacher: caps+handles in payload
                    ///  are dead; unmap locally, drop caches
};

const char* cmd_name(Cmd c);

/// A kernel-level cross-enclave message.
struct Message {
  Cmd cmd{};
  EnclaveId src{EnclaveId::invalid()};
  EnclaveId dst{EnclaveId::invalid()};
  u64 req_id{0};
  /// Sharded name service (DESIGN.md §6b): registry shard this message is
  /// bound for, and the per-shard epoch the sender believes is current.
  /// shard_epoch == 0 marks traffic outside the registry; replicas reject
  /// older shard epochs with Errc::stale_epoch and rejections carry the
  /// current one so clients re-resolve the shard's primary.
  u32 shard{0};
  u64 shard_epoch{0};

  Segid segid{};
  u64 offset{0};
  u64 size{0};
  u8 access{1};  ///< requested/granted AccessMode (0 = read-only, 1 = rw)
  /// Capability id presented with get/attach/cap_derive (0 = classic
  /// permit path), or the minted child id on a cap_derive_resp. Validated
  /// owner-side against the segment's derivation tree.
  u64 cap{0};
  Errc status{Errc::ok};

  /// Bulk payload of control messages (enclave ids, segid lists, shard
  /// ops, capability rights, revocation notes), as raw u64s. PFN lists
  /// travel in `frames`, not here.
  std::vector<u64> payload;
  /// Frames of an attach_resp, as maximal runs. The wire charges them flat
  /// (8 B/page, the u64 PFNs the real implementation ships) unless the
  /// owner cleared `frames_flat` because the extent encoding
  /// (mm::PfnList::kExtentWireBytes per run) is smaller: a contiguous
  /// Kitten export is O(1) runs instead of 8 B/page (see §5.4 of the paper
  /// for the per-page overhead this removes from the channel).
  mm::PfnList frames;
  bool frames_flat{true};
  /// Well-known name for publish/lookup.
  std::string name;

  /// Fixed header size on a channel (command, ids, req ids, status, sizes).
  static constexpr u64 kHeaderBytes = 64;

  /// Bytes this message occupies on a channel.
  u64 wire_bytes() const {
    return kHeaderBytes + payload.size() * sizeof(u64) +
           (frames_flat ? frames.wire_bytes() : frames.extent_wire_bytes()) +
           name.size();
  }

  bool is_response() const {
    switch (cmd) {
      case Cmd::ping_ns_resp:
      case Cmd::enclave_id_resp:
      case Cmd::segid_alloc_resp:
      case Cmd::segid_remove_resp:
      case Cmd::name_lookup_resp:
      case Cmd::name_list_resp:
      case Cmd::get_resp:
      case Cmd::attach_resp:
      case Cmd::detach_resp:
      case Cmd::shard_replicate_resp:
      case Cmd::shard_sync_resp:
      case Cmd::shard_vote_resp:
      case Cmd::shard_probe_resp:
      case Cmd::cap_derive_resp:
      case Cmd::cap_revoke_resp:
        return true;
      default:
        return false;
    }
  }

  /// One-way messages have no correlated response: forwarders must not
  /// remember them in their response-retrace tables, and senders never
  /// retry them.
  bool is_one_way() const {
    switch (cmd) {
      case Cmd::release:
      case Cmd::enclave_shutdown:
      case Cmd::heartbeat:
      case Cmd::shard_announce:
      case Cmd::hello:
      case Cmd::cap_revoked:
        return true;
      default:
        return false;
    }
  }
};

inline const char* cmd_name(Cmd c) {
  switch (c) {
    case Cmd::ping_ns: return "ping_ns";
    case Cmd::ping_ns_resp: return "ping_ns_resp";
    case Cmd::alloc_enclave_id: return "alloc_enclave_id";
    case Cmd::enclave_shutdown: return "enclave_shutdown";
    case Cmd::heartbeat: return "heartbeat";
    case Cmd::enclave_id_resp: return "enclave_id_resp";
    case Cmd::segid_alloc: return "segid_alloc";
    case Cmd::segid_alloc_resp: return "segid_alloc_resp";
    case Cmd::segid_remove: return "segid_remove";
    case Cmd::segid_remove_resp: return "segid_remove_resp";
    case Cmd::name_lookup: return "name_lookup";
    case Cmd::name_lookup_resp: return "name_lookup_resp";
    case Cmd::name_list: return "name_list";
    case Cmd::name_list_resp: return "name_list_resp";
    case Cmd::get: return "get";
    case Cmd::get_resp: return "get_resp";
    case Cmd::release: return "release";
    case Cmd::attach: return "attach";
    case Cmd::attach_resp: return "attach_resp";
    case Cmd::detach: return "detach";
    case Cmd::detach_resp: return "detach_resp";
    case Cmd::shard_replicate: return "shard_replicate";
    case Cmd::shard_replicate_resp: return "shard_replicate_resp";
    case Cmd::shard_sync: return "shard_sync";
    case Cmd::shard_sync_resp: return "shard_sync_resp";
    case Cmd::shard_vote: return "shard_vote";
    case Cmd::shard_vote_resp: return "shard_vote_resp";
    case Cmd::shard_probe: return "shard_probe";
    case Cmd::shard_probe_resp: return "shard_probe_resp";
    case Cmd::shard_announce: return "shard_announce";
    case Cmd::hello: return "hello";
    case Cmd::cap_derive: return "cap_derive";
    case Cmd::cap_derive_resp: return "cap_derive_resp";
    case Cmd::cap_revoke: return "cap_revoke";
    case Cmd::cap_revoke_resp: return "cap_revoke_resp";
    case Cmd::cap_revoked: return "cap_revoked";
  }
  return "?";
}

/// Segids are epoch-prefixed: the top bits carry the epoch that minted
/// them, the low bits a per-epoch counter. The hub's default shard mints
/// everything in epoch 1; a shard primary elected into a later shard epoch
/// restarts its counter yet can never re-issue a segid still live from a
/// prior epoch (DESIGN.md §6b).
constexpr u32 kSegidEpochShift = 48;
constexpr u64 kSegidSeqMask = (1ull << kSegidEpochShift) - 1;

constexpr u64 make_segid_value(u64 epoch, u64 seq) {
  return (epoch << kSegidEpochShift) | seq;
}

constexpr u64 segid_epoch(Segid s) { return s.value() >> kSegidEpochShift; }

/// Sharded name service: a segid's home shard. The minting primary of
/// shard s issues sequence numbers congruent to s (mod the shard count),
/// so segid-keyed commands route back to the shard that minted them
/// without any lookup.
constexpr u32 shard_of_segid(Segid s, u32 nshards) {
  return static_cast<u32>((s.value() & kSegidSeqMask) % nshards);
}

/// Well-known names hash to their shard (FNV-1a), so publish and search
/// agree on the home shard without consulting any directory.
inline u32 shard_of_name(const std::string& name, u32 nshards) {
  u64 h = 14695981039346656037ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<u32>(h % nshards);
}

}  // namespace xemem
