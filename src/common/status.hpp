// Lightweight Result<T> error handling.
//
// The XEMEM control plane (name server, routing, attach protocol) reports
// recoverable failures — unknown segid, permission size mismatch, enclave
// unreachable — through Result rather than exceptions, mirroring the
// errno-style returns of the real XPMEM kernel interface while staying
// type-safe. (std::expected is C++23; this is the minimal subset we need.)
#pragma once

#include <utility>
#include <variant>

#include "common/assert.hpp"

namespace xemem {

/// Error codes for XEMEM control-plane operations. Values intentionally
/// mirror the classes of failure the XPMEM ioctl interface can report.
enum class Errc {
  ok = 0,
  no_such_segid,      ///< segid not registered with the name server
  no_such_enclave,    ///< enclave id unknown / unreachable
  permission_denied,  ///< xpmem_get permission check failed
  invalid_argument,   ///< bad offset/size/alignment
  out_of_memory,      ///< frame or virtual-address-space exhaustion
  already_exists,     ///< duplicate registration
  not_attached,       ///< detach of a region that is not attached
  busy,               ///< removal while attachments outstanding
  unreachable,        ///< routing failed to find a path
  protocol_error,     ///< malformed cross-enclave message
  no_name_server,     ///< central name server unreachable: discovery exhausted
  stale_epoch,        ///< request carried an old shard epoch; retry
  retry_later,        ///< transient (e.g. registry rebuilding); retry
  not_primary,        ///< shard write sent to a follower; retry elsewhere
  no_quorum,          ///< terminal: shard lost its majority past the grace
  revoked,            ///< terminal: capability (or an ancestor) was revoked
  node_failed,        ///< terminal: a fabric peer died; collective poisoned
};

/// Human-readable name for an error code.
const char* errc_name(Errc e);

/// Result<T>: either a value or an Errc. Result<void> carries only status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Errc e) : v_(e) { XEMEM_ASSERT(e != Errc::ok); }

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  Errc error() const { return ok() ? Errc::ok : std::get<Errc>(v_); }

  T& value() & {
    XEMEM_ASSERT_MSG(ok(), "Result::value() on error");
    return std::get<T>(v_);
  }
  const T& value() const& {
    XEMEM_ASSERT_MSG(ok(), "Result::value() on error");
    return std::get<T>(v_);
  }
  T&& value() && {
    XEMEM_ASSERT_MSG(ok(), "Result::value() on error");
    return std::get<T>(std::move(v_));
  }

  T value_or(T fallback) const { return ok() ? std::get<T>(v_) : std::move(fallback); }

 private:
  std::variant<T, Errc> v_;
};

template <>
class [[nodiscard]] Result<void> {
 public:
  Result() : e_(Errc::ok) {}
  Result(Errc e) : e_(e) {}  // NOLINT: implicit by design

  bool ok() const { return e_ == Errc::ok; }
  explicit operator bool() const { return ok(); }
  Errc error() const { return e_; }

 private:
  Errc e_;
};

inline const char* errc_name(Errc e) {
  switch (e) {
    case Errc::ok: return "ok";
    case Errc::no_such_segid: return "no_such_segid";
    case Errc::no_such_enclave: return "no_such_enclave";
    case Errc::permission_denied: return "permission_denied";
    case Errc::invalid_argument: return "invalid_argument";
    case Errc::out_of_memory: return "out_of_memory";
    case Errc::already_exists: return "already_exists";
    case Errc::not_attached: return "not_attached";
    case Errc::busy: return "busy";
    case Errc::unreachable: return "unreachable";
    case Errc::protocol_error: return "protocol_error";
    case Errc::no_name_server: return "no_name_server";
    case Errc::stale_epoch: return "stale_epoch";
    case Errc::retry_later: return "retry_later";
    case Errc::not_primary: return "not_primary";
    case Errc::no_quorum: return "no_quorum";
    case Errc::revoked: return "revoked";
    case Errc::node_failed: return "node_failed";
  }
  return "unknown";
}

}  // namespace xemem
