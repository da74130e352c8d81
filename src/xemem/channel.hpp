// Cross-enclave communication channel interface.
//
// A channel is a pair of endpoints in two enclaves. send() models the full
// transport cost (staging copies, notification IPIs/IRQs/hypercalls, and
// handler time stolen from the destination's channel core) and delivers the
// message into the peer endpoint's inbox, where the destination enclave's
// XEMEM service loop receives it.
//
// Two concrete transports exist, matching paper section 4.5:
//  * pisces::IpiChannel  — native enclave <-> native enclave;
//  * palacios::PciChannel — VM guest <-> its host enclave.
#pragma once

#include <memory>
#include <utility>

#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "xemem/wire.hpp"

namespace xemem {

class ChannelEndpoint {
 public:
  virtual ~ChannelEndpoint() = default;

  /// Transfer @p msg to the peer endpoint. Suspends the caller for the
  /// transport duration; on completion the message is in the peer's inbox.
  virtual sim::Task<void> send(Message msg) = 0;

  /// Messages delivered by the peer. Virtual so decorators (FaultyEndpoint)
  /// can alias their inner transport's inbox: the decorated pair delivers
  /// through the real transport, and the service loop reads one queue.
  virtual sim::Mailbox<Message>& inbox() { return inbox_; }

  /// Diagnostics.
  u64 messages_sent() const { return sent_; }
  u64 bytes_sent() const { return bytes_; }

 protected:
  void account(const Message& m) {
    ++sent_;
    bytes_ += m.wire_bytes();
  }

  sim::Mailbox<Message> inbox_;
  u64 sent_{0};
  u64 bytes_{0};
};

/// Both ends of one channel; factories return this.
struct ChannelPair {
  std::unique_ptr<ChannelEndpoint> a;
  std::unique_ptr<ChannelEndpoint> b;
};

}  // namespace xemem
