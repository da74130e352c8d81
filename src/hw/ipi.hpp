// Inter-processor interrupt delivery.
//
// The Pisces cross-enclave channel (paper section 4.5) signals message
// availability by sending an IPI to a specific core of the destination
// enclave. The IpiController routes a (core, vector) pair to a registered
// handler; the handler's fixed cost executes in interrupt context on the
// destination core (stealing application time there), after which the
// handler callback runs — typically waking the enclave's kernel command
// thread through a mailbox.
#pragma once

#include <functional>
#include <unordered_map>

#include "common/assert.hpp"
#include "hw/core.hpp"
#include "sim/engine.hpp"

namespace xemem::hw {

class IpiController {
 public:
  using Handler = std::function<void()>;

  /// Register the handler for @p vector on @p core. Re-registration
  /// replaces the previous handler (enclave teardown/reboot).
  void register_handler(Core* core, u32 vector, sim::Duration handler_cost,
                        Handler fn) {
    XEMEM_ASSERT(core != nullptr);
    handlers_[key(core->id(), vector)] = Entry{core, handler_cost, std::move(fn)};
  }

  /// Post an IPI: fire-and-forget from the sender's perspective, exactly
  /// like a hardware APIC write. The handler runs (serialized) on the
  /// destination core and its callback fires when the handler retires.
  void post(u32 core_id, u32 vector) {
    auto it = handlers_.find(key(core_id, vector));
    XEMEM_ASSERT_MSG(it != handlers_.end(), "IPI to unregistered vector");
    ++delivered_;
    sim::Engine::current()->spawn(deliver(&it->second));
  }

  u64 delivered() const { return delivered_; }

 private:
  struct Entry {
    Core* core;
    sim::Duration cost;
    Handler fn;
  };

  static u64 key(u32 core_id, u32 vector) {
    return (static_cast<u64>(core_id) << 32) | vector;
  }

  static sim::Task<void> deliver(Entry* e) {
    co_await e->core->run_irq(e->cost);
    e->fn();
  }

  std::unordered_map<u64, Entry> handlers_;
  u64 delivered_{0};
};

}  // namespace xemem::hw
