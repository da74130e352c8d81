// Node: assembly of a complete multi-enclave system on one machine.
//
// The experiment harnesses, examples, and integration tests all build
// their topologies through this class: a Linux management enclave hosting
// the name server, Kitten co-kernels booted by Pisces, and Palacios VMs on
// either kind of host — the configurations of the paper's Figures 1-2 and
// Table 3.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/noise.hpp"
#include "os/guest_linux.hpp"
#include "os/kitten.hpp"
#include "os/linux.hpp"
#include "palacios/pci_channel.hpp"
#include "palacios/vm.hpp"
#include "pisces/ipi_channel.hpp"
#include "pisces/manager.hpp"
#include "xemem/fault.hpp"
#include "xemem/kernel.hpp"

namespace xemem {

class Node {
 public:
  enum class Personality { linux, kitten, guest_linux };

  explicit Node(const hw::MachineConfig& cfg) : machine_(cfg) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  hw::Machine& machine() { return machine_; }

  /// Place this node in engine partition @p p (multi-node runs; see
  /// DESIGN.md §12). Tags every core so cross-partition time charges —
  /// which would entangle two nodes' clocks outside the fabric's
  /// lookahead — fail fast.
  void set_partition(u32 p) { machine_.set_partition(p); }

  /// Protocol policy for every kernel created after this call (timeouts,
  /// retry/backoff limits, lease duration). Call before add_*.
  void set_kernel_config(const KernelConfig& cfg) { kcfg_ = cfg; }

  /// Decorate every channel created after this call with deterministic
  /// fault injection (drops/dups/delays per FaultSpec). Each endpoint
  /// draws from an independent Rng stream forked from @p seed, so the
  /// fault schedule is a pure function of (seed, traffic order).
  void enable_fault_injection(const FaultSpec& spec, u64 seed) {
    fault_spec_ = spec;
    fault_rng_.reseed(seed);
    faults_on_ = true;
  }

  /// Fault-injection wrappers created so far (in channel creation order:
  /// for each faulty channel, the pair's `a` then `b` endpoint). Tests
  /// use these to kill() links or read injection counters.
  const std::vector<std::unique_ptr<FaultyEndpoint>>& faulty_endpoints() const {
    return faulty_;
  }

  /// Partition surgery (requires enable_fault_injection): kill both
  /// directions of the link between enclaves @p a and @p b, so each side
  /// sends into the void. Asserts that such a link exists.
  void sever(const std::string& a, const std::string& b) {
    FaultyLink* l = find_link(a, b);
    XEMEM_ASSERT_MSG(l != nullptr, "sever: no faulty link between enclaves");
    l->ea->kill();
    l->eb->kill();
  }

  /// Undo a sever: both directions deliver again.
  void heal(const std::string& a, const std::string& b) {
    FaultyLink* l = find_link(a, b);
    XEMEM_ASSERT_MSG(l != nullptr, "heal: no faulty link between enclaves");
    l->ea->revive();
    l->eb->revive();
  }

  /// Find the kernel holding runtime enclave id @p eid (ids are allocated
  /// by the name service at registration, so tests cannot know the mapping
  /// statically). Null when no registered kernel holds it.
  XememKernel* kernel_with_id(u64 eid) {
    for (auto& e : entries_) {
      if (e->kernel->id().valid() && e->kernel->id().value() == eid) {
        return e->kernel.get();
      }
    }
    return nullptr;
  }

  /// The Linux management enclave; hosts the name server (the common
  /// deployment the paper uses throughout its evaluation). Must be added
  /// first. @p service_core_id is where its XEMEM/channel handling runs —
  /// core 0 in the stock Pisces design.
  XememKernel& add_linux_mgmt(const std::string& name, u32 socket,
                              const std::vector<u32>& core_ids,
                              u32 service_core_id = 0) {
    XEMEM_ASSERT_MSG(mgmt_ == nullptr, "one management enclave per node");
    auto enclave = std::make_unique<os::LinuxEnclave>(
        name, machine_, machine_.zone(socket), machine_.socket_bw(socket),
        cores_from(core_ids), &machine_.core(service_core_id));
    mgmt_ = enclave.get();
    pisces_ = std::make_unique<pisces::PiscesManager>(machine_, *mgmt_);
    return register_enclave(name, std::move(enclave), Personality::linux,
                            /*is_ns=*/true, /*host=*/nullptr);
  }

  /// Boot a Kitten co-kernel enclave via Pisces and wire its IPI channel
  /// to the management enclave's service core.
  /// @p mgmt_channel_core overrides the management-side IPI handler core
  /// (default: the management service core, i.e. core 0 — the stock Pisces
  /// restriction; bench/ablation_ipi_routing distributes it).
  XememKernel& add_cokernel(const std::string& name, u32 socket,
                            const std::vector<u32>& core_ids, u64 mem_bytes,
                            i32 mgmt_channel_core = -1) {
    XEMEM_ASSERT_MSG(pisces_ != nullptr, "add_linux_mgmt first");
    pisces::PiscesManager::CokernelSpec spec;
    spec.name = name;
    spec.socket = socket;
    spec.core_ids = core_ids;
    spec.memory_bytes = mem_bytes;
    spec.mgmt_channel_core = mgmt_channel_core >= 0
                                 ? static_cast<u32>(mgmt_channel_core)
                                 : mgmt_->service_core()->id();
    auto booted = pisces_->boot_cokernel(spec);
    XEMEM_ASSERT_MSG(booted.ok(), "co-kernel boot failed");

    auto& ck = *booted.value().enclave;
    auto& kernel = register_external_enclave(name, ck, Personality::kitten);
    auto [mgmt_ep, ck_ep] =
        maybe_faulty(booted.value().mgmt_endpoint,
                     booted.value().cokernel_endpoint, mgmt_->name(), name);
    kernel_of(mgmt_).add_channel(mgmt_ep);
    kernel.add_channel(ck_ep);
    return kernel;
  }

  /// Launch a Linux VM via Palacios on @p host (a previously added
  /// enclave). Guest vcpus run on @p vcpu_core_ids (cores of the host's
  /// partition); VMM work executes on the vcpu core (world switches run
  /// where the guest exits). The PCI channel links the guest's kernel to
  /// the host's kernel.
  XememKernel& add_vm(const std::string& name, const std::string& host_name,
                      u64 ram_bytes, const std::vector<u32>& vcpu_core_ids,
                      palacios::MapBackend backend = palacios::MapBackend::rbtree) {
    Entry& host = entry(host_name);
    auto cores = cores_from(vcpu_core_ids);
    hw::Core* vcpu0 = cores[0];

    palacios::PalaciosVm::Config vcfg;
    vcfg.name = name;
    vcfg.guest_ram_bytes = ram_bytes;
    vcfg.hotplug_bytes = 8ull << 30;
    vcfg.backend = backend;
    auto vm = std::make_unique<palacios::PalaciosVm>(vcfg, host.enclave->frames());
    auto init = vm->init();
    XEMEM_ASSERT_MSG(init.ok(), "VM RAM allocation failed");

    auto enclave = std::make_unique<os::GuestLinuxEnclave>(
        name, machine_, *vm, host.enclave->membw(), cores,
        /*guest_service_core=*/vcpu0, /*host_core=*/vcpu0);
    vms_.push_back(std::move(vm));

    auto& kernel = register_enclave(name, std::move(enclave),
                                    Personality::guest_linux, /*is_ns=*/false,
                                    host.enclave);
    auto chan = palacios::make_pci_channel(host.enclave->service_core(), vcpu0);
    auto [host_ep, guest_ep] =
        maybe_faulty(chan.a.get(), chan.b.get(), host_name, name);
    host.kernel->add_channel(host_ep);
    kernel.add_channel(guest_ep);
    channels_.push_back(std::move(chan));
    return kernel;
  }

  /// Direct peer link between two already-added enclaves (an IPI channel
  /// between their service cores). The default topology is a star around
  /// the management enclave; failover tests add peer links so the system
  /// stays connected when the hub dies.
  void link_peers(const std::string& a, const std::string& b) {
    Entry& ea = entry(a);
    Entry& eb = entry(b);
    auto chan = pisces::make_ipi_channel(ea.enclave->service_core(),
                                         eb.enclave->service_core());
    auto [a_ep, b_ep] = maybe_faulty(chan.a.get(), chan.b.get(), a, b);
    ea.kernel->add_channel(a_ep);
    eb.kernel->add_channel(b_ep);
    channels_.push_back(std::move(chan));
  }

  /// Dynamic repartitioning: tear down a co-kernel enclave after its
  /// kernel has been shut down (XememKernel::shutdown) and its processes
  /// destroyed. Returns the memory block to the socket zone; the cores and
  /// memory can immediately boot a new co-kernel.
  void remove_cokernel(const std::string& name) {
    Entry& e = entry(name);
    XEMEM_ASSERT_MSG(e.kernel->is_shutdown(), "shutdown the kernel first");
    auto* ck = static_cast<os::KittenEnclave*>(e.enclave);
    const size_t idx = index_.at(name);
    pisces_->shutdown_cokernel(ck);
    entries_.erase(entries_.begin() + static_cast<long>(idx));
    index_.erase(name);
    for (auto& [n, i] : index_) {
      if (i > idx) --i;
    }
  }

  /// Start every kernel and wait until all enclaves hold IDs.
  sim::Task<void> start() {
    for (auto& e : entries_) e->kernel->start();
    for (auto& e : entries_) co_await e->kernel->wait_registered();
  }

  /// Stop every kernel's lifetime liveness actors (see
  /// XememKernel::quiesce) so a drained run can reach an idle heap.
  void quiesce() {
    for (auto& e : entries_) e->kernel->quiesce();
  }

  XememKernel& kernel(const std::string& name) { return *entry(name).kernel; }
  os::Enclave& enclave(const std::string& name) { return *entry(name).enclave; }
  pisces::PiscesManager& pisces() { return *pisces_; }

  /// Apply the standard noise signature of every enclave's personality to
  /// its cores, plus machine-wide SMIs on every core (paper Figure 7 /
  /// sections 6-7). VMs on Linux hosts additionally inherit host Linux
  /// noise on their vcpu cores.
  void spawn_std_noise(sim::Engine& eng, Rng& rng, sim::TimePoint until = ~u64{0}) {
    for (u32 c = 0; c < machine_.core_count(); ++c) {
      hw::spawn_noise(eng, machine_.core(c), hw::smi_noise(), rng, until);
    }
    for (auto& e : entries_) {
      const hw::NoiseProfile profile = e->personality == Personality::linux
                                           ? hw::linux_noise()
                                           : e->personality == Personality::kitten
                                                 ? hw::kitten_noise()
                                                 : hw::vm_linux_noise();
      for (hw::Core* core : e->enclave->cores()) {
        hw::spawn_noise(eng, *core, profile, rng, until);
        if (e->personality == Personality::guest_linux && e->host != nullptr &&
            host_is_linux(e->host)) {
          hw::spawn_noise(eng, *core, hw::linux_noise(), rng, until);
        }
      }
    }
  }

 private:
  struct Entry {
    std::string name;
    os::Enclave* enclave;                       // owned here or by pisces
    std::unique_ptr<os::Enclave> owned;
    std::unique_ptr<XememKernel> kernel;
    Personality personality;
    os::Enclave* host{nullptr};  // for VMs
  };

  std::vector<hw::Core*> cores_from(const std::vector<u32>& ids) {
    std::vector<hw::Core*> out;
    for (u32 id : ids) out.push_back(&machine_.core(id));
    return out;
  }

  /// Wrap a channel's endpoints in fault injectors when enabled; returns
  /// the endpoints the kernels should register (inner ones otherwise).
  /// The enclave names label the link for sever()/heal().
  std::pair<ChannelEndpoint*, ChannelEndpoint*> maybe_faulty(
      ChannelEndpoint* a, ChannelEndpoint* b, const std::string& a_name = "",
      const std::string& b_name = "") {
    if (!faults_on_) return {a, b};
    auto pair = wrap_faulty(a, b, fault_spec_, fault_rng_);
    ChannelEndpoint* fa = pair.a.get();
    ChannelEndpoint* fb = pair.b.get();
    faulty_links_.push_back(
        FaultyLink{a_name, b_name, pair.a.get(), pair.b.get()});
    faulty_.push_back(std::move(pair.a));
    faulty_.push_back(std::move(pair.b));
    return {fa, fb};
  }

  XememKernel& register_enclave(const std::string& name,
                                std::unique_ptr<os::Enclave> enclave,
                                Personality pers, bool is_ns, os::Enclave* host) {
    auto e = std::make_unique<Entry>();
    e->name = name;
    e->enclave = enclave.get();
    e->owned = std::move(enclave);
    e->kernel = std::make_unique<XememKernel>(*e->enclave, is_ns, kcfg_);
    e->personality = pers;
    e->host = host;
    entries_.push_back(std::move(e));
    index_[name] = entries_.size() - 1;
    return *entries_.back()->kernel;
  }

  XememKernel& register_external_enclave(const std::string& name,
                                         os::Enclave& enclave, Personality pers) {
    auto e = std::make_unique<Entry>();
    e->name = name;
    e->enclave = &enclave;
    e->kernel = std::make_unique<XememKernel>(enclave, false, kcfg_);
    e->personality = pers;
    entries_.push_back(std::move(e));
    index_[name] = entries_.size() - 1;
    return *entries_.back()->kernel;
  }

  Entry& entry(const std::string& name) {
    auto it = index_.find(name);
    XEMEM_ASSERT_MSG(it != index_.end(), "unknown enclave");
    return *entries_[it->second];
  }

  XememKernel& kernel_of(os::Enclave* enclave) {
    for (auto& e : entries_) {
      if (e->enclave == enclave) return *e->kernel;
    }
    XEMEM_PANIC("kernel_of: unknown enclave");
  }

  bool host_is_linux(os::Enclave* host) {
    for (auto& e : entries_) {
      if (e->enclave == host) return e->personality == Personality::linux;
    }
    return false;
  }

  hw::Machine machine_;
  os::LinuxEnclave* mgmt_{nullptr};
  std::unique_ptr<pisces::PiscesManager> pisces_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::unique_ptr<palacios::PalaciosVm>> vms_;
  std::vector<ChannelPair> channels_;

  /// A fault-wrapped link labeled by the enclave names it connects, so
  /// tests can sever()/heal() by topology instead of creation order.
  struct FaultyLink {
    std::string a;
    std::string b;
    FaultyEndpoint* ea;
    FaultyEndpoint* eb;
  };

  FaultyLink* find_link(const std::string& a, const std::string& b) {
    for (auto& l : faulty_links_) {
      if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return &l;
    }
    return nullptr;
  }

  KernelConfig kcfg_{};
  FaultSpec fault_spec_{};
  Rng fault_rng_{1};
  bool faults_on_{false};
  std::vector<std::unique_ptr<FaultyEndpoint>> faulty_;
  std::vector<FaultyLink> faulty_links_;
};

}  // namespace xemem
