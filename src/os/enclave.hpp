// The enclave OS/R abstraction.
//
// An Enclave is one independent system-software stack managing a partition
// of the node's hardware (paper section 1): some cores, a slice of a NUMA
// zone's frames, and a share of the socket's memory bandwidth. The XEMEM
// protocol layer drives enclaves exclusively through the personality hooks
// below — the localized address-space management principle of paper
// section 3.4: every enclave performs its memory mapping operations
// locally, with its own OS's techniques and costs.
//
// Personalities:
//  * KittenEnclave     — lightweight kernel: eager static address spaces,
//                        SMARTMAP local sharing, dynamic heap extension.
//  * LinuxEnclave      — fullweight: VMAs, demand-fault semantics for
//                        local attachments, get_user_pages pinning.
//  * GuestLinuxEnclave — Linux inside a Palacios VM: guest frame numbers,
//                        memory-map translation, virtual PCI notifications.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "hw/machine.hpp"
#include "mm/pfn_list.hpp"
#include "os/process.hpp"
#include "sim/task.hpp"

namespace xemem::os {

class Enclave {
 public:
  /// @param frames        the frame pool this enclave manages
  /// @param membw         the socket bandwidth its memory traffic shares
  /// @param cores         cores owned by the enclave (apps run here)
  /// @param service_core  core where kernel XEMEM servicing executes (for
  ///                      the Linux management enclave this is core 0, per
  ///                      the stock Pisces design)
  Enclave(std::string name, hw::Machine& machine, hw::FrameZone& frames,
          sim::SharedBandwidth& membw, std::vector<hw::Core*> cores,
          hw::Core* service_core)
      : name_(std::move(name)),
        machine_(machine),
        frames_(frames),
        membw_(membw),
        cores_(std::move(cores)),
        service_core_(service_core) {}

  virtual ~Enclave() = default;
  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  const std::string& name() const { return name_; }
  hw::Machine& machine() { return machine_; }
  hw::FrameZone& frames() { return frames_; }
  sim::SharedBandwidth& membw() { return membw_; }
  const std::vector<hw::Core*>& cores() const { return cores_; }
  hw::Core* service_core() { return service_core_; }

  /// Enclave ID assigned by the name server via the routing protocol
  /// (invalid until registration completes).
  EnclaveId id() const { return id_; }
  void set_id(EnclaveId id) { id_ = id; }

  // ------------------------------------------------------------- processes

  /// Create a process with @p image_bytes of memory, pinned to @p core
  /// (nullptr: first enclave core). Population policy is per-personality.
  virtual Result<Process*> create_process(u64 image_bytes,
                                          hw::Core* core = nullptr) = 0;

  /// Tear down a process, returning its frames to the enclave pool. No
  /// frame may still be pinned for an attachment.
  void destroy_process(Process* p) {
    const auto& pm = machine_.pmem();
    for (auto e : p->owned_frames()) {
      for (u64 i = 0; i < e.count; ++i) {
        auto host = frame_to_host(e.start + i);
        XEMEM_ASSERT_MSG(!host.ok() || pm.refcount(host.value()) == 0,
                         "free of still-referenced frame");
      }
      frames_.free(e);
    }
    procs_.erase(p->pid());
  }

  Process* process(u32 pid) {
    auto it = procs_.find(pid);
    return it == procs_.end() ? nullptr : it->second.get();
  }

  // --------------------------------------------- XEMEM personality hooks

  /// Export-side servicing (paper section 4.3): pin the region if the OS
  /// pages, walk the page tables, and return the backing frames as *host*
  /// frames (VM personalities translate internally). Executes in kernel
  /// context on the service core — the time is stolen from whatever
  /// application computation runs there (Figure 7).
  virtual sim::Task<Result<mm::PfnList>> service_make_pfn_list(Process& owner,
                                                               Vaddr va,
                                                               u64 pages) = 0;

  /// Attach-side mapping: install @p host_frames into @p attacher's
  /// address space with the local OS's facilities, run by run (Kitten
  /// picks 2 MiB entries per suitably aligned run in large-page mode).
  /// @p lazy selects the single-OS Linux fault-semantics path (mapping
  /// deferred to first touch; see touch_attached). @p writable false maps
  /// the pages read-only (XPMEM read-only grants). Returns the
  /// attachment's base VA.
  virtual sim::Task<Result<Vaddr>> map_attachment(Process& attacher,
                                                  const mm::PfnList& host_frames,
                                                  bool lazy, bool writable) = 0;

  /// First-touch of an attached range (demand-fault charges where the
  /// personality maps lazily; no-op otherwise).
  virtual sim::Task<void> touch_attached(Process& attacher, Vaddr va,
                                         u64 pages) = 0;

  /// Remove an attachment created by map_attachment.
  virtual sim::Task<Result<void>> unmap_attachment(Process& attacher, Vaddr va,
                                                   u64 pages) = 0;

  /// Data-plane translation: a frame number in this enclave's domain
  /// (host PFN for native enclaves, guest frame for VMs) to a host PFN.
  virtual Result<Pfn> frame_to_host(Pfn domain_frame) const = 0;

  /// Whether intra-enclave attachments use lazy fault semantics (true for
  /// fullweight Linux; see paper section 6.4).
  virtual bool lazy_local_attach() const { return false; }

  /// Multiplier on streaming-memory work performed by this enclave's
  /// applications (VM personalities pay nested-paging TLB overhead on
  /// bandwidth-bound kernels; natives pay none).
  virtual double mem_overhead_factor() const { return 1.0; }

  // ----------------------------------------------------------- data plane

  /// Copy @p len bytes into the process's address space at @p va. The
  /// range must be mapped (call touch_attached first for lazy mappings)
  /// and writable — writes through read-only attachments fail with
  /// permission_denied, mirroring the fault the MMU would raise.
  /// Not time-charged: workload models charge their own memory traffic.
  Result<void> proc_write(Process& p, Vaddr va, const void* src, u64 len);
  Result<void> proc_read(Process& p, Vaddr va, void* dst, u64 len);

  /// Number of XEMEM attachments currently being installed in this
  /// enclave (drives the Linux SMP interference model; see costs.hpp).
  u32 attach_inflight() const { return attach_inflight_; }

 protected:
  Process* add_process(std::unique_ptr<Process> p) {
    Process* raw = p.get();
    procs_.emplace(raw->pid(), std::move(p));
    return raw;
  }
  u32 next_pid() { return next_pid_++; }

  hw::Core* pick_core(hw::Core* requested) {
    if (requested != nullptr) return requested;
    XEMEM_ASSERT(!cores_.empty());
    return cores_[0];
  }

  u32 attach_inflight_{0};

 private:
  std::string name_;
  hw::Machine& machine_;
  hw::FrameZone& frames_;
  sim::SharedBandwidth& membw_;
  std::vector<hw::Core*> cores_;
  hw::Core* service_core_;
  EnclaveId id_{EnclaveId::invalid()};
  std::unordered_map<u32, std::unique_ptr<Process>> procs_;
  u32 next_pid_{1};
};

}  // namespace xemem::os
