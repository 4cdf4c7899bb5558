// Processes and event processes (paper Sections 4 and 6).
//
// Simulated processes are actor-style: user code implements ProcessCode and
// the kernel invokes HandleMessage for each delivered message. This mirrors
// the event-driven dispatch loop the paper builds its servers around (§6) —
// a process that would block in recv() is simply a process whose handler has
// returned and is waiting for the next delivery.
//
// A process that calls EnterEventRealm() (the paper's first ep_checkpoint)
// stops executing as its base process forever. From then on the kernel runs
// each delivery inside an event process: a lightweight context with its own
// send/receive labels, its own receive rights, and a private copy-on-write
// page overlay. Returning from HandleMessage is ep_yield; EpExit() frees the
// event process.
#ifndef SRC_KERNEL_PROCESS_H_
#define SRC_KERNEL_PROCESS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/kernel/address_space.h"
#include "src/kernel/ids.h"
#include "src/kernel/message.h"
#include "src/labels/label.h"
#include "src/sim/cycles.h"

namespace asbestos {

class ProcessContext;

// User-code interface. Instances are owned by the kernel's process table.
class ProcessCode {
 public:
  virtual ~ProcessCode() = default;

  // Runs once when the process is created, before any delivery.
  virtual void Start(ProcessContext& ctx) { (void)ctx; }

  // Runs once per delivered message, in the base context or in an event
  // process's context (the kernel decides per the rules of §6.1).
  virtual void HandleMessage(ProcessContext& ctx, const Message& msg) = 0;

  // Runs when the kernel's run loop drains to idle — the end of a pump
  // iteration. This is where per-pump work belongs, most importantly the
  // group commit of durable stores (one fsync per dirty shard per pump
  // instead of one per mutation; see src/store). Like WithProcessContext,
  // this is a simulator-driver facility, not a syscall confined code could
  // schedule: the context is the base identity, and implementations must
  // not send (a server that needed to speak at idle would livelock the
  // pump). The kernel re-drains after the callbacks just in case.
  //
  // IMPORTANT: an override of OnIdle MUST be paired with a HasOnIdle
  // override returning true — the kernel dispatches idle hooks only to
  // processes that declared one at creation, so the common volatile world
  // (no durable stores) pays nothing per pump. An OnIdle without HasOnIdle
  // is never called.
  virtual void OnIdle(ProcessContext& ctx) { (void)ctx; }

  // Declares that OnIdle is overridden and must be dispatched each pump.
  // Read once, at process creation.
  virtual bool HasOnIdle() const { return false; }
};

// A labeled memory region shareable between event processes — the §6.1
// future-work extension ("mechanisms for event processes to selectively
// share memory, subject to label checks"). The region is named by an
// unguessable handle (like ports and compartments); its label plays both
// roles of the IPC rules: reading through a mapping contaminates the mapper
// (like C_S), and writes must keep the writer's send label below the region
// label (like the ⊑ check), or they silently vanish — the memory analogue of
// unreliable send.
struct SharedRegion {
  Handle handle;
  Label label;
  std::vector<internal::PageRef> pages;
};

// An event process's view of a shared region.
struct MappedRegion {
  uint64_t base_addr = 0;
  uint64_t page_count = 0;
  Handle region;
};

// Kernel-side event-process state. The paper's implementation packs this
// into 44 bytes; our accounting charges that figure (kEpKernelBytes), with
// labels, overlay pages, and queue arenas accounted separately and for real.
struct EventProcess {
  EpId id = kBaseContext;
  Label send_label;
  Label recv_label;
  PageOverlay private_pages;
  std::vector<Handle> owned_ports;  // receive rights created by this EP
  std::vector<MappedRegion> mappings;
  bool exited = false;
  bool has_queue_arena = false;  // a page-sized arena exists while it has traffic
  bool ever_cleaned = false;     // EPs that never ep_clean keep their arena
};

// Kernel-side process state. The paper's minimal process structure is 320
// bytes (charged as kProcessKernelBytes).
struct Process {
  ProcessId id = kNoProcess;
  std::string name;
  Component component = Component::kOther;
  std::unique_ptr<ProcessCode> code;

  Label send_label = Label::DefaultSend();
  Label recv_label = Label::DefaultReceive();
  AddressSpace memory;
  std::map<std::string, uint64_t> env;  // bootstrap values (port/handle values)

  bool in_event_realm = false;
  bool exited = false;
  EpId next_ep_id = 1;
  std::map<EpId, std::unique_ptr<EventProcess>> eps;
  std::vector<Handle> owned_ports;  // receive rights held by the base process
  std::map<uint64_t, SharedRegion> shared_regions;  // by region handle value
  int64_t modeled_heap_bytes = 0;   // user heap declared via ModelHeapBytes

  // Scheduling: ports with queued messages, in arrival order.
  std::deque<Handle> pending_ports;
  std::unordered_set<uint64_t> pending_port_set;
  bool in_run_queue = false;
};

}  // namespace asbestos

#endif  // SRC_KERNEL_PROCESS_H_
