// ReplicationEndpoint: the primary-side shipping plane, embedded in any
// store-owning process (file server, idd, ok-demux, ok-dbproxy).
//
// The endpoint attaches a netd listener on its own TCP port — replication
// rides the same user-level network server as every other byte leaving the
// machine (paper §7.7), as labeled kernel messages: LISTEN proves the
// owner's identity to netd via its verification label, connection grants
// arrive as kNotifyConn with uC ⋆, batches leave as kWrite messages, and
// follower acks come back through kRead replies.
//
// Shipping piggybacks on the group-commit pipeline: the owner calls
// PumpShip from its OnIdle hook right after SyncPipelined, so the batch
// whose flush was just handed to the device is the same batch handed to
// the wire — one pump iteration, one flush, one ship. OnIdle sends are
// self-limiting: a pump with no new appends polls zero frames and sends
// nothing, so the kernel's idle loop quiesces. (With leases enabled, an
// idle session still gets a kHeartbeat once per heartbeat interval — but
// only when the virtual clock has actually advanced, so a world with no
// traffic at all still quiesces.)
//
// Fan-out: up to `max_followers` concurrent follower sessions, each with
// its own FollowerSession cursor set in the shared ReplicationHub (read
// replies demux by connection cookie). A connection beyond capacity is
// told so explicitly — one kBusy frame with a back-off hint — before the
// close, so the refused follower waits instead of hot-reconnecting. A
// dropped follower reconnects and resumes via the hello/ack handshake.
#ifndef SRC_REPLICATION_ENDPOINT_H_
#define SRC_REPLICATION_ENDPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/kernel/kernel.h"
#include "src/replication/source.h"

namespace asbestos {

struct ReplicationOptions {
  // TCP port the endpoint listens on for follower connections; 0 disables
  // replication entirely (the owner never constructs an endpoint).
  uint16_t listen_tcp_port = 0;
  // Concurrent follower sessions served; a connection beyond this gets one
  // kBusy frame and a close.
  uint32_t max_followers = 4;
  // Session shared secret, configured identically on the follower. The
  // hub ships nothing to a peer whose acks carry a different token, and
  // a follower refuses a hello with one — so a stray client that merely
  // connects to either port gets no labeled data. 0 (default) means an
  // unauthenticated closed testbed; the token travels in cleartext (the
  // simulated wire models no cryptography), so it is a capability in the
  // handle-value sense, not a defense against a wire eavesdropper.
  uint64_t auth_token = 0;
  // Lease/heartbeat protocol (automatic failover). Shipped traffic carries
  // lease_until = now + lease_interval_cycles on the virtual clock; an idle
  // session is refreshed with kHeartbeat every lease/4.
  // lease_interval_cycles = 0 disables stamping. Sizing bounds:
  // the lease must dwarf the cycles one loaded pump iteration burns (~1.5M
  // through netd with several followers) or a stamp is stale before it
  // crosses the wire, and the heartbeat interval must stay well above the
  // ~110k cycles one heartbeat itself charges, or the idle loop would
  // re-arm itself every pump.
  uint64_t lease_interval_cycles = 50'000'000;

  bool enabled() const { return listen_tcp_port != 0; }
};

class ReplicationEndpoint {
 public:
  // The store must outlive the endpoint.
  ReplicationEndpoint(const DurableStore* store, ReplicationOptions options);

  // Attaches the netd listener. `self_verify` is the owner's verification
  // handle value (0 when the world runs netd without listener checks); the
  // source id is minted from a fresh kernel handle — per-boot unique, so a
  // follower can never mistake one boot's WAL history for another's.
  void Start(ProcessContext& ctx, Handle netd_ctl, uint64_t self_verify);

  // Consumes messages addressed to the endpoint's ports. Owners call this
  // first in HandleMessage; true means the message was replication-plane.
  bool HandleMessage(ProcessContext& ctx, const Message& msg);

  // Ships pending WAL spans/snapshots (and due heartbeats) to every
  // connected follower. Call from OnIdle after the store sync.
  void PumpShip(ProcessContext& ctx);

  bool follower_connected() const { return !conns_.empty(); }
  size_t follower_count() const { return conns_.size(); }
  uint64_t busy_refusals() const { return busy_refusals_; }
  const ReplicationHub* hub() const { return hub_.get(); }

 private:
  struct Conn {
    Handle uc;                 // the connection's capability port
    FollowerSession* session;  // owned by the hub
    std::string rx;            // buffered ack bytes awaiting a whole frame
  };

  void RefuseBusy(ProcessContext& ctx, Handle uc);
  void DropSession(ProcessContext& ctx, uint64_t uc_value, bool close_conn);
  void IssueRead(ProcessContext& ctx, const Conn& conn);

  const DurableStore* store_;
  ReplicationOptions options_;
  std::unique_ptr<ReplicationHub> hub_;
  Handle notify_port_;
  std::map<uint64_t, Conn> conns_;  // uC handle value → live follower session
  uint64_t busy_refusals_ = 0;
};

}  // namespace asbestos

#endif  // SRC_REPLICATION_ENDPOINT_H_
