// ReplicationHub and FollowerSession: the primary-side shipping plane,
// refactored from the old point-to-point ReplicationSource into a fan-out
// hub serving K followers from one WAL.
//
// The split:
//
//   ReplicationHub      one per primary store — owns the shared frame cache
//                       (one WAL read feeds every follower at that span),
//                       mints sessions, computes the lease deadline and the
//                       deterministic successor designation.
//   FollowerSession     one per connected follower — its own go-back-N
//                       cursor set, hello/resume state, snapshot catch-up,
//                       and lease/heartbeat stamps. All WAL reads go through
//                       the hub's cache.
//
// Each session keeps two cursors per shard into the primary's WAL history:
//
//   shipped  — everything at or below this (generation, offset) has been
//              handed to the transport this session;
//   acked    — everything at or below this has been applied (and logged)
//              by the follower.
//
// Shipping is go-back-N over a reliable byte stream: batches are emitted in
// order from `shipped`, and an ack that does not extend the shipped prefix
// rewinds `shipped` to the follower's position (duplicates are cheap — the
// follower skips batches below its cursor idempotently). When the span a
// cursor needs has been compacted away (the WAL generation advanced), the
// session ships a whole-shard snapshot instead and resumes streaming from
// the position the snapshot covers — catch-up is compaction-safe by
// construction, and one straggler being imaged never stalls its siblings:
// every other session keeps streaming batches through the shared cache.
//
// A session starts with kHello and then WAITS, per shard, for the
// follower's resume ack: a follower that already mirrors this source
// (matching source_id) resumes mid-stream; anything else (fresh follower,
// follower of a dead primary, re-following old primary) acks a position the
// session does not recognize and gets a snapshot. The session never trusts
// a cursor it cannot prove is into its own history.
//
// Leases (automatic failover): with lease stamping enabled, every batch the
// hub ships carries `lease_until = now + lease_interval` on the virtual
// clock plus the current successor designation — the LOWEST follower id
// among sessions that are caught up (resumed on every shard, no snapshot
// pending, acked into the current generation). An idle primary refreshes
// the lease with explicit kHeartbeat frames. Followers act on expiry; see
// src/replication/follower.h.
#ifndef SRC_REPLICATION_SOURCE_H_
#define SRC_REPLICATION_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/replication/frame_cache.h"
#include "src/replication/wire.h"
#include "src/store/store.h"

namespace asbestos {

class ReplicationHub;

struct FollowerSessionStats {
  uint64_t batches_shipped = 0;
  uint64_t snapshots_shipped = 0;
  uint64_t heartbeats_sent = 0;
  uint64_t bytes_shipped = 0;  // payload bytes (batch spans + images)
  uint64_t rewinds = 0;        // acks that moved `shipped` backwards
  uint64_t gen_marks_sent = 0; // compaction hand-offs (no snapshot needed)
};

class FollowerSession {
 public:
  // Starts (or restarts) the follower session: resets every shard to
  // await-resume and returns the kHello frame to send first.
  std::string SessionHello();

  // Appends to `out` the next frames to ship: at most `max_batch_bytes` of
  // WAL span per batch frame (snapshots ship whole), stopping once `out`
  // reaches `max_total_bytes` (the rest ships on a later poll). Returns the
  // number of frames appended. Shards still awaiting their resume ack emit
  // nothing.
  size_t PollFrames(uint64_t max_batch_bytes, uint64_t max_total_bytes, std::string* out);

  // Appends one kHeartbeat frame carrying a fresh lease + successor stamp.
  // The endpoint calls this when a poll shipped nothing and the heartbeat
  // interval has elapsed since this session last heard from us.
  void AppendHeartbeat(std::string* out);

  // Feeds a follower ack back into the cursors.
  void HandleAck(const replwire::WireMessage& ack);

  // True when every shard's acked cursor matches the primary's WAL tail —
  // the follower mirrors everything appended so far.
  bool FullySynced() const;

  // True when the follower is in steady streaming state on every shard:
  // resumed, no snapshot pending, acked into the current generation. This is
  // the successor-eligibility test — deliberately NOT FullySynced(), which
  // no follower satisfies mid-burst; a caught-up follower may trail the tail
  // by in-flight batches, and go-back-N replays those from its own log on
  // promote day (it simply never applies them — they die with the wire).
  bool CaughtUp() const;

  uint64_t session_id() const { return session_id_; }
  // Flow-trace id of this session, minted at SessionHello and stamped on
  // every frame the session ships (see src/obs/trace.h).
  uint64_t trace_id() const { return trace_id_; }
  // Virtual-clock stamp of the last authenticated ack from this follower
  // (0 before the first ack).
  uint64_t last_ack_cycles() const { return last_ack_cycles_; }
  // Cycles the follower's applied state trails the primary: 0 when fully
  // synced, otherwise now minus the last authenticated ack (now minus the
  // hello send when no ack has arrived yet).
  uint64_t ApplyLagCycles() const;
  // Virtual cycles until the newest lease stamped for this follower runs
  // out (0 when lease stamping is off or the lease already expired).
  uint64_t LeaseRemainingCycles() const;
  // The follower's self-declared failover id, learned from its acks
  // (0 until an authenticated ack carries one).
  uint64_t follower_id() const { return follower_id_; }
  // Virtual-clock stamp of the last frames handed to the transport.
  uint64_t last_send_cycles() const { return last_send_cycles_; }
  // The newest lease deadline ever stamped on this session's frames — the
  // latest moment its follower could act on a designation it heard from us
  // (the hub's fencing horizon when the session closes).
  uint64_t last_lease_stamped() const { return last_lease_stamped_; }
  const FollowerSessionStats& stats() const { return stats_; }

 private:
  friend class ReplicationHub;

  struct Cursor {
    bool await_resume = true;    // no ack seen this session yet
    bool force_snapshot = false; // the follower's position is unusable
    uint64_t shipped_gen = 0;
    uint64_t shipped_off = 0;
    uint64_t acked_gen = 0;
    uint64_t acked_off = 0;
  };

  FollowerSession(ReplicationHub* hub, uint64_t session_id);

  // Emits a snapshot frame for the shard (lease-stamped like a batch) and
  // points `shipped` at the position the image covers.
  void ShipSnapshot(uint32_t shard, uint64_t lease_until, uint64_t successor_id,
                    std::string* out, size_t* frames);

  // Streams whole-frame batches of generation `gen` from `shipped` toward
  // `end_off` (the live tail, or a retained span's end), honoring the batch
  // and total byte budgets. False when a read failed (the span vanished
  // under us — the caller ships a snapshot instead).
  bool ShipBatchSpan(uint32_t shard, uint64_t gen, uint64_t end_off,
                     uint64_t max_batch_bytes, uint64_t max_total_bytes,
                     uint64_t lease_until, uint64_t successor_id, std::string* out,
                     size_t* frames);

  ReplicationHub* hub_;
  uint64_t session_id_;
  uint64_t follower_id_ = 0;
  std::vector<Cursor> cursors_;
  uint64_t last_send_cycles_ = 0;
  uint64_t last_lease_stamped_ = 0;
  uint64_t last_ack_cycles_ = 0;
  uint64_t hello_cycles_ = 0;
  uint64_t trace_id_ = 0;
  FollowerSessionStats stats_;
};

// Point-in-time replication health, one entry per live session. Everything
// a failover post-mortem needs: where each follower is per shard, how far
// behind it is on the virtual clock, and how long its lease has left.
struct HubDebugStatus {
  struct ShardCursor {
    bool await_resume = false;
    bool force_snapshot = false;
    uint64_t shipped_gen = 0;
    uint64_t shipped_off = 0;
    uint64_t acked_gen = 0;
    uint64_t acked_off = 0;
  };
  struct Session {
    uint64_t session_id = 0;
    uint64_t follower_id = 0;
    uint64_t trace_id = 0;
    bool caught_up = false;
    bool fully_synced = false;
    uint64_t apply_lag_cycles = 0;
    uint64_t lease_remaining_cycles = 0;
    FollowerSessionStats stats;
    std::vector<ShardCursor> shards;
    // Per-follower read-plane scoreboard, keyed by follower_id (the
    // repl.follower<id>.* counters from src/replication/read_gate.cc): how
    // many reads THIS follower answered, and how many it bounced for each
    // refusal reason. Zero for anonymous sessions (follower_id == 0).
    uint64_t reads_served = 0;
    uint64_t reads_refused_stale_lease = 0;
    uint64_t reads_refused_cursor_lag = 0;
    uint64_t reads_access_denied = 0;
  };
  uint64_t source_id = 0;
  uint64_t successor_id = 0;
  FrameCacheStats cache;
  std::vector<Session> sessions;
  // Fleet-wide read-plane scoreboard (process-global counters from
  // src/replication/read_gate.cc, snapshotted here for one-stop health).
  uint64_t reads_served = 0;
  uint64_t reads_refused_stale_lease = 0;
  uint64_t reads_refused_cursor_lag = 0;
  uint64_t read_staleness_p99_cycles = 0;
};

class ReplicationHub {
 public:
  struct Tuning {
    // Session shared secret: acks carrying a different token are ignored
    // outright, so an unauthenticated peer never advances past await-resume
    // and receives no data. 0 = unauthenticated closed testbed.
    uint64_t auth_token = 0;
    // Lease stamped on shipped traffic: deadline = now + this many virtual
    // cycles. 0 disables lease stamping (and heartbeats) entirely. See
    // ReplicationOptions::lease_interval_cycles for the sizing bounds.
    uint64_t lease_interval_cycles = 50'000'000;
  };

  // `source_id` names this primary's WAL history; a fresh nonce per store
  // open (the owning process mints it from the kernel's RNG-backed handle
  // space or any per-boot unique value). The store must outlive the hub.
  // The two-arg form runs with default tuning.
  ReplicationHub(const DurableStore* store, uint64_t source_id, Tuning tuning);
  ReplicationHub(const DurableStore* store, uint64_t source_id);
  ~ReplicationHub();

  ReplicationHub(const ReplicationHub&) = delete;
  ReplicationHub& operator=(const ReplicationHub&) = delete;

  // Mints a session for one newly connected follower. The hub owns it; the
  // pointer stays valid until CloseSession. Capacity limits are the
  // endpoint's job (it refuses with kBusy) — the hub itself is unbounded.
  FollowerSession* OpenSession();
  void CloseSession(FollowerSession* session);

  size_t session_count() const { return sessions_.size(); }
  const std::vector<std::unique_ptr<FollowerSession>>& sessions() const { return sessions_; }

  // True when at least one follower is connected and EVERY session is fully
  // synced to the WAL tail.
  bool AllFullySynced() const;

  // The lease deadline to stamp right now: now + lease_interval (0 when
  // lease stamping is disabled).
  uint64_t LeaseDeadline() const;
  // Idle-primary lease refresh period: a quarter of the lease.
  uint64_t heartbeat_interval_cycles() const { return tuning_.lease_interval_cycles / 4; }
  bool lease_enabled() const { return tuning_.lease_interval_cycles != 0; }

  // Deterministic successor designation: the lowest nonzero follower id
  // among caught-up sessions; 0 when no session qualifies.
  uint64_t SuccessorId() const;

  // Advisory read routing: the session whose follower should serve a read
  // for `routing_key` under `token`'s read-your-writes bound, or nullptr
  // when no follower qualifies (serve at the primary). Eligible sessions
  // hold an unexpired lease stamp and an acked cursor covering the token;
  // among them the pick is rendezvous-hashed on (routing_key, follower_id),
  // so one user's session reads stick to one follower (its flow-check
  // verdict cache stays hot) while users spread across the fleet, and a
  // follower joining or leaving only moves the keys that hashed to it.
  // Advisory only: the follower's own ReadGate re-decides authoritatively.
  FollowerSession* RouteRead(const std::string& routing_key,
                             const replwire::ReadCursorToken& token) const;

  // Shared WAL read path: serves (shard, generation, offset, ≤max_bytes)
  // from the frame cache, falling back to DurableStore::ReadShardWal and
  // caching the result. `generation` must be the shard's CURRENT generation
  // (cursor-vs-generation divergence is handled by the caller shipping a
  // snapshot instead). The returned span may exceed max_bytes on a cache
  // hit; callers slice at WAL frame boundaries anyway. The out-param is a
  // refcounted view sharing the cache's buffer — K follower sessions
  // streaming the same span hold one allocation between them.
  Status ReadSpan(uint32_t shard, uint64_t generation, uint64_t offset, uint64_t max_bytes,
                  Payload* span);

  uint64_t source_id() const { return source_id_; }
  uint64_t auth_token() const { return tuning_.auth_token; }
  const DurableStore* store() const { return store_; }
  const FrameCacheStats& cache_stats() const { return cache_.stats(); }

  // Replication/lease health surface: cursors, lag, and lease state for
  // every live session. Also exported as gauges (repl.hub<k>.*) while the
  // hub is alive.
  HubDebugStatus DebugStatus() const;

 private:
  // A follower whose session closed while it might still act on a
  // designation naming it (its last stamped lease has not yet expired).
  // SuccessorId() keeps honoring these so a re-designation can never race
  // the departed designee's own expiry check into a double promote.
  struct RetiredDesignee {
    uint64_t id;
    uint64_t lease_until;
  };

  const DurableStore* store_;
  uint64_t source_id_;
  Tuning tuning_;
  FrameCache cache_;
  std::vector<std::unique_ptr<FollowerSession>> sessions_;
  mutable std::vector<RetiredDesignee> retired_designees_;  // pruned in SuccessorId
  uint64_t next_session_id_ = 1;
  // Metrics gauge group publishing DebugStatus() under repl.hub<k>.* while
  // this hub lives (k = per-process hub instance number).
  uint64_t obs_gauge_group_ = 0;
};

}  // namespace asbestos

#endif  // SRC_REPLICATION_SOURCE_H_
