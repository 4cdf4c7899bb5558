#include "src/replication/source.h"

#include <algorithm>

#include "src/base/panic.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/replication/read_gate.h"
#include "src/sim/cycles.h"

namespace asbestos {

using replwire::WireMessage;

namespace {

// Byte budget of the hub's shared frame cache: K followers at nearby
// offsets are fed from one WAL read instead of K.
constexpr uint64_t kFrameCacheBytes = 256 * 1024;

// Hub/session ship-plane counters live in the process-wide registry (not
// only in per-instance stats) so a bench snapshot taken after the world is
// torn down still carries the repl.* family.
obs::Counter& BatchCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("repl.batches_shipped");
  return c;
}
obs::Counter& SnapshotCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("repl.snapshots_shipped");
  return c;
}
obs::Counter& HeartbeatCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("repl.heartbeats_sent");
  return c;
}
obs::Counter& ShippedBytesCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("repl.bytes_shipped");
  return c;
}
obs::Counter& RewindCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("repl.rewinds");
  return c;
}

}  // namespace

// --- FollowerSession ---------------------------------------------------------

FollowerSession::FollowerSession(ReplicationHub* hub, uint64_t session_id)
    : hub_(hub), session_id_(session_id) {
  cursors_.resize(hub_->store()->shard_count());
}

std::string FollowerSession::SessionHello() {
  for (Cursor& c : cursors_) {
    c = Cursor();
  }
  follower_id_ = 0;
  // The replication analogue of netd accept: a session's flow trace starts
  // at hello, and every frame it ever ships carries this id.
  trace_id_ = obs::TraceRing::Get().MintTraceId();
  if (obs::TraceRing::enabled()) {
    // Control-plane span: the stream carries only WAL bytes the follower is
    // entitled to replay, so the session trace itself is public (⊥).
    obs::TraceRing::Get().Emit(trace_id_, "repl", "repl.hello",
                               "session=" + std::to_string(session_id_),
                               Label::Bottom());
  }
  WireMessage hello;
  hello.type = replwire::kHello;
  hello.token = hub_->auth_token();
  hello.source_id = hub_->source_id();
  hello.shard_count = hub_->store()->shard_count();
  hello.lease_until = hub_->LeaseDeadline();
  hello.trace_id = trace_id_;
  std::string out;
  replwire::AppendFrame(hello, &out);
  last_send_cycles_ = GetCycleAccounting().now();
  hello_cycles_ = last_send_cycles_;
  last_lease_stamped_ = hello.lease_until;
  return out;
}

void FollowerSession::ShipSnapshot(uint32_t shard, uint64_t lease_until,
                                   uint64_t successor_id, std::string* out, size_t* frames) {
  // The ship span's stack rides the frame (prof_ctx) so the follower's
  // apply span nests under it in the merged flamegraph.
  obs::ProfSpan ship_span;
  if (obs::CycleProfiler::enabled()) {
    ship_span.Begin("repl.ship.snapshot");
  }
  WireMessage m;
  m.type = replwire::kSnapshot;
  m.shard = shard;
  // Snapshots refresh the lease like batches do: a designated successor
  // crawling through a long catch-up must not see its lease starve under a
  // live primary (images can outlast a whole lease interval on the wire).
  m.lease_until = lease_until;
  m.successor_id = successor_id;
  m.trace_id = trace_id_;
  if (obs::CycleProfiler::enabled()) {
    m.prof_ctx = obs::CycleProfiler::Get().current_stack();
  }
  std::string image;
  ASB_ASSERT(IsOk(hub_->store()->ExportShardSnapshot(shard, &image, &m.generation,
                                                     &m.offset)));
  m.payload = std::move(image);  // adopt the image's storage, no copy
  Cursor& c = cursors_[shard];
  c.force_snapshot = false;
  c.shipped_gen = m.generation;
  c.shipped_off = m.offset;
  stats_.snapshots_shipped += 1;
  stats_.bytes_shipped += m.payload.size();
  SnapshotCounter().Add();
  ShippedBytesCounter().Add(m.payload.size());
  if (obs::TraceRing::enabled() && trace_id_ != 0) {
    obs::TraceRing::Get().Emit(trace_id_, "repl", "repl.ship",
                               "snapshot shard=" + std::to_string(shard),
                               Label::Bottom());
  }
  replwire::AppendFrame(m, out);
  *frames += 1;
}

bool FollowerSession::ShipBatchSpan(uint32_t shard, uint64_t gen, uint64_t end_off,
                                    uint64_t max_batch_bytes, uint64_t max_total_bytes,
                                    uint64_t lease_until, uint64_t successor_id,
                                    std::string* out, size_t* frames) {
  Cursor& c = cursors_[shard];
  obs::ProfSpan ship_span;
  if (obs::CycleProfiler::enabled()) {
    ship_span.Begin("repl.ship.batch");
  }
  while (c.shipped_off < end_off && out->size() < max_total_bytes) {
    Payload span;
    const Status s = hub_->ReadSpan(shard, gen, c.shipped_off, max_batch_bytes, &span);
    if (!IsOk(s)) {
      return false;  // the span vanished under us (raced a compaction)
    }
    // Ship whole WAL frames only; if one frame alone exceeds the batch
    // limit it ships as an oversized SINGLETON — exactly that frame, not
    // everything to the log tail — rather than fragmenting.
    uint64_t take = replwire::WalFramePrefix(span, max_batch_bytes);
    if (take == 0) {
      // The first frame alone exceeds the batch limit: its header names
      // its exact size, so re-read precisely that frame and ship it as an
      // oversized singleton — never the whole remaining log.
      const uint64_t need = replwire::FirstWalFrameBytes(span);
      ASB_ASSERT(need > 0 && "batch limit smaller than a WAL frame header");
      const Status big = hub_->ReadSpan(shard, gen, c.shipped_off, need, &span);
      if (!IsOk(big)) {
        return false;  // raced a compaction
      }
      take = need;
      ASB_ASSERT(span.size() >= take);
    }
    WireMessage m;
    m.type = replwire::kBatch;
    m.shard = shard;
    m.generation = gen;
    m.offset = c.shipped_off;
    m.lease_until = lease_until;
    m.successor_id = successor_id;
    m.trace_id = trace_id_;
    if (obs::CycleProfiler::enabled()) {
      m.prof_ctx = obs::CycleProfiler::Get().current_stack();
    }
    m.payload = span.substr(0, take);
    c.shipped_off += take;
    stats_.batches_shipped += 1;
    stats_.bytes_shipped += take;
    BatchCounter().Add();
    ShippedBytesCounter().Add(take);
    if (obs::TraceRing::enabled() && trace_id_ != 0) {
      obs::TraceRing::Get().Emit(
          trace_id_, "repl", "repl.ship",
          "batch shard=" + std::to_string(shard) + " off=" + std::to_string(m.offset),
          Label::Bottom());
    }
    replwire::AppendFrame(m, out);
    *frames += 1;
  }
  return true;
}

size_t FollowerSession::PollFrames(uint64_t max_batch_bytes, uint64_t max_total_bytes,
                                   std::string* out) {
  const DurableStore* store = hub_->store();
  // One stamp per poll: these cannot change mid-call (single-threaded, no
  // acks processed here), and SuccessorId walks every session's cursors.
  const uint64_t lease_until = hub_->LeaseDeadline();
  const uint64_t successor_id = hub_->SuccessorId();
  size_t frames = 0;
  for (uint32_t shard = 0; shard < cursors_.size(); ++shard) {
    if (out->size() >= max_total_bytes) {
      break;  // budget spent; the remainder ships next pump
    }
    Cursor& c = cursors_[shard];
    if (c.await_resume) {
      continue;  // the follower has not told us where it is yet
    }
    // The follower's position is unusable (unknown history), or compaction
    // moved the log out from under the cursor: catch up by image — UNLESS
    // the store retained the compacted generation's tail and the cursor sits
    // inside it, in which case the session streams the retained span to its
    // end and hands the follower across the generation switch with one
    // kGenMark. A fully-synced follower rides through a compaction without
    // ever seeing a snapshot.
    if (c.force_snapshot || c.shipped_gen != store->shard_wal_generation(shard) ||
        c.shipped_off > store->shard_wal_offset(shard)) {
      uint64_t rgen = 0;
      uint64_t rstart = 0;
      uint64_t rend = 0;
      const bool retained =
          !c.force_snapshot && store->ShardRetainedSpan(shard, &rgen, &rstart, &rend) &&
          c.shipped_gen == rgen && rgen + 1 == store->shard_wal_generation(shard) &&
          c.shipped_off >= rstart && c.shipped_off <= rend;
      if (!retained) {
        ShipSnapshot(shard, lease_until, successor_id, out, &frames);
        continue;
      }
      if (!ShipBatchSpan(shard, rgen, rend, max_batch_bytes, max_total_bytes,
                         lease_until, successor_id, out, &frames)) {
        ShipSnapshot(shard, lease_until, successor_id, out, &frames);
        continue;
      }
      if (c.shipped_off < rend || out->size() >= max_total_bytes) {
        continue;  // budget spent mid-span; the rest (and the mark) ship later
      }
      WireMessage mark;
      mark.type = replwire::kGenMark;
      mark.shard = shard;
      mark.generation = rgen;
      mark.offset = rend;
      mark.lease_until = lease_until;
      mark.successor_id = successor_id;
      mark.trace_id = trace_id_;
      replwire::AppendFrame(mark, out);
      ++frames;
      stats_.gen_marks_sent += 1;
      if (obs::TraceRing::enabled() && trace_id_ != 0) {
        obs::TraceRing::Get().Emit(
            trace_id_, "repl", "repl.ship",
            "genmark shard=" + std::to_string(shard) + " gen=" + std::to_string(rgen),
            Label::Bottom());
      }
      c.shipped_gen = rgen + 1;
      c.shipped_off = 0;
      // Fall through: the new generation's bytes (if any) ship below.
    }
    if (!ShipBatchSpan(shard, c.shipped_gen, store->shard_wal_offset(shard),
                       max_batch_bytes, max_total_bytes, lease_until, successor_id, out,
                       &frames)) {
      ShipSnapshot(shard, lease_until, successor_id, out, &frames);  // raced a compaction
    }
  }
  if (frames > 0) {
    last_send_cycles_ = GetCycleAccounting().now();
    last_lease_stamped_ = lease_until;
  }
  return frames;
}

void FollowerSession::AppendHeartbeat(std::string* out) {
  WireMessage hb;
  hb.type = replwire::kHeartbeat;
  hb.lease_until = hub_->LeaseDeadline();
  hb.successor_id = hub_->SuccessorId();
  hb.trace_id = trace_id_;
  replwire::AppendFrame(hb, out);
  stats_.heartbeats_sent += 1;
  HeartbeatCounter().Add();
  last_send_cycles_ = GetCycleAccounting().now();
  last_lease_stamped_ = hb.lease_until;
}

void FollowerSession::HandleAck(const WireMessage& ack) {
  if (ack.token != hub_->auth_token() || ack.shard >= cursors_.size()) {
    return;  // unauthenticated or nonsense ack: the shard stays unshipped
  }
  if (ack.follower_id != 0) {
    follower_id_ = ack.follower_id;
  }
  last_ack_cycles_ = GetCycleAccounting().now();
  static obs::Gauge& lag_gauge = obs::Registry::Get().gauge("repl.apply_lag_cycles");
  lag_gauge.Set(static_cast<double>(ApplyLagCycles()));
  const DurableStore* store = hub_->store();
  Cursor& c = cursors_[ack.shard];
  const uint32_t shard = static_cast<uint32_t>(ack.shard);
  // An ack names a servable position in our history when it sits in the
  // live generation — or inside the retained previous-generation tail,
  // which PollFrames can still stream (compaction-aware hand-off).
  uint64_t rgen = 0;
  uint64_t rstart = 0;
  uint64_t rend = 0;
  const bool in_retained = store->ShardRetainedSpan(shard, &rgen, &rstart, &rend) &&
                           ack.generation == rgen && ack.offset >= rstart &&
                           ack.offset <= rend;
  const bool ours = ack.source_id == hub_->source_id() &&
                    ((ack.generation == store->shard_wal_generation(shard) &&
                      ack.offset <= store->shard_wal_offset(shard)) ||
                     in_retained);
  if (c.await_resume) {
    c.await_resume = false;
    if (ours) {
      // Warm resume: the follower already mirrors our history up to here.
      c.shipped_gen = c.acked_gen = ack.generation;
      c.shipped_off = c.acked_off = ack.offset;
    } else {
      // Unknown position (fresh follower, other primary's history, or a
      // span compaction discarded): image it on the next poll.
      c.force_snapshot = true;
    }
    return;
  }
  if (!ours) {
    // Mid-session the follower should only ever ack our own stream; a
    // foreign ack means it fell behind a compaction between our polls.
    c.force_snapshot = true;
    return;
  }
  // A rewind is warranted only when the ack shows NO progress — the
  // follower re-acked a position it had already reached, meaning it
  // dropped what we sent after it (a gap, or duplicates it skipped). An
  // in-order ack that merely trails `shipped` is the normal pipelined
  // case (several batches in flight) and must NOT trigger retransmission.
  const bool no_progress =
      ack.generation == c.acked_gen && ack.offset <= c.acked_off;
  c.acked_gen = ack.generation;
  c.acked_off = ack.offset;
  if (no_progress && c.shipped_gen == ack.generation && ack.offset < c.shipped_off) {
    c.shipped_off = ack.offset;  // go back and retransmit from its position
    stats_.rewinds += 1;
    RewindCounter().Add();
  }
}

bool FollowerSession::FullySynced() const {
  const DurableStore* store = hub_->store();
  for (uint32_t shard = 0; shard < cursors_.size(); ++shard) {
    const Cursor& c = cursors_[shard];
    if (c.await_resume || c.acked_gen != store->shard_wal_generation(shard) ||
        c.acked_off != store->shard_wal_offset(shard)) {
      return false;
    }
  }
  return true;
}

uint64_t FollowerSession::ApplyLagCycles() const {
  if (FullySynced()) {
    return 0;
  }
  const uint64_t now = GetCycleAccounting().now();
  const uint64_t since = last_ack_cycles_ != 0 ? last_ack_cycles_ : hello_cycles_;
  return now >= since ? now - since : 0;
}

uint64_t FollowerSession::LeaseRemainingCycles() const {
  const uint64_t now = GetCycleAccounting().now();
  return last_lease_stamped_ > now ? last_lease_stamped_ - now : 0;
}

bool FollowerSession::CaughtUp() const {
  const DurableStore* store = hub_->store();
  for (uint32_t shard = 0; shard < cursors_.size(); ++shard) {
    const Cursor& c = cursors_[shard];
    if (c.await_resume || c.force_snapshot ||
        c.acked_gen != store->shard_wal_generation(shard)) {
      return false;
    }
  }
  return true;
}

// --- ReplicationHub ----------------------------------------------------------

ReplicationHub::ReplicationHub(const DurableStore* store, uint64_t source_id, Tuning tuning)
    : store_(store),
      source_id_(source_id),
      tuning_(tuning),
      cache_(kFrameCacheBytes) {
  // Per-process hub ordinal, so two hubs in one simulation (e.g. a promoted
  // follower re-publishing) get distinct gauge namespaces.
  static uint64_t hub_ordinal = 0;
  const std::string prefix = "repl.hub" + std::to_string(hub_ordinal++) + ".";
  obs_gauge_group_ =
      obs::Registry::Get().RegisterGauges([this, prefix](obs::GaugeSink& sink) {
        const HubDebugStatus st = DebugStatus();
        sink.Set(prefix + "sessions", static_cast<uint64_t>(st.sessions.size()));
        sink.Set(prefix + "successor_id", st.successor_id);
        sink.Set(prefix + "frame_cache.hits", st.cache.hits);
        sink.Set(prefix + "frame_cache.misses", st.cache.misses);
        sink.Set(prefix + "frame_cache.evictions", st.cache.evictions);
        sink.Set(prefix + "frame_cache.bytes", st.cache.bytes);
        sink.Set(prefix + "frame_cache.hit_bytes", st.cache.hit_bytes);
        uint64_t max_lag = 0;
        uint64_t min_lease = 0;
        bool have_lease = false;
        for (const HubDebugStatus::Session& s : st.sessions) {
          const std::string sp = prefix + "session" + std::to_string(s.session_id) + ".";
          sink.Set(sp + "follower_id", s.follower_id);
          sink.Set(sp + "apply_lag_cycles", s.apply_lag_cycles);
          sink.Set(sp + "lease_remaining_cycles", s.lease_remaining_cycles);
          sink.Set(sp + "caught_up", static_cast<uint64_t>(s.caught_up ? 1 : 0));
          sink.Set(sp + "fully_synced", static_cast<uint64_t>(s.fully_synced ? 1 : 0));
          sink.Set(sp + "batches_shipped", s.stats.batches_shipped);
          sink.Set(sp + "snapshots_shipped", s.stats.snapshots_shipped);
          sink.Set(sp + "reads_served", s.reads_served);
          sink.Set(sp + "reads_refused_stale_lease", s.reads_refused_stale_lease);
          sink.Set(sp + "reads_refused_cursor_lag", s.reads_refused_cursor_lag);
          sink.Set(sp + "reads_access_denied", s.reads_access_denied);
          max_lag = std::max(max_lag, s.apply_lag_cycles);
          if (!have_lease || s.lease_remaining_cycles < min_lease) {
            min_lease = s.lease_remaining_cycles;
            have_lease = true;
          }
        }
        sink.Set(prefix + "max_apply_lag_cycles", max_lag);
        sink.Set(prefix + "min_lease_remaining_cycles", min_lease);
        sink.Set(prefix + "reads_served", st.reads_served);
        sink.Set(prefix + "reads_refused_stale_lease", st.reads_refused_stale_lease);
        sink.Set(prefix + "reads_refused_cursor_lag", st.reads_refused_cursor_lag);
        sink.Set(prefix + "read_staleness_p99_cycles", st.read_staleness_p99_cycles);
      });
}

ReplicationHub::ReplicationHub(const DurableStore* store, uint64_t source_id)
    : ReplicationHub(store, source_id, Tuning()) {}

ReplicationHub::~ReplicationHub() {
  // Only drop the gauge group. Recomputing lag here would walk the store's
  // WAL tails, and callers may tear the store down before the hub (the
  // bench fixtures do); the persistent repl.apply_lag_cycles gauge already
  // holds the value from the last ack.
  obs::Registry::Get().UnregisterGauges(obs_gauge_group_);
}

FollowerSession* ReplicationHub::OpenSession() {
  sessions_.emplace_back(new FollowerSession(this, next_session_id_++));
  return sessions_.back().get();
}

void ReplicationHub::CloseSession(FollowerSession* session) {
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->get() == session) {
      // Lease fencing: a departed follower may still be holding a
      // designation that names it, valid until the last lease we stamped
      // for it runs out. Until then the designation must NOT move — a
      // re-designation racing the departed designee's own expiry check
      // would let two followers promote. Remember the id and its deadline;
      // SuccessorId() keeps honoring it until the deadline passes.
      if (session->follower_id() != 0 && session->last_lease_stamped() != 0) {
        retired_designees_.push_back(
            RetiredDesignee{session->follower_id(), session->last_lease_stamped()});
      }
      sessions_.erase(it);
      return;
    }
  }
}

bool ReplicationHub::AllFullySynced() const {
  if (sessions_.empty()) {
    return false;
  }
  for (const auto& s : sessions_) {
    if (!s->FullySynced()) {
      return false;
    }
  }
  return true;
}

uint64_t ReplicationHub::LeaseDeadline() const {
  if (tuning_.lease_interval_cycles == 0) {
    return 0;
  }
  return GetCycleAccounting().now() + tuning_.lease_interval_cycles;
}

HubDebugStatus ReplicationHub::DebugStatus() const {
  HubDebugStatus st;
  st.source_id = source_id_;
  st.successor_id = SuccessorId();
  st.cache = cache_.stats();
  // Fold the process-global read-plane scoreboard in (the counters live in
  // read_gate.cc so they survive any one gate; this is the one-stop view).
  obs::Registry& reg = obs::Registry::Get();
  st.reads_served = reg.counter("repl.reads_served").value();
  st.reads_refused_stale_lease = reg.counter("repl.reads_refused_stale_lease").value();
  st.reads_refused_cursor_lag = reg.counter("repl.reads_refused_cursor_lag").value();
  st.read_staleness_p99_cycles =
      reg.histogram("repl.read_staleness_cycles").ApproxQuantile(0.99);
  for (const auto& s : sessions_) {
    HubDebugStatus::Session out;
    out.session_id = s->session_id();
    out.follower_id = s->follower_id();
    out.trace_id = s->trace_id();
    out.caught_up = s->CaughtUp();
    out.fully_synced = s->FullySynced();
    out.apply_lag_cycles = s->ApplyLagCycles();
    out.lease_remaining_cycles = s->LeaseRemainingCycles();
    out.stats = s->stats();
    if (out.follower_id != 0) {
      const std::string fp = "repl.follower" + std::to_string(out.follower_id) + ".";
      out.reads_served = reg.counter(fp + "reads_served").value();
      out.reads_refused_stale_lease =
          reg.counter(fp + "reads_refused_stale_lease").value();
      out.reads_refused_cursor_lag =
          reg.counter(fp + "reads_refused_cursor_lag").value();
      out.reads_access_denied = reg.counter(fp + "reads_access_denied").value();
    }
    for (const FollowerSession::Cursor& c : s->cursors_) {
      HubDebugStatus::ShardCursor sc;
      sc.await_resume = c.await_resume;
      sc.force_snapshot = c.force_snapshot;
      sc.shipped_gen = c.shipped_gen;
      sc.shipped_off = c.shipped_off;
      sc.acked_gen = c.acked_gen;
      sc.acked_off = c.acked_off;
      out.shards.push_back(sc);
    }
    st.sessions.push_back(std::move(out));
  }
  return st;
}

uint64_t ReplicationHub::SuccessorId() const {
  const uint64_t now = GetCycleAccounting().now();
  uint64_t best = 0;
  for (const auto& s : sessions_) {
    if (s->follower_id() == 0 || !s->CaughtUp()) {
      continue;
    }
    if (best == 0 || s->follower_id() < best) {
      best = s->follower_id();
    }
  }
  // Departed followers stay in the computation until their last stamped
  // lease has provably expired (see CloseSession) — a live session with the
  // same id (reconnect) simply coincides with its own retirement entry.
  for (auto it = retired_designees_.begin(); it != retired_designees_.end();) {
    if (now > it->lease_until) {
      it = retired_designees_.erase(it);  // its lease is over; it cannot act
      continue;
    }
    if (best == 0 || it->id < best) {
      best = it->id;
    }
    ++it;
  }
  return best;
}

FollowerSession* ReplicationHub::RouteRead(const std::string& routing_key,
                                           const replwire::ReadCursorToken& token) const {
  FollowerSession* best = nullptr;
  uint64_t best_score = 0;
  for (const auto& s : sessions_) {
    if (s->follower_id() == 0 || s->LeaseRemainingCycles() == 0) {
      continue;  // anonymous mirror, or its lease stamp already ran out
    }
    if (!token.empty()) {
      if (token.shard >= s->cursors_.size()) {
        continue;
      }
      const FollowerSession::Cursor& c = s->cursors_[token.shard];
      replwire::ReadCursorToken acked;
      acked.source_id = c.await_resume ? 0 : source_id_;
      acked.shard = token.shard;
      acked.generation = c.acked_gen;
      acked.offset = c.acked_off;
      if (!ReadGate::CursorCovers(acked, token)) {
        continue;  // this follower would refuse with cursor-lag anyway
      }
    }
    // Rendezvous (highest-random-weight) hash: FNV-1a over the routing key,
    // folded with the follower id. Deterministic, no shared table, and a
    // membership change only remaps the keys that scored highest on the
    // changed node.
    uint64_t h = 1469598103934665603ULL;
    for (const char ch : routing_key) {
      h = (h ^ static_cast<uint8_t>(ch)) * 1099511628211ULL;
    }
    h = (h ^ s->follower_id()) * 1099511628211ULL;
    if (best == nullptr || h > best_score) {
      best = s.get();
      best_score = h;
    }
  }
  return best;
}

Status ReplicationHub::ReadSpan(uint32_t shard, uint64_t generation, uint64_t offset,
                                uint64_t max_bytes, Payload* span) {
  // Reads target the live generation — or the retained previous-generation
  // tail during a compaction hand-off, whose fixed end is its "tail". Spans
  // cached before the compaction stay valid for retained-gen reads (same
  // generation, same immutable bytes), so a ride-through usually never
  // touches the store at all.
  uint64_t tail = store_->shard_wal_offset(shard);
  if (generation != store_->shard_wal_generation(shard)) {
    uint64_t rgen = 0;
    uint64_t rstart = 0;
    uint64_t rend = 0;
    if (store_->ShardRetainedSpan(shard, &rgen, &rstart, &rend) && generation == rgen) {
      tail = rend;
    }
  }
  if (cache_.Lookup(shard, generation, offset, max_bytes, tail, span)) {
    return Status::kOk;
  }
  std::string bytes;
  const Status s = store_->ReadShardWal(shard, generation, offset, max_bytes, &bytes);
  if (IsOk(s)) {
    *span = Payload(std::move(bytes));  // adopt the read's storage, no copy
    cache_.Insert(shard, generation, offset, *span);
  }
  return s;
}

}  // namespace asbestos
