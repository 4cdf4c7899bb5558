#include "src/store/store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/base/hash.h"
#include "src/base/panic.h"
#include "src/obs/metrics.h"
#include "src/obs/provenance.h"
#include "src/store/label_codec.h"

namespace asbestos {

namespace {

StoreMemStats g_store_mem;

// The struct stays the live storage of record (GetStoreMemStats hands out a
// reference tests hold across operations); the registry reads it at
// snapshot time. Registered once at static init, never unregistered.
[[maybe_unused]] const uint64_t g_store_mem_gauges =
    obs::Registry::Get().RegisterGauges([](obs::GaugeSink& sink) {
      sink.Set("store.mem.live_bytes", g_store_mem.live_bytes);
      sink.Set("store.mem.live_records", g_store_mem.live_records);
    });

constexpr char kSnapshotMagic[8] = {'A', 'S', 'B', 'S', 'T', 'O', 'R', '1'};
constexpr char kLogPut = 'P';
constexpr char kLogErase = 'E';
// Stamps the shard count at creation; see ResolveShardCount.
constexpr char kShardMetaName[] = "shards";

uint64_t RecordBytes(const std::string& key, const StoreRecord& r) {
  return key.size() + r.value.size() + kStoreRecordOverheadBytes;
}

// The key → shard mapping is part of the on-disk format (a record must be
// found in the shard whose log holds it), so the hash must be stable across
// runs and toolchains — FNV-1a from src/base/hash.h, whose header carries
// the format-stability warning.
uint64_t StableHash(std::string_view s) { return Fnv1a(s); }

// Shared body encoding for log Put records and snapshot entries.
void AppendRecordBody(std::string_view key, std::string_view value, const Label& secrecy,
                      const Label& integrity, std::string* out) {
  codec::AppendString(key, out);
  codec::AppendString(value, out);
  codec::AppendLabel(secrecy, out);
  codec::AppendLabel(integrity, out);
}

Status ReadRecordBody(std::string_view data, size_t* pos, std::string* key, StoreRecord* record) {
  std::string_view key_view;
  std::string_view value_view;
  Status s = codec::ReadString(data, pos, &key_view);
  if (!IsOk(s)) {
    return s;
  }
  s = codec::ReadString(data, pos, &value_view);
  if (!IsOk(s)) {
    return s;
  }
  s = codec::ReadLabel(data, pos, &record->secrecy);
  if (!IsOk(s)) {
    return s;
  }
  s = codec::ReadLabel(data, pos, &record->integrity);
  if (!IsOk(s)) {
    return s;
  }
  key->assign(key_view);
  record->value.assign(value_view);
  return Status::kOk;
}

}  // namespace

Status WriteFileAtomically(const std::string& dir, const std::string& name,
                           std::string_view contents) {
  const std::string tmp_path = dir + "/." + name + ".tmp";
  const std::string final_path = dir + "/" + name;
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::kBadState;
  }
  const char* p = contents.data();
  size_t n = contents.size();
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return Status::kBadState;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return Status::kBadState;
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::kBadState;
  }
  // The rename is only durable once the directory entry is; without this a
  // crash after Compact() truncates the log could lose the whole store.
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::kBadState;
  }
  const bool dir_synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  return dir_synced ? Status::kOk : Status::kBadState;
}

namespace {

// kNotFound: no such file (a legal empty base image). kBadState: the file
// exists but could not be read — callers must NOT treat that as absence, or
// an EMFILE/EIO at boot would silently discard the snapshot's contents.
Status ReadWholeFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return errno == ENOENT ? Status::kNotFound : Status::kBadState;
  }
  out->clear();
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return n == 0 ? Status::kOk : Status::kBadState;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// fsyncs a directory so entries created inside it (shard dirs, O_CREAT'd
// logs) survive a power cut. fdatasync on a log fd persists the file's data
// and inode but NOT the dentry naming it; without this, Sync() could report
// records durable inside a file the reboot cannot find.
Status SyncDir(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::kBadState;
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced ? Status::kOk : Status::kBadState;
}

// The shard count is part of the on-disk format: changing it would silently
// strand every record in the shard its old hash chose. Creation stamps the
// count into <dir>/shards; every later open re-adopts the stamp, so
// opts.shards is only a request for *new* stores.
//
// Legacy stores (PR 1's flat <dir>/wal + <dir>/snapshot, no stamp) adopt
// count 1 and keep their flat layout.
Result<uint32_t> ResolveShardCount(const std::string& dir, uint32_t requested) {
  const std::string meta_path = dir + "/" + kShardMetaName;
  std::string contents;
  const Status read = ReadWholeFile(meta_path, &contents);
  if (IsOk(read)) {
    uint64_t count = 0;
    for (char c : contents) {
      if (c == '\n') {
        break;
      }
      if (c < '0' || c > '9' || count > kStoreMaxShards) {
        return Status::kInvalidArgs;
      }
      count = count * 10 + static_cast<uint64_t>(c - '0');
    }
    if (count == 0 || count > kStoreMaxShards) {
      return Status::kInvalidArgs;
    }
    return static_cast<uint32_t>(count);
  }
  if (read != Status::kNotFound) {
    return read;  // stamp exists but is unreadable: refuse to guess
  }
  if (FileExists(dir + "/wal") || FileExists(dir + "/snapshot")) {
    return 1u;  // pre-sharding store: flat layout, no stamp
  }
  if (requested == 0 || requested > kStoreMaxShards) {
    return Status::kInvalidArgs;
  }
  if (requested > 1) {
    const std::string stamp = std::to_string(requested) + "\n";
    const Status s = WriteFileAtomically(dir, kShardMetaName, stamp);
    if (!IsOk(s)) {
      return s;
    }
  }
  return requested;
}

}  // namespace

const StoreMemStats& GetStoreMemStats() { return g_store_mem; }

Result<std::unique_ptr<DurableStore>> DurableStore::Open(StoreOptions opts) {
  if (opts.dir.empty()) {
    return Status::kInvalidArgs;
  }
  if (::mkdir(opts.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::kNotFound;
  }
  auto resolved = ResolveShardCount(opts.dir, opts.shards);
  if (!resolved.ok()) {
    return resolved.status();
  }
  const uint32_t shard_count = resolved.value();
  std::unique_ptr<DurableStore> store(new DurableStore(std::move(opts)));
  for (uint32_t k = 0; k < shard_count; ++k) {
    auto shard = std::make_unique<Shard>();
    if (shard_count == 1) {
      shard->dir = store->opts_.dir;  // flat layout, PR-1 compatible
    } else {
      shard->dir = store->opts_.dir + "/shard-" + std::to_string(k);
      if (::mkdir(shard->dir.c_str(), 0755) != 0 && errno != EEXIST) {
        return Status::kBadState;
      }
    }
    const Status s = store->RecoverShard(*shard);
    if (!IsOk(s)) {
      return s;
    }
    // Persist the dentries this open may have created (the shard dir and
    // its O_CREAT'd wal) before any append can be acknowledged as durable.
    const Status dir_sync = SyncDir(shard->dir);
    if (!IsOk(dir_sync)) {
      return dir_sync;
    }
    store->shards_.push_back(std::move(shard));
  }
  if (shard_count > 1) {
    const Status root_sync = SyncDir(store->opts_.dir);  // shard-<k> dentries
    if (!IsOk(root_sync)) {
      return root_sync;
    }
  }
  return store;
}

DurableStore::~DurableStore() {
  // A background flush still references the shard WALs; finish it before
  // they are torn down. This is also what makes "destroy the store, then
  // reopen the directory" a correct reboot: everything pipelined is on disk
  // once the destructor returns. A failure here has no later call to
  // surface through — and it means appends the pipeline took responsibility
  // for are NOT durable — so it is fatal, exactly like the ASB_ASSERT every
  // OnIdle hook applies to the acknowledgements it does receive.
  DrainInflight();
  ASB_ASSERT(IsOk(deferred_flush_status_) && "final pipelined flush failed: batch lost");
  for (const auto& shard : shards_) {
    for (const auto& [key, record] : shard->records) {
      g_store_mem.live_bytes -= static_cast<int64_t>(RecordBytes(key, record));
      g_store_mem.live_records -= 1;
    }
  }
}

uint32_t DurableStore::ShardIndexOf(std::string_view key) const {
  return static_cast<uint32_t>(StableHash(key) % shards_.size());
}

void DurableStore::InsertRecord(Shard& shard, std::string key, StoreRecord record) {
  // Callers erase any existing record first so accounting stays exact.
  const uint64_t bytes = RecordBytes(key, record);
  const bool inserted = shard.records.emplace(std::move(key), std::move(record)).second;
  ASB_ASSERT(inserted);
  g_store_mem.live_records += 1;
  g_store_mem.live_bytes += static_cast<int64_t>(bytes);
}

bool DurableStore::EraseRecord(Shard& shard, const std::string& key) {
  auto it = shard.records.find(key);
  if (it == shard.records.end()) {
    return false;
  }
  g_store_mem.live_bytes -= static_cast<int64_t>(RecordBytes(it->first, it->second));
  g_store_mem.live_records -= 1;
  shard.records.erase(it);
  return true;
}

void DurableStore::ApplyLogRecord(Shard& shard, std::string_view payload) {
  if (payload.empty()) {
    return;  // unknown/corrupt record payloads are skipped, not fatal
  }
  size_t pos = 1;
  switch (payload[0]) {
    case kLogPut: {
      std::string key;
      StoreRecord record;
      if (IsOk(ReadRecordBody(payload, &pos, &key, &record)) && pos == payload.size()) {
        EraseRecord(shard, key);  // refund old accounting before replacing
        InsertRecord(shard, std::move(key), std::move(record));
      }
      return;
    }
    case kLogErase: {
      std::string_view key;
      if (IsOk(codec::ReadString(payload, &pos, &key)) && pos == payload.size()) {
        EraseRecord(shard, std::string(key));
      }
      return;
    }
    default:
      return;
  }
}

Status DurableStore::LoadSnapshot(Shard& shard) {
  std::string contents;
  const Status read = ReadWholeFile(shard.dir + "/snapshot", &contents);
  if (read == Status::kNotFound) {
    return Status::kOk;  // no snapshot yet: empty base image
  }
  if (!IsOk(read)) {
    return read;  // exists but unreadable: refuse to boot without it
  }
  return LoadSnapshotImage(shard, contents);
}

Status DurableStore::LoadSnapshotImage(Shard& shard, std::string_view contents) {
  // Header: magic + u32 crc(body).
  if (contents.size() < sizeof(kSnapshotMagic) + 4 ||
      std::memcmp(contents.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::kInvalidArgs;
  }
  uint32_t crc;
  std::memcpy(&crc, contents.data() + sizeof(kSnapshotMagic), sizeof(crc));
  const std::string_view body(contents.data() + sizeof(kSnapshotMagic) + 4,
                              contents.size() - sizeof(kSnapshotMagic) - 4);
  if (Crc32(body) != crc) {
    return Status::kInvalidArgs;
  }
  size_t pos = 0;
  uint64_t count = 0;
  Status s = codec::ReadVarint(body, &pos, &count);
  if (!IsOk(s)) {
    return s;
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    StoreRecord record;
    s = ReadRecordBody(body, &pos, &key, &record);
    if (!IsOk(s)) {
      return s;
    }
    InsertRecord(shard, std::move(key), std::move(record));
  }
  shard.snapshot_records_loaded = count;
  return pos == body.size() ? Status::kOk : Status::kInvalidArgs;
}

Status DurableStore::RecoverShard(Shard& shard) {
  const Status snap = LoadSnapshot(shard);
  if (!IsOk(snap)) {
    return snap;
  }
  const Status s = shard.wal.Open(
      shard.dir + "/wal", [this, &shard](std::string_view payload) { ApplyLogRecord(shard, payload); });
  if (!IsOk(s)) {
    return s;
  }
  shard.log_records_replayed = shard.wal.recovered_records();
  shard.torn_tail_bytes_dropped = shard.wal.dropped_tail_bytes();
  return Status::kOk;
}

Status DurableStore::Put(std::string_view key, std::string_view value, const Label& secrecy,
                         const Label& integrity) {
  Shard& shard = *shards_[ShardIndexOf(key)];
  std::string payload(1, kLogPut);
  AppendRecordBody(key, value, secrecy, integrity, &payload);
  const Status s = shard.wal.Append(payload);
  if (!IsOk(s)) {
    return s;
  }
  StoreRecord record;
  record.value.assign(value);
  record.secrecy = secrecy;
  record.integrity = integrity;
  EraseRecord(shard, std::string(key));
  InsertRecord(shard, std::string(key), std::move(record));
  MaybeAutoCompact(shard);
  return Status::kOk;
}

Status DurableStore::Erase(std::string_view key) {
  Shard& shard = *shards_[ShardIndexOf(key)];
  const std::string k(key);
  if (shard.records.find(k) == shard.records.end()) {
    return Status::kNotFound;
  }
  std::string payload(1, kLogErase);
  codec::AppendString(key, &payload);
  const Status s = shard.wal.Append(payload);
  if (!IsOk(s)) {
    return s;
  }
  EraseRecord(shard, k);
  MaybeAutoCompact(shard);
  return Status::kOk;
}

const StoreRecord* DurableStore::Get(const std::string& key) const {
  const Shard& shard = *shards_[ShardIndexOf(key)];
  auto it = shard.records.find(key);
  return it == shard.records.end() ? nullptr : &it->second;
}

void DurableStore::ForEach(
    const std::function<void(const std::string&, const StoreRecord&)>& fn) const {
  for (const auto& shard : shards_) {
    for (const auto& [key, record] : shard->records) {
      fn(key, record);
    }
  }
}

size_t DurableStore::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->records.size();
  }
  return n;
}

std::string DurableStore::BuildShardSnapshotImage(const Shard& shard) const {
  std::string body;
  codec::AppendVarint(shard.records.size(), &body);
  for (const auto& [key, record] : shard.records) {
    AppendRecordBody(key, record.value, record.secrecy, record.integrity, &body);
  }
  std::string image(kSnapshotMagic, sizeof(kSnapshotMagic));
  const uint32_t crc = Crc32(body);
  image.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  image.append(body);
  return image;
}

Status DurableStore::CompactShard(Shard& shard) {
  Status s = WriteFileAtomically(shard.dir, "snapshot", BuildShardSnapshotImage(shard));
  if (!IsOk(s)) {
    return s;
  }
  // Capture the outgoing generation's tail before the log vanishes, so
  // replication sources can stream nearly-synced followers across the
  // generation switch (ReadShardWal serves the span from memory; see
  // StoreOptions::retain_wal_tail_bytes). Read straight off the Wal — this
  // is not a replication read and must not perturb wal_read_calls().
  shard.retained_valid = false;
  shard.retained_tail.clear();
  if (opts_.retain_wal_tail_bytes > 0 && shard.wal.size_bytes() > 0) {
    const uint64_t end = shard.wal.size_bytes();
    const uint64_t start =
        end > opts_.retain_wal_tail_bytes ? end - opts_.retain_wal_tail_bytes : 0;
    std::string tail;
    if (IsOk(shard.wal.ReadAt(start, end - start, &tail)) &&
        tail.size() == end - start) {
      shard.retained_valid = true;
      shard.retained_generation = shard.wal.generation();
      shard.retained_start = start;
      shard.retained_end = end;
      shard.retained_tail = std::move(tail);
    }
  }
  // Only once the snapshot is durably in place may the log be dropped.
  s = shard.wal.Reset();
  if (!IsOk(s)) {
    return s;
  }
  // The replayed prefix now lives in the snapshot; without this reset the
  // auto-compaction threshold would stay permanently exceeded after a large
  // recovery and every subsequent mutation would rewrite the snapshot.
  shard.log_records_replayed = 0;
  ++shard.compactions;
  return Status::kOk;
}

Status DurableStore::Compact() {
  // Not required for correctness (truncating a log whose flush is in flight
  // is well-defined, and the snapshot supersedes the log), but draining
  // keeps the pipeline's error reporting in order.
  DrainInflight();
  for (const auto& shard : shards_) {
    const Status s = CompactShard(*shard);
    if (!IsOk(s)) {
      return s;
    }
  }
  return Status::kOk;
}

void DurableStore::DrainInflight() {
  if (inflight_ == nullptr) {
    return;
  }
  inflight_->thread.join();
  if (!IsOk(inflight_->result) && IsOk(deferred_flush_status_)) {
    deferred_flush_status_ = inflight_->result;
  }
  inflight_.reset();
}

Status DurableStore::SyncPipelined() {
  // Wait for the previous round (a whole pump iteration usually ran while
  // it flushed, so this join is almost always immediate) and pick up its
  // outcome: the acknowledgement deferred by one call.
  DrainInflight();
  const Status acked = deferred_flush_status_;
  deferred_flush_status_ = Status::kOk;

  auto flush = std::make_unique<InflightFlush>();
  for (const auto& shard : shards_) {
    if (shard->wal.dirty()) {
      // Clearing the mark here transfers responsibility for everything
      // appended so far to this round's flusher; appends landing while it
      // runs re-dirty the log and belong to the next round.
      shard->wal.ClearDirty();
      flush->wals.push_back(&shard->wal);
    }
  }
  if (flush->wals.empty()) {
    return acked;
  }
  static obs::Counter& syncs = obs::Registry::Get().counter("store.sync_pipelined_calls");
  static obs::Counter& wal_syncs = obs::Registry::Get().counter("store.wal_syncs");
  syncs.Add();
  wal_syncs.Add(flush->wals.size());
  InflightFlush* raw = flush.get();
  flush->thread = std::thread([raw]() {
    for (const Wal* wal : raw->wals) {
      const Status s = wal->SyncDataOnly();
      if (!IsOk(s) && IsOk(raw->result)) {
        raw->result = s;
      }
    }
  });
  inflight_ = std::move(flush);
  return acked;
}

Status DurableStore::Sync() {
  // Everything-durable-on-return semantics require the pipeline drained; a
  // pipelined-flush failure surfaces here rather than vanishing.
  DrainInflight();
  if (!IsOk(deferred_flush_status_)) {
    const Status s = deferred_flush_status_;
    deferred_flush_status_ = Status::kOk;
    return s;
  }
  // Group commit touches only shards with pending appends.
  std::vector<Shard*> dirty;
  for (const auto& shard : shards_) {
    if (shard->wal.dirty()) {
      dirty.push_back(shard.get());
    }
  }
  if (dirty.empty()) {
    return Status::kOk;
  }
  static obs::Counter& syncs = obs::Registry::Get().counter("store.sync_calls");
  static obs::Counter& wal_syncs = obs::Registry::Get().counter("store.wal_syncs");
  syncs.Add();
  wal_syncs.Add(dirty.size());
  Status result = Status::kOk;
  const auto start = std::chrono::steady_clock::now();
  const bool concurrent =
      dirty.size() > 1 && flush_cost_ns_ >= kConcurrentFlushThresholdNs;
  if (!concurrent) {
    // Cheap flushes (tmpfs, NVMe with a fast cache) or a single shard:
    // thread create/join (~20µs each) would cost more than it hides.
    for (Shard* shard : dirty) {
      const Status s = shard->wal.Sync();
      if (!IsOk(s)) {
        result = s;
      }
    }
  } else {
    // Expensive flushes: each one waits on the storage device's cache
    // flush (~hundreds of µs on virtualized disks), so issuing them
    // serially multiplies that latency by the shard count while the device
    // could have absorbed one combined flush. All threads join before
    // returning, so the durability point — "everything appended before
    // this Sync" — is exactly what the serial loop gives.
    std::vector<Status> results(dirty.size(), Status::kOk);
    std::vector<std::thread> flushers;
    flushers.reserve(dirty.size() - 1);
    for (size_t i = 1; i < dirty.size(); ++i) {
      flushers.emplace_back(
          [&results, &dirty, i]() { results[i] = dirty[i]->wal.Sync(); });
    }
    results[0] = dirty[0]->wal.Sync();
    for (std::thread& t : flushers) {
      t.join();
    }
    for (const Status s : results) {
      if (!IsOk(s)) {
        result = s;
      }
    }
  }
  // Track the observed per-shard flush cost (3/4-weighted moving average)
  // to pick the dispatch mode next time. The first Sync after Open always
  // runs serially (cost 0) and seeds the estimate with real hardware.
  // Concurrent rounds overlap their flushes, so the whole elapsed wall time
  // approximates ONE device flush — dividing it by the shard count there
  // would understate the cost ~N× and flip the mode back to serial, making
  // the dispatch oscillate between a fast and a stalling regime.
  const uint64_t elapsed_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
  const uint64_t per_shard_ns = concurrent ? elapsed_ns : elapsed_ns / dirty.size();
  flush_cost_ns_ =
      flush_cost_ns_ == 0 ? per_shard_ns : (flush_cost_ns_ * 3 + per_shard_ns) / 4;
  return result;
}

uint32_t DurableStore::dirty_shard_count() const {
  uint32_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->wal.dirty() ? 1 : 0;
  }
  return n;
}

uint64_t DurableStore::snapshot_records_loaded() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->snapshot_records_loaded;
  }
  return n;
}

uint64_t DurableStore::log_records_replayed() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->log_records_replayed;
  }
  return n;
}

uint64_t DurableStore::torn_tail_bytes_dropped() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->torn_tail_bytes_dropped;
  }
  return n;
}

uint64_t DurableStore::wal_bytes() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->wal.size_bytes();
  }
  return n;
}

uint64_t DurableStore::compactions() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->compactions;
  }
  return n;
}

DurableStore::ShardStats DurableStore::shard_stats(uint32_t shard_index) const {
  ASB_ASSERT(shard_index < shards_.size());
  const Shard& shard = *shards_[shard_index];
  ShardStats stats;
  stats.records = shard.records.size();
  stats.dirty = shard.wal.dirty();
  stats.wal_bytes = shard.wal.size_bytes();
  stats.snapshot_records_loaded = shard.snapshot_records_loaded;
  stats.log_records_replayed = shard.log_records_replayed;
  stats.torn_tail_bytes_dropped = shard.torn_tail_bytes_dropped;
  stats.compactions = shard.compactions;
  return stats;
}

uint64_t DurableStore::shard_wal_generation(uint32_t shard) const {
  ASB_ASSERT(shard < shards_.size());
  return shards_[shard]->wal.generation();
}

uint64_t DurableStore::shard_wal_offset(uint32_t shard) const {
  ASB_ASSERT(shard < shards_.size());
  return shards_[shard]->wal.size_bytes();
}

Status DurableStore::ReadShardWal(uint32_t shard, uint64_t generation, uint64_t offset,
                                  uint64_t max_bytes, std::string* out) const {
  out->clear();
  if (shard >= shards_.size()) {
    return Status::kInvalidArgs;
  }
  const Shard& s = *shards_[shard];
  const Wal& wal = s.wal;
  if (generation != wal.generation() || offset > wal.size_bytes()) {
    // The previous generation's tail may still be retained in memory
    // (compaction-aware fan-out): serve it like log bytes, without touching
    // the log or its read counter.
    if (s.retained_valid && generation == s.retained_generation &&
        offset >= s.retained_start && offset <= s.retained_end) {
      const uint64_t avail = s.retained_end - offset;
      out->assign(s.retained_tail, static_cast<size_t>(offset - s.retained_start),
                  static_cast<size_t>(avail < max_bytes ? avail : max_bytes));
      return Status::kOk;
    }
    // The span this cursor wants no longer exists (compacted away) or never
    // existed here (a cursor from some other history): snapshot territory.
    return Status::kNotFound;
  }
  wal_read_calls_ += 1;
  static obs::Counter& reads = obs::Registry::Get().counter("store.wal_read_calls");
  reads.Add();
  return wal.ReadAt(offset, max_bytes, out);
}

Status DurableStore::ExportShardSnapshot(uint32_t shard, std::string* image,
                                         uint64_t* generation, uint64_t* offset) const {
  if (shard >= shards_.size()) {
    return Status::kInvalidArgs;
  }
  const Shard& s = *shards_[shard];
  // The in-memory map already reflects every appended record, so the image
  // covers the log up to its current tail: a replica installing it resumes
  // streaming from exactly (generation, tail).
  *image = BuildShardSnapshotImage(s);
  *generation = s.wal.generation();
  *offset = s.wal.size_bytes();
  return Status::kOk;
}

Status DurableStore::ApplyReplicatedRecord(uint32_t shard, std::string_view payload,
                                           uint64_t trace_id) {
  if (shard >= shards_.size()) {
    return Status::kInvalidArgs;
  }
  Shard& s = *shards_[shard];
  const Status st = s.wal.Append(payload);
  if (!IsOk(st)) {
    return st;
  }
  // Same apply path as crash recovery: unknown or corrupt payloads are
  // skipped, Put/Erase payloads reconstruct records and labels bit-exactly.
  ApplyLogRecord(s, payload);
  if (obs::ProvenanceLedger::enabled() && !payload.empty() &&
      payload[0] == kLogPut) {
    // Journal the label adoption: the replica's shard takes on the record's
    // secrecy exactly as shipped. The re-parse only runs when the ledger is
    // on, and the work stats are pinned so the forensics decode never skews
    // the Figure-9 label-work counters.
    ScopedWorkStatsShield shield;
    size_t pos = 1;
    std::string key;
    StoreRecord record;
    if (IsOk(ReadRecordBody(payload, &pos, &key, &record)) &&
        pos == payload.size()) {
      obs::ProvenanceLedger::Get().RecordEdge(
          obs::EdgeKind::kAdopt, "store.shard" + std::to_string(shard),
          "primary", 0, record.secrecy.rep_id(), record.secrecy, trace_id);
    }
  }
  MaybeAutoCompact(s);
  return Status::kOk;
}

void DurableStore::ClearShardRecords(Shard& shard) {
  for (const auto& [key, record] : shard.records) {
    g_store_mem.live_bytes -= static_cast<int64_t>(RecordBytes(key, record));
    g_store_mem.live_records -= 1;
  }
  shard.records.clear();
}

Status DurableStore::InstallShardSnapshot(uint32_t shard, std::string_view image) {
  if (shard >= shards_.size()) {
    return Status::kInvalidArgs;
  }
  Shard& s = *shards_[shard];
  // Parse into a scratch shard first: a corrupt image must not destroy the
  // replica's current records.
  Shard scratch;
  const Status parsed = LoadSnapshotImage(scratch, image);
  if (!IsOk(parsed)) {
    ClearShardRecords(scratch);
    return parsed;
  }
  // Persist the image before adopting it, mirroring CompactShard's ordering
  // (snapshot durably in place, then the log may be dropped).
  Status st = WriteFileAtomically(s.dir, "snapshot", image);
  if (!IsOk(st)) {
    ClearShardRecords(scratch);
    return st;
  }
  st = s.wal.Reset();
  if (!IsOk(st)) {
    ClearShardRecords(scratch);
    return st;
  }
  ClearShardRecords(s);
  s.records = std::move(scratch.records);
  scratch.records.clear();
  s.snapshot_records_loaded = scratch.snapshot_records_loaded;
  s.log_records_replayed = 0;
  // The image replaced whatever history the retained tail belonged to.
  s.retained_valid = false;
  s.retained_tail.clear();
  return Status::kOk;
}

bool DurableStore::ShardRetainedSpan(uint32_t shard, uint64_t* generation,
                                     uint64_t* start_offset, uint64_t* end_offset) const {
  if (shard >= shards_.size() || !shards_[shard]->retained_valid) {
    return false;
  }
  const Shard& s = *shards_[shard];
  *generation = s.retained_generation;
  *start_offset = s.retained_start;
  *end_offset = s.retained_end;
  return true;
}

void DurableStore::MaybeAutoCompact(Shard& shard) {
  const uint64_t log_records = shard.wal.appended_records() + shard.log_records_replayed;
  if (log_records >= opts_.compact_min_log_records &&
      log_records >= opts_.compact_factor * (shard.records.size() + 1)) {
    // Compaction failure is not fatal to the in-memory state; the log simply
    // keeps growing until the next attempt.
    (void)CompactShard(shard);
  }
}

}  // namespace asbestos
