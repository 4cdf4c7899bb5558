#include "src/labels/label.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/base/panic.h"
#include "src/base/strings.h"
#include "src/labels/intern.h"

namespace asbestos {

namespace {

LabelWorkStats g_work;
LabelMemStats g_mem;

// Packed entry: 61-bit handle in the upper bits, level ordinal in the low 3.
// Handles are unique, so sorting by packed value sorts by handle.
uint64_t PackEntry(Handle h, Level l) { return (h.value() << 3) | LevelOrdinal(l); }
Handle EntryHandle(uint64_t e) { return Handle::FromValue(e >> 3); }
Level EntryLevel(uint64_t e) { return static_cast<Level>(e & 0x7); }

}  // namespace

namespace internal {

// A chunk: sorted array of up to kChunkMaxEntries packed entries, reference
// counted for copy-on-write sharing between labels.
struct Chunk {
  int32_t refcount = 1;
  uint16_t size = 0;
  uint16_t capacity = 0;
  Level min_level = Level::kL3;  // over entries only; meaningless when empty
  Level max_level = Level::kStar;
  std::unique_ptr<uint64_t[]> entries;
};

namespace {

constexpr uint16_t kChunkMaxEntries = 64;
constexpr uint16_t kChunkMinCapacity = 32;

uint64_t ChunkBytes(uint16_t capacity) {
  // Struct + entry storage + the label's pointer slot referencing it.
  return sizeof(Chunk) + static_cast<uint64_t>(capacity) * sizeof(uint64_t) + sizeof(void*);
}

Chunk* NewChunk(uint16_t capacity) {
  auto* c = new Chunk();
  c->capacity = capacity;
  c->entries = std::make_unique<uint64_t[]>(capacity);
  g_mem.live_bytes += static_cast<int64_t>(ChunkBytes(capacity));
  g_mem.live_chunks += 1;
  return c;
}

void UnrefChunk(Chunk* c) {
  if (--c->refcount == 0) {
    g_mem.live_bytes -= static_cast<int64_t>(ChunkBytes(c->capacity));
    g_mem.live_chunks -= 1;
    delete c;
  }
}

Chunk* RefChunk(Chunk* c) {
  ++c->refcount;
  return c;
}

void RecomputeChunkExtrema(Chunk* c) {
  Level lo = Level::kL3;
  Level hi = Level::kStar;
  for (uint16_t i = 0; i < c->size; ++i) {
    const Level l = EntryLevel(c->entries[i]);
    lo = LevelMin(lo, l);
    hi = LevelMax(hi, l);
  }
  c->min_level = lo;
  c->max_level = hi;
}

Handle ChunkFirstHandle(const Chunk* c) { return EntryHandle(c->entries[0]); }

}  // namespace

struct LabelRep {
  int32_t refcount = 1;
  Level default_level = Level::kL3;
  Level min_level = Level::kL3;  // over default and all entries
  Level max_level = Level::kL3;
  // Content-snapshot identity (see intern.h): assigned at creation, and
  // re-assigned on every in-place mutation, so a given id value names one
  // extensional content forever.
  uint64_t id = 0;
  // Wrapping sum of InternEntryHash over the explicit entries (intern.h),
  // kept current by every edit; with default_level it yields the intern hash.
  uint64_t entry_hash = 0;
  // Canonical reps are immutable while registered: MutableRep withdraws a
  // sole-owned one from the table before editing it, and clones the rest.
  bool interned = false;
  bool in_table = false;  // registered in the intern table (unlike the
                          // per-level shared default singletons)
  uint64_t level_counts[5] = {};  // explicit entries per level
  std::vector<Chunk*> chunks;

  ~LabelRep() {
    for (Chunk* c : chunks) {
      UnrefChunk(c);
    }
  }
};

namespace {

constexpr uint64_t kRepBytes = sizeof(LabelRep);

LabelRep* NewRep(Level default_level) {
  auto* rep = new LabelRep();
  rep->default_level = default_level;
  rep->min_level = default_level;
  rep->max_level = default_level;
  rep->id = InternNextRepId();
  g_mem.live_bytes += static_cast<int64_t>(kRepBytes);
  g_mem.live_reps += 1;
  return rep;
}

// The intern-table bucket hash of a rep's current content.
uint64_t RepInternHash(const LabelRep* rep) {
  return InternLabelHash(LevelOrdinal(rep->default_level), rep->entry_hash);
}

void FreeRep(LabelRep* rep) {
  if (rep->in_table) {
    // Registered reps are never edited, so this is the hash they were filed under.
    InternErase(RepInternHash(rep), rep);
  }
  g_mem.live_bytes -= static_cast<int64_t>(kRepBytes);
  g_mem.live_reps -= 1;
  delete rep;
}

uint64_t RepHeapBytes(const LabelRep* rep) {
  uint64_t bytes = kRepBytes;
  for (const Chunk* c : rep->chunks) {
    bytes += ChunkBytes(c->capacity);
  }
  return bytes;
}

void RecomputeRepExtrema(LabelRep* rep) {
  Level lo = rep->default_level;
  Level hi = rep->default_level;
  for (const Chunk* c : rep->chunks) {
    lo = LevelMin(lo, c->min_level);
    hi = LevelMax(hi, c->max_level);
  }
  rep->min_level = lo;
  rep->max_level = hi;
}

// Shallow rep clone: shares chunks, used to unshare before mutation.
LabelRep* CloneRep(const LabelRep* rep) {
  LabelRep* copy = NewRep(rep->default_level);
  copy->min_level = rep->min_level;
  copy->max_level = rep->max_level;
  copy->entry_hash = rep->entry_hash;
  for (int i = 0; i < 5; ++i) {
    copy->level_counts[i] = rep->level_counts[i];
  }
  copy->chunks.reserve(rep->chunks.size());
  for (Chunk* c : rep->chunks) {
    copy->chunks.push_back(RefChunk(c));
  }
  return copy;
}

Chunk* CloneChunkWithCapacity(const Chunk* c, uint16_t capacity) {
  ASB_ASSERT(capacity >= c->size);
  Chunk* copy = NewChunk(capacity);
  copy->size = c->size;
  copy->min_level = c->min_level;
  copy->max_level = c->max_level;
  std::memcpy(copy->entries.get(), c->entries.get(), c->size * sizeof(uint64_t));
  return copy;
}

// Sequential reader over a rep's entries in increasing handle order.
class Cursor {
 public:
  explicit Cursor(const LabelRep* rep) : rep_(rep) { SkipToValid(); }

  bool done() const { return chunk_ >= rep_->chunks.size(); }
  uint64_t entry() const { return rep_->chunks[chunk_]->entries[index_]; }
  void Advance() {
    ++index_;
    SkipToValid();
  }

 private:
  void SkipToValid() {
    while (chunk_ < rep_->chunks.size() && index_ >= rep_->chunks[chunk_]->size) {
      ++chunk_;
      index_ = 0;
    }
  }

  const LabelRep* rep_;
  size_t chunk_ = 0;
  uint16_t index_ = 0;
};

// Explicit entries of `rep` strictly above level `floor` (O(1): histogram).
uint64_t RepCountAbove(const LabelRep* rep, Level floor) {
  uint64_t n = 0;
  for (int i = LevelOrdinal(floor) + 1; i < 5; ++i) {
    n += rep->level_counts[i];
  }
  return n;
}

// Moves (chunk, index) to the next entry of `rep` whose level is above
// `floor`, skipping whole chunks whose cached max_level is at or below it.
// `remaining` is how many such entries are still ahead: at zero the walk ends
// at once instead of crossing the trailing chunks.
void SkipToEntryAbove(const LabelRep* rep, Level floor, uint64_t remaining, size_t* chunk,
                      uint16_t* index) {
  if (remaining == 0) {
    *chunk = rep->chunks.size();
    return;
  }
  while (*chunk < rep->chunks.size()) {
    const Chunk* c = rep->chunks[*chunk];
    if (*index == 0 && LevelLeq(c->max_level, floor)) {
      ++*chunk;
      continue;
    }
    while (*index < c->size && LevelLeq(EntryLevel(c->entries[*index]), floor)) {
      ++*index;
    }
    if (*index < c->size) {
      return;
    }
    ++*chunk;
    *index = 0;
  }
}

// Sequential reader over a rep's entries above `floor`, in handle order:
// O(#chunks + entries in chunks that hold one).
class CursorAbove {
 public:
  CursorAbove(const LabelRep* rep, Level floor)
      : rep_(rep), floor_(floor), remaining_(RepCountAbove(rep, floor)) {
    Skip();
  }

  bool done() const { return chunk_ >= rep_->chunks.size(); }
  uint64_t entry() const { return rep_->chunks[chunk_]->entries[index_]; }
  void Advance() {
    --remaining_;
    ++index_;
    Skip();
  }

 private:
  void Skip() { SkipToEntryAbove(rep_, floor_, remaining_, &chunk_, &index_); }

  const LabelRep* rep_;
  Level floor_;
  uint64_t remaining_;
  size_t chunk_ = 0;
  uint16_t index_ = 0;
};

// Entry-less default labels ({⋆}, {1}, {2}, {3}) are ubiquitous — every
// SendArgs default, every fresh vnode — so they share one immutable
// representation per level. Copy-on-write unshares on first mutation: the
// cache holds a reference of its own, and the `interned` mark keeps them out
// of MutableRep's in-place path, so these singletons behave exactly like
// shared table-interned reps without occupying the table.
LabelRepRef SharedDefaultRep(Level default_level) {
  static LabelRep* cache[5] = {};
  LabelRep*& slot = cache[LevelOrdinal(default_level)];
  if (slot == nullptr) {
    slot = NewRep(default_level);  // one live ref owned by the cache
    slot->interned = true;
  }
  ++slot->refcount;
  return LabelRepRef(slot);
}

uint64_t EntryHashSum(const uint64_t* entries, size_t count) {
  uint64_t sum = 0;
  for (size_t i = 0; i < count; ++i) {
    sum += InternEntryHash(entries[i]);
  }
  return sum;
}

// Packs sorted entries into a fresh rep: chunked memcpy, one extrema pass.
// `entry_hash` is EntryHashSum(entries, count), which the caller already has.
LabelRepRef PackSortedEntries(Level default_level, const uint64_t* entries, size_t count,
                              const uint64_t level_counts[5], uint64_t entry_hash) {
  LabelRep* rep = NewRep(default_level);
  rep->entry_hash = entry_hash;
  size_t i = 0;
  while (i < count) {
    const size_t n = std::min<size_t>(kChunkMaxEntries, count - i);
    const uint16_t capacity = n <= kChunkMinCapacity ? kChunkMinCapacity : kChunkMaxEntries;
    Chunk* c = NewChunk(capacity);
    c->size = static_cast<uint16_t>(n);
    std::memcpy(c->entries.get(), entries + i, n * sizeof(uint64_t));
    RecomputeChunkExtrema(c);
    rep->chunks.push_back(c);
    i += n;
  }
  RecomputeRepExtrema(rep);
  for (int l = 0; l < 5; ++l) {
    rep->level_counts[l] = level_counts[l];
  }
  return LabelRepRef(rep);
}

// Structural comparison of a canonical-rep candidate against a flat sorted
// entry array — the intern probe's equality check.
struct FlatMatchCtx {
  Level default_level;
  const uint64_t* entries;
  size_t count;
  const uint64_t* level_counts;
};

bool MatchRepAgainstFlat(const LabelRep* rep, const void* vctx) {
  const auto* ctx = static_cast<const FlatMatchCtx*>(vctx);
  if (rep->default_level != ctx->default_level) {
    return false;
  }
  // Histogram mismatch (which implies count mismatch) rejects in O(1).
  for (int i = 0; i < 5; ++i) {
    if (rep->level_counts[i] != ctx->level_counts[i]) {
      return false;
    }
  }
  Cursor c(rep);
  for (size_t i = 0; i < ctx->count; ++i, c.Advance()) {
    if (c.done() || c.entry() != ctx->entries[i]) {
      return false;
    }
  }
  return c.done();
}

// The hash-consing funnel (see intern.h): every completed construction from
// sorted entries lands here. A live canonical rep with the same content is
// shared; otherwise the freshly packed rep is registered as canonical.
// Deliberately invisible to LabelWorkStats — interning changes wall-clock
// and memory, never the charged label-algebra cost.
LabelRepRef InternSortedEntries(Level default_level, const uint64_t* entries, size_t count,
                                const uint64_t level_counts[5]) {
  if (count == 0) {
    return SharedDefaultRep(default_level);  // per-level canonical singleton
  }
  const uint64_t entry_hash = EntryHashSum(entries, count);
  const uint64_t hash = InternLabelHash(LevelOrdinal(default_level), entry_hash);
  const FlatMatchCtx ctx{default_level, entries, count, level_counts};
  if (LabelRep* canonical = InternLookup(hash, MatchRepAgainstFlat, &ctx)) {
    InternNoteDedup(RepHeapBytes(canonical));  // same layout a fresh pack would use
    ++canonical->refcount;
    return LabelRepRef(canonical);
  }
  LabelRepRef rep = PackSortedEntries(default_level, entries, count, level_counts, entry_hash);
  rep.get()->interned = true;
  rep.get()->in_table = true;
  InternInsert(hash, rep.get());
  return rep;
}

// Extensional equality of two reps, shared by Label::Equals and the intern
// probe of Label::Canonicalize. The cached summaries reject most unequal
// pairs in O(1); otherwise an entry walk that skips whole chunks: a COW clone
// that diverged in one chunk still shares the others, and pointer-identical
// chunks at a chunk boundary are equal without touching their entries.
bool RepContentEqual(const LabelRep* a, const LabelRep* b) {
  if (a->default_level != b->default_level || a->entry_hash != b->entry_hash ||
      a->min_level != b->min_level || a->max_level != b->max_level) {
    return false;
  }
  for (int i = 0; i < 5; ++i) {
    if (a->level_counts[i] != b->level_counts[i]) {
      return false;
    }
  }
  size_t ai = 0;
  size_t bi = 0;
  uint16_t aj = 0;
  uint16_t bj = 0;
  const auto& achunks = a->chunks;
  const auto& bchunks = b->chunks;
  for (;;) {
    while (ai < achunks.size() && aj >= achunks[ai]->size) {
      ++ai;
      aj = 0;
    }
    while (bi < bchunks.size() && bj >= bchunks[bi]->size) {
      ++bi;
      bj = 0;
    }
    const bool a_done = ai >= achunks.size();
    const bool b_done = bi >= bchunks.size();
    if (a_done || b_done) {
      return a_done && b_done;
    }
    if (aj == 0 && bj == 0 && achunks[ai] == bchunks[bi]) {
      ++ai;
      ++bi;
      continue;
    }
    if (achunks[ai]->entries[aj] != bchunks[bi]->entries[bj]) {
      return false;
    }
    ++aj;
    ++bj;
  }
}

bool MatchRepAgainstRep(const LabelRep* candidate, const void* other) {
  return RepContentEqual(candidate, static_cast<const LabelRep*>(other));
}

// Accumulates sorted packed entries and packs them into chunks.
class RepBuilder {
 public:
  explicit RepBuilder(Level default_level) : default_level_(default_level) {}

  void Append(Handle h, Level l) {
    if (l == default_level_) {
      return;  // entries never duplicate the default
    }
    level_counts_[LevelOrdinal(l)] += 1;
    entries_.push_back(PackEntry(h, l));
  }

  LabelRepRef Finish() {
    return InternSortedEntries(default_level_, entries_.data(), entries_.size(), level_counts_);
  }

 private:
  Level default_level_;
  uint64_t level_counts_[5] = {};
  std::vector<uint64_t> entries_;
};

}  // namespace

LabelRepRef::LabelRepRef(const LabelRepRef& other) : rep_(other.rep_) {
  if (rep_ != nullptr) {
    ++rep_->refcount;
  }
}

LabelRepRef& LabelRepRef::operator=(const LabelRepRef& other) {
  if (this == &other) {
    return *this;
  }
  LabelRep* old = rep_;
  rep_ = other.rep_;
  if (rep_ != nullptr) {
    ++rep_->refcount;
  }
  if (old != nullptr && --old->refcount == 0) {
    FreeRep(old);
  }
  return *this;
}

LabelRepRef& LabelRepRef::operator=(LabelRepRef&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  LabelRep* old = rep_;
  rep_ = other.rep_;
  other.rep_ = nullptr;
  if (old != nullptr && --old->refcount == 0) {
    FreeRep(old);
  }
  return *this;
}

LabelRepRef::~LabelRepRef() {
  if (rep_ != nullptr && --rep_->refcount == 0) {
    FreeRep(rep_);
  }
}

}  // namespace internal

using internal::Chunk;
using internal::LabelRep;
using internal::LabelRepRef;

LabelWorkStats& GetLabelWorkStats() { return g_work; }
void ResetLabelWorkStats() { g_work = LabelWorkStats(); }
const LabelMemStats& GetLabelMemStats() { return g_mem; }

Label::Label() : rep_(internal::SharedDefaultRep(Level::kL3)) {}

Label::Label(Level default_level) : rep_(internal::SharedDefaultRep(default_level)) {}

Label::Label(std::initializer_list<std::pair<Handle, Level>> entries, Level default_level)
    : Label(default_level) {
  for (const auto& [h, l] : entries) {
    Set(h, l);
  }
}

Level Label::default_level() const { return rep_->default_level; }
size_t Label::entry_count() const {
  uint64_t n = 0;
  for (uint64_t count : rep_->level_counts) {
    n += count;
  }
  return n;
}
Level Label::min_level() const { return rep_->min_level; }
Level Label::max_level() const { return rep_->max_level; }

uint64_t Label::CountEntriesAtLevel(Level l) const {
  return rep_->level_counts[LevelOrdinal(l)];
}

uint64_t Label::CountEntriesAbove(Level l) const { return internal::RepCountAbove(rep_.get(), l); }

Level Label::EntryMinLevel() const {
  for (int i = 0; i < 5; ++i) {
    if (rep_->level_counts[i] != 0) {
      return static_cast<Level>(i);
    }
  }
  return Level::kL3;
}

Level Label::EntryMaxLevel() const {
  for (int i = 4; i >= 0; --i) {
    if (rep_->level_counts[i] != 0) {
      return static_cast<Level>(i);
    }
  }
  return Level::kStar;
}

Level Label::MinNonStarEntryLevel() const {
  for (int i = 1; i < 5; ++i) {
    if (rep_->level_counts[i] != 0) {
      return static_cast<Level>(i);
    }
  }
  return Level::kL3;
}

namespace {

// Index of the chunk that could contain h: the last chunk whose first handle
// is <= h. Returns SIZE_MAX when h precedes every chunk.
size_t FindChunkIndex(const LabelRep* rep, Handle h) {
  size_t lo = 0;
  size_t hi = rep->chunks.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (internal::ChunkFirstHandle(rep->chunks[mid]) <= h) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? SIZE_MAX : lo - 1;
}

// Index of the first entry in c with handle >= h.
uint16_t LowerBoundInChunk(const Chunk* c, Handle h) {
  const uint64_t key = h.value() << 3;
  const uint64_t* begin = c->entries.get();
  const uint64_t* end = begin + c->size;
  // Levels occupy the low 3 bits, so compare on the handle part only.
  const uint64_t* it = std::lower_bound(begin, end, key,
                                        [](uint64_t e, uint64_t k) { return (e >> 3) < (k >> 3); });
  return static_cast<uint16_t>(it - begin);
}

// The packed entry for h, or nullptr when h takes the default. Uncharged.
const uint64_t* FindEntry(const LabelRep* rep, Handle h) {
  const size_t ci = FindChunkIndex(rep, h);
  if (ci == SIZE_MAX) {
    return nullptr;
  }
  const Chunk* c = rep->chunks[ci];
  const uint16_t i = LowerBoundInChunk(c, h);
  return i < c->size && EntryHandle(c->entries[i]) == h ? &c->entries[i] : nullptr;
}

// Number of explicit entries with handle <= h: chunk sizes summed up to h's
// chunk, so O(#chunks + log chunk) rather than a walk of the entries.
uint64_t RankAtOrBelow(const LabelRep* rep, Handle h) {
  const size_t ci = FindChunkIndex(rep, h);
  if (ci == SIZE_MAX) {
    return 0;
  }
  uint64_t rank = 0;
  for (size_t i = 0; i < ci; ++i) {
    rank += rep->chunks[i]->size;
  }
  const Chunk* c = rep->chunks[ci];
  const uint16_t i = LowerBoundInChunk(c, h);
  return rank + i + (i < c->size && EntryHandle(c->entries[i]) == h ? 1 : 0);
}

}  // namespace

Level Label::Get(Handle h) const {
  g_work.entries_visited += 1;
  const uint64_t* e = FindEntry(rep_.get(), h);
  return e != nullptr ? EntryLevel(*e) : rep_->default_level;
}

bool Label::HasExplicit(Handle h) const { return FindEntry(rep_.get(), h) != nullptr; }

uint64_t Label::rep_id() const { return rep_->id; }
bool Label::rep_canonical() const { return rep_->interned; }

LabelRep* Label::MutableRep() {
  LabelRep* rep = rep_.get();
  if (rep->refcount == 1 && rep->in_table) {
    // This label is the canonical rep's only owner: withdraw the rep from the
    // intern table (O(1) through its cached hash) and edit it in place. The
    // table never holds an edited rep, and Set gives the rep a fresh id, so
    // no id ever names two contents and the check cache cannot go stale.
    internal::InternErase(internal::RepInternHash(rep), rep);
    rep->interned = false;
    rep->in_table = false;
  } else if (rep->refcount > 1 || rep->interned) {
    // Shared reps, and the per-level default singletons, are cloned.
    rep_ = LabelRepRef(internal::CloneRep(rep));
    rep = rep_.get();
  }
  return rep;
}

void Label::Set(Handle h, Level l) {
  ASB_ASSERT(h.valid());
  LabelRep* rep = rep_.get();
  size_t ci = FindChunkIndex(rep, h);

  // Locate an existing entry without unsharing yet.
  bool exists = false;
  uint16_t pos = 0;
  if (ci != SIZE_MAX) {
    const Chunk* c = rep->chunks[ci];
    pos = LowerBoundInChunk(c, h);
    exists = pos < c->size && EntryHandle(c->entries[pos]) == h;
    if (exists && EntryLevel(c->entries[pos]) == l) {
      return;  // no change
    }
  }
  if (!exists && l == rep->default_level) {
    return;  // absent and equal to default: nothing to record
  }

  rep = MutableRep();
  g_work.entries_visited += 1;
  // The content is about to change in place: retire the old snapshot id so
  // anything keyed on it (the kernel's check cache) can never match stale
  // content. Cheap, and harmless when MutableRep just cloned.
  rep->id = internal::InternNextRepId();

  if (exists) {
    // Unshare the chunk, then overwrite or remove in place.
    Chunk*& slot = rep->chunks[ci];
    if (slot->refcount > 1) {
      Chunk* copy = internal::CloneChunkWithCapacity(slot, slot->capacity);
      internal::UnrefChunk(slot);
      slot = copy;
    }
    Chunk* c = slot;
    g_work.entries_visited += c->size;
    rep->level_counts[LevelOrdinal(EntryLevel(c->entries[pos]))] -= 1;
    rep->entry_hash -= internal::InternEntryHash(c->entries[pos]);
    if (l == rep->default_level) {
      std::memmove(&c->entries[pos], &c->entries[pos + 1],
                   (c->size - pos - 1) * sizeof(uint64_t));
      --c->size;
      if (c->size == 0) {
        internal::UnrefChunk(c);
        rep->chunks.erase(rep->chunks.begin() + static_cast<ptrdiff_t>(ci));
      } else {
        internal::RecomputeChunkExtrema(c);
      }
    } else {
      rep->level_counts[LevelOrdinal(l)] += 1;
      c->entries[pos] = PackEntry(h, l);
      rep->entry_hash += internal::InternEntryHash(c->entries[pos]);
      internal::RecomputeChunkExtrema(c);
    }
    internal::RecomputeRepExtrema(rep);
    return;
  }

  // Insertion path.
  rep->level_counts[LevelOrdinal(l)] += 1;
  rep->entry_hash += internal::InternEntryHash(PackEntry(h, l));
  if (rep->chunks.empty()) {
    Chunk* c = internal::NewChunk(internal::kChunkMinCapacity);
    c->entries[0] = PackEntry(h, l);
    c->size = 1;
    internal::RecomputeChunkExtrema(c);
    rep->chunks.push_back(c);
    internal::RecomputeRepExtrema(rep);
    return;
  }
  if (ci == SIZE_MAX) {
    ci = 0;  // h precedes every chunk; insert at the front of the first one
  }

  Chunk*& slot = rep->chunks[ci];
  // Grow or split a full chunk before inserting.
  if (slot->size == slot->capacity) {
    if (slot->capacity < internal::kChunkMaxEntries) {
      Chunk* bigger = internal::CloneChunkWithCapacity(slot, internal::kChunkMaxEntries);
      internal::UnrefChunk(slot);
      slot = bigger;
    } else {
      // Split 64 entries into two chunks of 32.
      Chunk* left = internal::NewChunk(internal::kChunkMaxEntries);
      Chunk* right = internal::NewChunk(internal::kChunkMaxEntries);
      const uint16_t half = slot->size / 2;
      left->size = half;
      right->size = static_cast<uint16_t>(slot->size - half);
      std::memcpy(left->entries.get(), slot->entries.get(), half * sizeof(uint64_t));
      std::memcpy(right->entries.get(), slot->entries.get() + half,
                  right->size * sizeof(uint64_t));
      internal::RecomputeChunkExtrema(left);
      internal::RecomputeChunkExtrema(right);
      internal::UnrefChunk(slot);
      rep->chunks[ci] = left;
      rep->chunks.insert(rep->chunks.begin() + static_cast<ptrdiff_t>(ci) + 1, right);
      if (h >= internal::ChunkFirstHandle(right)) {
        ++ci;
      }
    }
  }

  Chunk*& target = rep->chunks[ci];
  if (target->refcount > 1) {
    Chunk* copy = internal::CloneChunkWithCapacity(target, target->capacity);
    internal::UnrefChunk(target);
    target = copy;
  }
  Chunk* c = target;
  const uint16_t ins = LowerBoundInChunk(c, h);
  g_work.entries_visited += c->size;
  std::memmove(&c->entries[ins + 1], &c->entries[ins], (c->size - ins) * sizeof(uint64_t));
  c->entries[ins] = PackEntry(h, l);
  ++c->size;
  internal::RecomputeChunkExtrema(c);
  internal::RecomputeRepExtrema(rep);
}

namespace {

// The asymmetric fast paths engage when one side is a handful of entries and
// the other is huge (netd/idd/ok-dbproxy labels grow with the user count).
// The real merge would be linear in the huge side; these compute the same
// result via chunk sharing and point lookups, while callers keep *charging*
// the linear cost (the paper's implementation is linear, §5.6/§9.3; our
// cycle accounting must stay faithful to it).
constexpr size_t kAsymmetricSmallLimit = 24;
constexpr size_t kAsymmetricBigFactor = 8;

bool AsymmetricShapes(size_t small_count, size_t big_count) {
  return small_count <= kAsymmetricSmallLimit &&
         big_count >= kAsymmetricBigFactor * (small_count + 8);
}

// The ⋆-sparse shapes: asymmetric, and the big side has as few entries above
// the small side's default as a small side may have entries. Those are the
// only big entries a merge with the small side can keep or be violated by.
bool SparseShapes(const Label& small, const Label& big) {
  return AsymmetricShapes(small.entry_count(), big.entry_count()) &&
         AsymmetricShapes(big.CountEntriesAbove(small.default_level()), big.entry_count());
}

// Walks, in handle order, the handles of `small`'s entries and of `big`'s
// entries above `small`'s default, calling fn(h, big(h), small(h), in_big,
// in_small) with each side's level (its default where it has no entry) and
// whether it has an explicit entry there. big(h) at a small handle is an
// uncharged lookup. Stops early, returning false, when fn returns false.
template <typename Fn>
bool SparseWalk(const LabelRep* big, const LabelRep* small, Fn&& fn) {
  internal::CursorAbove cb(big, small->default_level);
  internal::Cursor cs(small);
  while (!cb.done() || !cs.done()) {
    if (cs.done() || (!cb.done() && EntryHandle(cb.entry()) < EntryHandle(cs.entry()))) {
      const uint64_t e = cb.entry();
      cb.Advance();
      if (!fn(EntryHandle(e), EntryLevel(e), small->default_level, true, false)) {
        return false;
      }
      continue;
    }
    const Handle h = EntryHandle(cs.entry());
    const Level small_level = EntryLevel(cs.entry());
    cs.Advance();
    if (!cb.done() && EntryHandle(cb.entry()) == h) {
      cb.Advance();
    }
    const uint64_t* e = FindEntry(big, h);
    if (!fn(h, e != nullptr ? EntryLevel(*e) : big->default_level, small_level, e != nullptr,
            true)) {
      return false;
    }
  }
  return true;
}

// The asymmetric Set-based merge: `small`'s entries folded into `big` with
// `pick`, charged as if the big side were scanned. `big` arrives by value, so
// a caller that gives up its label (JoinInPlace/MeetInPlace) has it edited in
// place when it is the rep's only owner, instead of cloned.
Label FoldInto(Label big, const Label& small, Level (*pick)(Level, Level)) {
  g_work.entries_visited += big.entry_count() + small.entry_count();
  for (Label::EntryIter it = small.IterateEntries(); !it.done(); it.Advance()) {
    big.Set(it.handle(), pick(big.Get(it.handle()), it.level()));
  }
  return big;
}

}  // namespace

bool Label::Leq(const Label& other) const {
  g_work.ops += 1;
  const LabelRep* a = rep_.get();
  const LabelRep* b = other.rep_.get();
  if (a == b) {
    g_work.fast_path_hits += 1;
    return true;
  }
  // Min/max pruning (§5.6): if every level in A is below every level in B,
  // no entry scan is needed.
  if (LevelLeq(a->max_level, b->min_level)) {
    g_work.fast_path_hits += 1;
    return true;
  }
  // Handles mentioned in neither label compare default-to-default, and there
  // are unboundedly many of them, so this check is decisive.
  if (!LevelLeq(a->default_level, b->default_level)) {
    return false;
  }
  // Asymmetric small ⊑ big: if our default is below every entry of the big
  // side, only our explicit entries need point checks. (Charged as a scan.)
  if (AsymmetricShapes(entry_count(), other.entry_count()) &&
      LevelLeq(a->default_level, other.EntryMinLevel())) {
    g_work.entries_visited += entry_count() + other.entry_count();
    for (EntryIter it = IterateEntries(); !it.done(); it.Advance()) {
      if (!LevelLeq(it.level(), other.Get(it.handle()))) {
        return false;
      }
    }
    return true;
  }
  // Asymmetric big ⊑ small: valid wholesale when every big entry is below
  // the small side's default; the small side's entries get point checks.
  if (AsymmetricShapes(other.entry_count(), entry_count()) &&
      LevelLeq(EntryMaxLevel(), b->default_level)) {
    g_work.entries_visited += entry_count() + other.entry_count();
    for (EntryIter it = other.IterateEntries(); !it.done(); it.Advance()) {
      if (!LevelLeq(Get(it.handle()), it.level())) {
        return false;
      }
    }
    return true;
  }
  // ⋆-sparse big ⊑ small: a violation can only sit at a big entry above the
  // small default or at one of the small side's handles, so only those are
  // visited. Charged as the linear walk below: every union handle when it
  // holds, else the union handles up to and including the first violation.
  if (SparseShapes(other, *this)) {
    uint64_t small_rank = 0;
    uint64_t common = 0;
    Handle violation;
    const bool leq =
        SparseWalk(a, b, [&](Handle h, Level al, Level bl, bool in_a, bool in_b) {
          small_rank += in_b;
          common += in_a && in_b;
          if (LevelLeq(al, bl)) {
            return true;
          }
          violation = h;
          return false;
        });
    g_work.entries_visited += leq ? entry_count() + other.entry_count() - common
                                  : RankAtOrBelow(a, violation) + small_rank - common;
    return leq;
  }
  internal::Cursor ca(a);
  internal::Cursor cb(b);
  while (!ca.done() || !cb.done()) {
    g_work.entries_visited += 1;
    if (cb.done() || (!ca.done() && EntryHandle(ca.entry()) < EntryHandle(cb.entry()))) {
      // Handle only in A: compare against B's default.
      if (!LevelLeq(EntryLevel(ca.entry()), b->default_level)) {
        return false;
      }
      ca.Advance();
    } else if (ca.done() || EntryHandle(cb.entry()) < EntryHandle(ca.entry())) {
      // Handle only in B: A's default applies.
      if (!LevelLeq(a->default_level, EntryLevel(cb.entry()))) {
        return false;
      }
      cb.Advance();
    } else {
      if (!LevelLeq(EntryLevel(ca.entry()), EntryLevel(cb.entry()))) {
        return false;
      }
      ca.Advance();
      cb.Advance();
    }
  }
  return true;
}

Label Label::Lub(Label a, const Label& b) {
  g_work.ops += 1;
  const LabelRep* ra = a.rep_.get();
  const LabelRep* rb = b.rep_.get();
  // Fast paths: if one label dominates the other everywhere (by extrema),
  // the result is the dominating label, shared without copying.
  if (ra == rb || LevelLeq(rb->max_level, ra->min_level)) {
    g_work.fast_path_hits += 1;
    return a;
  }
  if (LevelLeq(ra->max_level, rb->min_level)) {
    g_work.fast_path_hits += 1;
    return b;
  }
  // Asymmetric small ⊔ big: when the small side's default is below
  // everything in the big side, big-only entries and the default are
  // unchanged, so the result is the big label with the small side's entries
  // folded in pointwise. Account the work as if the big side were scanned.
  {
    const bool a_small = a.entry_count() <= b.entry_count();
    const Label& small = a_small ? a : b;
    const Label& big = a_small ? b : a;
    if (AsymmetricShapes(small.entry_count(), big.entry_count()) &&
        LevelLeq(small.default_level(), big.min_level())) {
      return a_small ? FoldInto(b, a, LevelMax) : FoldInto(std::move(a), b, LevelMax);
    }
    // ⋆-sparse small ⊔ big: when the big default is at or below the small
    // one, every big entry at or below the small default merges to the
    // result's default and drops, so only the big entries above it and the
    // small side's entries are visited. Charged as the linear merge below:
    // one visit per union handle.
    if (LevelLeq(big.default_level(), small.default_level()) && SparseShapes(small, big)) {
      internal::RepBuilder out(small.default_level());
      uint64_t common = 0;
      SparseWalk(big.rep_.get(), small.rep_.get(),
                 [&](Handle h, Level big_level, Level small_level, bool in_big, bool in_small) {
                   common += in_big && in_small;
                   out.Append(h, LevelMax(big_level, small_level));
                   return true;
                 });
      g_work.entries_visited += big.entry_count() + small.entry_count() - common;
      return Label(out.Finish());
    }
  }
  const Level def = LevelMax(ra->default_level, rb->default_level);
  internal::RepBuilder out(def);
  internal::Cursor ca(ra);
  internal::Cursor cb(rb);
  while (!ca.done() || !cb.done()) {
    g_work.entries_visited += 1;
    if (cb.done() || (!ca.done() && EntryHandle(ca.entry()) < EntryHandle(cb.entry()))) {
      out.Append(EntryHandle(ca.entry()), LevelMax(EntryLevel(ca.entry()), rb->default_level));
      ca.Advance();
    } else if (ca.done() || EntryHandle(cb.entry()) < EntryHandle(ca.entry())) {
      out.Append(EntryHandle(cb.entry()), LevelMax(EntryLevel(cb.entry()), ra->default_level));
      cb.Advance();
    } else {
      out.Append(EntryHandle(ca.entry()),
                 LevelMax(EntryLevel(ca.entry()), EntryLevel(cb.entry())));
      ca.Advance();
      cb.Advance();
    }
  }
  return Label(out.Finish());
}

Label Label::Glb(Label a, const Label& b) {
  g_work.ops += 1;
  const LabelRep* ra = a.rep_.get();
  const LabelRep* rb = b.rep_.get();
  if (ra == rb || LevelLeq(ra->max_level, rb->min_level)) {
    g_work.fast_path_hits += 1;
    return a;
  }
  if (LevelLeq(rb->max_level, ra->min_level)) {
    g_work.fast_path_hits += 1;
    return b;
  }
  // Asymmetric small ⊓ big (dual of the ⊔ fast path): valid when the small
  // default sits above everything in the big label.
  {
    const bool a_small = a.entry_count() <= b.entry_count();
    const Label& small = a_small ? a : b;
    const Label& big = a_small ? b : a;
    if (AsymmetricShapes(small.entry_count(), big.entry_count()) &&
        LevelLeq(big.max_level(), small.default_level())) {
      return a_small ? FoldInto(b, a, LevelMin) : FoldInto(std::move(a), b, LevelMin);
    }
  }
  const Level def = LevelMin(ra->default_level, rb->default_level);
  internal::RepBuilder out(def);
  internal::Cursor ca(ra);
  internal::Cursor cb(rb);
  while (!ca.done() || !cb.done()) {
    g_work.entries_visited += 1;
    if (cb.done() || (!ca.done() && EntryHandle(ca.entry()) < EntryHandle(cb.entry()))) {
      out.Append(EntryHandle(ca.entry()), LevelMin(EntryLevel(ca.entry()), rb->default_level));
      ca.Advance();
    } else if (ca.done() || EntryHandle(cb.entry()) < EntryHandle(ca.entry())) {
      out.Append(EntryHandle(cb.entry()), LevelMin(EntryLevel(cb.entry()), ra->default_level));
      cb.Advance();
    } else {
      out.Append(EntryHandle(ca.entry()),
                 LevelMin(EntryLevel(ca.entry()), EntryLevel(cb.entry())));
      ca.Advance();
      cb.Advance();
    }
  }
  return Label(out.Finish());
}

Label Label::StarsOnly() const {
  g_work.ops += 1;
  const LabelRep* rep = rep_.get();
  const bool default_is_star = rep->default_level == Level::kStar;
  const Level def = default_is_star ? Level::kStar : Level::kL3;
  if (rep->chunks.empty()) {
    g_work.fast_path_hits += 1;
    return Label(def);
  }
  internal::RepBuilder out(def);
  internal::Cursor c(rep);
  while (!c.done()) {
    g_work.entries_visited += 1;
    const Level l = EntryLevel(c.entry());
    if (default_is_star) {
      // Unmentioned handles are ⋆; explicit non-star entries become 3.
      if (l != Level::kStar) {
        out.Append(EntryHandle(c.entry()), Level::kL3);
      }
    } else {
      if (l == Level::kStar) {
        out.Append(EntryHandle(c.entry()), Level::kStar);
      }
    }
    c.Advance();
  }
  return Label(out.Finish());
}

bool Label::Equals(const Label& other) const {
  const LabelRep* a = rep_.get();
  const LabelRep* b = other.rep_.get();
  // Shared-rep fast path: COW copies and hash-consed constructions compare
  // in O(1), whatever their size.
  if (a == b) {
    return true;
  }
  // Two simultaneously-live canonical reps are structurally distinct by the
  // intern invariant, so distinct pointers decide inequality in O(1) too.
  if (a->interned && b->interned) {
    return false;
  }
  return internal::RepContentEqual(a, b);
}

void Label::JoinInPlace(const Label& other) {
  // Fast no-op: everything in `other` is already below everything here.
  if (LevelLeq(other.rep_->max_level, rep_->min_level)) {
    g_work.ops += 1;
    g_work.fast_path_hits += 1;
    return;
  }
  if (other.Leq(*this)) {
    return;  // accurate containment check avoids allocating a new rep
  }
  // Handing over this label lets Lub's asymmetric path edit a sole-owned rep
  // in place rather than clone it. `other` cannot alias *this here: if it
  // did, the Leq above would have held.
  *this = Lub(std::move(*this), other);
  // The merge ran: re-key the result to its canonical rep. Lub's builder
  // paths already interned; this covers the asymmetric Set-based path, whose
  // private rep would otherwise take a fresh id on every contamination and
  // starve the kernel's check cache (ROADMAP: live-path hit rate).
  Canonicalize();
}

void Label::MeetInPlace(const Label& other) {
  if (LevelLeq(rep_->max_level, other.rep_->min_level)) {
    g_work.ops += 1;
    g_work.fast_path_hits += 1;
    return;
  }
  if (Leq(other)) {
    return;
  }
  *this = Glb(std::move(*this), other);
  Canonicalize();
}

void Label::Canonicalize() {
  internal::LabelRep* rep = rep_.get();
  if (rep->interned) {
    return;  // already canonical (or a shared default singleton)
  }
  if (rep->chunks.empty()) {
    rep_ = internal::SharedDefaultRep(rep->default_level);
    return;
  }
  // O(1) on a miss: the rep's running entry-hash sum gives the bucket, and
  // this very rep becomes the canonical one — no copy, just the promise not
  // to edit it while registered (MutableRep withdraws or clones it first). A
  // hit is confirmed by a content walk that skips chunks shared with the twin.
  const uint64_t hash = internal::RepInternHash(rep);
  if (internal::LabelRep* canonical =
          internal::InternLookup(hash, internal::MatchRepAgainstRep, rep)) {
    internal::InternNoteDedup(internal::RepHeapBytes(canonical));
    ++canonical->refcount;
    rep_ = internal::LabelRepRef(canonical);  // drops the private rep
    return;
  }
  rep->interned = true;
  rep->in_table = true;
  internal::InternInsert(hash, rep);
}

Label::EntryIter::EntryIter(const internal::LabelRep* rep) : rep_(rep) { SkipToValid(); }

void Label::EntryIter::SkipToValid() {
  while (chunk_ < rep_->chunks.size() && index_ >= rep_->chunks[chunk_]->size) {
    ++chunk_;
    index_ = 0;
  }
}

bool Label::EntryIter::done() const { return chunk_ >= rep_->chunks.size(); }

Handle Label::EntryIter::handle() const {
  return EntryHandle(rep_->chunks[chunk_]->entries[index_]);
}

Level Label::EntryIter::level() const {
  return EntryLevel(rep_->chunks[chunk_]->entries[index_]);
}

void Label::EntryIter::Advance() {
  ++index_;
  SkipToValid();
}

Label::EntryIter Label::IterateEntries() const { return EntryIter(rep_.get()); }

Label::NonStarIter::NonStarIter(const internal::LabelRep* rep)
    : rep_(rep), remaining_(internal::RepCountAbove(rep, Level::kStar)) {
  SkipToValid();
}

void Label::NonStarIter::SkipToValid() {
  internal::SkipToEntryAbove(rep_, Level::kStar, remaining_, &chunk_, &index_);
}

bool Label::NonStarIter::done() const { return chunk_ >= rep_->chunks.size(); }

Handle Label::NonStarIter::handle() const {
  return EntryHandle(rep_->chunks[chunk_]->entries[index_]);
}

Level Label::NonStarIter::level() const {
  return EntryLevel(rep_->chunks[chunk_]->entries[index_]);
}

void Label::NonStarIter::Advance() {
  --remaining_;
  ++index_;
  SkipToValid();
}

Label::NonStarIter Label::IterateNonStarEntries() const { return NonStarIter(rep_.get()); }

std::vector<std::pair<Handle, Level>> Label::Entries() const {
  std::vector<std::pair<Handle, Level>> out;
  out.reserve(entry_count());
  internal::Cursor c(rep_.get());
  while (!c.done()) {
    out.emplace_back(EntryHandle(c.entry()), EntryLevel(c.entry()));
    c.Advance();
  }
  return out;
}

uint64_t Label::heap_bytes() const { return internal::RepHeapBytes(rep_.get()); }

std::string Label::ToString() const {
  std::string out = "{";
  internal::Cursor c(rep_.get());
  while (!c.done()) {
    out += StrFormat("%llu %s, ", static_cast<unsigned long long>(EntryHandle(c.entry()).value()),
                     LevelName(EntryLevel(c.entry())));
    c.Advance();
  }
  out += LevelName(rep_->default_level);
  out += "}";
  return out;
}

bool Label::Parse(std::string_view text, Label* out) {
  std::string_view s = Trim(text);
  if (s.size() < 3 || s.front() != '{' || s.back() != '}') {
    return false;
  }
  s = s.substr(1, s.size() - 2);
  const std::vector<std::string> parts = Split(s, ',');
  if (parts.empty()) {
    return false;
  }
  const std::string_view def_part = Trim(parts.back());
  Level def;
  if (def_part.size() != 1 || !LevelFromName(def_part[0], &def)) {
    return false;
  }
  // Build through LabelBuilder so parsed labels land on the hash-consing
  // path: re-parsing a label the process already holds shares its canonical
  // rep instead of allocating a twin. Validation happens before each Append
  // (the builder asserts, it does not report).
  LabelBuilder builder(def);
  uint64_t prev_handle = 0;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    const std::string_view entry = Trim(parts[i]);
    const size_t space = entry.rfind(' ');
    if (space == std::string_view::npos) {
      return false;
    }
    uint64_t handle_value = 0;
    if (!ParseUint64(Trim(entry.substr(0, space)), &handle_value) ||
        handle_value == 0 || handle_value > Handle::kMaxValue) {
      return false;
    }
    // ToString emits strictly increasing handles; duplicated or reordered
    // entries mark corrupt input (the binary codec in src/store rejects the
    // same shapes), so refuse them rather than silently last-one-wins.
    if (handle_value <= prev_handle) {
      return false;
    }
    prev_handle = handle_value;
    const std::string_view level_part = Trim(entry.substr(space + 1));
    Level l;
    if (level_part.size() != 1 || !LevelFromName(level_part[0], &l)) {
      return false;
    }
    if (l != def) {  // a default-valued entry parses as a no-op, as Set did
      builder.Append(Handle::FromValue(handle_value), l);
    }
  }
  *out = builder.Build();
  return true;
}

void LabelBuilder::Append(Handle h, Level l) {
  ASB_ASSERT(h.valid());
  ASB_ASSERT(l != default_level_ && "builder entries must differ from the default");
  const uint64_t packed = PackEntry(h, l);
  // Levels live in the low 3 bits, so shifted comparison orders by handle;
  // strict inequality also rejects duplicates.
  ASB_ASSERT((entries_.empty() || (packed >> 3) > (last_packed_ >> 3)) &&
             "builder entries must arrive in strictly increasing handle order");
  last_packed_ = packed;
  level_counts_[LevelOrdinal(l)] += 1;
  entries_.push_back(packed);
}

Label LabelBuilder::Build() {
  Label result(internal::InternSortedEntries(default_level_, entries_.data(), entries_.size(),
                                             level_counts_));
  entries_.clear();
  last_packed_ = 0;
  for (int l = 0; l < 5; ++l) {
    level_counts_[l] = 0;
  }
  return result;
}

void Label::CheckRep() const {
  const LabelRep* rep = rep_.get();
  ASB_ASSERT(rep != nullptr);
  ASB_ASSERT(rep->refcount >= 1);
  Level lo = rep->default_level;
  Level hi = rep->default_level;
  Handle prev = Handle::Invalid();
  for (const Chunk* c : rep->chunks) {
    ASB_ASSERT(c->refcount >= 1);
    ASB_ASSERT(c->size >= 1);
    ASB_ASSERT(c->size <= c->capacity);
    Level clo = Level::kL3;
    Level chi = Level::kStar;
    for (uint16_t i = 0; i < c->size; ++i) {
      const Handle h = EntryHandle(c->entries[i]);
      const Level l = EntryLevel(c->entries[i]);
      ASB_ASSERT(h.valid());
      ASB_ASSERT(prev < h && "entries must be strictly increasing");
      ASB_ASSERT(l != rep->default_level && "entries must differ from the default");
      prev = h;
      clo = LevelMin(clo, l);
      chi = LevelMax(chi, l);
    }
    ASB_ASSERT(c->min_level == clo);
    ASB_ASSERT(c->max_level == chi);
    lo = LevelMin(lo, clo);
    hi = LevelMax(hi, chi);
  }
  ASB_ASSERT(rep->min_level == lo);
  ASB_ASSERT(rep->max_level == hi);
  uint64_t counts[5] = {};
  for (const Chunk* c : rep->chunks) {
    for (uint16_t i = 0; i < c->size; ++i) {
      counts[LevelOrdinal(EntryLevel(c->entries[i]))] += 1;
    }
  }
  for (int i = 0; i < 5; ++i) {
    ASB_ASSERT(rep->level_counts[i] == counts[i]);
  }
  uint64_t entry_hash = 0;
  for (const Chunk* c : rep->chunks) {
    entry_hash += internal::EntryHashSum(c->entries.get(), c->size);
  }
  ASB_ASSERT(rep->entry_hash == entry_hash && "cached entry-hash sum is stale");
}

}  // namespace asbestos
