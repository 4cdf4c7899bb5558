// Asbestos labels (paper Section 5).
//
// A label is a total function from 61-bit handles to levels [⋆,0,1,2,3],
// represented sparsely: an explicit sorted entry list plus a default level
// that applies to every handle not mentioned. The partial order, join and
// meet are pointwise:
//
//   L1 ⊑ L2  iff  L1(h) ≤ L2(h) for all h
//   (L1 ⊔ L2)(h) = max(L1(h), L2(h))      (least upper bound, "Lub")
//   (L1 ⊓ L2)(h) = min(L1(h), L2(h))      (greatest lower bound, "Glb")
//   L⋆(h) = ⋆ if L(h) = ⋆, else 3         (stars-only label, "StarsOnly")
//
// Representation follows the paper's kernel implementation (Section 5.6):
// a label points to a sorted array of chunks, each a sorted array of up to
// 64 packed 8-byte entries (61-bit handle in the upper bits, level in the
// low 3 bits). Labels and chunks are reference counted and updated
// copy-on-write, so entities can share label memory; each chunk and each
// label caches the minimum and maximum of its levels, which makes common
// comparisons O(1). Worst-case ⊑/⊔/⊓ is linear in the entry count — this
// linearity is what produces the performance shape of paper Figure 9.
//
// Host-side fast paths. Operations between a huge label (netd's, the demux's
// or idd's, which grow with the user count) and a small one mostly avoid the
// linear walk on the host: the cached extrema and a per-level entry
// histogram decide many cases wholesale, the asymmetric paths fold the small
// side into the big one by point lookups, and the ⋆-sparse paths (small ⊔ big
// and big ⊑ small, when the big side has few entries above the small side's
// default) visit only those few big entries plus the small side, skipping
// chunks by their cached max level. None of this changes the charged cost:
// every path adds to LabelWorkStats exactly what the linear merge it stands
// in for adds, so the cycle model stays linear.
//
// On top of copy-on-write sharing, completed constructions are hash-consed
// (src/labels/intern.h): extensionally equal labels built through
// LabelBuilder::Build, Lub/Glb/StarsOnly merges, or Parse share one
// canonical rep with a stable 64-bit identity (rep_id), so repeated
// recovery/derivation of the same label costs one allocation and equality
// between canonical labels is a pointer comparison.
//
// All operations update global work counters (entries visited, fast-path
// hits) that the simulator's cycle accounting consumes, and global memory
// counters that the Figure-6 memory accounting consumes.
#ifndef SRC_LABELS_LABEL_H_
#define SRC_LABELS_LABEL_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/labels/handle.h"
#include "src/labels/level.h"

namespace asbestos {

namespace internal {
struct LabelRep;

// Intrusive reference-counted pointer to a label representation.
class LabelRepRef {
 public:
  LabelRepRef() : rep_(nullptr) {}
  explicit LabelRepRef(LabelRep* rep) : rep_(rep) {}  // adopts one reference
  LabelRepRef(const LabelRepRef& other);
  LabelRepRef(LabelRepRef&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  LabelRepRef& operator=(const LabelRepRef& other);
  LabelRepRef& operator=(LabelRepRef&& other) noexcept;
  ~LabelRepRef();

  LabelRep* get() const { return rep_; }
  LabelRep* operator->() const { return rep_; }

 private:
  LabelRep* rep_;
};
}  // namespace internal

// Cumulative counters of label-algebra work, used by cycle accounting.
struct LabelWorkStats {
  uint64_t ops = 0;              // algebra operations performed
  uint64_t entries_visited = 0;  // label entries touched across all ops
  uint64_t fast_path_hits = 0;   // ops resolved by min/max caching alone
};

LabelWorkStats& GetLabelWorkStats();
void ResetLabelWorkStats();

// Label work that is observability, not kernel work (refusal forensics,
// provenance recording), must be invisible to the paper's linear work
// counters: watching an event cannot change its Figure-9 attribution.
// Restores LabelWorkStats on scope exit.
class ScopedWorkStatsShield {
 public:
  ScopedWorkStatsShield() : saved_(GetLabelWorkStats()) {}
  ~ScopedWorkStatsShield() { GetLabelWorkStats() = saved_; }

  ScopedWorkStatsShield(const ScopedWorkStatsShield&) = delete;
  ScopedWorkStatsShield& operator=(const ScopedWorkStatsShield&) = delete;

 private:
  LabelWorkStats saved_;
};

// Live label memory, maintained by rep/chunk constructors and destructors.
// Shared chunks are counted once, so this is true live heap usage.
struct LabelMemStats {
  int64_t live_bytes = 0;
  int64_t live_reps = 0;
  int64_t live_chunks = 0;
};

const LabelMemStats& GetLabelMemStats();

class LabelBuilder;

class Label {
 public:
  // Default-constructed label is {3} (top: no restriction as a bound, full
  // taint as a contamination source). Prefer the named factories below.
  Label();
  explicit Label(Level default_level);
  Label(std::initializer_list<std::pair<Handle, Level>> entries, Level default_level);

  static Label Top() { return Label(Level::kL3); }     // {3}
  static Label Bottom() { return Label(Level::kStar); }  // {⋆}
  static Label DefaultSend() { return Label(kDefaultSendLevel); }        // {1}
  static Label DefaultReceive() { return Label(kDefaultReceiveLevel); }  // {2}

  Label(const Label&) = default;
  Label(Label&&) noexcept = default;
  Label& operator=(const Label&) = default;
  Label& operator=(Label&&) noexcept = default;

  // --- Point queries -------------------------------------------------------
  Level default_level() const;
  Level Get(Handle h) const;      // L(h), falling back to the default
  bool HasExplicit(Handle h) const;
  size_t entry_count() const;  // O(1): the sum of the level histogram
  // Cached extrema over the default level and all explicit entries.
  Level min_level() const;
  Level max_level() const;
  // Histogram of explicit entries by level (O(1); maintained incrementally).
  // These power the asymmetric fast paths: operations between a huge label
  // and a small one can often be decided wholesale from the histogram plus
  // point lookups, without scanning the huge side.
  uint64_t CountEntriesAtLevel(Level l) const;
  uint64_t CountEntriesAbove(Level l) const;  // strictly above
  // Lowest level among explicit entries / among non-⋆ explicit entries;
  // Level::kL3 when there are none (harmless for ≤ comparisons).
  Level EntryMinLevel() const;
  Level EntryMaxLevel() const;  // kStar when no entries
  Level MinNonStarEntryLevel() const;

  // --- Mutation (copy-on-write; O(chunk) + O(#chunks)) ---------------------
  // Sets L(h) = l. Setting a handle to the default level removes its entry.
  // A shared rep is cloned first; a canonical rep this label alone owns is
  // withdrawn from the intern table and edited in place.
  void Set(Handle h, Level l);

  // --- Algebra -------------------------------------------------------------
  // Lub/Glb take `a` by value: a caller that moves its label in (as
  // JoinInPlace/MeetInPlace do) lets the asymmetric path edit it in place.
  bool Leq(const Label& other) const;                   // this ⊑ other
  static Label Lub(Label a, const Label& b);            // a ⊔ b
  static Label Glb(Label a, const Label& b);            // a ⊓ b
  Label StarsOnly() const;                              // L⋆
  bool Equals(const Label& other) const;                // extensional equality

  // --- Canonical identity (src/labels/intern.h) ----------------------------
  // Stable 64-bit identity of this label's current content. Equal ids imply
  // extensionally equal labels, forever: canonical (hash-consed) reps are
  // never edited while registered and share one id per content, and every
  // in-place mutation assigns a fresh id. The kernel's check cache keys on
  // these.
  uint64_t rep_id() const;
  // True when this label holds the canonical (interned) rep for its content. Two canonical labels are equal iff their ids are equal.
  bool rep_canonical() const;

  // this ← this ⊔ other / this ⊓ other, sharing representation when one
  // side already dominates. These are the kernel's contamination hot path.
  // This label is handed to Lub/Glb by move, so when it is the big side of
  // an asymmetric merge and the only owner of its rep, the merge edits that
  // rep in place (withdrawing it from the intern table first) instead of
  // cloning it. When a merge actually runs (the fast no-op paths did not
  // decide), the result is re-keyed through the intern table (Canonicalize
  // below): the kernel's receive/send labels converge to canonical reps even
  // though they mutate in place, so steady-state OKWS traffic re-presents
  // the same rep ids and the flow-check verdict cache keeps hitting.
  void JoinInPlace(const Label& other);
  void MeetInPlace(const Label& other);

  // Re-keys this label to the canonical (hash-consed) rep for its content:
  // a live extensionally-equal canonical rep is shared, otherwise this
  // label's own rep is registered as canonical. Afterwards rep_id() is the
  // stable content id every other canonical construction of this content
  // yields. The rep keeps its additive intern hash current across Set, so a
  // miss costs O(1) however large the label; a hit costs one content compare
  // that skips chunks shared with the twin. Invisible to LabelWorkStats like
  // all interning.
  void Canonicalize();

  friend bool operator==(const Label& a, const Label& b) { return a.Equals(b); }
  friend bool operator!=(const Label& a, const Label& b) { return !a.Equals(b); }

  // --- Introspection -------------------------------------------------------
  // Explicit entries in increasing handle order (never contains the default).
  std::vector<std::pair<Handle, Level>> Entries() const;

  // Lightweight in-order reader over explicit entries. Valid only while the
  // label it came from is alive and unmodified. Used by the kernel to fuse
  // multi-label checks (e.g. the full Figure-4 delivery rule) into a single
  // k-way merge without materializing intermediate labels.
  class EntryIter {
   public:
    bool done() const;
    Handle handle() const;
    Level level() const;
    void Advance();

   private:
    friend class Label;
    explicit EntryIter(const internal::LabelRep* rep);
    void SkipToValid();

    const internal::LabelRep* rep_;
    size_t chunk_ = 0;
    uint16_t index_ = 0;
  };

  EntryIter IterateEntries() const;

  // Reader over explicit entries with level ≠ ⋆, skipping all-⋆ chunks via
  // their cached extrema and stopping once it has yielded the label's non-⋆
  // count (from the level histogram), so the trailing all-⋆ chunks are never
  // crossed. A huge ⋆-rich label (netd's or idd's send label) with a handful
  // of non-⋆ entries iterates in O(#non-⋆ + #chunks up to the last one): ⋆
  // entries are below everything and can never violate a ≤-check, so most
  // kernel predicates only need the non-⋆ ones. Uncharged; callers charge the
  // linear cost themselves.
  class NonStarIter {
   public:
    bool done() const;
    Handle handle() const;
    Level level() const;
    void Advance();

   private:
    friend class Label;
    explicit NonStarIter(const internal::LabelRep* rep);
    void SkipToValid();

    const internal::LabelRep* rep_;
    uint64_t remaining_;  // non-⋆ entries not yet yielded
    size_t chunk_ = 0;
    uint16_t index_ = 0;
  };

  NonStarIter IterateNonStarEntries() const;

  // Visits explicit entries in increasing handle order.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [h, l] : Entries()) {
      fn(h, l);
    }
  }

  // Heap bytes attributable to this label (rep + chunks, shared chunks
  // counted in full). The smallest label is roughly 300 bytes (§5.6).
  uint64_t heap_bytes() const;

  // "{5 *, 9 3, 1}": entries as "<handle-decimal> <level>", then the default.
  std::string ToString() const;
  // Parses ToString()'s format. Returns false on malformed input.
  static bool Parse(std::string_view text, Label* out);

  // Checks representation invariants (sorted, deduped, no default-valued
  // entries, correct cached extrema). Test-only; panics on violation.
  void CheckRep() const;

 private:
  friend class LabelBuilder;

  explicit Label(internal::LabelRepRef rep) : rep_(std::move(rep)) {}

  internal::LabelRep* MutableRep();

  internal::LabelRepRef rep_;
};

// Bulk construction from entries already in increasing handle order — the
// unpickle fast path. Label::Set costs O(chunk) per entry (binary search,
// memmove, extrema recompute), which is why rebuilding a 4k-entry ⋆-rich
// label from storage used to crawl at ~7 MB/s; the builder accumulates
// packed entries in a flat buffer and memcpys them into chunks once, so an
// n-entry label builds in O(n).
//
// Preconditions are asserted, not reported: every Append must carry a valid
// handle strictly greater than the previous one and a level different from
// the default. Decoders of untrusted bytes (src/store/label_codec.cc)
// validate their input *before* appending; the builder panicking means a
// validation layer above it is broken, never that input was malformed.
class LabelBuilder {
 public:
  explicit LabelBuilder(Level default_level) : default_level_(default_level) {}

  void Append(Handle h, Level l);

  // Grows the internal buffer ahead of `n` further Appends.
  void Reserve(size_t n) { entries_.reserve(entries_.size() + n); }

  size_t entry_count() const { return entries_.size(); }

  // Packs the accumulated entries into a label. Resets the builder to empty
  // so it can be reused for the next label (recovery decodes thousands).
  Label Build();

 private:
  Level default_level_;
  uint64_t last_packed_ = 0;  // previous packed entry; handles compare shifted
  uint64_t level_counts_[5] = {};
  std::vector<uint64_t> entries_;  // packed (handle << 3) | level
};

}  // namespace asbestos

#endif  // SRC_LABELS_LABEL_H_
