// Hash-consing of label representations (the canonical-rep layer).
//
// The paper makes labels ref-counted, copy-on-write, and immutable (§5.6) so
// entities can share label memory; this layer takes the next step and makes
// extensionally equal labels share ONE canonical rep. Every construction
// that finishes a label from sorted entries (LabelBuilder::Build — and
// through it codec::ReadLabel — plus the merge paths of Lub/Glb/StarsOnly
// and Label::Parse) probes a global structural-hash table before allocating:
// on a hit the existing canonical rep is shared, on a miss the fresh rep is
// registered as canonical. Store recovery of N records carrying the same
// label therefore allocates one rep, and the kernel can treat label identity
// as a pointer comparison. Label::Canonicalize re-keys a label that was
// mutated in place (the kernel's JoinInPlace/MeetInPlace): the rep carries
// its additive entry hash (InternLabelHash below), so a miss — the common
// case for the O(users)-entry labels of netd and the demux — registers the
// rep in place in O(1), and only a hit pays a content compare.
//
// Identity contract (what the kernel's check cache relies on):
//   * every rep carries a 64-bit id, unique since process start;
//   * an id value refers to exactly one extensional label content, forever:
//     a rep is never edited while it sits in the table, and every in-place
//     mutation gives the rep a FRESH id — so a (rep id → anything derived
//     from its content) cache never needs invalidation, only capacity
//     eviction;
//   * a canonical rep shared by several labels is cloned before one of them
//     edits it (copy-on-write); a canonical rep with a single owner leaves
//     the table first (InternErase, O(1) through its cached hash) and is
//     then edited in place, so the table never holds a mutated rep. The
//     per-level default singletons are never withdrawn: their cache holds a
//     reference of its own, so they are always shared;
//   * two simultaneously-live canonical reps are structurally distinct,
//     which makes canonical-vs-canonical equality a pointer/id comparison.
//
// The table holds weak references: a canonical rep unregisters itself when
// its last owner drops it, so interning never pins dead labels. Table index
// overhead is accounted separately (KernelMemReport) from the label heap the
// reps themselves occupy (LabelMemStats).
//
// Cost accounting: the intern machinery itself (hashing, probing, table
// upkeep) is invisible to the work counters (LabelWorkStats) — it is an
// implementation artifact the paper's linear cost model must not see. Note
// one deliberate interaction: the label algebra's pre-existing
// pointer-identity fast paths (Lub/Glb/Leq on `a == b`, sanctioned by §5.6's
// "entities share label memory, so common comparisons are O(1)") fire more
// often once equal constructions share a rep, and charge as the fast-path
// hits they always were. The *check cache* (src/kernel/label_checks.h) makes
// the stronger guarantee: cached-vs-uncached charged cycles are
// bit-identical, because hits replay the recorded uncached cost.
#ifndef SRC_LABELS_INTERN_H_
#define SRC_LABELS_INTERN_H_

#include <cstddef>
#include <cstdint>

#include "src/base/hash.h"

namespace asbestos {

// Cumulative interning counters. `hits` are constructions that reused a live
// canonical rep instead of allocating (`bytes_saved` sums the rep + chunk
// heap they avoided); `misses` registered a new canonical rep.
struct LabelInternStats {
  uint64_t probes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bytes_saved = 0;
  int64_t live_canonical = 0;  // reps currently registered in the table
};

const LabelInternStats& GetLabelInternStats();
// Zeroes the counters; live_canonical tracks live state and is preserved.
void ResetLabelInternStats();

namespace internal {

struct LabelRep;  // defined in label.cc

// Monotonic rep-id source (never reuses a value; 0 is never issued).
uint64_t InternNextRepId();

// The structural hash the intern table buckets on is additive over entries:
//
//   InternLabelHash(default, Σ InternEntryHash(packed_entry))
//
// where Σ is a wrapping 64-bit sum. Each rep keeps the entry sum up to date
// (one subtraction and/or addition per Label::Set edit), so re-keying a label
// after an in-place merge costs O(1) instead of a rehash of every entry. A
// sum does not depend on how entries are split into chunks, so the same
// content built by Set (split chunks) and by LabelBuilder (packed chunks)
// hashes alike. Collisions are harmless: every bucket hit is confirmed by a
// full content compare.
inline uint64_t InternEntryHash(uint64_t packed_entry) {
  return HashMix64(kFnv1aOffsetBasis, packed_entry);
}
inline uint64_t InternLabelHash(uint8_t default_ordinal, uint64_t entry_hash_sum) {
  return HashMix64(HashMix64(kFnv1aOffsetBasis, default_ordinal), entry_hash_sum);
}

// Probes the table bucket for `hash`, calling `match` on each candidate
// until it returns true. Returns the matching canonical rep (caller must
// take its own reference) or nullptr. Counts a probe; the caller reports the
// outcome via InternNoteDedup (hit) or InternInsert (miss).
using InternMatchFn = bool (*)(const LabelRep* candidate, const void* ctx);
LabelRep* InternLookup(uint64_t hash, InternMatchFn match, const void* ctx);

// Registers `rep` as the canonical rep for `hash` (a miss).
void InternInsert(uint64_t hash, LabelRep* rep);
// Unregisters a canonical rep (from the rep's free path, and before its sole
// owner edits it in place).
void InternErase(uint64_t hash, const LabelRep* rep);
// Records a dedup hit and the heap bytes it avoided allocating.
void InternNoteDedup(uint64_t bytes_saved);

}  // namespace internal
}  // namespace asbestos

#endif  // SRC_LABELS_INTERN_H_
