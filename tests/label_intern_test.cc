// Hash-consed canonical labels (src/labels/intern.h): interned construction
// must be semantically invisible — every operation agrees extensionally with
// the reference pointwise semantics — while extensionally equal completed
// constructions share one canonical rep with one stable id, and mutation can
// never corrupt a canonical rep or resurrect a stale id.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "src/base/rng.h"
#include "src/labels/intern.h"
#include "src/labels/label.h"
#include "src/store/label_codec.h"

// Heap allocations made by this test binary, so a test can tell an in-place
// edit (none) from a copy-on-write clone (a rep, its chunk table, a chunk).
// The replacements pair malloc with free, which GCC cannot see through.
namespace {
uint64_t g_allocations = 0;
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace asbestos {
namespace {

// Builds a label through the interned bulk path (sorted entries).
Label BuildInterned(const std::vector<std::pair<uint64_t, Level>>& entries, Level def) {
  LabelBuilder builder(def);
  for (const auto& [h, l] : entries) {
    if (l != def) {
      builder.Append(Handle::FromValue(h), l);
    }
  }
  return builder.Build();
}

class LabelInternPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { rng_ = std::make_unique<Rng>(GetParam()); }

  Level RandomLevel() { return static_cast<Level>(rng_->NextBelow(5)); }

  // Random sorted entry list over a shared pool (overlaps are common).
  std::vector<std::pair<uint64_t, Level>> RandomEntries(uint64_t max_entries) {
    std::vector<std::pair<uint64_t, Level>> out;
    const uint64_t n = rng_->NextBelow(max_entries + 1);
    uint64_t h = 0;
    for (uint64_t i = 0; i < n; ++i) {
      h += rng_->NextInRange(1, 5);
      out.emplace_back(h, RandomLevel());
    }
    return out;
  }

  // The same label built two ways: interned bulk path and mutable Set path.
  std::pair<Label, Label> RandomLabelBothWays(uint64_t max_entries = 25) {
    const Level def = RandomLevel();
    const auto entries = RandomEntries(max_entries);
    Label by_set(def);
    for (const auto& [h, l] : entries) {
      by_set.Set(Handle::FromValue(h), l);
    }
    return {BuildInterned(entries, def), by_set};
  }

  // Random sorted entry list of up to `max_entries` handles spread over
  // [1, span], so a large label mixes with many others' chunks.
  std::vector<std::pair<uint64_t, Level>> RandomSpread(uint64_t max_entries, uint64_t span) {
    std::map<uint64_t, Level> picked;
    const uint64_t n = rng_->NextBelow(max_entries + 1);
    for (uint64_t i = 0; i < n; ++i) {
      picked[rng_->NextInRange(1, span)] = RandomLevel();
    }
    return {picked.begin(), picked.end()};
  }

  std::unique_ptr<Rng> rng_;
};

TEST_P(LabelInternPropertyTest, InternedConstructionMatchesMutableConstruction) {
  for (int t = 0; t < 80; ++t) {
    const auto [interned, by_set] = RandomLabelBothWays();
    interned.CheckRep();
    EXPECT_TRUE(interned.Equals(by_set));
    EXPECT_TRUE(interned.rep_canonical());
    for (uint64_t h = 1; h <= 130; ++h) {
      EXPECT_EQ(interned.Get(Handle::FromValue(h)), by_set.Get(Handle::FromValue(h)));
    }
  }
}

TEST_P(LabelInternPropertyTest, EqualConstructionsShareOneCanonicalRep) {
  for (int t = 0; t < 80; ++t) {
    const Level def = RandomLevel();
    const auto entries = RandomEntries(25);
    const Label a = BuildInterned(entries, def);
    const Label b = BuildInterned(entries, def);
    EXPECT_EQ(a.rep_id(), b.rep_id()) << "twin builds must hash-cons to one rep";
    EXPECT_TRUE(a.rep_canonical());
    // And an unequal build must not share.
    auto other = entries;
    other.emplace_back((other.empty() ? 0 : other.back().first) + 1,
                       def == Level::kL3 ? Level::kStar : Level::kL3);
    const Label c = BuildInterned(other, def);
    EXPECT_NE(a.rep_id(), c.rep_id());
    EXPECT_FALSE(a.Equals(c));
  }
}

TEST_P(LabelInternPropertyTest, InternedAlgebraMatchesNaivePointwise) {
  // Lub/Glb/StarsOnly/Leq over interned operands: the interned results must
  // be extensionally identical to the reference pointwise semantics, and
  // repeating the operation must return the SAME canonical rep.
  for (int t = 0; t < 60; ++t) {
    const Label a = BuildInterned(RandomEntries(20), RandomLevel());
    const Label b = BuildInterned(RandomEntries(20), RandomLevel());
    const Label join = Label::Lub(a, b);
    const Label meet = Label::Glb(a, b);
    const Label stars = a.StarsOnly();
    join.CheckRep();
    meet.CheckRep();
    stars.CheckRep();
    bool leq_pointwise = true;
    for (uint64_t h = 0; h <= 120; ++h) {
      const Handle hh = Handle::FromValue(h == 0 ? 9999 : h);
      EXPECT_EQ(join.Get(hh), LevelMax(a.Get(hh), b.Get(hh)));
      EXPECT_EQ(meet.Get(hh), LevelMin(a.Get(hh), b.Get(hh)));
      EXPECT_EQ(stars.Get(hh),
                a.Get(hh) == Level::kStar ? Level::kStar : Level::kL3);
      leq_pointwise = leq_pointwise && LevelLeq(a.Get(hh), b.Get(hh));
    }
    EXPECT_EQ(a.Leq(b), leq_pointwise && LevelLeq(a.default_level(), b.default_level()));
    // Determinism of identity: same operands, same canonical result rep.
    EXPECT_EQ(Label::Lub(a, b).rep_id(), join.rep_id());
    EXPECT_EQ(Label::Glb(a, b).rep_id(), meet.rep_id());
    EXPECT_EQ(a.StarsOnly().rep_id(), stars.rep_id());
  }
}

TEST_P(LabelInternPropertyTest, MutationUnsharesAndRekeys) {
  for (int t = 0; t < 60; ++t) {
    const Level def = RandomLevel();
    const auto entries = RandomEntries(20);
    const Label canonical = BuildInterned(entries, def);
    const uint64_t canonical_id = canonical.rep_id();
    Label mutated = canonical;
    const Level l = RandomLevel();
    const Handle h = Handle::FromValue(rng_->NextInRange(1, 100));
    mutated.Set(h, l);
    // The canonical label is immutable: the copy diverged, it did not.
    EXPECT_EQ(canonical.rep_id(), canonical_id);
    EXPECT_EQ(canonical.Get(h), BuildInterned(entries, def).Get(h));
    canonical.CheckRep();
    mutated.CheckRep();
    if (mutated.Get(h) != canonical.Get(h)) {
      EXPECT_NE(mutated.rep_id(), canonical_id);
      EXPECT_FALSE(mutated.rep_canonical());
      // Every further in-place mutation retires the previous snapshot id.
      const uint64_t before = mutated.rep_id();
      mutated.Set(h, mutated.Get(h) == Level::kL3 ? Level::kStar : Level::kL3);
      EXPECT_NE(mutated.rep_id(), before);
    }
  }
}

TEST_P(LabelInternPropertyTest, ParseAndUnpickleLandOnTheCanonicalRep) {
  for (int t = 0; t < 40; ++t) {
    const Label original = BuildInterned(RandomEntries(20), RandomLevel());
    Label parsed;
    ASSERT_TRUE(Label::Parse(original.ToString(), &parsed));
    EXPECT_EQ(parsed.rep_id(), original.rep_id()) << original.ToString();

    Label unpickled;
    ASSERT_EQ(codec::UnpickleLabel(codec::PickleLabel(original), &unpickled), Status::kOk);
    EXPECT_EQ(unpickled.rep_id(), original.rep_id());
  }
}

TEST_P(LabelInternPropertyTest, EqualsFastPathsAgreeWithEntryWalk) {
  // Shared-chunk and canonical-id shortcuts must never change the verdict.
  for (int t = 0; t < 60; ++t) {
    const auto [interned, by_set] = RandomLabelBothWays();
    EXPECT_TRUE(interned.Equals(by_set));
    EXPECT_TRUE(by_set.Equals(interned));
    // COW copy diverged in (at most) one chunk: remaining chunks stay shared.
    Label copy = by_set;
    const Handle h = Handle::FromValue(rng_->NextInRange(1, 100));
    const Level old = copy.Get(h);
    const Level changed = old == Level::kL3 ? Level::kStar : Level::kL3;
    copy.Set(h, changed);
    EXPECT_FALSE(copy.Equals(by_set));
    copy.Set(h, old);
    EXPECT_TRUE(copy.Equals(by_set));
  }
}

// The incremental intern hash: Set keeps each rep's entry-hash sum current,
// and JoinInPlace/MeetInPlace re-key through it without rehashing. After
// every step of a random walk the cached sum must match a recomputation
// (CheckRep), the content must match a reference model, and the canonical id
// must be the one a from-scratch LabelBuilder rebuild of the content gets.
TEST_P(LabelInternPropertyTest, IncrementalHashTracksRandomWalks) {
  constexpr uint64_t kSpan = 6000;
  Level def = RandomLevel();
  std::map<uint64_t, Level> model;  // reference explicit entries
  for (const auto& [h, l] : RandomSpread(5000, kSpan)) {
    if (l != def) {
      model[h] = l;
    }
  }
  Label walk = BuildInterned({model.begin(), model.end()}, def);
  for (int step = 0; step < 150; ++step) {
    const uint64_t kind = rng_->NextBelow(3);
    if (kind == 0) {
      const uint64_t h = rng_->NextInRange(1, kSpan);
      const Level l = RandomLevel();
      walk.Set(Handle::FromValue(h), l);
      if (l == def) {
        model.erase(h);
      } else {
        model[h] = l;
      }
    } else {
      // Small operands take the asymmetric Set-based merge, large ones the
      // builder merge.
      const Level other_def = RandomLevel();
      const auto other_entries = RandomSpread(rng_->NextBool() ? 20 : 2000, kSpan);
      const Label other = BuildInterned(other_entries, other_def);
      const auto pick = kind == 1 ? LevelMax : LevelMin;
      if (kind == 1) {
        walk.JoinInPlace(other);
      } else {
        walk.MeetInPlace(other);
      }
      std::map<uint64_t, Level> other_model(other_entries.begin(), other_entries.end());
      const Level next_def = pick(def, other_def);
      std::map<uint64_t, Level> next;
      auto merge_key = [&](uint64_t h) {
        const auto a = model.find(h);
        const auto b = other_model.find(h);
        const Level l = pick(a == model.end() ? def : a->second,
                             b == other_model.end() ? other_def : b->second);
        if (l != next_def) {
          next[h] = l;
        }
      };
      for (const auto& [h, l] : model) {
        merge_key(h);
      }
      for (const auto& [h, l] : other_model) {
        merge_key(h);
      }
      model = std::move(next);
      def = next_def;
    }
    walk.CheckRep();
    ASSERT_EQ(walk.default_level(), def) << "step " << step;
    std::vector<std::pair<uint64_t, Level>> flat;
    for (const auto& [h, l] : walk.Entries()) {
      flat.emplace_back(h.value(), l);
    }
    const std::vector<std::pair<uint64_t, Level>> expected(model.begin(), model.end());
    ASSERT_EQ(flat, expected) << "step " << step;
    ASSERT_EQ(walk.entry_count(), model.size());
    Label canonical = walk;
    canonical.Canonicalize();
    ASSERT_EQ(canonical.rep_id(), BuildInterned(flat, def).rep_id()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelInternPropertyTest,
                         ::testing::Values(2ULL, 11ULL, 77ULL, 4096ULL, 123456789ULL));

TEST(LabelInternTest, DedupCountersAndMemory) {
  ResetLabelInternStats();
  const LabelMemStats& mem = GetLabelMemStats();
  const LabelInternStats& stats = GetLabelInternStats();
  int64_t canonical_with_label = 0;

  {
    LabelBuilder builder(Level::kL1);
    for (uint64_t i = 1; i <= 200; ++i) {
      builder.Append(Handle::FromValue(i * 3), Level::kL3);
    }
    const Label first = builder.Build();
    EXPECT_GE(stats.misses, 1u);
    canonical_with_label = stats.live_canonical;
    const uint64_t hits_before = stats.hits;
    const int64_t live_before = mem.live_bytes;

    // 50 more builds of the same label: zero new label heap, one hit each.
    std::vector<Label> copies;
    for (int i = 0; i < 50; ++i) {
      LabelBuilder b(Level::kL1);
      for (uint64_t h = 1; h <= 200; ++h) {
        b.Append(Handle::FromValue(h * 3), Level::kL3);
      }
      copies.push_back(b.Build());
      EXPECT_EQ(copies.back().rep_id(), first.rep_id());
    }
    EXPECT_EQ(stats.hits, hits_before + 50);
    EXPECT_EQ(mem.live_bytes, live_before) << "deduped builds must not allocate";
    EXPECT_EQ(stats.bytes_saved, 50 * first.heap_bytes());
  }

  // Dropping every owner unregisters the canonical rep: interning holds
  // weak references and never pins dead labels.
  EXPECT_EQ(stats.live_canonical, canonical_with_label - 1);
}

TEST(LabelInternTest, EmptyLabelsSharePerLevelSingletons) {
  LabelBuilder builder(Level::kL2);
  const Label built = builder.Build();
  const Label direct(Level::kL2);
  EXPECT_EQ(built.rep_id(), direct.rep_id());
  EXPECT_TRUE(built.rep_canonical());
}

// The kernel's receive/send labels mutate in place on every contamination;
// routing the merged result through the intern table means equal label
// HISTORIES converge to one rep id — the key the flow-check cache needs to
// keep hitting on steady-state traffic (ROADMAP: live-path hit rate).
TEST(LabelInternTest, JoinInPlaceCanonicalizesTheMergedResult) {
  // Big ⋆-rich label (an OKWS server's send label shape) joined with a
  // small contamination label: the asymmetric merge path runs, which used
  // to leave a private rep with a fresh id per call.
  const auto big_entries = [] {
    std::vector<std::pair<uint64_t, Level>> out;
    for (uint64_t i = 1; i <= 400; ++i) {
      out.emplace_back(i * 7, Level::kStar);
    }
    return out;
  }();
  const Label contam({{Handle::FromValue(5), Level::kL3}}, Level::kStar);

  Label a = BuildInterned(big_entries, Level::kL1);
  a.JoinInPlace(contam);
  EXPECT_TRUE(a.rep_canonical());

  // An independently rebuilt history lands on the SAME canonical rep.
  Label b = BuildInterned(big_entries, Level::kL1);
  b.JoinInPlace(Label({{Handle::FromValue(5), Level::kL3}}, Level::kStar));
  EXPECT_EQ(a.rep_id(), b.rep_id());

  // And the semantics are the pointwise reference, unchanged.
  EXPECT_EQ(a.Get(Handle::FromValue(5)), Level::kL3);
  EXPECT_EQ(a.Get(Handle::FromValue(7)), Level::kStar);
  EXPECT_EQ(a.Get(Handle::FromValue(9999991)), Level::kL1);
  a.CheckRep();
}

TEST(LabelInternTest, MeetInPlaceCanonicalizesTheMergedResult) {
  const auto entries = [] {
    std::vector<std::pair<uint64_t, Level>> out;
    for (uint64_t i = 1; i <= 300; ++i) {
      out.emplace_back(i * 3, Level::kL3);
    }
    return out;
  }();
  const Label ds({{Handle::FromValue(6), Level::kL0}}, Level::kL3);
  Label a = BuildInterned(entries, Level::kL2);
  a.MeetInPlace(ds);
  EXPECT_TRUE(a.rep_canonical());
  Label b = BuildInterned(entries, Level::kL2);
  b.MeetInPlace(Label({{Handle::FromValue(6), Level::kL0}}, Level::kL3));
  EXPECT_EQ(a.rep_id(), b.rep_id());
  EXPECT_EQ(a.Get(Handle::FromValue(6)), Level::kL0);
}

TEST(LabelInternTest, CanonicalizeRegistersAPrivateRepWithoutCopying) {
  Label l(Level::kL1);
  for (uint64_t i = 1; i <= 40; ++i) {
    l.Set(Handle::FromValue(i * 11), Level::kL2);  // Set path: private rep
  }
  ASSERT_FALSE(l.rep_canonical());
  const uint64_t heap_before = GetLabelMemStats().live_bytes;
  l.Canonicalize();
  EXPECT_TRUE(l.rep_canonical());
  // No twin existed, so the rep itself was adopted: no new heap.
  EXPECT_EQ(GetLabelMemStats().live_bytes, heap_before);
  // A later equal construction now dedups onto it.
  LabelBuilder builder(Level::kL1);
  for (uint64_t i = 1; i <= 40; ++i) {
    builder.Append(Handle::FromValue(i * 11), Level::kL2);
  }
  const Label twin = builder.Build();
  EXPECT_EQ(twin.rep_id(), l.rep_id());
  // Mutating the (now canonical) label clones first — the registered rep
  // stays immutable and the mutated copy re-keys.
  Label mutated = l;
  mutated.Set(Handle::FromValue(1), Level::kL3);
  EXPECT_NE(mutated.rep_id(), l.rep_id());
  EXPECT_TRUE(l.rep_canonical());
  l.CheckRep();
  mutated.CheckRep();
}

// The intern hash is a sum over entries, so it cannot depend on how they are
// chunked: Set splits full chunks into halves, LabelBuilder packs them full.
TEST(LabelInternTest, SplitChunksAndPackedChunksCanonicalizeToOneRep) {
  std::vector<std::pair<uint64_t, Level>> entries;
  for (uint64_t i = 1; i <= 700; ++i) {
    entries.emplace_back(i * 5, i % 3 == 0 ? Level::kStar : Level::kL3);
  }
  const auto by_set = [&entries] {
    Label l(Level::kL1);
    for (const auto& [h, lv] : entries) {
      l.Set(Handle::FromValue(h), lv);  // ascending inserts split chunks 32/32
    }
    return l;
  };
  Label split = by_set();
  ASSERT_GT(split.heap_bytes(), BuildInterned(entries, Level::kL1).heap_bytes())
      << "the Set path must produce a different chunk layout for this test to mean anything";

  // Set-built first: it registers, and the packed build dedups onto it.
  split.Canonicalize();
  EXPECT_EQ(BuildInterned(entries, Level::kL1).rep_id(), split.rep_id());

  // Packed build first: the Set-built twin dedups onto it.
  const Label packed = BuildInterned(entries, Level::kL1);
  Label split_again = by_set();
  const uint64_t hits_before = GetLabelInternStats().hits;
  split_again.Canonicalize();
  EXPECT_EQ(split_again.rep_id(), packed.rep_id());
  EXPECT_EQ(GetLabelInternStats().hits, hits_before + 1);
}

// A Canonicalize hit on a COW twin: both labels diverged from one canonical
// base by the same edit, so they share every chunk but the edited one, and
// the hit must be confirmed (and a one-entry difference rejected) by the
// content walk.
TEST(LabelInternTest, CanonicalizeHitOnATwinSharingAllButOneChunk) {
  std::vector<std::pair<uint64_t, Level>> entries;
  for (uint64_t i = 1; i <= 640; ++i) {
    entries.emplace_back(i * 2, Level::kStar);
  }
  const Label base = BuildInterned(entries, Level::kL1);
  const Handle edited = Handle::FromValue(2 * 321);

  Label first = base;
  first.Set(edited, Level::kL3);
  first.Canonicalize();
  ASSERT_TRUE(first.rep_canonical());
  ASSERT_NE(first.rep_id(), base.rep_id());

  Label twin = base;
  twin.Set(edited, Level::kL3);
  ASSERT_FALSE(twin.rep_canonical());
  const uint64_t hits_before = GetLabelInternStats().hits;
  twin.Canonicalize();
  EXPECT_EQ(twin.rep_id(), first.rep_id());
  EXPECT_EQ(GetLabelInternStats().hits, hits_before + 1);

  // Same edit position, different level: shares the same chunks, is not equal.
  Label near = base;
  near.Set(edited, Level::kL2);
  near.Canonicalize();
  EXPECT_NE(near.rep_id(), first.rep_id());
  EXPECT_FALSE(near.Equals(first));
  first.CheckRep();
  near.CheckRep();
}

// A canonical rep whose only owner edits it leaves the intern table first
// and is edited in place: no clone, one fewer live canonical rep, and a fresh
// id, so the old id keeps naming only the old content.
std::vector<std::pair<uint64_t, Level>> StarRun(uint64_t n) {
  std::vector<std::pair<uint64_t, Level>> out;
  for (uint64_t i = 1; i <= n; ++i) {
    out.emplace_back(i * 4, Level::kStar);
  }
  return out;
}

TEST(LabelInternTest, SetOnASoleOwnedCanonicalLabelEditsItInPlace) {
  const auto entries = StarRun(300);
  const Handle h = Handle::FromValue(4 * 150);
  Label l = BuildInterned(entries, Level::kL1);
  ASSERT_TRUE(l.rep_canonical());
  const uint64_t old_id = l.rep_id();
  const int64_t live_canonical = GetLabelInternStats().live_canonical;

  const uint64_t allocations = g_allocations;
  l.Set(h, Level::kL3);  // overwrites an existing entry
  EXPECT_EQ(g_allocations, allocations) << "a sole-owned rep must not be cloned";

  EXPECT_FALSE(l.rep_canonical());
  EXPECT_NE(l.rep_id(), old_id);
  EXPECT_EQ(GetLabelInternStats().live_canonical, live_canonical - 1);
  EXPECT_EQ(l.Get(h), Level::kL3);
  l.CheckRep();
}

TEST(LabelInternTest, RebuildingTheOldContentDoesNotFindTheEditedRep) {
  const auto entries = StarRun(300);
  const Handle h = Handle::FromValue(4 * 150);
  Label edited = BuildInterned(entries, Level::kL1);
  const uint64_t old_id = edited.rep_id();
  edited.Set(h, Level::kL3);

  const uint64_t misses = GetLabelInternStats().misses;
  const Label rebuilt = BuildInterned(entries, Level::kL1);
  EXPECT_EQ(GetLabelInternStats().misses, misses + 1) << "the table must not hold the edited rep";
  EXPECT_TRUE(rebuilt.rep_canonical());
  EXPECT_NE(rebuilt.rep_id(), edited.rep_id());
  EXPECT_NE(rebuilt.rep_id(), old_id) << "ids are never reused";
  EXPECT_EQ(rebuilt.Get(h), Level::kStar);
  EXPECT_EQ(edited.Get(h), Level::kL3);
  EXPECT_FALSE(rebuilt.Equals(edited));

  // The edited content re-keys to a canonical rep of its own.
  edited.Canonicalize();
  auto edited_entries = entries;
  edited_entries[149].second = Level::kL3;
  EXPECT_EQ(BuildInterned(edited_entries, Level::kL1).rep_id(), edited.rep_id());
}

TEST(LabelInternTest, ACanonicalRepSharedByTwoLabelsStillClones) {
  const Handle h = Handle::FromValue(4 * 150);
  const Label keeper = BuildInterned(StarRun(300), Level::kL1);
  const uint64_t keeper_id = keeper.rep_id();
  Label editor = keeper;
  const int64_t live_canonical = GetLabelInternStats().live_canonical;

  const uint64_t allocations = g_allocations;
  editor.Set(h, Level::kL3);
  EXPECT_GT(g_allocations, allocations) << "a shared rep must be cloned";

  EXPECT_TRUE(keeper.rep_canonical());
  EXPECT_EQ(keeper.rep_id(), keeper_id);
  EXPECT_EQ(keeper.Get(h), Level::kStar);
  EXPECT_EQ(GetLabelInternStats().live_canonical, live_canonical);
  EXPECT_NE(editor.rep_id(), keeper_id);
  EXPECT_EQ(editor.Get(h), Level::kL3);
  keeper.CheckRep();
  editor.CheckRep();
}

TEST(LabelInternTest, DefaultSingletonsAreNeverWithdrawn) {
  for (int d = 0; d < 5; ++d) {
    const Level def = static_cast<Level>(d);
    const uint64_t singleton_id = Label(def).rep_id();
    const int64_t live_canonical = GetLabelInternStats().live_canonical;
    Label edited = LabelBuilder(def).Build();  // the singleton, via the builder
    ASSERT_EQ(edited.rep_id(), singleton_id);
    edited.Set(Handle::FromValue(9), def == Level::kL3 ? Level::kStar : Level::kL3);
    EXPECT_NE(edited.rep_id(), singleton_id);
    EXPECT_EQ(GetLabelInternStats().live_canonical, live_canonical);

    const Label fresh(def);
    EXPECT_EQ(fresh.rep_id(), singleton_id);
    EXPECT_TRUE(fresh.rep_canonical());
    EXPECT_EQ(fresh.entry_count(), 0u);
  }
}

// MeetInPlace hands its sole-owned canonical rep to the asymmetric merge,
// which edits it in place; the result re-keys like any merge result.
TEST(LabelInternTest, MeetInPlaceEditsASoleOwnedBigLabelInPlace) {
  const Handle lowered = Handle::FromValue(4 * 7 + 1);  // not in the run: 2 ⊓ 0
  Label big = BuildInterned(StarRun(300), Level::kL2);
  const uint64_t old_id = big.rep_id();
  const int64_t live_canonical = GetLabelInternStats().live_canonical;
  const Label ds({{lowered, Level::kL0}, {Handle::FromValue(4 * 9), Level::kL1}}, Level::kL3);
  const int64_t live_reps = GetLabelMemStats().live_reps;
  big.MeetInPlace(ds);
  EXPECT_EQ(GetLabelMemStats().live_reps, live_reps);
  EXPECT_EQ(GetLabelInternStats().live_canonical, live_canonical) << "withdrawn, then re-keyed";
  EXPECT_TRUE(big.rep_canonical());
  EXPECT_NE(big.rep_id(), old_id);
  EXPECT_EQ(big.Get(lowered), Level::kL0);
  EXPECT_EQ(big.Get(Handle::FromValue(4 * 9)), Level::kStar);  // ⋆ ⊓ 1
  EXPECT_EQ(big.Get(Handle::FromValue(2)), Level::kL2);
  big.CheckRep();
}

}  // namespace
}  // namespace asbestos
