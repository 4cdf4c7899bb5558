// Property tests for the label lattice (paper §5.1): labels under ⊑ form a
// lattice with ⊔ as least upper bound and ⊓ as greatest lower bound. Each
// property is checked over randomized labels drawn from a shared handle pool
// (so labels overlap), across several seeds via TEST_P.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/base/rng.h"
#include "src/labels/label.h"

namespace asbestos {
namespace {

constexpr int kTrialsPerSeed = 60;

class LabelPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { rng_ = std::make_unique<Rng>(GetParam()); }

  Level RandomLevel() { return static_cast<Level>(rng_->NextBelow(5)); }

  Handle RandomPoolHandle() {
    // Small pool: distinct labels frequently mention the same handles.
    return Handle::FromValue(rng_->NextInRange(1, 40));
  }

  Label RandomLabel() {
    Label l(RandomLevel());
    const uint64_t n = rng_->NextBelow(25);
    for (uint64_t i = 0; i < n; ++i) {
      l.Set(RandomPoolHandle(), RandomLevel());
    }
    l.CheckRep();
    return l;
  }

  std::unique_ptr<Rng> rng_;
};

TEST_P(LabelPropertyTest, LeqReflexive) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    EXPECT_TRUE(a.Leq(a));
  }
}

TEST_P(LabelPropertyTest, LeqAntisymmetric) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    if (a.Leq(b) && b.Leq(a)) {
      EXPECT_TRUE(a.Equals(b));
    }
  }
}

TEST_P(LabelPropertyTest, LeqTransitive) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label c = RandomLabel();
    if (a.Leq(b) && b.Leq(c)) {
      EXPECT_TRUE(a.Leq(c));
    }
  }
}

TEST_P(LabelPropertyTest, LeqAgreesWithPointwiseGet) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    bool pointwise = LevelLeq(a.default_level(), b.default_level());
    for (uint64_t h = 1; h <= 40 && pointwise; ++h) {
      pointwise = LevelLeq(a.Get(Handle::FromValue(h)), b.Get(Handle::FromValue(h)));
    }
    EXPECT_EQ(a.Leq(b), pointwise);
  }
}

TEST_P(LabelPropertyTest, LubIsUpperBound) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label j = Label::Lub(a, b);
    EXPECT_TRUE(a.Leq(j));
    EXPECT_TRUE(b.Leq(j));
    j.CheckRep();
  }
}

TEST_P(LabelPropertyTest, LubIsLeastUpperBound) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label c = RandomLabel();
    if (a.Leq(c) && b.Leq(c)) {
      EXPECT_TRUE(Label::Lub(a, b).Leq(c));
    }
  }
}

TEST_P(LabelPropertyTest, GlbIsLowerBound) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label m = Label::Glb(a, b);
    EXPECT_TRUE(m.Leq(a));
    EXPECT_TRUE(m.Leq(b));
    m.CheckRep();
  }
}

TEST_P(LabelPropertyTest, GlbIsGreatestLowerBound) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label c = RandomLabel();
    if (c.Leq(a) && c.Leq(b)) {
      EXPECT_TRUE(c.Leq(Label::Glb(a, b)));
    }
  }
}

TEST_P(LabelPropertyTest, LubGlbPointwise) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label j = Label::Lub(a, b);
    const Label m = Label::Glb(a, b);
    for (uint64_t h = 0; h <= 41; ++h) {
      const Handle hh = Handle::FromValue(h == 0 ? 9999 : h);  // include a non-pool handle
      EXPECT_EQ(j.Get(hh), LevelMax(a.Get(hh), b.Get(hh)));
      EXPECT_EQ(m.Get(hh), LevelMin(a.Get(hh), b.Get(hh)));
    }
  }
}

TEST_P(LabelPropertyTest, LatticeAlgebraLaws) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label c = RandomLabel();
    // Commutativity.
    EXPECT_TRUE(Label::Lub(a, b).Equals(Label::Lub(b, a)));
    EXPECT_TRUE(Label::Glb(a, b).Equals(Label::Glb(b, a)));
    // Associativity.
    EXPECT_TRUE(Label::Lub(Label::Lub(a, b), c).Equals(Label::Lub(a, Label::Lub(b, c))));
    EXPECT_TRUE(Label::Glb(Label::Glb(a, b), c).Equals(Label::Glb(a, Label::Glb(b, c))));
    // Idempotence.
    EXPECT_TRUE(Label::Lub(a, a).Equals(a));
    EXPECT_TRUE(Label::Glb(a, a).Equals(a));
    // Absorption.
    EXPECT_TRUE(Label::Lub(a, Label::Glb(a, b)).Equals(a));
    EXPECT_TRUE(Label::Glb(a, Label::Lub(a, b)).Equals(a));
  }
}

TEST_P(LabelPropertyTest, LeqIffLubEqualsUpper) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    EXPECT_EQ(a.Leq(b), Label::Lub(a, b).Equals(b));
    EXPECT_EQ(a.Leq(b), Label::Glb(a, b).Equals(a));
  }
}

TEST_P(LabelPropertyTest, StarsOnlyDefinition) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label s = a.StarsOnly();
    for (uint64_t h = 1; h <= 41; ++h) {
      const Handle hh = Handle::FromValue(h);
      const Level expected = a.Get(hh) == Level::kStar ? Level::kStar : Level::kL3;
      EXPECT_EQ(s.Get(hh), expected);
    }
    s.CheckRep();
  }
}

TEST_P(LabelPropertyTest, ContaminationPreservesStars) {
  // QS ← QS ⊔ (ES ⊓ QS⋆) never removes a ⋆ from QS (paper Eq. 5).
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    Label qs = RandomLabel();
    const Label es = RandomLabel();
    const Label before = qs;
    Label contam = Label::Glb(es, qs.StarsOnly());
    qs.JoinInPlace(contam);
    for (uint64_t h = 1; h <= 41; ++h) {
      const Handle hh = Handle::FromValue(h);
      if (before.Get(hh) == Level::kStar) {
        EXPECT_EQ(qs.Get(hh), Level::kStar);
      } else {
        EXPECT_EQ(qs.Get(hh), LevelMax(before.Get(hh), es.Get(hh)));
      }
    }
  }
}

TEST_P(LabelPropertyTest, ParseToStringRoundTrip) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    Label parsed;
    ASSERT_TRUE(Label::Parse(a.ToString(), &parsed)) << a.ToString();
    EXPECT_TRUE(parsed.Equals(a));
  }
}

TEST_P(LabelPropertyTest, InPlaceMatchesFunctional) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    Label join_in_place = a;
    join_in_place.JoinInPlace(b);
    EXPECT_TRUE(join_in_place.Equals(Label::Lub(a, b)));
    Label meet_in_place = a;
    meet_in_place.MeetInPlace(b);
    EXPECT_TRUE(meet_in_place.Equals(Label::Glb(a, b)));
  }
}

TEST_P(LabelPropertyTest, LargeLabelStress) {
  // Wide labels with interleaved inserts and removals keep their invariants.
  Label l(Level::kL1);
  Rng& rng = *rng_;
  for (int i = 0; i < 3000; ++i) {
    const Handle h = Handle::FromValue(rng.NextInRange(1, 700));
    l.Set(h, static_cast<Level>(rng.NextBelow(5)));
  }
  l.CheckRep();
  const Label copy = l;
  for (int i = 0; i < 500; ++i) {
    l.Set(Handle::FromValue(rng.NextInRange(1, 700)), Level::kL1);  // removals
  }
  l.CheckRep();
  copy.CheckRep();  // the shared-then-unshared copy must be unaffected
}

// ⋆-sparse merges. A huge ⋆-rich label with a few non-⋆ entries (the demux's
// send label at login) meets small labels of every default over overlapping
// handles. Every operation must match a std::map reference model, and where
// the linear merge decides it, charge exactly what that merge charges: one
// visit per handle in the union of the two entry sets, or, for a failing ⊑,
// one per union handle up to and including the first violation. The host may
// take a ⋆-sparse path; the charged clock must not be able to tell.
struct ModelLabel {
  Level def = Level::kL3;
  std::map<uint64_t, Level> entries;

  Level Get(uint64_t h) const {
    const auto it = entries.find(h);
    return it == entries.end() ? def : it->second;
  }
};

ModelLabel ModelOf(const Label& l) {
  ModelLabel m;
  m.def = l.default_level();
  for (const auto& [h, lv] : l.Entries()) {
    m.entries[h.value()] = lv;
  }
  return m;
}

std::vector<uint64_t> UnionHandles(const ModelLabel& a, const ModelLabel& b) {
  std::map<uint64_t, bool> all;
  for (const auto& [h, l] : a.entries) {
    all[h] = true;
  }
  for (const auto& [h, l] : b.entries) {
    all[h] = true;
  }
  std::vector<uint64_t> out;
  for (const auto& [h, unused] : all) {
    out.push_back(h);
  }
  return out;
}

ModelLabel ModelMerge(const ModelLabel& a, const ModelLabel& b, Level (*pick)(Level, Level)) {
  ModelLabel out;
  out.def = pick(a.def, b.def);
  for (const uint64_t h : UnionHandles(a, b)) {
    const Level l = pick(a.Get(h), b.Get(h));
    if (l != out.def) {
      out.entries[h] = l;
    }
  }
  return out;
}

// The linear ⊑ walk's charge: the union rank of the first violating handle,
// or the whole union when there is none. (Only meaningful once the default
// check passed: the walk never starts otherwise.)
uint64_t LinearLeqCharge(const ModelLabel& a, const ModelLabel& b) {
  const std::vector<uint64_t> handles = UnionHandles(a, b);
  for (size_t i = 0; i < handles.size(); ++i) {
    if (!LevelLeq(a.Get(handles[i]), b.Get(handles[i]))) {
      return i + 1;
    }
  }
  return handles.size();
}

bool ModelLeq(const ModelLabel& a, const ModelLabel& b) {
  if (!LevelLeq(a.def, b.def)) {
    return false;
  }
  for (const uint64_t h : UnionHandles(a, b)) {
    if (!LevelLeq(a.Get(h), b.Get(h))) {
      return false;
    }
  }
  return true;
}

void ExpectMatchesModel(const Label& l, const ModelLabel& m) {
  l.CheckRep();
  EXPECT_EQ(l.default_level(), m.def);
  EXPECT_EQ(ModelOf(l).entries, m.entries);
}

template <typename Fn>
LabelWorkStats WorkOf(Fn&& fn) {
  const LabelWorkStats before = GetLabelWorkStats();
  fn();
  const LabelWorkStats& after = GetLabelWorkStats();
  LabelWorkStats delta;
  delta.ops = after.ops - before.ops;
  delta.entries_visited = after.entries_visited - before.entries_visited;
  delta.fast_path_hits = after.fast_path_hits - before.fast_path_hits;
  return delta;
}

void ExpectSameWork(const LabelWorkStats& got, const LabelWorkStats& want) {
  EXPECT_EQ(got.ops, want.ops);
  EXPECT_EQ(got.entries_visited, want.entries_visited);
  EXPECT_EQ(got.fast_path_hits, want.fast_path_hits);
}

// ⊔ and ⊓ return one operand, uncharged, when the cached extrema show it
// dominates the other everywhere.
bool ExtremaDecide(const Label& a, const Label& b) {
  return LevelLeq(a.max_level(), b.min_level()) || LevelLeq(b.max_level(), a.min_level());
}

// One linear-merge operation: one op, no fast-path hit, `visits` entries.
LabelWorkStats LinearWork(uint64_t visits) {
  LabelWorkStats w;
  w.ops = 1;
  w.entries_visited = visits;
  return w;
}

class SparseMergeTest : public LabelPropertyTest {
 protected:
  static constexpr uint64_t kSpan = 4000;

  // 300–700 ⋆ entries plus 0–6 non-⋆ ones, built as a sole-owned canonical
  // label; the default is usually the send default.
  ModelLabel RandomStarRich() {
    ModelLabel m;
    m.def = rng_->NextBool() ? kDefaultSendLevel : RandomLevel();
    if (m.def == Level::kStar) {
      m.def = Level::kL1;
    }
    const uint64_t n = rng_->NextInRange(300, 700);
    while (m.entries.size() < n) {
      m.entries[rng_->NextInRange(1, kSpan)] = Level::kStar;
    }
    const uint64_t non_star = rng_->NextBelow(7);
    for (uint64_t i = 0; i < non_star; ++i) {
      auto it = m.entries.lower_bound(rng_->NextInRange(1, kSpan));
      if (it == m.entries.end()) {
        it = m.entries.begin();
      }
      const Level l = static_cast<Level>(rng_->NextInRange(1, 4));
      if (l == m.def) {
        m.entries.erase(it);
      } else {
        it->second = l;
      }
    }
    return m;
  }

  // Up to 24 entries with default `def`: some on the big side's handles (⋆
  // and non-⋆ alike), some elsewhere. Half the time the small side names
  // every big entry above its default at level 3, so big ⊑ small can hold.
  ModelLabel RandomSmall(Level def, const ModelLabel& big) {
    ModelLabel m;
    m.def = def;
    std::vector<uint64_t> big_handles;
    std::vector<uint64_t> big_high;
    for (const auto& [h, l] : big.entries) {
      big_handles.push_back(h);
      if (!LevelLeq(l, def)) {
        big_high.push_back(h);
      }
    }
    const uint64_t n = rng_->NextBelow(17);
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t h = rng_->NextBool() ? big_handles[rng_->NextBelow(big_handles.size())]
                                          : rng_->NextInRange(1, kSpan + 50);
      m.entries[h] = RandomLevel();
    }
    if (rng_->NextBool()) {
      for (const uint64_t h : big_high) {
        m.entries[h] = Level::kL3;
      }
    }
    for (auto it = m.entries.begin(); it != m.entries.end();) {
      it = it->second == def ? m.entries.erase(it) : std::next(it);
    }
    return m;
  }

  static Label Build(const ModelLabel& m) {
    LabelBuilder builder(m.def);
    for (const auto& [h, l] : m.entries) {
      builder.Append(Handle::FromValue(h), l);
    }
    return builder.Build();
  }
};

TEST_P(SparseMergeTest, MergesMatchModelAndChargeTheLinearMerge) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const ModelLabel mb = RandomStarRich();
    const Label big = Build(mb);
    for (int d = 0; d < 5; ++d) {
      const Level small_def = static_cast<Level>(d);
      const ModelLabel ms = RandomSmall(small_def, mb);
      const Label small = Build(ms);
      ASSERT_LE(small.entry_count(), 24u);
      ASSERT_GE(big.entry_count(), 8 * (small.entry_count() + 8));
      const uint64_t union_count = UnionHandles(mb, ms).size();

      // ⊔, both operand orders. The big side is ⋆-rich, so only a ⋆ default
      // on the small side lets the asymmetric fold (charged as a scan)
      // decide it; past the extrema check, every other default is the
      // linear merge's.
      const ModelLabel want_lub = ModelMerge(mb, ms, LevelMax);
      for (const bool big_first : {true, false}) {
        Label got;
        const LabelWorkStats work = WorkOf(
            [&] { got = big_first ? Label::Lub(big, small) : Label::Lub(small, big); });
        ExpectMatchesModel(got, want_lub);
        if (small_def != Level::kStar && !ExtremaDecide(big, small)) {
          ExpectSameWork(work, LinearWork(union_count));
        }
      }

      // ⊓: the asymmetric fold decides it when the big side sits wholly at
      // or below the small default.
      const ModelLabel want_glb = ModelMerge(mb, ms, LevelMin);
      for (const bool big_first : {true, false}) {
        Label got;
        const LabelWorkStats work = WorkOf(
            [&] { got = big_first ? Label::Glb(big, small) : Label::Glb(small, big); });
        ExpectMatchesModel(got, want_glb);
        if (!LevelLeq(big.max_level(), small_def) && !ExtremaDecide(big, small)) {
          ExpectSameWork(work, LinearWork(union_count));
        }
      }

      // big ⊑ small, both outcomes. The min/max fast path, the default check
      // and the wholesale asymmetric path (no big entry above the small
      // default) keep their own charges.
      {
        bool got = false;
        const LabelWorkStats work = WorkOf([&] { got = big.Leq(small); });
        EXPECT_EQ(got, ModelLeq(mb, ms));
        if (!LevelLeq(big.max_level(), small.min_level()) && LevelLeq(mb.def, small_def) &&
            !LevelLeq(big.EntryMaxLevel(), small_def)) {
          ExpectSameWork(work, LinearWork(LinearLeqCharge(mb, ms)));
        }
      }
      // small ⊑ big: the linear walk unless a ⋆ small default lets the
      // asymmetric point checks decide.
      {
        bool got = false;
        const LabelWorkStats work = WorkOf([&] { got = small.Leq(big); });
        EXPECT_EQ(got, ModelLeq(ms, mb));
        if (small_def != Level::kStar && LevelLeq(small_def, mb.def)) {
          ExpectSameWork(work, LinearWork(LinearLeqCharge(ms, mb)));
        }
      }
    }
  }
}

// JoinInPlace/MeetInPlace on a sole-owned canonical label merge in place
// where the functional forms clone; the charge must be the functional one
// (the containment test, then the merge it did not rule out) to the visit.
TEST_P(SparseMergeTest, InPlaceMergesChargeLikeTheFunctionalForms) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const ModelLabel mb = RandomStarRich();
    const ModelLabel ms = RandomSmall(RandomLevel(), mb);
    const bool big_receives = rng_->NextBool();
    const ModelLabel& mx = big_receives ? mb : ms;
    const ModelLabel& my = big_receives ? ms : mb;
    const Label y = Build(my);

    LabelWorkStats want_join;
    LabelWorkStats want_meet;
    {
      const Label x = Build(mx);
      want_join = WorkOf([&] {
        if (!y.Leq(x)) {
          Label::Lub(x, y);
        }
      });
      want_meet = WorkOf([&] {
        if (!x.Leq(y)) {
          Label::Glb(x, y);
        }
      });
    }

    Label join = Build(mx);
    ExpectSameWork(WorkOf([&] { join.JoinInPlace(y); }), want_join);
    ExpectMatchesModel(join, ModelMerge(mx, my, LevelMax));

    Label meet = Build(mx);
    ExpectSameWork(WorkOf([&] { meet.MeetInPlace(y); }), want_meet);
    ExpectMatchesModel(meet, ModelMerge(mx, my, LevelMin));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseMergeTest,
                         ::testing::Values(3ULL, 19ULL, 2024ULL, 65537ULL));

INSTANTIATE_TEST_SUITE_P(Seeds, LabelPropertyTest,
                         ::testing::Values(1ULL, 7ULL, 42ULL, 1234ULL, 987654321ULL));

}  // namespace
}  // namespace asbestos
