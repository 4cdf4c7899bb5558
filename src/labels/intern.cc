#include "src/labels/intern.h"

#include <unordered_map>
#include <vector>

#include "src/base/panic.h"
#include "src/obs/metrics.h"

namespace asbestos {

namespace {

LabelInternStats g_intern;

// hash → live canonical reps with that structural hash (collision chain;
// almost always a single element). Weak pointers: reps unregister on free.
using InternTable = std::unordered_map<uint64_t, std::vector<internal::LabelRep*>>;

InternTable& Table() {
  static InternTable* table = new InternTable();  // never destroyed: reps may
  return *table;                                  // outlive static teardown
}

}  // namespace

const LabelInternStats& GetLabelInternStats() { return g_intern; }

namespace {
// Metrics-plane window onto the live intern stats (the struct stays the
// storage of record; see src/obs/metrics.h).
[[maybe_unused]] const uint64_t g_intern_gauges =
    obs::Registry::Get().RegisterGauges([](obs::GaugeSink& sink) {
      sink.Set("labels.intern.probes", g_intern.probes);
      sink.Set("labels.intern.hits", g_intern.hits);
      sink.Set("labels.intern.misses", g_intern.misses);
      sink.Set("labels.intern.bytes_saved", g_intern.bytes_saved);
      sink.Set("labels.intern.live_canonical", g_intern.live_canonical);
    });
}  // namespace

void ResetLabelInternStats() {
  const int64_t live = g_intern.live_canonical;
  g_intern = LabelInternStats();
  g_intern.live_canonical = live;
}

namespace internal {

uint64_t InternNextRepId() {
  static uint64_t next = 0;
  return ++next;
}

LabelRep* InternLookup(uint64_t hash, InternMatchFn match, const void* ctx) {
  g_intern.probes += 1;
  auto it = Table().find(hash);
  if (it == Table().end()) {
    return nullptr;
  }
  for (LabelRep* rep : it->second) {
    if (match(rep, ctx)) {
      return rep;
    }
  }
  return nullptr;
}

void InternInsert(uint64_t hash, LabelRep* rep) {
  Table()[hash].push_back(rep);
  g_intern.misses += 1;
  g_intern.live_canonical += 1;
}

void InternErase(uint64_t hash, const LabelRep* rep) {
  auto it = Table().find(hash);
  ASB_ASSERT(it != Table().end() && "canonical rep missing from intern table");
  std::vector<LabelRep*>& chain = it->second;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i] == rep) {
      chain[i] = chain.back();
      chain.pop_back();
      if (chain.empty()) {
        Table().erase(it);
      }
      g_intern.live_canonical -= 1;
      return;
    }
  }
  ASB_PANIC("canonical rep missing from its intern bucket");
}

void InternNoteDedup(uint64_t bytes_saved) {
  g_intern.hits += 1;
  g_intern.bytes_saved += bytes_saved;
}

}  // namespace internal
}  // namespace asbestos
