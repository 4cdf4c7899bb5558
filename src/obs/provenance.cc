#include "src/obs/provenance.h"

#include "src/kernel/label_checks.h"
#include "src/obs/metrics.h"
#include "src/sim/cycles.h"

namespace asbestos {
namespace obs {

namespace {

// Every explicitly-mentioned handle to level 3, default at least
// `default_floor`. Knowing that an event touched compartment h is as secret
// as h-data itself, regardless of the LEVEL the event moved (a ⋆ grant is
// the extreme case: the cause label says ⋆, the knowledge is worth 3).
Label ExposureGate(const Label& l, Level default_floor) {
  LabelBuilder b(LevelMax(l.default_level() == Level::kL3 ? Level::kL1
                                                          : l.default_level(),
                          default_floor));
  for (auto it = l.IterateEntries(); !it.done(); it.Advance()) {
    b.Append(it.handle(), Level::kL3);
  }
  return b.Build();
}

}  // namespace

const char* EdgeKindName(EdgeKind k) {
  switch (k) {
    case EdgeKind::kOrigin:
      return "origin";
    case EdgeKind::kContaminate:
      return "contaminate";
    case EdgeKind::kGrant:
      return "grant";
    case EdgeKind::kDeclassify:
      return "declassify";
    case EdgeKind::kAdopt:
      return "adopt";
  }
  return "?";
}

Label GateFromPrivilege(const Label& privilege) {
  ScopedWorkStatsShield shield;
  return ExposureGate(privilege, Level::kL1);
}

bool ProvenanceLedger::enabled_ = false;

ProvenanceLedger& ProvenanceLedger::Get() {
  static ProvenanceLedger* ledger = new ProvenanceLedger();
  return *ledger;
}

void ProvenanceLedger::NoteGate(uint64_t trace_id, const Label& gate) {
  if (trace_id == 0) {
    return;
  }
  auto it = cumulative_.find(trace_id);
  if (it == cumulative_.end()) {
    cumulative_.emplace(trace_id, gate);
  } else {
    it->second = Label::Lub(it->second, gate);
  }
}

void ProvenanceLedger::RecordEdge(EdgeKind kind, const std::string& subject,
                                  const std::string& source, uint64_t pre_rep,
                                  uint64_t post_rep, const Label& cause,
                                  uint64_t trace_id, const Label* gate) {
  if (!enabled_) {
    return;
  }
  ScopedWorkStatsShield shield;
  TaintEdge e;
  e.id = next_edge_id_++;
  e.kind = kind;
  e.at_cycles = GetCycleAccounting().now();
  e.trace_id = trace_id;
  e.subject = subject;
  e.source = source;
  e.pre_rep = pre_rep;
  e.post_rep = post_rep;
  e.cause_rep = cause.rep_id();
  e.cause = cause;
  if (gate != nullptr) {
    e.gate = *gate;
  } else if (kind == EdgeKind::kContaminate || kind == EdgeKind::kAdopt) {
    // The taint itself is the secret: the edge is as visible as the data.
    e.gate = cause;
  } else {
    // Privilege-shaped cause (⋆ grants, verify declassification, origins):
    // the cause's levels say ⋆/0, the knowledge is worth 3.
    e.gate = ExposureGate(cause, Level::kL1);
  }
  NoteGate(trace_id, e.gate);
  edges_.push_back(std::move(e));
  while (edges_.size() > capacity_) {
    edges_.pop_front();
  }
  static Counter& c = Registry::Get().counter("obs.ledger.edges");
  c.Add();
}

void ProvenanceLedger::RecordRefusal(const std::string& site,
                                     const std::string& subject,
                                     const std::string& detail,
                                     uint64_t handle, Level observed,
                                     Level bound, const Label& es,
                                     const Label& bound_label,
                                     uint64_t trace_id) {
  if (!enabled_) {
    return;
  }
  ScopedWorkStatsShield shield;
  RefusalRecord r;
  r.id = next_refusal_id_++;
  r.at_cycles = GetCycleAccounting().now();
  r.trace_id = trace_id;
  r.site = site;
  r.subject = subject;
  r.detail = detail;
  r.handle = handle;
  r.observed = observed;
  r.bound = bound;
  r.es_rep = es.rep_id();
  r.bound_rep = bound_label.rep_id();
  // A refusal reveals what was presented: gate by the presented label
  // raised to exposure (its handles at 3), so a ⋆-shaped verify refusal is
  // as secret as the compartments it named.
  r.gate = Label::Lub(es, ExposureGate(es, Level::kL1));
  NoteGate(trace_id, r.gate);
  refusals_.push_back(std::move(r));
  while (refusals_.size() > capacity_) {
    refusals_.pop_front();
  }
  static Counter& c = Registry::Get().counter("obs.ledger.refusals");
  c.Add();
}

Label ProvenanceLedger::CumulativeGate(uint64_t trace_id) const {
  auto it = cumulative_.find(trace_id);
  return it == cumulative_.end() ? Label::Bottom() : it->second;
}

void ProvenanceLedger::SetCapacity(size_t cap) {
  capacity_ = cap == 0 ? 1 : cap;
  while (edges_.size() > capacity_) {
    edges_.pop_front();
  }
  while (refusals_.size() > capacity_) {
    refusals_.pop_front();
  }
}

void ProvenanceLedger::Clear() {
  edges_.clear();
  refusals_.clear();
  cumulative_.clear();
}

namespace {

// Reading a record is delivering its history to the reader: the Figure-4
// rule with QR = clearance, DR = ⊥, V = pR = ⊤ reduces to gate ⊑ clearance.
bool GateFlows(const Label& gate, uint64_t trace_id, const Label& clearance) {
  ScopedWorkStatsShield shield;
  uint64_t work = 0;
  Label effective =
      Label::Lub(gate, ProvenanceLedger::Get().CumulativeGate(trace_id));
  return CheckDeliveryAllowed(effective, clearance, Label::Bottom(),
                              Label::Top(), Label::Top(), &work);
}

// Does this edge speak about `handle`? Contamination/adoption edges mention
// it when the cause carries taint there (≥ 2); privilege/origin edges when
// the cause names it explicitly (the interesting levels are ⋆ and 0, below
// every default).
bool EdgeMentions(const TaintEdge& e, uint64_t handle) {
  Handle h = Handle::FromValue(handle);
  if (e.kind == EdgeKind::kContaminate || e.kind == EdgeKind::kAdopt) {
    return LevelLeq(Level::kL2, e.cause.Get(h));
  }
  return e.cause.HasExplicit(h);
}

}  // namespace

bool ProvenanceReader::CanObserveEdge(const TaintEdge& e) const {
  return GateFlows(e.gate, e.trace_id, clearance_);
}

bool ProvenanceReader::CanObserveRefusal(const RefusalRecord& r) const {
  return GateFlows(r.gate, r.trace_id, clearance_);
}

std::vector<TaintEdge> ProvenanceReader::VisibleEdges() const {
  std::vector<TaintEdge> out;
  for (const TaintEdge& e : ProvenanceLedger::Get().edges()) {
    if (CanObserveEdge(e)) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<RefusalRecord> ProvenanceReader::VisibleRefusals() const {
  std::vector<RefusalRecord> out;
  for (const RefusalRecord& r : ProvenanceLedger::Get().refusals()) {
    if (CanObserveRefusal(r)) {
      out.push_back(r);
    }
  }
  return out;
}

size_t ProvenanceReader::VisibleEdgeCount() const {
  size_t n = 0;
  for (const TaintEdge& e : ProvenanceLedger::Get().edges()) {
    if (CanObserveEdge(e)) {
      ++n;
    }
  }
  return n;
}

size_t ProvenanceReader::VisibleRefusalCount() const {
  size_t n = 0;
  for (const RefusalRecord& r : ProvenanceLedger::Get().refusals()) {
    if (CanObserveRefusal(r)) {
      ++n;
    }
  }
  return n;
}

std::vector<TaintHop> ProvenanceReader::WhyTainted(const std::string& subject,
                                                   uint64_t handle) const {
  const auto& edges = ProvenanceLedger::Get().edges();
  std::vector<TaintHop> chain;
  std::string current = subject;
  // Start the search above every edge id; each hop must be strictly older
  // than the previous one, which also makes the walk terminate.
  uint64_t below_id = ~0ULL;
  while (true) {
    const TaintEdge* found = nullptr;
    for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
      if (it->id >= below_id) {
        continue;
      }
      if (it->subject == current && EdgeMentions(*it, handle)) {
        found = &*it;
        break;
      }
    }
    if (found == nullptr) {
      break;
    }
    // All or nothing: a partial chain would reveal the shape of history the
    // reader is not cleared for.
    if (!CanObserveEdge(*found)) {
      return {};
    }
    TaintHop hop;
    hop.edge = *found;
    hop.via = found->subject;
    if (!found->source.empty()) {
      hop.via += " \xe2\x86\x90 " + found->source;  // "subject ← source"
    }
    hop.via += " [";
    hop.via += EdgeKindName(found->kind);
    hop.via += "]";
    below_id = found->id;
    chain.push_back(std::move(hop));
    if (found->kind == EdgeKind::kOrigin || found->source.empty()) {
      break;
    }
    current = found->source;
  }
  return chain;
}

}  // namespace obs
}  // namespace asbestos
