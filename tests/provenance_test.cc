// The provenance plane: taint-flow audit ledger, refusal forensics, and the
// syscall-level cycle profiler (src/obs/provenance.h, src/obs/profiler.h).
//
// The ledger answers "why is this process tainted?" by recording every
// taint-propagating event as a DAG edge and walking it back to the taint's
// origin; refusal records capture the exact failing label comparison at
// every drop site. Both are covert-channel surfaces in their own right, so
// reads go through a clearance-gated reader with the trace ring's
// cumulative-label discipline (the counting-channel proof lives in
// tests/covert_channel_test.cc). The profiler turns the deterministic
// virtual clock into nested-span flamegraphs without ever charging it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/label_checks.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/provenance.h"
#include "src/obs/reset.h"
#include "src/obs/trace.h"
#include "src/replication/replica.h"
#include "src/replication/source.h"
#include "src/replication/wire.h"
#include "src/sim/cycles.h"
#include "src/store/store.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

using testing::RecorderProcess;
using testing::ScriptedProcess;
using testing::TempDir;

Handle H(uint64_t v) { return Handle::FromValue(v); }

// --- Ledger unit behaviour ---------------------------------------------------

class ProvenanceLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ProvenanceLedger::SetEnabled(true);
    obs::ProvenanceLedger::Get().Clear();
  }
  void TearDown() override {
    obs::ProvenanceLedger::Get().SetCapacity(8192);
    obs::ProvenanceLedger::Get().Clear();
    obs::ProvenanceLedger::SetEnabled(false);
  }
};

TEST_F(ProvenanceLedgerTest, DisabledLedgerRecordsNothing) {
  obs::ProvenanceLedger::SetEnabled(false);
  obs::ProvenanceLedger& ledger = obs::ProvenanceLedger::Get();
  ledger.RecordEdge(obs::EdgeKind::kContaminate, "a", "b", 0, 0, Label::Top(), 1);
  ledger.RecordRefusal("site", "a", "detail", 9, Level::kL3, Level::kL2,
                       Label::Top(), Label::Bottom(), 1);
  EXPECT_TRUE(ledger.edges().empty());
  EXPECT_TRUE(ledger.refusals().empty());
  EXPECT_EQ(ledger.total_edges(), 0u);
  EXPECT_EQ(ledger.total_refusals(), 0u);
}

TEST_F(ProvenanceLedgerTest, GateFromPrivilegeHidesPrivilegeShapedCauses) {
  // A ⋆/0-shaped cause label would gate nothing if used directly — knowing
  // that u's declassifier acted is u-secret — so every explicit entry maps
  // to level 3 and the default to 1.
  const Label priv({{H(7), Level::kStar}, {H(8), Level::kL0}}, Level::kL1);
  const Label gate = obs::GateFromPrivilege(priv);
  EXPECT_EQ(gate.Get(H(7)), Level::kL3);
  EXPECT_EQ(gate.Get(H(8)), Level::kL3);
  EXPECT_EQ(gate.default_level(), Level::kL1);
}

TEST_F(ProvenanceLedgerTest, CumulativeGateOutlivesEviction) {
  // History is state: once a trace produced one secret-gated record, even
  // its LATER public-gated records must stay invisible to a low reader —
  // and that must survive the secret record being evicted from the ring,
  // or eviction would slowly declassify the count.
  obs::ProvenanceLedger& ledger = obs::ProvenanceLedger::Get();
  ledger.SetCapacity(2);
  const Label secret({{H(99), Level::kL3}}, Level::kL1);
  const uint64_t secret_trace = 42;
  const uint64_t public_trace = 43;
  ledger.RecordEdge(obs::EdgeKind::kContaminate, "worker", "dbproxy", 0, 0,
                    secret, secret_trace);
  // Push the secret edge out of the ring with public edges on the SAME trace.
  ledger.RecordEdge(obs::EdgeKind::kContaminate, "worker", "dbproxy", 0, 0,
                    Label::Bottom(), secret_trace);
  ledger.RecordEdge(obs::EdgeKind::kContaminate, "worker", "dbproxy", 0, 0,
                    Label::Bottom(), secret_trace);
  ledger.RecordEdge(obs::EdgeKind::kContaminate, "other", "netd", 0, 0,
                    Label::Bottom(), public_trace);
  ASSERT_EQ(ledger.edges().size(), 2u);  // capacity enforced
  EXPECT_EQ(ledger.total_edges(), 4u);   // emission count is not
  EXPECT_EQ(ledger.CumulativeGate(secret_trace).Get(H(99)), Level::kL3);

  obs::ProvenanceReader low(Label::DefaultReceive());
  ASSERT_EQ(low.VisibleEdges().size(), 1u);
  EXPECT_EQ(low.VisibleEdges()[0].trace_id, public_trace);
  EXPECT_EQ(low.VisibleEdgeCount(), 1u);
  obs::ProvenanceReader high(Label::Top());
  EXPECT_EQ(high.VisibleEdgeCount(), 2u);
}

TEST_F(ProvenanceLedgerTest, RecordingNeverPerturbsLabelWorkStats) {
  // The ledger's own label algebra (gate Lubs, cumulative joins) must not
  // leak into the Figure 6-9 work counters: outputs with the ledger enabled
  // would otherwise differ from the seed's.
  const Label cause({{H(5), Level::kL3}, {H(6), Level::kL2}}, Level::kL1);
  const LabelWorkStats before = GetLabelWorkStats();
  obs::ProvenanceLedger& ledger = obs::ProvenanceLedger::Get();
  ledger.RecordEdge(obs::EdgeKind::kContaminate, "a", "b", 0, 0, cause, 7);
  ledger.RecordEdge(obs::EdgeKind::kGrant, "a", "b", 0, 0, cause, 7);
  ledger.RecordRefusal("kernel.delivery", "a", "detail", 5, Level::kL3,
                       Level::kL2, cause, cause, 7);
  const LabelWorkStats& after = GetLabelWorkStats();
  EXPECT_EQ(after.ops, before.ops);
  EXPECT_EQ(after.entries_visited, before.entries_visited);
  EXPECT_EQ(after.fast_path_hits, before.fast_path_hits);
}

// --- Kernel-driven edges and refusals ----------------------------------------

class ProvenanceKernelTest : public ProvenanceLedgerTest {
 protected:
  Kernel kernel_{0x90BE11EFULL};
  std::vector<RecorderProcess::Received> received_;

  ProcessId MakeProcess(const std::string& name) {
    SpawnArgs args;
    args.name = name;
    return kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  }

  // A recorder with the given receive label and one wide-open Top port.
  std::pair<ProcessId, Handle> MakeRecorder(const std::string& name,
                                            const Label& recv) {
    SpawnArgs args;
    args.name = name;
    args.recv_label = recv;
    const ProcessId pid =
        kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), args);
    Handle port;
    kernel_.WithProcessContext(pid, [&](ProcessContext& ctx) {
      port = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
    });
    return {pid, port};
  }
};

TEST_F(ProvenanceKernelTest, WhyTaintedWalksContaminationBackToItsOrigin) {
  // tx mints h, voluntarily raises itself to {h 3}, then contaminates rx.
  // The ledger must answer WhyTainted(rx, h) with the full hop chain:
  // rx ← tx [contaminate], then tx's self-taint origin.
  auto [rx, port] = MakeRecorder("rx", Label(Level::kL3));
  (void)rx;
  const ProcessId tx = MakeProcess("tx");
  Handle h;
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    h = ctx.NewHandle();
    EXPECT_EQ(ctx.SetSendLevel(h, Level::kL3), Status::kOk);
    EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u) << "the permissive receiver accepts taint";

  obs::ProvenanceReader high(Label::Top());
  const std::vector<obs::TaintHop> chain = high.WhyTainted("rx", h.value());
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].edge.kind, obs::EdgeKind::kContaminate);
  EXPECT_EQ(chain[0].edge.subject, "rx");
  EXPECT_EQ(chain[0].edge.source, "tx");
  EXPECT_EQ(chain[0].edge.cause.Get(h), Level::kL3);
  EXPECT_NE(chain[0].edge.pre_rep, chain[0].edge.post_rep) << "a Lub ran";
  EXPECT_EQ(chain[0].via, "rx \xe2\x86\x90 tx [contaminate]");
  EXPECT_EQ(chain[1].edge.kind, obs::EdgeKind::kOrigin);
  EXPECT_EQ(chain[1].edge.subject, "tx");
  EXPECT_EQ(chain[1].edge.source, "");

  // Who got tainted with h is at least as secret as h: a reader without
  // clearance for {h 3} gets an EMPTY chain, not a truncated one, and
  // cannot count the edges either.
  obs::ProvenanceReader low(Label::DefaultReceive());
  EXPECT_TRUE(low.WhyTainted("rx", h.value()).empty());
  EXPECT_EQ(low.VisibleEdgeCount(), 0u);
  EXPECT_GE(high.VisibleEdgeCount(), 3u);  // mint origin, raise origin, contaminate
}

TEST_F(ProvenanceKernelTest, DeliveryRefusalRecordsTheFailingComparison) {
  // A default-clearance receiver refuses {h 3} traffic; the forensics
  // record must name the exact handle and the levels on both sides of the
  // failed ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR comparison.
  auto [rx, port] = MakeRecorder("rx", Label::DefaultReceive());
  (void)rx;
  const ProcessId tx = MakeProcess("tx");
  Handle h;
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    h = ctx.NewHandle();
    EXPECT_EQ(ctx.SetSendLevel(h, Level::kL3), Status::kOk);
    EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk);  // will be dropped
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty());

  obs::ProvenanceLedger& ledger = obs::ProvenanceLedger::Get();
  ASSERT_EQ(ledger.refusals().size(), 1u);
  const obs::RefusalRecord& r = ledger.refusals().back();
  EXPECT_EQ(r.site, "kernel.delivery");
  EXPECT_EQ(r.subject, "rx");
  EXPECT_EQ(r.handle, h.value());
  EXPECT_EQ(r.observed, Level::kL3);
  EXPECT_EQ(r.bound, Level::kL2);
  EXPECT_NE(r.detail.find("req 1"), std::string::npos) << r.detail;

  // The refusal reveals the taint that was presented: gated like the taint.
  obs::ProvenanceReader low(Label::DefaultReceive());
  EXPECT_EQ(low.VisibleRefusalCount(), 0u);
  obs::ProvenanceReader high(Label::Top());
  EXPECT_EQ(high.VisibleRefusalCount(), 1u);
}

TEST_F(ProvenanceKernelTest, PrivilegeRefusalNamesTheMissingStar) {
  // Decontaminating without holding ⋆ is silently dropped (covert-channel
  // discipline) — but the ledger, readable only above the gate, records
  // which handle's ⋆ was missing.
  auto [rx, port] = MakeRecorder("rx", Label::DefaultReceive());
  (void)rx;
  const ProcessId tx = MakeProcess("tx");
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    SendArgs args;
    args.decont_send = Label({{H(0x777), Level::kStar}}, Level::kL3);
    EXPECT_EQ(ctx.Send(port, Message{}, args), Status::kOk);  // same answer
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty());

  obs::ProvenanceLedger& ledger = obs::ProvenanceLedger::Get();
  ASSERT_EQ(ledger.refusals().size(), 1u);
  const obs::RefusalRecord& r = ledger.refusals().back();
  EXPECT_EQ(r.site, "kernel.send_privilege");
  EXPECT_EQ(r.subject, "tx");
  EXPECT_EQ(r.handle, 0x777u);
  EXPECT_EQ(r.bound, Level::kStar);
}

TEST_F(ProvenanceKernelTest, GrantAndDeclassifyEdgesAreGatedHigh) {
  // A privileged send (D_S lowering the receiver, then a verify-vouched
  // delivery) produces kGrant / kDeclassify edges whose gates map the
  // mentioned handles to level 3: knowing that u's privilege was exercised
  // is u-secret control flow even though the cause labels are ⋆/0-shaped.
  auto [rx, port] = MakeRecorder("rx", Label::DefaultReceive());
  (void)rx;
  const ProcessId tx = MakeProcess("tx");
  Handle h;
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    h = ctx.NewHandle();  // tx holds ⋆ at h
    SendArgs grant;
    grant.decont_send = Label({{h, Level::kL0}}, Level::kL3);
    EXPECT_EQ(ctx.Send(port, Message{}, grant), Status::kOk);
    SendArgs vouched;
    vouched.verify = Label({{H(0x5151), Level::kL2}}, Level::kL3);
    EXPECT_EQ(ctx.Send(port, Message{}, vouched), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 2u);

  const obs::TaintEdge* grant_edge = nullptr;
  const obs::TaintEdge* declassify_edge = nullptr;
  for (const obs::TaintEdge& e : obs::ProvenanceLedger::Get().edges()) {
    if (e.kind == obs::EdgeKind::kGrant) {
      grant_edge = &e;
    } else if (e.kind == obs::EdgeKind::kDeclassify) {
      declassify_edge = &e;
    }
  }
  ASSERT_NE(grant_edge, nullptr);
  EXPECT_EQ(grant_edge->subject, "rx");
  EXPECT_EQ(grant_edge->source, "tx");
  EXPECT_EQ(grant_edge->cause.Get(h), Level::kL0);
  EXPECT_EQ(grant_edge->gate.Get(h), Level::kL3);
  ASSERT_NE(declassify_edge, nullptr);
  EXPECT_EQ(declassify_edge->cause.Get(H(0x5151)), Level::kL2);
  EXPECT_EQ(declassify_edge->gate.Get(H(0x5151)), Level::kL3);

  obs::ProvenanceReader low(Label::DefaultReceive());
  EXPECT_FALSE(low.CanObserveEdge(*grant_edge));
  EXPECT_FALSE(low.CanObserveEdge(*declassify_edge));
  obs::ProvenanceReader high(Label::Top());
  EXPECT_TRUE(high.CanObserveEdge(*grant_edge));
}

// --- Forensics are invisible to the cost model -------------------------------
//
// Explaining a refused delivery, naming a refused send's missing ⋆, and
// journaling a replicated Put's adopted label are observability. Each runs
// under a ScopedWorkStatsShield, so the same scenario leaves the same
// LabelWorkStats deltas and charges the same cycles with the ledger off and
// on.

struct ScenarioCost {
  uint64_t ops = 0;
  uint64_t entries_visited = 0;
  uint64_t fast_path_hits = 0;
  uint64_t cycles = 0;
  uint64_t ledger_records = 0;  // refusals + edges the ledger kept
};

template <typename Fn>
ScenarioCost RunWithLedger(bool ledger_on, const Fn& scenario) {
  obs::ProvenanceLedger::SetEnabled(ledger_on);
  obs::ProvenanceLedger::Get().Clear();
  ResetLabelCheckCache();  // both runs start cold: hits replay no op counts
  const LabelWorkStats before = GetLabelWorkStats();
  const uint64_t cycles_before = GetCycleAccounting().now();
  scenario();
  const LabelWorkStats& after = GetLabelWorkStats();
  ScenarioCost cost;
  cost.ops = after.ops - before.ops;
  cost.entries_visited = after.entries_visited - before.entries_visited;
  cost.fast_path_hits = after.fast_path_hits - before.fast_path_hits;
  cost.cycles = GetCycleAccounting().now() - cycles_before;
  cost.ledger_records = obs::ProvenanceLedger::Get().refusals().size() +
                        obs::ProvenanceLedger::Get().edges().size();
  obs::ProvenanceLedger::Get().Clear();
  obs::ProvenanceLedger::SetEnabled(false);
  return cost;
}

void ExpectSameCost(const ScenarioCost& off, const ScenarioCost& on) {
  EXPECT_EQ(off.ledger_records, 0u);
  EXPECT_GT(on.ledger_records, 0u) << "the scenario must reach the ledger";
  EXPECT_EQ(on.ops, off.ops);
  EXPECT_EQ(on.entries_visited, off.entries_visited);
  EXPECT_EQ(on.fast_path_hits, off.fast_path_hits);
  EXPECT_EQ(on.cycles, off.cycles);
}

// A sender at {h 3} (plus whatever `args` asks for) sends one message to a
// default-clearance receiver, and the pump runs to idle.
void RefusedSendScenario(const SendArgs& args) {
  Kernel kernel(0xF0E1);
  std::vector<RecorderProcess::Received> received;
  SpawnArgs rargs;
  rargs.name = "rx";
  const ProcessId rx =
      kernel.CreateProcess(std::make_unique<RecorderProcess>(&received), rargs);
  Handle port;
  kernel.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    ASSERT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs targs;
  targs.name = "tx";
  const ProcessId tx = kernel.CreateProcess(std::make_unique<ScriptedProcess>(), targs);
  kernel.WithProcessContext(tx, [&](ProcessContext& ctx) {
    const Handle h = ctx.NewHandle();
    ASSERT_EQ(ctx.SetSendLevel(h, Level::kL3), Status::kOk);
    ASSERT_EQ(ctx.Send(port, Message{}, args), Status::kOk);
  });
  kernel.RunUntilIdle();
  EXPECT_TRUE(received.empty());
}

TEST(ForensicsCostTest, RefusedDeliveryCostsTheSameWithTheLedgerOn) {
  const auto scenario = [] { RefusedSendScenario(SendArgs()); };
  ExpectSameCost(RunWithLedger(false, scenario), RunWithLedger(true, scenario));
}

TEST(ForensicsCostTest, RefusedSendCostsTheSameWithTheLedgerOn) {
  SendArgs args;
  args.decont_send = Label({{H(0x777), Level::kStar}}, Level::kL3);  // no ⋆ held
  const auto scenario = [&] { RefusedSendScenario(args); };
  ExpectSameCost(RunWithLedger(false, scenario), RunWithLedger(true, scenario));
}

TEST(ForensicsCostTest, ReplicatedPutCostsTheSameWithTheLedgerOn) {
  TempDir dir;
  int run = 0;
  // A fresh primary/replica pair per run: the replica is imaged while the
  // primary is empty, then applies one shipped Put of a labeled record.
  const auto scenario = [&] {
    const std::string base = dir.path() + "/run" + std::to_string(run++);
    StoreOptions popts;
    popts.dir = base + "-primary";
    auto opened_primary = DurableStore::Open(popts);
    ASSERT_TRUE(opened_primary.ok());
    std::unique_ptr<DurableStore> primary = opened_primary.take();
    ReplicationHub hub(primary.get(), /*source_id=*/0x5EED);
    FollowerSession* session = hub.OpenSession();
    StoreOptions ropts;
    ropts.dir = base + "-replica";
    auto opened_replica = ReplicaStore::Open(ropts, ReplicaOptions());
    ASSERT_TRUE(opened_replica.ok());
    std::unique_ptr<ReplicaStore> replica = opened_replica.take();

    // Ships frames and acks between the pair until the session goes quiet.
    std::string stream = session->SessionHello();
    const auto sync = [&] {
      for (int round = 0; round < 8 && !stream.empty(); ++round) {
        std::string acks;
        replwire::WireMessage frame;
        while (replwire::ConsumeFrame(&stream, &frame) == replwire::FrameParse::kFrame) {
          ASSERT_EQ(replica->HandleFrame(frame, &acks), Status::kOk);
        }
        while (replwire::ConsumeFrame(&acks, &frame) == replwire::FrameParse::kFrame) {
          session->HandleAck(frame);
        }
        session->PollFrames(1 << 16, ~0ULL, &stream);
      }
    };
    sync();
    const Label secrecy({{H(0x51), Level::kL3}, {H(0x52), Level::kL2}}, Level::kL1);
    ASSERT_EQ(primary->Put("k", "v", secrecy, Label::Top()), Status::kOk);
    session->PollFrames(1 << 16, ~0ULL, &stream);
    sync();
    const StoreRecord* record = replica->store()->Get("k");
    ASSERT_NE(record, nullptr);
    EXPECT_TRUE(record->secrecy.Equals(secrecy));
    if (obs::ProvenanceLedger::enabled()) {
      const auto& edges = obs::ProvenanceLedger::Get().edges();
      EXPECT_TRUE(std::any_of(edges.begin(), edges.end(), [](const obs::TaintEdge& e) {
        return e.kind == obs::EdgeKind::kAdopt;
      })) << "the Put must arrive as a shipped batch, not inside a snapshot";
    }
  };
  ExpectSameCost(RunWithLedger(false, scenario), RunWithLedger(true, scenario));
}

// --- Cycle profiler ----------------------------------------------------------

class CycleProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::CycleProfiler::SetEnabled(true);
    obs::CycleProfiler::Get().Clear();
  }
  void TearDown() override {
    obs::CycleProfiler::Get().Clear();
    obs::CycleProfiler::SetEnabled(false);
  }
  // Advance the virtual clock, as charged work would.
  static void Burn(uint64_t cycles) {
    GetCycleAccounting().Charge(Component::kOther, cycles);
  }
};

TEST_F(CycleProfilerTest, SpansNestAndSplitSelfFromChildTime) {
  obs::CycleProfiler& prof = obs::CycleProfiler::Get();
  prof.Begin("outer");
  Burn(100);
  prof.Begin("inner");
  Burn(40);
  prof.End();
  Burn(10);
  prof.End();

  const auto& stacks = prof.stacks();
  ASSERT_EQ(stacks.count("outer"), 1u);
  ASSERT_EQ(stacks.count("outer;inner"), 1u);
  EXPECT_EQ(stacks.at("outer").total_cycles, 150u);
  EXPECT_EQ(stacks.at("outer").self_cycles, 110u) << "child time excluded";
  EXPECT_EQ(stacks.at("outer;inner").self_cycles, 40u);
  EXPECT_EQ(stacks.at("outer;inner").total_cycles, 40u);
  EXPECT_EQ(prof.CollapsedStacks(), "outer 110\nouter;inner 40\n");
}

TEST_F(CycleProfilerTest, BeginWithParentStitchesAcrossTheWire) {
  // The primary's ship span ends before the follower's apply span begins —
  // the two sides never share a C++ call stack — yet prof_ctx stitches the
  // apply under the ship stack in one merged flamegraph.
  obs::CycleProfiler& prof = obs::CycleProfiler::Get();
  prof.Begin("repl.ship.batch");
  const std::string wire_ctx = prof.current_stack();  // → WireMessage::prof_ctx
  EXPECT_EQ(wire_ctx, "repl.ship.batch");
  Burn(5);
  prof.End();

  EXPECT_EQ(prof.current_stack(), "");
  prof.BeginWithParent(wire_ctx, "repl.apply.batch");
  EXPECT_EQ(prof.current_stack(), "repl.ship.batch;repl.apply.batch");
  Burn(7);
  prof.End();

  ASSERT_EQ(prof.stacks().count("repl.ship.batch;repl.apply.batch"), 1u);
  EXPECT_EQ(prof.stacks().at("repl.ship.batch;repl.apply.batch").self_cycles, 7u);
}

TEST_F(CycleProfilerTest, DisabledSitesBuildNoSpans) {
  obs::CycleProfiler::SetEnabled(false);
  {
    // The call-site guard idiom: the name string is never even built.
    obs::ProfSpan span;
    if (obs::CycleProfiler::enabled()) {
      span.Begin("never");
    }
    Burn(3);
  }
  EXPECT_TRUE(obs::CycleProfiler::Get().stacks().empty());
  const auto snap = obs::Registry::Get().Snapshot();
  EXPECT_EQ(snap.at("obs.prof.enabled"), 0.0);
}

TEST_F(CycleProfilerTest, SyscallTableSurfacesAsMetrics) {
  obs::CycleProfiler& prof = obs::CycleProfiler::Get();
  prof.AttributeSyscall("worker", "send", 120);
  prof.AttributeSyscall("worker", "send", 30);
  prof.AttributeSyscall("netd", "new_port", 5);
  ASSERT_EQ(prof.syscalls().count("worker.send"), 1u);
  EXPECT_EQ(prof.syscalls().at("worker.send").cycles, 150u);
  EXPECT_EQ(prof.syscalls().at("worker.send").calls, 2u);

  const auto snap = obs::Registry::Get().Snapshot();
  EXPECT_EQ(snap.at("obs.prof.sys.worker.send.cycles"), 150.0);
  EXPECT_EQ(snap.at("obs.prof.sys.worker.send.calls"), 2.0);
  EXPECT_EQ(snap.at("obs.prof.sys.netd.new_port.cycles"), 5.0);
  EXPECT_EQ(snap.at("obs.prof.enabled"), 1.0);
}

TEST_F(CycleProfilerTest, KernelDispatchFeedsAttributionAndDeliverySpans) {
  Kernel kernel{0xCAFEF00DULL};
  std::vector<RecorderProcess::Received> received;
  SpawnArgs rargs;
  rargs.name = "rx";
  const ProcessId rx =
      kernel.CreateProcess(std::make_unique<RecorderProcess>(&received), rargs);
  Handle port;
  kernel.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs targs;
  targs.name = "tx";
  const ProcessId tx =
      kernel.CreateProcess(std::make_unique<ScriptedProcess>(), targs);
  kernel.WithProcessContext(tx, [&](ProcessContext& ctx) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk);
    }
  });
  kernel.RunUntilIdle();
  ASSERT_EQ(received.size(), 3u);

  obs::CycleProfiler& prof = obs::CycleProfiler::Get();
  // Flat table: per-(process, syscall) attribution from the dispatch table,
  // base cycles included.
  ASSERT_EQ(prof.syscalls().count("tx.send"), 1u);
  EXPECT_EQ(prof.syscalls().at("tx.send").calls, 3u);
  EXPECT_GT(prof.syscalls().at("tx.send").cycles, 0u);
  // Tree: each syscall ran under a "sys.<name>" span, and each delivery to
  // rx under "deliver.rx".
  ASSERT_EQ(prof.stacks().count("sys.send"), 1u);
  EXPECT_EQ(prof.stacks().at("sys.send").count, 3u);
  ASSERT_EQ(prof.stacks().count("deliver.rx"), 1u);
  EXPECT_EQ(prof.stacks().at("deliver.rx").count, 3u);
}

// --- ResetAll ----------------------------------------------------------------

TEST(ObsResetTest, ResetAllDropsEveryObservabilitySurface) {
  obs::Registry::Get().counter("test.reset_all.probe").Add(7);
  obs::TraceRing::SetEnabled(true);
  const uint64_t tid = obs::TraceRing::Get().MintTraceId();
  obs::TraceRing::Get().Emit(tid, "t", "t.e", "", Label::Bottom());
  obs::ProvenanceLedger::SetEnabled(true);
  obs::ProvenanceLedger::Get().RecordEdge(obs::EdgeKind::kContaminate, "a", "b",
                                          0, 0, Label::Bottom(), tid);
  obs::CycleProfiler::SetEnabled(true);
  obs::CycleProfiler::Get().Begin("x");
  GetCycleAccounting().Charge(Component::kOther, 9);
  obs::CycleProfiler::Get().End();
  obs::CycleProfiler::Get().AttributeSyscall("p", "send", 9);

  obs::ResetAll();

  EXPECT_EQ(obs::Registry::Get().counter("test.reset_all.probe").value(), 0u);
  EXPECT_EQ(obs::TraceReader(Label::Top()).VisibleCount(), 0u);
  EXPECT_TRUE(obs::ProvenanceLedger::Get().edges().empty());
  EXPECT_TRUE(obs::CycleProfiler::Get().stacks().empty());
  EXPECT_TRUE(obs::CycleProfiler::Get().syscalls().empty());

  obs::CycleProfiler::SetEnabled(false);
  obs::ProvenanceLedger::SetEnabled(false);
  obs::TraceRing::SetEnabled(false);
}

}  // namespace
}  // namespace asbestos
