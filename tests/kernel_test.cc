// Kernel IPC mechanics: ports, unreliable send, delivery-time checks, and
// the Figure-4 label operations.
#include "src/kernel/kernel.h"

#include <gtest/gtest.h>

#include <set>

#include "src/labels/label.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

using testing::RecorderProcess;
using testing::ScriptedProcess;

class KernelTest : public ::testing::Test {
 protected:
  Kernel kernel_{/*boot_key=*/0x5eedULL};
  std::vector<RecorderProcess::Received> received_;
};

TEST_F(KernelTest, BasicSendDeliver) {
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  auto recorder = std::make_unique<RecorderProcess>(&received_);
  RecorderProcess* rec = recorder.get();
  const ProcessId rx = kernel_.CreateProcess(std::move(recorder), rargs);
  (void)rec;
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });

  SpawnArgs sargs;
  sargs.name = "send";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    Message m;
    m.type = 77;
    m.data = "hi";
    EXPECT_EQ(ctx.Send(port, std::move(m)), Status::kOk);
  });

  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.type, 77u);
  EXPECT_EQ(received_[0].msg.data, "hi");
  EXPECT_EQ(received_[0].msg.port, port);
  EXPECT_EQ(kernel_.stats().deliveries, 1u);
}

TEST_F(KernelTest, NewPortIsClosedByDefault) {
  // new_port sets pR(p) ← 0: a sender with the default send level 1 cannot
  // reach the port until the owner grants access (paper §5.5).
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) { port = ctx.NewPort(Label::Top()); });

  SpawnArgs sargs;
  sargs.name = "send";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk) << "send never reports label failure";
  });

  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(kernel_.stats().drops_label_check, 1u);
}

TEST_F(KernelTest, OwnerCanSendToItsOwnNewPort) {
  // The creator holds PS(p) = ⋆, which passes the pR(p) = 0 gate.
  std::vector<RecorderProcess::Received> got;
  SpawnArgs args;
  args.name = "self";
  Handle port;
  const ProcessId pid = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&got), args);
  kernel_.WithProcessContext(pid, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.send_label().Get(port), Level::kStar);
    EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_EQ(got.size(), 1u);
}

TEST_F(KernelTest, SetPortLabelOpensPort) {
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    // Resetting the label to {3} (no p→0 exception) opens the port to all.
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });

  SpawnArgs sargs;
  sargs.name = "send";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_EQ(received_.size(), 1u);
}

TEST_F(KernelTest, SendToUnknownHandleSilentlySucceeds) {
  SpawnArgs args;
  args.name = "p";
  const ProcessId pid = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  kernel_.WithProcessContext(pid, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.Send(Handle::FromValue(0x123456), Message{}), Status::kOk);
  });
  EXPECT_EQ(kernel_.stats().drops_no_port, 1u);
}

TEST_F(KernelTest, ContaminationRaisesReceiverSendLabel) {
  Handle taint;
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  // Receiver's default receive label is {2}: taint at level 2 is acceptable.
  SpawnArgs sargs;
  sargs.name = "send";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    taint = ctx.NewHandle();
    SendArgs args;
    args.contaminate = Label({{taint, Level::kL2}}, Level::kStar);
    EXPECT_EQ(ctx.Send(port, Message{}, args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(kernel_.SendLabelOf(rx).Get(taint), Level::kL2);
}

TEST_F(KernelTest, TaintAtLevel3BlockedByDefaultReceiveLabel) {
  // Default QR is {2}: contamination at 3 exceeds it and the message drops.
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  Process* rx = kernel_.FindProcessByName("recv");
  kernel_.WithProcessContext(rx->id, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs sargs;
  sargs.name = "send";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    const Handle taint = ctx.NewHandle();
    SendArgs args;
    args.contaminate = Label({{taint, Level::kL3}}, Level::kStar);
    EXPECT_EQ(ctx.Send(port, Message{}, args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(kernel_.stats().drops_label_check, 1u);
}

TEST_F(KernelTest, StarPreservedUnderContamination) {
  // A process with PS(h) = ⋆ cannot be contaminated with respect to h
  // (paper §5.3): receiving h-tainted data leaves its ⋆ intact.
  Handle taint;
  Handle port;
  std::vector<RecorderProcess::Received> got;
  SpawnArgs fs_args;
  fs_args.name = "fileserver";
  const ProcessId fs = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&got), fs_args);
  kernel_.WithProcessContext(fs, [&](ProcessContext& ctx) {
    taint = ctx.NewHandle();  // fs controls the compartment
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
    // Allow arbitrarily tainted senders.
    EXPECT_EQ(ctx.SetReceiveLevel(taint, Level::kL3), Status::kOk);
  });

  SpawnArgs sargs;
  sargs.name = "client";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    SendArgs args;
    args.contaminate = Label({{taint, Level::kL3}}, Level::kStar);
    EXPECT_EQ(ctx.Send(port, Message{}, args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(kernel_.SendLabelOf(fs).Get(taint), Level::kStar)
      << "⋆ must take precedence over contamination";
}

TEST_F(KernelTest, DecontSendGrantsPrivilege) {
  // Creator of a handle can hand out ⋆ for it with D_S (capability grant).
  Handle h;
  Handle port;
  SpawnArgs rargs;
  rargs.name = "grantee";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs gargs;
  gargs.name = "granter";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), gargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    h = ctx.NewHandle();
    SendArgs args;
    args.decont_send = Label({{h, Level::kStar}}, Level::kL3);
    EXPECT_EQ(ctx.Send(port, Message{}, args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(kernel_.SendLabelOf(rx).Get(h), Level::kStar);
}

TEST_F(KernelTest, DecontSendWithoutStarIsDropped) {
  // Requirement (2): D_S(h) < 3 requires PS(h) = ⋆.
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs sargs;
  sargs.name = "imposter";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    SendArgs args;
    args.decont_send = Label({{Handle::FromValue(0x777), Level::kStar}}, Level::kL3);
    EXPECT_EQ(ctx.Send(port, Message{}, args), Status::kOk) << "silent drop, not an error";
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(kernel_.stats().drops_privilege, 1u);
}

TEST_F(KernelTest, DecontReceiveRaisesReceiverAndRequiresStar) {
  Handle taint;
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs sargs;
  sargs.name = "owner";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    taint = ctx.NewHandle();
    SendArgs args;
    args.decont_receive = Label({{taint, Level::kL3}}, Level::kStar);
    EXPECT_EQ(ctx.Send(port, Message{}, args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(kernel_.RecvLabelOf(rx).Get(taint), Level::kL3);

  // A process without ⋆ for the handle cannot use the same D_R.
  SpawnArgs iargs;
  iargs.name = "imposter";
  const ProcessId imp = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), iargs);
  kernel_.WithProcessContext(imp, [&](ProcessContext& ctx) {
    SendArgs args;
    args.decont_receive = Label({{taint, Level::kL3}}, Level::kStar);
    EXPECT_EQ(ctx.Send(port, Message{}, args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_EQ(kernel_.stats().drops_privilege, 1u);
}

TEST_F(KernelTest, DecontReceiveBoundedByPortLabel) {
  // Requirement (4): D_R ⊑ pR. A low port label lets a process refuse
  // decontamination entirely (the mail-reader idiom of §5.5).
  Handle taint;
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label(Level::kL2)), Status::kOk);  // pR = {2}
  });
  SpawnArgs sargs;
  sargs.name = "owner";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    taint = ctx.NewHandle();
    SendArgs args;
    args.decont_receive = Label({{taint, Level::kL3}}, Level::kStar);  // 3 > pR's 2
    EXPECT_EQ(ctx.Send(port, Message{}, args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(kernel_.stats().drops_dr_port, 1u);
  EXPECT_EQ(kernel_.RecvLabelOf(rx).Get(taint), Level::kL2) << "no decontamination happened";
}

TEST_F(KernelTest, VerificationLabelDeliveredToReceiver) {
  Handle g;
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs sargs;
  sargs.name = "speaker";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    g = ctx.NewHandle();
    // Hold the grant handle at 0 ("speaks for") and prove it via V.
    EXPECT_EQ(ctx.SetSendLevel(g, Level::kL0), Status::kOk);
    SendArgs args;
    args.verify = Label({{g, Level::kL0}}, Level::kL3);
    EXPECT_EQ(ctx.Send(port, Message{}, args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.verify.Get(g), Level::kL0)
      << "receiver can check the credential in V";
}

TEST_F(KernelTest, VerificationLabelMustBoundSenderLabel) {
  // V is an upper bound on ES; claiming a credential you lack drops the
  // message (the confused-deputy defence of §5.4).
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs sargs;
  sargs.name = "liar";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    SendArgs args;
    // Claims g at 0 without holding it: PS(g) = 1 > V(g) = 0.
    args.verify = Label({{Handle::FromValue(0x888), Level::kL0}}, Level::kL3);
    EXPECT_EQ(ctx.Send(port, Message{}, args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(kernel_.stats().drops_label_check, 1u);
}

TEST_F(KernelTest, ChecksHappenAtDeliveryTime) {
  // A message that was deliverable when sent is dropped if the receiver's
  // labels changed before it tried to receive (paper §4).
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs sargs;
  sargs.name = "send";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk);  // deliverable right now
  });
  // Before the kernel runs, the receiver closes itself off: QR(default) is
  // out of reach, so lower the port label below the sender's level.
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.SetPortLabel(port, Label(Level::kL0)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(kernel_.stats().drops_label_check, 1u);
}

TEST_F(KernelTest, EffectiveSendLabelSnapshottedAtSendTime) {
  // Taint acquired after sending must not ride along with an earlier message.
  Handle port;
  Handle taint;
  SpawnArgs rargs;
  rargs.name = "recv";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs sargs;
  sargs.name = "send";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    taint = ctx.NewHandle();
    EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk);
    // Sender self-contaminates *after* the send.
    EXPECT_EQ(ctx.SetSendLevel(taint, Level::kL3), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(kernel_.SendLabelOf(rx).Get(taint), kDefaultSendLevel)
      << "receiver must not inherit post-send taint";
}

TEST_F(KernelTest, TransferPortMovesReceiveRights) {
  Handle port;
  SpawnArgs aargs;
  aargs.name = "alice";
  const ProcessId alice = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), aargs);
  SpawnArgs bargs;
  bargs.name = "bob";
  const ProcessId bob = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), bargs);

  kernel_.WithProcessContext(alice, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
    EXPECT_EQ(ctx.TransferPort(port, bob), Status::kOk);
    EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u) << "bob now receives on the transferred port";

  // Alice no longer owns it.
  kernel_.WithProcessContext(alice, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kNotFound);
  });
}

TEST_F(KernelTest, ClosePortDropsQueuedAndFutureMessages) {
  Handle port;
  SpawnArgs rargs;
  rargs.name = "recv";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs sargs;
  sargs.name = "send";
  const ProcessId tx = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk);
  });
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.ClosePort(port), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty());
  EXPECT_FALSE(kernel_.PortAlive(port));
  // Future sends are silently dropped too.
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk);
  });
  EXPECT_GE(kernel_.stats().drops_no_port, 2u);
}

TEST_F(KernelTest, ExitDissociatesEverything) {
  Handle port;
  SpawnArgs rargs;
  rargs.name = "doomed";
  const ProcessId rx = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), rargs);
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) { ctx.Exit(); });
  EXPECT_EQ(kernel_.FindProcess(rx), nullptr);
  EXPECT_FALSE(kernel_.PortAlive(port));
}

TEST_F(KernelTest, HandleValuesAreUniqueAndUnordered) {
  SpawnArgs args;
  args.name = "p";
  const ProcessId pid = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  std::vector<uint64_t> values;
  kernel_.WithProcessContext(pid, [&](ProcessContext& ctx) {
    for (int i = 0; i < 200; ++i) {
      values.push_back(ctx.NewHandle().value());
    }
  });
  std::set<uint64_t> unique(values.begin(), values.end());
  EXPECT_EQ(unique.size(), values.size());
  int ascending = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[i - 1]) {
      ++ascending;
    }
  }
  EXPECT_GT(ascending, 40);
  EXPECT_LT(ascending, 160) << "handles must not expose the allocation counter";
}

TEST_F(KernelTest, SelfLabelOperations) {
  SpawnArgs args;
  args.name = "p";
  const ProcessId pid = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  kernel_.WithProcessContext(pid, [&](ProcessContext& ctx) {
    const Handle mine = ctx.NewHandle();
    const Handle other = Handle::FromValue(0x4242);

    // Raising own send level (self-taint) is free.
    EXPECT_EQ(ctx.SetSendLevel(other, Level::kL3), Status::kOk);
    // Lowering it back without ⋆ is declassification: denied.
    EXPECT_EQ(ctx.SetSendLevel(other, Level::kL1), Status::kAccessDenied);
    // Dropping one's own ⋆ is always permitted.
    EXPECT_EQ(ctx.SetSendLevel(mine, Level::kL1), Status::kOk);
    // ...and is irreversible.
    EXPECT_EQ(ctx.SetSendLevel(mine, Level::kStar), Status::kAccessDenied);

    // Lowering the receive label (more restrictive) is free.
    EXPECT_EQ(ctx.SetReceiveLevel(other, Level::kL1), Status::kOk);
    // Raising it requires ⋆.
    EXPECT_EQ(ctx.SetReceiveLevel(other, Level::kL3), Status::kAccessDenied);
  });
}

// The pump delivers one message per scheduler pass. An OKWS-shaped trace —
// a server with a deep queue and an OnIdle hook, an echo peer bouncing
// replies, a label-dropped message mid-queue — must reproduce literal
// delivery order, OnIdle cadence and charged cycles. The literals were
// recorded from the batched pump this one replaced, at batch sizes 1 and
// 16 alike, so they pin that the cost model cannot tell the two apart.
namespace {

struct TraceResult {
  std::vector<std::string> order;   // delivery sequence, tagged per process
  std::vector<size_t> idle_after;   // deliveries seen at each OnIdle call
  uint64_t cycles = 0;              // virtual cycles consumed by the trace
  uint64_t drops = 0;
};

class IdleRecordingEcho : public ScriptedProcess {
 public:
  IdleRecordingEcho(TraceResult* result, Starter starter, Handler handler)
      : ScriptedProcess(std::move(starter), std::move(handler)), result_(result) {}
  void OnIdle(ProcessContext&) override { result_->idle_after.push_back(result_->order.size()); }
  bool HasOnIdle() const override { return true; }

 private:
  TraceResult* result_;
};

TraceResult RunPumpTrace() {
  TraceResult result;
  Kernel kernel(0x7ace);

  // "Worker": deep-queue server with an OnIdle hook; echoes type-1 requests
  // to the peer's reply port.
  Handle work_port, peer_port;
  SpawnArgs wargs;
  wargs.name = "worker";
  const ProcessId worker = kernel.CreateProcess(
      std::make_unique<IdleRecordingEcho>(
          &result, nullptr,
          [&](ProcessContext& ctx, const Message& msg) {
            result.order.push_back("worker:" + std::to_string(msg.words[0]));
            if (msg.type == 1) {
              Message reply;
              reply.type = 2;
              reply.words = {msg.words[0]};
              reply.data = msg.data;  // forward the body: a refcount move
              ASB_ASSERT(ctx.Send(peer_port, std::move(reply)) == Status::kOk);
            }
          }),
      wargs);
  kernel.WithProcessContext(worker, [&](ProcessContext& ctx) {
    work_port = ctx.NewPort(Label::Top());
    ASB_ASSERT(ctx.SetPortLabel(work_port, Label::Top()) == Status::kOk);
  });

  // "Peer": collects echoes.
  SpawnArgs pargs;
  pargs.name = "peer";
  const ProcessId peer = kernel.CreateProcess(
      std::make_unique<ScriptedProcess>(nullptr,
                                        [&](ProcessContext&, const Message& msg) {
                                          result.order.push_back(
                                              "peer:" + std::to_string(msg.words[0]));
                                        }),
      pargs);
  kernel.WithProcessContext(peer, [&](ProcessContext& ctx) {
    peer_port = ctx.NewPort(Label::Top());
    ASB_ASSERT(ctx.SetPortLabel(peer_port, Label::Top()) == Status::kOk);
  });

  // The trace: two pump rounds of a deep queue, with a doomed contaminated
  // message lodged mid-queue in round one (skipped in the same pass that
  // delivers the message behind it).
  const uint64_t start_cycles = GetCycleAccounting().now();
  SpawnArgs sargs;
  sargs.name = "client";
  const ProcessId client = kernel.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  kernel.WithProcessContext(client, [&](ProcessContext& ctx) {
    const Handle taint = ctx.NewHandle();
    for (uint64_t i = 0; i < 8; ++i) {
      Message m;
      m.type = 1;
      m.words = {i};
      m.data = Payload(std::string(256, 'q'));
      if (i == 3) {
        // Receiver never learns about the taint handle: delivery-time check
        // fails and the message silently drops.
        SendArgs args;
        args.contaminate = Label({{taint, Level::kL3}}, Level::kStar);
        ASB_ASSERT(ctx.Send(work_port, std::move(m), args) == Status::kOk);
      } else {
        ASB_ASSERT(ctx.Send(work_port, std::move(m)) == Status::kOk);
      }
    }
  });
  kernel.RunUntilIdle();
  kernel.WithProcessContext(client, [&](ProcessContext& ctx) {
    for (uint64_t i = 8; i < 12; ++i) {
      Message m;
      m.type = 1;
      m.words = {i};
      ASB_ASSERT(ctx.Send(work_port, std::move(m)) == Status::kOk);
    }
  });
  kernel.RunUntilIdle();

  result.cycles = GetCycleAccounting().now() - start_cycles;
  result.drops = kernel.stats().drops_label_check;
  return result;
}

}  // namespace

TEST(PumpTest, DeliveryTraceMatchesPinnedOrderCyclesAndIdleCadence) {
  const TraceResult trace = RunPumpTrace();

  const std::vector<std::string> expected_order = {
      "worker:0",  "peer:0",  "worker:1",  "peer:1",  "worker:2",  "peer:2",
      "worker:4",  "peer:4",  "worker:5",  "peer:5",  "worker:6",  "peer:6",
      "worker:7",  "peer:7",  "worker:8",  "peer:8",  "worker:9",  "peer:9",
      "worker:10", "peer:10", "worker:11", "peer:11"};
  EXPECT_EQ(trace.order, expected_order);
  EXPECT_EQ(trace.drops, 1u) << "the contaminated message 3 drops at delivery";
  EXPECT_EQ(trace.idle_after, (std::vector<size_t>{14, 22}))
      << "OnIdle fires once per quiesced pump";
  EXPECT_EQ(trace.cycles, 504717u) << "charged virtual cycles";
}

TEST_F(KernelTest, SelfContaminatePreservesStars) {
  SpawnArgs args;
  args.name = "p";
  const ProcessId pid = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  kernel_.WithProcessContext(pid, [&](ProcessContext& ctx) {
    const Handle mine = ctx.NewHandle();
    const Handle other = Handle::FromValue(0x4242);
    Label add({{mine, Level::kL3}, {other, Level::kL3}}, Level::kStar);
    ctx.SelfContaminate(add);
    EXPECT_EQ(ctx.send_label().Get(mine), Level::kStar);
    EXPECT_EQ(ctx.send_label().Get(other), Level::kL3);
  });
}

}  // namespace
}  // namespace asbestos
