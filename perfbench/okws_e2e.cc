// okws_e2e: the repository's end-to-end benchmark.
//
// Drives a whole OKWS machine (OkwsWorld: SimNet wire, kernel, netd,
// ok-demux, idd, ok-dbproxy, workers) through its public API only, with a
// closed loop of 4 HTTP connections from one thread, and reports both clocks:
//   wall_*   host time on this machine (std::chrono::steady_clock), measured;
//   model_*  the paper's charged-cycle cost model at costs::kCpuHz, computed.
// Every response is checked against an oracle. The traced mode (--trace 1)
// replaces OkwsWorld::Pump() with its public equivalent and times each call
// into a layer from here; the program itself is not instrumented. See
// perfbench/README.md for the workloads, the metrics and what should move them.
//
//   okws_e2e --workload hot_echo|sessions_10k|notes_durable --seed N
//            --seconds S --trace 0|1 --scratch DIR [--commit SHA]
//
// A run repeats whole rounds (fresh machine, set-up, measured phase), each in
// its own forked process, while another round fits in S seconds; at least one
// round always completes. Every round of a run replays the same seeded
// schedule, so the charged clock must read the same in each: a difference
// fails the run. The last stdout line is the JSON result.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/db/dbproxy.h"
#include "src/kernel/label_checks.h"
#include "src/labels/intern.h"
#include "src/labels/label.h"
#include "src/obs/metrics.h"
#include "src/okws/demux.h"
#include "src/okws/idd.h"
#include "src/okws/okws_world.h"
#include "src/okws/services.h"
#include "src/replication/link.h"
#include "src/replication/source.h"
#include "src/sim/costs.h"
#include "src/sim/cycles.h"
#include "src/store/store.h"

namespace asbestos {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

// --- Workloads ----------------------------------------------------------------

constexpr int kConnections = 4;  // closed loop; the paper's Figure 8 concurrency
constexpr size_t kEchoBodyBytes = 11;  // EchoService default: a 144-byte response
constexpr uint16_t kDbproxyReplPort = 7102;
constexpr uint16_t kFollowerPort = 7202;
// After its measured phase, each untraced round's process sets up more
// machines as set-up samples: at most kMaxSetupsPerRound, evenly spaced over
// a window of kSetupShare of the measured phase's time or, in the run's last
// round, the rest of the run.
constexpr double kSetupShare = 0.1;
constexpr size_t kMaxSetupsPerRound = 64;
constexpr size_t kMaxRounds = 128;

struct Spec {
  const char* name;
  uint64_t users;
  uint64_t requests;  // measured-phase schedule length of one round
  bool notes;         // NotesService on disk stores, dbproxy WAL shipped to a follower
  // Figure 7's schedule: pass-major, each pass visiting every user once in a
  // fresh seeded order, the first pass logging them in. Otherwise every user
  // logs in during set-up and each request picks a seeded random user.
  bool fig7_passes;
};

// Why each workload exists is in README.md. Sizes: a hot_echo round takes
// about a second on a 4-core host, a sessions_10k round is the whole Figure 7
// 10^4-session schedule (1 login + 3 cached requests per user), and a
// notes_durable round is a fixed count because bytes per write grow with the
// table; at 2000 requests a run holds several rounds, whose median outlasts
// the shared disk's fsync stalls better than one long round.
constexpr Spec kSpecs[] = {
    {"hot_echo", 16, 20000, false, false},
    {"sessions_10k", 10000, 40000, false, true},
    {"notes_durable", 100, 2000, true, false},
};

enum class Kind : uint8_t { kEcho, kAdd, kList };

struct Req {
  Kind kind = Kind::kEcho;
  uint32_t user = 0;
  std::string text;  // note text of a kAdd
};

std::string UserName(uint64_t i) { return StrFormat("user%06llu", (unsigned long long)i); }
std::string UserPass(uint64_t i) { return StrFormat("pw%06llu", (unsigned long long)i); }

std::string HttpRequest(const Req& r) {
  std::string target = "/echo";
  if (r.kind == Kind::kAdd) {
    target = "/notes?op=add&text=" + r.text;
  } else if (r.kind == Kind::kList) {
    target = "/notes?op=list";
  }
  return OkwsWorld::MakeRequest(target, UserName(r.user), UserPass(r.user));
}

// Fisher-Yates over [0, n) from the benchmark's own Rng (std::shuffle's
// algorithm is library-defined; the schedule must not depend on it).
std::vector<uint32_t> Permutation(uint64_t n, Rng& rng) {
  std::vector<uint32_t> p(n);
  for (uint64_t i = 0; i < n; ++i) {
    p[i] = static_cast<uint32_t>(i);
  }
  for (uint64_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.NextBelow(i)]);
  }
  return p;
}

// The seeded request stream of one phase. `busy` marks users with a request
// in flight: notes requests never overlap for one user, so a list's expected
// body is exactly that user's earlier adds. The simulation is deterministic,
// so the stream is a function of the seed alone.
class Schedule {
 public:
  Schedule(const Spec& spec, uint64_t seed, bool warmup)
      : spec_(spec), rng_(seed), warmup_(warmup) {}

  uint64_t length() const { return warmup_ ? spec_.users : spec_.requests; }

  Req Next(const std::vector<bool>& busy) {
    Req r;
    const uint64_t i = issued_++;
    if (warmup_ || spec_.fig7_passes) {
      // Pass-major: each pass visits every user once, in a fresh seeded order.
      if (i % spec_.users == 0) {
        order_ = Permutation(spec_.users, rng_);
      }
      r.user = order_[i % spec_.users];
      r.kind = spec_.notes ? Kind::kList : Kind::kEcho;
      return r;
    }
    do {
      r.user = static_cast<uint32_t>(rng_.NextBelow(spec_.users));
    } while (spec_.notes && busy[r.user]);
    if (!spec_.notes) {
      return r;
    }
    // Exactly one list in every block of ten, at a seeded position: the mix
    // is 90/10 in every run, so seeds differ in order, not in work.
    if (i % 10 == 0) {
      list_slot_ = rng_.NextBelow(10);
    }
    r.kind = i % 10 == list_slot_ ? Kind::kList : Kind::kAdd;
    if (r.kind == Kind::kAdd) {
      r.text = StrFormat("n%llu-", (unsigned long long)i);
      for (int k = 0; k < 6; ++k) {
        r.text.push_back(static_cast<char>('a' + rng_.NextBelow(26)));
      }
    }
    return r;
  }

 private:
  const Spec& spec_;
  Rng rng_;
  bool warmup_;
  uint64_t issued_ = 0;
  uint64_t list_slot_ = 0;
  std::vector<uint32_t> order_;
};

// --- Tracing ------------------------------------------------------------------

// One span per call into a layer. Kernel::Step() spans take the Figure 9
// component whose charged cycles grew most during the step (kernel_ipc
// included: a step that only pays delivery and label checks is kernel time).
enum Layer : uint8_t {
  kLoadgen,
  kNetdPoll,
  kStepOkws,  // kStepOkws + Component: one per Figure 9 component
  kStepNet,
  kStepIpc,
  kStepDb,
  kStepOther,
  kIdleTail,  // RunUntilIdle() after Step() ran dry: the OnIdle hooks
  kRepl,      // ReplicationLink::Step + FollowerWorld::Pump
  kLayerCount
};
static_assert(kStepOther - kStepOkws + 1 == kComponentCount, "one step layer per component");

const char* const kLayerNames[kLayerCount] = {"loadgen", "netd_poll", "step.okws",
                                              "step.network", "step.kernel_ipc", "step.okdb",
                                              "step.other", "idle_tail", "repl"};

struct Span {
  uint64_t iteration;  // the machine iteration (parent span) it belongs to
  uint64_t start_ns;   // since the measured phase began
  uint32_t dur_ns;
  Layer layer;
};

using CycleTotals = std::array<uint64_t, kComponentCount>;

CycleTotals ChargedTotals() {
  CycleTotals t;
  for (int c = 0; c < kComponentCount; ++c) {
    t[c] = GetCycleAccounting().total(static_cast<Component>(c));
  }
  return t;
}

class Tracer {
 public:
  // Spans stay in memory; past this many only the per-layer sums grow.
  static constexpr size_t kMaxSpans = 1 << 16;

  explicit Tracer(Clock::time_point origin) : origin_(origin) { spans_.reserve(kMaxSpans); }

  void Add(Layer layer, Clock::time_point start, Clock::time_point end) {
    const uint64_t dur = static_cast<uint64_t>((end - start).count());
    layer_ns_[layer] += dur;
    if (spans_.size() < kMaxSpans) {
      spans_.push_back({iteration_, static_cast<uint64_t>((start - origin_).count()),
                        static_cast<uint32_t>(std::min<uint64_t>(dur, UINT32_MAX)), layer});
    }
  }
  void NextIteration() { ++iteration_; }

  uint64_t layer_ns(Layer l) const { return layer_ns_[l]; }
  uint64_t covered_ns() const {
    uint64_t sum = 0;
    for (uint64_t ns : layer_ns_) {
      sum += ns;
    }
    return sum;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  uint64_t iteration_ = 0;
  std::array<uint64_t, kLayerCount> layer_ns_{};
  std::vector<Span> spans_;
};

static_assert(std::is_same<Clock::duration, std::chrono::nanoseconds>::value,
              "span arithmetic assumes a nanosecond steady_clock");

// --- Counters read from outside -----------------------------------------------

// Every counter the per-layer metrics difference across the measured phase.
// netd.*, pump.*, store.*, repl.*, labels and the label-check cache are
// process-global, so on notes_durable they sum the primary and the follower
// machine; the kernel counts read the primary's own Kernel::stats().
enum Count : uint8_t {
  kSends,
  kDeliveries,
  kEpsCreated,
  kCowPages,
  kLabelDrops,
  kNetdReads,
  kNetdWriteBytes,
  kPumpBatches,
  kPumpBatchMsgs,
  kWalSyncs,
  kReplBatches,
  kReplSnapshots,
  kLabelOps,
  kLabelEntries,
  kLabelFastPath,
  kInternProbes,
  kInternHits,
  kCacheHits,
  kCacheMisses,
  kCountKinds
};
using Counters = std::array<uint64_t, kCountKinds>;

Counters ReadCounters(const Kernel& k) {
  obs::Registry& reg = obs::Registry::Get();
  Counters c{};
  c[kSends] = k.stats().sends;
  c[kDeliveries] = k.stats().deliveries;
  c[kEpsCreated] = k.stats().eps_created;
  c[kCowPages] = k.stats().cow_pages_copied;
  c[kLabelDrops] = k.stats().drops_label_check;
  c[kNetdReads] = reg.counter("netd.reads").value();
  c[kNetdWriteBytes] = reg.counter("netd.write_bytes").value();
  c[kPumpBatches] = reg.histogram("pump.msgs_per_batch").count();
  c[kPumpBatchMsgs] = reg.histogram("pump.msgs_per_batch").sum();
  c[kWalSyncs] = reg.counter("store.wal_syncs").value();
  c[kReplBatches] = reg.counter("repl.batches_shipped").value();
  c[kReplSnapshots] = reg.counter("repl.snapshots_shipped").value();
  c[kLabelOps] = GetLabelWorkStats().ops;
  c[kLabelEntries] = GetLabelWorkStats().entries_visited;
  c[kLabelFastPath] = GetLabelWorkStats().fast_path_hits;
  c[kInternProbes] = GetLabelInternStats().probes;
  c[kInternHits] = GetLabelInternStats().hits;
  c[kCacheHits] = GetLabelCheckCacheStats().hits;
  c[kCacheMisses] = GetLabelCheckCacheStats().misses;
  return c;
}

// --- One round: a fresh machine, its set-up and its measured phase -------------

// What a round's child process sends back: fixed-size, so it travels in one
// write() and the parent's heap stays the same from round to round. (A forked
// child's peak RSS starts at the parent's RSS, so a parent that grew with
// every round would read as a growing program.) The per-request wall
// latencies go to a file instead, and a traced round writes its own spans.
struct RoundResult {
  bool traced = false;
  double setup_s = 0;
  double measured_s = 0;
  uint64_t attempted = 0;
  uint64_t completed = 0;  // 200 responses that passed the oracle
  uint64_t failed = 0;     // connection failures + non-200 + oracle mismatches
  uint64_t adds = 0;
  // Charged-clock latencies: percentiles, and a digest of the whole sequence
  // that every round of a run must reproduce.
  uint64_t model_p50_cycles = 0;
  uint64_t model_p99_cycles = 0;
  uint64_t model_latency_digest = 0;
  uint64_t model_cycles = 0;      // charged-clock advance over the measured phase
  CycleTotals charged{};          // per component, both machines
  CycleTotals follower_charged{};  // the follower machine's share
  Counters delta{};
  uint64_t repl_bytes = 0;
  uint64_t compactions = 0;
  uint64_t sessions = 0;
  int64_t label_live_bytes = 0;
  KernelMemReport mem;
  uint64_t delivering_steps = 0;
  std::array<uint64_t, kLayerCount> layer_ns{};
  uint64_t covered_ns = 0;
  double peak_rss_mb = 0;  // the round's process
  size_t setup_count = 0;  // machines set up after the round, one sample each
  std::array<double, kMaxSetupsPerRound> setup_samples{};
};
static_assert(std::is_trivially_copyable<RoundResult>::value, "sent through a pipe as bytes");

// FNV-1a over the words: equal sequences, equal digests.
uint64_t Digest(const std::vector<uint64_t>& v) {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t x : v) {
    h = (h ^ x) * 1099511628211ULL;
  }
  return h;
}

// Nearest-rank percentile (q in (0, 1]).
template <typename T>
double Percentile(std::vector<T> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<size_t>(rank, 1) - 1]);
}

template <typename T>
T* FindCode(Kernel& kernel, const char* name) {
  Process* p = kernel.FindProcessByName(name);
  return p == nullptr ? nullptr : dynamic_cast<T*>(p->code.get());
}

class Round {
 public:
  Round(const Spec& spec, uint64_t seed, const std::string& dir)
      : spec_(spec), seed_(seed), dir_(dir), notes_(spec.users), busy_(spec.users, false) {
    std::filesystem::create_directories(dir_);
  }

  ~Round() {
    link_.reset();
    follower_.reset();
    world_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;

  // Boots the machine(s), logs users in when the workload says so, and lets
  // the follower catch up. Everything here is set-up time.
  void SetUp(RoundResult* out) {
    const Clock::time_point start = Clock::now();
    OkwsWorldConfig config;
    config.users.reserve(spec_.users);
    for (uint64_t i = 0; i < spec_.users; ++i) {
      config.users.push_back({UserName(i), UserPass(i)});
    }
    if (spec_.notes) {
      config.services.push_back({"notes", [] { return std::make_unique<NotesService>(); },
                                 false, {}});
      config.extra_tables = {NotesService::kTableSql};
      config.idd_options.store_dir = dir_ + "/idd";
      config.demux_options.store_dir = dir_ + "/demux";
      config.dbproxy_options.store_dir = dir_ + "/dbproxy";
      config.dbproxy_options.replication.listen_tcp_port = kDbproxyReplPort;
    } else {
      config.services.push_back({"echo", [] { return std::make_unique<EchoService>(); },
                                 false, {}});
    }
    world_ = std::make_unique<OkwsWorld>(std::move(config));
    if (spec_.notes) {
      follower_ = std::make_unique<FollowerWorld>(
          0x3333, kFollowerPort, StoreOptions{dir_ + "/dbproxy-replica", 4, 1024, 4});
      // A standalone follower kernel would otherwise register its
      // kernel.stats.* gauges under the primary's names.
      follower_->kernel().SetMetricsPrefix("replica1.");
      link_ = std::make_unique<ReplicationLink>(&world_->net(), kDbproxyReplPort,
                                                &follower_->net(), kFollowerPort);
    }
    world_->PumpUntilReady();
    dbproxy_ = FindCode<DbproxyProcess>(world_->kernel(), "dbproxy");
    if (!spec_.fig7_passes) {
      Schedule schedule(spec_, seed_ ^ 0x5741524dULL, /*warmup=*/true);
      RoundResult warm;
      Drive(&schedule, nullptr, /*record=*/false, &warm);
      out->attempted += warm.attempted;
      out->failed += warm.failed;
    }
    if (follower_ != nullptr && !PumpUntilSynced()) {
      std::fprintf(stderr, "okws_e2e: follower did not sync during set-up\n");
      ++out->failed;
    }
    out->setup_s = Seconds(Clock::now() - start);
  }

  void Measure(bool traced, RoundResult* out) {
    out->traced = traced;
    Kernel& kernel = world_->kernel();
    const Counters before = ReadCounters(kernel);
    const CycleTotals charged_before = ChargedTotals();
    const uint64_t clock_before = GetCycleAccounting().now();
    const uint64_t repl_before = link_ == nullptr ? 0 : link_->bytes_to_follower();
    const uint64_t compactions_before = Compactions();
    follower_charged_ = {};

    const Clock::time_point start = Clock::now();
    if (traced) {
      tracer_ = std::make_unique<Tracer>(start);
    }
    Schedule schedule(spec_, seed_, /*warmup=*/false);
    wall_latency_us_.assign(schedule.length(), 0.0);
    Drive(&schedule, tracer_.get(), /*record=*/true, out);
    out->measured_s = Seconds(Clock::now() - start);

    out->model_p50_cycles = static_cast<uint64_t>(Percentile(model_latency_cycles_, 0.50));
    out->model_p99_cycles = static_cast<uint64_t>(Percentile(model_latency_cycles_, 0.99));
    out->model_latency_digest = Digest(model_latency_cycles_);
    out->model_cycles = GetCycleAccounting().now() - clock_before;
    const CycleTotals charged_after = ChargedTotals();
    for (int c = 0; c < kComponentCount; ++c) {
      out->charged[c] = charged_after[c] - charged_before[c];
    }
    out->follower_charged = follower_charged_;
    const Counters after = ReadCounters(kernel);
    for (int i = 0; i < kCountKinds; ++i) {
      out->delta[i] = after[i] - before[i];
    }
    out->repl_bytes = link_ == nullptr ? 0 : link_->bytes_to_follower() - repl_before;
    out->compactions = Compactions() - compactions_before;
    DemuxProcess* demux = world_->demux();
    out->sessions = demux == nullptr ? 0 : demux->session_count();
    out->label_live_bytes = GetLabelMemStats().live_bytes;
    out->mem = kernel.MemReport();
    if (tracer_ != nullptr) {
      for (int l = 0; l < kLayerCount; ++l) {
        out->layer_ns[l] = tracer_->layer_ns(static_cast<Layer>(l));
      }
      out->covered_ns = tracer_->covered_ns();
    }
    out->delivering_steps = delivering_steps_;
  }

  // The measured phase's wall latencies in schedule order, as raw doubles.
  bool WriteLatencies(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return false;
    }
    const size_t n = wall_latency_us_.size();
    const bool ok = std::fwrite(wall_latency_us_.data(), sizeof(double), n, f) == n;
    return std::fclose(f) == 0 && ok;
  }

  // The traced measured phase's spans, as TSV.
  void WriteSpans(const std::string& path) const {
    FILE* f = tracer_ == nullptr ? nullptr : std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "okws_e2e: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "iteration\tlayer\tstart_ns\tdur_ns\n");
    for (const Span& s : tracer_->spans()) {
      std::fprintf(f, "%llu\t%s\t%llu\t%u\n", (unsigned long long)s.iteration,
                   kLayerNames[s.layer], (unsigned long long)s.start_ns, s.dur_ns);
    }
    std::fclose(f);
  }

  // After the measured phase: the follower must hold dbproxy's store record
  // for record, labels included. Returns the number of mismatches.
  uint64_t CheckReplica() {
    if (follower_ == nullptr) {
      return 0;
    }
    if (!PumpUntilSynced() || dbproxy_ == nullptr || dbproxy_->store() == nullptr) {
      std::fprintf(stderr, "okws_e2e: follower did not sync after the measured phase\n");
      return 1;
    }
    const DurableStore* primary = dbproxy_->store();
    const DurableStore* replica = follower_->follower()->replica()->store();
    uint64_t mismatches = primary->size() == replica->size() ? 0 : 1;
    primary->ForEach([&](const std::string& key, const StoreRecord& want) {
      const StoreRecord* got = replica->Get(key);
      if (got == nullptr || got->value != want.value || !(got->secrecy == want.secrecy) ||
          !(got->integrity == want.integrity)) {
        ++mismatches;
      }
    });
    if (mismatches != 0) {
      std::fprintf(stderr, "okws_e2e: %llu replica records differ from dbproxy's store\n",
                   (unsigned long long)mismatches);
    }
    return mismatches;
  }

 private:
  // Closed loop: kConnections requests outstanding; a request's successor is
  // enqueued only when its reply lands. `record` keeps per-request latencies:
  // wall ones by schedule position, charged ones in completion order.
  void Drive(Schedule* schedule, Tracer* tracer, bool record, RoundResult* out) {
    HttpLoadClient client(&world_->net(), 80, kConnections);
    struct InFlight {
      uint64_t tag;
      Req req;
      Clock::time_point enqueued;
    };
    std::vector<InFlight> slots;
    uint64_t issued = 0;
    const auto fill = [&] {
      while (slots.size() < static_cast<size_t>(kConnections) && issued < schedule->length()) {
        InFlight f{issued, schedule->Next(busy_), Clock::now()};
        busy_[f.req.user] = true;
        client.Enqueue(HttpRequest(f.req), f.tag);
        slots.push_back(std::move(f));
        ++issued;
        ++out->attempted;
      }
    };
    fill();
    uint64_t stagnant = 0;
    while (!slots.empty()) {
      const Clock::time_point t0 = Clock::now();
      client.Step();
      const Clock::time_point t1 = Clock::now();
      if (tracer != nullptr) {
        tracer->Add(kLoadgen, t0, t1);
      }
      if (client.failures() != 0) {
        // The lost request's tag is unknown: abandon the phase.
        std::fprintf(stderr, "okws_e2e: %llu connection failures\n",
                     (unsigned long long)client.failures());
        out->failed += slots.size();
        break;
      }
      std::vector<HttpLoadClient::Result>& results = client.results();
      const bool progressed = !results.empty();
      for (const HttpLoadClient::Result& r : results) {
        auto it = std::find_if(slots.begin(), slots.end(),
                               [&](const InFlight& f) { return f.tag == r.tag; });
        if (it == slots.end()) {
          ++out->failed;
          continue;
        }
        busy_[it->req.user] = false;
        if (Check(it->req, r)) {
          ++out->completed;
        } else {
          ++out->failed;
        }
        if (it->req.kind == Kind::kAdd) {
          ++out->adds;
        }
        if (record) {
          wall_latency_us_[it->tag] =
              std::chrono::duration<double, std::micro>(t1 - it->enqueued).count();
          model_latency_cycles_.push_back(r.end_cycles - r.start_cycles);
        }
        slots.erase(it);
      }
      results.clear();
      fill();
      PumpPrimary(tracer);
      PumpFollower(tracer);
      if (tracer != nullptr) {
        tracer->NextIteration();
      }
      stagnant = progressed ? 0 : stagnant + 1;
      if (stagnant > 200000) {
        std::fprintf(stderr, "okws_e2e: no reply for 200000 iterations; %zu in flight\n",
                     slots.size());
        out->failed += slots.size();
        break;
      }
    }
  }

  bool Check(const Req& req, const HttpLoadClient::Result& r) {
    if (r.status != 200) {
      return false;
    }
    std::vector<std::string>& mine = notes_[req.user];
    switch (req.kind) {
      case Kind::kEcho:
        return r.body == std::string(kEchoBodyBytes, 'x');
      case Kind::kAdd:
        if (r.body != "added 1") {
          return false;
        }
        mine.push_back(req.text);
        return true;
      case Kind::kList: {
        // Exactly this user's notes, in order; any other user's note is a
        // label-isolation failure.
        std::string want;
        for (const std::string& n : mine) {
          want += n;
          want += '\n';
        }
        return r.body == want;
      }
    }
    return false;
  }

  // OkwsWorld::Pump(), or with a tracer its public equivalent with every call
  // timed: the netd poll, each Kernel::Step(), then RunUntilIdle() for the
  // OnIdle hooks (Step() has already drained the run queue, so RunUntilIdle's
  // own first Step() finds nothing and charges nothing).
  void PumpPrimary(Tracer* tracer) {
    if (tracer == nullptr) {
      world_->Pump();
      return;
    }
    Kernel& kernel = world_->kernel();
    Clock::time_point t = Clock::now();
    kernel.WithProcessContext(world_->netd_pid(),
                              [&](ProcessContext& ctx) { world_->netd()->PollNetwork(ctx); });
    Clock::time_point next = Clock::now();
    tracer->Add(kNetdPoll, t, next);
    while (true) {
      t = next;
      const CycleTotals before = ChargedTotals();
      const bool delivered = kernel.Step();
      next = Clock::now();
      tracer->Add(StepLayer(before, ChargedTotals()), t, next);
      if (!delivered) {
        break;
      }
      ++delivering_steps_;
    }
    t = next;
    kernel.RunUntilIdle();
    tracer->Add(kIdleTail, t, Clock::now());
  }

  // The follower machine and the wire to it. CycleAccounting is process-
  // global, so what the follower charges here lands in the primary's totals
  // and on the shared charged clock; the bracket keeps it attributable.
  void PumpFollower(Tracer* tracer) {
    if (follower_ == nullptr) {
      return;
    }
    const Clock::time_point t = Clock::now();
    const CycleTotals before = ChargedTotals();
    link_->Step();
    follower_->Pump();
    const CycleTotals after = ChargedTotals();
    for (int c = 0; c < kComponentCount; ++c) {
      follower_charged_[c] += after[c] - before[c];
    }
    if (tracer != nullptr) {
      tracer->Add(kRepl, t, Clock::now());
    }
  }

  static Layer StepLayer(const CycleTotals& before, const CycleTotals& after) {
    int best = kComponentCount - 1;  // a step that charged nothing is scheduling
    uint64_t best_delta = 0;
    for (int c = 0; c < kComponentCount; ++c) {
      if (after[c] - before[c] > best_delta) {
        best_delta = after[c] - before[c];
        best = c;
      }
    }
    return static_cast<Layer>(kStepOkws + best);
  }

  bool PumpUntilSynced() {
    const ReplicationEndpoint* endpoint = dbproxy_ == nullptr ? nullptr : dbproxy_->replication();
    for (int i = 0; i < 20000; ++i) {
      if (endpoint != nullptr && endpoint->hub()->AllFullySynced()) {
        return true;
      }
      link_->Step();
      world_->Pump();
      follower_->Pump();
    }
    return false;
  }

  uint64_t Compactions() {
    uint64_t n = 0;
    if (dbproxy_ != nullptr && dbproxy_->store() != nullptr) {
      n += dbproxy_->store()->compactions();
    }
    IddProcess* idd = FindCode<IddProcess>(world_->kernel(), "idd");
    if (idd != nullptr && idd->store() != nullptr) {
      n += idd->store()->compactions();
    }
    DemuxProcess* demux = world_->demux();
    if (demux != nullptr && demux->store() != nullptr) {
      n += demux->store()->compactions();
    }
    return n;
  }

  const Spec& spec_;
  uint64_t seed_;
  std::string dir_;
  std::unique_ptr<OkwsWorld> world_;
  std::unique_ptr<FollowerWorld> follower_;
  std::unique_ptr<ReplicationLink> link_;
  DbproxyProcess* dbproxy_ = nullptr;
  std::vector<std::vector<std::string>> notes_;  // oracle: each user's adds, in order
  std::vector<bool> busy_;
  CycleTotals follower_charged_{};
  uint64_t delivering_steps_ = 0;
  std::unique_ptr<Tracer> tracer_;  // traced rounds only
  std::vector<double> wall_latency_us_;
  std::vector<uint64_t> model_latency_cycles_;
};

// --- Reporting -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;  // store directories; emptied round by round
  std::string out;      // result record and spans
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--scratch") {
      a->scratch = value;
    } else if (flag == "--out") {
      a->out = value;
    } else if (flag == "--commit") {
      a->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->scratch.empty() && !a->out.empty() &&
         a->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The end-to-end metrics, from the untraced rounds. The wall rate is the
// median of the rounds' rates, so one round disturbed by the host does not
// move it; the wall percentiles are over `wall_latency_us`, each request's
// median latency across those rounds. model_* come from the first round;
// every other round must have replayed it exactly. Model latencies are
// charged cycles, reported in kcyc like the per-layer charges (µs at
// costs::kCpuHz are printed beside them).
std::vector<Metric> EndToEnd(const Spec& spec, const std::vector<RoundResult>& rounds,
                             const std::vector<double>& wall_latency_us,
                             const std::vector<double>& setups, double peak_rss_mb) {
  std::vector<double> rates;
  for (const RoundResult& r : rounds) {
    if (!r.traced) {
      rates.push_back(Ratio(static_cast<double>(r.completed), r.measured_s));
    }
  }
  const RoundResult& first = rounds.front();
  const double us_per_cycle = 1e6 / costs::kCpuHz;
  std::printf("samples: %zu requests' median latencies over %zu untraced rounds, %zu set-ups\n",
              wall_latency_us.size(), rates.size(), setups.size());
  std::printf("model latency: p50 %.3f us, p99 %.3f us at %.1f GHz\n",
              static_cast<double>(first.model_p50_cycles) * us_per_cycle,
              static_cast<double>(first.model_p99_cycles) * us_per_cycle, costs::kCpuHz / 1e9);
  return {
      {"wall_req_per_s", Median(rates), "req/s"},
      {"wall_p50_us", Percentile(wall_latency_us, 0.50), "us"},
      {"wall_p99_us", Percentile(wall_latency_us, 0.99), "us"},
      {"model_conn_per_s",
       Ratio(static_cast<double>(first.completed),
             static_cast<double>(first.model_cycles) / costs::kCpuHz),
       "conn/s"},
      {"model_p50_kcyc", static_cast<double>(first.model_p50_cycles) / 1e3, "kcyc"},
      {"model_p99_kcyc", static_cast<double>(first.model_p99_cycles) / 1e3, "kcyc"},
      {"model_bytes_per_user",
       Ratio(static_cast<double>(first.mem.total_bytes()), static_cast<double>(spec.users)),
       "B"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"setup_s", Median(setups), "s"},
  };
}

// The per-layer metrics, from the traced rounds; wall times are span sums,
// and the bare counts (compactions, snapshots) are per round.
// The layers' charged cycles exclude the follower machine, which
// repl.follower_kcyc_per_req reports on its own.
std::vector<Metric> PerLayer(const Spec& spec, const std::vector<RoundResult>& rounds) {
  uint64_t traced_rounds = 0;
  uint64_t completed = 0;
  uint64_t adds = 0;
  uint64_t steps = 0;
  uint64_t repl_bytes = 0;
  uint64_t compactions = 0;
  uint64_t covered_ns = 0;
  double measured_s = 0;
  CycleTotals primary{};
  uint64_t follower = 0;
  std::array<uint64_t, kLayerCount> ns{};
  Counters d{};
  std::vector<double> traced_rates;
  std::vector<double> untraced_rates;
  for (const RoundResult& r : rounds) {
    const double rate = Ratio(static_cast<double>(r.completed), r.measured_s);
    (r.traced ? traced_rates : untraced_rates).push_back(rate);
    if (!r.traced) {
      continue;
    }
    ++traced_rounds;
    completed += r.completed;
    adds += r.adds;
    steps += r.delivering_steps;
    repl_bytes += r.repl_bytes;
    compactions += r.compactions;
    covered_ns += r.covered_ns;
    measured_s += r.measured_s;
    for (int c = 0; c < kComponentCount; ++c) {
      primary[c] += r.charged[c] - r.follower_charged[c];
      follower += r.follower_charged[c];
    }
    for (int l = 0; l < kLayerCount; ++l) {
      ns[l] += r.layer_ns[l];
    }
    for (int i = 0; i < kCountKinds; ++i) {
      d[i] += r.delta[i];
    }
  }
  const RoundResult& last = rounds.back();
  const double n = static_cast<double>(completed);
  const auto per_req = [&](double x) { return Ratio(x, n); };
  const auto us = [&](Layer l) { return per_req(static_cast<double>(ns[l]) / 1e3); };
  const auto kcyc = [&](Component c) {
    return per_req(static_cast<double>(primary[static_cast<size_t>(c)]) / 1e3);
  };
  const double users = static_cast<double>(spec.users);
  return {
      {"net.loadgen_us_per_req", us(kLoadgen), "us"},
      {"net.netd_poll_us_per_req", us(kNetdPoll), "us"},
      {"net.step_us_per_req", us(kStepNet), "us"},
      {"net.kcyc_per_req", kcyc(Component::kNetwork), "kcyc"},
      {"net.reads_per_req", per_req(d[kNetdReads]), "count"},
      {"net.write_bytes_per_req", per_req(d[kNetdWriteBytes]), "B"},
      {"kernel.steps_per_req", per_req(steps), "count"},
      {"kernel.ipc_step_us_per_req", us(kStepIpc), "us"},
      {"kernel.ipc_kcyc_per_req", kcyc(Component::kKernelIpc), "kcyc"},
      {"kernel.other_step_us_per_req", us(kStepOther), "us"},
      {"kernel.other_kcyc_per_req", kcyc(Component::kOther), "kcyc"},
      {"kernel.sends_per_req", per_req(d[kSends]), "count"},
      {"kernel.deliveries_per_req", per_req(d[kDeliveries]), "count"},
      {"kernel.eps_created_per_req", per_req(d[kEpsCreated]), "count"},
      {"kernel.cow_pages_per_req", per_req(d[kCowPages]), "count"},
      {"kernel.pump_msgs_per_batch", Ratio(d[kPumpBatchMsgs], d[kPumpBatches]), "count"},
      {"kernel.label_cache_hit_ratio", Ratio(d[kCacheHits], d[kCacheHits] + d[kCacheMisses]),
       "ratio"},
      {"kernel.label_drops_per_req", per_req(d[kLabelDrops]), "count"},
      {"labels.ops_per_req", per_req(d[kLabelOps]), "count"},
      {"labels.entries_visited_per_req", per_req(d[kLabelEntries]), "count"},
      {"labels.fast_path_ratio", Ratio(d[kLabelFastPath], d[kLabelOps]), "ratio"},
      {"labels.intern_probes_per_req", per_req(d[kInternProbes]), "count"},
      {"labels.intern_hit_ratio", Ratio(d[kInternHits], d[kInternProbes]), "ratio"},
      {"labels.live_bytes", static_cast<double>(last.label_live_bytes), "B"},
      {"okws.step_us_per_req", us(kStepOkws), "us"},
      {"okws.kcyc_per_req", kcyc(Component::kOkws), "kcyc"},
      {"okws.sessions", static_cast<double>(last.sessions), "count"},
      {"db.step_us_per_req", us(kStepDb), "us"},
      {"db.kcyc_per_req", kcyc(Component::kOkdb), "kcyc"},
      {"store.group_commit_us_per_req", us(kIdleTail), "us"},
      {"store.wal_syncs_per_req", per_req(d[kWalSyncs]), "count"},
      {"store.compactions", Ratio(compactions, traced_rounds), "count"},
      {"repl.link_us_per_req", us(kRepl), "us"},
      {"repl.bytes_per_write", Ratio(repl_bytes, adds), "B"},
      {"repl.batches_per_write", Ratio(d[kReplBatches], adds), "count"},
      {"repl.snapshots_shipped", Ratio(d[kReplSnapshots], traced_rounds), "count"},
      {"repl.follower_kcyc_per_req", per_req(static_cast<double>(follower) / 1e3), "kcyc"},
      {"mem.label_bytes_per_user", Ratio(last.mem.label_bytes, users), "B"},
      {"mem.ep_bytes_per_user", Ratio(last.mem.ep_bytes, users), "B"},
      {"mem.page_bytes_per_user", Ratio(last.mem.page_bytes, users), "B"},
      {"trace.span_coverage", Ratio(static_cast<double>(covered_ns) / 1e9, measured_s),
       "ratio"},
      {"trace.untraced_wall_req_per_s", Median(untraced_rates), "req/s"},
      {"trace.traced_wall_req_per_s", Median(traced_rates), "req/s"},
  };
}

// Runs one round in a child process. The program keeps process-global state
// from one machine to the next: the trace-id counter, for one, keeps counting,
// and replication frames carry trace ids as varints, so a second machine in
// the same process charges more network cycles than the first. Forking gives
// every round the same pristine process. The child writes the measured
// phase's wall latencies to `latency_path` and, when `spans_path` is set, its
// spans, then takes its set-up samples. False when the child failed.
bool RunRound(const Spec& spec, const Args& args, const std::string& dir, bool traced,
              Clock::time_point deadline, const std::string& latency_path,
              const std::string& spans_path, RoundResult* out) {
  const Clock::time_point round_start = Clock::now();
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("okws_e2e: pipe");
    return false;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t child = fork();
  if (child < 0) {
    std::perror("okws_e2e: fork");
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (child == 0) {
    // A round must not outlive the process that waits for it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    RoundResult r;
    {
      Round round(spec, args.seed, dir);
      round.SetUp(&r);
      round.Measure(traced, &r);
      r.failed += round.CheckReplica();
      if (!round.WriteLatencies(latency_path)) {
        std::fprintf(stderr, "okws_e2e: cannot write %s\n", latency_path.c_str());
        _exit(1);
      }
      if (!spans_path.empty()) {
        round.WriteSpans(spans_path);
      }
    }
    // Set-ups in a process that has already built a machine: a fresh
    // process's first set-up pays page faults that vary from run to run. The
    // host's speed drifts in phases a second or two long, so samples spread
    // over the run give a steadier median than a burst of back-to-back ones.
    const Clock::time_point from = Clock::now();
    Clock::time_point until =
        from + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(kSetupShare * r.measured_s));
    if (from + (from - round_start) > deadline) {
      until = std::max(until, deadline);  // no further round fits
    }
    const Clock::duration spacing = (until - from) / kMaxSetupsPerRound;
    while (!traced && r.setup_count < kMaxSetupsPerRound &&
           (r.setup_count == 0 || Clock::now() < until)) {
      std::this_thread::sleep_until(from + spacing * static_cast<int64_t>(r.setup_count));
      Round round(spec, args.seed, StrFormat("%s/setup%zu", dir.c_str(), r.setup_count));
      RoundResult sample;
      round.SetUp(&sample);
      r.setup_samples[r.setup_count++] = sample.setup_s;
      r.attempted += sample.attempted;
      r.failed += sample.failed;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    const bool sent = write(fds[1], &r, sizeof(r)) == static_cast<ssize_t>(sizeof(r));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  size_t got = 0;
  while (got < sizeof(*out)) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(out) + got, sizeof(*out) - got);
    if (n == 0 || (n < 0 && errno != EINTR)) {
      break;
    }
    got += n > 0 ? static_cast<size_t>(n) : 0;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || got != sizeof(*out)) {
    std::fprintf(stderr, "okws_e2e: the round's process failed (status %d)\n", status);
    return false;
  }
  return true;
}

bool SameCharges(const RoundResult& a, const RoundResult& b) {
  return a.charged == b.charged && a.model_cycles == b.model_cycles &&
         a.completed == b.completed && a.model_latency_digest == b.model_latency_digest &&
         a.model_p50_cycles == b.model_p50_cycles && a.model_p99_cycles == b.model_p99_cycles;
}

// Reads the latencies a round's process wrote.
bool ReadLatencies(const std::string& path, std::vector<double>* out) {
  out->clear();
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  double buf[4096];
  size_t n;
  while ((n = std::fread(buf, sizeof(double), 4096, f)) != 0) {
    out->insert(out->end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

std::string Provenance(const Args& args) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __clang__
  const char* const compiler = "clang " __clang_version__;
#else
  const char* const compiler = "gcc " __VERSION__;
#endif
  return StrFormat(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"commit\": \"%s\", \"compiler\": \"%s\", \"optimize\": true, \"ndebug\": %s, "
      "\"cores\": %ld, \"connections\": %d}",
      args.workload.c_str(), (unsigned long long)args.seed, args.seconds, args.trace ? 1 : 0,
      args.commit.c_str(), compiler, ndebug ? "true" : "false",
      sysconf(_SC_NPROCESSORS_ONLN), kConnections);
}

int Main(int argc, char** argv) {
  // Stop with the script that started this run (its rounds follow suit).
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: okws_e2e --workload NAME --seed N --seconds S --trace 0|1 "
                 "--scratch DIR --out DIR [--commit SHA]\n");
    return 2;
  }
#ifndef __OPTIMIZE__
  // Wall-clock numbers from an unoptimized build describe the compiler, not
  // the system: refuse to produce any.
  std::fprintf(stderr, "okws_e2e: built without optimization; wall metrics would be invalid\n");
  return 3;
#endif
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) {
      spec = &s;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "okws_e2e: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const std::string provenance = Provenance(args);
  std::printf("provenance: %s\n", provenance.c_str());

  const std::string stem = StrFormat("%s/%s-seed%llu-trace%d", args.out.c_str(),
                                     args.workload.c_str(), (unsigned long long)args.seed,
                                     args.trace ? 1 : 0);
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  const auto latency_path = [&](size_t k) {
    return StrFormat("%s/round%zu.lat", args.scratch.c_str(), k);
  };

  // Rounds while another one fits in the time, judged by the last round's
  // length; with --trace 1 they alternate untraced, traced, ... so the two
  // modes see the same host conditions. The round slots are allocated and
  // written before the first fork: the parent's resident size, which every
  // round's peak RSS inherits, then stays the same for the whole run.
  std::vector<RoundResult> rounds(kMaxRounds);
  const Clock::time_point run_start = Clock::now();
  const Clock::time_point deadline =
      run_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(args.seconds));
  double last_round_s = 0;
  size_t k = 0;
  for (; k < kMaxRounds; ++k) {
    const size_t min_rounds = args.trace ? 2 : 1;
    const Clock::time_point round_start = Clock::now();
    if (k >= min_rounds && Seconds(round_start - run_start) + last_round_s > args.seconds) {
      break;
    }
    const bool traced = args.trace && k % 2 == 1;
    // Only the first traced round writes its spans.
    const std::string spans_path = k == 1 && traced ? stem + ".spans.tsv" : "";
    RoundResult& r = rounds[k];
    if (!RunRound(*spec, args, StrFormat("%s/round%zu", args.scratch.c_str(), k), traced,
                  deadline, latency_path(k), spans_path, &r)) {
      return 1;
    }
    std::printf("round %zu%s: setup %.4f s, %llu requests in %.4f s, %llu failed, "
                "peak RSS %.2f MiB\n",
                k, r.traced ? " (traced)" : "", r.setup_s, (unsigned long long)r.completed,
                r.measured_s, (unsigned long long)r.failed, r.peak_rss_mb);
    last_round_s = Seconds(Clock::now() - round_start);
  }
  rounds.resize(k);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> rss;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    rss.push_back(r.peak_rss_mb);
  }
  // setup_s is the median over every round's set-up samples, so they are
  // spread over the run.
  std::vector<double> setups;
  for (const RoundResult& r : rounds) {
    setups.insert(setups.end(), r.setup_samples.begin(), r.setup_samples.begin() + r.setup_count);
  }
  // Every round has ended, so the parent may grow now. Every round replays
  // the same schedule, so request i is the same request in each: its wall
  // latency is the median of its latencies over the untraced rounds. A host
  // stall hits different requests in different rounds and drops out, while
  // the requests the program makes slow stay slow in every round.
  std::vector<std::vector<double>> per_round;
  for (size_t k = 0; k < rounds.size(); ++k) {
    if (rounds[k].traced) {
      continue;
    }
    per_round.emplace_back();
    if (!ReadLatencies(latency_path(k), &per_round.back()) ||
        per_round.back().size() != per_round.front().size()) {
      std::fprintf(stderr, "okws_e2e: cannot read %s\n", latency_path(k).c_str());
      return 1;
    }
  }
  std::vector<double> wall_latency_us(per_round.front().size());
  std::vector<double> across(per_round.size());
  for (size_t i = 0; i < wall_latency_us.size(); ++i) {
    for (size_t k = 0; k < per_round.size(); ++k) {
      across[k] = per_round[k][i];
    }
    wall_latency_us[i] = Median(across);
  }

  bool correct = failed == 0;
  for (const RoundResult& r : rounds) {
    if (!SameCharges(r, rounds.front())) {
      std::fprintf(stderr,
                   "okws_e2e: a %s round's charged cycles or model latencies differ from "
                   "round 0's (charged clock %llu vs %llu)\n",
                   r.traced ? "traced" : "untraced", (unsigned long long)r.model_cycles,
                   (unsigned long long)rounds.front().model_cycles);
      correct = false;
    }
  }

  const std::vector<Metric> metrics =
      args.trace ? PerLayer(*spec, rounds)
                 : EndToEnd(*spec, rounds, wall_latency_us, setups, Median(rss));
  std::string json;
  for (const Metric& m : metrics) {
    std::printf("%-34s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", json.empty() ? "" : ", ",
                      m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string result =
      StrFormat("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed, json.c_str());
  if (FILE* f = std::fopen((stem + ".json").c_str(), "w"); f != nullptr) {
    std::fprintf(f, "{\"provenance\": %s, \"result\": %s}\n", provenance.c_str(),
                 result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace asbestos

int main(int argc, char** argv) { return asbestos::Main(argc, argv); }
