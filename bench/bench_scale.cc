// Million-compartment scale: bytes-per-user must stay flat across decades
// of users (the tentpole claim — interned labels, dense handle tables,
// interned binding tables, and parked sessions make an idle user cost a
// compact record, not an event process).
//
// BM_ScaleUsers boots the full OKWS world at 10^3 / 10^4 / 10^5 users
// (10^6 with --full) with session parking and scale accounting ON, drives
// two passes over every user (login + resume-from-park), and reports the
// kernel's total bytes over distinct users, plus the host wall time per
// connection. After the runs, main() prints both per-decade ratios and
// asserts the flatness contract: bytes_per_user may grow at most 1.25× from
// 10^4 to 10^5 users. `--smoke` keeps CI to the 10^3/10^4 decades.
//
// The examples/ scenarios (mail-reader §5.5, MLS §5.2) ride along as a
// measured scenario matrix — each iteration re-proves the paper's flow
// outcomes (the harness aborts on violation) and publishes the counts.
//
// Results are machine-readable: unless the caller passes its own
// --benchmark_out, the run writes BENCH_scale.json plus the
// BENCH_scale.metrics.json registry snapshot.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench/okws_bench_harness.h"
#include "src/obs/metrics.h"
#include "src/obs/reset.h"

namespace asbestos {
namespace {

// One BM_ScaleUsers measurement, kept by decade for the post-run report.
struct DecadePoint {
  double bytes_per_user = 0;
  double wall_us_per_conn = 0;
};

std::map<uint64_t, DecadePoint>& ScaleByDecade() {
  static std::map<uint64_t, DecadePoint> m;
  return m;
}

void BM_ScaleUsers(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const auto users = static_cast<uint64_t>(state.range(0));
  bench::OkwsRunResult result;
  double wall_us = 0;
  for (auto _ : state) {
    bench::OkwsRunConfig config;
    config.sessions = users;
    config.total_connections = 2 * users;  // pass 1 logs in, pass 2 resumes
    config.min_connections = 0;
    config.service = "echo";
    config.park_idle_sessions = true;
    config.scale_accounting = true;
    const auto start = std::chrono::steady_clock::now();
    result = bench::RunOkwsWorkload(config);
    wall_us = std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
                  .count();
  }
  if (result.failures != 0 || result.connections_completed != 2 * users) {
    std::fprintf(stderr, "bench_scale: %llu users: %llu/%llu connections, %llu failures\n",
                 (unsigned long long)users,
                 (unsigned long long)result.connections_completed,
                 (unsigned long long)(2 * users), (unsigned long long)result.failures);
    std::abort();
  }
  // Host time of the whole run (boot included) over its connections.
  const DecadePoint point{result.BytesPerUser(),
                          wall_us / static_cast<double>(result.connections_completed)};
  ScaleByDecade()[users] = point;
  state.counters["users"] = static_cast<double>(users);
  state.counters["bytes_per_user"] = point.bytes_per_user;
  state.counters["wall_us_per_conn"] = point.wall_us_per_conn;
  state.counters["total_bytes"] = static_cast<double>(result.mem_after_bytes);
  state.counters["session_bytes"] = static_cast<double>(result.session_bytes);
  state.counters["binding_bytes"] = static_cast<double>(result.binding_bytes);
  state.counters["handle_table_bytes"] = static_cast<double>(result.handle_table_bytes);
  state.counters["session_parks"] = static_cast<double>(result.session_parks);
  state.counters["session_resumes"] = static_cast<double>(result.session_resumes);
  state.counters["throughput_conn_per_sec"] = result.throughput_conn_per_sec;
}

// The same world WITHOUT parking/scale accounting, at the smallest decade:
// the before/after anchor for the README table (an idle user keeps a full
// event process: state page + overlay slots + uW + EP record).
void BM_ScaleUsersUnparked(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const auto users = static_cast<uint64_t>(state.range(0));
  bench::OkwsRunResult result;
  for (auto _ : state) {
    bench::OkwsRunConfig config;
    config.sessions = users;
    config.total_connections = 2 * users;
    config.min_connections = 0;
    config.service = "echo";
    result = bench::RunOkwsWorkload(config);
  }
  state.counters["users"] = static_cast<double>(users);
  state.counters["bytes_per_user"] = result.BytesPerUser();
  state.counters["total_bytes"] = static_cast<double>(result.mem_after_bytes);
}

void BM_MailReaderScenario(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  bench::MailReaderScenarioResult r;
  for (auto _ : state) {
    r = bench::RunMailReaderScenario();  // aborts on a §5.5 violation
  }
  state.counters["delivered"] = static_cast<double>(r.delivered);
  state.counters["blocked"] = static_cast<double>(r.blocked);
}

void BM_MlsScenario(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  bench::MlsScenarioResult r;
  for (auto _ : state) {
    r = bench::RunMlsScenario();  // aborts on a §5.2 violation
  }
  state.counters["flows_allowed"] = static_cast<double>(r.flows_allowed);
  state.counters["flows_blocked"] = static_cast<double>(r.flows_blocked);
  state.counters["delivered"] = static_cast<double>(r.delivered);
  state.counters["blocked_drops"] = static_cast<double>(r.blocked_drops);
}
BENCHMARK(BM_MailReaderScenario);
BENCHMARK(BM_MlsScenario);

// The flatness contract the JSON is asserted against before it is written:
// per-user bytes may grow at most kMaxDecadeRatio from one measured decade
// to the next, from 10^4 users up (fixed world overhead amortizes downward;
// only genuine per-user growth could push the ratio up).
constexpr double kMaxDecadeRatio = 1.25;
constexpr uint64_t kFlatnessFromUsers = 10000;

// Prints bytes_per_user and wall_us_per_conn ratios for every pair of
// consecutive measured decades and enforces the bytes contract. Wall time is
// reported only, with no bound yet: idd's login scan over its unindexed
// okws_users table still grows with the user count, so a per-decade wall
// bound (say 1.5×) would fail until that index lands (ROADMAP).
bool CheckFlatness() {
  const auto ratio = [](double lo, double hi) { return lo > 0 ? hi / lo : 0; };
  bool ok = true;
  const std::pair<const uint64_t, DecadePoint>* prev = nullptr;
  for (const auto& decade : ScaleByDecade()) {
    if (prev != nullptr) {
      const auto& [lo_users, lo] = *prev;
      const auto& [hi_users, hi] = decade;
      const double bytes_ratio = ratio(lo.bytes_per_user, hi.bytes_per_user);
      std::printf(
          "bench_scale: %llu -> %llu users: bytes_per_user %.1f -> %.1f (%.3fx), "
          "wall_us_per_conn %.1f -> %.1f (%.3fx)\n",
          (unsigned long long)lo_users, (unsigned long long)hi_users, lo.bytes_per_user,
          hi.bytes_per_user, bytes_ratio, lo.wall_us_per_conn, hi.wall_us_per_conn,
          ratio(lo.wall_us_per_conn, hi.wall_us_per_conn));
      if (lo_users >= kFlatnessFromUsers && bytes_ratio > kMaxDecadeRatio) {
        std::fprintf(stderr,
                     "bench_scale: bytes_per_user grew %.3fx from %llu to %llu users "
                     "(contract: <= %.2fx)\n",
                     bytes_ratio, (unsigned long long)lo_users, (unsigned long long)hi_users,
                     kMaxDecadeRatio);
        ok = false;
      }
    }
    prev = &decade;
  }
  return ok;
}

}  // namespace
}  // namespace asbestos

// Custom main instead of BENCHMARK_MAIN: register the user decades for the
// selected mode, default the run to writing BENCH_scale.json, translate
// `--smoke`, and enforce the flatness contract before exiting.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<size_t>(argc) + 3);
  bool has_out = false;
  bool smoke = false;
  bool full = false;
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (arg == "--full") {
      full = true;
      continue;
    }
    // Exactly the output-file flag: --benchmark_out_format alone must not
    // suppress the default output file.
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
    args.emplace_back(arg);
  }
  if (!has_out) {
    args.emplace_back("--benchmark_out=BENCH_scale.json");
    args.emplace_back("--benchmark_out_format=json");
  }
  if (smoke) {
    args.emplace_back("--benchmark_min_time=0.01");
  }

  // One boot per decade is the measurement; more iterations would only
  // re-boot identical worlds.
  auto* scale = benchmark::RegisterBenchmark("BM_ScaleUsers", asbestos::BM_ScaleUsers);
  scale->Unit(benchmark::kMillisecond)->Iterations(1);
  scale->Arg(1000)->Arg(10000);
  if (!smoke) {
    scale->Arg(100000);
  }
  if (full) {
    scale->Arg(1000000);
  }
  benchmark::RegisterBenchmark("BM_ScaleUsersUnparked", asbestos::BM_ScaleUsersUnparked)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1)
      ->Arg(1000);

  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) {
    argv2.push_back(a.data());
  }
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The unified metrics snapshot rides alongside the google-benchmark JSON
  // (same basename, .metrics.json suffix); see README "Observability".
  asbestos::obs::Registry::Get().WriteSnapshotFile("BENCH_scale.metrics.json");
  return asbestos::CheckFlatness() ? 0 : 1;
}
