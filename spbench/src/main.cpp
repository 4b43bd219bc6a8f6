// spbench: the spatial-server benchmark (see NOTES.md).
//
//   spbench --workload browse|analyze|scatter --seed N --seconds S
//           --trace 0|1 [--work-dir DIR] [--git-sha SHA]
//
// One load-generator process drives durable pinedb servers hosted by a
// child process over tcp://, in a closed loop, checks every answer against
// an in-process reference engine, and prints every metric by name and unit.
// The last line of stdout is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exit status is non-zero when
// any operation failed or disagreed with the reference.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/string_util.h"
#include "host.h"
#include "layers.h"
#include "net/remote_driver.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "oracle.h"
#include "shard/shard_router.h"
#include "stats.h"
#include "storage/storage.h"
#include "workload.h"

#ifndef SPBENCH_BUILD_TYPE
#define SPBENCH_BUILD_TYPE "unknown"
#endif

namespace spbench {
namespace {

using jackpine::Result;
using jackpine::Status;
using jackpine::StatusCode;
using jackpine::StrFormat;
namespace client = jackpine::client;
namespace obs = jackpine::obs;
using Clock = std::chrono::steady_clock;

// Warm-up before timing: fills the result cache and the servers' lazily
// built state, as a long-running deployment would have them.
constexpr double kWarmupS = 1.0;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Reads re-issued through the layer functions in the traced replay, and
// writes likewise.
constexpr size_t kReplayReads = 400;
constexpr size_t kReplayWrites = 200;
// Write keys start here, far above every generated TIGER key.
constexpr int64_t kWriteBase = 50'000'000;
constexpr int64_t kReplayWriteBase = 90'000'000;
// The ledger check: layer self times plus the wire overhead should land
// within this share of the measured mean read latency.
constexpr double kLedgerTolerance = 0.25;

struct Args {
  Workload workload = Workload::kBrowse;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/spbench-work";
  std::string git_sha = "unknown";
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      JACKPINE_ASSIGN_OR_RETURN(a.workload, ParseWorkload(value));
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (!have_workload || a.seconds <= 0.0) {
    return Status::InvalidArgument("--workload and positive --seconds required");
  }
  return a;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One closed-loop session and everything it observed.
struct Session {
  Session(client::Statement st, OpStream os)
      : stmt(std::move(st)), stream(std::move(os)) {}

  client::Statement stmt;
  OpStream stream;
  OpLog log;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  OpAccounting acct;         // operations of timed phases
  OpAccounting untimed;      // warm-up operations
  std::vector<std::pair<std::string, int64_t>> acked;  // (table, key)
  uint64_t window_ok = 0;
  uint64_t window_reads = 0;
  double read_ms_sum = 0.0;
};

// Issues one operation and files its outcome. `spans` (nullable) wraps
// the call in a client span whose trace the drivers extend.
bool Issue(Session* s, const Op& op, bool timed, obs::SpanRecorder* spans) {
  obs::Span root;
  if (spans != nullptr) {
    jackpine::ExecLimits limits;
    limits.spans = spans;
    limits.trace_id = spans->NewTraceId();
    root = spans->StartSpan(op.kind == OpKind::kRead ? "client.read"
                                                     : "client.write",
                            limits.trace_id);
    limits.parent_span_id = root.span_id();
    s->stmt.SetExecLimits(limits);
  }
  OpAccounting& acct = timed ? s->acct : s->untimed;
  const auto t0 = Clock::now();
  Status status;
  uint64_t checksum = 0;
  if (op.kind == OpKind::kRead) {
    Result<client::ResultSet> rs = s->stmt.ExecuteQuery(op.sql);
    if (rs.ok()) checksum = rs->Checksum();
    status = rs.status();
  } else {
    Result<int64_t> n = s->stmt.ExecuteUpdate(op.sql);
    status = n.ok() && *n != 1
                 ? Status::Internal(StrFormat("INSERT affected %lld rows",
                                              static_cast<long long>(*n)))
                 : n.status();
  }
  const double ms = Seconds(t0, Clock::now()) * 1e3;
  root.End();
  if (!status.ok()) {
    if (status.code() == StatusCode::kResourceExhausted) {
      ++acct.refused;
    } else {
      ++acct.failed;
    }
    std::fprintf(stderr, "spbench: %s failed: %s\n", op.sql.c_str(),
                 status.ToString().c_str());
    return false;
  }
  ++acct.ok;
  s->log.Add(op.sql, op.kind, checksum);
  if (op.kind == OpKind::kWrite) s->acked.emplace_back(op.table, op.row_id);
  if (!timed) return true;
  ++s->window_ok;
  if (op.kind == OpKind::kRead) {
    s->read_ms.push_back(ms);
    s->read_ms_sum += ms;
    ++s->window_reads;
  } else {
    s->write_ms.push_back(ms);
  }
  return true;
}

// The window is cut into slices, and the timings come from the calmer half
// of them by the host's CPU steal: on a shared VM the hypervisor sometimes
// runs other guests on this one's CPUs, and a request that waits for that
// measures the neighbours, not the program (NOTES.md, Steadiness).
constexpr double kSliceS = 0.5;

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return ParseCpuTimes(line).value_or(CpuTimes{});
}

struct PhaseResult {
  double window_s = 0.0;     // start to the last completion
  uint64_t slices = 0;
  uint64_t kept = 0;         // the calmer half of the slices
  double ops_per_s = 0.0;    // median over the kept slices
  std::vector<double> reads_ms;  // read latencies of the kept slices
  double steal_all = 0.0;    // stolen CPU share over the whole phase
  double steal_kept = 0.0;   // mean stolen share of the kept slices
};

// Runs every session's stream for `seconds` on its own thread.
PhaseResult RunPhase(std::vector<std::unique_ptr<Session>>* sessions,
                     double seconds, bool timed, obs::SpanRecorder* spans) {
  const auto start = Clock::now();
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const auto end = at(seconds);
  const size_t slices = std::max<size_t>(1, static_cast<size_t>(seconds / kSliceS));
  std::vector<Clock::time_point> last(sessions->size(), start);
  std::vector<std::vector<uint64_t>> slice_ok(sessions->size(),
                                              std::vector<uint64_t>(slices));
  std::vector<std::vector<std::vector<double>>> slice_reads(
      sessions->size(), std::vector<std::vector<double>>(slices));
  std::vector<CpuTimes> cpu(slices + 1);
  cpu[0] = ReadCpuTimes();
  std::thread sampler([&] {
    for (size_t k = 1; k <= slices; ++k) {
      std::this_thread::sleep_until(at(k * kSliceS));
      cpu[k] = ReadCpuTimes();
    }
  });
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sessions->size(); ++i) {
    threads.emplace_back([&, i] {
      Session* s = (*sessions)[i].get();
      while (Clock::now() < end) {
        const size_t reads_before = s->read_ms.size();
        if (!Issue(s, s->stream.Next(), timed, spans)) continue;
        const auto slice =
            static_cast<size_t>(Seconds(start, Clock::now()) / kSliceS);
        if (slice >= slices) continue;
        ++slice_ok[i][slice];
        if (s->read_ms.size() > reads_before) {
          slice_reads[i][slice].push_back(s->read_ms.back());
        }
      }
      last[i] = Clock::now();
    });
  }
  for (std::thread& t : threads) t.join();
  sampler.join();

  std::vector<double> steal(slices);
  for (size_t k = 0; k < slices; ++k) steal[k] = StealShare(cpu[k], cpu[k + 1]);
  PhaseResult r;
  r.window_s = Seconds(start, *std::max_element(last.begin(), last.end()));
  r.slices = slices;
  r.steal_all = StealShare(cpu.front(), cpu.back());
  std::vector<double> rates;
  for (size_t k : CalmestSlices(steal, std::max<size_t>(1, slices / 2))) {
    double ok = 0;
    for (size_t i = 0; i < sessions->size(); ++i) {
      ok += static_cast<double>(slice_ok[i][k]);
      r.reads_ms.insert(r.reads_ms.end(), slice_reads[i][k].begin(),
                        slice_reads[i][k].end());
    }
    rates.push_back(ok / kSliceS);
    r.steal_kept += steal[k];
  }
  r.kept = rates.size();
  r.steal_kept /= static_cast<double>(r.kept);
  r.ops_per_s = Median(rates);
  return r;
}

// Counters the servers export (Stats frame, global scope) plus this
// process's registry (the shard router's shard.* live client-side).
Result<Scrape> ScrapeAll(const std::vector<uint16_t>& ports) {
  std::vector<StatsReply> replies;
  for (uint16_t port : ports) {
    JACKPINE_ASSIGN_OR_RETURN(
        StatsReply reply, jackpine::net::QueryServerStats("127.0.0.1", port));
    replies.push_back(std::move(reply));
  }
  Scrape out = MergeServerStats(replies);
  for (const auto& [name, value] : obs::GlobalRegistry().Snapshot()) {
    if (jackpine::StartsWith(name, "shard.")) out["client." + name] = value;
  }
  return out;
}

double Delta(const Scrape& a, const Scrape& b, const std::string& name) {
  auto ia = a.find(name);
  auto ib = b.find(name);
  return (ib == b.end() ? 0.0 : ib->second) - (ia == a.end() ? 0.0 : ia->second);
}

// Mean of a registry histogram over the interval between two scrapes.
double DeltaMean(const Scrape& a, const Scrape& b, const std::string& hist) {
  const double n = Delta(a, b, hist + ".count");
  if (n <= 0) return 0.0;
  auto sum = [&](const Scrape& s) {
    auto c = s.find(hist + ".count");
    auto m = s.find(hist + ".mean_s");
    return c == s.end() || m == s.end() ? 0.0 : c->second * m->second;
  };
  return (sum(b) - sum(a)) / n;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string ClientUrl(const std::vector<uint16_t>& ports) {
  if (ports.size() == 1) {
    return StrFormat("jackpine:tcp://127.0.0.1:%u/pine-rtree",
                     unsigned{ports[0]});
  }
  std::vector<std::string> slots;
  for (uint16_t p : ports) slots.push_back(StrFormat("127.0.0.1:%u", unsigned{p}));
  return StrFormat("jackpine:shard(%s)/pine-rtree",
                   jackpine::Join(slots, ",").c_str());
}

// The final-state checks: table sizes and the rows the run inserted.
std::vector<std::string> FinalChecks() {
  return {
      "SELECT COUNT(*) FROM pointlm",
      "SELECT COUNT(*) FROM edges",
      StrFormat("SELECT plid, fullname, mtfcc, county, geom FROM pointlm "
                "WHERE plid >= %lld",
                static_cast<long long>(kWriteBase)),
      StrFormat("SELECT tlid, fullname, geom FROM edges WHERE tlid >= %lld",
                static_cast<long long>(kWriteBase)),
  };
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void PrintReport(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string JsonLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                     metrics[i].unit.c_str());
  }
  return out + "}}";
}

Result<int> Run(const Args& args, const std::string& self_exe) {
  const int num_servers = ServersFor(args.workload);
  const std::string run_dir =
      StrFormat("%s/%s-%llu-%d", args.work_dir.c_str(),
                WorkloadName(args.workload),
                static_cast<unsigned long long>(args.seed),
                static_cast<int>(getpid()));
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir);
  const std::string data_dir = run_dir + "/data";

  std::printf("spbench workload=%s seed=%llu seconds=%g trace=%d scale=%g "
              "clients=%d servers=%d nproc=%u build=%s git=%s\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kScale, kClients, num_servers,
              std::thread::hardware_concurrency(), SPBENCH_BUILD_TYPE,
              args.git_sha.c_str());

  // The reference engine and the request streams.
  const jackpine::tigergen::TigerDataset dataset =
      jackpine::tigergen::GenerateTiger(DatasetOptions(kScale));
  JACKPINE_ASSIGN_OR_RETURN(std::unique_ptr<Oracle> oracle,
                            Oracle::Create(dataset));
  const WorkloadInputs inputs(args.workload, dataset);

  // Set-up, several times: spawn the host (generate, load, index, start
  // servers) and connect every client, up to the first timed operation.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> load_s;
  std::vector<double> index_s;
  std::optional<HostProcess> host;
  std::optional<client::Connection> conn;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int k = 0; k < kSetups; ++k) {
    if (host) {
      sessions.clear();
      conn.reset();
      JACKPINE_RETURN_IF_ERROR(host->Stop());
      host.reset();
      std::filesystem::remove_all(data_dir);
    }
    const auto t0 = Clock::now();
    JACKPINE_ASSIGN_OR_RETURN(
        HostProcess spawned,
        HostProcess::Spawn(self_exe, args.workload, data_dir, 120.0));
    host.emplace(std::move(spawned));
    JACKPINE_ASSIGN_OR_RETURN(client::Connection c,
                              client::Connection::Open(ClientUrl(host->ready().ports)));
    conn.emplace(std::move(c));
    for (int i = 0; i < kClients; ++i) {
      sessions.push_back(std::make_unique<Session>(
          conn->CreateStatement(), OpStream(&inputs, args.seed, i, kWriteBase)));
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
    generate_s.push_back(host->ready().generate_s);
    load_s.push_back(host->ready().load_s);
    index_s.push_back(host->ready().index_s);
  }
  const std::vector<uint16_t> ports = host->ready().ports;
  std::vector<std::string> shard_dirs;
  for (int i = 0; i < num_servers; ++i) {
    shard_dirs.push_back(StrFormat("%s/shard%d", data_dir.c_str(), i));
  }

  // Warm-up: every browse tile once (the pool fits the result cache, so a
  // long-running server holds all of it), then a second of the stream.
  if (args.workload == Workload::kBrowse) {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < sessions.size(); ++i) {
      threads.emplace_back([&, i] {
        for (size_t j = i; j < inputs.pool().size(); j += sessions.size()) {
          Issue(sessions[i].get(), inputs.pool()[j], false, nullptr);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  RunPhase(&sessions, kWarmupS, false, nullptr);
  const uint64_t bytes_before = DirBytes(data_dir);

  // The timed window. A traced run splits it: the first half untraced
  // (the overhead baseline), the second half with spans on.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const PhaseResult untraced = RunPhase(&sessions, untraced_s, true, nullptr);
  double window_s = untraced.window_s;
  uint64_t untraced_ok = 0;
  for (auto& s : sessions) untraced_ok += s->window_ok;

  obs::SpanRecorder spans(size_t{1} << 20);
  Scrape before;
  Scrape after_window;
  uint64_t traced_ok = 0;
  uint64_t traced_reads = 0;
  double traced_read_ms = 0.0;
  PhaseResult traced;
  if (args.trace) {
    for (auto& s : sessions) {
      s->window_ok = s->window_reads = 0;
      s->read_ms_sum = 0.0;
    }
    JACKPINE_ASSIGN_OR_RETURN(before, ScrapeAll(ports));
    spans.set_enabled(true);
    traced = RunPhase(&sessions, args.seconds - untraced_s, true, &spans);
    spans.set_enabled(false);
    JACKPINE_ASSIGN_OR_RETURN(after_window, ScrapeAll(ports));
    for (auto& s : sessions) {
      traced_ok += s->window_ok;
      traced_reads += s->window_reads;
      traced_read_ms += s->read_ms_sum;
      s->stmt.SetExecLimits(jackpine::ExecLimits{});
    }
    window_s += traced.window_s;
  }

  // The write probe: the read mixes still report their deployment's write
  // path, from one session, after the read window.
  {
    Session* s = sessions.front().get();
    for (int i = 0; i < kProbeWrites; ++i) {
      Issue(s, s->stream.NextWrite(), true, nullptr);
    }
  }
  Scrape after_writes;
  if (args.trace) {
    JACKPINE_ASSIGN_OR_RETURN(after_writes, ScrapeAll(ports));
  }

  // Final state over the wire, memory, then a crash stop.
  std::vector<std::pair<std::string, uint64_t>> final_observed;
  {
    client::Statement stmt = conn->CreateStatement();
    for (const std::string& sql : FinalChecks()) {
      JACKPINE_ASSIGN_OR_RETURN(client::ResultSet rs, stmt.ExecuteQuery(sql));
      final_observed.emplace_back(sql, rs.Checksum());
    }
  }
  const double peak_rss_mb = host->PeakRssMb();
  sessions.front()->stmt = conn->CreateStatement();  // drop open sessions
  host->Kill();
  host.reset();
  const uint64_t bytes_after = DirBytes(data_dir);

  // Oracle: reads first (the reference still holds the loaded state, since
  // no write overlaps the read window), then the acknowledged writes in
  // order.
  OpAccounting acct;
  uint64_t user_bytes = 0;
  std::set<std::pair<std::string, int64_t>> acked;
  for (auto& s : sessions) {
    acct += s->acct;
    acct += s->untimed;
    user_bytes += s->log.write_bytes();
    acked.insert(s->acked.begin(), s->acked.end());
  }
  Verdict verdict;
  std::vector<const OpLog*> logs;
  for (auto& s : sessions) logs.push_back(&s->log);
  verdict += oracle->VerifyReadOnly(logs, 4);
  for (auto& s : sessions) {
    OpLog writes;
    for (const OpLog::Entry& e : s->log.entries()) {
      if (e.kind == OpKind::kWrite) writes.Add(s->log.text(e.text), e.kind, 0);
    }
    JACKPINE_ASSIGN_OR_RETURN(Verdict v, oracle->Replay(writes));
    verdict += v;
  }
  for (const auto& [sql, checksum] : final_observed) {
    oracle->Matches(sql, checksum, &verdict);
  }

  // Durability: recover every data directory and look for every
  // acknowledged insert.
  std::vector<double> recovery_s;
  std::vector<double> checkpoint_s;
  uint64_t lost = 0;
  {
    std::set<std::pair<std::string, int64_t>> recovered;
    for (const std::string& dir : shard_dirs) {
      jackpine::engine::Database db;
      jackpine::storage::StorageOptions options;
      options.dir = dir;
      const auto t0 = Clock::now();
      JACKPINE_ASSIGN_OR_RETURN(auto store,
                                jackpine::storage::StorageManager::Open(options, &db));
      recovery_s.push_back(Seconds(t0, Clock::now()));
      // What one checkpoint of the recovered state costs.
      const auto c0 = Clock::now();
      JACKPINE_RETURN_IF_ERROR(store->Checkpoint());
      checkpoint_s.push_back(Seconds(c0, Clock::now()));
      for (const char* table : {"pointlm", "edges"}) {
        JACKPINE_ASSIGN_OR_RETURN(
            jackpine::engine::QueryResult r,
            db.Execute(StrFormat("SELECT %s FROM %s WHERE %s >= %lld",
                                 std::strcmp(table, "edges") ? "plid" : "tlid",
                                 table,
                                 std::strcmp(table, "edges") ? "plid" : "tlid",
                                 static_cast<long long>(kWriteBase))));
        for (const auto& row : r.rows) recovered.emplace(table, row[0].int_value());
      }
      if (shard_dirs.size() == 1) {
        // Unsharded: the recovered tables must equal the reference exactly.
        for (const std::string& sql : FinalChecks()) {
          JACKPINE_ASSIGN_OR_RETURN(jackpine::engine::QueryResult r,
                                    db.Execute(sql));
          oracle->Matches(sql, r.Checksum(), &verdict);
        }
      }
    }
    for (const auto& key : acked) lost += recovered.count(key) == 0;
  }
  verdict.mismatched += lost;
  acct.ok -= std::min(acct.ok, verdict.mismatched);
  acct.mismatched += verdict.mismatched;
  const bool correct = acct.missed() == 0;
  if (!verdict.first_mismatch.empty()) {
    std::printf("ORACLE MISMATCH: %s\n", verdict.first_mismatch.c_str());
  }
  if (lost > 0) {
    std::printf("DURABILITY: %llu acknowledged inserts missing after recovery\n",
                static_cast<unsigned long long>(lost));
  }

  // Latencies: reads of the untraced window's calmest slices, and the
  // write probe.
  std::vector<double> writes;
  for (auto& s : sessions) {
    writes.insert(writes.end(), s->write_ms.begin(), s->write_ms.end());
  }
  const uint64_t window_ok = untraced_ok + traced_ok;
  const LatencySummary read_lat =
      Summarize(untraced.reads_ms, acct.missed(), 0.99);
  const LatencySummary write_lat = Summarize(writes, 0, 0.99);
  const double ops_per_s = untraced.ops_per_s;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"ops_per_s", ops_per_s, "1/s",
         StrFormat("(median of the %llu calmest of %llu %.1f s slices, "
                   "%.2f%% CPU stolen vs %.2f%% over the window; %llu ops "
                   "in %.3f s)",
                   static_cast<unsigned long long>(untraced.kept),
                   static_cast<unsigned long long>(untraced.slices), kSliceS,
                   untraced.steal_kept * 100, untraced.steal_all * 100,
                   static_cast<unsigned long long>(window_ok), window_s)},
        {"read_p50_ms", read_lat.p50, "ms",
         StrFormat("(n=%zu, reads of the calmest slices)", read_lat.n)},
        {"read_p99_ms", read_lat.tail, "ms",
         StrFormat("(p%.4g of n=%zu)", read_lat.tail_q * 100, read_lat.n)},
        {"write_p50_ms", write_lat.p50, "ms",
         StrFormat("(n=%zu, post-window write probe)", write_lat.n)},
        {"ok_rate", 1.0 - acct.ErrorRate(), "ratio",
         StrFormat("(error_rate %.6f: %llu failed, %llu refused, %llu "
                   "mismatched of %llu)",
                   acct.ErrorRate(),
                   static_cast<unsigned long long>(acct.failed),
                   static_cast<unsigned long long>(acct.refused),
                   static_cast<unsigned long long>(acct.mismatched),
                   static_cast<unsigned long long>(acct.attempted()))},
        {"setup_s", Median(setup_s), "s",
         StrFormat("(median of %zu set-ups)", setup_s.size())},
        {"peak_rss_mb", peak_rss_mb, "MiB", "(server host VmHWM)"},
        {"stored_bytes_per_user_byte",
         user_bytes ? static_cast<double>(bytes_after - bytes_before) /
                          static_cast<double>(user_bytes)
                    : 0.0,
         "ratio",
         StrFormat("(data dir grew %llu B for %llu B of INSERT text)",
                   static_cast<unsigned long long>(bytes_after - bytes_before),
                   static_cast<unsigned long long>(user_bytes))},
    };
    std::printf("end-to-end (fsync and latency figures are this host's: the "
                "crash stop kills the process, not the OS page cache)\n");
  } else {
    // The replay sample: the first reads and writes of a fresh stream.
    std::vector<Op> sample_reads;
    std::vector<Op> sample_writes;
    OpStream sample(&inputs, args.seed, 0, kReplayWriteBase);
    while (sample_reads.size() < kReplayReads) {
      Op op = sample.Next();
      if (op.kind == OpKind::kRead) sample_reads.push_back(std::move(op));
    }
    while (sample_writes.size() < kReplayWrites) {
      sample_writes.push_back(sample.NextWrite());
    }
    JACKPINE_ASSIGN_OR_RETURN(
        LayerCosts c,
        ReplayLayers(&oracle->connection().database(), sample_reads,
                     sample_writes, run_dir + "/replay-wal"));

    const std::map<std::string, SpanTotals> client_spans =
        SelfTimes(spans.Drain());
    auto span_mean_us = [&](const std::string& name) {
      auto it = client_spans.find(name);
      return it == client_spans.end() || it->second.count == 0
                 ? 0.0
                 : it->second.total_s * 1e6 / it->second.count;
    };
    auto span_self_per_read_us = [&](const std::string& name) {
      auto it = client_spans.find(name);
      return it == client_spans.end() || traced_reads == 0
                 ? 0.0
                 : it->second.self_s * 1e6 / traced_reads;
    };
    const Scrape& a = before;
    const Scrape& w = after_window;
    const Scrape& b = after_writes;
    const double reads_n = std::max<double>(traced_reads, 1);
    const double writes_n = std::max<double>(writes.size(), 1);
    const double client_read_us = traced_read_ms * 1e3 / reads_n;
    const double server_us = DeltaMean(a, w, "server.query_latency_s") * 1e6;
    const double hits = Delta(a, w, "cache.hits");
    const double misses = Delta(a, w, "cache.misses");
    const double hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    const double roundtrip_us = client_read_us - server_us;
    const double shard_queries = Delta(a, w, "client.shard.queries");
    // The ledger: what one mean read costs, layer by layer. The wire
    // overhead is what the client saw beyond the server's execution clock:
    // the result codec, sockets, queueing, the server's cache probe (it runs
    // before that clock starts) and on scatter the router. Misses also pay
    // parse + plan + execute, priced by the replay. Means, not medians: the
    // server's latency histogram has power-of-two buckets, too coarse to
    // subtract at microsecond scale.
    const double ledger_us =
        roundtrip_us + (1.0 - hit_rate) * (c.parse_us + c.plan_us + c.exec_us);
    const double ledger_ratio = client_read_us > 0 ? ledger_us / client_read_us : 0;
    // Scatter overhead: the scatter span minus its slowest subquery.
    double scatter_overhead_us = 0.0;
    if (shard_queries > 0) {
      scatter_overhead_us = span_self_per_read_us("shard.scatter");
    }
    metrics = {
        // The write tail is this VM's fsync tail: it moves several-fold
        // between runs, so it is reported here, without a bound.
        {"write_p99_ms", write_lat.tail, "ms",
         StrFormat("(p%.4g of n=%zu)", write_lat.tail_q * 100, write_lat.n)},
        {"tigergen.generate_s", Median(generate_s), "s", ""},
        {"core.load_s", Median(load_s), "s", ""},
        {"index.build_s", Median(index_s), "s", ""},
        {"net.roundtrip_overhead_us", roundtrip_us, "us",
         StrFormat("(client mean %.1f us - server mean %.1f us)",
                   client_read_us, server_us)},
        {"net.bytes_per_read", Delta(a, w, "server.bytes_sent") / reads_n,
         "bytes", ""},
        {"net.encode_us", c.encode_us, "us", "(replay)"},
        {"net.decode_us", c.decode_us, "us", "(replay)"},
        {"cache.hit_rate", hit_rate, "ratio", ""},
        {"cache.lookup_us", c.cache_lookup_us, "us", "(replay)"},
        {"cache.coalesced_per_read", Delta(a, w, "cache.coalesced") / reads_n,
         "ratio", ""},
        {"cache.evictions", Delta(a, w, "cache.evictions"), "count", ""},
        {"cache.invalidations_per_write",
         Delta(a, b, "cache.invalidations") / writes_n, "ratio", ""},
        {"engine.parse_us", c.parse_us, "us", "(replay)"},
        {"engine.plan_us", c.plan_us, "us", "(replay)"},
        {"engine.exec_us", c.exec_us, "us", "(replay)"},
        {"engine.rows_examined_per_row", c.rows_examined_per_row, "ratio",
         "(replay)"},
        {"engine.insert_us", c.insert_us, "us", "(replay)"},
        {"index.probe_us", c.index_probe_us, "us", "(replay, per window read)"},
        {"index.knn_us", c.index_knn_us, "us", "(replay, per k-NN read)"},
        {"index.nodes_per_probe", c.nodes_per_probe, "count", "(replay)"},
        {"index.candidates_per_read",
         Delta(a, w, "engine.index_candidates") / reads_n, "count", ""},
        {"index.insert_us", c.index_insert_us, "us", "(replay)"},
        {"topo.refine_us", c.refine_us, "us", "(replay, per window read)"},
        {"topo.refine_checks_per_read",
         Delta(a, w, "engine.refine_checks") / reads_n, "count", ""},
        {"topo.filter_ratio", c.filter_ratio, "ratio", "(replay)"},
        {"algo.function_us", c.algo_us, "us", "(replay, per window read)"},
        {"storage.append_us", c.append_us, "us", "(replay)"},
        {"storage.wait_durable_us", c.wait_durable_us, "us",
         "(replay; this host's fsync)"},
        {"storage.fsyncs_per_write", Delta(a, b, "storage.wal_fsyncs") / writes_n,
         "ratio", ""},
        {"storage.wal_bytes_per_write", Delta(a, b, "storage.wal_bytes") / writes_n,
         "bytes", ""},
        {"storage.checkpoints", Delta(a, b, "storage.checkpoints"), "count", ""},
        {"storage.checkpoint_s", Median(checkpoint_s), "s",
         "(checkpoint of the recovered state)"},
        {"storage.recovery_s", Median(recovery_s), "s", "(crash stop, reopen)"},
        {"shard.fanout_per_read",
         shard_queries > 0
             ? Delta(a, w, "client.shard.subqueries") / shard_queries
             : 0.0,
         "count", ""},
        {"shard.scatter_overhead_us", scatter_overhead_us, "us",
         "(scatter span self time per read)"},
        {"shard.merge_us", span_mean_us("shard.merge"), "us", ""},
        {"shard.merge_rows_in_per_read",
         shard_queries > 0
             ? Delta(a, w, "client.shard.merge.rows_in") / shard_queries
             : 0.0,
         "count", ""},
        {"trace.ops_ratio",
         untraced.ops_per_s > 0 ? traced.ops_per_s / untraced.ops_per_s : 0.0,
         "ratio", "(traced / untraced ops_per_s)"},
        {"ledger.sum_us", ledger_us, "us",
         StrFormat("(measured mean read %.1f us)", client_read_us)},
        {"ledger.ratio", ledger_ratio, "ratio",
         std::abs(ledger_ratio - 1.0) <= kLedgerTolerance
             ? StrFormat("(within the +-%.0f%% tolerance)", kLedgerTolerance * 100)
             : StrFormat("(OUTSIDE the +-%.0f%% tolerance)", kLedgerTolerance * 100)},
    };
    std::printf("per-layer (traced run; spans dropped: %llu)\n",
                static_cast<unsigned long long>(spans.dropped()));
  }
  PrintReport(metrics);
  std::filesystem::remove_all(run_dir);
  std::printf("%s\n", JsonLine(correct, acct.attempted(), acct.missed(),
                               metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace spbench

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--host")) {
    return spbench::HostMain(argc, argv);
  }
  auto args = spbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "spbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  jackpine::net::RegisterRemoteDriver();
  jackpine::shard::RegisterShardDriver();
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return 2;
  self[n] = '\0';
  auto code = spbench::Run(*args, self);
  if (!code.ok()) {
    std::fprintf(stderr, "spbench: %s\n", code.status().ToString().c_str());
    return 1;
  }
  return *code;
}
