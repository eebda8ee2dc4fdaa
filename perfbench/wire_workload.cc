// wire — an open-loop generator over loopback TCP into an in-process Server
// with the write-ahead journal on (fsync "always") in a scratch directory.
//
// Four tenants, one connection and one generator thread each, send a
// seeded Poisson stream at a few fixed offered rates, from near idle to
// past saturation. Writes (submit, cancel; journaled) run beside reads
// (status, ping, metrics, report), one write per 100 requests as tenants
// poll far more often than they submit. Each request is timed from its due
// time, not its send time, so a stalled connection charges the wait to
// every request queued behind it; how late the generator ran is reported
// separately. The server's throughput comes from saturation bursts after
// the ladder: the top rate's stream sent back to back on a fresh server.
//
// Cancels target jobs the same tenant submitted earlier with a far-future
// arrival (`submit_at_s`), so every cancel is legal and acknowledged. The
// same op stream is then replayed without sockets through a fresh
// ServiceRunner, which gives deterministic simulated outcomes and, traced,
// the runner's per-method handling time and the journal's append/sync cost.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "src/common/rng.h"
#include "src/server/client.h"
#include "src/server/journal.h"
#include "src/server/server.h"
#include "src/server/service_runner.h"

namespace perfbench {
namespace {

using namespace rubberband;

constexpr int kTenants = 4;
constexpr int kSetupsPerGroup = 7;
// Offered rates (requests/s over all tenants): near idle, moderate, heavy,
// and past what the server answers over four connections. They run in
// rising order: the service's per-request cost grows with the jobs it
// holds, so a rate's figures depend on the rates run before it.
constexpr double kRates[] = {500.0, 2500.0, 6000.0, 20000.0};
// Share of the load time each rate's stream spans. Every rate sends its
// whole stream, so the ladder is a fixed amount of work; past saturation
// that takes longer than the span. A rate still sending after
// kCutoffSpans times its span plus a second is cut off, a guard against a
// server that stops answering; what it left unsent is reported.
constexpr double kPhaseShare[] = {0.15, 0.15, 0.3, 0.05};
constexpr double kCutoffSpans = 5.0;
// Saturation bursts after the ladder: each sends the 20000/s stream back to
// back on a fresh server, and the throughput is the best burst's. Every
// burst is the same work. The ladder's server is not a steady measure of
// it: its simulation advances a step per service-loop pass, so what it
// holds by its last rate depends on the timing of the earlier ones. Bursts
// are cut off after kBurstCutoffS.
constexpr int kBursts = 5;
constexpr double kBurstCutoffS = 20.0;
// One write, one report and one metrics read per this many requests of a
// tenant.
constexpr int64_t kRequestsPerWrite = 100;
constexpr double kLimitMs = 50.0;
constexpr double kFutureArrivalS = 1e7;
// Ops replayed without sockets: enough for every method, writes included,
// to appear dozens of times while keeping the replay to about a second.
constexpr size_t kReplayOps = 6000;

// One request of the stream. Its JSON params are built when it is sent,
// which keeps a stream of a few hundred thousand requests small.
struct WireOp {
  int64_t due_ns = 0;  // offset from the phase start
  std::string method;
  std::string job;      // submit/cancel/status target
  bool future = false;  // a submit with a far-future arrival
};

// ops[phase][tenant], in due-time order.
using OpStream = std::vector<std::vector<std::vector<WireOp>>>;

struct OpRecord {
  std::string method;
  bool ok = false;
  int64_t latency_ns = 0;  // reply time - due time
  int64_t rtt_ns = 0;      // reply time - send time
  int64_t lag_ns = 0;      // send time - due time
  std::string job;
};

bool IsWrite(const std::string& method) { return method == "submit" || method == "cancel"; }

JsonValue SubmitParams(const std::string& name, bool future) {
  JsonValue params = JsonValue::MakeObject();
  params.Set("name", JsonValue::MakeString(name));
  params.Set("trials", JsonValue::MakeNumber(2));
  params.Set("min_iters", JsonValue::MakeNumber(1));
  params.Set("max_iters", JsonValue::MakeNumber(2));
  params.Set("eta", JsonValue::MakeNumber(2));
  params.Set("deadline_s", JsonValue::MakeNumber(36'000.0));
  if (future) params.Set("submit_at_s", JsonValue::MakeNumber(kFutureArrivalS));
  return params;
}

JsonValue Params(const WireOp& op) {
  if (op.method == "submit") return SubmitParams(op.job, op.future);
  JsonValue params = JsonValue::MakeObject();
  if (!op.job.empty()) params.Set("job", JsonValue::MakeString(op.job));
  return params;
}

// ops[phase][tenant]: the seeded op stream, fixed before any request is
// sent. The mix is the traffic shape bench/server_load.cc documents —
// tenants poll far more often than they submit: one write per 100 requests
// of a tenant (cycling submit, submit, far-future submit, cancel of that
// far-future job), one report and one metrics read per 100, and the rest
// split evenly between status polls of the tenant's latest job and pings.
OpStream MakeOps(uint64_t seed, double seconds) {
  OpStream ops;
  for (size_t p = 0; p < std::size(kRates); ++p) {
    ops.emplace_back(kTenants);
  }
  for (int t = 0; t < kTenants; ++t) {
    Rng rng = Rng::ForStream(seed, 0x3172E, static_cast<uint64_t>(t));
    std::vector<std::string> futures;  // uncancelled far-future jobs
    std::string last_job;
    int serial = 0;
    int64_t index = 0;  // the tenant's request count, over all rates
    for (size_t p = 0; p < std::size(kRates); ++p) {
      const double mean_gap_s = kTenants / kRates[p];
      const double phase_s = seconds * kPhaseShare[p];
      double at = rng.Exponential(mean_gap_s);
      while (at < phase_s) {
        WireOp op;
        op.due_ns = static_cast<int64_t>(at * 1e9);
        const int64_t slot = index % kRequestsPerWrite;
        const int64_t write = index / kRequestsPerWrite;
        ++index;
        if (slot == 0 && write % 4 == 3 && !futures.empty()) {
          op.method = "cancel";
          op.job = futures.front();
          futures.erase(futures.begin());
        } else if (slot == 0) {
          // A far-future arrival stays pending: a later cancel target.
          op.method = "submit";
          op.job = "t" + std::to_string(t) + "-" + std::to_string(serial++);
          op.future = write % 4 == 2;
          if (op.future) {
            futures.push_back(op.job);
          } else {
            last_job = op.job;
          }
        } else if (slot == kRequestsPerWrite / 2) {
          op.method = "report";
        } else if (slot == kRequestsPerWrite / 4) {
          op.method = "metrics";
        } else if (rng.UniformInt(0, 1) == 0) {
          op.method = "status";
          op.job = last_job;
        } else {
          op.method = "ping";
        }
        ops[p][static_cast<size_t>(t)].push_back(std::move(op));
        at += rng.Exponential(mean_gap_s);
      }
    }
  }
  return ops;
}

bool ReplyOk(const JsonValue& response) {
  return response.is_object() && response.Has("ok") && response.at("ok").bool_value();
}

struct PhaseStats {
  double rate = 0.0;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t within_limit = 0;
  double ok_per_s = 0.0;
  Samples submit_ms, read_ms, lag_ms, rtt_submit_ms;
  double end_lag_ms = 0.0;  // mean lag over the phase's last tenth
  int64_t allocs = 0;

  double WithinShare() const {
    return sent > 0 ? static_cast<double>(within_limit) / static_cast<double>(sent) : 0.0;
  }
  bool MeetsLimit() const { return WithinShare() >= 0.99 && end_lag_ms < kLimitMs; }
};

PhaseStats Summarize(double rate, const std::vector<std::vector<OpRecord>>& records,
                     double wall_s) {
  PhaseStats stats;
  stats.rate = rate;
  Samples end_lag;
  for (const std::vector<OpRecord>& tenant : records) {
    for (size_t i = 0; i < tenant.size(); ++i) {
      const OpRecord& r = tenant[i];
      const double latency_ms = static_cast<double>(r.latency_ns) / 1e6;
      ++stats.sent;
      stats.ok += r.ok;
      stats.within_limit += r.ok && latency_ms <= kLimitMs;
      stats.lag_ms.Add(static_cast<double>(r.lag_ns) / 1e6);
      if (i * 10 >= tenant.size() * 9) end_lag.Add(static_cast<double>(r.lag_ns) / 1e6);
      if (!r.ok) continue;
      if (r.method == "submit") {
        stats.submit_ms.Add(latency_ms);
        stats.rtt_submit_ms.Add(static_cast<double>(r.rtt_ns) / 1e6);
      } else if (!IsWrite(r.method)) {
        stats.read_ms.Add(latency_ms);
      }
    }
  }
  stats.end_lag_ms = end_lag.Mean();
  stats.ok_per_s = wall_s > 0 ? static_cast<double>(stats.ok) / wall_s : 0.0;
  return stats;
}

ServerOptions WireServerOptions(uint64_t seed, const std::string& wal_path) {
  ServerOptions options;
  options.port = 0;
  options.runner.service.capacity_gpus = 64;
  options.runner.service.seed = seed;
  options.runner.auto_advance_step = 1.0;
  options.runner.wal_path = wal_path;  // fsync "always" is the default policy
  return options;
}

// Server + connected clients: the wire workload's set-up.
struct Fixture {
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Client>> clients;
};

bool SetUp(uint64_t seed, const std::string& wal_path, Fixture* fixture, std::string* error) {
  fixture->server = std::make_unique<Server>(WireServerOptions(seed, wal_path));
  if (!fixture->server->Start(error)) return false;
  for (int t = 0; t < kTenants; ++t) {
    auto client = std::make_unique<Client>();
    if (!client->Connect("127.0.0.1", fixture->server->port(), error)) return false;
    fixture->clients.push_back(std::move(client));
  }
  return true;
}

// Parses the report table ("<job> <state> ...") into job -> state.
std::map<std::string, std::string> ReportStates(const std::string& text) {
  std::map<std::string, std::string> states;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string job, state;
    if (fields >> job >> state) states[job] = state;
  }
  return states;
}

// Sends stream[tenant] over the fixture's connections, one generator thread
// per tenant, all starting at `start_ns`. Paced, each request waits for its
// due time; unpaced, they go back to back. Requests still unsent at
// `cutoff_ns` are dropped, and so is a status or cancel naming a job whose
// submit this fixture was not sent (sent_submits[tenant]).
std::vector<std::vector<OpRecord>> SendStream(const Fixture& fixture,
                                              const std::vector<std::vector<WireOp>>& stream,
                                              int64_t start_ns, int64_t cutoff_ns, bool paced,
                                              std::vector<std::set<std::string>>* sent_submits) {
  // Records are reserved here, on the calling thread, so the generator
  // threads' own allocations stay transient.
  std::vector<std::vector<OpRecord>> records(stream.size());
  for (size_t t = 0; t < stream.size(); ++t) records[t].reserve(stream[t].size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < stream.size(); ++t) {
    threads.emplace_back([&, t] {
      Client& client = *fixture.clients[t];
      const std::string tenant = "tenant-" + std::to_string(t);
      std::set<std::string>& submitted = (*sent_submits)[t];
      for (const WireOp& op : stream[t]) {
        const int64_t due = start_ns + (paced ? op.due_ns : 0);
        if (NowNs() > cutoff_ns) break;
        if (op.method == "submit") {
          submitted.insert(op.job);
        } else if (!op.job.empty() && submitted.count(op.job) == 0) {
          continue;
        }
        while (NowNs() < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
        }
        OpRecord record;
        record.method = op.method;
        record.job = op.job;
        const int64_t sent = NowNs();
        JsonValue response;
        std::string call_error;
        const bool delivered = client.Call(op.method, Params(op), tenant, &response, &call_error);
        const int64_t done = NowNs();
        record.ok = delivered && ReplyOk(response);
        record.latency_ns = done - due;
        record.rtt_ns = done - sent;
        record.lag_ns = sent - due;
        records[t].push_back(std::move(record));
        if (!delivered) break;  // connection lost; the rest stay unsent
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return records;
}

// The writes one server acknowledged.
struct Acks {
  std::set<std::string> submits, cancels;
  int64_t writes = 0;
};

// Adds `records` to the workload's sent and failed counts and their
// acknowledged writes to `acks`. Returns the OK replies.
int64_t Tally(const std::vector<std::vector<OpRecord>>& records, Acks* acks,
              WorkloadResult* result) {
  int64_t ok = 0;
  for (const std::vector<OpRecord>& tenant : records) {
    result->attempted += static_cast<int64_t>(tenant.size());
    for (const OpRecord& r : tenant) {
      result->failed += !r.ok;
      if (!r.ok) continue;
      ++ok;
      if (r.method == "submit") acks->submits.insert(r.job);
      if (r.method == "cancel") acks->cancels.insert(r.job);
      acks->writes += IsWrite(r.method);
    }
  }
  return ok;
}

// Checks that every acknowledged write is in the server's final report,
// closes the connections, stops the server and checks that its journal
// holds at least one append per acknowledged write. Returns the server's
// metrics from before the stop.
MetricsSnapshot Finish(const Fixture& fixture, const Acks& acks, WorkloadResult* result) {
  JsonValue final_report;
  std::string call_error;
  const bool got_report =
      fixture.clients[0]->Call("report", JsonValue::MakeObject(), "tenant-0", &final_report,
                               &call_error) &&
      ReplyOk(final_report);
  result->Check(got_report, "final report request failed: " + call_error);
  if (got_report) {
    const auto states = ReportStates(final_report.at("result").at("text").string());
    int64_t missing = 0, not_cancelled = 0;
    for (const std::string& job : acks.submits) missing += states.count(job) == 0;
    for (const std::string& job : acks.cancels) {
      const auto it = states.find(job);
      not_cancelled += it == states.end() || it->second != ToString(JobState::kCancelled);
    }
    result->Check(missing == 0,
                  std::to_string(missing) + " acknowledged submits missing from the report");
    result->Check(not_cancelled == 0, std::to_string(not_cancelled) +
                                          " acknowledged cancels not cancelled in the report");
  }
  const MetricsSnapshot server_metrics = fixture.server->ServerMetrics();
  for (const auto& client : fixture.clients) client->Close();
  fixture.server->Stop();
  const int64_t wal_appends = fixture.server->runner()->wal_appends();
  result->Check(wal_appends >= acks.writes,
                "WAL holds " + std::to_string(wal_appends) + " appends for " +
                    std::to_string(acks.writes) + " acknowledged writes");
  return server_metrics;
}

struct ReplayResult {
  std::map<std::string, Samples> handle_us;  // by method
  Samples tick_us;
  std::vector<std::string> write_records;  // decision bodies of the writes
  int64_t writes = 0;
  int64_t wal_appends = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  ServiceReport report;
};

// Replays the first kReplayOps of the op stream (phase by phase, tenants
// merged by due time) through a socketless ServiceRunner: Handle per op,
// Tick after each, as the service thread does between queue drains. Every
// prefix is a valid stream: a tenant's cancel and status ops only name
// jobs it submitted before.
ReplayResult Replay(const OpStream& ops, uint64_t seed,
                    const std::string& wal_path, bool timed) {
  std::vector<const WireOp*> stream;
  for (const auto& phase : ops) {
    std::vector<const WireOp*> merged;
    for (const auto& tenant : phase) {
      for (const WireOp& op : tenant) merged.push_back(&op);
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const WireOp* a, const WireOp* b) { return a->due_ns < b->due_ns; });
    stream.insert(stream.end(), merged.begin(), merged.end());
  }
  stream.resize(std::min(stream.size(), kReplayOps));
  ReplayResult result;
  RunnerOptions options = WireServerOptions(seed, wal_path).runner;
  const int64_t start = NowNs();
  ServiceRunner runner(options);
  for (const WireOp* op : stream) {
    Request request;
    request.tenant = "replay";
    request.method = op->method;
    request.params = Params(*op);
    const int64_t t0 = NowNs();
    const OpResult reply = runner.Handle(request);
    const int64_t t1 = NowNs();
    runner.Tick();
    if (timed) {
      result.handle_us[op->method].Add(static_cast<double>(t1 - t0) / 1e3);
      result.tick_us.Add(static_cast<double>(NowNs() - t1) / 1e3);
    }
    result.failed += !reply.ok;
    if (IsWrite(op->method)) {
      ++result.writes;
      if (reply.ok) result.write_records.push_back(reply.body.ToJson());
    }
  }
  result.wall_s = SinceS(start);
  result.wal_appends = runner.wal_appends();
  runner.service().FinishLive();
  result.report = runner.service().SnapshotReport();
  return result;
}

}  // namespace

WorkloadResult RunWire(const RunOptions& options) {
  WorkloadResult result;
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(options.scratch_dir) / ("perfbench-wire-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string wal_path = (dir / "server.wal").string();
  const double load_s = std::max(4.0, 0.75 * options.seconds);

  // Set-up: generate the op stream, build + Start the server with a fresh
  // journal (any earlier WAL at the path is removed, so each set-up creates
  // one) and connect one client per tenant. The host's speed drifts over
  // seconds, so the samples come in groups spread over the run: before the
  // rate ladder (the group's last fixture carries the load), halfway up it,
  // one per saturation burst, and at the end. Spare set-ups use a journal
  // of their own.
  Samples setup_s;
  std::string error;
  const auto set_up = [&](const std::string& path, Fixture* fixture, OpStream* ops) {
    fs::remove(path);
    const int64_t start = NowNs();
    *ops = MakeOps(options.seed, load_s);
    const bool ok = SetUp(options.seed, path, fixture, &error);
    setup_s.Add(SinceS(start));
    if (!ok) result.errors.push_back("set-up failed: " + error);
    return ok;
  };
  const auto set_up_spares = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Fixture spare;
      OpStream spare_ops;
      const bool ok = set_up((dir / "spare.wal").string(), &spare, &spare_ops);
      spare.server->Stop();
      if (!ok) return false;
    }
    return true;
  };

  Fixture fixture;
  OpStream ops;
  if (!set_up_spares(kSetupsPerGroup - 1) || !set_up(wal_path, &fixture, &ops)) {
    if (fixture.server) fixture.server->Stop();
    fs::remove_all(dir);
    return result;
  }

  // ---- the rate ladder ----
  std::vector<PhaseStats> phases;
  Acks acks;
  int64_t unsent = 0;
  // Per tenant, the jobs whose submit was sent: a status or cancel of a job
  // whose submit was cut off is not sent either.
  std::vector<std::set<std::string>> sent_submits(kTenants);
  for (size_t p = 0; p < std::size(kRates); ++p) {
    if (p == std::size(kRates) / 2) set_up_spares(kSetupsPerGroup);
    const int64_t allocs = AllocCount();
    const int64_t phase_start = NowNs() + 5'000'000;  // all tenants start together
    const double span_s = load_s * kPhaseShare[p];
    const int64_t cutoff = phase_start + static_cast<int64_t>((kCutoffSpans * span_s + 1) * 1e9);
    const auto records =
        SendStream(fixture, ops[p], phase_start, cutoff, /*paced=*/true, &sent_submits);
    PhaseStats stats = Summarize(kRates[p], records, SinceS(phase_start));
    stats.allocs = AllocCount() - allocs;
    for (size_t t = 0; t < records.size(); ++t) {
      unsent += static_cast<int64_t>(ops[p][t].size() - records[t].size());
    }
    Tally(records, &acks, &result);
    phases.push_back(std::move(stats));
  }
  const MetricsSnapshot server_metrics = Finish(fixture, acks, &result);
  const int64_t wal_appends = fixture.server->runner()->wal_appends();
  // Peak memory is read here: the bursts below repeat one fixed stream on
  // fresh servers and would only add allocator noise to it.
  const double peak_rss_mb = PeakRssMb();
  fixture = Fixture{};

  // ---- saturation bursts, each on a fresh server ----
  double capacity = 0.0;
  std::vector<std::string> burst_notes;
  for (int b = 0; b < kBursts; ++b) {
    Fixture burst;
    OpStream burst_ops;
    if (!set_up((dir / "burst.wal").string(), &burst, &burst_ops)) {
      if (burst.server) burst.server->Stop();
      break;
    }
    std::vector<std::set<std::string>> burst_submits(kTenants);
    const int64_t start = NowNs() + 5'000'000;
    const auto records =
        SendStream(burst, burst_ops.back(), start,
                   start + static_cast<int64_t>(kBurstCutoffS * 1e9), /*paced=*/false,
                   &burst_submits);
    const double wall_s = SinceS(start);
    Acks burst_acks;
    const int64_t ok = Tally(records, &burst_acks, &result);
    Finish(burst, burst_acks, &result);
    capacity = std::max(capacity, static_cast<double>(ok) / wall_s);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "saturation burst %d: %lld OK replies back to back in %.3f s, %.0f OK/s", b,
                  static_cast<long long>(ok), wall_s, static_cast<double>(ok) / wall_s);
    burst_notes.push_back(line);
  }
  result.succeeded = result.attempted - result.failed;
  set_up_spares(kSetupsPerGroup);

  // ---- deterministic simulated outcomes from the socketless replay ----
  ReplayResult replay = Replay(ops, options.seed, "", /*timed=*/false);
  result.Check(replay.failed == 0,
               std::to_string(replay.failed) + " replayed requests failed");
  const ServiceReport& report = replay.report;
  int met = 0, settled = 0;
  Samples jct;
  for (const JobOutcome& job : report.jobs) {
    if (job.state == JobState::kCancelled) continue;
    ++settled;
    met += job.state == JobState::kCompleted && job.met_deadline;
    if (job.state == JobState::kCompleted) jct.Add(job.jct);
  }
  const double cost_per_job = report.cost_per_completed_job.dollars();
  const double hit_rate = settled > 0 ? static_cast<double>(met) / settled : 0.0;

  // ---- metrics ----
  // Latencies are read at the top rate that meets the limit (the lowest
  // rate when none does).
  size_t top = 0;
  double max_rps = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    if (!phases[p].MeetsLimit()) continue;
    top = p;
    max_rps = phases[p].rate;
  }
  const PhaseStats& reference = phases[top];
  const PhaseStats& idle = phases.front();

  result.notes.push_back("offered    sent      ok  within50ms   ok/s  submit p50/p99 ms  "
                         "read p50/p99 ms  lag p99 ms  end lag ms");
  for (const PhaseStats& s : phases) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%7.0f %7lld %7lld %10.2f%% %7.0f %8.3f / %-8.3f %7.3f / %-8.3f %9.3f %10.3f",
                  s.rate, static_cast<long long>(s.sent), static_cast<long long>(s.ok),
                  100.0 * s.WithinShare(), s.ok_per_s, s.submit_ms.Median(),
                  s.submit_ms.Quantile(0.99), s.read_ms.Median(), s.read_ms.Quantile(0.99),
                  s.lag_ms.Quantile(0.99), s.end_lag_ms);
    result.notes.push_back(line);
  }
  char note[200];
  std::snprintf(note, sizeof(note),
                "%zu acknowledged submits, %zu acknowledged cancels, %lld WAL appends; "
                "%lld requests cut off unsent; latencies at %.0f/s, %zu submit "
                "samples",
                acks.submits.size(), acks.cancels.size(), static_cast<long long>(wal_appends),
                static_cast<long long>(unsent), reference.rate, reference.submit_ms.size());
  result.notes.push_back(note);
  result.notes.insert(result.notes.end(), burst_notes.begin(), burst_notes.end());

  result.Named("setup_s", setup_s.Median(), "s");
  result.Named("peak_rss_mb", peak_rss_mb, "MB");
  result.Named("max_rps", max_rps, "1/s");
  result.Named("saturated_ok_per_s", capacity, "1/s");
  result.Named("latency_rate_per_s", reference.rate, "1/s");
  result.Named("submit_p50_ms", reference.submit_ms.Median(), "ms");
  result.Named("submit_p95_ms", reference.submit_ms.Quantile(0.95), "ms");
  result.Named("submit_p99_ms", reference.submit_ms.Quantile(0.99), "ms");
  result.Named("read_p99_ms", reference.read_ms.Quantile(0.99), "ms");
  result.Named("idle_submit_p50_ms", idle.submit_ms.Median(), "ms");
  result.Named("sim_cost_per_job_usd", cost_per_job, "USD");

  result.E2e("setup_s", setup_s.Median(), "s");
  result.E2e("peak_rss_mb", peak_rss_mb, "MB");
  result.E2e("throughput_per_s", capacity, "1/s");
  result.E2e("sim_cost_usd", cost_per_job, "USD");
  result.E2e("sim_deadline_hit_rate", hit_rate, "ratio");
  result.E2e("sim_jct_s", jct.Mean(), "s");

  if (options.trace) {
    // Server-side view of the live run.
    double decision_p50 = 0.0, decision_p99 = 0.0;
    const auto decision = server_metrics.histograms.find("server.submit.decision_ns");
    if (decision != server_metrics.histograms.end()) {
      decision_p50 = decision->second.QuantileNs(0.50) / 1e6;
      decision_p99 = decision->second.QuantileNs(0.99) / 1e6;
    }
    int64_t rejected = 0;
    for (const auto& [name, value] : server_metrics.counters) {
      if (name.rfind("server.rejected.", 0) == 0) rejected += value;
    }
    // Socketless replay, plain and timed, with the journal on.
    Samples plain_wall, traced_wall;
    ReplayResult timed;
    for (int round = 0; round < 2; ++round) {
      plain_wall.Add(Replay(ops, options.seed, wal_path, false).wall_s);
      timed = Replay(ops, options.seed, wal_path, true);
      traced_wall.Add(timed.wall_s);
    }
    // The journal alone: append each replayed write's decision, then sync.
    Samples append_us, sync_us;
    {
      WalWriter wal;
      WalOptions wal_options;
      wal_options.fsync = FsyncPolicy::kOff;
      result.Check(wal.Create((dir / "probe.wal").string(), wal_options, &error),
                   "WAL probe: " + error);
      for (const std::string& record : timed.write_records) {
        const int64_t t0 = NowNs();
        const bool appended = wal.Append(record, &error);
        const int64_t t1 = NowNs();
        const bool synced = wal.Sync(&error);
        sync_us.Add(static_cast<double>(NowNs() - t1) / 1e3);
        append_us.Add(static_cast<double>(t1 - t0) / 1e3);
        if (!appended || !synced) {
          result.errors.push_back("WAL probe: " + error);
          break;
        }
      }
      wal.Close();
    }

    result.trace_overhead = traced_wall.Median() / plain_wall.Median() - 1.0;
    result.traced_wall_s = timed.wall_s;
    double handle_s = 0.0;
    for (const auto& [method, samples] : timed.handle_us) handle_s += samples.Sum() / 1e6;
    result.layer_rows.push_back({"server", "ServiceRunner::Handle", handle_s});
    result.layer_rows.push_back({"server", "ServiceRunner::Tick", timed.tick_us.Sum() / 1e6});

    result.Layer("server.decision_ms_p50", decision_p50, "ms");
    result.Layer("server.decision_ms_p99", decision_p99, "ms");
    result.Layer("server.transport_ms_p50",
                 std::max(0.0, reference.rtt_submit_ms.Median() - decision_p50), "ms");
    result.Layer("server.generator_lag_ms_p99", reference.lag_ms.Quantile(0.99), "ms");
    result.Layer("server.rejected", static_cast<double>(rejected), "count");
    result.Layer("server.allocs_per_request",
                 static_cast<double>(reference.allocs) / static_cast<double>(reference.sent),
                 "count");
    for (const char* method : {"submit", "cancel", "status", "report", "metrics"}) {
      result.Layer(std::string("server.runner.handle_us.") + method,
                   timed.handle_us[method].Mean(), "us");
    }
    result.Layer("server.runner.tick_us", timed.tick_us.Mean(), "us");
    result.Layer("server.wal.append_us", append_us.Mean(), "us");
    result.Layer("server.wal.sync_us", sync_us.Mean(), "us");
    result.Layer("server.wal.appends_per_write",
                 timed.writes > 0 ? static_cast<double>(timed.wal_appends) / timed.writes : 0.0,
                 "count");
  }
  fs::remove_all(dir);
  return result;
}

}  // namespace perfbench
