// Closed-loop load generator for the serving front door.
//
// Phase 1 (throughput): starts an in-process server, then W worker threads
// each drive one connection in a closed loop — mostly cheap status/ping
// polls with a submit mixed in every kSubmitEvery requests (the realistic
// shape: tenants poll far more often than they submit). Reports sustained
// req/s and client-side latency, plus the server's own submit→decision
// p50/p99 from its metrics registry.
//
// Phase 2 (backpressure): a fresh server with a per-tenant token bucket. A
// hog tenant submits as fast as the socket allows while a compliant tenant
// paces below the limit; over-limit traffic must bounce with RATE_LIMITED
// (honest retry-after) and the compliant tenant's admission latency must
// stay flat. The phase is a check, not only a report: the run exits 1 when
// the hog is never rate-limited, when no rejection carries a retry-after,
// or when the compliant tenant is rejected.
//
//   --workers=8 --requests=2000      phase-1 shape (per-worker request count)
//   --rate=200 --burst=20            phase-2 per-tenant bucket
//   --seed=11                        service RNG seed for both phases
//   --json <path>                    write BENCH_server.json
//   --skip-backpressure              phase 1 only

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/obs/metrics.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace rubberband {
namespace {

constexpr int kSubmitEvery = 100;  // 1 submit per 100 requests in phase 1

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A tiny tuning job: admission still runs the real planner, but over a
// trivial search so the service thread stays submit-bound, not plan-bound.
JsonValue TinySubmitParams(const std::string& name) {
  JsonValue params = JsonValue::MakeObject();
  params.Set("name", JsonValue::MakeString(name));
  params.Set("trials", JsonValue::MakeNumber(2));
  params.Set("min_iters", JsonValue::MakeNumber(1));
  params.Set("max_iters", JsonValue::MakeNumber(2));
  params.Set("eta", JsonValue::MakeNumber(2));
  params.Set("deadline_s", JsonValue::MakeNumber(36'000.0));
  return params;
}

ServerOptions BaseOptions(uint64_t seed) {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.runner.service.capacity_gpus = 64;
  options.runner.service.seed = seed;
  options.runner.auto_advance_step = 1.0;
  return options;
}

struct WorkerStats {
  int64_t ok = 0;
  int64_t errors = 0;
};

struct ThroughputResult {
  double wall_s = 0.0;
  int64_t requests = 0;
  int64_t errors = 0;
  double req_per_s = 0.0;
  double client_p50_ms = 0.0;
  double client_p99_ms = 0.0;
  double decision_p50_ms = 0.0;
  double decision_p99_ms = 0.0;
};

ThroughputResult RunThroughput(int workers, int requests_per_worker, uint64_t seed) {
  Server server(BaseOptions(seed));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return {};
  }

  Histogram client_latency(FineLatencyBucketsNs());
  std::vector<WorkerStats> stats(static_cast<size_t>(workers));
  const int64_t begin_ns = NowNs();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      Client client;
      std::string conn_error;
      if (!client.Connect("127.0.0.1", server.port(), &conn_error)) {
        stats[static_cast<size_t>(w)].errors = requests_per_worker;
        return;
      }
      const std::string tenant = "tenant-" + std::to_string(w);
      int submitted = 0;
      for (int i = 0; i < requests_per_worker; ++i) {
        JsonValue params = JsonValue::MakeObject();
        std::string method = "ping";
        if (i % kSubmitEvery == 0) {
          method = "submit";
          params = TinySubmitParams(tenant + "-job-" + std::to_string(submitted++));
        } else if (i % 2 == 0) {
          method = "status";
          params.Set("job", JsonValue::MakeString(tenant + "-job-0"));
        }
        JsonValue response;
        std::string call_error;
        const int64_t t0 = NowNs();
        if (!client.Call(method, params, tenant, &response, &call_error)) {
          ++stats[static_cast<size_t>(w)].errors;
          break;  // transport dead; stop this worker
        }
        client_latency.RecordNanos(NowNs() - t0);
        if (response.Has("ok") && response.at("ok").bool_value()) {
          ++stats[static_cast<size_t>(w)].ok;
        } else {
          ++stats[static_cast<size_t>(w)].errors;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const int64_t elapsed_ns = NowNs() - begin_ns;

  const MetricsSnapshot server_metrics = server.ServerMetrics();
  server.Stop();

  ThroughputResult result;
  result.wall_s = static_cast<double>(elapsed_ns) / 1e9;
  for (const WorkerStats& s : stats) {
    result.requests += s.ok + s.errors;
    result.errors += s.errors;
  }
  result.req_per_s = static_cast<double>(result.requests) / result.wall_s;
  const HistogramSnapshot client_snapshot = client_latency.Snapshot();
  result.client_p50_ms = client_snapshot.QuantileNs(0.50) / 1e6;
  result.client_p99_ms = client_snapshot.QuantileNs(0.99) / 1e6;
  const auto decision = server_metrics.histograms.find("server.submit.decision_ns");
  if (decision != server_metrics.histograms.end()) {
    result.decision_p50_ms = decision->second.QuantileNs(0.50) / 1e6;
    result.decision_p99_ms = decision->second.QuantileNs(0.99) / 1e6;
  }
  return result;
}

struct BackpressureResult {
  int64_t hog_admitted = 0;
  int64_t hog_rejected = 0;
  int64_t hog_other_errors = 0;
  bool retry_after_seen = false;
  int64_t compliant_admitted = 0;
  int64_t compliant_rejected = 0;
  double compliant_p99_ms = 0.0;
};

BackpressureResult RunBackpressure(double rate, double burst, int hog_requests, uint64_t seed) {
  ServerOptions options = BaseOptions(seed);
  options.rate.rate_per_second = rate;
  options.rate.burst = burst;
  Server server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return {};
  }

  BackpressureResult result;
  Histogram compliant_latency(FineLatencyBucketsNs());

  std::thread hog([&] {
    Client client;
    std::string conn_error;
    if (!client.Connect("127.0.0.1", server.port(), &conn_error)) {
      return;
    }
    for (int i = 0; i < hog_requests; ++i) {
      JsonValue response;
      std::string call_error;
      if (!client.Call("submit", TinySubmitParams("hog-" + std::to_string(i)), "hog",
                       &response, &call_error)) {
        break;
      }
      if (response.at("ok").bool_value()) {
        ++result.hog_admitted;
      } else if (response.at("error").at("code").string() == kErrRateLimited) {
        ++result.hog_rejected;
        if (response.at("error").Has("retry_after_ms")) {
          result.retry_after_seen = true;
        }
      } else {
        ++result.hog_other_errors;
      }
    }
  });

  std::thread compliant([&] {
    Client client;
    std::string conn_error;
    if (!client.Connect("127.0.0.1", server.port(), &conn_error)) {
      return;
    }
    // Pace at half the allowed rate: this tenant is never the problem.
    const auto gap = std::chrono::nanoseconds(static_cast<int64_t>(2e9 / rate));
    const int count = hog_requests / 20;
    for (int i = 0; i < count; ++i) {
      JsonValue response;
      std::string call_error;
      const int64_t t0 = NowNs();
      if (!client.Call("submit", TinySubmitParams("ok-" + std::to_string(i)), "compliant",
                       &response, &call_error)) {
        break;
      }
      compliant_latency.RecordNanos(NowNs() - t0);
      if (response.at("ok").bool_value()) {
        ++result.compliant_admitted;
      } else {
        ++result.compliant_rejected;
      }
      std::this_thread::sleep_for(gap);
    }
  });

  hog.join();
  compliant.join();
  server.Stop();
  result.compliant_p99_ms = compliant_latency.Snapshot().QuantileNs(0.99) / 1e6;
  return result;
}

bool WriteJson(const std::string& path, int workers, const ThroughputResult& load,
               double rate, const BackpressureResult& bp) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\n  \"benchmark\": \"server_load\",\n");
  std::fprintf(file,
               "  \"throughput\": {\"workers\": %d, \"requests\": %lld, \"errors\": %lld, "
               "\"wall_s\": %.3f, \"req_per_s\": %.0f, \"client_p50_ms\": %.3f, "
               "\"client_p99_ms\": %.3f, \"submit_decision_p50_ms\": %.3f, "
               "\"submit_decision_p99_ms\": %.3f},\n",
               workers, static_cast<long long>(load.requests),
               static_cast<long long>(load.errors), load.wall_s, load.req_per_s,
               load.client_p50_ms, load.client_p99_ms, load.decision_p50_ms,
               load.decision_p99_ms);
  std::fprintf(file,
               "  \"backpressure\": {\"rate_per_s\": %.0f, \"hog_admitted\": %lld, "
               "\"hog_rate_limited\": %lld, \"retry_after_present\": %s, "
               "\"compliant_admitted\": %lld, \"compliant_rejected\": %lld, "
               "\"compliant_p99_ms\": %.3f}\n}\n",
               rate, static_cast<long long>(bp.hog_admitted),
               static_cast<long long>(bp.hog_rejected), bp.retry_after_seen ? "true" : "false",
               static_cast<long long>(bp.compliant_admitted),
               static_cast<long long>(bp.compliant_rejected), bp.compliant_p99_ms);
  std::fclose(file);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc - 1, argv + 1);
  const int workers = flags.GetInt("workers", 8);
  const int requests = flags.GetInt("requests", 2000);
  const double rate = flags.GetDouble("rate", 200.0);
  const double burst = flags.GetDouble("burst", 20.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 11));

  bench::Heading("serving front door: closed-loop load");
  const ThroughputResult load = RunThroughput(workers, requests, seed);
  std::printf("%d workers x %d requests: %.0f req/s over %.2fs (%lld requests, %lld errors)\n",
              workers, requests, load.req_per_s, load.wall_s,
              static_cast<long long>(load.requests), static_cast<long long>(load.errors));
  std::printf("client latency p50 %.3fms p99 %.3fms; submit->decision p50 %.3fms p99 %.3fms\n",
              load.client_p50_ms, load.client_p99_ms, load.decision_p50_ms,
              load.decision_p99_ms);

  BackpressureResult bp;
  bool backpressure_held = true;
  if (!flags.GetBool("skip-backpressure")) {
    bench::Heading("per-tenant backpressure: hog vs compliant");
    bp = RunBackpressure(rate, burst, /*hog_requests=*/2000, seed);
    std::printf("hog:       %lld admitted, %lld rate-limited (retry-after %s), %lld other\n",
                static_cast<long long>(bp.hog_admitted),
                static_cast<long long>(bp.hog_rejected),
                bp.retry_after_seen ? "present" : "MISSING",
                static_cast<long long>(bp.hog_other_errors));
    std::printf("compliant: %lld admitted, %lld rejected, p99 %.3fms\n",
                static_cast<long long>(bp.compliant_admitted),
                static_cast<long long>(bp.compliant_rejected), bp.compliant_p99_ms);
    const char* failure = nullptr;
    if (bp.hog_rejected == 0) {
      failure = "the hog was never rate-limited";
    } else if (!bp.retry_after_seen) {
      failure = "no RATE_LIMITED reply carried a retry-after";
    } else if (bp.compliant_rejected > 0) {
      failure = "the compliant tenant was rejected";
    }
    if (failure != nullptr) {
      std::fprintf(stderr, "error: backpressure check failed: %s\n", failure);
      backpressure_held = false;
    }
  }

  if (flags.Has("json")) {
    const std::string path = flags.GetString("json", "");
    if (path.empty()) {
      std::fprintf(stderr, "error: --json requires a path\n");
      return 2;
    }
    if (!WriteJson(path, workers, load, rate, bp)) {
      return 1;
    }
  }
  return backpressure_held ? 0 : 1;
}

}  // namespace
}  // namespace rubberband

int main(int argc, char** argv) { return rubberband::Main(argc, argv); }
