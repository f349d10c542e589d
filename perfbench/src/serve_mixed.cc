// serve-mixed: a SessionManager driven through Submit and the ticket wait.
// Three figures come from it: the service time of a fixed burst of requests
// drained as fast as admission allows (untraced runs), the highest rate of
// a fixed ladder it sustains in an open loop (its capacity; traced runs),
// and request latency at a reference rate below that capacity. Tenants send
// an even ridge / gridsearch / stats cycle over per-tenant inputs; one
// tenant's working set exceeds the shared store's tenant quota (the store
// harvests and evicts), the others fit (warm reads).

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>

#include "common/rng.h"
#include "common/status.h"
#include "common/tolerance.h"
#include "compiler/parser.h"
#include "fuzz/oracle.h"
#include "harness.h"
#include "matrix/kernels.h"
#include "serve/session_manager.h"
#include "serve/workloads.h"
#include "workloads/pipelines.h"

namespace perfbench {

namespace {

using memphis::serve::RequestOutcome;
using memphis::serve::RequestResult;
using memphis::serve::RequestTicketPtr;
using memphis::serve::ScriptRequest;

/// The fixed rate ladder: rung k offers 100 * 1.1^k requests/s, k < 48,
/// from well below to well above the rate at which admission starts to shed
/// (about 1,300/s on the 4-core development host).
constexpr size_t kRungs = 48;
double LadderRps(size_t k) { return std::round(100 * std::pow(1.1, k)); }
/// The search visits every kLadderStride-th rung until one is invalid, then
/// bisects between the last valid and the first invalid rung it saw.
constexpr size_t kLadderStride = 8;
/// Tries a rung gets before it counts as invalid.
constexpr int kRungTries = 3;
/// The rung of the reference rate, about half the capacity at the commit
/// that set the benchmark: latency, shedding and the per-layer numbers are
/// reported there.
constexpr size_t kReferenceRung = 16;
/// A rung is valid when its tail latency stays within this limit, ...
constexpr double kLatencyLimitMs = 50;
/// ... and the generator kept to the schedule (p99 lag within this bound).
constexpr double kMaxGeneratorLagMs = 10;
/// Requests older than this when a worker picks them up are shed.
constexpr double kDeadlineMs = 500;
/// Leading share of each rung's arrivals that warms sessions and the store
/// and is left out of the rung's statistics.
constexpr double kWarmupShare = 0.15;
/// Requests per drain: every tenant x workload pair sixty times.
constexpr size_t kDrainRequests = 540;
/// Per-tenant partition of the shared store: tenant0's harvested entries
/// overflow it, the other tenants' fit (see perfbench/README.md).
constexpr size_t kStoreTenantQuota = 128ull << 10;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Tenant {
  std::string name;
  size_t rows = 0, cols = 0;
  std::vector<uint64_t> seeds;  // The tenant's distinct inputs.
};

/// Three tenants, as in bench/bench_serve.cc, on its two input shapes
/// (384 x 24 for its traffic, 128 x 12 for its smoke run). tenant0 draws
/// from eight inputs, more than its store partition holds; tenant1 and
/// tenant2 draw from two each, which fit. The seed picks the inputs.
std::vector<Tenant> MakeTenants(uint64_t seed) {
  struct Shape {
    const char* name;
    size_t rows, cols;
    int inputs;
  };
  constexpr Shape kShapes[] = {
      {"tenant0", 384, 24, 8}, {"tenant1", 384, 24, 2}, {"tenant2", 128, 12, 2}};
  memphis::Rng rng(seed);
  std::vector<Tenant> tenants;
  for (const Shape& shape : kShapes) {
    Tenant tenant{shape.name, shape.rows, shape.cols, {}};
    for (int i = 0; i < shape.inputs; ++i) {
      tenant.seeds.push_back(1 + rng.NextInt(1u << 30));
    }
    tenants.push_back(tenant);
  }
  return tenants;
}

struct Arrival {
  double due = 0;  // Seconds after the rung starts.
  ScriptRequest request;
};

/// `count` requests in an even cycle: request i goes to tenant i % T and
/// runs workload (i / T) % W, so every tenant sends every workload equally
/// often. The seed picks each request's input among its tenant's.
std::vector<Arrival> MakeRequests(const std::vector<Tenant>& tenants,
                                  size_t count, memphis::Rng& rng) {
  const std::vector<std::string> names = memphis::serve::WorkloadNames();
  std::vector<Arrival> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Tenant& tenant = tenants[i % tenants.size()];
    const std::string& name = names[(i / tenants.size()) % names.size()];
    const uint64_t input = tenant.seeds[rng.NextInt(tenant.seeds.size())];
    requests.push_back({0.0, memphis::serve::MakeWorkloadRequest(
                                 tenant.name, name, tenant.rows, tenant.cols,
                                 input)});
  }
  return requests;
}

/// `rate * seconds` open-loop arrivals: a Poisson process conditioned on
/// its count (sorted uniform due times over the rung), each with the
/// deadline after which a queued request is shed.
std::vector<Arrival> MakeSchedule(const std::vector<Tenant>& tenants,
                                  double rate, double seconds,
                                  uint64_t seed) {
  memphis::Rng rng(seed);
  std::vector<Arrival> schedule = MakeRequests(
      tenants, static_cast<size_t>(std::llround(rate * seconds)), rng);
  std::vector<double> dues(schedule.size());
  for (double& due : dues) due = rng.NextDouble(0.0, seconds);
  std::sort(dues.begin(), dues.end());
  for (size_t i = 0; i < schedule.size(); ++i) {
    schedule[i].due = dues[i];
    schedule[i].request.deadline_ms = kDeadlineMs;
  }
  return schedule;
}

memphis::serve::ServeConfig MakeServeConfig() {
  memphis::serve::ServeConfig config;
  config.workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  config.store_tenant_quota = kStoreTenantQuota;
  config.session =
      memphis::workloads::MakeConfig(memphis::workloads::Baseline::kMemphis);
  return config;
}

/// One request as the generator and the manager saw it.
struct Sent {
  double due = 0;                  // Absolute, NowS() clock.
  double submit_start = 0, submit_end = 0;
  double queue_depth = 0;          // Manager queue depth after Submit.
  bool submit_threw = false;
  RequestTicketPtr ticket;
  RequestResult result;
  RequestOutcome outcome = RequestOutcome::kPending;
  double latency_ms = kInf;        // Due time -> finish; inf when shed.
};

struct Rung {
  double rate = 0;
  std::vector<Sent> sent;
  size_t warmup = 0;               // sent[0, warmup) excluded from stats.
  Counts global;                   // Registry delta, construction->shutdown.
  double drain_s = 0;              // RunDrain: first submit -> last finish.
  std::vector<size_t> partition_bytes;  // RunDrain: per tenant, at the end.
};

/// Reads every ticket's result; latency runs from the due time.
void CollectResults(Rung* rung) {
  for (Sent& sent : rung->sent) {
    if (sent.ticket == nullptr) continue;
    sent.result = sent.ticket->result();
    sent.outcome = sent.result.outcome;
    if (sent.outcome == RequestOutcome::kCompleted) {
      sent.latency_ms =
          (sent.submit_start - sent.due) * 1e3 + sent.result.total_ms;
    }
  }
}

/// Drives one rung on a fresh SessionManager: the calling thread submits on
/// schedule, a waiter thread waits on the tickets.
Rung RunRung(const memphis::serve::ServeConfig& config, double rate,
             const std::vector<Arrival>& schedule, Tracer& tracer) {
  Rung rung;
  rung.rate = rate;
  rung.sent.resize(schedule.size());
  rung.warmup = static_cast<size_t>(kWarmupShare * schedule.size());
  const Counts before = Snapshot(memphis::obs::MetricsRegistry::Global());
  memphis::serve::SessionManager manager(config);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, int>> pending;  // (index, request span).
  bool done = false;
  std::thread waiter([&] {
    for (;;) {
      std::pair<size_t, int> next;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        next = pending.front();
        pending.pop_front();
      }
      Sent& sent = rung.sent[next.first];
      if (sent.ticket != nullptr) {
        ScopedSpan span(tracer, "serve.wait", next.first, next.second);
        sent.ticket->Wait();
      }
      tracer.End(next.second);
    }
  });

  // Stops the waiter once everything submitted has been waited on; runs on
  // the exception path too, so the thread is always joined.
  auto stop_waiter = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    waiter.join();
  };
  const double start = NowS() + 0.01;
  try {
    for (size_t i = 0; i < schedule.size(); ++i) {
      Sent& sent = rung.sent[i];
      sent.due = start + schedule[i].due;
      std::this_thread::sleep_for(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(sent.due - NowS())));
      const int request_span =
          tracer.Begin("bench.request", i, -1, sent.due);
      {
        ScopedSpan span(tracer, "serve.submit", i, request_span);
        sent.submit_start = NowS();
        try {
          sent.ticket = manager.Submit(schedule[i].request);
        } catch (const memphis::MemphisError&) {
          sent.submit_threw = true;
        }
        sent.submit_end = NowS();
      }
      sent.queue_depth = static_cast<double>(manager.QueueDepth());
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.emplace_back(i, request_span);
      }
      cv.notify_one();
    }
  } catch (...) {
    stop_waiter();
    throw;
  }
  stop_waiter();
  manager.Shutdown();
  rung.global =
      Delta(Snapshot(memphis::obs::MetricsRegistry::Global()), before);
  CollectResults(&rung);
  return rung;
}

/// Submits `requests` to a fresh SessionManager as fast as admission lets
/// them in and waits for every one: the drain time is the program's own
/// throughput, not a schedule's. The requests cycle through the tenants, so
/// keeping `tenants * tenant_max_in_flight` of them outstanding keeps every
/// tenant at its in-flight cap and every worker busy without a reject.
Rung RunDrain(const memphis::serve::ServeConfig& config,
              const std::vector<Arrival>& requests,
              const std::vector<Tenant>& tenants) {
  Rung rung;
  rung.sent.resize(requests.size());
  const size_t window = tenants.size() * static_cast<size_t>(
                                             config.admission.tenant_max_in_flight);
  const Counts before = Snapshot(memphis::obs::MetricsRegistry::Global());
  memphis::serve::SessionManager manager(config);
  std::deque<size_t> outstanding;
  const double start = NowS();
  for (size_t i = 0; i < requests.size(); ++i) {
    if (outstanding.size() == window) {
      rung.sent[outstanding.front()].ticket->Wait();
      outstanding.pop_front();
    }
    Sent& sent = rung.sent[i];
    sent.due = sent.submit_start = NowS();
    try {
      sent.ticket = manager.Submit(requests[i].request);
      outstanding.push_back(i);
    } catch (const memphis::MemphisError&) {
      sent.submit_threw = true;
    }
    sent.submit_end = NowS();
  }
  for (size_t i : outstanding) rung.sent[i].ticket->Wait();
  rung.drain_s = NowS() - start;
  for (const Tenant& tenant : tenants) {
    rung.partition_bytes.push_back(
        manager.mutable_store()->PartitionBytes(tenant.name));
  }
  manager.Shutdown();
  rung.global =
      Delta(Snapshot(memphis::obs::MetricsRegistry::Global()), before);
  CollectResults(&rung);
  return rung;
}

/// Rung statistics over its measured (post-warm-up) requests.
struct RungStats {
  std::vector<double> latency_ms, lag_ms, queue_ms, run_ms, submit_us;
  int64_t submitted = 0, completed = 0, rejected = 0, expired = 0,
          failed = 0;
  double probes = 0, hits = 0, cross_hits = 0, sim_s = 0;
  bool growing_backlog = false;
};

RungStats Stats(const Rung& rung) {
  RungStats stats;
  std::vector<double> depth;
  for (size_t i = rung.warmup; i < rung.sent.size(); ++i) {
    const Sent& sent = rung.sent[i];
    ++stats.submitted;
    stats.latency_ms.push_back(sent.latency_ms);
    stats.lag_ms.push_back((sent.submit_start - sent.due) * 1e3);
    stats.submit_us.push_back((sent.submit_end - sent.submit_start) * 1e6);
    depth.push_back(sent.queue_depth);
    switch (sent.outcome) {
      case RequestOutcome::kCompleted:
        ++stats.completed;
        stats.queue_ms.push_back(sent.result.queue_ms);
        stats.run_ms.push_back(sent.result.run_ms);
        stats.probes += sent.result.cache_probes;
        stats.hits += sent.result.cache_hits;
        stats.cross_hits += sent.result.cross_session_hits;
        stats.sim_s += sent.result.sim_seconds;
        break;
      case RequestOutcome::kRejected:
        ++stats.rejected;
        break;
      case RequestOutcome::kDeadlineExpired:
        ++stats.expired;
        break;
      default:
        ++stats.failed;
    }
  }
  // A backlog grows when the queue is clearly deeper in the last third of
  // the rung than in the first; a rung that merely ended before its queue
  // overflowed is caught here.
  const size_t third = depth.size() / 3;
  if (third > 0) {
    double first = 0, last = 0;
    for (size_t i = 0; i < third; ++i) {
      first += depth[i];
      last += depth[depth.size() - 1 - i];
    }
    first /= third;
    last /= third;
    stats.growing_backlog = last > first + std::max(2.0, 0.5 * first);
  }
  return stats;
}

/// Serve accounting: every submit ends in exactly one terminal outcome, in
/// the benchmark's tally and in the serve layer's own counters.
void CheckAccounting(const Rung& rung, Report* report) {
  int64_t submitted = 0, terminal = 0;
  for (const Sent& sent : rung.sent) {
    if (sent.submit_threw) {
      report->Fail("Submit threw for a well-formed request");
      continue;
    }
    ++submitted;
    if (sent.outcome != RequestOutcome::kPending) ++terminal;
  }
  const Counts& g = rung.global;
  const double counted = Get(g, "serve.completed") + Get(g, "serve.rejected") +
                         Get(g, "serve.expired") + Get(g, "serve.failed");
  char why[256];
  if (terminal != submitted || Get(g, "serve.submitted") != submitted ||
      counted != submitted) {
    std::snprintf(why, sizeof(why),
                  "serve accounting at %.0f rps: %lld submitted, %lld "
                  "terminal, registry submitted %.0f, outcomes %.0f",
                  rung.rate, static_cast<long long>(submitted),
                  static_cast<long long>(terminal),
                  Get(g, "serve.submitted"), counted);
    report->Fail(why);
  }
  if (Get(g, "serve.double_records") != 0) {
    std::snprintf(why, sizeof(why), "serve.double_records = %.0f at %.0f rps",
                  Get(g, "serve.double_records"), rung.rate);
    report->Fail(why);
  }
}

/// Checks every completed request's loss in `rung` against fuzz::OracleRun,
/// computed once per distinct (template, inputs) and kept in `oracle`.
void CheckOutputs(const Rung& rung, const std::vector<Arrival>& requests,
                  std::map<std::string, double>* oracle, Tracer& tracer,
                  Report* report) {
  for (size_t i = 0; i < rung.sent.size(); ++i) {
    const Sent& sent = rung.sent[i];
    if (sent.outcome == RequestOutcome::kRejected ||
        sent.outcome == RequestOutcome::kDeadlineExpired) {
      continue;  // Shed, not attempted.
    }
    ++report->attempted;
    if (sent.outcome != RequestOutcome::kCompleted || !sent.result.has_result) {
      report->Fail("request failed: " + sent.result.error);
      continue;
    }
    const ScriptRequest& request = requests[i].request;
    const ScriptRequest::Input& x = request.inputs[0];
    const std::string key =
        request.workload + ":" +
        memphis::serve::StableInputId(x.name, x.rows, x.cols, x.seed);
    auto it = oracle->find(key);
    if (it == oracle->end()) {
      ScopedSpan span(tracer, "bench.oracle", i);
      memphis::fuzz::OracleEnv env;
      for (const ScriptRequest::Input& input : request.inputs) {
        env[input.name] =
            memphis::kernels::RandGaussian(input.rows, input.cols, input.seed);
      }
      memphis::fuzz::OracleRun(memphis::compiler::ParseProgram(request.source),
                               &env);
      it = oracle->emplace(key, env.at(request.result_var)->At(0, 0)).first;
    }
    if (!memphis::Close(sent.result.result_value, it->second)) {
      char why[256];
      std::snprintf(why, sizeof(why), "oracle mismatch: %s loss %.17g != %.17g",
                    key.c_str(), sent.result.result_value, it->second);
      report->Fail(why);
    }
  }
}

/// Median ParseProgram and CompileDag time over the reference schedule's
/// requests, each distinct script timed once, outside every window.
void ScriptCosts(const std::vector<Arrival>& schedule,
                 const memphis::SystemConfig& config, double* parse_ms,
                 double* compile_ms) {
  std::map<std::string, std::pair<double, double>> cost;  // per source+shape.
  double parse_total = 0, compile_total = 0;
  for (const Arrival& arrival : schedule) {
    const ScriptRequest& request = arrival.request;
    const std::string key = request.source + "@" +
                            std::to_string(request.inputs[0].rows);
    auto it = cost.find(key);
    if (it == cost.end()) {
      const double start = NowS();
      memphis::compiler::Program program =
          memphis::compiler::ParseProgram(request.source);
      const double parse = (NowS() - start) * 1e3;
      memphis::compiler::OptimizeProgram(&program, config);
      const double compile = CompileMs(
          program.blocks, config,
          [&request](const std::string& name) -> memphis::compiler::VarInfo {
            for (const ScriptRequest::Input& input : request.inputs) {
              if (input.name == name) {
                return {{input.rows, input.cols}, memphis::Backend::kCP};
              }
            }
            return {{1, 1}, memphis::Backend::kCP};
          });
      it = cost.emplace(key, std::make_pair(parse, compile)).first;
    }
    parse_total += it->second.first;
    compile_total += it->second.second;
  }
  *parse_ms = schedule.empty() ? 0 : parse_total / schedule.size();
  *compile_ms = schedule.empty() ? 0 : compile_total / schedule.size();
}

}  // namespace

void RunServeMixed(const Options& options, Report* report) {
  Tracer tracer(false);
  const Counts global_start = Snapshot(memphis::obs::MetricsRegistry::Global());
  const memphis::serve::ServeConfig config = MakeServeConfig();
  const double reference_rps = LadderRps(kReferenceRung);

  // Shares of the window. An untraced run drains for most of it and then
  // runs the reference schedule. A traced run climbs the ladder instead of
  // draining, then runs the reference schedule twice, once untraced and once
  // traced.
  const double drain_budget_s = 0.8 * options.seconds;
  const double rung_s = 0.04 * options.seconds;
  const double reference_s = (options.trace ? 0.15 : 0.1) * options.seconds;

  // Set-up, repeated for a stable median (at least 5 times and 0.1 s):
  // tenants, the drain requests, the reference schedule and the serving
  // front end (workers started, store created).
  std::vector<Tenant> tenants;
  std::vector<Arrival> drain_requests, reference_schedule;
  std::vector<double> setup_s;
  for (double total = 0;
       setup_s.size() < 5 || (total < 0.1 && setup_s.size() < 100);
       total += setup_s.back()) {
    const double start = NowS();
    tenants = MakeTenants(options.seed);
    memphis::Rng rng(options.seed * 1000 + 999);
    drain_requests = MakeRequests(tenants, kDrainRequests, rng);
    reference_schedule = MakeSchedule(tenants, reference_rps, reference_s,
                                      options.seed * 1000 + 998);
    auto manager = std::make_unique<memphis::serve::SessionManager>(config);
    setup_s.push_back(NowS() - start);
    manager->Shutdown();
  }
  if (options.setup_only) {
    report->e2e["setup_s"] = {Median(setup_s), "s"};
    return;
  }

  // Every drain and rung runs on a fresh manager and is checked as soon as
  // it ends, between timed windows: serve accounting and every completed
  // loss against the oracle. Only its summary is kept, so the harness's own
  // memory stays small next to the program's.
  std::map<std::string, double> oracle;
  auto check = [&](const Rung& rung, const std::vector<Arrival>& requests) {
    CheckAccounting(rung, report);
    tracer.set_enabled(options.trace);
    CheckOutputs(rung, requests, &oracle, tracer, report);
    tracer.set_enabled(false);
  };

  // Throughput: drain the fixed request set until the drain budget is
  // spent.
  std::vector<double> drain_s, drain_sim_s;
  std::vector<double> best_run_ms;  // Per drain request, over the drains.
  std::vector<size_t> partition_bytes;
  auto drain = [&] {
    const Rung rung = RunDrain(config, drain_requests, tenants);
    check(rung, drain_requests);
    const RungStats stats = Stats(rung);
    if (stats.rejected + stats.expired > 0) {
      report->Fail("drain shed " +
                   std::to_string(stats.rejected + stats.expired) +
                   " requests with every tenant within its in-flight cap");
    }
    double sim = 0;
    for (const Sent& sent : rung.sent) sim += sent.result.sim_seconds;
    drain_s.push_back(rung.drain_s);
    best_run_ms.resize(rung.sent.size(), kInf);
    for (size_t i = 0; i < rung.sent.size(); ++i) {
      best_run_ms[i] = std::min(best_run_ms[i], rung.sent[i].result.run_ms);
    }
    drain_sim_s.push_back(sim);
    partition_bytes = rung.partition_bytes;
  };

  // Capacity: the highest valid rung, assuming validity only ever fails
  // from some rate on. A rung is valid when its tail meets the limit (a
  // shed request misses it), nothing failed, the generator kept up and the
  // backlog did not grow.
  auto valid = [](const RungStats& stats) {
    return TailLatency(stats.latency_ms).value <= kLatencyLimitMs &&
           stats.failed == 0 &&
           TailLatency(stats.lag_ms).value <= kMaxGeneratorLagMs &&
           !stats.growing_backlog;
  };
  std::vector<std::string> tries;  // One line per rung try, in order.
  auto try_rung = [&](size_t k) {
    const std::vector<Arrival> schedule = MakeSchedule(
        tenants, LadderRps(k), rung_s, options.seed * 1000 + k);
    // Interference from other processes only ever adds latency, so a rung
    // that misses gets more tries: one valid try shows the rate is
    // sustained.
    for (int attempt = 0; attempt < kRungTries; ++attempt) {
      const Rung rung = RunRung(config, LadderRps(k), schedule, tracer);
      check(rung, schedule);
      const RungStats stats = Stats(rung);
      const Tail tail = TailLatency(stats.latency_ms);
      char line[200];
      std::snprintf(
          line, sizeof(line),
          "%.0f rps: p50 %.2f ms, p%.1f %.2f ms (n=%lld), lag p99 %.2f ms, "
          "shed %lld, backlog %s, %s",
          rung.rate, Median(stats.latency_ms), tail.percentile, tail.value,
          static_cast<long long>(tail.samples),
          TailLatency(stats.lag_ms).value,
          static_cast<long long>(stats.rejected + stats.expired),
          stats.growing_backlog ? "growing" : "flat",
          valid(stats) ? "valid" : "invalid");
      tries.push_back(line);
      if (valid(stats)) return true;
    }
    return false;
  };
  size_t highest_valid = kRungs;  // kRungs: none.
  if (options.trace) {
    size_t invalid = kRungs;  // Lowest rung seen invalid.
    for (size_t k = 0; k < kRungs; k += kLadderStride) {
      if (!try_rung(k)) {
        invalid = k;
        break;
      }
      highest_valid = k;
    }
    if (highest_valid != kRungs && invalid == kRungs &&
        highest_valid != kRungs - 1) {
      // Top coarse rung valid: the top of the ladder decides the bracket.
      if (try_rung(kRungs - 1)) {
        highest_valid = kRungs - 1;
      } else {
        invalid = kRungs - 1;
      }
    }
    while (highest_valid != kRungs && invalid != kRungs &&
           invalid - highest_valid > 1) {
      const size_t mid = (highest_valid + invalid) / 2;
      if (try_rung(mid)) {
        highest_valid = mid;
      } else {
        invalid = mid;
      }
    }
  } else {
    const double start = NowS();
    while (drain_s.size() < 10 || NowS() - start < drain_budget_s) drain();
  }

  // Latency at the reference rate; a traced run repeats it traced.
  const Rung reference = RunRung(config, reference_rps, reference_schedule,
                                 tracer);
  check(reference, reference_schedule);
  Rung traced;
  if (options.trace) {
    tracer.set_enabled(true);
    traced = RunRung(config, reference_rps, reference_schedule, tracer);
    tracer.set_enabled(false);
    check(traced, reference_schedule);
  }
  const double peak_rss_mb = PeakRssMb();
  CheckRankViolations(
      Delta(Snapshot(memphis::obs::MetricsRegistry::Global()), global_start),
      report);

  // Service time of the drain's requests: each request's run time (session,
  // store warm-up, binding, parse, run, harvest) at its fastest over the
  // drains, summed. Every drain sends the same requests in the same order;
  // on a shared host interference only ever adds time and comes and goes
  // within seconds, so a request of a millisecond or two finds a quiet
  // moment in some drain far more often than a whole drain does (as the
  // batch workloads sum their requests' fastest times).
  const double wall_s =
      std::accumulate(best_run_ms.begin(), best_run_ms.end(), 0.0) / 1e3;

  auto completed = [](const RungStats& stats) {
    std::vector<double> ms;
    for (double x : stats.latency_ms) {
      if (std::isfinite(x)) ms.push_back(x);
    }
    return ms;
  };
  const RungStats ref_stats = Stats(reference);
  const std::vector<double> completed_ms = completed(ref_stats);
  const Tail tail = TailLatency(completed_ms);
  report->e2e["setup_s"] = {Median(setup_s), "s"};
  report->e2e["wall_s"] = {wall_s, "s"};
  report->e2e["sim_s"] = {Median(drain_sim_s), "s"};
  report->e2e["peak_rss_mb"] = {peak_rss_mb, "MiB"};
  report->layer["serve.max_rate_rps"] = {
      highest_valid == kRungs ? 0.0 : LadderRps(highest_valid), "1/s"};
  report->e2e["latency_p50_ms"] = {Median(completed_ms), "ms"};
  report->e2e["latency_p99_ms"] = {tail.value, "ms"};
  // Reported but not gated: see perfbench/README.md, "Noise".
  report->layer["bench.latency_p50_ms"] = report->e2e["latency_p50_ms"];
  report->layer["bench.latency_p99_ms"] = report->e2e["latency_p99_ms"];

  char note[160];
  std::snprintf(note, sizeof(note), "p%.2f of %lld samples at %.0f rps",
                tail.percentile, static_cast<long long>(tail.samples),
                reference_rps);
  report->notes["latency_p99_ms"] = note;
  report->notes["workers"] = std::to_string(config.workers);
  if (!drain_s.empty()) {
    std::snprintf(note, sizeof(note),
                  "%zu drains of %zu requests: min %.4f p50 %.4f max %.4f s",
                  drain_s.size(), kDrainRequests, Quantile(drain_s, 0),
                  Median(drain_s), Quantile(drain_s, 1));
    report->notes["drains"] = note;
    std::string bytes;
    for (size_t t = 0; t < tenants.size(); ++t) {
      bytes += (t ? ", " : "") + tenants[t].name + " " +
               std::to_string(partition_bytes[t]);
    }
    report->notes["store_partition_bytes"] =
        bytes + " (quota " + std::to_string(kStoreTenantQuota) + ")";
  }
  std::snprintf(note, sizeof(note), "%.0f puts, %.0f warmed, %.0f evictions",
                Get(reference.global, "serve.store.puts"),
                Get(reference.global, "serve.store.warmed"),
                Get(reference.global, "serve.store.evictions"));
  report->notes["store_at_reference"] = note;
  for (size_t i = 0; i < tries.size(); ++i) {
    report->notes["rung_" + std::string(i < 10 ? "0" : "") +
                  std::to_string(i)] = tries[i];
  }

  // Per-layer numbers: the reference run (traced when tracing), per request.
  const Rung& layer_rung = options.trace ? traced : reference;
  const RungStats layer_stats = Stats(layer_rung);
  const double requests = static_cast<double>(
      std::max<int64_t>(1, layer_stats.completed + layer_stats.expired +
                               layer_stats.rejected + layer_stats.failed));
  Counts per_request;
  for (const auto& [name, value] : layer_rung.global) {
    per_request[name] = value / requests;
  }
  per_request["sync.rank_violations"] =
      Get(layer_rung.global, "sync.rank_violations");
  FillRegistryLayers(per_request, per_request, report);
  double parse_ms = 0, compile_ms = 0;
  ScriptCosts(reference_schedule, config.session, &parse_ms, &compile_ms);
  const double instructions = report->layer["runtime.instructions"].value;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto& layer = report->layer;
  layer["compiler.parse_ms"] = {parse_ms, "ms"};
  layer["compiler.compile_ms"] = {compile_ms, "ms"};
  layer["runtime.run_ms"] = {Median(layer_stats.run_ms), "ms"};
  layer["runtime.us_per_instruction"] = {
      ratio(Median(layer_stats.run_ms) * 1e3, instructions), "us"};
  layer["matrix.gram_gflops"] = {0.0, "GFLOP/s"};
  layer["serve.submit_us_p99"] = {TailLatency(layer_stats.submit_us).value,
                                  "us"};
  layer["serve.queue_ms_p50"] = {Median(layer_stats.queue_ms), "ms"};
  layer["serve.queue_ms_p99"] = {TailLatency(layer_stats.queue_ms).value,
                                 "ms"};
  layer["serve.run_ms_p50"] = {Median(layer_stats.run_ms), "ms"};
  layer["serve.run_ms_p99"] = {TailLatency(layer_stats.run_ms).value, "ms"};
  layer["serve.hit_ratio"] = {ratio(layer_stats.hits, layer_stats.probes),
                              "ratio"};
  layer["serve.cross_session_hits_per_req"] = {
      ratio(layer_stats.cross_hits, layer_stats.completed), "count"};
  layer["serve.store_evictions"] = {
      Get(layer_rung.global, "serve.store.evictions"), "count"};
  const double reuse = Get(layer_rung.global, "serve.session_reuse");
  const double rebuild = Get(layer_rung.global, "serve.session_rebuild");
  layer["serve.session_rebuild_ratio"] = {ratio(rebuild, reuse + rebuild),
                                          "ratio"};
  layer["serve.shed_frac"] = {
      ratio(ref_stats.rejected + ref_stats.expired, ref_stats.submitted),
      "ratio"};
  layer["bench.gen_lag_p99_ms"] = {TailLatency(ref_stats.lag_ms).value, "ms"};
  if (options.trace) {
    layer["bench.trace_overhead_ratio"] = {
        ratio(Median(layer_stats.latency_ms), Median(ref_stats.latency_ms)),
        "ratio"};
    FoldTrace(tracer, "bench.request", report);
    tracer.WriteChromeTrace(options.out_dir + "/trace-" + options.workload +
                            "-" + std::to_string(options.seed) + ".json");
  }
}

}  // namespace perfbench
