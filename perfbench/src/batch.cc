// The three batch workloads (gridcv, l2svm-small, gpu-ensemble): one caller
// drives a fresh MemphisSystem through a fixed amount of work per pass, as
// often as the measurement window allows.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>

#include "common/rng.h"
#include "common/status.h"
#include "compiler/op_registry.h"
#include "compiler/parser.h"
#include "core/system.h"
#include "fuzz/oracle.h"
#include "harness.h"
#include "matrix/kernels.h"
#include "workloads/datasets.h"
#include "workloads/dnn.h"
#include "workloads/pipelines.h"

namespace perfbench {

namespace {

using memphis::MatrixPtr;
using memphis::MemphisSystem;
using memphis::compiler::Program;

// --- compile timing ------------------------------------------------------------

/// Shape and location of a bound variable, as the executor reports them to
/// the compiler.
memphis::compiler::VarInfo Describe(memphis::ExecutionContext& ctx,
                                    const std::string& name) {
  using memphis::Backend;
  using memphis::Data;
  if (!ctx.HasVar(name)) return {{1, 1}, Backend::kCP};
  const Data& data = ctx.GetVar(name);
  switch (data.kind) {
    case Data::Kind::kMatrix:
      return {{data.matrix->rows(), data.matrix->cols()},
              data.gpu != nullptr ? Backend::kGpu : Backend::kCP};
    case Data::Kind::kRdd:
      return {{data.rdd->rows(), data.rdd->cols()}, Backend::kSpark};
    case Data::Kind::kGpu:
      if (data.gpu->buffer->data != nullptr) {
        const auto& shadow = data.gpu->buffer->data;
        return {{shadow->rows(), shadow->cols()}, Backend::kGpu};
      }
      return {{1, data.gpu->buffer->bytes / sizeof(double)}, Backend::kGpu};
    default:
      return {{1, 1}, Backend::kCP};
  }
}

/// CompileMs over the variables currently bound in `system`.
double SessionCompileMs(MemphisSystem& system,
                        const std::vector<memphis::compiler::BlockPtr>& blocks) {
  memphis::ExecutionContext& ctx = system.ctx();
  return CompileMs(blocks, ctx.config(), [&ctx](const std::string& name) {
    return Describe(ctx, name);
  });
}

// --- the batch driver --------------------------------------------------------------

/// What one pass over the fixed work produced.
struct PassResult {
  double wall_s = 0;
  double sim_s = 0;
  std::vector<double> request_ms;  // One per request (config, batch, ...).
  double parse_ms = 0, run_ms = 0, compile_ms = 0;
  std::vector<std::pair<std::string, MatrixPtr>> outputs;  // key -> value.
  Counts session;  // Session-registry delta of the pass.
};

/// One batch workload. Inputs are generated from the seed once per setup;
/// every pass runs on a freshly constructed, freshly bound system so that
/// passes repeat exactly.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  virtual void GenerateInputs(uint64_t seed) = 0;
  virtual std::unique_ptr<MemphisSystem> MakeSystem() = 0;
  /// Runs the pass's requests; fills request_ms, parse/run times, outputs.
  /// `measure_compile` additionally times CompileDag per block (untimed).
  virtual void RunPass(MemphisSystem& system, Tracer& tracer, uint64_t unit,
                       int pass_span, bool measure_compile,
                       PassResult* pass) = 0;
  /// Reference value of an output key, computed by fuzz::OracleRun.
  virtual MatrixPtr Oracle(const std::string& key) = 0;
  /// Timed t(X) %*% X on the workload's design matrix, GFLOP/s (0: none).
  virtual double GramGflops() { return 0.0; }
};

PassResult TimedPass(BatchWorkload& workload, MemphisSystem& system,
                     Tracer& tracer, uint64_t unit, bool measure_compile) {
  PassResult pass;
  const Counts before = Snapshot(system.ctx().metrics());
  const double sim_before = system.ElapsedSeconds();
  const double start = NowS();
  {
    ScopedSpan span(tracer, "bench.pass", unit);
    workload.RunPass(system, tracer, unit, span.index(), measure_compile,
                     &pass);
  }
  pass.wall_s = NowS() - start;
  pass.sim_s = system.ElapsedSeconds() - sim_before;
  pass.session = Delta(Snapshot(system.ctx().metrics()), before);
  return pass;
}

/// Wall time of one pass's fixed work on a shared host: each request's
/// fastest time over `passes`, summed. Every pass runs the same requests in
/// the same order. Interference from other tenants of the host (cache and
/// memory-bandwidth contention) only ever adds time and comes and goes
/// within seconds, so a request of a few milliseconds finds a quiet moment
/// in some pass far more often than a whole pass does.
double BestPassS(const std::vector<PassResult>& passes) {
  if (passes.empty()) return 0.0;
  std::vector<double> best = passes.front().request_ms;
  for (const PassResult& pass : passes) {
    if (pass.request_ms.size() != best.size()) {
      throw memphis::MemphisError("passes ran different request counts");
    }
    for (size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], pass.request_ms[i]);
    }
  }
  double ms = 0;
  for (double request : best) ms += request;
  return ms / 1e3;
}

/// The counts that must repeat exactly between passes of one seed.
std::map<std::string, double> RepeatCounts(const PassResult& pass) {
  const Counts& s = pass.session;
  return {
      {"sim_s", pass.sim_s},
      {"instructions", Get(s, "exec.cp_instructions") +
                           Get(s, "exec.sp_instructions") +
                           Get(s, "exec.gpu_instructions")},
      {"probes", Get(s, "cache.probes")},
      {"hits", Get(s, "cache.hits_host") + Get(s, "cache.hits_scalar") +
                   Get(s, "cache.hits_rdd") + Get(s, "cache.hits_gpu") +
                   Get(s, "cache.hits_function")},
      {"puts", Get(s, "cache.puts")},
      {"spark_jobs", Get(s, "spark.jobs")},
      {"spark_stages", Get(s, "spark.stages")},
      {"gpu_mallocs", Get(s, "gpu0.mallocs")},
  };
}

void RunBatch(const Options& options, BatchWorkload& workload,
              Report* report) {
  Tracer tracer(false);
  const Counts global_start = Snapshot(memphis::obs::MetricsRegistry::Global());

  // Set-up (inputs, system, bindings), repeated so its median is stable:
  // at least 5 times and for at least 0.1 s.
  std::vector<double> setup_s;
  std::unique_ptr<MemphisSystem> system;
  for (double total = 0;
       setup_s.size() < 5 || (total < 0.1 && setup_s.size() < 100);) {
    system.reset();
    const double start = NowS();
    workload.GenerateInputs(options.seed);
    system = workload.MakeSystem();
    setup_s.push_back(NowS() - start);
    total += setup_s.back();
  }
  if (options.setup_only) {
    report->e2e["setup_s"] = {Median(setup_s), "s"};
    return;
  }

  // Two warm-up passes: lazy initialisation (thread pool, op registry,
  // allocator arenas) happens here. The first one's counts are the
  // reference every later pass must repeat exactly.
  std::vector<PassResult> checked;
  const PassResult warm =
      TimedPass(workload, *system, tracer, 0, /*measure_compile=*/true);
  const std::map<std::string, double> reference = RepeatCounts(warm);
  checked.push_back(warm);
  system = workload.MakeSystem();
  checked.push_back(TimedPass(workload, *system, tracer, 0, false));
  system.reset();

  auto window = [&](double budget_s, uint64_t first_unit) {
    std::vector<PassResult> passes;
    const Counts global_before =
        Snapshot(memphis::obs::MetricsRegistry::Global());
    const double start = NowS();
    while (passes.size() < 3 || NowS() - start < budget_s) {
      std::unique_ptr<MemphisSystem> fresh = workload.MakeSystem();
      passes.push_back(TimedPass(workload, *fresh, tracer,
                                 first_unit + passes.size(), false));
    }
    return std::make_pair(
        passes,
        Delta(Snapshot(memphis::obs::MetricsRegistry::Global()), global_before));
  };

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  auto [passes, global] = window(budget, 1);
  std::vector<PassResult> traced;
  Counts traced_global;
  if (options.trace) {
    tracer.set_enabled(true);
    std::tie(traced, traced_global) = window(budget, 1 + passes.size());
    tracer.set_enabled(false);
  }
  const double peak_rss_mb = PeakRssMb();

  // Exact-repeat check: every pass of this seed must agree with the warm-up.
  auto check_repeat = [&](const std::vector<PassResult>& list) {
    for (size_t i = 0; i < list.size(); ++i) {
      for (const auto& [name, value] : RepeatCounts(list[i])) {
        if (value != reference.at(name)) {
          std::ostringstream why;
          why.precision(17);
          why << "determinism defect: " << name << " of pass " << i + 1
              << " is " << value << ", warm-up pass had "
              << reference.at(name);
          report->Fail(why.str());
          return;
        }
      }
    }
  };
  check_repeat(checked);
  check_repeat(passes);
  check_repeat(traced);
  report->repeat = reference;

  // Correctness: every output of every pass against the oracle, computed
  // once per distinct key and outside every timed window.
  checked.insert(checked.end(), passes.begin(), passes.end());
  checked.insert(checked.end(), traced.begin(), traced.end());
  {
    tracer.set_enabled(options.trace);
    std::map<std::string, MatrixPtr> oracle;
    for (const PassResult& pass : checked) {
      for (const auto& [key, value] : pass.outputs) {
        ++report->attempted;
        auto it = oracle.find(key);
        if (it == oracle.end()) {
          ScopedSpan span(tracer, "bench.oracle", 0);
          it = oracle.emplace(key, workload.Oracle(key)).first;
        }
        const std::string mismatch =
            value == nullptr ? key + ": no output"
                             : CompareToOracle(key, *value, *it->second);
        if (!mismatch.empty()) report->Fail("oracle mismatch: " + mismatch);
      }
    }
    tracer.set_enabled(false);
  }
  CheckRankViolations(
      Delta(Snapshot(memphis::obs::MetricsRegistry::Global()), global_start),
      report);

  // End-to-end timings: untraced passes only.
  std::vector<double> requests;
  for (const PassResult& pass : passes) {
    requests.insert(requests.end(), pass.request_ms.begin(),
                    pass.request_ms.end());
  }
  const double wall_s = BestPassS(passes);
  const Tail tail = TailLatency(requests);
  report->e2e["setup_s"] = {Median(setup_s), "s"};
  report->e2e["wall_s"] = {wall_s, "s"};
  report->e2e["sim_s"] = {reference.at("sim_s"), "s"};
  report->e2e["peak_rss_mb"] = {peak_rss_mb, "MiB"};
  report->e2e["latency_p50_ms"] = {Median(requests), "ms"};
  report->e2e["latency_p99_ms"] = {tail.value, "ms"};
  // Reported but not gated: see perfbench/README.md, "Noise".
  report->layer["bench.latency_p50_ms"] = report->e2e["latency_p50_ms"];
  report->layer["bench.latency_p99_ms"] = report->e2e["latency_p99_ms"];
  report->notes["passes"] = std::to_string(passes.size()) + " timed, " +
                            std::to_string(warm.request_ms.size()) +
                            " requests each";
  report->notes["requests"] = std::to_string(requests.size());
  {
    std::vector<double> all;
    for (const PassResult& pass : passes) all.push_back(pass.wall_s);
    char spread[96];
    std::snprintf(spread, sizeof(spread), "min %.4f p10 %.4f p50 %.4f max %.4f",
                  Quantile(all, 0), Quantile(all, 0.1), Quantile(all, 0.5),
                  Quantile(all, 1));
    report->notes["pass_wall_s"] = spread;
  }
  report->notes["setups"] = std::to_string(setup_s.size());
  char percentile[64];
  std::snprintf(percentile, sizeof(percentile), "p%.2f of %lld samples",
                tail.percentile, static_cast<long long>(tail.samples));
  report->notes["latency_p99_ms"] = percentile;

  // Per-layer metrics: from the traced passes when tracing, per pass.
  const std::vector<PassResult>& layer_passes = options.trace ? traced : passes;
  const Counts& layer_global = options.trace ? traced_global : global;
  Counts session;
  std::vector<double> parse_ms, run_ms;
  for (const PassResult& pass : layer_passes) {
    AddInto(&session, pass.session);
    parse_ms.push_back(pass.parse_ms);
    run_ms.push_back(pass.run_ms);
  }
  const double n = static_cast<double>(layer_passes.size());
  Counts per_pass_session, per_pass_global;
  for (const auto& [name, value] : session) per_pass_session[name] = value / n;
  for (const auto& [name, value] : layer_global) {
    per_pass_global[name] = value / n;
  }
  // The lock-rank count is a process total, not a per-pass rate.
  per_pass_global["sync.rank_violations"] = Get(layer_global, "sync.rank_violations");
  FillRegistryLayers(per_pass_session, per_pass_global, report);
  const double instructions = report->layer["runtime.instructions"].value;
  report->layer["compiler.parse_ms"] = {Median(parse_ms), "ms"};
  report->layer["compiler.compile_ms"] = {warm.compile_ms, "ms"};
  report->layer["runtime.run_ms"] = {Median(run_ms), "ms"};
  report->layer["runtime.us_per_instruction"] = {
      instructions > 0 ? Median(run_ms) * 1e3 / instructions : 0.0, "us"};
  report->layer["matrix.gram_gflops"] = {workload.GramGflops(), "GFLOP/s"};
  if (options.trace) {
    report->layer["bench.trace_overhead_ratio"] = {BestPassS(traced) / wall_s,
                                                   "ratio"};
    FoldTrace(tracer, "bench.pass", report);
    tracer.WriteChromeTrace(options.out_dir + "/trace-" + options.workload +
                            "-" + std::to_string(options.seed) + ".json");
  }
}

/// Runs `source` as one request: parse, run, fetch `outputs`.
void RunScript(MemphisSystem& system, Tracer& tracer, uint64_t unit,
               int parent, const std::string& source,
               const std::vector<std::string>& outputs,
               const std::string& key_prefix, bool measure_compile,
               PassResult* pass) {
  const double start = NowS();
  ScopedSpan request(tracer, "bench.request", unit, parent);
  Program program;
  {
    ScopedSpan span(tracer, "compiler.parse", unit, request.index());
    const double t = NowS();
    program = memphis::compiler::ParseProgram(source);
    pass->parse_ms += (NowS() - t) * 1e3;
  }
  {
    ScopedSpan span(tracer, "runtime.run", unit, request.index());
    const double t = NowS();
    system.Run(program);
    pass->run_ms += (NowS() - t) * 1e3;
  }
  {
    ScopedSpan span(tracer, "runtime.fetch", unit, request.index());
    for (const std::string& name : outputs) {
      pass->outputs.emplace_back(key_prefix + name,
                                 system.ctx().FetchMatrix(name));
    }
  }
  pass->request_ms.push_back((NowS() - start) * 1e3);
  if (measure_compile) {
    Program fresh = memphis::compiler::ParseProgram(source);
    memphis::compiler::OptimizeProgram(&fresh, system.ctx().config());
    pass->compile_ms += SessionCompileMs(system, fresh.blocks);
  }
}

/// Reference run of `source` over `inputs`; returns the variable `name`.
MatrixPtr OracleValue(const std::string& source,
                      const memphis::fuzz::OracleEnv& inputs,
                      const std::string& name) {
  memphis::fuzz::OracleEnv env = inputs;
  memphis::fuzz::OracleRun(memphis::compiler::ParseProgram(source), &env);
  auto it = env.find(name);
  if (it == env.end()) throw memphis::MemphisError("oracle lacks " + name);
  return it->second;
}

std::unique_ptr<MemphisSystem> MemphisPreset() {
  using memphis::workloads::Baseline;
  return std::make_unique<MemphisSystem>(
      memphis::workloads::MakeConfig(Baseline::kMemphis),
      memphis::workloads::MakeCostModel(Baseline::kMemphis));
}

std::string Num(double value) {
  char text[40];
  std::snprintf(text, sizeof(text), "%.6g", value);
  return text;
}

// --- gridcv --------------------------------------------------------------------

/// Grid-search x k-fold ridge regression in DML: one script per
/// (regularizer, fold) cell, run in turn on one session, so each cell is
/// a timed request. X is tall enough that the compiler places t(X) %*% X on
/// Spark; every script recomputes the Gram products, so the lineage cache,
/// not the scripts, removes the repeats. Each fold's Gram is the full Gram
/// minus the held-out rows'.
class Gridcv : public BatchWorkload {
 public:
  static constexpr size_t kCols = 100;
  static constexpr int kRegs = 6;
  static constexpr int kFolds = 3;

  void GenerateInputs(uint64_t seed) override {
    memphis::Rng rng(seed);
    // The row count varies a little with the seed, so the virtual time is
    // a function of the inputs rather than a constant.
    rows_ = 12000 + 8 * static_cast<size_t>(rng.NextInt(32));
    const double lam0 = rng.NextDouble(0.01, 0.1);
    x_ = memphis::kernels::RandGaussian(rows_, kCols, seed + 1);
    MatrixPtr w = memphis::kernels::RandGaussian(kCols, 1, seed + 2);
    MatrixPtr noise = memphis::kernels::RandGaussian(rows_, 1, seed + 3);
    y_ = memphis::kernels::Binary(memphis::kernels::BinaryOp::kAdd,
                                  *memphis::kernels::MatMult(*x_, *w),
                                  *noise);
    sources_.clear();
    outputs_.clear();
    const size_t fold = rows_ / kFolds;
    for (int r = 1; r <= kRegs; ++r) {
      for (int k = 1; k <= kFolds; ++k) {
        const size_t lo = (k - 1) * fold;
        const size_t hi = k == kFolds ? rows_ : k * fold;
        std::ostringstream s;
        s << "gram = t(X) %*% X;\n"
          << "xty = t(t(y) %*% X);\n"
          << "reg = diag(rand(" << kCols << ", 1, 1, 1, 1, 7) * "
          << Num(lam0 * r) << ");\n"
          << "Xte = sliceRows(X, " << lo << ", " << hi << ");\n"
          << "yte = sliceRows(y, " << lo << ", " << hi << ");\n"
          << "A = gram - t(Xte) %*% Xte + reg;\n"
          << "b = xty - t(t(yte) %*% Xte);\n"
          << "beta" << k << " = solve(A, b);\n"
          << "e = Xte %*% beta" << k << " - yte;\n"
          << "l" << k << " = mean(e ^ 2);\n";
        outputs_.push_back({"beta" + std::to_string(k)});
        if (k == kFolds) {
          s << "cvsum = cvsum + (l1 + l2 + l3) / " << kFolds << ";\n";
          outputs_.back().push_back("cvsum");
        }
        sources_.push_back(s.str());
      }
    }
  }

  std::unique_ptr<MemphisSystem> MakeSystem() override {
    auto system = MemphisPreset();
    system->ctx().BindMatrix("X", x_);
    system->ctx().BindMatrix("y", y_);
    system->ctx().BindScalar("cvsum", 0.0);
    return system;
  }

  void RunPass(MemphisSystem& system, Tracer& tracer, uint64_t unit,
               int pass_span, bool measure_compile,
               PassResult* pass) override {
    for (size_t i = 0; i < sources_.size(); ++i) {
      RunScript(system, tracer, unit, pass_span, sources_[i], outputs_[i],
                "request" + std::to_string(i) + ".", measure_compile, pass);
    }
  }

  MatrixPtr Oracle(const std::string& key) override {
    if (oracle_.empty()) {
      // The scripts in order over one environment, as the session runs
      // them: cvsum accumulates across regularizers.
      memphis::fuzz::OracleEnv env{
          {"X", x_}, {"y", y_}, {"cvsum", memphis::kernels::Seq(0, 0, 1)}};
      for (size_t i = 0; i < sources_.size(); ++i) {
        memphis::fuzz::OracleRun(
            memphis::compiler::ParseProgram(sources_[i]), &env);
        for (const std::string& name : outputs_[i]) {
          oracle_["request" + std::to_string(i) + "." + name] = env.at(name);
        }
      }
    }
    return oracle_.at(key);
  }

  double GramGflops() override {
    const memphis::compiler::OpSpec* tsmm = memphis::compiler::FindOp("tsmm");
    std::vector<double> seconds;
    for (int i = 0; i < 3; ++i) {
      const double start = NowS();
      MatrixPtr gram = tsmm->exec({x_}, {});
      seconds.push_back(NowS() - start);
      if (gram->rows() != kCols) return 0.0;
    }
    return memphis::kernels::MatMultFlops(kCols, rows_, kCols) /
           Median(seconds) / 1e9;
  }

 private:
  size_t rows_ = 0;
  MatrixPtr x_, y_;
  std::vector<std::string> sources_;  // One per (regularizer, fold).
  std::vector<std::vector<std::string>> outputs_;  // Fetched per source.
  std::map<std::string, MatrixPtr> oracle_;
};

// --- l2svm-small ---------------------------------------------------------------

/// L2-regularized squared-hinge SVM by gradient descent, one DML script per
/// hyper-parameter configuration, all on one session. A fixed share of the
/// configurations repeats an earlier one exactly, so its instructions hit
/// the lineage cache; the rest probe, miss and put.
class L2svmSmall : public BatchWorkload {
 public:
  static constexpr size_t kRows = 100;
  static constexpr size_t kCols = 10;
  static constexpr int kConfigs = 200;
  static constexpr int kIterations = 12;
  static constexpr double kRepeatShare = 0.2;

  void GenerateInputs(uint64_t seed) override {
    memphis::Rng rng(seed);
    x_ = memphis::kernels::RandGaussian(kRows, kCols, seed + 1);
    MatrixPtr w = memphis::kernels::RandGaussian(kCols, 1, seed + 2);
    MatrixPtr margin = memphis::kernels::MatMult(*x_, *w);
    y_ = memphis::kernels::Unary(memphis::kernels::UnaryOp::kSign, *margin);
    // Exactly kRepeatShare of the configurations repeat an earlier one; the
    // seed picks which, and which earlier one they repeat.
    std::vector<bool> repeat(kConfigs, false);
    const int repeats = static_cast<int>(kRepeatShare * kConfigs);
    for (int placed = 0; placed < repeats;) {
      const int i = 1 + static_cast<int>(rng.NextInt(kConfigs - 1));
      if (!repeat[i]) {
        repeat[i] = true;
        ++placed;
      }
    }
    configs_.clear();
    sources_.clear();
    for (int i = 0; i < kConfigs; ++i) {
      if (repeat[i]) {
        configs_.push_back(configs_[rng.NextInt(i)]);
        continue;
      }
      const double lambda = rng.NextDouble(0.001, 0.1);
      const double step = rng.NextDouble(0.001, 0.01);
      std::ostringstream s;
      s << "w = rand(" << kCols << ", 1, 0, 0, 1, 1);\n"
        << "for (it in 1:" << kIterations << ") {\n"
        << "  out = 1 - Y * (X %*% w);\n"
        << "  sv = out > 0;\n"
        << "  g = w * " << Num(lambda) << " - t(X) %*% (out * sv * Y);\n"
        << "  w = w - g * " << Num(step) << ";\n"
        << "}\n"
        << "hinge = out * sv;\n"
        << "obj = sum(hinge ^ 2) + " << Num(lambda) << " * sum(w ^ 2);\n";
      configs_.push_back(static_cast<int>(sources_.size()));
      sources_.push_back(s.str());
    }
  }

  std::unique_ptr<MemphisSystem> MakeSystem() override {
    auto system = MemphisPreset();
    system->ctx().BindMatrix("X", x_);
    system->ctx().BindMatrix("Y", y_);
    return system;
  }

  void RunPass(MemphisSystem& system, Tracer& tracer, uint64_t unit,
               int pass_span, bool measure_compile,
               PassResult* pass) override {
    for (int config : configs_) {
      RunScript(system, tracer, unit, pass_span, sources_[config],
                {"obj", "w"}, "config" + std::to_string(config) + ".",
                measure_compile, pass);
    }
  }

  MatrixPtr Oracle(const std::string& key) override {
    const size_t dot = key.find('.');
    const int config = std::stoi(key.substr(6, dot - 6));
    return OracleValue(sources_[config], {{"X", x_}, {"Y", y_}},
                       key.substr(dot + 1));
  }

 private:
  MatrixPtr x_, y_;
  std::vector<int> configs_;          // Per request: index into sources_.
  std::vector<std::string> sources_;  // Distinct configurations.
};

// --- gpu-ensemble ----------------------------------------------------------------

/// Two-CNN ensemble scoring over mini-batches, forced onto the GPU, with a
/// seeded share of duplicate batches (pixel-encoded ids make equal content
/// equal lineage) and a device budget below the live set.
class GpuEnsemble : public BatchWorkload {
 public:
  static constexpr int kBatches = 48;
  static constexpr size_t kBatchSize = 8;
  static constexpr double kDuplicateShare = 0.4;

  void GenerateInputs(uint64_t seed) override {
    seed_ = seed;
    const memphis::kernels::TensorShape shape{3, 16, 16};
    model_a_ = memphis::workloads::SmallCnnA(shape, 10);
    model_b_ = memphis::workloads::SmallCnnB(shape, 10);
    images_ = memphis::workloads::ImagesLike(kBatches * kBatchSize, shape,
                                             0.0, seed);
    memphis::Rng rng(seed + 9);
    batch_ids_.assign(kBatches, 0);
    for (int b = 0; b < kBatches; ++b) {
      batch_ids_[b] = (b > 0 && rng.NextDouble() < kDuplicateShare)
                          ? batch_ids_[rng.NextInt(b)]
                          : b;
    }
  }

  std::unique_ptr<MemphisSystem> MakeSystem() override {
    using memphis::workloads::Baseline;
    memphis::SystemConfig config =
        memphis::workloads::MakeConfig(Baseline::kMemphis);
    // 8 MB device (scaled), as in the repository's Figure 12(b) workload:
    // smaller than the two models' live set, so the GPU tier evicts.
    config.gpu_memory = 8ull << 30;
    auto system = std::make_unique<MemphisSystem>(
        config, memphis::workloads::MakeCostModel(Baseline::kMemphis));
    memphis::workloads::BindCnnWeights(system->ctx(), model_a_, "ea",
                                       seed_ + 3);
    memphis::workloads::BindCnnWeights(system->ctx(), model_b_, "eb",
                                       seed_ + 4);
    return system;
  }

  void RunPass(MemphisSystem& system, Tracer& tracer, uint64_t unit,
               int pass_span, bool measure_compile,
               PassResult* pass) override {
    // Fresh blocks per pass: the executor caches compiled plans on a block,
    // and every pass must do the same work.
    const std::vector<memphis::compiler::BlockPtr> blocks = Blocks();
    memphis::ExecutionContext& ctx = system.ctx();
    for (int b = 0; b < kBatches; ++b) {
      const double start = NowS();
      ScopedSpan request(tracer, "bench.request", unit, pass_span);
      {
        ScopedSpan span(tracer, "runtime.bind", unit, request.index());
        MatrixPtr x = Batch(batch_ids_[b]);
        ctx.BindMatrixWithId("ens_batch", x,
                             "img:" + std::to_string(x->ContentHash()));
      }
      {
        ScopedSpan span(tracer, "runtime.run", unit, request.index());
        const double t = NowS();
        for (const auto& block : blocks) {
          system.Run(*static_cast<memphis::compiler::BasicBlock*>(block.get()));
        }
        pass->run_ms += (NowS() - t) * 1e3;
      }
      {
        ScopedSpan span(tracer, "runtime.fetch", unit, request.index());
        pass->outputs.emplace_back("batch" + std::to_string(batch_ids_[b]),
                                   ctx.FetchMatrix("joint"));
      }
      pass->request_ms.push_back((NowS() - start) * 1e3);
      // Every block compiles once per pass (the batch shape never changes).
      if (measure_compile && b == 0) pass->compile_ms += SessionCompileMs(system, blocks);
    }
  }

  MatrixPtr Oracle(const std::string& key) override {
    const int id = std::stoi(key.substr(5));
    if (weights_.empty()) {
      // The weights exactly as MakeSystem binds them.
      std::unique_ptr<MemphisSystem> system = MakeSystem();
      for (const auto& [name, data] : system->ctx().vars()) {
        weights_[name] = system->ctx().FetchMatrix(name);
      }
    }
    memphis::fuzz::OracleEnv env = weights_;
    env["ens_batch"] = Batch(id);
    Program program;
    program.blocks = Blocks();
    memphis::fuzz::OracleRun(program, &env);
    return env.at("joint");
  }

 private:
  /// The ensemble: both forward passes, then the argmax of the summed
  /// scores.
  std::vector<memphis::compiler::BlockPtr> Blocks() const {
    auto mix = memphis::compiler::MakeBasicBlock();
    memphis::compiler::HopDag& dag = mix->dag();
    dag.Write("joint",
              dag.Op("rowIndexMax",
                     {dag.Op("+", {dag.Read("scoreA"), dag.Read("scoreB")})}));
    return {memphis::workloads::BuildCnnForward(model_a_, "ea", "ens_batch",
                                                "scoreA", -1, true),
            memphis::workloads::BuildCnnForward(model_b_, "eb", "ens_batch",
                                                "scoreB", -1, true),
            mix};
  }

  MatrixPtr Batch(int id) const {
    return memphis::kernels::Slice(*images_, id * kBatchSize,
                                   (id + 1) * kBatchSize, 0, images_->cols());
  }

  uint64_t seed_ = 1;
  memphis::workloads::CnnModel model_a_, model_b_;
  MatrixPtr images_;
  std::vector<int> batch_ids_;
  memphis::fuzz::OracleEnv weights_;
};

}  // namespace

void RunGridcv(const Options& options, Report* report) {
  Gridcv workload;
  RunBatch(options, workload, report);
}

void RunL2svmSmall(const Options& options, Report* report) {
  L2svmSmall workload;
  RunBatch(options, workload, report);
}

void RunGpuEnsemble(const Options& options, Report* report) {
  GpuEnsemble workload;
  RunBatch(options, workload, report);
}

}  // namespace perfbench
