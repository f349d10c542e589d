#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/tolerance.h"

namespace perfbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

}  // namespace

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

// --- tracer -------------------------------------------------------------------

int Tracer::Begin(const std::string& layer, uint64_t unit, int parent,
                  double start) {
  if (!enabled_) return -1;
  const Span span{layer, unit, parent, start < 0 ? NowS() : start, 0.0};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int index) {
  if (index < 0) return;
  const double end = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end = end;
}

std::map<std::string, Tracer::LayerRow> Tracer::Fold() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[span.parent] += (span.end - span.start) * 1e3;
    }
  }
  std::map<std::string, LayerRow> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double ms = (spans_[i].end - spans_[i].start) * 1e3;
    LayerRow& row = rows[spans_[i].layer];
    row.inclusive_ms += ms;
    row.self_ms += ms - child_ms[i];
    ++row.count;
  }
  return rows;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"unit\":%llu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", span.layer.c_str(), span.start * 1e6,
                  (span.end - span.start) * 1e6,
                  static_cast<unsigned long long>(span.unit), span.parent);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- registry deltas -----------------------------------------------------------

Counts Snapshot(const memphis::obs::MetricsRegistry& registry) {
  using Kind = memphis::obs::MetricsRegistry::Sample::Kind;
  Counts counts;
  for (const auto& sample : registry.Snapshot()) {
    if (sample.kind == Kind::kHistogram) {
      counts[sample.name + ".count"] = static_cast<double>(sample.count);
      counts[sample.name + ".sum"] = sample.value;
    } else {
      counts[sample.name] = sample.value;
    }
  }
  return counts;
}

Counts Delta(const Counts& after, const Counts& before) {
  Counts delta;
  for (const auto& [name, value] : after) delta[name] = value - Get(before, name);
  return delta;
}

double Get(const Counts& counts, const std::string& name) {
  auto it = counts.find(name);
  return it == counts.end() ? 0.0 : it->second;
}

void AddInto(Counts* total, const Counts& delta) {
  for (const auto& [name, value] : delta) (*total)[name] += value;
}

// --- statistics ------------------------------------------------------------------

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(position));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (position - lo);
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

Tail TailLatency(const std::vector<double>& samples) {
  Tail tail;
  tail.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return tail;
  const double n = static_cast<double>(samples.size());
  // Rank r (0-based, sorted ascending) has n-1-r samples above it.
  double rank = std::ceil(0.99 * (n - 1));
  if (n >= 11) rank = std::min(rank, n - 11);
  else rank = n - 1;
  tail.percentile = n > 1 ? 100.0 * rank / (n - 1) : 100.0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  tail.value = sorted[static_cast<size_t>(rank)];
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

std::string CompareToOracle(const std::string& what,
                            const memphis::MatrixBlock& got,
                            const memphis::MatrixBlock& want) {
  std::ostringstream why;
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    why << what << ": shape " << got.rows() << "x" << got.cols()
        << " != oracle " << want.rows() << "x" << want.cols();
    return why.str();
  }
  for (size_t r = 0; r < got.rows(); ++r) {
    for (size_t c = 0; c < got.cols(); ++c) {
      if (!memphis::Close(got.At(r, c), want.At(r, c))) {
        why.precision(17);
        why << what << "[" << r << "," << c << "] = " << got.At(r, c)
            << " != oracle " << want.At(r, c);
        return why.str();
      }
    }
  }
  return "";
}

// --- compile timing --------------------------------------------------------------

double CompileMs(const std::vector<memphis::compiler::BlockPtr>& blocks,
                 const memphis::SystemConfig& config,
                 const memphis::compiler::ShapeResolver& resolver) {
  using memphis::compiler::Block;
  double ms = 0;
  for (const auto& block : blocks) {
    if (block->kind() == Block::Kind::kFor) {
      ms += CompileMs(
          static_cast<memphis::compiler::ForBlock*>(block.get())->body, config,
          resolver);
      continue;
    }
    if (block->kind() != Block::Kind::kBasic) continue;
    auto* basic = static_cast<memphis::compiler::BasicBlock*>(block.get());
    memphis::compiler::CompileOptions options;
    options.async_operators = config.async_operators;
    options.max_parallelize = config.max_parallelize;
    options.checkpoint_placement = config.checkpoint_placement;
    options.checkpoint_vars = basic->checkpoint_vars;
    const double start = NowS();
    memphis::compiler::CompileDag(basic->dag(), config, resolver, options);
    ms += (NowS() - start) * 1e3;
  }
  return ms;
}

// --- report ------------------------------------------------------------------------

void Report::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

void FillRegistryLayers(const Counts& session, const Counts& global,
                        Report* report) {
  auto set = [report](const std::string& name, double value,
                      const std::string& unit) {
    report->layer[name] = Metric{value, unit};
  };
  const double instructions = Get(session, "exec.cp_instructions") +
                              Get(session, "exec.sp_instructions") +
                              Get(session, "exec.gpu_instructions");
  const double probes = Get(session, "cache.probes");
  const double hits =
      Get(session, "cache.hits_host") + Get(session, "cache.hits_scalar") +
      Get(session, "cache.hits_rdd") + Get(session, "cache.hits_gpu") +
      Get(session, "cache.hits_function");
  set("compiler.recompilations", Get(session, "exec.recompilations"),
      "count");
  set("compiler.plans_verified", Get(global, "verifier.plans_checked"),
      "count");
  set("runtime.instructions", instructions, "count");
  set("lineage.trace_sim_s", Get(session, "exec.trace_time_s"), "s");
  set("cache.probe_sim_s", Get(session, "exec.probe_time_s"), "s");
  set("cache.probes", probes, "count");
  set("cache.hit_ratio", Ratio(hits, probes), "ratio");
  set("cache.puts", Get(session, "cache.puts"), "count");
  set("cache.evictions", Get(session, "cache.evictions"), "count");
  set("cache.spills", Get(session, "hostcache.spills"), "count");
  set("spark.jobs", Get(session, "spark.jobs"), "count");
  set("spark.stages", Get(session, "spark.stages"), "count");
  set("spark.shuffle_mb", Get(session, "spark.shuffle_bytes") / (1 << 20),
      "MiB");
  set("spark.stage_sim_s", Get(session, "spark.stage_time_s"), "s");
  set("spark.rdd_hits", Get(session, "cache.hits_rdd"), "count");
  const double chunks = Get(global, "pool.chunks");
  set("common.pool_chunks", chunks, "count");
  set("common.pool_steal_ratio", Ratio(Get(global, "pool.stolen_chunks"), chunks),
      "ratio");
  set("common.rank_violations", Get(global, "sync.rank_violations"), "count");
  const double mallocs = Get(session, "gpu0.mallocs");
  const double reused = Get(session, "gpucache0.reused_pointers") +
                        Get(session, "gpucache0.recycled_exact");
  set("gpu.mallocs", mallocs, "count");
  set("gpu.pointer_reuse_ratio", Ratio(reused, reused + mallocs), "ratio");
  set("gpu.evictions",
      Get(session, "gpucache0.d2h_evictions") +
          Get(session, "gpucache0.freed_for_space"),
      "count");
  set("gpu.defrags", Get(session, "gpucache0.defrags"), "count");
  set("gpu.oom_failures", Get(session, "gpucache0.oom_failures"), "count");
  set("gpu.alloc_sim_s",
      Get(session, "gpu0.malloc_time_s") + Get(session, "gpu0.free_time_s"),
      "s");
  set("gpu.copy_sim_s", Get(session, "gpu0.copy_time_s"), "s");
  set("gpu.kernel_sim_s", Get(session, "gpu0.kernel_time_s"), "s");
}

void CheckRankViolations(const Counts& global, Report* report) {
  const double violations = Get(global, "sync.rank_violations");
  if (violations != 0) {
    report->Fail("lock-rank validator reported " +
                 std::to_string(static_cast<int64_t>(violations)) +
                 " violation(s)");
  }
}

void FoldTrace(const Tracer& tracer, const std::string& unit_layer,
               Report* report) {
  report->layer_table = tracer.Fold();
  double unit_ms = 0, residual_ms = 0;
  for (const auto& [layer, row] : report->layer_table) {
    if (layer == unit_layer) unit_ms = row.inclusive_ms;
    // The harness's own spans (units, requests) minus what their layer
    // children cover; the oracle check runs outside every unit.
    if (layer.rfind("bench.", 0) == 0 && layer != "bench.oracle") {
      residual_ms += row.self_ms;
    }
  }
  report->layer["bench.layer_residual_frac"] =
      Metric{Ratio(residual_ms, unit_ms), "ratio"};
}

}  // namespace perfbench
