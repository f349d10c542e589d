// memphis_perfbench: runs one benchmark workload against the MEMPHIS
// libraries and prints every metric, then one JSON report as the last line.
//
//   memphis_perfbench --workload gridcv --seed 1 --seconds 10 --trace 0
//                     [--out-dir DIR] [--setup-only 1]
//
// Workloads: gridcv, l2svm-small, gpu-ensemble, serve-mixed. Exit code 0
// when every output matched the reference interpreter and every accounting
// check held; 1 otherwise; 2 on a usage error. perfbench/run.py builds this
// binary and wraps its report in the benchmark's result line.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string MetricsJson(const std::map<std::string, perfbench::Metric>& map) {
  std::string out = "{";
  for (const auto& [name, metric] : map) {
    if (out.size() > 1) out += ",";
    out += JsonString(name) + ":{\"value\":" + JsonNumber(metric.value) +
           ",\"unit\":" + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

/// Every per-layer metric, in the units the workloads report them. A layer
/// a workload does not exercise reads 0.
constexpr const char* kLayerMetrics[][2] = {
    {"compiler.parse_ms", "ms"},           {"compiler.compile_ms", "ms"},
    {"compiler.recompilations", "count"},  {"compiler.plans_verified", "count"},
    {"runtime.run_ms", "ms"},              {"runtime.instructions", "count"},
    {"runtime.us_per_instruction", "us"},  {"lineage.trace_sim_s", "s"},
    {"cache.probe_sim_s", "s"},            {"cache.probes", "count"},
    {"cache.hit_ratio", "ratio"},          {"cache.puts", "count"},
    {"cache.evictions", "count"},          {"cache.spills", "count"},
    {"spark.jobs", "count"},               {"spark.stages", "count"},
    {"spark.shuffle_mb", "MiB"},           {"spark.stage_sim_s", "s"},
    {"spark.rdd_hits", "count"},           {"matrix.gram_gflops", "GFLOP/s"},
    {"common.pool_chunks", "count"},       {"common.pool_steal_ratio", "ratio"},
    {"common.rank_violations", "count"},   {"gpu.mallocs", "count"},
    {"gpu.pointer_reuse_ratio", "ratio"},  {"gpu.evictions", "count"},
    {"gpu.defrags", "count"},              {"gpu.oom_failures", "count"},
    {"gpu.alloc_sim_s", "s"},              {"gpu.copy_sim_s", "s"},
    {"gpu.kernel_sim_s", "s"},             {"serve.submit_us_p99", "us"},
    {"serve.queue_ms_p50", "ms"},          {"serve.queue_ms_p99", "ms"},
    {"serve.run_ms_p50", "ms"},            {"serve.run_ms_p99", "ms"},
    {"serve.hit_ratio", "ratio"},          {"serve.cross_session_hits_per_req", "count"},
    {"serve.store_evictions", "count"},    {"serve.session_rebuild_ratio", "ratio"},
    {"serve.shed_frac", "ratio"},          {"bench.fail_frac", "ratio"},
    {"bench.gen_lag_p99_ms", "ms"},        {"bench.trace_overhead_ratio", "ratio"},
    {"bench.layer_residual_frac", "ratio"}, {"bench.latency_p50_ms", "ms"},
    {"bench.latency_p99_ms", "ms"},        {"serve.max_rate_rps", "1/s"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: memphis_perfbench --workload "
               "gridcv|l2svm-small|gpu-ensemble|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--setup-only 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--setup-only") {
      options.setup_only = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();

  perfbench::Report report;
  try {
    if (options.workload == "gridcv") {
      perfbench::RunGridcv(options, &report);
    } else if (options.workload == "l2svm-small") {
      perfbench::RunL2svmSmall(options, &report);
    } else if (options.workload == "gpu-ensemble") {
      perfbench::RunGpuEnsemble(options, &report);
    } else if (options.workload == "serve-mixed") {
      perfbench::RunServeMixed(options, &report);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    ++report.attempted;
    report.Fail(std::string("workload threw: ") + e.what());
  }
  report.layer["bench.fail_frac"] = {
      report.attempted > 0
          ? static_cast<double>(report.failed) / report.attempted
          : 1.0,
      "ratio"};

  for (const auto& [name, unit] : kLayerMetrics) {
    report.layer.emplace(name, perfbench::Metric{0.0, unit});
  }

  // Human-readable listing: every metric by name with its unit.
  for (const auto& [name, metric] : report.e2e) {
    std::printf("e2e   %-34s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const auto& [name, metric] : report.layer) {
    std::printf("layer %-34s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const auto& [layer, row] : report.layer_table) {
    std::printf("span  %-34s incl %10.3f ms  self %10.3f ms  n=%lld\n",
                layer.c_str(), row.inclusive_ms, row.self_ms,
                static_cast<long long>(row.count));
  }
  for (const auto& [name, note] : report.notes) {
    std::printf("note  %-34s %s\n", name.c_str(), note.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::printf("FAIL  %s\n", failure.c_str());
  }

  std::string json = "{\"workload\":" + JsonString(options.workload) +
                     ",\"seed\":" + std::to_string(options.seed) +
                     ",\"trace\":" + (options.trace ? "1" : "0") +
                     ",\"correct\":" + (report.failed == 0 ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(report.attempted) +
                     ",\"failed\":" + std::to_string(report.failed) +
                     ",\"e2e\":" + MetricsJson(report.e2e) +
                     ",\"layer\":" + MetricsJson(report.layer) + ",\"repeat\":{";
  bool first = true;
  for (const auto& [name, value] : report.repeat) {
    json += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  json += "},\"layer_table\":{";
  first = true;
  for (const auto& [layer, row] : report.layer_table) {
    json += (first ? "" : ",") + JsonString(layer) +
            ":{\"inclusive_ms\":" + JsonNumber(row.inclusive_ms) +
            ",\"self_ms\":" + JsonNumber(row.self_ms) +
            ",\"count\":" + std::to_string(row.count) + "}";
    first = false;
  }
  json += "},\"notes\":{";
  first = true;
  for (const auto& [name, note] : report.notes) {
    json += (first ? "" : ",") + JsonString(name) + ":" + JsonString(note);
    first = false;
  }
  json += "},\"failures\":[";
  first = true;
  for (const std::string& failure : report.failures) {
    json += (first ? "" : ",") + JsonString(failure);
    first = false;
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}
