#ifndef MEMPHIS_PERFBENCH_HARNESS_H_
#define MEMPHIS_PERFBENCH_HARNESS_H_

// Shared machinery of the end-to-end benchmark: wall clocks, the span
// tracer that brackets every call into a layer, metric-registry deltas,
// percentiles, the oracle comparison and the report every workload fills.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "compiler/placement.h"
#include "compiler/program.h"
#include "matrix/matrix_block.h"
#include "obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Only time the set-up and report setup_s (see perfbench/run.py).
  bool setup_only = false;
  std::string out_dir = ".";  // Where the span file is written.
};

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double NowS();

/// In-memory span recorder, safe to share between threads. Spans of one unit
/// (a pass, a config fit, a mini-batch, a request) share `unit`; `parent`
/// links a span to the span that caused it. Disabled tracers record nothing,
/// so untraced runs pay one branch per layer call.
class Tracer {
 public:
  struct Span {
    std::string layer;
    uint64_t unit = 0;
    int parent = -1;  // Index into spans(); -1 for a root.
    double start = 0, end = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span (now, or at an earlier `start` on the NowS() clock) and
  /// returns its index (-1 when disabled).
  int Begin(const std::string& layer, uint64_t unit, int parent = -1,
            double start = -1);
  void End(int index);

  /// Per layer: inclusive time, self time (inclusive minus the part covered
  /// by child spans) and span count, in milliseconds.
  struct LayerRow {
    double inclusive_ms = 0, self_ms = 0;
    int64_t count = 0;
  };
  std::map<std::string, LayerRow> Fold() const;

  /// Writes the spans as a Chrome trace-event file (chrome://tracing,
  /// ui.perfetto.dev). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// RAII span over one layer call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& layer, uint64_t unit,
             int parent = -1)
      : tracer_(tracer), index_(tracer.Begin(layer, unit, parent)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// Flat name -> value view of a registry: counters, gauges and callbacks
/// by value; histograms as "<name>.count" and "<name>.sum".
using Counts = std::map<std::string, double>;
Counts Snapshot(const memphis::obs::MetricsRegistry& registry);
/// after - before per name (names missing from `before` count from zero).
Counts Delta(const Counts& after, const Counts& before);
double Get(const Counts& counts, const std::string& name);
/// Element-wise sum (accumulating per-pass deltas).
void AddInto(Counts* total, const Counts& delta);

/// Linear-interpolated quantile of unsorted samples (0 when empty).
double Quantile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);

/// The highest percentile (at most p99) that still has ten samples above it,
/// as the benchmark reports tail latency. With fewer than eleven samples it
/// is the maximum.
struct Tail {
  double value = 0;
  double percentile = 0;  // In [0, 99].
  int64_t samples = 0;
};
Tail TailLatency(const std::vector<double>& samples);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Compares `got` against the oracle value within common/tolerance.h's
/// default tolerance. Returns an empty string on agreement, else a
/// description of the first mismatch.
std::string CompareToOracle(const std::string& what,
                            const memphis::MatrixBlock& got,
                            const memphis::MatrixBlock& want);

/// Times compiler::CompileDag over every basic block of `blocks`, loop
/// bodies included, with the shapes and locations `resolver` reports (the
/// compile step the executor runs inside MemphisSystem::Run, timed from
/// outside and outside every timed window).
double CompileMs(const std::vector<memphis::compiler::BlockPtr>& blocks,
                 const memphis::SystemConfig& config,
                 const memphis::compiler::ShapeResolver& resolver);

/// What a workload run produces; main.cc turns it into the printed result.
struct Metric {
  double value = 0;
  std::string unit;
};
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;      // One line each; capped on print.
  std::map<std::string, Metric> e2e;      // End-to-end metrics.
  std::map<std::string, Metric> layer;    // Per-layer metrics.
  std::map<std::string, double> repeat;   // Exact-repeat counters.
  std::map<std::string, std::string> notes;  // Free-form facts (sample
                                             // counts, percentile used).
  std::map<std::string, Tracer::LayerRow> layer_table;

  void Fail(const std::string& why);
};

/// Per-layer metrics every workload reports (zero where a layer is idle),
/// derived from registry deltas. `session` holds the session-registry
/// counts (exec.*, cache.*, spark.*, gpu0.*, ...) and `global` the
/// process-registry ones (pool.*, verifier.*, sync.*, serve.*).
void FillRegistryLayers(const Counts& session, const Counts& global,
                        Report* report);

/// Fails the report unless the lock-rank validator saw no violation.
void CheckRankViolations(const Counts& global, Report* report);

/// Folds the tracer into report->layer_table and the residual metric: the
/// share of the `unit_layer` spans' time that no layer span (compiler.*,
/// runtime.*, serve.*) covers.
void FoldTrace(const Tracer& tracer, const std::string& unit_layer,
               Report* report);

/// The four workloads. Each fills `report`; a throw is a failed run.
void RunGridcv(const Options& options, Report* report);
void RunL2svmSmall(const Options& options, Report* report);
void RunGpuEnsemble(const Options& options, Report* report);
void RunServeMixed(const Options& options, Report* report);

}  // namespace perfbench

#endif  // MEMPHIS_PERFBENCH_HARNESS_H_
