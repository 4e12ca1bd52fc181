#ifndef WALLBENCH_HARNESS_H_
#define WALLBENCH_HARNESS_H_

// Shared pieces of the wall-clock benchmark: the cluster shape, timed calls
// wrapped in the benchmark's own trace spans, per-operation counter deltas,
// result checking against the serial reference, and the trace summary that
// splits one traced pass into layers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "core/session.h"
#include "core/xorbits.h"
#include "dataframe/dataframe.h"
#include "tensor/ndarray.h"

namespace wallbench {

using xorbits::Config;
using xorbits::Status;
using xorbits::Tracer;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);

/// Cluster shape of every engine run: one worker, two bands, two modeled
/// CPUs per band. The worker's kernel pool then has bands * cpus = 4
/// threads, which fits a 4-vCPU host.
inline constexpr int kWorkers = 1;
inline constexpr int kBandsPerWorker = 2;
inline constexpr int kCpusPerBand = 2;
std::string ClusterShape();

/// Task deadline of every engine run; a query that fails with a typed
/// status is recorded with this latency (it missed every limit).
inline constexpr int64_t kDeadlineMs = 120000;

/// Engine config for the measured runs: the Xorbits preset on the cluster
/// shape above, spilling (when enabled) under `spill_dir`.
Config EngineConfig(int64_t band_mb, int64_t chunk_kb,
                    const std::string& spill_dir);
/// Serial reference: the pandas-like preset (one band, no tiling, no
/// optimizer) with memory to spare.
Config ReferenceConfig();

/// A failure the engine is allowed to report under pressure (the typed
/// degradation contract); anything else is a bug and fails the benchmark.
bool IsTypedFailure(const Status& st);

/// Output of one job: a dataframe or a tensor.
struct Output {
  bool is_tensor = false;
  xorbits::dataframe::DataFrame df;
  xorbits::tensor::NDArray arr;
};

/// How tensors are compared: exactly (up to 1e-6 relative), or as the R
/// factor of a QR decomposition, which is unique only up to row signs.
enum class TensorCheck { kPlain, kRFactor };

/// Compares `actual` with the serial `expected` result. Frames are
/// canonicalized by sorting on every column; floats match within 1e-6
/// relative. Returns an empty string on a match, else what differs.
std::string Compare(const Output& actual, const Output& expected,
                    TensorCheck tensor_check = TensorCheck::kPlain);

/// A lazy job result the benchmark built itself: a dataframe or a tensor.
struct Handle {
  xorbits::DataFrameRef df;
  xorbits::TensorRef tensor;
  xorbits::graph::TileableNode* node() const;
  xorbits::Result<Output> Fetch() const;
};

/// One query as the benchmark drives it, in a fresh solo session. Either
/// `build` returns the lazy result (then the benchmark times Materialize
/// and Fetch separately), or `run` builds and fetches in one call.
struct QuerySpec {
  std::string name;
  Config config;
  std::function<xorbits::Result<Handle>(xorbits::core::Session*)> build;
  std::function<xorbits::Result<Output>(xorbits::core::Session*)> run;
  TensorCheck check = TensorCheck::kPlain;
};

/// Sums of the per-session counters (Metrics::Snapshot) over the runs of
/// one pass, plus the highest band peak any of them reported.
struct Counters {
  std::map<std::string, int64_t> sums;
  int64_t peak_band_bytes = 0;
  void Add(const xorbits::MetricsSnapshot& snap);
  int64_t Get(const std::string& name) const;
};

/// The four process-global stats singletons (ExchangeStats, LateStats,
/// KernelStats, BufferStats), read by name. They accumulate across sessions,
/// so the benchmark reads them before and after each operation and keeps
/// the difference.
using GlobalStats = std::map<std::string, int64_t>;
GlobalStats ReadGlobalStats();
void AddDelta(const GlobalStats& before, const GlobalStats& after,
              GlobalStats* sums);

/// Wall time of the benchmark's calls into the engine's public API, one
/// bucket per kind of call. In a traced pass every timed call is also
/// wrapped in a `bench:<name>` span.
struct CallTimes {
  std::map<std::string, double> seconds;
  std::map<std::string, std::vector<double>> samples;
  void Merge(const CallTimes& other);
};

/// Where a pass records its spans: null tracer = untraced.
struct TraceTarget {
  Tracer* tracer = nullptr;
  int pid = 0;  // the benchmark's own process in `tracer`
};

/// Runs `fn`, adds its wall time to `times` under `name`, and wraps it in a
/// `bench:<name>` span when tracing.
template <typename Fn>
auto TimedCall(const TraceTarget& trace, const char* name, CallTimes* times,
               Fn&& fn) -> decltype(fn()) {
  xorbits::TraceSpan span;
  if (trace.tracer != nullptr) {
    span = xorbits::TraceSpan(trace.tracer, trace.pid,
                              xorbits::kTrackSupervisor,
                              std::string("bench:") + name, {});
  }
  const Clock::time_point t0 = Clock::now();
  struct Record {
    CallTimes* times;
    const char* name;
    Clock::time_point t0;
    ~Record() {
      const double s = SecondsSince(t0);
      times->seconds[name] += s;
      times->samples[name].push_back(s);
    }
  } record{times, name, t0};
  return fn();
}

/// Everything one pass over a workload's queries produced.
struct PassResult {
  double wall_s = 0;
  /// One entry per attempted query; typed failures count as the deadline.
  std::vector<double> latency_ms;
  /// The same latencies by query name.
  std::map<std::string, std::vector<double>> latency_by_query;
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t typed_failures = 0;
  /// Engine submissions (serving: every admission attempt) and refusals.
  int64_t submissions = 0;
  int64_t shed = 0;
  /// Serving: time before each query's admitted attempt (backoff sleeps,
  /// refused attempts, admission queueing).
  double admission_wait_s = 0;
  /// Sum over client threads of (client wall - timed calls).
  double unattributed_s = 0;
  Counters counters;
  GlobalStats global;
  CallTimes calls;
  /// Typed failures by query name, for the report.
  std::map<std::string, int64_t> failures_by_query;
  /// First result mismatch or untyped error; non-empty fails the run.
  std::string error;
};

/// Serial reference results of `queries`, each in a fresh pandas-like
/// session, in order.
Status ComputeSoloReference(const std::vector<QuerySpec>& queries,
                            std::vector<Output>* reference);

/// Runs every query once in a fresh solo session (open, build, materialize,
/// fetch and close are timed calls), then checks every result against
/// `reference`.
void RunSoloPass(const TraceTarget& trace,
                 const std::vector<QuerySpec>& queries,
                 const std::vector<Output>& reference, PassResult* out);

/// Records `st`, a failed query's status, in `out`: typed failures are
/// counted, anything else becomes the pass error.
void RecordFailure(const std::string& query, const Status& st,
                   PassResult* out);

/// Sets the current thread's kernel pool for direct kernel calls, sized
/// like the engine's worker pool; restores the previous pool on exit.
class ProbePool {
 public:
  ProbePool();
  ~ProbePool();
  ProbePool(const ProbePool&) = delete;
  ProbePool& operator=(const ProbePool&) = delete;

 private:
  std::unique_ptr<xorbits::ThreadPool> pool_;
  xorbits::ThreadPool* previous_;
};

/// One workload: builds its inputs from a seed, computes the serial
/// reference, and runs timed passes.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs (writing files under the work directory) and starts
  /// the cluster once. Called several times; each call replaces the
  /// previous inputs with identical ones. `generate_s` receives the data
  /// generation share of the call.
  virtual Status Setup(double* generate_s) = 0;
  /// Computes the serial reference results (untimed, outside setup).
  virtual Status ComputeReference() = 0;
  /// Runs one pass over the workload's queries, checking every result.
  virtual Status RunPass(const TraceTarget& trace, PassResult* out) = 0;
  /// Direct kernel calls on the workload's own inputs (traced runs only):
  /// fills the dataframe.*_mrows_per_s, tensor.* and io.scan_mb_per_s
  /// entries it has inputs for.
  virtual void KernelProbes(std::map<std::string, double>* layer) = 0;
};

/// Direct calls on the TPC-H files in `dir`: an xparquet scan of lineitem
/// (io.scan_mb_per_s), then merge (with orders), groupby, sort and filter
/// kernels on it (dataframe.*_mrows_per_s).
void ProbeTpchKernels(const std::string& dir,
                      std::map<std::string, double>* layer);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

std::unique_ptr<Workload> MakePipelines(const Options& opts);
std::unique_ptr<Workload> MakeTpch(const Options& opts, bool pressure);
std::unique_ptr<Workload> MakeServing(const Options& opts);

/// Per-layer figures read from one traced pass.
struct TraceSummary {
  /// Wall microseconds summed over spans, by span name.
  std::map<std::string, double> wall_us;
  /// tile:* wall minus the execute_partial spans nested in them.
  double tile_self_us = 0;
  /// Modeled queue wait of every executed subtask.
  std::vector<int64_t> queue_wait_us;
  /// Critical-path stage totals over every traced session.
  std::map<std::string, double> stage_us;
};
TraceSummary Summarize(const Tracer& tracer);

/// Nearest-rank percentile (`pct` in [0, 100]) and median.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);

/// Median of `n` repetitions of `fn`, in seconds.
double MedianSeconds(int n, const std::function<void()>& fn);

}  // namespace wallbench

#endif  // WALLBENCH_HARNESS_H_
