// Wall-clock benchmark of the xorbits engine: the `wallbench` binary.
//
//   wallbench --workload <pipelines|tpch|serving|pressure> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//
// Sets the workload up from the seed (several times; setup_s is the
// median), computes the serial reference results untimed, then runs timed
// passes until --seconds have elapsed and checks every result. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
// untraced and traced passes and prints the per-layer metrics read from
// the traced ones. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 means every result matched its reference and every failure
// was a typed Status; anything else exits non-zero.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace wallbench {
namespace {

constexpr int kSetupRepeats = 5;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "wallbench: %s\n", why.c_str());
  std::exit(1);
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts->workload = value;
    } else if (key == "--seed") {
      opts->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opts->trace = value == "1";
    } else if (key == "--workdir") {
      opts->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opts->workload.empty() && !opts->workdir.empty() &&
         opts->seconds > 0;
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

double RssPeakMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Sum(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

double SumPrefix(const std::map<std::string, double>& m,
                 const std::string& prefix) {
  double total = 0;
  for (const auto& [name, v] : m) {
    if (name.rfind(prefix, 0) == 0) total += v;
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// End-to-end metrics from untraced passes.
std::vector<Metric> EndToEnd(const std::vector<PassResult>& passes,
                             double setup_s) {
  std::vector<double> walls, sims, peaks, latencies;
  double total_wall = 0;
  int64_t completed = 0;
  for (const PassResult& p : passes) {
    walls.push_back(p.wall_s);
    sims.push_back(p.counters.Get("simulated_us") / 1e6);
    latencies.insert(latencies.end(), p.latency_ms.begin(),
                     p.latency_ms.end());
    total_wall += p.wall_s;
    completed += p.completed;
    peaks.push_back(p.counters.peak_band_bytes / 1048576.0);
  }
  std::printf("samples: %zu passes, %zu query latencies\n", passes.size(),
              latencies.size());
  return {
      {"setup_s", setup_s, "s"},
      {"wall_s", Median(walls), "s"},
      {"latency_p50_ms", Percentile(latencies, 50), "ms"},
      {"latency_p90_ms", Percentile(latencies, 90), "ms"},
      {"throughput_qps", Ratio(static_cast<double>(completed), total_wall),
       "1/s"},
      {"sim_s", Median(sims), "s"},
      {"rss_peak_mb", RssPeakMb(), "MB"},
      {"peak_band_mb", Median(peaks), "MB"},
  };
}

/// Per-layer metrics of one traced pass.
std::vector<Metric> Layers(const PassResult& p, const TraceSummary& t,
                           const std::map<std::string, double>& probes,
                           double generate_s) {
  const Counters& c = p.counters;
  const auto& calls = p.calls.seconds;
  const auto g = [&p](const char* name) {
    auto it = p.global.find(name);
    return it == p.global.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto n = [&c](const char* name) {
    return static_cast<double>(c.Get(name));
  };
  constexpr double kMb = 1048576.0;
  const double materialize_s = Sum(t.wall_us, "materialize") / 1e6;
  // Where a workload call builds and fetches in one go (TPC-H RunQuery),
  // graph building is that call minus the engine's materialize spans.
  const double build_s =
      Sum(calls, "build") +
      (calls.count("query") ? Sum(calls, "query") - materialize_s : 0);
  std::vector<double> waits(t.queue_wait_us.begin(), t.queue_wait_us.end());
  const double hits = n("cache_hits");
  auto probe = [&probes](const char* name) { return Sum(probes, name); };
  auto open_samples = p.calls.samples.find("session_open");
  return {
      {"core.session_open_ms",
       open_samples == p.calls.samples.end()
           ? 0
           : Median(open_samples->second) * 1e3,
       "ms"},
      {"core.session_close_ms", Sum(calls, "session_close") * 1e3, "ms"},
      {"core.materialize_s", materialize_s, "s"},
      {"core.fetch_ms", Sum(calls, "fetch") * 1e3, "ms"},
      {"core.admission_retries", static_cast<double>(p.shed), "count"},
      {"core.admission_wait_ms",
       p.admission_wait_s * 1e3 + n("session_queue_wait_us") / 1e3, "ms"},
      {"core.unattributed_s", p.unattributed_s, "s"},
      {"graph.build_ms", build_s * 1e3, "ms"},
      {"optimizer.wall_ms", SumPrefix(t.wall_us, "optimize:") / 1e3, "ms"},
      {"optimizer.pruned_columns", n("pruned_columns"), "count"},
      {"optimizer.predicates_pushed", n("predicates_pushed"), "count"},
      {"optimizer.cse_hits", n("cse_hits"), "count"},
      {"optimizer.op_fusion_hits", n("op_fusion_hits"), "count"},
      {"optimizer.late_rewrites", n("late_rewrites"), "count"},
      {"tiling.self_ms", t.tile_self_us / 1e3, "ms"},
      {"tiling.yields", n("dynamic_yields"), "count"},
      {"scheduler.subtasks", n("subtasks_executed"), "count"},
      {"scheduler.retries", n("subtasks_retried"), "count"},
      {"scheduler.queue_wait_p50_us", Median(waits), "us"},
      {"scheduler.sim_dispatch_s", Sum(t.stage_us, "dispatch") / 1e6, "s"},
      {"scheduler.sim_idle_s", Sum(t.stage_us, "idle") / 1e6, "s"},
      {"dataframe.kernel_cpu_s", n("kernel_cpu_us") / 1e6, "s"},
      {"dataframe.sim_serial_s", Sum(t.stage_us, "kernel_serial") / 1e6, "s"},
      {"dataframe.sim_parallel_s", Sum(t.stage_us, "kernel_parallel") / 1e6,
       "s"},
      {"dataframe.bytes_materialized_mb", g("bytes_materialized") / kMb, "MB"},
      {"dataframe.merge_mrows_per_s", probe("dataframe.merge_mrows_per_s"),
       "Mrows/s"},
      {"dataframe.groupby_mrows_per_s",
       probe("dataframe.groupby_mrows_per_s"), "Mrows/s"},
      {"dataframe.sort_mrows_per_s", probe("dataframe.sort_mrows_per_s"),
       "Mrows/s"},
      {"dataframe.filter_mrows_per_s", probe("dataframe.filter_mrows_per_s"),
       "Mrows/s"},
      {"tensor.qr_s", probe("tensor.qr_s"), "s"},
      {"tensor.matmul_gflops", probe("tensor.matmul_gflops"), "GFLOP/s"},
      {"io.source_mb", n("source_bytes_read") / kMb, "MB"},
      {"io.scan_mb_per_s", probe("io.scan_mb_per_s"), "MB/s"},
      {"io.generate_s", generate_s, "s"},
      {"storage.stored_mb", n("bytes_stored") / kMb, "MB"},
      {"storage.spill_mb", n("bytes_spilled") / kMb, "MB"},
      {"storage.spill_events", n("spill_events"), "count"},
      {"storage.oom_events", n("oom_events"), "count"},
      {"storage.sim_spill_s", Sum(t.stage_us, "spill") / 1e6, "s"},
      {"exchange.transfer_mb", n("bytes_transferred") / kMb, "MB"},
      {"exchange.wire_mb", g("shuffle_wire_bytes") / kMb, "MB"},
      {"exchange.memory_mb", g("shuffle_memory_bytes") / kMb, "MB"},
      {"exchange.blocks_spilled", g("shuffle_blocks_spilled"), "count"},
      {"exchange.backpressure_ms", g("exchange_backpressure_us") / 1e3, "ms"},
      {"result_cache.hit_rate",
       Ratio(hits, hits + n("cache_misses")), "ratio"},
      {"result_cache.publishes", n("cache_publishes"), "count"},
      {"result_cache.evictions", n("cache_evictions"), "count"},
      {"error_ratio",
       Ratio(static_cast<double>(p.typed_failures),
             static_cast<double>(p.attempted)),
       "ratio"},
      {"shed_ratio",
       Ratio(static_cast<double>(p.shed), static_cast<double>(p.submissions)),
       "ratio"},
  };
}

/// Median of each metric over several passes (names and units from the
/// first).
std::vector<Metric> MedianMetrics(
    const std::vector<std::vector<Metric>>& runs) {
  std::vector<Metric> out = runs.front();
  for (size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const auto& run : runs) values.push_back(run[i].value);
    out[i].value = Median(values);
  }
  return out;
}

void PrintBreakdown(const TraceSummary& t, double wall_s) {
  std::printf("wall breakdown of the last traced pass (%.3f s):\n", wall_s);
  std::map<std::string, double> by_prefix;
  for (const auto& [name, us] : t.wall_us) {
    const size_t colon = name.find(':');
    const std::string key =
        name.rfind("bench:", 0) == 0 || colon == std::string::npos
            ? name
            : name.substr(0, colon + 1) + "*";
    by_prefix[key] += us;
  }
  for (const auto& [name, us] : by_prefix) {
    std::printf("  %-28s %10.3f ms\n", name.c_str(), us / 1e3);
  }
  std::printf("  %-28s %10.3f ms\n", "tile:* self", t.tile_self_us / 1e3);
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    json += buf;
    json += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run(const Options& opts) {
  std::unique_ptr<Workload> workload;
  if (opts.workload == "pipelines") {
    workload = MakePipelines(opts);
  } else if (opts.workload == "tpch" || opts.workload == "pressure") {
    workload = MakeTpch(opts, opts.workload == "pressure");
  } else if (opts.workload == "serving") {
    workload = MakeServing(opts);
  }
  if (workload == nullptr) Fail("unknown workload " + opts.workload);
  std::filesystem::create_directories(opts.workdir);

  std::printf("env: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "build_type=%s cxx_flags=\"%s\" compiler=\"%s\" "
              "cluster=\"%s\"\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              WALLBENCH_BUILD_TYPE, WALLBENCH_CXX_FLAGS, WALLBENCH_COMPILER,
              ClusterShape().c_str());

  std::vector<double> setups, generates;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double generate_s = 0;
    const Clock::time_point t0 = Clock::now();
    Status st = workload->Setup(&generate_s);
    if (!st.ok()) Fail("setup: " + st.ToString());
    setups.push_back(SecondsSince(t0));
    generates.push_back(generate_s);
  }
  Status st = workload->ComputeReference();
  if (!st.ok()) Fail("reference: " + st.ToString());

  // One untimed pass first, so lazy set-up (allocator growth, page cache,
  // first-touch pages) is not charged to the first measured pass.
  PassResult warmup;
  st = workload->RunPass({}, &warmup);
  if (!st.ok()) Fail("warm-up pass: " + st.ToString());
  bool correct = warmup.error.empty();
  if (!correct) std::printf("FAILED: %s\n", warmup.error.c_str());

  std::vector<PassResult> untraced, traced;
  std::vector<std::vector<Metric>> layer_runs;
  std::map<std::string, double> probes;
  std::unique_ptr<Tracer> last_tracer;
  const Clock::time_point start = Clock::now();
  auto check = [](const PassResult& p) {
    if (!p.error.empty()) {
      std::printf("FAILED: %s\n", p.error.c_str());
      return false;
    }
    return true;
  };
  while (correct && (untraced.empty() || SecondsSince(start) < opts.seconds)) {
    untraced.emplace_back();
    st = workload->RunPass({}, &untraced.back());
    if (!st.ok()) Fail("pass: " + st.ToString());
    correct = check(untraced.back());
    if (!opts.trace || !correct) continue;
    auto tracer = std::make_unique<Tracer>();
    const TraceTarget target{tracer.get(),
                             tracer->RegisterProcess("wallbench", 0)};
    traced.emplace_back();
    st = workload->RunPass(target, &traced.back());
    if (!st.ok()) Fail("traced pass: " + st.ToString());
    correct = check(traced.back());
    if (probes.empty()) workload->KernelProbes(&probes);
    layer_runs.push_back(Layers(traced.back(), Summarize(*tracer), probes,
                                Median(generates)));
    last_tracer = std::move(tracer);
  }

  int64_t attempted = 0, failed = 0;
  std::map<std::string, int64_t> failures;
  for (const auto* runs : {&untraced, &traced}) {
    for (const PassResult& p : *runs) {
      attempted += p.attempted;
      failed += p.typed_failures;
      for (const auto& [q, k] : p.failures_by_query) failures[q] += k;
    }
  }
  for (const auto& [q, k] : failures) {
    std::printf("typed failure: %s x%lld\n", q.c_str(),
                static_cast<long long>(k));
  }

  std::map<std::string, std::vector<double>> by_query;
  for (const PassResult& p : untraced) {
    for (const auto& [q, v] : p.latency_by_query) {
      by_query[q].insert(by_query[q].end(), v.begin(), v.end());
    }
  }
  if (!by_query.empty()) {
    std::printf("median latency by query (ms):");
    for (const auto& [q, v] : by_query) {
      std::printf(" %s=%.2f", q.c_str(), Median(v));
    }
    std::printf("\n");
  }
  for (const auto* runs : {&untraced, &traced}) {
    std::printf("%s pass walls (s):", runs == &untraced ? "untraced" : "traced");
    for (const PassResult& p : *runs) std::printf(" %.4f", p.wall_s);
    std::printf("\n");
  }

  std::vector<Metric> metrics;
  if (!opts.trace) {
    metrics = EndToEnd(untraced, Median(setups));
  } else if (correct) {
    metrics = MedianMetrics(layer_runs);
    std::vector<double> plain, with_trace;
    for (const PassResult& p : untraced) plain.push_back(p.wall_s);
    for (const PassResult& p : traced) with_trace.push_back(p.wall_s);
    metrics.push_back({"trace.overhead_ratio",
                       Ratio(Median(with_trace), Median(plain)), "ratio"});
    PrintBreakdown(Summarize(*last_tracer), traced.back().wall_s);
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  wallbench::Options opts;
  if (!wallbench::ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: wallbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> --workdir <dir>\n");
    return 2;
  }
  if (wallbench::SanitizerBuild()) {
    std::fprintf(stderr, "wallbench: refusing to report from a sanitizer "
                         "build\n");
    return 2;
  }
  return wallbench::Run(opts);
}
