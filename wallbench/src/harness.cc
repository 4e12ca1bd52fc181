#include "harness.h"

#include <algorithm>
#include <cmath>

#include "common/buffer.h"
#include "common/exchange_stats.h"
#include "common/kernel_stats.h"
#include "common/late_stats.h"
#include "dataframe/kernels.h"

namespace wallbench {

using xorbits::EngineKind;
using xorbits::StatusCode;
using xorbits::TraceEvent;
using xorbits::TraceStage;
namespace df = xorbits::dataframe;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string ClusterShape() {
  return std::to_string(kWorkers) + " worker x " +
         std::to_string(kBandsPerWorker) + " bands x " +
         std::to_string(kCpusPerBand) + " cpus_per_band (kernel pool " +
         std::to_string(kBandsPerWorker * kCpusPerBand) + " threads)";
}

Config EngineConfig(int64_t band_mb, int64_t chunk_kb,
                    const std::string& spill_dir) {
  Config c = Config::Preset(EngineKind::kXorbits);
  c.num_workers = kWorkers;
  c.bands_per_worker = kBandsPerWorker;
  c.cpus_per_band = kCpusPerBand;
  c.band_memory_limit = band_mb << 20;
  c.chunk_store_limit = chunk_kb << 10;
  c.task_deadline_ms = kDeadlineMs;
  c.spill_dir = spill_dir;
  return c;
}

Config ReferenceConfig() {
  Config c = Config::Preset(EngineKind::kPandasLike);
  c.band_memory_limit = int64_t{64} << 30;
  c.chunk_store_limit = int64_t{1} << 30;
  c.task_deadline_ms = 600000;
  return c;
}

bool IsTypedFailure(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOutOfMemory:
    case StatusCode::kQuotaExceeded:
    case StatusCode::kOverloaded:
    case StatusCode::kTimeout:
    case StatusCode::kWorkerLost:
      return true;
    default:
      return false;
  }
}

namespace {

bool Near(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::fabs(a - b) <= 1e-6 * (1.0 + std::fabs(b));
}

df::DataFrame Canonical(const df::DataFrame& frame) {
  if (frame.num_rows() <= 1) return frame;
  auto sorted = df::SortValues(frame, frame.column_names());
  return sorted.ok() ? sorted.MoveValue() : frame;
}

std::string CompareFrames(const df::DataFrame& actual_in,
                          const df::DataFrame& expected_in) {
  if (actual_in.num_rows() != expected_in.num_rows()) {
    return "rows " + std::to_string(actual_in.num_rows()) + " vs " +
           std::to_string(expected_in.num_rows());
  }
  if (actual_in.column_names() != expected_in.column_names()) {
    return "column names differ";
  }
  const df::DataFrame a = Canonical(actual_in);
  const df::DataFrame b = Canonical(expected_in);
  for (int c = 0; c < a.num_columns(); ++c) {
    const df::Column& ca = a.column(c);
    const df::Column& cb = b.column(c);
    if (ca.dtype() != cb.dtype()) return "dtype of " + a.column_name(c);
    for (int64_t i = 0; i < a.num_rows(); ++i) {
      const std::string where =
          a.column_name(c) + " row " + std::to_string(i);
      if (ca.IsNull(i) || cb.IsNull(i)) {
        if (ca.IsNull(i) != cb.IsNull(i)) return "null at " + where;
        continue;
      }
      if (ca.dtype() == df::DType::kFloat64) {
        if (!Near(ca.float64_data()[i], cb.float64_data()[i])) {
          return "value at " + where;
        }
      } else if (!(ca.GetScalar(i) == cb.GetScalar(i))) {
        return "value at " + where;
      }
    }
  }
  return "";
}

std::string CompareArrays(const xorbits::tensor::NDArray& a,
                          const xorbits::tensor::NDArray& b,
                          TensorCheck check) {
  if (a.shape() != b.shape()) return "tensor shapes differ";
  for (int64_t i = 0; i < a.rows(); ++i) {
    double sa = 1, sb = 1;
    if (check == TensorCheck::kRFactor && i < a.cols()) {
      sa = a.at(i, i) < 0 ? -1 : 1;
      sb = b.at(i, i) < 0 ? -1 : 1;
    }
    for (int64_t j = 0; j < a.cols(); ++j) {
      if (!Near(sa * a.at(i, j), sb * b.at(i, j))) {
        return "tensor value at (" + std::to_string(i) + ", " +
               std::to_string(j) + ")";
      }
    }
  }
  return "";
}

}  // namespace

std::string Compare(const Output& actual, const Output& expected,
                    TensorCheck tensor_check) {
  if (actual.is_tensor != expected.is_tensor) return "output kinds differ";
  return actual.is_tensor
             ? CompareArrays(actual.arr, expected.arr, tensor_check)
             : CompareFrames(actual.df, expected.df);
}

xorbits::graph::TileableNode* Handle::node() const {
  return df.valid() ? df.node() : tensor.node();
}

xorbits::Result<Output> Handle::Fetch() const {
  Output out;
  if (df.valid()) {
    XORBITS_ASSIGN_OR_RETURN(out.df, df.Fetch());
  } else {
    out.is_tensor = true;
    XORBITS_ASSIGN_OR_RETURN(out.arr, tensor.Fetch());
  }
  return out;
}

Status ComputeSoloReference(const std::vector<QuerySpec>& queries,
                            std::vector<Output>* reference) {
  reference->clear();
  for (const QuerySpec& q : queries) {
    xorbits::core::Session session(ReferenceConfig());
    Output out;
    if (q.run) {
      XORBITS_ASSIGN_OR_RETURN(out, q.run(&session));
    } else {
      XORBITS_ASSIGN_OR_RETURN(Handle h, q.build(&session));
      XORBITS_ASSIGN_OR_RETURN(out, h.Fetch());
    }
    reference->push_back(std::move(out));
  }
  return Status::OK();
}

void RecordFailure(const std::string& query, const Status& st,
                   PassResult* out) {
  if (IsTypedFailure(st)) {
    ++out->typed_failures;
    ++out->failures_by_query[query + " " +
                             xorbits::StatusCodeName(st.code())];
  } else if (out->error.empty()) {
    out->error = query + ": untyped failure: " + st.ToString();
  }
}

void RunSoloPass(const TraceTarget& trace,
                 const std::vector<QuerySpec>& queries,
                 const std::vector<Output>& reference, PassResult* out) {
  using xorbits::Result;
  using xorbits::core::Session;
  std::vector<Result<Output>> results;
  const Clock::time_point pass_t0 = Clock::now();
  for (const QuerySpec& q : queries) {
    const GlobalStats before = ReadGlobalStats();
    Config config = q.config;
    config.trace.sink = trace.tracer;
    const Clock::time_point t0 = Clock::now();
    auto session = TimedCall(trace, "session_open", &out->calls, [&] {
      return std::make_unique<Session>(config);
    });
    auto run = [&]() -> Result<Output> {
      if (q.run) {
        return TimedCall(trace, "query", &out->calls,
                         [&] { return q.run(session.get()); });
      }
      Result<Handle> handle = TimedCall(
          trace, "build", &out->calls, [&] { return q.build(session.get()); });
      XORBITS_RETURN_NOT_OK(handle.status());
      XORBITS_RETURN_NOT_OK(TimedCall(trace, "materialize", &out->calls, [&] {
        return session->Materialize({handle->node()});
      }));
      return TimedCall(trace, "fetch", &out->calls,
                       [&] { return handle->Fetch(); });
    };
    Result<Output> result = run();
    const double latency_ms = SecondsSince(t0) * 1e3;
    out->counters.Add(session->metrics().Snapshot());
    TimedCall(trace, "session_close", &out->calls, [&] { session.reset(); });
    AddDelta(before, ReadGlobalStats(), &out->global);
    ++out->attempted;
    ++out->submissions;
    if (result.ok()) {
      ++out->completed;
    } else {
      RecordFailure(q.name, result.status(), out);
    }
    const double recorded = result.ok() ? latency_ms : kDeadlineMs;
    out->latency_ms.push_back(recorded);
    out->latency_by_query[q.name].push_back(recorded);
    results.push_back(std::move(result));
  }
  out->wall_s = SecondsSince(pass_t0);
  double timed = 0;
  for (const auto& [name, s] : out->calls.seconds) timed += s;
  out->unattributed_s += out->wall_s - timed;
  // Checked after the timed pass so comparison cost stays out of it.
  for (size_t i = 0; i < queries.size() && out->error.empty(); ++i) {
    if (!results[i].ok()) continue;
    const std::string diff =
        Compare(*results[i], reference[i], queries[i].check);
    if (!diff.empty()) {
      out->error = queries[i].name + ": result differs from the serial "
                   "reference: " + diff;
    }
  }
}

ProbePool::ProbePool()
    : pool_(std::make_unique<xorbits::ThreadPool>(kBandsPerWorker *
                                                  kCpusPerBand)),
      previous_(xorbits::SetCurrentThreadPool(pool_.get())) {}

ProbePool::~ProbePool() { xorbits::SetCurrentThreadPool(previous_); }

void Counters::Add(const xorbits::MetricsSnapshot& snap) {
  for (const auto& [name, value] : snap.counters) {
    if (name == "peak_band_bytes") {
      peak_band_bytes = std::max(peak_band_bytes, value);
    } else {
      sums[name] += value;
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("band_peak_bytes/", 0) == 0) {
      peak_band_bytes = std::max(peak_band_bytes, value);
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "session_queue_wait_us") {
      sums["session_queue_wait_us"] += h.sum;
    }
  }
}

int64_t Counters::Get(const std::string& name) const {
  auto it = sums.find(name);
  return it == sums.end() ? 0 : it->second;
}

GlobalStats ReadGlobalStats() {
  using namespace xorbits::common;
  const ExchangeStats& x = ExchangeStats::Get();
  const LateStats& l = LateStats::Get();
  const KernelStats& k = KernelStats::Get();
  const BufferStats& b = BufferStats::Get();
  return {
      {"shuffle_wire_bytes", x.shuffle_wire_bytes.load()},
      {"shuffle_memory_bytes", x.shuffle_memory_bytes.load()},
      {"shuffle_blocks_produced", x.shuffle_blocks_produced.load()},
      {"shuffle_blocks_consumed", x.shuffle_blocks_consumed.load()},
      {"shuffle_blocks_spilled", x.shuffle_blocks_spilled.load()},
      {"exchange_backpressure_us", x.exchange_backpressure_us.load()},
      {"bytes_materialized", l.bytes_materialized.load()},
      {"selections_forced", l.selections_forced.load()},
      {"lazy_columns_decoded", l.lazy_columns_decoded.load()},
      {"dict_encoded_columns", k.dict_encoded_columns.load()},
      {"dict_fallback_decodes", k.dict_fallback_decodes.load()},
      {"join_radix_partitions", k.join_radix_partitions.load()},
      {"buffer_bytes_shared", b.bytes_shared.load()},
      {"buffer_cow_copies", b.cow_copies.load()},
  };
}

void AddDelta(const GlobalStats& before, const GlobalStats& after,
              GlobalStats* sums) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    (*sums)[name] += value - (it == before.end() ? 0 : it->second);
  }
}

void CallTimes::Merge(const CallTimes& other) {
  for (const auto& [name, s] : other.seconds) seconds[name] += s;
  for (const auto& [name, v] : other.samples) {
    samples[name].insert(samples[name].end(), v.begin(), v.end());
  }
}

namespace {

int64_t NumericArg(const TraceEvent& e, const std::string& key) {
  for (const auto& a : e.args) {
    if (a.key == key && a.numeric) return std::stoll(a.value);
  }
  return -1;
}

}  // namespace

TraceSummary Summarize(const Tracer& tracer) {
  TraceSummary s;
  // Simulated-time intervals per session: an execute_partial span lies
  // inside the tile span whose dynamic-tiling yield ran it.
  struct Interval {
    int64_t begin, end, wall_us;
  };
  std::map<int, std::vector<Interval>> tiles, partials;
  for (const TraceEvent& e : tracer.SnapshotEvents()) {
    if (e.phase != TraceEvent::Phase::kComplete) continue;
    if (e.name.rfind("subtask:", 0) == 0) {
      const int64_t wait = NumericArg(e, "queue_wait_us");
      if (wait >= 0) s.queue_wait_us.push_back(wait);
      continue;
    }
    const int64_t wall = NumericArg(e, "wall_us");
    if (wall < 0) continue;
    s.wall_us[e.name] += static_cast<double>(wall);
    const Interval iv{e.ts_us, e.ts_us + e.dur_us, wall};
    if (e.name.rfind("tile:", 0) == 0) tiles[e.pid].push_back(iv);
    if (e.name == "execute_partial") partials[e.pid].push_back(iv);
  }
  for (auto& [pid, spans] : tiles) {
    double nested = 0;
    for (const Interval& p : partials[pid]) {
      for (const Interval& t : spans) {
        if (p.begin >= t.begin && p.end <= t.end) {
          nested += static_cast<double>(p.wall_us);
          break;
        }
      }
    }
    double total = 0;
    for (const Interval& t : spans) total += static_cast<double>(t.wall_us);
    s.tile_self_us += total - nested;
  }
  for (int pid : tracer.process_ids()) {
    for (int st = 0; st < xorbits::kTraceStageCount; ++st) {
      const auto stage = static_cast<TraceStage>(st);
      s.stage_us[xorbits::TraceStageName(stage)] +=
          static_cast<double>(tracer.stage_total(pid, stage));
    }
  }
  return s;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double MedianSeconds(int n, const std::function<void()>& fn) {
  std::vector<double> runs;
  for (int i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    runs.push_back(SecondsSince(t0));
  }
  return Median(runs);
}

}  // namespace wallbench
