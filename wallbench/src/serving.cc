// `serving`: a closed loop of two clients against one SessionManager with
// the result cache on and fewer admission slots than clients. Each client
// submits a seeded stream of pipeline-shaped and TPC-H-shaped queries, one
// tenant session per query (a stateless front end); a refused submission
// (kOverloaded) is retried after the server's backoff hint, and that wait
// is part of the latency the client sees. Half of each stream replays 8
// hot plans; the other half are fresh variants with seeded literals.
// Every pass starts a fresh cluster and replays the same streams.

#include <algorithm>
#include <random>
#include <thread>

#include "core/session_manager.h"
#include "dataframe/compute.h"
#include "harness.h"
#include "io/tpch_gen.h"
#include "workloads/pipelines.h"

namespace wallbench {
namespace {

using xorbits::DataFrameRef;
using xorbits::Result;
using xorbits::core::Session;
using xorbits::core::SessionManager;
using xorbits::dataframe::AggFunc;
using xorbits::dataframe::BinOp;
using xorbits::dataframe::CmpOp;
using xorbits::operators::AndExpr;
using xorbits::operators::BinaryExpr;
using xorbits::operators::Col;
using xorbits::operators::CompareExpr;
using xorbits::operators::ExprPtr;
using xorbits::operators::Lit;
namespace df = xorbits::dataframe;

#define AR(lhs, expr) XORBITS_ASSIGN_OR_RETURN(lhs, expr)

constexpr int kClients = 2;
constexpr int kQueriesPerClient = 30;
constexpr int kTemplates = 4;
// Every stream has the same make-up, so seeds change only the order, the
// fresh literals and the data: each template takes every kTemplates-th
// slot, and the first half of the slots (before shuffling) replays one of
// the kHotLiterals hot plans of its template.
constexpr int kHotLiterals = 2;
constexpr int kFreshLiterals = 1000;
constexpr double kScaleFactor = 0.01;
constexpr int64_t kCensusRows = 100000;
constexpr int kMaxAttempts = 2000;

/// One query of a client's stream: template and literal index.
struct Request {
  int tmpl;
  int literal;
  bool operator<(const Request& o) const {
    return tmpl != o.tmpl ? tmpl < o.tmpl : literal < o.literal;
  }
};

ExprPtr DateLit(const char* date, int offset_days) {
  return Lit(df::Scalar::Int(df::ParseDate(date).ValueOrDie() + offset_days));
}

ExprPtr Revenue() {
  return BinaryExpr(Col("l_extendedprice"), BinOp::kMul,
                    BinaryExpr(Lit(1.0), BinOp::kSub, Col("l_discount")));
}

class Serving : public Workload {
 public:
  explicit Serving(const Options& opts)
      : opts_(opts), dir_(opts.workdir + "/serving") {
    for (int c = 0; c < kClients; ++c) {
      std::mt19937_64 rng(opts.seed * 1000003 + c);
      std::vector<Request> stream;
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const bool hot = i < kQueriesPerClient / 2;
        const int literal =
            hot ? (i / kTemplates) % kHotLiterals
                : kHotLiterals +
                      static_cast<int>(rng() % (kFreshLiterals - kHotLiterals));
        stream.push_back({i % kTemplates, literal});
      }
      std::shuffle(stream.begin(), stream.end(), rng);
      streams_.push_back(std::move(stream));
    }
  }

  Status Setup(double* generate_s) override {
    const Clock::time_point t0 = Clock::now();
    census_ =
        xorbits::workloads::pipelines::MakeCensus(kCensusRows, opts_.seed * 16);
    XORBITS_RETURN_NOT_OK(
        xorbits::io::tpch::GenerateFiles(kScaleFactor, dir_, opts_.seed));
    *generate_s = SecondsSince(t0);
    AR(auto manager, SessionManager::Create(ClusterConfig()));
    for (int c = 0; c < kClients; ++c) (void)manager->CreateSession();
    return Status::OK();
  }

  Status ComputeReference() override {
    for (const auto& stream : streams_) {
      for (const Request& r : stream) {
        if (reference_.count(r)) continue;
        Session session(ReferenceConfig());
        AR(Handle h, Build(&session, r));
        AR(reference_[r], h.Fetch());
      }
    }
    return Status::OK();
  }

  Status RunPass(const TraceTarget& trace, PassResult* out) override {
    xorbits::Config config = ClusterConfig();
    config.trace.sink = trace.tracer;
    AR(auto manager, SessionManager::Create(config));
    const GlobalStats before = ReadGlobalStats();
    std::vector<PassResult> clients(kClients);
    std::vector<std::vector<Result<Output>>> results(kClients);
    std::vector<std::thread> threads;
    const Clock::time_point pass_t0 = Clock::now();
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        RunClient(trace, manager.get(), streams_[c], &clients[c],
                  &results[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    out->wall_s = SecondsSince(pass_t0);
    out->counters.Add(manager->metrics().Snapshot());
    manager.reset();
    AddDelta(before, ReadGlobalStats(), &out->global);
    for (PassResult& c : clients) {
      out->latency_ms.insert(out->latency_ms.end(), c.latency_ms.begin(),
                             c.latency_ms.end());
      out->attempted += c.attempted;
      out->completed += c.completed;
      out->typed_failures += c.typed_failures;
      out->submissions += c.submissions;
      out->shed += c.shed;
      out->admission_wait_s += c.admission_wait_s;
      out->unattributed_s += c.unattributed_s;
      for (const auto& [name, v] : c.counters.sums) {
        out->counters.sums[name] += v;
      }
      out->counters.peak_band_bytes =
          std::max(out->counters.peak_band_bytes, c.counters.peak_band_bytes);
      out->calls.Merge(c.calls);
      for (const auto& [q, k] : c.failures_by_query) {
        out->failures_by_query[q] += k;
      }
      if (out->error.empty()) out->error = c.error;
    }
    for (int c = 0; c < kClients && out->error.empty(); ++c) {
      for (size_t i = 0; i < results[c].size(); ++i) {
        if (!results[c][i].ok()) continue;
        const Request& r = streams_[c][i];
        const std::string diff = Compare(*results[c][i], reference_.at(r));
        if (!diff.empty()) {
          out->error = Name(r) + ": result differs from the serial "
                       "reference: " + diff;
          break;
        }
      }
    }
    return Status::OK();
  }

  void KernelProbes(std::map<std::string, double>* layer) override {
    ProbeTpchKernels(dir_, layer);
  }

 private:
  xorbits::Config ClusterConfig() const {
    xorbits::Config c = EngineConfig(256, 1024, opts_.workdir + "/spill");
    c.max_concurrent_sessions = 1;  // fewer admission slots than clients
    c.admission_queue_depth = 0;    // a busy cluster sheds at once
    c.admission_timeout_ms = 1000;
    c.enable_result_cache = true;
    c.result_cache_budget_bytes = 64LL << 20;
    return c;
  }

  static std::string Name(const Request& r) {
    static const char* kNames[kTemplates] = {"census", "q1", "q3", "q6"};
    return std::string(kNames[r.tmpl]) + "#" + std::to_string(r.literal);
  }

  Result<DataFrameRef> Table(Session* s, const char* name) const {
    return xorbits::ReadParquet(s, dir_ + "/" + name + ".xpq");
  }

  /// Builds request `r` on `s`; the literal index picks the constants.
  Result<Handle> Build(Session* s, const Request& r) const {
    const int k = r.literal;
    Handle h;
    switch (r.tmpl) {
      case 0: {  // census: clean, threshold, demographic aggregation
        AR(DataFrameRef d, xorbits::FromPandas(s, census_));
        AR(d, d.Filter(AndExpr(
                  CompareExpr(Col("age"), CmpOp::kGe, Lit(int64_t{18})),
                  CompareExpr(Col("capital_gain"), CmpOp::kLt,
                              Lit(500.0 + 97.0 * k)))));
        AR(h.df, d.GroupByAgg({"workclass", "marital_status"},
                              {{"hours_per_week", AggFunc::kMean, "avg_hours"},
                               {"capital_gain", AggFunc::kSum, "total_gain"},
                               {"", AggFunc::kSize, "n"}}));
        break;
      }
      case 1: {  // TPC-H Q1 shape with a seeded ship-date cutoff
        AR(DataFrameRef l, Table(s, "lineitem"));
        AR(l, l.Filter(CompareExpr(Col("l_shipdate"), CmpOp::kLe,
                                   DateLit("1998-09-02", -k))));
        AR(l, l.Assign("disc_price", Revenue()));
        AR(h.df, l.GroupByAgg({"l_returnflag", "l_linestatus"},
                              {{"l_quantity", AggFunc::kSum, "sum_qty"},
                               {"disc_price", AggFunc::kSum, "sum_disc_price"},
                               {"l_discount", AggFunc::kMean, "avg_disc"},
                               {"", AggFunc::kSize, "count_order"}}));
        break;
      }
      case 2: {  // TPC-H Q3 shape: orders before / lineitems after a date
        AR(DataFrameRef o, Table(s, "orders"));
        AR(o, o.Filter(CompareExpr(Col("o_orderdate"), CmpOp::kLt,
                                   DateLit("1995-03-15", k - 500))));
        AR(DataFrameRef l, Table(s, "lineitem"));
        AR(l, l.Filter(CompareExpr(Col("l_shipdate"), CmpOp::kGt,
                                   DateLit("1995-03-15", k - 500))));
        AR(l, l.Assign("revenue", Revenue()));
        df::MergeOptions on;
        on.left_on = {"l_orderkey"};
        on.right_on = {"o_orderkey"};
        AR(DataFrameRef j, l.Merge(o, on));
        AR(h.df, j.GroupByAgg({"o_orderpriority"},
                              {{"revenue", AggFunc::kSum, "revenue"},
                               {"", AggFunc::kSize, "n"}}));
        break;
      }
      default: {  // TPC-H Q6 shape: one year from a seeded start date
        AR(DataFrameRef l, Table(s, "lineitem"));
        AR(l, l.Filter(AndExpr(
                  CompareExpr(Col("l_shipdate"), CmpOp::kGe,
                              DateLit("1993-01-01", k)),
                  AndExpr(CompareExpr(Col("l_shipdate"), CmpOp::kLt,
                                      DateLit("1993-01-01", k + 365)),
                          CompareExpr(Col("l_quantity"), CmpOp::kLt,
                                      Lit(24.0))))));
        AR(l, l.Assign("gain", BinaryExpr(Col("l_extendedprice"), BinOp::kMul,
                                          Col("l_discount"))));
        AR(h.df, l.Agg({{"gain", AggFunc::kSum, "revenue"},
                        {"", AggFunc::kSize, "n"}}));
        break;
      }
    }
    return h;
  }

  /// Runs `fn` until it is not refused for overload, sleeping the server's
  /// backoff hint between attempts. Refused attempts and sleeps count as
  /// admission wait.
  template <typename Fn>
  auto Admitted(const TraceTarget& trace, const char* name, PassResult* out,
                Fn&& fn) -> decltype(fn()) {
    for (int attempt = 1;; ++attempt) {
      const Clock::time_point t0 = Clock::now();
      auto result = TimedCall(trace, name, &out->calls, fn);
      ++out->submissions;
      if (!result.status().IsOverloaded() || attempt == kMaxAttempts) {
        return result;
      }
      ++out->shed;
      const int64_t hint = std::max<int64_t>(result.status().backoff_hint_ms(),
                                             1);
      TimedCall(trace, "backoff", &out->calls, [hint] {
        std::this_thread::sleep_for(std::chrono::milliseconds(hint));
      });
      out->admission_wait_s += SecondsSince(t0);
    }
  }

  void RunClient(const TraceTarget& trace, SessionManager* manager,
                 const std::vector<Request>& stream, PassResult* out,
                 std::vector<Result<Output>>* results) {
    const Clock::time_point client_t0 = Clock::now();
    for (const Request& r : stream) {
      const Clock::time_point t0 = Clock::now();
      auto session = TimedCall(trace, "session_open", &out->calls,
                               [&] { return manager->CreateSession(); });
      auto run = [&]() -> Result<Output> {
        Result<Handle> handle = TimedCall(trace, "build", &out->calls,
                                          [&] { return Build(session.get(), r); });
        XORBITS_RETURN_NOT_OK(handle.status());
        XORBITS_RETURN_NOT_OK(
            Admitted(trace, "materialize", out, [&]() -> Result<bool> {
              XORBITS_RETURN_NOT_OK(session->Materialize({handle->node()}));
              return true;
            }).status());
        return Admitted(trace, "fetch", out, [&] { return handle->Fetch(); });
      };
      Result<Output> result = run();
      const double latency_ms = SecondsSince(t0) * 1e3;
      out->counters.Add(session->metrics().Snapshot());
      TimedCall(trace, "session_close", &out->calls, [&] { session.reset(); });
      ++out->attempted;
      if (result.ok()) {
        ++out->completed;
        out->latency_ms.push_back(latency_ms);
      } else {
        out->latency_ms.push_back(kDeadlineMs);
        RecordFailure(Name(r), result.status(), out);
      }
      results->push_back(std::move(result));
    }
    double timed = 0;
    for (const auto& [name, s] : out->calls.seconds) timed += s;
    out->unattributed_s = SecondsSince(client_t0) - timed;
  }

  Options opts_;
  std::string dir_;
  std::vector<std::vector<Request>> streams_;
  df::DataFrame census_;
  std::map<Request, Output> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeServing(const Options& opts) {
  return std::make_unique<Serving>(opts);
}

}  // namespace wallbench
