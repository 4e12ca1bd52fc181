// `tpch` and `pressure`: all 22 TPC-H queries over xparquet files written
// in setup, each query in a fresh solo session as an ad-hoc user would run
// it. `pressure` runs the same queries on the same files with a band budget
// a few MiB wide and spill on (the paper's Table I/II regime).

#include "dataframe/compute.h"
#include "dataframe/groupby.h"
#include "dataframe/join.h"
#include "dataframe/kernels.h"
#include "harness.h"
#include "io/tpch_gen.h"
#include "io/xparquet.h"
#include "workloads/tpch_queries.h"

namespace wallbench {
namespace {

using xorbits::Result;
using xorbits::core::Session;
namespace df = xorbits::dataframe;

constexpr double kScaleFactor = 0.02;
// Engine budgets: `tpch` has memory to spare; `pressure` squeezes each band
// to a few MiB so storage spills and exchange backpressure engage.
constexpr int64_t kBandMb = 512;
constexpr int64_t kPressureBandMb = 4;
constexpr int64_t kChunkKb = 1024;
// Q15 is left out: it filters `total_revenue >= max(total_revenue)` with
// the max fetched from an earlier materialization, and on some seeds (6
// and 7 at SF 0.02, 1 at SF 0.05) the engine returns no rows where the
// serial reference returns one. See README.md, "Known defects".
constexpr int kExcludedQuery = 15;

class Tpch : public Workload {
 public:
  Tpch(const Options& opts, bool pressure)
      : opts_(opts), pressure_(pressure), dir_(opts.workdir + "/tpch") {}

  Status Setup(double* generate_s) override {
    const Clock::time_point t0 = Clock::now();
    XORBITS_RETURN_NOT_OK(
        xorbits::io::tpch::GenerateFiles(kScaleFactor, dir_, opts_.seed));
    *generate_s = SecondsSince(t0);
    Session session(RunConfig());
    return Status::OK();
  }

  Status ComputeReference() override {
    return ComputeSoloReference(Queries(), &reference_);
  }

  Status RunPass(const TraceTarget& trace, PassResult* out) override {
    RunSoloPass(trace, Queries(), reference_, out);
    return Status::OK();
  }

  void KernelProbes(std::map<std::string, double>* layer) override {
    ProbeTpchKernels(dir_, layer);
  }

 private:
  xorbits::Config RunConfig() const {
    xorbits::Config c = EngineConfig(pressure_ ? kPressureBandMb : kBandMb,
                                     kChunkKb, opts_.workdir + "/spill");
    c.enable_spill = pressure_;
    return c;
  }

  std::vector<QuerySpec> Queries() const {
    std::vector<QuerySpec> queries;
    for (int q = 1; q <= xorbits::workloads::tpch::NumQueries(); ++q) {
      if (q == kExcludedQuery) continue;
      QuerySpec spec;
      spec.name = "q" + std::to_string(q);
      spec.config = RunConfig();
      spec.run = [q, dir = dir_](Session* s) -> Result<Output> {
        Output out;
        XORBITS_ASSIGN_OR_RETURN(out.df,
                                 xorbits::workloads::tpch::RunQuery(q, s, dir));
        return out;
      };
      queries.push_back(std::move(spec));
    }
    return queries;
  }

  Options opts_;
  bool pressure_;
  std::string dir_;
  std::vector<Output> reference_;
};

}  // namespace

void ProbeTpchKernels(const std::string& dir,
                      std::map<std::string, double>* layer) {
  ProbePool pool;
  constexpr int kReps = 3;
  int64_t scan_bytes = 0;
  Result<df::DataFrame> read = Status::Invalid("unread");
  const double scan_s = MedianSeconds(kReps, [&] {
    scan_bytes = 0;
    read = xorbits::io::ReadXpq(dir + "/lineitem.xpq", {}, 0, -1, &scan_bytes,
                                /*dict_encode=*/true);
  });
  auto orders = xorbits::io::ReadXpq(dir + "/orders.xpq", {}, 0, -1, nullptr,
                                     /*dict_encode=*/true);
  if (!read.ok() || !orders.ok()) return;
  (*layer)["io.scan_mb_per_s"] = scan_bytes / 1048576.0 / scan_s;
  const df::DataFrame& lineitem = *read;
  const double rows = static_cast<double>(lineitem.num_rows());
  auto rate = [rows](double s) { return rows / 1e6 / s; };
  df::MergeOptions on;
  on.left_on = {"l_orderkey"};
  on.right_on = {"o_orderkey"};
  (*layer)["dataframe.merge_mrows_per_s"] = rate(MedianSeconds(
      kReps, [&] { (void)df::Merge(lineitem, *orders, on); }));
  (*layer)["dataframe.groupby_mrows_per_s"] = rate(MedianSeconds(kReps, [&] {
    (void)df::GroupByAgg(
        lineitem, {"l_returnflag", "l_linestatus"},
        {{"l_quantity", df::AggFunc::kSum, "sum_qty"},
         {"l_extendedprice", df::AggFunc::kSum, "sum_base_price"},
         {"l_discount", df::AggFunc::kMean, "avg_disc"},
         {"", df::AggFunc::kSize, "count_order"}});
  }));
  (*layer)["dataframe.sort_mrows_per_s"] = rate(MedianSeconds(
      kReps, [&] { (void)df::SortValues(lineitem, {"l_shipdate"}); }));
  const df::Column& ship = *lineitem.GetColumn("l_shipdate").ValueOrDie();
  const int64_t cutoff = df::ParseDate("1995-01-01").ValueOrDie();
  std::vector<uint8_t> mask(lineitem.num_rows());
  for (int64_t i = 0; i < lineitem.num_rows(); ++i) {
    mask[i] = ship.IsValid(i) && ship.int64_data()[i] < cutoff;
  }
  const df::Column mask_col = df::Column::Bool(std::move(mask));
  (*layer)["dataframe.filter_mrows_per_s"] = rate(MedianSeconds(
      kReps, [&] { (void)df::Filter(lineitem, mask_col); }));
}

std::unique_ptr<Workload> MakeTpch(const Options& opts, bool pressure) {
  return std::make_unique<Tpch>(opts, pressure);
}

}  // namespace wallbench
