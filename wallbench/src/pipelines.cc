// `pipelines`: the paper's Fig. 8(a) data-science jobs (TPCx-AI UC10
// skewed merge, census clean + aggregate, PLAsTiCC features) and the
// Fig. 8(c,d) tensor jobs (tall-skinny QR, linear regression), each in a
// fresh solo Xorbits session. Inputs are generated in setup and enter
// through FromPandas / FromNumpy; the operator chains are built here.

#include "core/xorbits.h"
#include "dataframe/groupby.h"
#include "dataframe/join.h"
#include "dataframe/kernels.h"
#include "tensor/ndarray.h"
#include "harness.h"
#include "workloads/pipelines.h"

namespace wallbench {
namespace {

using xorbits::DataFrameRef;
using xorbits::Result;
using xorbits::TensorRef;
using xorbits::core::Session;
using xorbits::dataframe::AggFunc;
using xorbits::dataframe::BinOp;
using xorbits::dataframe::CmpOp;
using xorbits::dataframe::DataFrame;
using xorbits::operators::AndExpr;
using xorbits::operators::BinaryExpr;
using xorbits::operators::Col;
using xorbits::operators::CompareExpr;
using xorbits::operators::Lit;
using xorbits::tensor::NDArray;
namespace gen = xorbits::workloads::pipelines;

#define AR(lhs, expr) XORBITS_ASSIGN_OR_RETURN(lhs, expr)

// Input sizes: twice Fig. 8(a)'s rows for the dataframe jobs; Fig. 8(c)'s
// one-socket rows for QR (the serial reference QR is the slowest step of
// setup) and its four-socket rows for linear regression.
constexpr int64_t kTransactions = 600000;
constexpr int64_t kCustomers = 1000;
constexpr int64_t kCensusRows = 400000;
constexpr int64_t kPlasticcRows = 600000;
constexpr int64_t kPlasticcObjects = 1500;
constexpr int64_t kQrRows = 60000;
constexpr int64_t kQrCols = 32;
constexpr int64_t kLrRows = 480000;
constexpr int64_t kLrFeatures = 16;
// Fig. 8(a)'s band budget would be exceeded by the doubled inputs; the
// chunk limit is Fig. 8(a)'s.
constexpr int64_t kBandMb = 512;
constexpr int64_t kChunkKb = 1024;
// Rows of the block the direct QR probe factors: a few of the engine's
// TSQR leaves under the chunk limit above.
constexpr int64_t kQrProbeRows = 8192;

class Pipelines : public Workload {
 public:
  explicit Pipelines(const Options& opts) : opts_(opts) {}

  Status Setup(double* generate_s) override {
    const uint64_t s = opts_.seed * 16;
    const Clock::time_point t0 = Clock::now();
    customers_ = gen::MakeCustomers(kCustomers, s + 1);
    transactions_ =
        gen::MakeTransactions(kTransactions, kCustomers, 3.0, s + 2);
    census_ = gen::MakeCensus(kCensusRows, s + 3);
    plasticc_ = gen::MakePlasticc(kPlasticcRows, kPlasticcObjects, s + 4);
    xorbits::Rng rng(s + 5);
    qr_x_ = NDArray::RandomNormal({kQrRows, kQrCols}, rng);
    lr_x_ = NDArray::RandomNormal({kLrRows, kLrFeatures}, rng);
    *generate_s = SecondsSince(t0);
    // Cluster start: a solo session brings up its bands and kernel pool.
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
    namespace df = xorbits::dataframe;
    ProbePool pool;
    constexpr int kReps = 3;
    auto mrows = [](int64_t rows, double s) { return rows / 1e6 / s; };
    df::MergeOptions on;
    on.on = {"customer_id"};
    (*layer)["dataframe.merge_mrows_per_s"] =
        mrows(transactions_.num_rows(), MedianSeconds(kReps, [&] {
                (void)df::Merge(transactions_, customers_, on);
              }));
    (*layer)["dataframe.groupby_mrows_per_s"] =
        mrows(plasticc_.num_rows(), MedianSeconds(kReps, [&] {
                (void)df::GroupByAgg(plasticc_, {"object_id"},
                                     {{"flux", AggFunc::kMean, "flux_mean"},
                                      {"flux", AggFunc::kMax, "flux_max"},
                                      {"", AggFunc::kSize, "n_obs"}});
              }));
    (*layer)["dataframe.sort_mrows_per_s"] =
        mrows(census_.num_rows(), MedianSeconds(kReps, [&] {
                (void)df::SortValues(census_, {"workclass", "age"});
              }));
    const df::Column& age = *census_.GetColumn("age").ValueOrDie();
    std::vector<uint8_t> mask(census_.num_rows());
    for (int64_t i = 0; i < census_.num_rows(); ++i) {
      mask[i] = age.IsValid(i) && age.int64_data()[i] >= 18;
    }
    const df::Column mask_col = df::Column::Bool(std::move(mask));
    (*layer)["dataframe.filter_mrows_per_s"] =
        mrows(census_.num_rows(), MedianSeconds(kReps, [&] {
                (void)df::Filter(census_, mask_col);
              }));
    const NDArray block = qr_x_.SliceRows(0, kQrProbeRows);
    (*layer)["tensor.qr_s"] = MedianSeconds(kReps, [&] {
      NDArray q, r;
      (void)xorbits::tensor::QRDecompose(block, &q, &r);
    });
    const NDArray xt = xorbits::tensor::Transpose(lr_x_).ValueOrDie();
    const double gram_s = MedianSeconds(
        kReps, [&] { (void)xorbits::tensor::MatMul(xt, lr_x_); });
    (*layer)["tensor.matmul_gflops"] =
        2.0 * kLrRows * kLrFeatures * kLrFeatures / gram_s / 1e9;
  }

 private:
  xorbits::Config RunConfig() const {
    return EngineConfig(kBandMb, kChunkKb, opts_.workdir + "/spill");
  }

  std::vector<QuerySpec> Queries() const {
    auto spec = [this](const char* name, auto build,
                       TensorCheck check = TensorCheck::kPlain) {
      QuerySpec q;
      q.name = name;
      q.config = RunConfig();
      q.build = [this, build](Session* s) { return (this->*build)(s); };
      q.check = check;
      return q;
    };
    return {spec("uc10", &Pipelines::Uc10),
            spec("census", &Pipelines::Census),
            spec("plasticc", &Pipelines::Plasticc),
            spec("qr", &Pipelines::Qr, TensorCheck::kRFactor),
            spec("linreg", &Pipelines::LinReg)};
  }

  // TPCx-AI UC10: drop micro transactions, join customer attributes (the
  // skewed merge), risk-weight amounts, per-customer fraud features.
  Result<Handle> Uc10(Session* s) const {
    AR(DataFrameRef customers, xorbits::FromPandas(s, customers_));
    AR(DataFrameRef trans, xorbits::FromPandas(s, transactions_));
    AR(trans, trans.Filter(CompareExpr(Col("amount"), CmpOp::kGt, Lit(10.0))));
    xorbits::dataframe::MergeOptions on;
    on.on = {"customer_id"};
    AR(DataFrameRef joined, trans.Merge(customers, on));
    AR(joined, joined.Assign("weighted", BinaryExpr(Col("amount"), BinOp::kMul,
                                                    Col("risk_score"))));
    Handle h;
    AR(h.df, joined.GroupByAgg({"customer_id"},
                               {{"amount", AggFunc::kSum, "total_amount"},
                                {"amount", AggFunc::kMean, "avg_amount"},
                                {"weighted", AggFunc::kSum, "risk_weighted"},
                                {"", AggFunc::kSize, "tx_count"}}));
    return h;
  }

  // Census: drop rows missing age, derive features, keep working ages,
  // aggregate by demographic group.
  Result<Handle> Census(Session* s) const {
    AR(DataFrameRef d, xorbits::FromPandas(s, census_));
    AR(d, d.Filter(xorbits::operators::NotNullExpr(Col("age"))));
    AR(d, d.WithColumns(
              {{"gain_filled",
                BinaryExpr(Col("capital_gain"), BinOp::kMul, Lit(1.0))},
               {"overtime", BinaryExpr(Col("hours_per_week"), BinOp::kSub,
                                       Lit(int64_t{40}))}}));
    AR(d, d.Filter(AndExpr(
              CompareExpr(Col("age"), CmpOp::kGe, Lit(int64_t{18})),
              CompareExpr(Col("age"), CmpOp::kLe, Lit(int64_t{65})))));
    AR(DataFrameRef g,
       d.GroupByAgg({"workclass", "marital_status"},
                    {{"age", AggFunc::kMean, "avg_age"},
                     {"education_num", AggFunc::kMean, "avg_edu"},
                     {"hours_per_week", AggFunc::kMean, "avg_hours"},
                     {"capital_gain", AggFunc::kSum, "total_gain"},
                     {"", AggFunc::kSize, "n"}}));
    Handle h;
    AR(h.df, g.SortValues({"workclass", "marital_status"}));
    return h;
  }

  // PLAsTiCC: signal-to-noise filter and per-object light-curve stats.
  Result<Handle> Plasticc(Session* s) const {
    AR(DataFrameRef d, xorbits::FromPandas(s, plasticc_));
    AR(d, d.Assign("snr",
                   BinaryExpr(Col("flux"), BinOp::kDiv, Col("flux_err"))));
    AR(d, d.Filter(CompareExpr(Col("snr"), CmpOp::kGt, Lit(-5.0))));
    AR(DataFrameRef f, d.GroupByAgg({"object_id"},
                                    {{"flux", AggFunc::kMean, "flux_mean"},
                                     {"flux", AggFunc::kStd, "flux_std"},
                                     {"flux", AggFunc::kMin, "flux_min"},
                                     {"flux", AggFunc::kMax, "flux_max"},
                                     {"snr", AggFunc::kMean, "snr_mean"},
                                     {"mjd", AggFunc::kMax, "mjd_max"},
                                     {"mjd", AggFunc::kMin, "mjd_min"},
                                     {"", AggFunc::kSize, "n_obs"}}));
    Handle h;
    AR(h.df, f.Assign("duration", BinaryExpr(Col("mjd_max"), BinOp::kSub,
                                             Col("mjd_min"))));
    return h;
  }

  // Fig. 8(c): tall-skinny QR, R factor fetched.
  Result<Handle> Qr(Session* s) const {
    AR(TensorRef a, xorbits::FromNumpy(s, qr_x_));
    AR(auto qr, a.QR());
    Handle h;
    h.tensor = qr.second;
    return h;
  }

  // Fig. 8(d): y = X * ones + noise, solved by distributed least squares.
  Result<Handle> LinReg(Session* s) const {
    AR(TensorRef x, xorbits::FromNumpy(s, lr_x_));
    AR(TensorRef ones,
       xorbits::FromNumpy(s, NDArray::Full({kLrFeatures, 1}, 1.0)));
    AR(TensorRef signal, x.MatMul(ones));
    AR(TensorRef noise, signal.MulScalar(0.001));
    AR(TensorRef y, signal.Add(noise));
    Handle h;
    AR(h.tensor, xorbits::Lstsq(x, y));
    return h;
  }

  Options opts_;
  DataFrame customers_, transactions_, census_, plasticc_;
  NDArray qr_x_, lr_x_;
  std::vector<Output> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakePipelines(const Options& opts) {
  return std::make_unique<Pipelines>(opts);
}

}  // namespace wallbench
