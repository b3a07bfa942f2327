#include "search/exacts.h"

#include <cmath>
#include <optional>
#include <type_traits>
#include <vector>

#include "util/check.h"
#include "util/simd.h"

namespace trajsearch {

SearchResult ExactSSearch(const DistanceSpec& spec, TrajectoryView query,
                          TrajectoryView data) {
  const int n = static_cast<int>(data.size());
  return VisitColumnDp(spec, query, data,
                       [n](auto& dp) { return ExactSWithDp(dp, n); });
}

namespace {

/// ExactS plan for WED-family costs: the stepper (holding the query-sized
/// column and deletion-prefix table) is built once per Bind; each Run only
/// repoints the plan-owned cost object at the candidate trajectory. Vector
/// dispatch runs the batch stepper (one start position per lane); the
/// column stepper is the scalar path, when dispatch is off or the batch
/// width is clamped to one lane.
template <typename Costs>
class ExactSWedPlan final : public QueryRun {
 public:
  explicit ExactSWedPlan(Costs prototype) : costs_(prototype) {}

  void Bind(TrajectoryView query) override {
    TRAJ_CHECK(!query.empty());
    costs_.q = query;
    costs_.d = TrajectoryView();
    arena_.Rewind();
    if constexpr (kHasInsCache) {
      ins_store_ = arena_.Doubles();
      dx_ = arena_.Doubles();
      dy_ = arena_.Doubles();
      costs_.ins_cache = nullptr;
    }
    dp_.emplace(static_cast<int>(query.size()), costs_, &arena_);
    // Multi-sweep batching (one start position per lane). Dispatch is
    // captured here, like the stepper's: auto mode is enough — the lanes
    // hold independent sweeps, so there is no serial chain to wash the
    // speedup out. CustomWedCosts lacks SubData and stays scalar.
    if constexpr (kBatchable) {
      batch_.reset();
      lanes_ = simd::Enabled() ? simd::BatchLanes() : 1;
      if (lanes_ > 1) {
        batch_.emplace(static_cast<int>(query.size()), costs_, &arena_);
      }
    }
  }

  SearchResult Run(TrajectoryView data, double cutoff) override {
    costs_.d = data;
    // ERP's Ins(j) is a gap distance recomputed for every one of ExactS's n
    // start sweeps; under batch dispatch it is precomputed once per
    // candidate instead. Values are identical either way (same per-element
    // IEEE ops), so this stays inside the bit-identity gate; the scalar
    // dispatch path remains the untouched oracle.
    if constexpr (kHasInsCache) {
      if (BatchActive()) {
        FillInsCache(data);
        costs_.ins_cache = ins_store_->data();
        const SearchResult result =
            Sweep(static_cast<int>(data.size()), cutoff);
        costs_.ins_cache = nullptr;
        return result;
      }
    }
    return Sweep(static_cast<int>(data.size()), cutoff);
  }

  simd::CellCounts TakeSimdStats() override {
    simd::CellCounts counts =
        dp_.has_value() ? dp_->TakeCellCounts() : simd::CellCounts{};
    if constexpr (kBatchable) {
      if (batch_.has_value()) counts += batch_->TakeCellCounts();
    }
    return counts;
  }

  std::string_view name() const override { return "ExactS"; }

 private:
  static constexpr bool kHasInsCache = requires(Costs c) { c.ins_cache; };
  static constexpr bool kBatchable = simd::BatchCosts<Costs>;

  bool BatchActive() const {
    if constexpr (kBatchable) return batch_.has_value();
    return false;
  }

  SearchResult Sweep(int n, double cutoff) {
    if constexpr (kBatchable) {
      if (batch_.has_value()) {
        return ExactSBatchWithDp(
            *batch_, n, cutoff, lanes_,
            [this](int l, int j, double* sx, double* sy, double* ins) {
              const Point p = costs_.d[static_cast<size_t>(j)];
              sx[l] = p.x;
              sy[l] = p.y;
              ins[l] = costs_.Ins(j);
            });
      }
    }
    return ExactSWithDp(*dp_, n, cutoff);
  }

  /// Copies the candidate into column scratch (O(n) against the sweeps'
  /// O(mn^2)) and computes every gap distance from it, one lane group at a
  /// time.
  void FillInsCache(TrajectoryView data)
    requires(kHasInsCache)
  {
    const PointCols cols = CopyCols(data, dx_, dy_);
    const int n = static_cast<int>(data.size());
    ins_store_->resize(static_cast<size_t>(n));
    double* out = ins_store_->data();
    const simd::VecD gx = simd::VecD::Broadcast(costs_.gap.x);
    const simd::VecD gy = simd::VecD::Broadcast(costs_.gap.y);
    const int vec_end = n - n % simd::kLanes;
    for (int j = 0; j < vec_end; j += simd::kLanes) {
      const simd::VecD dx = simd::VecD::Load(cols.x + j) - gx;
      const simd::VecD dy = simd::VecD::Load(cols.y + j) - gy;
      simd::VecD::Sqrt(dx * dx + dy * dy).Store(out + j);
    }
    for (int j = vec_end; j < n; ++j) {
      const double dx = cols.x[j] - costs_.gap.x;
      const double dy = cols.y[j] - costs_.gap.y;
      out[j] = std::sqrt(dx * dx + dy * dy);
    }
  }

  struct NoBatch {};
  Costs costs_;
  DpArena arena_;
  std::vector<double>* ins_store_ = nullptr;
  std::vector<double>* dx_ = nullptr;  // candidate columns for the cache
  std::vector<double>* dy_ = nullptr;
  std::optional<WedColumnDp<Costs>> dp_;
  std::optional<std::conditional_t<kBatchable, WedBatchDp<Costs>, NoBatch>>
      batch_;
  int lanes_ = 1;
};

/// ExactS plan for the substitution-only distances (DTW / Fréchet). The
/// stepper sees the plan-owned EuclideanSub through a SubRef, so rebinding
/// the views reaches an already-built stepper.
///
/// Vector dispatch goes to the *batch* stepper (one start position per
/// lane): independent sweeps have no cross-lane dependency, so the serial
/// left chain that makes a column split of DTW/Fréchet a wash vectorizes
/// here. The scalar column stepper runs when dispatch is off or the batch
/// width is clamped to one lane.
template <SubCombine kCombine>
class ExactSSubPlan final : public QueryRun {
 public:
  void Bind(TrajectoryView query) override {
    TRAJ_CHECK(!query.empty());
    sub_.q = query;
    sub_.d = TrajectoryView();
    arena_.Rewind();
    dp_.emplace(static_cast<int>(query.size()), SubRef<EuclideanSub>{&sub_},
                &arena_);
    batch_.reset();
    lanes_ = simd::Enabled() ? simd::BatchLanes() : 1;
    if (lanes_ > 1) {
      batch_.emplace(static_cast<int>(query.size()),
                     SubRef<EuclideanSub>{&sub_}, &arena_);
    }
  }

  SearchResult Run(TrajectoryView data, double cutoff) override {
    sub_.d = data;
    const int n = static_cast<int>(data.size());
    if (batch_.has_value()) {
      return ExactSBatchWithDp(
          *batch_, n, cutoff, lanes_,
          [this](int l, int j, double* sx, double* sy, double* /*ins*/) {
            const Point p = sub_.d[static_cast<size_t>(j)];
            sx[l] = p.x;
            sy[l] = p.y;
          });
    }
    return ExactSWithDp(*dp_, n, cutoff);
  }

  simd::CellCounts TakeSimdStats() override {
    simd::CellCounts counts =
        dp_.has_value() ? dp_->TakeCellCounts() : simd::CellCounts{};
    if (batch_.has_value()) counts += batch_->TakeCellCounts();
    return counts;
  }

  std::string_view name() const override { return "ExactS"; }

 private:
  EuclideanSub sub_;
  DpArena arena_;
  std::optional<SubOnlyColumnDp<SubRef<EuclideanSub>, kCombine>> dp_;
  std::optional<SubOnlyBatchDp<SubRef<EuclideanSub>, kCombine>> batch_;
  int lanes_ = 1;
};

}  // namespace

std::unique_ptr<QueryRun> MakeExactSRun(const DistanceSpec& spec) {
  switch (spec.kind) {
    case DistanceKind::kDtw:
    case DistanceKind::kFrechet:
      return VisitSubCombine(
          spec.kind, [](auto combine) -> std::unique_ptr<QueryRun> {
            return std::make_unique<
                ExactSSubPlan<decltype(combine)::value>>();
          });
    case DistanceKind::kEdr:
      return std::make_unique<ExactSWedPlan<EdrCosts>>(
          EdrCosts{{}, {}, spec.edr_epsilon});
    case DistanceKind::kErp:
      return std::make_unique<ExactSWedPlan<ErpCosts>>(
          ErpCosts{{}, {}, spec.erp_gap});
    case DistanceKind::kWed:
      TRAJ_CHECK(spec.wed != nullptr);
      return std::make_unique<ExactSWedPlan<CustomWedCosts>>(
          CustomWedCosts{{}, {}, spec.wed});
  }
  TRAJ_CHECK(false && "unknown distance kind");
  return nullptr;
}

}  // namespace trajsearch
