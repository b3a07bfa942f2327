#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <cstdlib>

// Portable SIMD wrapper for the DP kernels (distance/dp.h): one
// double-precision vector type behind AVX2 (4 lanes), NEON (2 lanes) or a
// scalar fallback (1 lane), selected at compile time from the target ISA.
// A process-wide runtime switch (env TRAJSEARCH_SIMD=0, a CPUID probe, or
// simd::SetEnabled for tests/benchmarks) lets every build fall back to the
// scalar identity oracle without recompiling; query plans capture the switch
// at Bind time, so dispatch is per plan bind, never per candidate.
//
// Two vectorization axes share this wrapper:
//  - the column kernel puts one lane group of *query* indices in a vector:
//    profitable where the recurrence's serial left-chain can be split out,
//    which only the WED stepper allows (DTW/Fréchet measured a wash and
//    have no column kernel);
//  - batch kernels put independent *sweeps or candidates* in the lanes
//    (multi-sweep ExactS, lane-parallel CMA): each lane runs its own serial
//    dependency chain, so even DTW/Fréchet's left chain vectorizes. Lanes
//    are masked individually — a lane whose sweep ends or whose per-lane
//    lower bound crosses the shared cutoff is retired (and, where the
//    recurrence permits, refilled from the pending work queue) without
//    disturbing its neighbours. Batch scratch is lane-interleaved
//    (cell [x] of lane l at x*kLanes + l) so steppers load whole lane
//    groups without gathers.
//
// Outside the DP, the KPF bound (prune/key_point_filter.cc) is a plain
// min-scan: it puts consecutive *data points* in the lanes, read straight
// from the AoS pool with the deinterleaving LoadXY. Its data may hold NaN,
// and Min orders NaN differently per ISA (AVX2 returns the second operand,
// NEON returns NaN), so the scan checks its lanes for NaN itself.
//
// LoadXY's lane order depends on the ISA: AVX2 yields points 0 2 1 3, NEON
// points 0 1, the scalar build point 0. x and y always share the order, so
// a lanewise point kernel is right, but lane l is not point l. Use it only
// where the result does not depend on which lane holds which point — an
// order-free reduction like the KPF min-scan. Never Store its lanes as
// per-point results (e.g. out[j..j+kLanes) for points j..j+kLanes); kernels
// that need point j in lane j - j0 copy the points into columns first
// (CopyCols in distance/dp.h) and Load those.
//
// Dispatch is one switch: when Enabled(), every stepper with a vector
// kernel (the WED column stepper and all batch kernels) and the KPF scan
// use it.
//
// Bit-identity contract: every lane operation here is a single correctly
// rounded IEEE-754 double operation (add/sub/mul/sqrt/min/max/compare), so a
// vectorized kernel that performs the same per-cell operations as its scalar
// loop produces bit-identical results. Two ambient hazards are handled
// elsewhere: the build compiles with -ffp-contract=off so scalar expressions
// never fuse into FMAs the vector kernels don't use (CMakeLists.txt), and
// the DP cells never hold NaN or -0.0 (costs are non-negative and infinity
// is the finite sentinel kDpInfinity), so min/max tie-breaking between the
// scalar and vector instructions cannot produce different bit patterns.
//
// Configure with -DTRAJSEARCH_SIMD=OFF (defines TRAJSEARCH_SIMD_DISABLED) to
// force the 1-lane scalar type at compile time; the full test suite runs in
// that mode in CI.

#if !defined(TRAJSEARCH_SIMD_DISABLED) && defined(__AVX2__)
#define TRAJSEARCH_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(TRAJSEARCH_SIMD_DISABLED) && defined(__aarch64__)
#define TRAJSEARCH_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace trajsearch::simd {

#if defined(TRAJSEARCH_SIMD_AVX2)

/// Lanes per VecD in this build.
inline constexpr int kLanes = 4;
inline constexpr const char* kIsaName = "avx2";

/// \brief 4-lane double vector (AVX2).
struct VecD {
  __m256d v;

  static VecD Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static VecD Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }

  friend VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }

  static VecD Min(VecD a, VecD b) { return {_mm256_min_pd(a.v, b.v)}; }
  static VecD Max(VecD a, VecD b) { return {_mm256_max_pd(a.v, b.v)}; }
  static VecD Sqrt(VecD a) { return {_mm256_sqrt_pd(a.v)}; }

  /// Lanewise a <= b ? x : y.
  static VecD SelectLE(VecD a, VecD b, VecD x, VecD y) {
    const __m256d mask = _mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ);
    return {_mm256_blendv_pd(y.v, x.v, mask)};
  }

  /// Lanewise a < b ? x : y (strict — mirrors the scalar kernels'
  /// `if (cand < best)` tie-breaking when selecting companion values such as
  /// CMA start pointers).
  static VecD SelectLT(VecD a, VecD b, VecD x, VecD y) {
    const __m256d mask = _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ);
    return {_mm256_blendv_pd(y.v, x.v, mask)};
  }

  /// Deinterleaving load of kLanes AoS (x, y) pairs starting at `p`: two
  /// unaligned loads and one unpack each. The lanes come out in the order
  /// 0, 2, 1, 3 — the same order in `x` and `y`, which is all a lanewise
  /// point kernel followed by a cross-lane min needs (see the lane-order
  /// note at the top of this file).
  static void LoadXY(const double* p, VecD* x, VecD* y) {
    const __m256d a = _mm256_loadu_pd(p);      // x0 y0 x1 y1
    const __m256d b = _mm256_loadu_pd(p + 4);  // x2 y2 x3 y3
    x->v = _mm256_unpacklo_pd(a, b);           // x0 x2 x1 x3
    y->v = _mm256_unpackhi_pd(a, b);           // y0 y2 y1 y3
  }
};

#elif defined(TRAJSEARCH_SIMD_NEON)

inline constexpr int kLanes = 2;
inline constexpr const char* kIsaName = "neon";

/// \brief 2-lane double vector (AArch64 NEON).
struct VecD {
  float64x2_t v;

  static VecD Load(const double* p) { return {vld1q_f64(p)}; }
  static VecD Broadcast(double x) { return {vdupq_n_f64(x)}; }
  void Store(double* p) const { vst1q_f64(p, v); }

  friend VecD operator+(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {vsubq_f64(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }

  static VecD Min(VecD a, VecD b) { return {vminq_f64(a.v, b.v)}; }
  static VecD Max(VecD a, VecD b) { return {vmaxq_f64(a.v, b.v)}; }
  static VecD Sqrt(VecD a) { return {vsqrtq_f64(a.v)}; }

  static VecD SelectLE(VecD a, VecD b, VecD x, VecD y) {
    const uint64x2_t mask = vcleq_f64(a.v, b.v);
    return {vbslq_f64(mask, x.v, y.v)};
  }

  static VecD SelectLT(VecD a, VecD b, VecD x, VecD y) {
    const uint64x2_t mask = vcltq_f64(a.v, b.v);
    return {vbslq_f64(mask, x.v, y.v)};
  }

  /// Deinterleaving load of kLanes AoS (x, y) pairs starting at `p`, in
  /// point order 0, 1 (unlike AVX2; see the lane-order note at the top).
  static void LoadXY(const double* p, VecD* x, VecD* y) {
    const float64x2x2_t xy = vld2q_f64(p);
    x->v = xy.val[0];
    y->v = xy.val[1];
  }
};

#else

inline constexpr int kLanes = 1;
inline constexpr const char* kIsaName = "scalar";

/// \brief 1-lane fallback so vectorized code compiles (and is never
/// dispatched to: Enabled() is constant false in this build).
struct VecD {
  double v;

  static VecD Load(const double* p) { return {*p}; }
  static VecD Broadcast(double x) { return {x}; }
  void Store(double* p) const { *p = v; }

  friend VecD operator+(VecD a, VecD b) { return {a.v + b.v}; }
  friend VecD operator-(VecD a, VecD b) { return {a.v - b.v}; }
  friend VecD operator*(VecD a, VecD b) { return {a.v * b.v}; }

  static VecD Min(VecD a, VecD b) { return {a.v < b.v ? a.v : b.v}; }
  static VecD Max(VecD a, VecD b) { return {a.v > b.v ? a.v : b.v}; }
  static VecD Sqrt(VecD a) { return {__builtin_sqrt(a.v)}; }

  static VecD SelectLE(VecD a, VecD b, VecD x, VecD y) {
    return {a.v <= b.v ? x.v : y.v};
  }

  static VecD SelectLT(VecD a, VecD b, VecD x, VecD y) {
    return {a.v < b.v ? x.v : y.v};
  }

  static void LoadXY(const double* p, VecD* x, VecD* y) {
    x->v = p[0];
    y->v = p[1];
  }
};

#endif

namespace detail {

/// True if the host CPU can execute this build's vector ISA.
inline bool HardwareSupported() {
#if defined(TRAJSEARCH_SIMD_AVX2)
  return __builtin_cpu_supports("avx2");
#elif defined(TRAJSEARCH_SIMD_NEON)
  return true;  // NEON is baseline on AArch64
#else
  return false;
#endif
}

/// Dispatch mode: -1 = not probed yet, 0 = off (scalar everywhere),
/// 1 = on (every stepper with a vector kernel uses it).
inline std::atomic<int>& ModeFlag() {
  static std::atomic<int> flag{-1};
  return flag;
}

inline int Probe() {
  const char* env = std::getenv("TRAJSEARCH_SIMD");
  if (env != nullptr && env[0] == '0' && env[1] == '\0') return 0;
  return HardwareSupported() ? 1 : 0;
}

inline int Mode() {
  if constexpr (kLanes == 1) return 0;
  // relaxed (load + store): the flag is an idempotent memo of Probe() — two
  // racing first callers compute the same value, and no other memory is
  // published through it (plans sample it once per Bind).
  int v = ModeFlag().load(std::memory_order_relaxed);
  if (v < 0) {
    v = Probe();
    ModeFlag().store(v, std::memory_order_relaxed);
  }
  return v;
}

/// Runtime clamp on how many lanes the *batch* kernels occupy: -1 = not
/// probed, else 1..kLanes. Clamping below kLanes leaves the high lanes
/// permanently masked, so a 4-lane AVX2 build can exercise exactly the
/// masking/refill paths a 2-lane NEON build takes (CI runs the suite with
/// TRAJSEARCH_SIMD_LANES=2 for that reason). The column kernel is
/// unaffected — it has no per-lane state to mask.
inline std::atomic<int>& LaneClampFlag() {
  static std::atomic<int> flag{-1};
  return flag;
}

inline int ProbeLaneClamp() {
  const char* env = std::getenv("TRAJSEARCH_SIMD_LANES");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v >= 1 && v <= kLanes) return v;
  }
  return kLanes;
}

}  // namespace detail

/// Whether the vector kernels run. Lazily probes the CPU and the
/// TRAJSEARCH_SIMD env kill switch on first use; relaxed atomic thereafter.
/// Plans sample this once per Bind, so flipping it mid-query has no effect
/// on an already-bound plan.
inline bool Enabled() { return detail::Mode() > 0; }

/// Runtime switch for tests/benchmarks A/B-ing the two dispatch paths:
/// SetEnabled(true) selects the same dispatch the startup probe picks on
/// capable hardware (clamped to what the hardware supports, so it is a
/// no-op in scalar builds); SetEnabled(false) selects the scalar oracle
/// everywhere.
inline void SetEnabled(bool on) {
  // relaxed: an independent mode flag with no associated payload; readers
  // (Mode) accept any recent value by contract — mid-query flips are
  // documented to leave already-bound plans untouched.
  detail::ModeFlag().store(on && detail::HardwareSupported() ? 1 : 0,
                           std::memory_order_relaxed);
}

/// Name of the ISA the vector kernels target in this build ("avx2", "neon"
/// or "scalar"); logged by benches/CI so runner differences are diagnosable.
inline const char* IsaName() { return kIsaName; }

/// Lanes per vector (1 in scalar builds).
inline int Width() { return kLanes; }

/// How many lanes the batch kernels (multi-sweep ExactS, lane-parallel CMA)
/// fill with live work: kLanes unless clamped by the TRAJSEARCH_SIMD_LANES
/// env var or SetBatchLanes. Vectors stay kLanes wide; lanes at or above
/// this count are permanently masked. Sampled at plan Bind, like Enabled().
inline int BatchLanes() {
  // relaxed (load + store): same idempotent-memo argument as Mode() — the
  // env probe is deterministic, so racing initializers agree.
  int v = detail::LaneClampFlag().load(std::memory_order_relaxed);
  if (v < 0) {
    v = detail::ProbeLaneClamp();
    detail::LaneClampFlag().store(v, std::memory_order_relaxed);
  }
  return v;
}

/// Clamps (or restores, with kLanes) the batch-kernel lane count at runtime;
/// tests use width 2 on AVX2 to cover NEON-shaped masking, and width 1 to
/// prove the batch kernels degenerate to the scalar schedule bit for bit.
/// Values outside [1, kLanes] are clamped.
inline void SetBatchLanes(int lanes) {
  if (lanes < 1) lanes = 1;
  if (lanes > kLanes) lanes = kLanes;
  // relaxed: see SetEnabled — a mode flag sampled at plan Bind, not a
  // publication of other memory.
  detail::LaneClampFlag().store(lanes, std::memory_order_relaxed);
}

/// \brief DP cells processed by the two dispatch paths, accumulated by the
/// column/batch steppers (plain members, no atomics) and drained per query
/// through QueryRun::TakeSimdStats into the engine.<Algorithm>.simd.*
/// counters. vector_cells counts cells whose kernel ran in a vector lane
/// group (batch kernels count per *live* lane, so the sum stays
/// dispatch-invariant); scalar_cells counts tail lanes plus everything a
/// scalar-dispatched stepper does. lane_abandons counts lanes of a batch
/// kernel retired early by the cutoff (per-lane SweepLowerBound crossings;
/// for CMA the row floor plus suffix floor, search/cma.h) — always 0 under
/// scalar dispatch, where the same abandons surface as shorter sweeps
/// instead. lane_refills counts CMA lanes restarted with the next candidate
/// of the window after their candidate completed or abandoned.
struct CellCounts {
  uint64_t vector_cells = 0;
  uint64_t scalar_cells = 0;
  uint64_t lane_abandons = 0;
  uint64_t lane_refills = 0;

  CellCounts& operator+=(const CellCounts& o) {
    vector_cells += o.vector_cells;
    scalar_cells += o.scalar_cells;
    lane_abandons += o.lane_abandons;
    lane_refills += o.lane_refills;
    return *this;
  }
};

/// \brief Concept a cost/substitution object models to be eligible for the
/// vectorized WED column sweep: a lane-group substitution kernel over query
/// coordinate columns, plus a readiness check (columns bound).
template <typename C>
concept VectorizedCosts = requires(const C& c, int x, int j) {
  { c.SubLane(x, j) } -> std::same_as<VecD>;
  { c.cols_ready() } -> std::same_as<bool>;
};

/// \brief Concept a cost/substitution object models to be eligible for the
/// batch kernels (multi-sweep ExactS, lane-parallel CMA): a substitution
/// kernel taking one *query* index against a lane group of staged *data*
/// coordinates — the transpose of SubLane's access pattern. Needs only the
/// bound query view (coordinates are broadcast per index), so it is ready as
/// soon as the costs are bound; opaque cost models (CustomWedCosts) lack it
/// and keep the scalar kernels.
template <typename C>
concept BatchCosts = requires(const C& c, int i, VecD dx, VecD dy) {
  { c.SubData(i, dx, dy) } -> std::same_as<VecD>;
};

}  // namespace trajsearch::simd
