#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Layers a span can be attributed to. Named after the modules in src/; the
/// benchmark records spans around its own calls into each layer's public
/// functions (nothing inside the library is instrumented for this).
enum class Layer : int {
  kOperation,       // root: one timed Submit/SubmitBatch call
  kReplay,          // root: one query replayed layer by layer
  kGridBuild,       // GridIndex(view, cell)
  kGbp,             // GridIndex::OrderedCandidates
  kKpf,             // KpfBoundPlan::Bind / LowerBound
  kDp,              // QueryRun::Bind / RunCols / RunBatch
  kDeltaGridBuild,  // DeltaGridIndex::Add over one generation's delta
  kDeltaQuery,      // DeltaEngine::QueryInto
  kAppend,          // QueryService::AppendBatch
  kCount,
};

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief In-memory span recorder for one single-threaded client.
///
/// Every span carries the operation id it belongs to and the index of its
/// parent span (-1 for roots), so self time is a span's duration minus what
/// its children cover. Spans nest strictly (one thread, scoped), so the
/// children of a span never overlap each other.
class Tracer {
 public:
  struct Span {
    int64_t op = 0;
    Layer layer = Layer::kOperation;
    int32_t parent = -1;
    int64_t start = 0;
    int64_t end = 0;
  };

  /// Opens a span under the innermost open span; returns its index.
  int32_t Begin(int64_t op, Layer layer) {
    spans_.push_back(Span{op, layer, open_, NowNanos(), 0});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void End(int32_t index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end = NowNanos();
    open_ = span.parent;
  }

  /// Self seconds per layer, summed over spans whose root has layer
  /// `root_layer`.
  std::array<double, static_cast<size_t>(Layer::kCount)> SelfSeconds(
      Layer root_layer) const {
    std::vector<int64_t> child_nanos(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_nanos[static_cast<size_t>(span.parent)] += span.end - span.start;
      }
    }
    std::array<double, static_cast<size_t>(Layer::kCount)> self{};
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[Root(i)].layer != root_layer) continue;
      const Span& span = spans_[i];
      self[static_cast<size_t>(span.layer)] +=
          static_cast<double>(span.end - span.start - child_nanos[i]) * 1e-9;
    }
    return self;
  }

  /// Total seconds of root spans with layer `layer`, and how many there are.
  double RootSeconds(Layer layer, int* count) const {
    double total = 0;
    *count = 0;
    for (const Span& span : spans_) {
      if (span.parent < 0 && span.layer == layer) {
        total += static_cast<double>(span.end - span.start) * 1e-9;
        ++*count;
      }
    }
    return total;
  }

 private:
  size_t Root(size_t index) const {
    while (spans_[index].parent >= 0) {
      index = static_cast<size_t>(spans_[index].parent);
    }
    return index;
  }

  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// Scoped span; a null tracer records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int64_t op, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->Begin(op, layer);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_ = -1;
};

}  // namespace perfbench
