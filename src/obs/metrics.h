// Process-wide metrics registry (the "M" of src/obs/): counters, gauges,
// and fixed-bucket histograms exported in Prometheus text exposition format
// by `xcvd` (`GET /v1/metrics`) and `xcv info --metrics`.
//
// Cost model mirrors src/support/fault.h: every instrument mutation starts
// with ONE relaxed atomic load of the global enable flag, and when metrics
// are disabled that load is the entire cost — nothing measurable inside
// solver kernels, and the perf-smoke floors hold with the layer compiled
// in. When enabled, a counter increment is a single relaxed fetch_add.
//
// Instruments are process-global and never destroyed (the registry hands
// out stable references); call sites cache them in function-local statics
// so the name lookup happens once per site:
//
//   static obs::Counter& hits = obs::Registry::Global().GetCounter(
//       "xcv_cache_lookups_total", "Cache lookups by outcome.",
//       {"outcome"}, {"hit"});
//   hits.Inc();
//
// Observability is strictly observational: nothing in this layer feeds
// back into verdicts, reports, or checkpoints, which stay byte-identical
// with metrics on, off, or exported mid-run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xcv::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

/// One relaxed load — the disarmed fast path, same shape as fault::Armed().
inline bool MetricsEnabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled);

/// Honors XCV_NO_METRICS=1 (any non-empty value other than "0"). Called by
/// both app mains; safe to call repeatedly.
void InitMetricsFromEnv();

/// Monotonically increasing value. Backed by an atomic double so integer
/// counts and accumulated seconds share one instrument type; integral
/// values render without a decimal point (exact up to 2^53, far beyond any
/// realistic count).
class Counter {
 public:
  void Inc() { Add(1.0); }
  void Add(double v) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins instantaneous value (queue depth, cache entries).
class Gauge {
 public:
  void Set(double v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(double v) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-upper-bound histogram. Bucket bounds are set at creation and
/// immutable; Observe() does one linear scan over a handful of bounds plus
/// two relaxed fetch_adds (bucket + sum). Cumulative `le` counts are
/// computed at render time, so the hot path touches exactly one bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket (non-cumulative) counts; index upper_bounds_.size() is the
  /// +Inf overflow bucket.
  std::uint64_t BucketCount(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t TotalCount() const;
  double Sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> upper_bounds_;  // sorted ascending
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds + inf
  std::atomic<double> sum_{0.0};
};

/// Default latency buckets (seconds): 100µs .. ~100s, roughly 1-2-5.
const std::vector<double>& DefaultSecondsBuckets();

enum class MetricType { kCounter, kGauge, kHistogram };

/// The process-wide instrument registry. Families are keyed by metric
/// name; series within a family by label values. Getters create on first
/// use and return a reference that stays valid for the process lifetime.
/// A family's help/label-names are fixed by its first getter call;
/// mismatched re-registration (same name, different type or label names)
/// throws — it would render invalid exposition text.
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(const std::string& name, const std::string& help,
                      const std::vector<std::string>& label_names = {},
                      const std::vector<std::string>& label_values = {});
  Gauge& GetGauge(const std::string& name, const std::string& help,
                  const std::vector<std::string>& label_names = {},
                  const std::vector<std::string>& label_values = {});
  Histogram& GetHistogram(const std::string& name, const std::string& help,
                          const std::vector<double>& upper_bounds,
                          const std::vector<std::string>& label_names = {},
                          const std::vector<std::string>& label_values = {});
  /// Creates the family with no series, so the exposition names it (HELP
  /// and TYPE lines) before its first labelled series exists.
  void Declare(const std::string& name, const std::string& help,
               MetricType type, const std::vector<std::string>& label_names);

  /// Prometheus text exposition (version 0.0.4): families sorted by name,
  /// series sorted by label values, `# HELP`/`# TYPE` headers, label
  /// values escaped (backslash, double-quote, newline).
  std::string RenderPrometheus() const;

  /// Sum of a counter family across all label series (0 if absent).
  /// Healthz and tests use this to read totals without parsing text.
  double CounterTotal(const std::string& name) const;

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Family;
  Family& GetFamilyLocked(const std::string& name, const std::string& help,
                          MetricType type,
                          const std::vector<std::string>& label_names);

  mutable std::mutex mu_;
  // Pointer-stable: families and instruments are heap-allocated and never
  // removed, so references escape the lock safely.
  std::vector<std::unique_ptr<Family>> families_;
};

/// Renders a metric value the way the exposition text expects: integers
/// without a decimal point, everything else shortest-round-trip.
std::string FormatMetricValue(double v);

}  // namespace xcv::obs
