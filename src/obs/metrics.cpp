#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>

namespace xcv::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{true};
}  // namespace detail

void SetMetricsEnabled(bool enabled) {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void InitMetricsFromEnv() {
  const char* env = std::getenv("XCV_NO_METRICS");
  if (env != nullptr && env[0] != '\0' && std::string(env) != "0")
    SetMetricsEnabled(false);
}

// ---- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  std::sort(upper_bounds_.begin(), upper_bounds_.end());
  upper_bounds_.erase(
      std::unique(upper_bounds_.begin(), upper_bounds_.end()),
      upper_bounds_.end());
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      upper_bounds_.size() + 1);
  for (std::size_t i = 0; i <= upper_bounds_.size(); ++i)
    counts_[i].store(0, std::memory_order_relaxed);
}

void Histogram::Observe(double v) {
  if (!MetricsEnabled()) return;
  std::size_t i = 0;
  while (i < upper_bounds_.size() && !(v <= upper_bounds_[i])) ++i;
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::TotalCount() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= upper_bounds_.size(); ++i)
    total += counts_[i].load(std::memory_order_relaxed);
  return total;
}

const std::vector<double>& DefaultSecondsBuckets() {
  static const std::vector<double> kBuckets = {
      0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1,
      0.5,    1.0,    5.0,   10.0,  30.0, 60.0, 120.0};
  return kBuckets;
}

// ---- Registry ---------------------------------------------------------------

namespace {

/// Escapes a label value for exposition text: backslash, double-quote,
/// and newline (HELP text needs only backslash + newline, but escaping the
/// quote there too is harmless and keeps one function).
std::string EscapeLabelValue(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

const char* TypeToken(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

/// `{a="x",b="y"}` — empty string when there are no labels. `extra` lets
/// histogram renderers append the `le` label after the family labels.
std::string LabelBlock(const std::vector<std::string>& names,
                       const std::vector<std::string>& values,
                       const std::string& extra_name = "",
                       const std::string& extra_value = "") {
  if (names.empty() && extra_name.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ",";
    out += names[i] + "=\"" + EscapeLabelValue(values[i]) + "\"";
  }
  if (!extra_name.empty()) {
    if (!names.empty()) out += ",";
    out += extra_name + "=\"" + EscapeLabelValue(extra_value) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string FormatMetricValue(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  // Shortest round-trip: try increasing precision until it parses back.
  char buf[64];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

struct Registry::Family {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<std::string> label_names;
  // Series keyed by label values; map keeps them sorted for rendering.
  // unique_ptr gives the instruments stable addresses.
  std::map<std::vector<std::string>, std::unique_ptr<Counter>> counters;
  std::map<std::vector<std::string>, std::unique_ptr<Gauge>> gauges;
  std::map<std::vector<std::string>, std::unique_ptr<Histogram>> histograms;
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry& Registry::Global() {
  // Leaked intentionally: instruments are referenced from function-local
  // statics in arbitrary TUs, so the registry must outlive every static
  // destructor.
  static Registry* g = new Registry();
  return *g;
}

Registry::Family& Registry::GetFamilyLocked(
    const std::string& name, const std::string& help, MetricType type,
    const std::vector<std::string>& label_names) {
  for (auto& f : families_) {
    if (f->name != name) continue;
    if (f->type != type || f->label_names != label_names)
      throw std::logic_error("obs: metric family '" + name +
                             "' re-registered with a different type or "
                             "label set");
    return *f;
  }
  auto f = std::make_unique<Family>();
  f->name = name;
  f->help = help;
  f->type = type;
  f->label_names = label_names;
  families_.push_back(std::move(f));
  return *families_.back();
}

Counter& Registry::GetCounter(const std::string& name,
                              const std::string& help,
                              const std::vector<std::string>& label_names,
                              const std::vector<std::string>& label_values) {
  if (label_names.size() != label_values.size())
    throw std::logic_error("obs: label name/value arity mismatch for '" +
                           name + "'");
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = GetFamilyLocked(name, help, MetricType::kCounter, label_names);
  auto& slot = f.counters[label_values];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name, const std::string& help,
                          const std::vector<std::string>& label_names,
                          const std::vector<std::string>& label_values) {
  if (label_names.size() != label_values.size())
    throw std::logic_error("obs: label name/value arity mismatch for '" +
                           name + "'");
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = GetFamilyLocked(name, help, MetricType::kGauge, label_names);
  auto& slot = f.gauges[label_values];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(
    const std::string& name, const std::string& help,
    const std::vector<double>& upper_bounds,
    const std::vector<std::string>& label_names,
    const std::vector<std::string>& label_values) {
  if (label_names.size() != label_values.size())
    throw std::logic_error("obs: label name/value arity mismatch for '" +
                           name + "'");
  std::lock_guard<std::mutex> lock(mu_);
  Family& f =
      GetFamilyLocked(name, help, MetricType::kHistogram, label_names);
  auto& slot = f.histograms[label_values];
  if (!slot) slot = std::make_unique<Histogram>(upper_bounds);
  return *slot;
}

void Registry::Declare(const std::string& name, const std::string& help,
                       MetricType type,
                       const std::vector<std::string>& label_names) {
  std::lock_guard<std::mutex> lock(mu_);
  GetFamilyLocked(name, help, type, label_names);
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Families render sorted by name regardless of registration order.
  std::vector<const Family*> ordered;
  ordered.reserve(families_.size());
  for (const auto& f : families_) ordered.push_back(f.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Family* a, const Family* b) { return a->name < b->name; });

  std::string out;
  for (const Family* f : ordered) {
    out += "# HELP " + f->name + " " + EscapeHelp(f->help) + "\n";
    out += "# TYPE " + f->name + " " + std::string(TypeToken(f->type)) + "\n";
    switch (f->type) {
      case MetricType::kCounter:
        for (const auto& [values, c] : f->counters)
          out += f->name + LabelBlock(f->label_names, values) + " " +
                 FormatMetricValue(c->Value()) + "\n";
        break;
      case MetricType::kGauge:
        for (const auto& [values, g] : f->gauges)
          out += f->name + LabelBlock(f->label_names, values) + " " +
                 FormatMetricValue(g->Value()) + "\n";
        break;
      case MetricType::kHistogram:
        for (const auto& [values, h] : f->histograms) {
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i < h->upper_bounds().size(); ++i) {
            cum += h->BucketCount(i);
            out += f->name + "_bucket" +
                   LabelBlock(f->label_names, values, "le",
                              FormatMetricValue(h->upper_bounds()[i])) +
                   " " + std::to_string(cum) + "\n";
          }
          cum += h->BucketCount(h->upper_bounds().size());
          out += f->name + "_bucket" +
                 LabelBlock(f->label_names, values, "le", "+Inf") + " " +
                 std::to_string(cum) + "\n";
          out += f->name + "_sum" + LabelBlock(f->label_names, values) + " " +
                 FormatMetricValue(h->Sum()) + "\n";
          out += f->name + "_count" + LabelBlock(f->label_names, values) +
                 " " + std::to_string(h->TotalCount()) + "\n";
        }
        break;
    }
  }
  return out;
}

double Registry::CounterTotal(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& f : families_) {
    if (f->name != name || f->type != MetricType::kCounter) continue;
    double total = 0.0;
    for (const auto& [values, c] : f->counters) total += c->Value();
    return total;
  }
  return 0.0;
}

}  // namespace xcv::obs
