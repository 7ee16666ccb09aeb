#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "obs/metrics.h"

namespace xcvbench {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  lines.push_back("FAILED: " + what);
}

std::vector<Metric> EndToEndMetrics(double setup_s, double wall_s,
                                    double boxes_per_round, double jobs,
                                    double rounds_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"wall_s", wall_s, "s"},
      {"boxes_per_s", boxes_per_round / wall_s, "1/s"},
      {"jobs_per_s", jobs / rounds_s, "1/s"},
  };
}

bool AnotherRound(const std::vector<double>& round_seconds, double elapsed,
                  double seconds) {
  if (round_seconds.empty()) return true;
  return elapsed + Median(round_seconds) <= seconds;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> Percentile(std::vector<double> v, double q) {
  const std::size_t n = v.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0 || n - rank < 10) return std::nullopt;
  std::sort(v.begin(), v.end());
  return v[rank - 1];
}

std::string PercentileLine(const std::string& name,
                           const std::vector<double>& samples_ms, double q) {
  const std::string n = "n=" + std::to_string(samples_ms.size());
  if (const auto p = Percentile(samples_ms, q))
    return name + " = " + Fixed(*p, 3) + " ms (" + n + ")";
  return name + ": not reported (" + n +
         "; needs at least 10 samples beyond the percentile)";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CsvColumns(const std::string& csv, int ncols) {
  std::string out;
  std::istringstream in(csv);
  std::string line;
  while (std::getline(in, line)) {
    int commas = 0;
    std::size_t end = 0;
    while (end < line.size()) {
      if (line[end] == ',' && ++commas == ncols) break;
      ++end;
    }
    out.append(line, 0, end);
    out += '\n';
  }
  return out;
}

std::string Digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

Scrape Scrape::Take() {
  Scrape s;
  std::istringstream in(xcv::obs::Registry::Global().RenderPrometheus());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    s.series_[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                   nullptr);
  }
  return s;
}

double Scrape::Sum(const std::string& name) const {
  double total = 0.0;
  for (auto it = series_.lower_bound(name); it != series_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) break;
    if (key.size() == name.size() || key[name.size()] == '{')
      total += it->second;
  }
  return total;
}

double Scrape::Series(const std::string& key) const {
  const auto it = series_.find(key);
  return it == series_.end() ? 0.0 : it->second;
}

double FileMb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double FilesMb(const std::string& dir, const std::string& prefix) {
  double total = 0.0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, prefix.size(), prefix) == 0)
      total += FileMb(entry.path().string());
  }
  return total;
}

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

namespace {
std::atomic<bool> g_bench_tracing{false};
}  // namespace

bool BenchTracing() { return g_bench_tracing.load(std::memory_order_relaxed); }

void SetBenchTracing(bool on) {
  g_bench_tracing.store(on, std::memory_order_relaxed);
}

}  // namespace xcvbench
