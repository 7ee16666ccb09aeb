// xcvbench: the end-to-end benchmark program for xcv / xcvd.
//
//   xcvbench --workload verify_cold|verify_warm|serve_mix --seed N
//            --seconds S --trace 0|1 [--commit ID] --work-dir DIR
//
// (`xcvbench --cold-setup` is verify_cold's set-up probe: it times one cold
// spec + campaign construction and prints the seconds.)
//
// Prints a stamp line, one line per measurement (with sample counts), and
// as its last stdout line one JSON object: {"correct", "attempted",
// "failed", "metrics"} — the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. Exits non-zero, printing no result,
// when the build or the environment would distort the measurement.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"
#include "support/simd.h"
#include "workloads.h"

namespace {

using xcvbench::Metric;
using xcvbench::Outcome;
using xcvbench::RunConfig;

// Each silently changes what is measured: XCV_CACHE alone turns the cold
// job warm through api::ApplyFlags, XCV_SIMD pins a kernel tier, and the
// bench/common.h knobs retune the repository's own bench binaries.
constexpr const char* kForbiddenEnv[] = {
    "XCV_CACHE",          "XCV_TRACE",        "XCV_TRACE_CLOCK",
    "XCV_FAULTS",         "XCV_NO_METRICS",   "XCV_SIMD",
    "XCV_PAIR_SECONDS",   "XCV_SPLIT_THRESHOLD", "XCV_SOLVER_NODES",
    "XCV_WAVE_WIDTH",     "XCV_PB_GRID",      "XCV_THREADS"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "xcvbench: %s\nusage: xcvbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--commit ID]\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--cold-setup") == 0) {
    std::printf("%.17g\n", xcvbench::TimeColdSetup());
    return 0;
  }
  RunConfig cfg;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && cfg.seconds > 0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      cfg.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--commit") {
      commit = value;
    } else if (key == "--work-dir") {
      cfg.work_dir = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in --key value pairs");
  if (!have_seed || !have_seconds || !have_trace || cfg.work_dir.empty())
    return Usage("--seed, --seconds, --trace and --work-dir are required");

  if (std::strcmp(XCVBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "xcvbench: refusing to measure a %s build\n",
                 XCVBENCH_BUILD_TYPE);
    return 3;
  }
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "xcvbench: refusing to run with %s set (it changes what "
                   "is measured)\n",
                   name);
      return 3;
    }
  }

  Outcome out;
  try {
    std::filesystem::remove_all(cfg.work_dir);
    std::filesystem::create_directories(cfg.work_dir);
    std::printf("xcvbench: workload=%s seed=%llu seconds=%g trace=%d "
                "simd=%s nproc=%ld commit=%s build=%s\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0,
                xcv::simd::TierName(xcv::simd::ActiveTier()),
                sysconf(_SC_NPROCESSORS_ONLN), commit.c_str(),
                XCVBENCH_BUILD_TYPE);
    std::fflush(stdout);
    if (cfg.workload == "verify_cold") {
      out = xcvbench::RunVerifyCold(cfg);
    } else if (cfg.workload == "verify_warm") {
      out = xcvbench::RunVerifyWarm(cfg);
    } else if (cfg.workload == "serve_mix") {
      out = xcvbench::RunServeMix(cfg);
    } else {
      return Usage(("unknown workload " + cfg.workload).c_str());
    }
    out.end_to_end.push_back({"peak_rss_mb", xcvbench::PeakRssMb(), "MB"});
    std::filesystem::remove_all(cfg.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xcvbench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& line : out.lines) std::printf("%s\n", line.c_str());
  const std::vector<Metric>& metrics =
      cfg.trace ? out.per_layer : out.end_to_end;
  for (const Metric& m : metrics)
    std::printf("%-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));

  std::string json = "{\"correct\": ";
  json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
