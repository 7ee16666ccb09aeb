// The `xcvd` binary: the verification-as-a-service daemon.
// See src/service/daemon.h for the endpoint surface.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "api/job_spec.h"
#include "obs/metrics.h"
#include "service/daemon.h"
#include "support/check.h"
#include "support/fault.h"
#include "verifier/verifier.h"

namespace {

volatile std::sig_atomic_t g_signalled = 0;

void OnSignal(int) { g_signalled = 1; }

int Usage(std::FILE* out) {
  std::fputs(
      "usage: xcvd [--port N] [--state-dir DIR] [--max-jobs N] [--verbose]\n"
      "            [--no-job-traces] [--faults SPEC]\n"
      "\n"
      "Runs the xcv verification daemon on 127.0.0.1.\n"
      "  --port N        listen port (default 7070; 0 = ephemeral, printed)\n"
      "  --state-dir DIR queue journal, job checkpoints, per-job traces,\n"
      "                  and the shared verdict cache (default: xcvd-state)\n"
      "  --max-jobs N    campaigns admitted concurrently (default 1)\n"
      "  --verbose       log scheduling decisions on stderr\n"
      "  --no-job-traces skip per-job span timelines (GET\n"
      "                  /v1/campaigns/:id/trace then 404s)\n"
      "  --faults SPEC   arm fault-injection points (also: XCV_FAULTS)\n"
      "\n"
      "GET /v1/metrics serves the process metrics registry in Prometheus\n"
      "text form; XCV_NO_METRICS=1 disables metric collection.\n",
      out);
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  xcv::service::DaemonOptions options;
  options.port = 7070;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        XCV_CHECK_MSG(i + 1 < argc, "flag " << arg << " needs a value");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") return Usage(stdout);
      if (arg == "--port") {
        options.port = static_cast<int>(
            xcv::api::ParseFlagInteger("port", value(), 0, 65535));
      } else if (arg == "--state-dir") {
        options.state_dir = value();
      } else if (arg == "--max-jobs") {
        // Each admitted campaign holds a runner thread of its own.
        options.max_concurrent_jobs =
            static_cast<int>(xcv::api::ParseFlagInteger(
                "max-jobs", value(), 1, xcv::verifier::kMaxThreads));
      } else if (arg == "--verbose") {
        options.verbose = true;
      } else if (arg == "--no-job-traces") {
        options.job_traces = false;
      } else if (arg == "--faults") {
        xcv::support::fault::ArmFromSpec(value());
      } else {
        std::fprintf(stderr, "xcvd: unknown flag '%s'\n", arg.c_str());
        return Usage(stderr);
      }
    }
    xcv::support::fault::ArmFromEnv();
    xcv::obs::InitMetricsFromEnv();

    xcv::service::Daemon daemon(options);
    daemon.Start();
    // The bound port on stdout is the one machine-read line xcvd prints:
    // scripts that start us with --port 0 read it to find the daemon.
    std::printf("xcvd listening on 127.0.0.1:%d\n", daemon.port());
    std::fflush(stdout);

    std::signal(SIGINT, OnSignal);
    std::signal(SIGTERM, OnSignal);
    while (g_signalled == 0 && !daemon.ShutdownRequested())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Graceful stop: running jobs checkpoint and re-queue, the journal and
    // the shared cache land on disk. A restart picks everything back up.
    daemon.Stop();
    return 0;
  } catch (const xcv::InternalError& e) {
    std::fprintf(stderr, "xcvd: %s\n", e.what());
    return 2;
  }
}
