// verify_cold and verify_warm: campaigns driven through the same public
// calls `xcv verify` makes (api::ApplyFlags -> campaign::Campaign ->
// api::PopulateCampaign -> Campaign::Run -> api::CsvReport).
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>

#include "api/render.h"
#include "cache/verdict_cache.h"
#include "campaign/campaign.h"
#include "layers.h"
#include "support/check.h"
#include "workloads.h"

namespace xcvbench {

namespace {

using xcv::campaign::Campaign;
using xcv::campaign::CampaignResult;

// CSV columns 1-13 (verdict columns plus solver_calls/solver_timeouts) of
// the two budget-free reference runs. They are identical across thread
// counts, wave widths and SIMD tiers, so any change is a verdict change.
constexpr char kColdDigest[] = "598c559a35e490f0";
constexpr char kWarmFixtureDigest[] = "decc3b091fdb322c";

const std::map<std::string, std::string> kColdFlags = {
    {"functionals", "lda,pbe"}, {"conditions", "EC1..EC4"},
    {"solver-nodes", "2000"},   {"budget-seconds", "0"},
    {"threads", "1"}};

// 14,987 solver calls at 20 nodes each: warm, every one is a cache hit, so
// a warm job costs cache load/lookup/save, engine bookkeeping and the
// pool's tiny tasks rather than kernels.
std::map<std::string, std::string> WarmFlags(const std::string& cache_path) {
  return {{"functionals", "lda,pbe"}, {"conditions", "EC1..EC4"},
          {"split-threshold", "0.05"}, {"solver-nodes", "20"},
          {"budget-seconds", "0"},     {"threads", "2"},
          {"cache", cache_path}};
}

double Boxes(const CampaignResult& result) {
  double boxes = 0;
  for (const auto& p : result.pairs)
    boxes += static_cast<double>(p.report.solver_calls + p.report.cache_hits);
  return boxes;
}

std::unique_ptr<Campaign> Build(const xcv::api::JobSpec& spec) {
  auto campaign = std::make_unique<Campaign>(spec.options);
  xcv::api::PopulateCampaign(spec, *campaign);
  return campaign;
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Runs this binary again as `xcvbench --cold-setup` and returns the
/// seconds it reports: one spec + campaign construction in a fresh process,
/// where the registries the first construction fills lazily are cold, as
/// in a new `xcv verify`. That is the whole wait before a first job can run.
double ColdSetupSeconds() {
  int fds[2];
  XCV_CHECK_MSG(pipe(fds) == 0, "pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  char arg0[] = "xcvbench";
  char arg1[] = "--cold-setup";
  char* argv[] = {arg0, arg1, nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  char buf[64];
  for (ssize_t n; spawned == 0 && (n = read(fds[0], buf, sizeof(buf))) > 0;)
    text.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  XCV_CHECK_MSG(spawned == 0, "cannot spawn the cold set-up process");
  int status = 0;
  waitpid(pid, &status, 0);
  XCV_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0 && !text.empty(),
                "cold set-up process failed");
  return std::strtod(text.c_str(), nullptr);
}

}  // namespace

double TimeColdSetup() {
  const auto t0 = Clock::now();
  const auto campaign = Build(SpecFromFlags(kColdFlags));
  return SecondsSince(t0);
}

xcv::api::JobSpec SpecFromFlags(
    const std::map<std::string, std::string>& flags) {
  xcv::api::JobSpec spec = xcv::api::DefaultJobSpec();
  xcv::api::ApplyFlags(flags, spec);
  xcv::api::ValidateJobSpec(spec);
  return spec;
}

double CampaignBuildSeconds(const xcv::api::JobSpec& spec, int reps) {
  xcv::api::JobSpec uncached = spec;
  uncached.options.cache_path.clear();
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const auto campaign = Build(uncached);
    samples.push_back(SecondsSince(t0));
  }
  return Median(samples);
}

Outcome RunVerifyCold(const RunConfig& cfg) {
  Outcome out;
  std::vector<double> setup;
  for (int i = 0; i < 9; ++i) setup.push_back(ColdSetupSeconds());
  const xcv::api::JobSpec spec = SpecFromFlags(kColdFlags);

  double boxes = 0;
  auto round = [&]() {
    std::unique_ptr<Campaign> campaign;
    {
      BenchSpan span("campaign-build");
      campaign = Build(spec);
    }
    const auto t0 = Clock::now();
    const CampaignResult result = campaign->Run();
    const std::string csv = xcv::api::CsvReport(result.pairs);
    const double seconds = SecondsSince(t0);
    BenchSpan span("report-check");
    const std::string digest = Digest(CsvColumns(csv, 13));
    out.Check(digest == kColdDigest,
              "verify_cold CSV columns 1-13 digest " + digest +
                  " != committed " + kColdDigest);
    boxes = Boxes(result);
    return seconds;
  };

  // At least two jobs: the host's noise on this ~12 s job is partly
  // independent from one job to the next, so two narrow the spread that a
  // single job shows.
  std::vector<double> walls;
  const Scrape before = Scrape::Take();
  const auto phase_t0 = Clock::now();
  while (walls.size() < 2 ||
         AnotherRound(walls, SecondsSince(phase_t0), cfg.seconds))
    walls.push_back(round());
  const Counters counters = Counters::Between(before, Scrape::Take());

  out.end_to_end = EndToEndMetrics(Median(setup), Median(walls), boxes,
                                   static_cast<double>(walls.size()),
                                   Sum(walls));
  out.Line("verify_cold: " + std::to_string(walls.size()) +
           " job(s) of " + Fixed(boxes, 0) + " boxes; set-up median over " +
           std::to_string(setup.size()) + " fresh processes");
  out.Line("nodes_per_s = " + Fixed(counters.solver_nodes / Sum(walls), 1) +
           " 1/s (" + Fixed(counters.solver_nodes / walls.size(), 0) +
           " nodes per job)");

  if (!cfg.trace) return out;
  LayerInputs in;
  in.untraced_round_s = Median(walls);
  const Scrape traced_before = Scrape::Take();
  const std::string json =
      Traced([&] { in.traced_round_s = round(); });
  in.counters = Counters::Between(traced_before, Scrape::Take());
  in.fold = FoldTrace(json, "timed-phase", {});
  in.campaign_build_s = CampaignBuildSeconds(spec, 101);
  out.Check(FoldBalanced(in.fold), "verify_cold fold lines sum to wall");
  out.per_layer = PerLayerMetrics(in);
  for (std::string& line : FoldLines(in)) out.Line(std::move(line));
  return out;
}

Outcome RunVerifyWarm(const RunConfig& cfg) {
  Outcome out;
  const std::string fixture = cfg.work_dir + "/fixture-cache.json";
  const xcv::api::JobSpec spec = SpecFromFlags(WarmFlags(fixture));

  // Set-up builds the fixture cache cold (a multi-second solve); it is
  // built several times so set-up reports a median like every other
  // metric, and each build must reproduce the committed verdicts.
  std::vector<double> setup;
  std::string fixture_columns;
  double fixture_calls = 0;
  for (int i = 0; i < 3; ++i) {
    std::filesystem::remove(fixture);
    const auto t0 = Clock::now();
    const CampaignResult result = Build(spec)->Run();
    setup.push_back(SecondsSince(t0));
    const std::string csv = xcv::api::CsvReport(result.pairs);
    const std::string digest = Digest(CsvColumns(csv, 13));
    out.Check(digest == kWarmFixtureDigest,
              "verify_warm fixture CSV columns 1-13 digest " + digest +
                  " != committed " + kWarmFixtureDigest);
    fixture_columns = CsvColumns(csv, 11);
    fixture_calls = Boxes(result);
  }

  auto round = [&]() {
    const auto t0 = Clock::now();
    std::unique_ptr<Campaign> campaign;
    {
      BenchSpan span("campaign-load");
      campaign = std::make_unique<Campaign>(spec.options);
    }
    {
      BenchSpan span("campaign-build");
      xcv::api::PopulateCampaign(spec, *campaign);
    }
    const CampaignResult result = campaign->Run();
    const std::string csv = xcv::api::CsvReport(result.pairs);
    const double seconds = SecondsSince(t0);
    BenchSpan span("report-check");
    // A replay must reproduce its own cold fixture with no solver work.
    out.Check(CsvColumns(csv, 11) == fixture_columns &&
                  static_cast<double>(result.CacheHits()) == fixture_calls &&
                  Boxes(result) == fixture_calls,
              "verify_warm replay differs from its cold fixture");
    return seconds;
  };

  std::vector<double> walls;
  const auto phase_t0 = Clock::now();
  while (AnotherRound(walls, SecondsSince(phase_t0), cfg.seconds))
    walls.push_back(round());

  out.end_to_end = EndToEndMetrics(Median(setup), Median(walls),
                                   fixture_calls,
                                   static_cast<double>(walls.size()),
                                   Sum(walls));
  std::vector<double> latency_ms;
  for (double s : walls) latency_ms.push_back(1e3 * s);
  out.Line("verify_warm: " + std::to_string(walls.size()) +
           " warm job(s) of " + Fixed(fixture_calls, 0) +
           " boxes; fixture built " + std::to_string(setup.size()) +
           " times (" + Fixed(FileMb(fixture), 2) + " MB)");
  out.Line(PercentileLine("job_p50_ms", latency_ms, 0.5));

  if (!cfg.trace) return out;
  LayerInputs in;
  in.rounds = static_cast<int>(std::min<std::size_t>(walls.size(), 8));
  in.untraced_round_s = Median(walls);
  std::vector<double> traced;
  const Scrape traced_before = Scrape::Take();
  const std::string json = Traced([&] {
    for (int i = 0; i < in.rounds; ++i) traced.push_back(round());
  });
  in.counters = Counters::Between(traced_before, Scrape::Take());
  in.traced_round_s = Median(traced);
  // The main thread blocks in the pool while workers run the boxes.
  in.fold = FoldTrace(json, "timed-phase", {"job"});
  out.Check(FoldBalanced(in.fold), "verify_warm fold lines sum to wall");

  // Load and Save are timed directly on the fixture file.
  std::vector<double> loads, saves;
  for (int i = 0; i < 5; ++i) {
    xcv::cache::VerdictCache cache;
    auto t0 = Clock::now();
    cache.Load(fixture);
    loads.push_back(SecondsSince(t0));
    in.cache_entries = static_cast<double>(cache.size());
    t0 = Clock::now();
    cache.Save(cfg.work_dir + "/save-probe.json");
    saves.push_back(SecondsSince(t0));
  }
  in.cache_load_s = Median(loads);
  in.cache_save_s = Median(saves);
  in.cache_file_mb = FileMb(fixture);
  in.campaign_build_s = CampaignBuildSeconds(spec, 101);
  out.per_layer = PerLayerMetrics(in);
  for (std::string& line : FoldLines(in)) out.Line(std::move(line));
  return out;
}

}  // namespace xcvbench
