#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/serialize.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "obs/metrics.h"
#include "verifier/engine.h"
#include "verifier/verifier.h"

namespace xcv::campaign {
namespace {

using conditions::ConditionInfo;
using functionals::Functional;
using solver::Box;
using verifier::FrontierStrategy;
using verifier::VerificationReport;

// Budget-free (hence deterministic) options coarse enough to finish a
// small matrix in well under a second.
verifier::VerifierOptions FastOptions() {
  verifier::VerifierOptions o;
  o.split_threshold = 0.7;
  o.solver.max_nodes = 4'000;
  o.solver.delta = 1e-3;
  return o;
}

CampaignOptions FastCampaignOptions(int threads) {
  CampaignOptions o;
  o.verifier = FastOptions();
  o.verifier.num_threads = threads;
  o.tune_lda_delta = false;  // compare raw options against raw Verifier runs
  return o;
}

std::vector<const Functional*> LdaPbeMatrix() {
  return {functionals::FindFunctional("VWN_RPA"),
          functionals::FindFunctional("PBE")};
}

std::vector<const ConditionInfo*> TestConditions() {
  return {conditions::FindCondition("EC1"), conditions::FindCondition("EC2"),
          conditions::FindCondition("EC4")};
}

void ZeroSeconds(std::vector<PairState>& pairs) {
  for (PairState& p : pairs) {
    p.seconds = 0.0;
    p.report.seconds = 0.0;
  }
}

TEST(Campaign, MatchesSequentialVerifierLoop) {
  // The acceptance bar: interleaving all pairs on a shared pool must give
  // the same per-pair verdicts as today's sequential Verifier::Run loop.
  Campaign campaign(FastCampaignOptions(/*threads=*/3));
  for (const ConditionInfo* cond : TestConditions())
    for (const Functional* f : LdaPbeMatrix()) campaign.Add(*f, *cond);
  const CampaignResult result = campaign.Run();
  ASSERT_EQ(result.pairs.size(), 6u);
  EXPECT_FALSE(result.cancelled);

  std::size_t i = 0;
  for (const ConditionInfo* cond : TestConditions()) {
    for (const Functional* f : LdaPbeMatrix()) {
      const PairState& pair = result.pairs[i++];
      EXPECT_EQ(pair.functional, f->name);
      EXPECT_EQ(pair.condition, cond->short_id);
      const auto psi = conditions::BuildCondition(*cond, *f);
      if (!psi.has_value()) {
        EXPECT_FALSE(pair.applicable);
        EXPECT_EQ(pair.verdict, verifier::Verdict::kNotApplicable);
        continue;
      }
      verifier::Verifier v(*psi, FastOptions());
      const VerificationReport reference = v.Run(conditions::PaperDomain(*f));
      EXPECT_TRUE(pair.done);
      EXPECT_EQ(pair.verdict, reference.Summarize())
          << f->name << " x " << cond->short_id;
      EXPECT_EQ(pair.report.leaves.size(), reference.leaves.size());
      EXPECT_EQ(pair.report.solver_calls, reference.solver_calls);
    }
  }
}

TEST(Campaign, ParallelRunIsByteIdenticalToSequentialRun) {
  // One thread and every pool ticket decide lockstep batches of up to
  // wave_width boxes. Every combination writes the same bytes.
  auto run = [](int threads, int width) {
    CampaignOptions options = FastCampaignOptions(threads);
    options.verifier.solver.wave_width = width;
    Campaign campaign(options);
    for (const ConditionInfo* cond : TestConditions())
      for (const Functional* f : LdaPbeMatrix()) campaign.Add(*f, *cond);
    CampaignResult result = campaign.Run();
    ZeroSeconds(result.pairs);
    return CheckpointToJson(FastCampaignOptions(1), result.pairs, false);
  };
  const std::string reference = run(1, 1);
  for (const auto& [threads, width] :
       {std::pair{1, 8}, std::pair{1, 64}, std::pair{2, 64}, std::pair{4, 1},
        std::pair{4, 8}, std::pair{4, 64}})
    EXPECT_EQ(run(threads, width), reference)
        << "threads=" << threads << " wave_width=" << width;
}

// The per-wave solver series repeat exactly only at one thread: the inline
// loop of verifier::RunEngines composes every lockstep batch the same way,
// while pool tickets compose batches by timing (there only the verdict
// bytes repeat). Count-based solver measurements rely on this repeat.
TEST(Campaign, OneThreadRunRepeatsPerWaveCounters) {
  const std::vector<std::pair<std::string, std::string>> series = {
      {"xcv_solver_waves_total", ""},
      {"xcv_solver_wave_lanes_total", ""},
      {"xcv_solver_projections_total", "run"},
      {"xcv_solver_projections_total", "skipped"}};
  auto read = [&series] {
    obs::Registry& reg = obs::Registry::Global();
    std::vector<double> values;
    for (const auto& [name, outcome] : series) {
      const obs::Counter& c =
          outcome.empty()
              ? reg.GetCounter(name, "solver series (src/solver/icp.cpp)")
              : reg.GetCounter(name, "solver series (src/solver/icp.cpp)",
                               {"outcome"}, {outcome});
      values.push_back(c.Value());
    }
    return values;
  };
  auto run = [&read] {
    const std::vector<double> before = read();
    // Fine enough that four threads compose different batches run to run.
    CampaignOptions options = FastCampaignOptions(/*threads=*/1);
    options.verifier.split_threshold = 0.3;
    options.verifier.solver.max_nodes = 300;
    Campaign campaign(options);
    for (const char* cond : {"EC1", "EC2"})
      for (const Functional* f : LdaPbeMatrix())
        campaign.Add(*f, *conditions::FindCondition(cond));
    EXPECT_EQ(campaign.Run().CompletedCount(), 4u);
    std::vector<double> deltas = read();
    for (std::size_t i = 0; i < deltas.size(); ++i) deltas[i] -= before[i];
    return deltas;
  };
  const std::vector<double> first = run();
  const std::vector<double> second = run();
  for (std::size_t i = 0; i < series.size(); ++i) {
    SCOPED_TRACE(series[i].first + " " + series[i].second);
    EXPECT_GT(first[i], 0.0);
    EXPECT_EQ(first[i], second[i]);
  }
}

TEST(Campaign, CheckpointRoundTripsExactly) {
  PairState p;
  p.functional = "PBE";
  p.condition = "EC1";
  p.applicable = true;
  p.done = false;
  p.verdict = verifier::Verdict::kCounterexample;
  p.seconds = 1.0 / 3.0;
  p.report.solver_calls = 41;
  p.report.solver_timeouts = 7;
  p.report.seconds = 1e-300;
  p.report.leaves.push_back({Box({Interval(0.1, 0.2), Interval(-0.0, 5.0)}),
                             verifier::RegionStatus::kCounterexample,
                             {0.15, 2.0 / 3.0}});
  p.report.leaves.push_back({Box({Interval(0.2, 0.3), Interval(0.0, 5.0)}),
                             verifier::RegionStatus::kVerified,
                             {}});
  p.report.witnesses.push_back({0.15, 2.0 / 3.0});
  p.open.push_back(Box({Interval(1e-4, 5.0), Interval(0.0, 0.625)}));

  CampaignOptions options;
  options.verifier.total_time_budget_seconds =
      std::numeric_limits<double>::infinity();
  options.verifier.frontier = FrontierStrategy::kSuspectFirst;
  options.verifier.num_threads = 4;

  const std::string json = CheckpointToJson(options, {p}, true);
  const Checkpoint cp = CheckpointFromJson(json);

  EXPECT_TRUE(cp.cancelled);
  EXPECT_EQ(cp.options.verifier.num_threads, 4);
  EXPECT_EQ(cp.options.verifier.frontier, FrontierStrategy::kSuspectFirst);
  EXPECT_TRUE(
      std::isinf(cp.options.verifier.total_time_budget_seconds));
  ASSERT_EQ(cp.pairs.size(), 1u);
  const PairState& q = cp.pairs[0];
  EXPECT_EQ(q.functional, "PBE");
  EXPECT_EQ(q.condition, "EC1");
  EXPECT_EQ(q.verdict, verifier::Verdict::kCounterexample);
  EXPECT_EQ(q.seconds, 1.0 / 3.0);  // exact binary64 round-trip
  EXPECT_EQ(q.report.seconds, 1e-300);
  EXPECT_EQ(q.report.solver_calls, 41u);
  ASSERT_EQ(q.report.leaves.size(), 2u);
  EXPECT_EQ(q.report.leaves[0].box[0], Interval(0.1, 0.2));
  EXPECT_EQ(q.report.leaves[0].status,
            verifier::RegionStatus::kCounterexample);
  ASSERT_EQ(q.report.leaves[0].witness.size(), 2u);
  EXPECT_EQ(q.report.leaves[0].witness[1], 2.0 / 3.0);
  ASSERT_EQ(q.open.size(), 1u);
  EXPECT_EQ(q.open[0][0], Interval(1e-4, 5.0));
  // And the document itself is stable under a rewrite.
  EXPECT_EQ(json, CheckpointToJson(cp.options, cp.pairs, cp.cancelled));
}

TEST(Campaign, CancelledRunCheckpointsAndResumesToIdenticalVerdicts) {
  // Two threads cancel between pool tickets; one thread cancels inside a
  // lockstep batch, whose undecided boxes go back on the frontier.
  // Reference: an uninterrupted run. LYP pairs end in counterexamples, the
  // VWN pairs in full verification — both verdict kinds cross the resume.
  std::vector<const Functional*> funcs = {
      functionals::FindFunctional("VWN_RPA"),
      functionals::FindFunctional("LYP")};
  std::vector<const ConditionInfo*> conds = {
      conditions::FindCondition("EC1"), conditions::FindCondition("EC2"),
      conditions::FindCondition("EC7")};
  CampaignOptions options;
  options.verifier.split_threshold = 0.65;
  options.verifier.solver.max_nodes = 4'000;
  options.tune_lda_delta = false;

  Campaign reference(options);
  for (const ConditionInfo* c : conds)
    for (const Functional* f : funcs) reference.Add(*f, *c);
  const CampaignResult expected = reference.Run();

  for (const int threads : {2, 1}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Interrupted run: cancel from another thread shortly after it starts.
    const std::string path =
        ::testing::TempDir() + "/xcv_campaign_cancel_test.json";
    CampaignOptions copts = options;
    copts.verifier.num_threads = threads;
    copts.checkpoint_path = path;
    Campaign interrupted(copts);
    for (const ConditionInfo* c : conds)
      for (const Functional* f : funcs) interrupted.Add(*f, *c);
    std::thread canceller([&interrupted] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      interrupted.RequestCancel();
    });
    const CampaignResult partial = interrupted.Run();
    canceller.join();

    // Whether or not the cancel landed mid-run, the checkpoint must load and
    // resume to the reference verdicts.
    Checkpoint cp = LoadCheckpointFile(path);
    ASSERT_EQ(cp.pairs.size(), expected.pairs.size());
    if (partial.cancelled) {
      EXPECT_TRUE(cp.cancelled);
      std::size_t open_boxes = 0;
      for (const PairState& p : cp.pairs) open_boxes += p.open.size();
      // A mid-run cancellation leaves at least one pair unfinished with a
      // non-empty frontier.
      if (partial.CompletedCount() < partial.pairs.size()) {
        EXPECT_GT(open_boxes, 0u);
      }
    }
    // An interrupted pair can never claim the full-domain ✓: undecided open
    // boxes could still hide a counterexample.
    for (const PairState& p : partial.pairs) {
      if (!p.done) {
        EXPECT_NE(p.verdict, verifier::Verdict::kVerified)
            << p.functional << " x " << p.condition;
      }
    }

    CampaignOptions ropts = cp.options;
    ropts.checkpoint_path.clear();
    Campaign resumed(ropts);
    for (PairState& p : cp.pairs) resumed.Restore(std::move(p));
    const CampaignResult final_result = resumed.Run();

    ASSERT_EQ(final_result.pairs.size(), expected.pairs.size());
    for (std::size_t i = 0; i < expected.pairs.size(); ++i) {
      EXPECT_EQ(final_result.pairs[i].functional, expected.pairs[i].functional);
      EXPECT_EQ(final_result.pairs[i].condition, expected.pairs[i].condition);
      EXPECT_TRUE(final_result.pairs[i].done);
      EXPECT_EQ(final_result.pairs[i].verdict, expected.pairs[i].verdict)
          << expected.pairs[i].functional << " x "
          << expected.pairs[i].condition;
    }
    // ... and to the same bytes: no box the cancel caught mid-call was lost
    // or decided twice.
    std::vector<PairState> resumed_pairs = final_result.pairs;
    std::vector<PairState> expected_pairs = expected.pairs;
    ZeroSeconds(resumed_pairs);
    ZeroSeconds(expected_pairs);
    EXPECT_EQ(CheckpointToJson(options, resumed_pairs, false),
              CheckpointToJson(options, expected_pairs, false));
    std::remove(path.c_str());
  }
}

TEST(Campaign, NonApplicablePairsAreReportedNotRun) {
  Campaign campaign(FastCampaignOptions(1));
  // EC4 (Lieb-Oxford) needs an exchange part; LYP is correlation-only.
  campaign.Add(*functionals::FindFunctional("LYP"),
               *conditions::FindCondition("EC4"));
  const CampaignResult result = campaign.Run();
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_FALSE(result.pairs[0].applicable);
  EXPECT_TRUE(result.pairs[0].done);
  EXPECT_EQ(result.pairs[0].verdict, verifier::Verdict::kNotApplicable);
  EXPECT_EQ(result.pairs[0].report.solver_calls, 0u);
}

TEST(Campaign, ProgressStreamsEveryApplicablePair) {
  Campaign campaign(FastCampaignOptions(2));
  for (const ConditionInfo* cond : TestConditions())
    for (const Functional* f : LdaPbeMatrix()) campaign.Add(*f, *cond);
  std::atomic<int> calls{0};
  std::size_t last_total = 0;
  const CampaignResult result = campaign.Run(
      [&calls, &last_total](const PairState& p, std::size_t completed,
                            std::size_t total) {
        ++calls;
        last_total = total;
        EXPECT_TRUE(p.done);
        EXPECT_LE(completed, total);
      });
  // Non-applicable pairs complete without a progress event.
  int applicable = 0;
  for (const PairState& p : result.pairs)
    if (p.applicable) ++applicable;
  EXPECT_EQ(calls.load(), applicable);
  EXPECT_EQ(last_total, result.pairs.size());
}

// ---- Priority frontier ------------------------------------------------------

TEST(Frontier, PriorityFunctions) {
  const Box wide({Interval(0.0, 4.0), Interval(0.0, 1.0)});
  const Box narrow({Interval(0.0, 0.5), Interval(0.0, 0.25)});
  using verifier::FrontierPriority;

  // Widest-first: width rules, suspects get no boost.
  EXPECT_GT(FrontierPriority(FrontierStrategy::kWidestFirst, wide, false, 0),
            FrontierPriority(FrontierStrategy::kWidestFirst, narrow, true, 1));

  // Suspect-first: a narrow suspect outranks any non-suspect width.
  EXPECT_GT(FrontierPriority(FrontierStrategy::kSuspectFirst, narrow, true, 1),
            FrontierPriority(FrontierStrategy::kSuspectFirst, wide, false, 0));
  // ... and among suspects, wider still first.
  EXPECT_GT(FrontierPriority(FrontierStrategy::kSuspectFirst, wide, true, 0),
            FrontierPriority(FrontierStrategy::kSuspectFirst, narrow, true, 1));

  // FIFO: earlier submission first.
  EXPECT_GT(FrontierPriority(FrontierStrategy::kFifo, narrow, false, 3),
            FrontierPriority(FrontierStrategy::kFifo, wide, true, 7));
}

TEST(Frontier, EngineProcessesWidestBoxFirst) {
  // ψ = (1 > 0): every box is immediately verified, so each ProcessNext
  // consumes exactly the current best boxes, up to wave_width of them.
  for (const int width : {1, 2}) {
    SCOPED_TRACE("wave_width=" + std::to_string(width));
    verifier::VerifierOptions options;
    options.split_threshold = 100.0;  // everything is a leaf
    options.solver.wave_width = width;
    verifier::PairEngine engine(
        expr::BoolExpr::Gt(expr::Expr::Constant(1.0),
                           expr::Expr::Constant(0.0)),
        options);
    VerificationReport empty;
    std::vector<Box> open = {Box({Interval(0.0, 1.0)}),
                             Box({Interval(0.0, 4.0)}),
                             Box({Interval(0.0, 2.0)})};
    engine.Restore(empty, open);

    EXPECT_DOUBLE_EQ(engine.TopPriority(), 4.0);
    ASSERT_TRUE(engine.ProcessNext(nullptr));
    if (width == 1) {
      EXPECT_EQ(engine.OpenCount(), 2u);
      EXPECT_DOUBLE_EQ(engine.TopPriority(), 2.0);
      ASSERT_TRUE(engine.ProcessNext(nullptr));
    }
    // At width 2 the first call decided 4 and 2 together.
    EXPECT_EQ(engine.OpenCount(), 1u);
    EXPECT_DOUBLE_EQ(engine.TopPriority(), 1.0);
    ASSERT_TRUE(engine.ProcessNext(nullptr));
    EXPECT_TRUE(engine.Finished());
    EXPECT_FALSE(engine.ProcessNext(nullptr));
    std::vector<double> widths;
    for (const auto& leaf : engine.TakeReport().leaves)
      widths.push_back(leaf.box.MaxWidth());
    EXPECT_EQ(widths, (std::vector<double>{1.0, 2.0, 4.0}));
  }
}

TEST(Frontier, CancelledEngineKeepsFrontierIntact) {
  verifier::VerifierOptions options;
  options.split_threshold = 100.0;
  verifier::PairEngine engine(
      expr::BoolExpr::Gt(expr::Expr::Constant(1.0), expr::Expr::Constant(0.0)),
      options);
  VerificationReport empty;
  engine.Restore(empty, {Box({Interval(0.0, 1.0)}), Box({Interval(0.0, 2.0)})});

  std::atomic<bool> cancel{true};
  EXPECT_FALSE(engine.ProcessNext(&cancel));
  EXPECT_EQ(engine.OpenCount(), 2u);
  EXPECT_FALSE(engine.Finished());
  const auto frontier = engine.TakeOpenFrontier();
  EXPECT_EQ(frontier.size(), 2u);
}

}  // namespace
}  // namespace xcv::campaign
