// Microbenchmarks (google-benchmark): interval primitives, tape
// evaluation (double and interval), symbolic differentiation, HC4
// contraction, and one full solver call per functional family. Scalar
// baselines run the tests/ oracle (tests/scalar_reference.h), the
// box-by-box reference the batched kernels are audited against.
//
// After the registered benchmarks run, main() times the grid-evaluation
// engine — seed-style scalar loop vs optimized tape vs batched SoA — on the
// PBE and SCAN correlation-enhancement tapes and prints one JSON line per
// functional for the BENCH trajectory. Run with --benchmark_filter=NONE to
// get only the JSON lines.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <string>

#include "campaign/campaign.h"
#include "campaign/serialize.h"
#include "conditions/conditions.h"
#include "conditions/enhancement.h"
#include "expr/compile.h"
#include "expr/interval_backward_batch.h"
#include "expr/optimize.h"
#include "functionals/functional.h"
#include "functionals/variables.h"
#include "gridsearch/grid.h"
#include "interval/interval.h"
#include "shard/merge.h"
#include "shard/partition.h"
#include "solver/icp.h"
#include "support/simd.h"
#include "support/stopwatch.h"
#include "tests/scalar_reference.h"

namespace {

using namespace xcv;

void BM_IntervalMul(benchmark::State& state) {
  Interval a(-1.3, 2.7), b(0.4, 5.1);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_IntervalMul);

void BM_IntervalDiv(benchmark::State& state) {
  Interval a(-1.3, 2.7), b(0.4, 5.1);
  for (auto _ : state) benchmark::DoNotOptimize(a / b);
}
BENCHMARK(BM_IntervalDiv);

void BM_IntervalExpLog(benchmark::State& state) {
  Interval a(0.3, 2.2);
  for (auto _ : state) benchmark::DoNotOptimize(Log(Exp(a)));
}
BENCHMARK(BM_IntervalExpLog);

void BM_IntervalLambertW(benchmark::State& state) {
  Interval a(0.1, 7.5);
  for (auto _ : state) benchmark::DoNotOptimize(LambertW0(a));
}
BENCHMARK(BM_IntervalLambertW);

const functionals::Functional& FunctionalByIndex(int i) {
  return functionals::PaperFunctionals()[static_cast<std::size_t>(i)];
}

void BM_TapeEvalPoint(benchmark::State& state) {
  const auto& f = FunctionalByIndex(static_cast<int>(state.range(0)));
  const auto tape = expr::Compile(f.eps_c);
  oracle::TapeScratch scratch;
  const double env[3] = {1.3, 0.9, 1.4};
  for (auto _ : state)
    benchmark::DoNotOptimize(oracle::EvalTape(tape, env, scratch));
  state.SetLabel(f.name);
}
BENCHMARK(BM_TapeEvalPoint)->DenseRange(0, 4);

void BM_TapeEvalInterval(benchmark::State& state) {
  const auto& f = FunctionalByIndex(static_cast<int>(state.range(0)));
  const auto tape = expr::Compile(f.eps_c);
  oracle::TapeScratch scratch;
  const std::vector<Interval> box{Interval(1.0, 1.5), Interval(0.5, 1.0),
                                  Interval(1.0, 2.0)};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        oracle::EvalTapeIntervalForward(tape, box, scratch));
  state.SetLabel(f.name);
}
BENCHMARK(BM_TapeEvalInterval)->DenseRange(0, 4);

void BM_SymbolicDerivative(benchmark::State& state) {
  const auto& f = FunctionalByIndex(static_cast<int>(state.range(0)));
  const auto fc = conditions::CorrelationEnhancement(f);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        expr::Differentiate(fc, functionals::VarRs()));
  state.SetLabel(f.name);
}
BENCHMARK(BM_SymbolicDerivative)->DenseRange(0, 4);

void BM_Hc4Contract(benchmark::State& state) {
  const auto& f = FunctionalByIndex(static_cast<int>(state.range(0)));
  const auto fc = conditions::CorrelationEnhancement(f);
  const expr::Tape tape = expr::CompileOptimized(expr::Neg(fc));
  oracle::TapeScratch scratch;
  for (auto _ : state) {
    solver::Box box({Interval(0.5, 2.5), Interval(0.5, 2.5),
                     Interval(0.5, 2.5)});
    benchmark::DoNotOptimize(
        oracle::Contract(tape, box.MutableDims(), scratch));
  }
  state.SetLabel(f.name);
}
BENCHMARK(BM_Hc4Contract)->DenseRange(0, 4);

void BM_SolverCallEc1(benchmark::State& state) {
  const auto& f = FunctionalByIndex(static_cast<int>(state.range(0)));
  const auto psi = conditions::BuildCondition(
      *conditions::FindCondition("EC1"), f);
  solver::SolverOptions opts;
  opts.max_nodes = 2000;
  solver::DeltaSolver solver(expr::BoolExpr::Not(*psi), opts);
  const auto domain = conditions::PaperDomain(f);
  for (auto _ : state) benchmark::DoNotOptimize(solver.Check(domain));
  state.SetLabel(f.name + " (2000-node budget)");
}
BENCHMARK(BM_SolverCallEc1)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void BM_TapeEvalPointOptimized(benchmark::State& state) {
  const auto& f = FunctionalByIndex(static_cast<int>(state.range(0)));
  const auto tape = expr::CompileOptimized(f.eps_c);
  oracle::TapeScratch scratch;
  const double env[3] = {1.3, 0.9, 1.4};
  for (auto _ : state)
    benchmark::DoNotOptimize(oracle::EvalTape(tape, env, scratch));
  state.SetLabel(f.name);
}
BENCHMARK(BM_TapeEvalPointOptimized)->DenseRange(0, 4);

void BM_TapeEvalIntervalOptimized(benchmark::State& state) {
  const auto& f = FunctionalByIndex(static_cast<int>(state.range(0)));
  const auto tape = expr::CompileOptimized(f.eps_c);
  oracle::TapeScratch scratch;
  const std::vector<Interval> box{Interval(1.0, 1.5), Interval(0.5, 1.0),
                                  Interval(1.0, 2.0)};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        oracle::EvalTapeIntervalForward(tape, box, scratch));
  state.SetLabel(f.name);
}
BENCHMARK(BM_TapeEvalIntervalOptimized)->DenseRange(0, 4);

void BM_TapeEvalIntervalBatch64(benchmark::State& state) {
  const auto& f = FunctionalByIndex(static_cast<int>(state.range(0)));
  const auto tape = expr::CompileOptimized(f.eps_c);
  constexpr std::size_t kLanes = 64;
  std::vector<std::vector<double>> lo(3), hi(3);
  std::vector<const double*> lop(3), hip(3);
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      const double base = 0.5 + 0.02 * static_cast<double>(k) +
                          0.25 * static_cast<double>(d);
      lo[d].push_back(base);
      hi[d].push_back(base + 0.05);
    }
    lop[d] = lo[d].data();
    hip[d] = hi[d].data();
  }
  expr::TapeIntervalBatchScratch scratch;
  scratch.Reserve(tape.size(), kLanes);
  for (auto _ : state) {
    expr::EvalTapeIntervalBatch(tape, lop, hip, kLanes, scratch);
    benchmark::DoNotOptimize(
        scratch.At(static_cast<std::size_t>(tape.root()), 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLanes));
  state.SetLabel(f.name + " (64 boxes/sweep)");
}
BENCHMARK(BM_TapeEvalIntervalBatch64)->DenseRange(0, 4);

// ---- Grid-evaluation engine comparison (JSON trajectory) --------------------

// The seed's EvaluateOnGrid: per-point Coords()/Point() heap allocations and
// one scalar tape sweep per point. Kept here verbatim as the baseline.
std::vector<double> SeedEvaluateOnGrid(const gridsearch::Grid& grid,
                                       const expr::Tape& tape) {
  std::vector<double> out(grid.TotalPoints());
  oracle::TapeScratch scratch;
  std::vector<double> env(std::max<std::size_t>(
      grid.Rank(), static_cast<std::size_t>(tape.num_env_slots)));
  for (std::size_t i = 0; i < grid.TotalPoints(); ++i) {
    const auto p = grid.Point(i);
    for (std::size_t d = 0; d < p.size(); ++d) env[d] = p[d];
    out[i] = oracle::EvalTape(tape, env, scratch);
  }
  return out;
}

void RunGridComparison(const functionals::Functional& f) {
  const expr::Expr fc = conditions::CorrelationEnhancement(f);
  std::vector<gridsearch::Axis> axes{{0.5, 5.0, 0}};
  if (f.num_inputs >= 2) axes.push_back({0.0, 5.0, 0});
  if (f.num_inputs >= 3) axes.push_back({0.0, 5.0, 0});
  // ~260k points regardless of rank.
  const std::size_t per_axis = axes.size() == 3 ? 64 : 512;
  for (auto& a : axes) a.n = per_axis;
  const gridsearch::Grid grid(axes);

  const expr::Tape plain = expr::Compile(fc);
  expr::OptimizeStats stats;
  const expr::Tape opt = expr::Optimize(plain, &stats);

  Stopwatch watch;
  const auto baseline = SeedEvaluateOnGrid(grid, plain);
  const double scalar_unopt_s = watch.ElapsedSeconds();

  watch.Reset();
  const auto scalar_opt = SeedEvaluateOnGrid(grid, opt);
  const double scalar_opt_s = watch.ElapsedSeconds();

  // Serial batch isolates the SoA win; the default run adds threading on
  // multi-core hosts (identical output either way).
  watch.Reset();
  const auto batched_1t = gridsearch::EvaluateOnGrid(grid, opt, 1);
  const double batch_1t_s = watch.ElapsedSeconds();

  watch.Reset();
  const auto batched = gridsearch::EvaluateOnGrid(grid, opt);
  const double batch_opt_s = watch.ElapsedSeconds();

  double max_rel_diff = 0.0;
  std::size_t nan_mismatches = 0;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (std::isnan(baseline[i]) != std::isnan(batched[i])) {
      ++nan_mismatches;  // NaN on one side only: worst-case divergence
      continue;
    }
    if (std::isnan(baseline[i])) continue;
    const double scale = std::max({1.0, std::fabs(baseline[i])});
    max_rel_diff =
        std::max(max_rel_diff, std::fabs(baseline[i] - batched[i]) / scale);
  }
  (void)scalar_opt;
  (void)batched_1t;

  std::printf(
      "{\"bench\":\"grid_eval\",\"functional\":\"%s\",\"points\":%zu,"
      "\"slots_plain\":%zu,\"slots_opt\":%zu,\"strength_reduced\":%zu,"
      "\"scalar_unopt_s\":%.6f,\"scalar_opt_s\":%.6f,\"batch_1t_s\":%.6f,"
      "\"batch_threaded_s\":%.6f,\"speedup_opt\":%.2f,"
      "\"speedup_batch_1t\":%.2f,\"speedup_total\":%.2f,"
      "\"max_rel_diff\":%.3g,\"nan_mismatches\":%zu}\n",
      f.name.c_str(), grid.TotalPoints(), plain.size(), opt.size(),
      stats.strength_reduced, scalar_unopt_s, scalar_opt_s, batch_1t_s,
      batch_opt_s, scalar_unopt_s / scalar_opt_s,
      scalar_unopt_s / batch_1t_s, scalar_unopt_s / batch_opt_s,
      max_rel_diff, nan_mismatches);
}

// ---- Interval-batch classification comparison (JSON trajectory) -------------

// A realistic branch-and-prune frontier: the paper domain bisected
// widest-first into `count` sibling boxes.
std::vector<std::vector<Interval>> FrontierBoxes(const solver::Box& domain,
                                                 std::size_t count) {
  std::vector<std::vector<Interval>> boxes{
      {domain.dims().begin(), domain.dims().end()}};
  std::size_t next = 0;
  while (boxes.size() < count) {
    std::vector<Interval> box = boxes[next];
    const std::size_t dim = solver::WidestDim(box);
    Interval left, right;
    box[dim].Bisect(&left, &right);
    boxes[next] = box;
    boxes[next][dim] = left;
    box[dim] = right;
    boxes.push_back(std::move(box));
    next = (next + 1) % boxes.size();
  }
  return boxes;
}

// Scalar-vs-batched forward interval classification over the same frontier:
// the exact hot path of the solver's wave classifier. Scalar runs the
// oracle's EvalTapeIntervalForward box by box; batched runs
// EvalTapeIntervalBatch at the given wave widths. Endpoints are
// bit-identical; the JSON line records the throughput ratio.
void RunIntervalBatchComparison(const functionals::Functional& f) {
  const expr::Expr fc = conditions::CorrelationEnhancement(f);
  const expr::Tape tape = expr::CompileOptimized(expr::Neg(fc));
  const solver::Box domain = conditions::PaperDomain(f);
  constexpr std::size_t kBoxes = 4096;
  const auto boxes = FrontierBoxes(domain, kBoxes);
  const std::size_t dims = domain.size();

  // SoA gather, once (the solver re-gathers per wave; that cost is part of
  // the batched timings below via the per-wave copy loop).
  std::vector<std::vector<double>> lo(dims), hi(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    lo[d].reserve(kBoxes);
    hi[d].reserve(kBoxes);
    for (const auto& b : boxes) {
      lo[d].push_back(b[d].lo());
      hi[d].push_back(b[d].hi());
    }
  }

  const int reps = 40;
  oracle::TapeScratch scratch;
  scratch.intervals.reserve(tape.size());
  double sink = 0.0;
  Stopwatch watch;
  for (int r = 0; r < reps; ++r)
    for (const auto& b : boxes)
      sink += oracle::EvalTapeIntervalForward(tape, b, scratch).lo();
  const double scalar_s = watch.ElapsedSeconds();

  auto time_width = [&](std::size_t width) {
    expr::TapeIntervalBatchScratch batch;
    batch.Reserve(tape.size(), width);
    std::vector<const double*> lop(dims), hip(dims);
    Stopwatch w;
    for (int r = 0; r < reps; ++r) {
      for (std::size_t start = 0; start < kBoxes; start += width) {
        const std::size_t n = std::min(width, kBoxes - start);
        for (std::size_t d = 0; d < dims; ++d) {
          lop[d] = lo[d].data() + start;
          hip[d] = hi[d].data() + start;
        }
        expr::EvalTapeIntervalBatch(tape, lop, hip, n, batch);
        sink += batch.At(static_cast<std::size_t>(tape.root()), 0).lo();
      }
    }
    return w.ElapsedSeconds();
  };
  const double batch8_s = time_width(8);
  const double batch64_s = time_width(64);

  // sink is an anti-DCE accumulator; it can be ±inf, which JSON numbers
  // cannot spell — print it as a string so the trajectory stays parseable.
  std::printf(
      "{\"bench\":\"interval_batch\",\"functional\":\"%s\",\"boxes\":%zu,"
      "\"slots\":%zu,\"scalar_s\":%.6f,\"batch_w8_s\":%.6f,"
      "\"batch_w64_s\":%.6f,\"speedup_w8\":%.2f,\"speedup_w64\":%.2f,"
      "\"sink\":\"%.3g\"}\n",
      f.name.c_str(), kBoxes, tape.size(), scalar_s, batch8_s, batch64_s,
      scalar_s / batch8_s, scalar_s / batch64_s, sink);
}

// ICP node throughput: one full solver call (fixed node budget, presample
// off so every node does interval work) at wave width 1 vs 8 vs 64.
void RunIcpNodeThroughput(const functionals::Functional& f) {
  const auto psi =
      conditions::BuildCondition(*conditions::FindCondition("EC1"), f);
  const auto domain = conditions::PaperDomain(f);

  struct Run {
    std::uint64_t nodes = 0;
    double seconds = 0.0;
  };
  auto run = [&](int wave_width) {
    solver::SolverOptions opts;
    opts.max_nodes = 50'000;
    opts.delta = 1e-5;  // deep splitting: the node budget is the stopper
    opts.max_invalid_models = 1 << 20;
    opts.presample_points = 0;
    opts.wave_width = wave_width;
    solver::DeltaSolver solver(expr::BoolExpr::Not(*psi), opts);
    Stopwatch watch;
    const auto result = solver.Check(domain);
    Run r;
    r.seconds = watch.ElapsedSeconds();
    r.nodes = result.stats.nodes;
    return r;
  };
  const Run w1 = run(1);
  const Run w8 = run(8);
  const Run w64 = run(64);
  const bool nodes_match = w1.nodes == w8.nodes && w1.nodes == w64.nodes;

  std::printf(
      "{\"bench\":\"icp_nodes\",\"functional\":\"%s\",\"nodes\":%llu,"
      "\"wave1_s\":%.6f,\"wave8_s\":%.6f,\"wave64_s\":%.6f,"
      "\"wave1_nodes_per_s\":%.0f,\"wave64_nodes_per_s\":%.0f,"
      "\"speedup_w8\":%.2f,\"speedup_w64\":%.2f,\"nodes_match\":%d}\n",
      f.name.c_str(), static_cast<unsigned long long>(w1.nodes), w1.seconds,
      w8.seconds, w64.seconds, static_cast<double>(w1.nodes) / w1.seconds,
      static_cast<double>(w64.nodes) / w64.seconds, w1.seconds / w8.seconds,
      w1.seconds / w64.seconds, nodes_match ? 1 : 0);
}

// Lockstep multi-search: the 8 boxes of a three-level widest-first
// bisection of the PBE EC1 domain, decided one at a time and then in one
// CheckMany call (wave width 8, presample off, 5,000 nodes each). Results
// must match box for box (results_match); the time ratio is the gain from
// filling the lanes.
void RunLockstep() {
  const auto& f = *functionals::FindFunctional("PBE");
  const auto psi =
      conditions::BuildCondition(*conditions::FindCondition("EC1"), f);
  std::vector<solver::Box> boxes{conditions::PaperDomain(f)};
  for (int level = 0; level < 3; ++level) {
    std::vector<solver::Box> next;
    for (const solver::Box& box : boxes) {
      auto [left, right] = box.Bisect(box.WidestDim());
      next.push_back(std::move(left));
      next.push_back(std::move(right));
    }
    boxes = std::move(next);
  }
  solver::SolverOptions opts;
  opts.max_nodes = 5'000;
  opts.presample_points = 0;
  opts.wave_width = 8;
  solver::DeltaSolver solver(expr::BoolExpr::Not(*psi), opts);

  // Best of 5 each: one call is ~40 ms, too short for one sample.
  std::vector<solver::CheckResult> alone, lockstep;
  double alone_s = 1e300, lockstep_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch watch;
    alone.clear();
    for (const solver::Box& box : boxes) alone.push_back(solver.Check(box));
    alone_s = std::min(alone_s, watch.ElapsedSeconds());
    watch.Reset();
    lockstep = solver.CheckMany(boxes);
    lockstep_s = std::min(lockstep_s, watch.ElapsedSeconds());
  }

  bool match = true;
  std::uint64_t nodes = 0;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    const solver::CheckResult& a = alone[i];
    const solver::CheckResult& b = lockstep[i];
    nodes += a.stats.nodes;
    match = match && a.kind == b.kind && a.stats.nodes == b.stats.nodes &&
            a.stats.prunes == b.stats.prunes &&
            a.stats.contractions == b.stats.contractions &&
            a.model.size() == b.model.size() &&
            std::equal(a.model.begin(), a.model.end(), b.model.begin(),
                       [](double x, double y) {
                         return std::bit_cast<std::uint64_t>(x) ==
                                std::bit_cast<std::uint64_t>(y);
                       });
  }
  std::printf(
      "{\"bench\":\"lockstep\",\"functional\":\"%s\",\"boxes\":%zu,"
      "\"nodes\":%llu,\"alone_s\":%.6f,\"lockstep_s\":%.6f,"
      "\"speedup\":%.2f,\"results_match\":%d}\n",
      f.name.c_str(), boxes.size(), static_cast<unsigned long long>(nodes),
      alone_s, lockstep_s, alone_s / lockstep_s, match ? 1 : 0);
}

// Scalar HC4 contraction (the oracle's forward sweep + ContractFromForward,
// box by box) vs the batched backward kernel (EvalTapeIntervalBatch +
// ContractTapeIntervalBatch per wave) over the same frontier. Outcomes and
// contracted endpoints must match bit for bit (boxes_match).
void RunContractBatch(const functionals::Functional& f) {
  const expr::Expr fc = conditions::CorrelationEnhancement(f);
  const expr::Tape tape = expr::CompileOptimized(expr::Neg(fc));
  const solver::Box domain = conditions::PaperDomain(f);
  constexpr std::size_t kBoxes = 4096;
  const auto boxes = FrontierBoxes(domain, kBoxes);
  const std::size_t dims = domain.size();
  const int reps = 20;

  oracle::TapeScratch scratch;
  scratch.intervals.reserve(tape.size());
  std::vector<std::vector<Interval>> scalar_out;
  std::vector<signed char> scalar_oc(kBoxes);
  Stopwatch watch;
  for (int r = 0; r < reps; ++r) {
    scalar_out = boxes;
    for (std::size_t i = 0; i < kBoxes; ++i)
      scalar_oc[i] = oracle::Contract(tape, scalar_out[i], scratch);
  }
  const double scalar_s = watch.ElapsedSeconds();

  std::vector<std::vector<double>> blo(dims), bhi(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    blo[d].resize(kBoxes);
    bhi[d].resize(kBoxes);
  }
  std::vector<signed char> batch_oc(kBoxes);
  bool boxes_match = true;
  auto time_width = [&](std::size_t width) {
    expr::TapeIntervalBatchScratch fwd;
    fwd.Reserve(tape.size(), width);
    expr::TapeBackwardBatchScratch bwd;
    bwd.Reserve(tape.size(), width);
    std::vector<const double*> clop(dims), chip(dims);
    std::vector<double*> lop(dims), hip(dims);
    Stopwatch w;
    for (int r = 0; r < reps; ++r) {
      // Per-rep SoA gather, mirroring the solver's per-wave copy loop.
      for (std::size_t d = 0; d < dims; ++d)
        for (std::size_t k = 0; k < kBoxes; ++k) {
          blo[d][k] = boxes[k][d].lo();
          bhi[d][k] = boxes[k][d].hi();
        }
      for (std::size_t start = 0; start < kBoxes; start += width) {
        const std::size_t n = std::min(width, kBoxes - start);
        for (std::size_t d = 0; d < dims; ++d) {
          clop[d] = lop[d] = blo[d].data() + start;
          chip[d] = hip[d] = bhi[d].data() + start;
        }
        expr::EvalTapeIntervalBatch(tape, clop, chip, n, fwd);
        expr::ContractTapeIntervalBatch(tape, fwd, lop, hip, n, nullptr,
                                        batch_oc.data() + start, bwd);
      }
    }
    const double seconds = w.ElapsedSeconds();
    // Bit-identity audit of this width's final pass against the scalar run.
    for (std::size_t i = 0; i < kBoxes; ++i) {
      boxes_match = boxes_match && batch_oc[i] == scalar_oc[i];
      for (std::size_t d = 0; d < dims; ++d)
        boxes_match = boxes_match &&
                      std::bit_cast<std::uint64_t>(blo[d][i]) ==
                          std::bit_cast<std::uint64_t>(scalar_out[i][d].lo()) &&
                      std::bit_cast<std::uint64_t>(bhi[d][i]) ==
                          std::bit_cast<std::uint64_t>(scalar_out[i][d].hi());
    }
    return seconds;
  };
  const double batch8_s = time_width(8);
  const double batch64_s = time_width(64);

  std::printf(
      "{\"bench\":\"contract_batch\",\"functional\":\"%s\",\"boxes\":%zu,"
      "\"slots\":%zu,\"scalar_s\":%.6f,\"batch_w8_s\":%.6f,"
      "\"batch_w64_s\":%.6f,\"speedup_w8\":%.2f,\"speedup_w64\":%.2f,"
      "\"simd\":\"%s\",\"boxes_match\":%d}\n",
      f.name.c_str(), kBoxes, tape.size(), scalar_s, batch8_s, batch64_s,
      scalar_s / batch8_s, scalar_s / batch64_s,
      simd::TierName(simd::ActiveTier()), boxes_match ? 1 : 0);
}

// ---- Verdict-cache replay (JSON trajectory) ---------------------------------

// Cold-vs-warm campaign wall time on the lda/pbe matrix (the shape the CI
// cache-smoke job runs): the cold run populates a verdict-cache file, the
// warm run replays it. Budget-free and node-capped, so both runs compute
// byte-identical reports — the JSON line asserts that along with the
// speedup and hit rate.
void RunCacheReplay() {
  const std::string path = "bench_cache_replay.cache.json";
  std::remove(path.c_str());

  const std::vector<functionals::Functional> funcs{
      *functionals::FindFunctional("VWN_RPA"),
      *functionals::FindFunctional("PBE")};
  std::vector<conditions::ConditionInfo> conds;
  for (const char* id : {"EC1", "EC2", "EC3", "EC4"})
    conds.push_back(*conditions::FindCondition(id));

  auto run = [&] {
    campaign::CampaignOptions o;
    o.verifier.split_threshold = 0.625;
    o.verifier.solver.max_nodes = 3'000;
    o.verifier.solver.max_invalid_models = 512;
    o.verifier.num_threads = 1;
    o.cache_path = path;
    campaign::Campaign c(o);
    c.AddMatrix(funcs, conds);
    Stopwatch watch;
    campaign::CampaignResult result = c.Run();
    const double seconds = watch.ElapsedSeconds();
    return std::make_pair(std::move(result), seconds);
  };

  auto [cold, cold_s] = run();
  auto [warm, warm_s] = run();

  // Verdict equality, leaf for leaf (the cache may only skip work).
  bool verdicts_match = cold.pairs.size() == warm.pairs.size();
  for (std::size_t i = 0; verdicts_match && i < cold.pairs.size(); ++i)
    verdicts_match = cold.pairs[i].verdict == warm.pairs[i].verdict &&
                     cold.pairs[i].report.leaves.size() ==
                         warm.pairs[i].report.leaves.size();

  const double denom =
      static_cast<double>(warm.CacheHits() + warm.CacheMisses());
  std::printf(
      "{\"bench\":\"cache_replay\",\"matrix\":\"lda+pbe x EC1-EC4\","
      "\"pairs\":%zu,\"entries\":%llu,\"cold_s\":%.6f,\"warm_s\":%.6f,"
      "\"speedup\":%.2f,\"hits\":%llu,\"misses\":%llu,\"hit_rate\":%.4f,"
      "\"rejected\":%llu,\"verdicts_match\":%d}\n",
      cold.pairs.size(), static_cast<unsigned long long>(warm.cache_entries),
      cold_s, warm_s, cold_s / warm_s,
      static_cast<unsigned long long>(warm.CacheHits()),
      static_cast<unsigned long long>(warm.CacheMisses()),
      denom > 0.0 ? static_cast<double>(warm.CacheHits()) / denom : 0.0,
      static_cast<unsigned long long>(warm.CacheRejected()),
      verdicts_match ? 1 : 0);
  std::remove(path.c_str());
}

// ---- Shard partition + merge (JSON trajectory) ------------------------------

// Distributed-run overhead on a 4-shard lda/pbe matrix: how long the pure
// checkpoint transformations (PartitionCheckpoint, MergeCheckpoints) take
// relative to solving the shards, with the merged report asserted equal to
// the single-node run (seconds zeroed — busy time is the one run-local
// field).
void RunShardMerge() {
  const std::vector<const functionals::Functional*> funcs{
      functionals::FindFunctional("VWN_RPA"),
      functionals::FindFunctional("PBE")};
  std::vector<const conditions::ConditionInfo*> conds;
  for (const char* id : {"EC1", "EC2", "EC3", "EC4"})
    conds.push_back(conditions::FindCondition(id));

  campaign::CampaignOptions options;
  options.verifier.split_threshold = 0.625;
  options.verifier.solver.max_nodes = 3'000;
  options.verifier.solver.max_invalid_models = 512;

  campaign::Checkpoint fresh;
  fresh.options = options;
  for (const conditions::ConditionInfo* cond : conds)
    for (const functionals::Functional* f : funcs)
      fresh.pairs.push_back(campaign::InitialPairState(*f, *cond));

  auto run = [](campaign::Checkpoint cp) {
    campaign::Campaign c(cp.options);
    for (campaign::PairState& p : cp.pairs) c.Restore(std::move(p));
    campaign::CampaignResult result = c.Run();
    cp.pairs = std::move(result.pairs);
    return cp;
  };
  // Seconds and origin provenance are the two fields that legitimately
  // differ from the single-node document; everything else must match.
  auto normalized = [](campaign::Checkpoint cp) {
    for (campaign::PairState& p : cp.pairs) {
      p.seconds = 0.0;
      p.report.seconds = 0.0;
      p.origin_index = -1;
    }
    return campaign::CheckpointToJson(cp.options, cp.pairs, false);
  };

  Stopwatch watch;
  const campaign::Checkpoint single = run(fresh);
  const double single_s = watch.ElapsedSeconds();

  constexpr int kShards = 4;
  shard::PartitionOptions popts;
  popts.shards = kShards;
  popts.by = shard::ShardBy::kPairs;
  watch.Reset();
  std::vector<campaign::Checkpoint> shards =
      shard::PartitionCheckpoint(fresh, popts);
  const double partition_s = watch.ElapsedSeconds();

  watch.Reset();
  std::vector<campaign::Checkpoint> finished;
  for (campaign::Checkpoint& s : shards) finished.push_back(run(std::move(s)));
  const double resume_s = watch.ElapsedSeconds();

  shard::MergeStats stats;
  watch.Reset();
  const campaign::Checkpoint merged =
      shard::MergeCheckpoints(std::move(finished), &stats);
  const double merge_s = watch.ElapsedSeconds();

  const bool merged_equal = normalized(merged) == normalized(single);
  std::printf(
      "{\"bench\":\"shard_merge\",\"matrix\":\"lda+pbe x EC1-EC4\","
      "\"shards\":%d,\"pairs\":%zu,\"fragments\":%zu,\"single_s\":%.6f,"
      "\"partition_s\":%.6f,\"resume_s\":%.6f,\"merge_s\":%.6f,"
      "\"overhead_frac\":%.6f,\"merged_equal\":%d}\n",
      kShards, merged.pairs.size(), stats.pair_fragments, single_s,
      partition_s, resume_s, merge_s,
      (partition_s + merge_s) / single_s, merged_equal ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RunGridComparison(*functionals::FindFunctional("PBE"));
  RunGridComparison(*functionals::FindFunctional("SCAN"));
  RunIntervalBatchComparison(*functionals::FindFunctional("PBE"));
  RunIntervalBatchComparison(*functionals::FindFunctional("SCAN"));
  RunContractBatch(*functionals::FindFunctional("PBE"));
  RunContractBatch(*functionals::FindFunctional("SCAN"));
  RunIcpNodeThroughput(*functionals::FindFunctional("PBE"));
  RunIcpNodeThroughput(*functionals::FindFunctional("SCAN"));
  RunLockstep();
  RunCacheReplay();
  RunShardMerge();
  return 0;
}
