// Property tests for the batched SoA interval engine and the frontier
// store behind the ICP wave classifier:
//   1. The bit-stepped NextDown/NextUp agree with std::nextafter on every
//      double (specials and a large random bit-pattern sweep) — they sit
//      inside every outward rounding the solver's verdicts rest on.
//   2. EvalTapeIntervalBatch is bit-identical, slot by slot and lane by
//      lane, to the scalar oracle's EvalTapeIntervalForward
//      (tests/scalar_reference.h) — across random tapes, optimized paper
//      tapes, wave widths 1/7/64, boxes with empty, point, and
//      ±inf-endpoint dimensions, and every runnable XCV_SIMD tier.
//   3. BoxStore allocates, recycles, and stages self-aliasing copies
//      correctly.
//   4. DeltaSolver verdicts, models, and stats are identical at every wave
//      width and equal to pinned values, and verifier reports are byte-equal
//      across wave widths and thread counts.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include <gtest/gtest.h>

#include "conditions/conditions.h"
#include "conditions/enhancement.h"
#include "expr/compile.h"
#include "expr/optimize.h"
#include "functionals/functional.h"
#include "solver/box.h"
#include "solver/icp.h"
#include "test_util.h"
#include "tests/scalar_reference.h"
#include "verifier/engine.h"
#include "verifier/verifier.h"

namespace xcv {
namespace {

using solver::BoxStore;
using testing::ForEachRunnableTier;
using testing::RandomExprGen;
using testing::Rng;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---- 1. NextDown / NextUp == nextafter --------------------------------------

void ExpectNextEq(double v) {
  if (std::isnan(v)) {
    EXPECT_TRUE(std::isnan(NextDown(v)));
    EXPECT_TRUE(std::isnan(NextUp(v)));
    return;
  }
  const double rd = v == -kInf ? v : std::nextafter(v, -kInf);
  const double ru = v == kInf ? v : std::nextafter(v, kInf);
  EXPECT_EQ(Bits(NextDown(v)), Bits(rd)) << "v=" << v;
  EXPECT_EQ(Bits(NextUp(v)), Bits(ru)) << "v=" << v;
}

TEST(NextAfterEquivalence, Specials) {
  for (double v :
       {0.0, -0.0, 0x1p-1074, -0x1p-1074, 0x1p-1022, -0x1p-1022, 1.0, -1.0,
        0.5, -2.0, 1.7976931348623157e308, -1.7976931348623157e308, kInf,
        -kInf, std::numeric_limits<double>::quiet_NaN(), 1e-300, -1e-300})
    ExpectNextEq(v);
}

TEST(NextAfterEquivalence, RandomBitPatterns) {
  Rng rng(7);
  for (int i = 0; i < 200'000; ++i)
    ExpectNextEq(std::bit_cast<double>(rng.engine()()));
}

// ---- 2. Batch == scalar oracle, bit for bit ---------------------------------

std::vector<std::vector<Interval>> TestBoxes(Rng& rng, std::size_t count,
                                             std::size_t dims) {
  std::vector<std::vector<Interval>> boxes(count);
  for (std::size_t k = 0; k < count; ++k) {
    boxes[k].reserve(dims);
    for (std::size_t d = 0; d < dims; ++d)
      boxes[k].push_back(rng.RandomInterval(-3.0, 4.0));
  }
  // Sprinkle the endpoint zoo: empty, point, half-infinite, entire,
  // negative-only dimensions.
  if (count >= 8) {
    boxes[1][0] = Interval::Empty();
    boxes[2][dims - 1] = Interval(0.25);
    boxes[3][0] = Interval(1.0, kInf);
    boxes[4][dims - 1] = Interval(-kInf, -0.5);
    boxes[5][0] = Interval::Entire();
    boxes[6][dims % 2] = Interval(-2.0, -1.0);
    boxes[7][0] = Interval(0.0, 0.0);
  }
  return boxes;
}

void ExpectBatchMatchesScalar(const expr::Tape& tape,
                              const std::vector<std::vector<Interval>>& boxes,
                              std::size_t width) {
  const std::size_t dims = boxes.front().size();
  std::vector<std::vector<double>> lo(dims), hi(dims);
  std::vector<const double*> lop(dims), hip(dims);
  oracle::TapeScratch scalar;
  expr::TapeIntervalBatchScratch batch;
  for (std::size_t start = 0; start < boxes.size(); start += width) {
    const std::size_t n = std::min(width, boxes.size() - start);
    for (std::size_t d = 0; d < dims; ++d) {
      lo[d].clear();
      hi[d].clear();
      for (std::size_t k = 0; k < n; ++k) {
        lo[d].push_back(boxes[start + k][d].lo());
        hi[d].push_back(boxes[start + k][d].hi());
      }
      lop[d] = lo[d].data();
      hip[d] = hi[d].data();
    }
    expr::EvalTapeIntervalBatch(tape, lop, hip, n, batch);
    for (std::size_t k = 0; k < n; ++k) {
      oracle::EvalTapeIntervalForward(tape, boxes[start + k], scalar);
      ASSERT_EQ(tape.size(), scalar.intervals.size());
      for (std::size_t s = 0; s < tape.size(); ++s) {
        const Interval lane = batch.At(s, k);
        EXPECT_EQ(Bits(lane.lo()), Bits(scalar.intervals[s].lo()))
            << "slot " << s << " lane " << k << " width " << width << " "
            << simd::TierName(simd::ActiveTier());
        EXPECT_EQ(Bits(lane.hi()), Bits(scalar.intervals[s].hi()))
            << "slot " << s << " lane " << k << " width " << width << " "
            << simd::TierName(simd::ActiveTier());
      }
    }
  }
}

expr::Expr Var(const char* name, int index) {
  return expr::Expr::Variable(name, index);
}

TEST(IntervalBatch, BitIdenticalOnRandomTapes) {
  Rng rng(42);
  RandomExprGen gen(rng, {Var("x", 0), Var("y", 1), Var("z", 2)});
  std::vector<expr::Tape> tapes;
  std::vector<std::vector<std::vector<Interval>>> boxes;
  for (int trial = 0; trial < 40; ++trial) {
    const expr::Expr e = gen.Gen(5);
    for (expr::Tape tape : {expr::Compile(e), expr::CompileOptimized(e)}) {
      tapes.push_back(std::move(tape));
      boxes.push_back(TestBoxes(rng, 70, 3));
    }
  }
  const int tiers = ForEachRunnableTier([&](simd::Tier) {
    for (std::size_t t = 0; t < tapes.size(); ++t)
      for (std::size_t width : {1u, 7u, 64u})
        ExpectBatchMatchesScalar(tapes[t], boxes[t], width);
  });
  EXPECT_GE(tiers, 2) << "scalar and sse2 are always runnable";
}

TEST(IntervalBatch, BitIdenticalOnPaperTapes) {
  Rng rng(11);
  std::vector<expr::Tape> tapes;
  std::vector<std::vector<std::vector<Interval>>> boxes;
  for (const auto& f : functionals::PaperFunctionals()) {
    const expr::Expr fc = conditions::CorrelationEnhancement(f);
    tapes.push_back(expr::CompileOptimized(expr::Neg(fc)));
    boxes.push_back(TestBoxes(rng, 70, 3));
  }
  ForEachRunnableTier([&](simd::Tier) {
    for (std::size_t t = 0; t < tapes.size(); ++t)
      for (std::size_t width : {1u, 7u, 64u})
        ExpectBatchMatchesScalar(tapes[t], boxes[t], width);
  });
}

// ---- 3. BoxStore ------------------------------------------------------------

TEST(BoxStoreTest, AllocateReleaseRecycle) {
  BoxStore store(2);
  const auto a = store.AllocateCopy(
      std::vector<Interval>{Interval(0.0, 1.0), Interval(2.0, 3.0)});
  const auto b = store.AllocateCopy(
      std::vector<Interval>{Interval(-1.0, 0.5), Interval(4.0, 5.0)});
  EXPECT_EQ(store.live(), 2u);
  EXPECT_EQ(store.View(a)[1], Interval(2.0, 3.0));
  EXPECT_EQ(store.View(b)[0], Interval(-1.0, 0.5));

  store.Release(a);
  EXPECT_EQ(store.live(), 1u);
  const auto c = store.AllocateCopy(
      std::vector<Interval>{Interval(7.0, 8.0), Interval(9.0, 10.0)});
  EXPECT_EQ(c, a) << "released slot should be recycled LIFO";
  EXPECT_EQ(store.capacity(), 2u) << "no growth when the free list serves";
  EXPECT_EQ(store.View(c)[0], Interval(7.0, 8.0));
  EXPECT_EQ(store.View(b)[1], Interval(4.0, 5.0)) << "b untouched";
}

TEST(BoxStoreTest, AllocateCopyAliasingOwnArena) {
  BoxStore store(2);
  const auto a = store.AllocateCopy(
      std::vector<Interval>{Interval(1.0, 2.0), Interval(3.0, 4.0)});
  // Copy from the store's own (possibly reallocating) arena.
  const auto b = store.AllocateCopy(store.View(a));
  EXPECT_EQ(store.View(b)[0], Interval(1.0, 2.0));
  EXPECT_EQ(store.View(b)[1], Interval(3.0, 4.0));
  EXPECT_EQ(store.View(a)[0], Interval(1.0, 2.0));
}

TEST(BoxStoreTest, ResetKeepsNothingLive) {
  BoxStore store(3);
  store.Allocate();
  store.Allocate();
  store.Reset(2);
  EXPECT_EQ(store.live(), 0u);
  EXPECT_EQ(store.dims(), 2u);
  const auto r = store.Allocate();
  EXPECT_EQ(store.View(r).size(), 2u);
}

// ---- 4. Solver / verifier invariance across wave widths ---------------------

// Every width must reproduce the pinned width-1 result: kind, model bits,
// and stats. The inputs cover the default options, contraction off
// (contraction_rounds = 0), a disjunction with no required atom (nothing to
// contract), and presampling off (the lattice would have found LYP's
// counterexample before any branching). At widths above 1 the domain is
// also decided in one lockstep CheckMany call beside sibling boxes — its
// 2^d children, then an empty box, up to the width — and every box of the
// batch must equal a fresh solver's one-box result.
TEST(WaveInvariance, SolverResultsIdenticalAtEveryWidth) {
  const auto& pbe = *functionals::FindFunctional("PBE");
  const auto& scan = *functionals::FindFunctional("SCAN");
  const auto& lyp = *functionals::FindFunctional("LYP");
  auto violation = [](const char* id, const functionals::Functional& f) {
    const auto psi =
        conditions::BuildCondition(*conditions::FindCondition(id), f);
    EXPECT_TRUE(psi.has_value()) << id << " " << f.name;
    return expr::BoolExpr::Not(*psi);
  };
  solver::SolverOptions base;
  base.max_nodes = 1500;
  solver::SolverOptions no_contraction = base;
  no_contraction.contraction_rounds = 0;
  solver::SolverOptions no_presample = base;
  no_presample.presample_points = 0;

  struct Case {
    const char* name;
    expr::BoolExpr formula;
    solver::Box domain;
    solver::SolverOptions options;
    solver::SatKind kind;
    std::vector<std::uint64_t> model_bits;
    std::uint64_t nodes, prunes, contractions;
  };
  const std::vector<Case> cases{
      {"PBE EC1", violation("EC1", pbe), conditions::PaperDomain(pbe), base,
       solver::SatKind::kDeltaSat,
       {0x3f30fdcfc8847daa, 0x3fe3858000000000}, 1321, 619, 1189},
      {"SCAN EC1", violation("EC1", scan), conditions::PaperDomain(scan),
       base, solver::SatKind::kDeltaSat,
       {0x3f3a8d9e83e425af, 0x3f66800000000000, 0x3f34000000000000}, 187,
       42, 192},
      {"PBE EC1 rounds=0", violation("EC1", pbe),
       conditions::PaperDomain(pbe), no_contraction,
       solver::SatKind::kDeltaSat,
       {0x3f3a8d9e83e425af, 0x3fd6530000000000}, 1500, 741, 0},
      {"PBE EC1|EC2", expr::BoolExpr::Or({violation("EC1", pbe),
                                          violation("EC2", pbe)}),
       conditions::PaperDomain(pbe), base, solver::SatKind::kDeltaSat,
       {0x3f3a8d9e83e425af, 0x3f94500000000000}, 234, 72, 0},
      {"LYP EC1 presample=0", violation("EC1", lyp),
       conditions::PaperDomain(lyp), no_presample, solver::SatKind::kTimeout,
       {}, 1500, 740, 2109},
  };
  auto bits_of = [](const solver::CheckResult& r) {
    std::vector<std::uint64_t> bits;
    for (double v : r.model) bits.push_back(Bits(v));
    for (const Interval& iv : r.model_box.dims()) {
      bits.push_back(Bits(iv.lo()));
      bits.push_back(Bits(iv.hi()));
    }
    return bits;
  };
  for (const Case& c : cases) {
    // The lockstep batch: the domain, its children, then an empty box.
    std::vector<solver::Box> batch{c.domain};
    for (solver::Box& child : verifier::SplitBox(c.domain, true))
      batch.push_back(std::move(child));
    batch.push_back(solver::Box(std::vector<Interval>(
        c.domain.size(), Interval::Empty())));
    std::vector<solver::CheckResult> alone;
    for (const solver::Box& box : batch)
      alone.push_back(solver::DeltaSolver(c.formula, c.options).Check(box));

    for (int width : {1, 2, 7, 8, 64}) {
      solver::SolverOptions opts = c.options;
      opts.wave_width = width;
      solver::DeltaSolver s(c.formula, opts);
      const std::size_t n =
          std::min(batch.size(), static_cast<std::size_t>(width));
      const auto results =
          s.CheckMany(std::span<const solver::Box>(batch).first(n));
      ASSERT_EQ(results.size(), n);
      const auto& result = results[0];
      std::vector<std::uint64_t> model_bits;
      for (double v : result.model) model_bits.push_back(Bits(v));
      EXPECT_EQ(result.kind, c.kind) << c.name << " width " << width;
      EXPECT_EQ(model_bits, c.model_bits) << c.name << " width " << width;
      EXPECT_EQ(result.stats.nodes, c.nodes) << c.name << " width " << width;
      EXPECT_EQ(result.stats.prunes, c.prunes)
          << c.name << " width " << width;
      EXPECT_EQ(result.stats.contractions, c.contractions)
          << c.name << " width " << width;
      for (std::size_t i = 0; i < n; ++i) {
        SCOPED_TRACE(std::string(c.name) + " width " + std::to_string(width) +
                     " box " + std::to_string(i));
        EXPECT_FALSE(results[i].cancelled);
        EXPECT_EQ(results[i].kind, alone[i].kind);
        EXPECT_EQ(bits_of(results[i]), bits_of(alone[i]));
        EXPECT_EQ(results[i].stats.nodes, alone[i].stats.nodes);
        EXPECT_EQ(results[i].stats.prunes, alone[i].stats.prunes);
        EXPECT_EQ(results[i].stats.contractions,
                  alone[i].stats.contractions);
      }
    }
  }
}

TEST(WaveInvariance, VerifierReportsIdenticalAcrossWidthsAndThreads) {
  const auto& f = *functionals::FindFunctional("LYP");
  const auto psi =
      conditions::BuildCondition(*conditions::FindCondition("EC1"), f);
  ASSERT_TRUE(psi.has_value());
  const auto domain = conditions::PaperDomain(f);

  auto run = [&](int width, int threads) {
    verifier::VerifierOptions opts;
    opts.split_threshold = 0.7;
    opts.solver.max_nodes = 1500;
    opts.solver.wave_width = width;
    opts.num_threads = threads;
    return verifier::Verifier(*psi, opts).Run(domain);
  };
  const auto ref = run(1, 1);
  for (const auto [width, threads] :
       {std::pair{8, 1}, std::pair{64, 1}, std::pair{8, 4}}) {
    const auto report = run(width, threads);
    ASSERT_EQ(report.leaves.size(), ref.leaves.size());
    for (std::size_t i = 0; i < ref.leaves.size(); ++i) {
      EXPECT_EQ(report.leaves[i].status, ref.leaves[i].status);
      ASSERT_EQ(report.leaves[i].box.size(), ref.leaves[i].box.size());
      for (std::size_t d = 0; d < ref.leaves[i].box.size(); ++d)
        EXPECT_EQ(report.leaves[i].box[d], ref.leaves[i].box[d]);
    }
    EXPECT_EQ(report.witnesses, ref.witnesses);
    EXPECT_EQ(report.solver_calls, ref.solver_calls);
  }
}

}  // namespace
}  // namespace xcv
