// Bit-identity tests for the batched SoA HC4 backward sweep and the SIMD
// dispatch layer underneath it:
//   1. ContractTapeIntervalBatch is bit-identical, lane by lane and endpoint
//      by endpoint, to the scalar oracle's Contract (tests/scalar_reference.h:
//      forward sweep + ContractFromForward) — across random tapes, the
//      optimized paper tapes, wave widths 1/7/64, boxes with empty, point,
//      ±inf, and zero-straddling dimensions, and every runnable XCV_SIMD
//      tier.
//   2. Inactive lanes pass through untouched with outcome kNoChange.
//   3. Every compiled-and-runnable XCV_SIMD tier (scalar, sse2, avx2,
//      avx512) produces the same output bits for the same wave — the
//      ISA-independence the campaign CSVs rely on.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "conditions/conditions.h"
#include "conditions/enhancement.h"
#include "expr/compile.h"
#include "expr/interval_backward_batch.h"
#include "expr/optimize.h"
#include "functionals/functional.h"
#include "support/simd.h"
#include "test_util.h"
#include "tests/scalar_reference.h"

namespace xcv {
namespace {

using testing::ForEachRunnableTier;
using testing::RandomExprGen;
using testing::Rng;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::vector<Interval>> TestBoxes(Rng& rng, std::size_t count,
                                             std::size_t dims) {
  std::vector<std::vector<Interval>> boxes(count);
  for (std::size_t k = 0; k < count; ++k) {
    boxes[k].reserve(dims);
    for (std::size_t d = 0; d < dims; ++d)
      boxes[k].push_back(rng.RandomInterval(-3.0, 4.0));
  }
  // The endpoint zoo: empty, point, half-infinite, entire, negative-only,
  // and zero-straddling dimensions (the divisor fixup path).
  if (count >= 9) {
    boxes[1][0] = Interval::Empty();
    boxes[2][dims - 1] = Interval(0.25);
    boxes[3][0] = Interval(1.0, kInf);
    boxes[4][dims - 1] = Interval(-kInf, -0.5);
    boxes[5][0] = Interval::Entire();
    boxes[6][dims % 2] = Interval(-2.0, -1.0);
    boxes[7][0] = Interval(0.0, 0.0);
    boxes[8][0] = Interval(-1.5, 2.0);
  }
  return boxes;
}

// Runs one batched wave (forward + backward) over boxes[start..start+n) and
// returns the narrowed SoA rows + outcomes.
struct WaveResult {
  std::vector<std::vector<double>> lo, hi;  // dims rows of n endpoints
  std::vector<signed char> outcome;
};

WaveResult RunWave(const expr::Tape& tape,
                   const std::vector<std::vector<Interval>>& boxes,
                   std::size_t start, std::size_t n,
                   const unsigned char* active) {
  const std::size_t dims = boxes.front().size();
  WaveResult w;
  w.lo.resize(dims);
  w.hi.resize(dims);
  std::vector<const double*> clop(dims), chip(dims);
  std::vector<double*> lop(dims), hip(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t k = 0; k < n; ++k) {
      w.lo[d].push_back(boxes[start + k][d].lo());
      w.hi[d].push_back(boxes[start + k][d].hi());
    }
    clop[d] = lop[d] = w.lo[d].data();
    chip[d] = hip[d] = w.hi[d].data();
  }
  w.outcome.assign(n, 127);
  expr::TapeIntervalBatchScratch fwd;
  expr::TapeBackwardBatchScratch bwd;
  expr::EvalTapeIntervalBatch(tape, clop, chip, n, fwd);
  expr::ContractTapeIntervalBatch(tape, fwd, lop, hip, n, active,
                                  w.outcome.data(), bwd);
  return w;
}

void ExpectBackwardMatchesScalar(const expr::Tape& tape,
                                 const std::vector<std::vector<Interval>>& boxes,
                                 std::size_t width) {
  const std::size_t dims = boxes.front().size();
  oracle::TapeScratch scratch;
  for (std::size_t start = 0; start < boxes.size(); start += width) {
    const std::size_t n = std::min(width, boxes.size() - start);
    const WaveResult w = RunWave(tape, boxes, start, n, nullptr);
    for (std::size_t k = 0; k < n; ++k) {
      std::vector<Interval> ref_box = boxes[start + k];
      const signed char oc = oracle::Contract(tape, ref_box, scratch);
      ASSERT_EQ(w.outcome[k], oc) << "lane " << k << " width " << width
                                  << " " << simd::TierName(simd::ActiveTier());
      for (std::size_t d = 0; d < dims; ++d) {
        EXPECT_EQ(Bits(w.lo[d][k]), Bits(ref_box[d].lo()))
            << "lo dim " << d << " lane " << k << " width " << width;
        EXPECT_EQ(Bits(w.hi[d][k]), Bits(ref_box[d].hi()))
            << "hi dim " << d << " lane " << k << " width " << width;
      }
    }
  }
}

expr::Expr Var(const char* name, int index) {
  return expr::Expr::Variable(name, index);
}

TEST(BackwardBatch, BitIdenticalOnRandomTapes) {
  Rng rng(23);
  RandomExprGen gen(rng, {Var("x", 0), Var("y", 1), Var("z", 2)});
  std::vector<expr::Tape> tapes;
  std::vector<std::vector<std::vector<Interval>>> boxes;
  for (int trial = 0; trial < 40; ++trial) {
    tapes.push_back(expr::CompileOptimized(gen.Gen(4)));
    boxes.push_back(TestBoxes(rng, 70, 3));
  }
  const int tiers = ForEachRunnableTier([&](simd::Tier) {
    for (std::size_t t = 0; t < tapes.size(); ++t)
      for (std::size_t width : {1u, 7u, 64u})
        ExpectBackwardMatchesScalar(tapes[t], boxes[t], width);
  });
  EXPECT_GE(tiers, 2) << "scalar and sse2 are always runnable";
}

TEST(BackwardBatch, BitIdenticalOnPaperTapes) {
  Rng rng(31);
  std::vector<expr::Tape> tapes;
  std::vector<std::vector<std::vector<Interval>>> boxes;
  for (const auto& f : functionals::PaperFunctionals()) {
    tapes.push_back(expr::CompileOptimized(
        expr::Neg(conditions::CorrelationEnhancement(f))));
    boxes.push_back(TestBoxes(rng, 70, 3));
  }
  ForEachRunnableTier([&](simd::Tier) {
    for (std::size_t t = 0; t < tapes.size(); ++t)
      for (std::size_t width : {1u, 7u, 64u})
        ExpectBackwardMatchesScalar(tapes[t], boxes[t], width);
  });
}

TEST(BackwardBatch, InactiveLanesUntouched) {
  Rng rng(47);
  RandomExprGen gen(rng, {Var("x", 0), Var("y", 1), Var("z", 2)});
  const expr::Tape tape = expr::CompileOptimized(gen.Gen(4));
  const auto boxes = TestBoxes(rng, 64, 3);
  std::vector<unsigned char> active(64);
  for (std::size_t k = 0; k < 64; ++k) active[k] = k % 2;
  ForEachRunnableTier([&](simd::Tier tier) {
    const WaveResult w = RunWave(tape, boxes, 0, 64, active.data());
    oracle::TapeScratch scratch;
    for (std::size_t k = 0; k < 64; ++k) {
      if (!active[k]) {
        EXPECT_EQ(w.outcome[k], expr::kContractLaneNoChange)
            << "lane " << k << " " << simd::TierName(tier);
        for (std::size_t d = 0; d < 3; ++d) {
          EXPECT_EQ(Bits(w.lo[d][k]), Bits(boxes[k][d].lo())) << "lane " << k;
          EXPECT_EQ(Bits(w.hi[d][k]), Bits(boxes[k][d].hi())) << "lane " << k;
        }
      } else {
        std::vector<Interval> ref_box = boxes[k];
        EXPECT_EQ(w.outcome[k], oracle::Contract(tape, ref_box, scratch))
            << "lane " << k << " " << simd::TierName(tier);
        for (std::size_t d = 0; d < 3; ++d) {
          EXPECT_EQ(Bits(w.lo[d][k]), Bits(ref_box[d].lo())) << "lane " << k;
          EXPECT_EQ(Bits(w.hi[d][k]), Bits(ref_box[d].hi())) << "lane " << k;
        }
      }
    }
  });
}

// ---- SIMD dispatch ----------------------------------------------------------

TEST(SimdDispatch, TierTableSane) {
  EXPECT_TRUE(simd::TierCompiled(simd::Tier::kScalar));
  EXPECT_TRUE(simd::TierCompiled(simd::Tier::kSse2));
  EXPECT_NE(simd::KernelsFor(simd::Tier::kScalar), nullptr);
  simd::Tier t;
  EXPECT_TRUE(simd::ParseTier("scalar", &t));
  EXPECT_EQ(t, simd::Tier::kScalar);
  EXPECT_TRUE(simd::ParseTier("avx512", &t));
  EXPECT_EQ(t, simd::Tier::kAvx512);
  EXPECT_FALSE(simd::ParseTier("neon", &t));
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
  // The active dispatch choice is always a runnable tier.
  EXPECT_TRUE(simd::TierSupported(simd::ActiveTier()));
}

// The same wave re-run under every runnable tier must produce identical
// output bits — endpoints and outcomes.
TEST(SimdDispatch, AllTiersBitIdentical) {
  Rng rng(59);
  RandomExprGen gen(rng, {Var("x", 0), Var("y", 1), Var("z", 2)});
  std::vector<expr::Tape> tapes;
  for (int trial = 0; trial < 8; ++trial)
    tapes.push_back(expr::CompileOptimized(gen.Gen(5)));
  for (const auto& f : functionals::PaperFunctionals())
    tapes.push_back(expr::CompileOptimized(
        expr::Neg(conditions::CorrelationEnhancement(f))));
  const auto boxes = TestBoxes(rng, 64, 3);

  struct TierRun {
    simd::Tier tier;
    std::vector<WaveResult> waves;
  };
  std::vector<TierRun> runs;
  ForEachRunnableTier([&](simd::Tier tier) {
    TierRun run{tier, {}};
    for (const auto& tape : tapes)
      run.waves.push_back(RunWave(tape, boxes, 0, boxes.size(), nullptr));
    runs.push_back(std::move(run));
  });
  ASSERT_GE(runs.size(), 2u) << "scalar and sse2 are always runnable";

  const TierRun& ref = runs.front();
  for (std::size_t r = 1; r < runs.size(); ++r) {
    const TierRun& cur = runs[r];
    for (std::size_t c = 0; c < tapes.size(); ++c) {
      const WaveResult& a = ref.waves[c];
      const WaveResult& b = cur.waves[c];
      for (std::size_t k = 0; k < boxes.size(); ++k) {
        EXPECT_EQ(a.outcome[k], b.outcome[k])
            << simd::TierName(cur.tier) << " tape " << c << " lane "
            << k;
        for (std::size_t d = 0; d < 3; ++d) {
          EXPECT_EQ(Bits(a.lo[d][k]), Bits(b.lo[d][k]))
              << simd::TierName(cur.tier) << " tape " << c << " lane "
              << k << " dim " << d;
          EXPECT_EQ(Bits(a.hi[d][k]), Bits(b.hi[d][k]))
              << simd::TierName(cur.tier) << " tape " << c << " lane "
              << k << " dim " << d;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xcv
