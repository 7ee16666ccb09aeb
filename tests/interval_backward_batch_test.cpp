// Bit-identity tests for the batched SoA HC4 backward sweep and the SIMD
// dispatch layer underneath it:
//   1. ContractTapeIntervalBatch is bit-identical, lane by lane and endpoint
//      by endpoint, to the scalar oracle's Contract (tests/scalar_reference.h:
//      forward sweep + ContractFromForward) — across random tapes, the
//      optimized paper tapes, wave widths 1/7/64, boxes with empty, point,
//      ±inf, and zero-straddling dimensions, and every runnable XCV_SIMD
//      tier.
//   2. Inactive lanes pass through untouched with outcome kNoChange.
//   3. The catalogue audit: every atom of every applicable pair (7
//      functionals x EC1..EC7), over the paper domain's bisection tree and
//      an endpoint zoo, run for two fixpoint rounds as the solver does,
//      matches the oracle — the guard on which ops may skip projections
//      from clean slots.
//   4. Every compiled-and-runnable XCV_SIMD tier (scalar, sse2, avx2,
//      avx512) produces the same output bits for the same wave — the
//      ISA-independence the campaign CSVs rely on.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "conditions/conditions.h"
#include "conditions/enhancement.h"
#include "expr/compile.h"
#include "expr/interval_backward_batch.h"
#include "expr/bool_expr.h"
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

// ---- Catalogue audit ---------------------------------------------------------

using BoxList = std::vector<std::vector<Interval>>;

// The paper domain, every box of its split-all-dimensions bisection tree
// down to `depth` levels, and the endpoint zoo: each dimension of the
// domain in turn replaced by an empty, point (the lower domain edge, where
// pow inverses used to cut), half-infinite, entire, negative-only, zero, or
// zero-straddling interval.
BoxList AuditBoxes(std::span<const Interval> dims, int depth) {
  const std::vector<Interval> domain(dims.begin(), dims.end());
  BoxList boxes{domain};
  std::size_t level_begin = 0;
  for (int level = 0; level < depth; ++level) {
    const std::size_t level_end = boxes.size();
    for (std::size_t b = level_begin; b < level_end; ++b) {
      BoxList children{{}};
      for (const Interval& iv : boxes[b]) {
        Interval left, right;
        iv.Bisect(&left, &right);
        BoxList next;
        for (const auto& c : children)
          for (const Interval& half : {left, right}) {
            next.push_back(c);
            next.back().push_back(half);
          }
        children = std::move(next);
      }
      boxes.insert(boxes.end(), children.begin(), children.end());
    }
    level_begin = level_end;
  }
  for (std::size_t d = 0; d < domain.size(); ++d) {
    for (const Interval& zoo :
         {Interval::Empty(), Interval(domain[d].lo()),
          Interval(domain[d].lo(), kInf), Interval::Entire(),
          Interval(-2.0, -1.0), Interval(0.0, 0.0), Interval(-1.5, 2.0)}) {
      boxes.push_back(domain);
      boxes.back()[d] = zoo;
    }
  }
  return boxes;
}

// Runs `rounds` HC4 rounds over the boxes in waves of `width` lanes the way
// the solver's fixpoint does (a round sweeps the lanes the previous round
// contracted, from their narrowed boxes) and returns the lanes whose outcome
// or box bits differ from the oracle's in any round.
std::size_t OracleMismatches(const expr::Tape& tape, const BoxList& boxes,
                             std::size_t width, int rounds,
                             std::size_t* lanes) {
  const std::size_t dims = boxes.front().size();
  std::size_t bad = 0;
  oracle::TapeScratch scratch;
  expr::TapeIntervalBatchScratch fwd;
  expr::TapeBackwardBatchScratch bwd;
  std::vector<std::vector<double>> lo(dims), hi(dims);
  std::vector<const double*> clop(dims), chip(dims);
  std::vector<double*> lop(dims), hip(dims);
  for (std::size_t start = 0; start < boxes.size(); start += width) {
    const std::size_t n = std::min(width, boxes.size() - start);
    BoxList ref(boxes.begin() + static_cast<std::ptrdiff_t>(start),
                boxes.begin() + static_cast<std::ptrdiff_t>(start + n));
    for (std::size_t d = 0; d < dims; ++d) {
      lo[d].resize(n);
      hi[d].resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        lo[d][k] = ref[k][d].lo();
        hi[d][k] = ref[k][d].hi();
      }
      clop[d] = lop[d] = lo[d].data();
      chip[d] = hip[d] = hi[d].data();
    }
    std::vector<unsigned char> active(n, 1), lane_bad(n, 0);
    std::vector<signed char> outcome(n);
    for (int round = 0; round < rounds; ++round) {
      expr::EvalTapeIntervalBatch(tape, clop, chip, n, fwd);
      expr::ContractTapeIntervalBatch(tape, fwd, lop, hip, n, active.data(),
                                      outcome.data(), bwd);
      for (std::size_t k = 0; k < n; ++k) {
        if (!active[k]) continue;
        *lanes += 1;
        const signed char oc = oracle::Contract(tape, ref[k], scratch);
        bool same = outcome[k] == oc;
        for (std::size_t d = 0; d < dims; ++d)
          same = same && Bits(lo[d][k]) == Bits(ref[k][d].lo()) &&
                 Bits(hi[d][k]) == Bits(ref[k][d].hi());
        lane_bad[k] |= !same;
        active[k] = same && oc == expr::kContractLaneContracted;
      }
    }
    for (unsigned char b : lane_bad) bad += b;
  }
  return bad;
}

TEST(BackwardBatch, CatalogueAtomsMatchOracleOverTwoRounds) {
  struct Audit {
    std::string pair;
    expr::Tape tape;
    BoxList boxes;
  };
  std::vector<Audit> audits;
  std::vector<functionals::Functional> catalogue =
      functionals::PaperFunctionals();
  for (const auto& f : functionals::ExtensionFunctionals())
    catalogue.push_back(f);
  for (const auto& f : catalogue) {
    const BoxList boxes = AuditBoxes(conditions::PaperDomain(f).dims(), 2);
    for (const auto& cond : conditions::AllConditions()) {
      const auto psi = conditions::BuildCondition(cond, f);
      if (!psi.has_value()) continue;
      const expr::CompiledFormula formula(expr::BoolExpr::Not(*psi));
      for (const auto& atom : formula.atoms())
        audits.push_back(
            {f.name + " " + cond.short_id, expr::Optimize(atom.tape), boxes});
    }
  }
  ASSERT_EQ(catalogue.size(), 7u);
  // The catalogue's log and W0 arguments stay inside their domains on these
  // boxes, so a probe per domain-restricting inverse, U(x) - 1 <= 0 over x
  // across the domain edge, audits each one narrowing from a clean parent.
  const expr::Expr x = Var("x", 0);
  for (const expr::Expr& u : {expr::LogE(x), expr::SqrtE(x),
                              expr::LambertW0E(x)}) {
    audits.push_back({"probe " + u.ToString(),
                      expr::CompileOptimized(u - 1.0),
                      AuditBoxes(std::vector{Interval(-1.5, 2.0)}, 2)});
  }

  std::size_t lanes = 0;
  auto audit = [&](std::size_t width) {
    for (const Audit& a : audits) {
      const std::size_t bad = OracleMismatches(a.tape, a.boxes, width, 2,
                                               &lanes);
      EXPECT_EQ(bad, 0u) << a.pair << " width " << width << " "
                         << simd::TierName(simd::ActiveTier());
    }
  };
  const int tiers = ForEachRunnableTier([&](simd::Tier) { audit(7); });
  EXPECT_GE(tiers, 2) << "scalar and sse2 are always runnable";
  audit(1);
  audit(64);
  RecordProperty("lanes", static_cast<int>(lanes));
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
