#include <algorithm>

#include <gtest/gtest.h>

#include "report/ascii_plot.h"
#include "report/consistency.h"
#include "report/tables.h"

namespace xcv::report {
namespace {

using solver::Box;
using verifier::Region;
using verifier::RegionStatus;
using verifier::VerificationReport;

VerificationReport TwoLeafReport() {
  VerificationReport r;
  r.leaves.push_back({Box({Interval(0.0, 2.5), Interval(0.0, 5.0)}),
                      RegionStatus::kVerified,
                      {}});
  r.leaves.push_back({Box({Interval(2.5, 5.0), Interval(0.0, 5.0)}),
                      RegionStatus::kCounterexample,
                      {3.0, 2.0}});
  r.witnesses.push_back({3.0, 2.0});
  return r;
}

gridsearch::PbResult FakePb(bool violation) {
  gridsearch::PbResult pb{
      .violated = {},
      .grid = gridsearch::Grid({{0.0, 5.0, 10}, {0.0, 5.0, 10}})};
  pb.violated.assign(pb.grid.TotalPoints(), 0);
  if (violation) {
    // Flag points near (3, 2).
    for (std::size_t i = 0; i < pb.grid.TotalPoints(); ++i) {
      const auto p = pb.grid.Point(i);
      if (p[0] > 2.5 && p[1] > 1.0 && p[1] < 3.5) pb.violated[i] = 1;
    }
  }
  std::size_t count = 0;
  std::vector<Interval> bounds(2, Interval::Empty());
  for (std::size_t i = 0; i < pb.grid.TotalPoints(); ++i)
    if (pb.violated[i]) {
      ++count;
      const auto p = pb.grid.Point(i);
      bounds[0] = bounds[0].Hull(Interval(p[0]));
      bounds[1] = bounds[1].Hull(Interval(p[1]));
    }
  pb.any_violation = count > 0;
  pb.violation_fraction =
      static_cast<double>(count) / static_cast<double>(pb.grid.TotalPoints());
  pb.violation_bounds = bounds;
  return pb;
}

TEST(AsciiPlot, RegionsShowStatusCharsAndLegend) {
  const auto report = TwoLeafReport();
  const Box domain({Interval(0.0, 5.0), Interval(0.0, 5.0)});
  const std::string plot = PlotRegions(report, domain);
  EXPECT_NE(plot.find('.'), std::string::npos);   // verified
  EXPECT_NE(plot.find('#'), std::string::npos);   // counterexample
  EXPECT_NE(plot.find('x'), std::string::npos);   // witness marker
  EXPECT_NE(plot.find("legend:"), std::string::npos);
  // 24 plot rows by default.
  PlotOptions small;
  small.width = 10;
  small.height = 5;
  small.show_legend = false;
  const std::string tiny = PlotRegions(report, domain, small);
  EXPECT_EQ(std::count(tiny.begin(), tiny.end(), '\n'), 5 + 2);
}

TEST(AsciiPlot, OneDimensionalDomain) {
  VerificationReport r;
  r.leaves.push_back(
      {Box({Interval(0.0, 5.0)}), RegionStatus::kVerified, {}});
  const std::string plot = PlotRegions(r, Box({Interval(0.0, 5.0)}));
  EXPECT_NE(plot.find('.'), std::string::npos);
}

TEST(AsciiPlot, PbGridDistinguishesViolations) {
  PlotOptions no_legend;
  no_legend.show_legend = false;  // the legend itself contains '#'
  const std::string with = PlotPbGrid(FakePb(true), no_legend);
  EXPECT_NE(with.find('#'), std::string::npos);
  EXPECT_NE(with.find('.'), std::string::npos);
  const std::string without = PlotPbGrid(FakePb(false), no_legend);
  EXPECT_EQ(without.find('#'), std::string::npos);
}

TEST(Consistency, NotApplicable) {
  EXPECT_EQ(Compare(std::nullopt, TwoLeafReport()),
            Consistency::kNotApplicable);
}

TEST(Consistency, UnknownWhenVerifierAllTimeout) {
  VerificationReport r;
  r.leaves.push_back(
      {Box({Interval(0.0, 5.0), Interval(0.0, 5.0)}),
       RegionStatus::kTimeout,
       {}});
  EXPECT_EQ(Compare(FakePb(true), r), Consistency::kUnknown);
}

TEST(Consistency, ConsistentWhenWitnessesInsidePbRegion) {
  EXPECT_EQ(Compare(FakePb(true), TwoLeafReport()),
            Consistency::kConsistent);
}

TEST(Consistency, NotInconsistentWhenNeitherFinds) {
  VerificationReport clean;
  clean.leaves.push_back({Box({Interval(0.0, 5.0), Interval(0.0, 5.0)}),
                          RegionStatus::kVerified,
                          {}});
  EXPECT_EQ(Compare(FakePb(false), clean), Consistency::kNotInconsistent);
}

TEST(Consistency, MismatchWhenVerifierRefutesPbViolation) {
  VerificationReport clean;
  clean.leaves.push_back({Box({Interval(0.0, 5.0), Interval(0.0, 5.0)}),
                          RegionStatus::kVerified,
                          {}});
  EXPECT_EQ(Compare(FakePb(true), clean), Consistency::kMismatch);
}

TEST(Consistency, NotInconsistentWhenViolationHidesInTimeout) {
  VerificationReport partial;
  partial.leaves.push_back({Box({Interval(0.0, 2.5), Interval(0.0, 5.0)}),
                            RegionStatus::kVerified,
                            {}});
  partial.leaves.push_back({Box({Interval(2.5, 5.0), Interval(0.0, 5.0)}),
                            RegionStatus::kTimeout,
                            {}});
  EXPECT_EQ(Compare(FakePb(true), partial),
            Consistency::kNotInconsistent);
}

TEST(Consistency, MismatchWhenOnlyVerifierFinds) {
  EXPECT_EQ(Compare(FakePb(false), TwoLeafReport()),
            Consistency::kMismatch);
}

TEST(Consistency, Symbols) {
  EXPECT_EQ(ConsistencySymbol(Consistency::kConsistent), "J");
  EXPECT_EQ(ConsistencySymbol(Consistency::kNotInconsistent), "J*");
  EXPECT_EQ(ConsistencySymbol(Consistency::kUnknown), "?");
  EXPECT_EQ(ConsistencySymbol(Consistency::kNotApplicable), "−");
  EXPECT_EQ(ConsistencySymbol(Consistency::kMismatch), "!");
}

TEST(Tables, Table1RendersSymbolsAndLegend) {
  std::vector<std::vector<VerdictCell>> cells{
      {{verifier::Verdict::kVerified}, {verifier::Verdict::kCounterexample}},
      {{verifier::Verdict::kVerifiedPartial},
       {verifier::Verdict::kNotApplicable}}};
  const std::string out =
      RenderTable1({"EC1", "EC4"}, {"PBE", "LYP"}, cells);
  EXPECT_NE(out.find("✓"), std::string::npos);
  EXPECT_NE(out.find("✗"), std::string::npos);
  EXPECT_NE(out.find("✓*"), std::string::npos);
  EXPECT_NE(out.find("−"), std::string::npos);
  EXPECT_NE(out.find("Legend"), std::string::npos);
}

TEST(Tables, Table2RendersConsistency) {
  std::vector<std::vector<Consistency>> cells{
      {Consistency::kConsistent, Consistency::kNotInconsistent},
      {Consistency::kUnknown, Consistency::kNotApplicable}};
  const std::string out =
      RenderTable2({"EC1", "EC4"}, {"PBE", "SCAN"}, cells);
  EXPECT_NE(out.find("J"), std::string::npos);
  EXPECT_NE(out.find("J*"), std::string::npos);
  EXPECT_NE(out.find("Legend"), std::string::npos);
}

}  // namespace
}  // namespace xcv::report
