// The observability layer: metrics registry correctness under contention,
// Prometheus exposition formatting, and trace-span JSON structure +
// determinism (the --trace / XCV_TRACE_CLOCK=fixed acceptance behavior).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/json.h"

namespace xcv::obs {
namespace {

// ---- Instruments under contention ------------------------------------------

TEST(ObsMetrics, CounterIsExactUnderContention) {
  Registry reg;  // local registry: isolated from the process-global one
  Counter& c = reg.GetCounter("t_contended_total", "test");
  constexpr int kThreads = 8, kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<double>(kThreads * kPerThread));
}

TEST(ObsMetrics, GaugeDeltasBalanceUnderContention) {
  Registry reg;
  Gauge& g = reg.GetGauge("t_depth", "test");
  constexpr int kThreads = 8, kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) {
        g.Add(1.0);
        g.Add(-1.0);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(g.Value(), 0.0);
}

TEST(ObsMetrics, HistogramCountsEveryObservationUnderContention) {
  Registry reg;
  Histogram& h =
      reg.GetHistogram("t_latency_seconds", "test", {0.001, 0.01, 0.1});
  constexpr int kThreads = 8, kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.Observe(0.0005 * static_cast<double>(1 + (t + i) % 4));
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.TotalCount(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(ObsMetrics, DisabledMetricsObserveNothing) {
  Registry reg;
  Counter& c = reg.GetCounter("t_disabled_total", "test");
  Histogram& h = reg.GetHistogram("t_disabled_seconds", "test", {1.0});
  SetMetricsEnabled(false);
  c.Inc();
  h.Observe(0.5);
  SetMetricsEnabled(true);
  EXPECT_EQ(c.Value(), 0.0);
  EXPECT_EQ(h.TotalCount(), 0u);
  c.Inc();
  EXPECT_EQ(c.Value(), 1.0);
}

// ---- Prometheus exposition --------------------------------------------------

TEST(ObsMetrics, RendersFamiliesSortedWithHelpAndType) {
  Registry reg;
  reg.GetCounter("t_bbb_total", "second family").Inc();
  reg.GetGauge("t_aaa", "first family").Set(3.0);
  const std::string text = reg.RenderPrometheus();
  const std::size_t a = text.find("# HELP t_aaa first family\n");
  const std::size_t b = text.find("# HELP t_bbb_total second family\n");
  ASSERT_NE(a, std::string::npos) << text;
  ASSERT_NE(b, std::string::npos) << text;
  EXPECT_LT(a, b);  // sorted by family name
  EXPECT_NE(text.find("# TYPE t_aaa gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_bbb_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("t_aaa 3\n"), std::string::npos);
  EXPECT_NE(text.find("t_bbb_total 1\n"), std::string::npos);
}

TEST(ObsMetrics, SeriesSortByLabelValuesAndEscape) {
  Registry reg;
  // Registered out of order; rendered sorted by label value. The "weird"
  // value exercises all three label escapes.
  reg.GetCounter("t_lk_total", "labeled", {"route"}, {"zeta"}).Add(2.0);
  reg.GetCounter("t_lk_total", "labeled", {"route"}, {"alpha"}).Inc();
  reg.GetCounter("t_lk_total", "labeled", {"route"}, {"a\\b\"c\nd"}).Inc();
  const std::string text = reg.RenderPrometheus();
  const std::size_t esc =
      text.find("t_lk_total{route=\"a\\\\b\\\"c\\nd\"} 1\n");
  const std::size_t alpha = text.find("t_lk_total{route=\"alpha\"} 1\n");
  const std::size_t zeta = text.find("t_lk_total{route=\"zeta\"} 2\n");
  ASSERT_NE(esc, std::string::npos) << text;
  ASSERT_NE(alpha, std::string::npos) << text;
  ASSERT_NE(zeta, std::string::npos) << text;
  EXPECT_LT(esc, alpha);  // raw '\\' < 'a' — sorted by unescaped value
  EXPECT_LT(alpha, zeta);
}

TEST(ObsMetrics, HistogramRendersCumulativeBuckets) {
  Registry reg;
  Histogram& h = reg.GetHistogram("t_h_seconds", "test", {1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(5.0);
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("t_h_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("t_h_seconds_bucket{le=\"2\"} 2\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("t_h_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("t_h_seconds_sum 7\n"), std::string::npos) << text;
  EXPECT_NE(text.find("t_h_seconds_count 3\n"), std::string::npos) << text;
}

TEST(ObsMetrics, DeclaredFamilyRendersHeadersBeforeItsFirstSeries) {
  Registry reg;
  reg.Declare("t_decl_total", "declared", MetricType::kCounter, {"route"});
  EXPECT_EQ(reg.RenderPrometheus(),
            "# HELP t_decl_total declared\n# TYPE t_decl_total counter\n");
  reg.GetCounter("t_decl_total", "declared", {"route"}, {"a"}).Inc();
  EXPECT_NE(reg.RenderPrometheus().find("t_decl_total{route=\"a\"} 1\n"),
            std::string::npos);
  EXPECT_THROW(reg.GetCounter("t_decl_total", "declared", {"code"}, {"a"}),
               std::logic_error);
}

TEST(ObsMetrics, RejectsMismatchedReRegistration) {
  Registry reg;
  reg.GetCounter("t_clash_total", "test", {"a"}, {"x"});
  EXPECT_THROW(reg.GetGauge("t_clash_total", "test"), std::logic_error);
  EXPECT_THROW(reg.GetCounter("t_clash_total", "test", {"b"}, {"x"}),
               std::logic_error);
}

TEST(ObsMetrics, CounterTotalSumsAcrossSeries) {
  Registry reg;
  reg.GetCounter("t_sum_total", "test", {"k"}, {"one"}).Add(3.0);
  reg.GetCounter("t_sum_total", "test", {"k"}, {"two"}).Add(4.0);
  EXPECT_EQ(reg.CounterTotal("t_sum_total"), 7.0);
  EXPECT_EQ(reg.CounterTotal("t_absent_total"), 0.0);
}

TEST(ObsMetrics, FormatsValuesForExposition) {
  EXPECT_EQ(FormatMetricValue(0.0), "0");
  EXPECT_EQ(FormatMetricValue(42.0), "42");
  EXPECT_EQ(FormatMetricValue(-7.0), "-7");
  EXPECT_EQ(FormatMetricValue(0.5), "0.5");
  // Round-trips exactly.
  const std::string pi = FormatMetricValue(3.141592653589793);
  EXPECT_EQ(std::strtod(pi.c_str(), nullptr), 3.141592653589793);
}

// ---- Trace spans ------------------------------------------------------------

/// Arms the global recorder with a plain counter clock (1µs per read) and
/// runs `body`; returns the rendered trace. Injected clock = deterministic.
template <typename Fn>
std::string RecordTrace(Fn&& body) {
  TraceRecorder& rec = TraceRecorder::Global();
  std::atomic<std::uint64_t> now{0};
  rec.StartWithClock(
      [&now] { return now.fetch_add(1, std::memory_order_relaxed) + 1; });
  body();
  return rec.Stop();
}

TEST(ObsTrace, ProducesWellFormedNestedTraceJson) {
  const std::string text = RecordTrace([] {
    Span outer("job");
    outer.Arg("pairs", std::uint64_t{2});
    {
      Span inner("solve");
      inner.Arg("result", std::string("unsat"));
    }
    TraceRecorder::Global().RecordAsync("pair lda:EC1", "xcv", 'b', 7);
    TraceRecorder::Global().RecordAsync("pair lda:EC1", "xcv", 'e', 7);
    Instant("note", "xcv", "\"n\":1");
  });

  // Parses as JSON (the structural check the CI smoke also runs).
  const json::JsonValue root = json::ParseJson(text);
  const auto& events = root.At("traceEvents").array;
  ASSERT_GE(events.size(), 6u);  // metadata + outer + inner + b + e + i

  // Event 0 is the process_name metadata record.
  EXPECT_EQ(events[0].At("ph").AsString(), "M");

  // Find the named events and check their shapes.
  const json::JsonValue* outer = nullptr;
  const json::JsonValue* inner = nullptr;
  const json::JsonValue* begin = nullptr;
  const json::JsonValue* end = nullptr;
  const json::JsonValue* instant = nullptr;
  for (const json::JsonValue& e : events) {
    if (const json::JsonValue* n = e.Find("name")) {
      if (n->AsString() == "job") outer = &e;
      if (n->AsString() == "solve") inner = &e;
      if (n->AsString() == "note") instant = &e;
      if (n->AsString() == "pair lda:EC1") {
        if (e.At("ph").AsString() == "b") begin = &e;
        if (e.At("ph").AsString() == "e") end = &e;
      }
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(begin, nullptr);
  ASSERT_NE(end, nullptr);
  ASSERT_NE(instant, nullptr);

  // Nesting: the inner complete event lies strictly inside the outer one.
  const double outer_ts = outer->At("ts").AsDouble();
  const double outer_end = outer_ts + outer->At("dur").AsDouble();
  const double inner_ts = inner->At("ts").AsDouble();
  const double inner_end = inner_ts + inner->At("dur").AsDouble();
  EXPECT_GT(inner_ts, outer_ts);
  EXPECT_LT(inner_end, outer_end);

  // Args landed on the right events.
  EXPECT_EQ(outer->At("args").At("pairs").AsDouble(), 2.0);
  EXPECT_EQ(inner->At("args").At("result").AsString(), "unsat");

  // Async b/e share the id; the instant is thread-scoped.
  EXPECT_EQ(begin->At("id").AsDouble(), 7.0);
  EXPECT_EQ(end->At("id").AsDouble(), 7.0);
  EXPECT_EQ(instant->At("s").AsString(), "t");
}

TEST(ObsTrace, DeterministicClockReplaysByteIdentically) {
  auto run = [] {
    return RecordTrace([] {
      Span job("job");
      job.Arg("pairs", std::uint64_t{1});
      {
        Span solve("solve");
        solve.Arg("nodes", std::uint64_t{123});
      }
      Instant("coordinator-event", "coordinator", "\"epoch\":0");
    });
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);  // byte-identical replay
  EXPECT_FALSE(first.empty());
}

TEST(ObsTrace, DisarmedSpansRecordNothing) {
  // No Start(): spans and instants must be no-ops...
  {
    Span s("ghost");
    s.Arg("k", std::uint64_t{1});
    Instant("ghost-instant");
  }
  // ...so a subsequent trace contains only its own events.
  const std::string text = RecordTrace([] { Span s("real"); });
  EXPECT_EQ(text.find("ghost"), std::string::npos);
  EXPECT_NE(text.find("real"), std::string::npos);
}

TEST(ObsTrace, TryStartIsExclusive) {
  TraceRecorder& rec = TraceRecorder::Global();
  ASSERT_TRUE(rec.TryStart());
  EXPECT_FALSE(rec.TryStart());  // second claimant loses
  rec.Stop();
  EXPECT_TRUE(rec.TryStart());  // free again after Stop
  rec.Stop();
}

}  // namespace
}  // namespace xcv::obs
