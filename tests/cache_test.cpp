// Persistent verdict cache: round-trip exactness, warm and partially warm
// replay equality with cache-less runs (also with concurrent workers at
// every wave width), options-hash (in)sensitivity, the solver's trust rules
// for cache hits and the repair of poisoned entries, corrupt-file
// degradation, the change generation that spares an unchanged file its
// rewrite, and concurrent saves.
#include <sys/stat.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/verdict_cache.h"
#include "campaign/campaign.h"
#include "campaign/serialize.h"
#include "conditions/conditions.h"
#include "expr/optimize.h"
#include "functionals/functional.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/icp.h"
#include "support/check.h"
#include "support/fnv.h"
#include "support/io.h"
#include "support/json.h"
#include "verifier/verifier.h"

namespace xcv::cache {
namespace {

using campaign::Campaign;
using campaign::CampaignOptions;
using campaign::CampaignResult;
using campaign::PairState;
using conditions::ConditionInfo;
using functionals::Functional;
using solver::Box;

// Budget-free, hence fully deterministic, options coarse enough for a small
// matrix to finish in well under a second (mirrors campaign_test).
verifier::VerifierOptions FastOptions() {
  verifier::VerifierOptions o;
  o.split_threshold = 0.7;
  o.solver.max_nodes = 4'000;
  o.solver.delta = 1e-3;
  return o;
}

CampaignOptions FastCampaignOptions() {
  CampaignOptions o;
  o.verifier = FastOptions();
  o.tune_lda_delta = false;
  return o;
}

std::vector<const Functional*> LdaPbeMatrix() {
  return {functionals::FindFunctional("VWN_RPA"),
          functionals::FindFunctional("PBE")};
}

std::vector<const ConditionInfo*> TestConditions() {
  return {conditions::FindCondition("EC1"), conditions::FindCondition("EC2")};
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A file's identity on disk: the atomic save (temp file + rename) gives
/// the path a new inode, while an untouched file keeps inode and mtime.
std::pair<ino_t, std::int64_t> InodeAndMtime(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return {0, 0};
  return {st.st_ino,
          std::int64_t{st.st_mtim.tv_sec} * 1'000'000'000 + st.st_mtim.tv_nsec};
}

std::uint64_t SolverCalls(const CampaignResult& result) {
  std::uint64_t calls = 0;
  for (const PairState& p : result.pairs) calls += p.report.solver_calls;
  return calls;
}

CampaignResult RunMatrixCampaign(CampaignOptions options) {
  Campaign c(std::move(options));
  for (const ConditionInfo* cond : TestConditions())
    for (const Functional* f : LdaPbeMatrix()) c.Add(*f, *cond);
  return c.Run();
}

// The deterministic face of a result: everything except timing and cache
// counters. Byte-equality of this string is the "cache never changes
// verdicts" acceptance bar.
std::string DeterministicFace(CampaignResult result) {
  for (PairState& p : result.pairs) {
    p.seconds = 0.0;
    p.report.seconds = 0.0;
    p.report.solver_calls = 0;
    p.report.solver_timeouts = 0;
    p.report.cache_hits = 0;
    p.report.cache_misses = 0;
    p.report.cache_rejected = 0;
  }
  return CheckpointToJson(FastCampaignOptions(), result.pairs, false);
}

TEST(VerdictCache, StoreLookupExactBoxMatch) {
  VerdictCache cache;
  const std::vector<Interval> box{Interval(0.5, 2.0), Interval(-0.0, 1.0)};
  CachedVerdict v;
  v.kind = CachedKind::kUnsat;
  v.nodes = 41;
  cache.Store(123, box, v);

  CachedVerdict out;
  EXPECT_TRUE(cache.Lookup(123, box, &out));
  EXPECT_EQ(out.kind, CachedKind::kUnsat);
  EXPECT_EQ(out.nodes, 41u);
  // Different scope, same box: miss.
  EXPECT_FALSE(cache.Lookup(124, box, &out));
  // Same scope, endpoint off by one bit pattern (-0.0 vs 0.0): miss.
  const std::vector<Interval> zero{Interval(0.5, 2.0), Interval(0.0, 1.0)};
  EXPECT_FALSE(cache.Lookup(123, zero, &out));
  EXPECT_EQ(cache.size(), 1u);
}

// A (scope, box) a document repeats keeps its first entry: the cache holds,
// writes and erases it once, whether read from text or from a file.
TEST(VerdictCache, RepeatedKeyKeepsItsFirstEntry) {
  const std::vector<Interval> box{Interval(0.0, 1.0)};
  const std::string text =
      "{\"format\": \"xcv-verdict-cache\", \"version\": 1, "
      "\"schema_version\": 1, \"entries\": [\n"
      "  {\"scope\": \"0000000000000005\", \"box\": [[0, 1]], "
      "\"kind\": \"unsat\", \"nodes\": 4},\n"
      "  {\"scope\": \"0000000000000005\", \"box\": [[0, 1]], "
      "\"kind\": \"timeout\", \"nodes\": 9}\n]}\n";
  VerdictCache first_only;
  first_only.Store(5, box, CachedVerdict{CachedKind::kUnsat, {}, {}, 4});

  const std::string path = TempPath("cache_repeated_key.json");
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
  }
  VerdictCache parsed;
  VerdictCache loaded;
  ASSERT_TRUE(parsed.FromJson(text));
  ASSERT_TRUE(loaded.Load(path));
  for (VerdictCache* cache : {&parsed, &loaded}) {
    EXPECT_EQ(cache->size(), 1u);
    CachedVerdict out;
    ASSERT_TRUE(cache->Lookup(5, box, &out));
    EXPECT_EQ(out.kind, CachedKind::kUnsat);
    EXPECT_EQ(out.nodes, 4u);
    EXPECT_EQ(cache->ToJson(), first_only.ToJson());
    EXPECT_TRUE(cache->Erase(5, box));
    EXPECT_FALSE(cache->Lookup(5, box, &out));
    EXPECT_FALSE(cache->Erase(5, box));
    EXPECT_EQ(cache->size(), 0u);
  }
  std::remove(path.c_str());
}

TEST(VerdictCache, JsonRoundTripsGnarlyDoublesExactly) {
  VerdictCache cache;
  const double denormal = 5e-324;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Interval> box{Interval(-0.0, denormal),
                                  Interval(1.0 / 3.0, inf)};
  CachedVerdict v;
  v.kind = CachedKind::kDeltaSat;
  v.model = {2.0 / 3.0, 1e-300};
  v.model_box = {Interval(0.5, 0.75), Interval(1e-301, 1e-299)};
  v.nodes = 7;
  cache.Store(0xdeadbeefull, box, v);

  VerdictCache reloaded;
  ASSERT_TRUE(reloaded.FromJson(cache.ToJson()));
  EXPECT_EQ(reloaded.size(), 1u);
  CachedVerdict out;
  ASSERT_TRUE(reloaded.Lookup(0xdeadbeefull, box, &out));
  EXPECT_EQ(out.kind, CachedKind::kDeltaSat);
  EXPECT_EQ(out.model, v.model);
  ASSERT_EQ(out.model_box.size(), 2u);
  EXPECT_EQ(out.model_box[0].lo(), 0.5);
  EXPECT_EQ(out.model_box[1].hi(), 1e-299);
  EXPECT_EQ(out.nodes, 7u);
  // Canonical entry order makes serialization a fixed point.
  EXPECT_EQ(reloaded.ToJson(), cache.ToJson());
}

TEST(VerdictCache, CorruptOrTruncatedFilesDegradeToCold) {
  VerdictCache cache;
  EXPECT_FALSE(cache.FromJson("{garbage"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.FromJson("{\"format\": \"something-else\"}"));
  // Truncated mid-document.
  VerdictCache full;
  full.Store(1, std::vector<Interval>{Interval(0.0, 1.0)}, CachedVerdict{});
  const std::string json = full.ToJson();
  EXPECT_FALSE(cache.FromJson(json.substr(0, json.size() / 2)));
  EXPECT_EQ(cache.size(), 0u);
  // Missing file.
  EXPECT_FALSE(cache.Load(TempPath("does-not-exist.json")));
}

// An entry whose node count is not a counter (negative, NaN, fractional,
// beyond 2^53) is refused before it is narrowed, even in a file whose
// checksum holds; the load keeps the entries before it.
TEST(VerdictCache, OutOfRangeNodeCountsRefuseTheEntry) {
  VerdictCache full;
  for (std::uint64_t scope : {1u, 2u, 3u})
    full.Store(scope, std::vector<Interval>{Interval(0.0, 1.0)},
               CachedVerdict{CachedKind::kUnsat, {}, {}, 10 + scope});
  const std::string json = full.ToJson();
  const std::string second = "\"nodes\": 12";
  ASSERT_NE(json.find(second), std::string::npos);
  const std::string path = TempPath("cache_bad_nodes.json");
  for (const char* bad : {"-1", "\"nan\"", "2.5", "1e300"}) {
    std::string text = json;
    text.replace(text.find(second), second.size(),
                 std::string("\"nodes\": ") + bad);
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << support::AddDocumentChecksum(text);
    }
    VerdictCache cache;
    support::LoadOutcome outcome;
    EXPECT_TRUE(cache.Load(path, &outcome)) << bad;
    EXPECT_TRUE(outcome.salvaged) << bad;
    EXPECT_EQ(outcome.records, 1u) << bad;
    EXPECT_EQ(outcome.quarantine_path, path + ".corrupt") << bad;
    ASSERT_EQ(cache.size(), 1u) << bad;
    CachedVerdict kept;
    ASSERT_TRUE(cache.Lookup(1, std::vector<Interval>{Interval(0.0, 1.0)},
                             &kept));
    EXPECT_EQ(kept.nodes, 11u);
  }
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

TEST(VerdictCache, WarmCampaignReplaysByteIdenticalAndSkipsSolverCalls) {
  const std::string path = TempPath("cache_roundtrip.json");
  std::remove(path.c_str());

  // Reference: no cache at all.
  const CampaignResult bare = RunMatrixCampaign(FastCampaignOptions());

  // Cold run populates the cache file.
  CampaignOptions with_cache = FastCampaignOptions();
  with_cache.cache_path = path;
  const CampaignResult cold = RunMatrixCampaign(with_cache);
  EXPECT_FALSE(cold.cache_was_warm);
  EXPECT_GT(cold.cache_entries, 0u);
  EXPECT_EQ(cold.CacheHits(), 0u);

  // Warm run replays it.
  const CampaignResult warm = RunMatrixCampaign(with_cache);
  EXPECT_TRUE(warm.cache_was_warm);
  EXPECT_GT(warm.CacheHits(), 0u);
  EXPECT_EQ(warm.CacheRejected(), 0u);

  // The cache may only skip work, never change verdicts.
  EXPECT_EQ(DeterministicFace(bare), DeterministicFace(cold));
  EXPECT_EQ(DeterministicFace(bare), DeterministicFace(warm));

  // ... and it must actually skip: every deterministic verdict replays, so
  // the warm run does far fewer than half the cold run's solver calls.
  EXPECT_GT(SolverCalls(cold), 0u);
  EXPECT_LE(SolverCalls(warm) * 2, SolverCalls(cold));
  std::remove(path.c_str());
}

// Split fine enough that the open frontier runs to hundreds of boxes, far
// wider than any batch, so concurrent workers decide batches of one pair
// side by side.
CampaignOptions FineCampaignOptions() {
  CampaignOptions o = FastCampaignOptions();
  o.verifier.split_threshold = 0.1;
  o.verifier.solver.max_nodes = 50;
  return o;
}

TEST(VerdictCache, MultiThreadedWarmReplayAtEveryWaveWidth) {
  const CampaignOptions base = FineCampaignOptions();
  const std::string bare = DeterministicFace(RunMatrixCampaign(base));

  const std::string path = TempPath("cache_mt_replay.json");
  std::remove(path.c_str());
  CampaignOptions cached = base;
  cached.cache_path = path;
  const CampaignResult cold = RunMatrixCampaign(cached);
  ASSERT_EQ(DeterministicFace(cold), bare);
  const std::uint64_t cold_calls = SolverCalls(cold);
  ASSERT_GT(cold_calls, 1000u);
  const auto written = InodeAndMtime(path);
  ASSERT_NE(written.first, 0u);

  // The cold run decided lockstep batches of wave_width (8) boxes; one box
  // per batch stores the same entries, and the file saves the same bytes.
  const std::string path_w1 = TempPath("cache_mt_replay_w1.json");
  std::remove(path_w1.c_str());
  CampaignOptions cached_w1 = cached;
  cached_w1.cache_path = path_w1;
  cached_w1.verifier.solver.wave_width = 1;
  ASSERT_EQ(DeterministicFace(RunMatrixCampaign(cached_w1)), bare);
  EXPECT_EQ(ReadAll(path_w1), ReadAll(path));
  std::remove(path_w1.c_str());

  const obs::Counter& pool_tasks = obs::Registry::Global().GetCounter(
      "xcv_scheduler_tasks_total", "Tasks submitted to the shared pools.");
  for (const int threads : {1, 2, 4}) {
    for (const int width : {1, 8, 64}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " wave_width=" + std::to_string(width));
      CampaignOptions warm_options = cached;
      warm_options.verifier.num_threads = threads;
      warm_options.verifier.solver.wave_width = width;
      const double tasks_before = pool_tasks.Value();
      const CampaignResult warm = RunMatrixCampaign(warm_options);
      const double tasks = pool_tasks.Value() - tasks_before;
      EXPECT_EQ(DeterministicFace(warm), bare);
      EXPECT_EQ(warm.CacheHits(), cold_calls);
      EXPECT_EQ(SolverCalls(warm), 0u);
      EXPECT_EQ(warm.CacheRejected(), 0u);
      // It stored nothing, so the file was not rewritten.
      EXPECT_EQ(InodeAndMtime(path), written);
      // Pool tickets decide batches: far fewer tasks than boxes.
      if (threads > 1 && width > 1) {
        EXPECT_LT(tasks * 4, static_cast<double>(cold_calls)) << tasks;
      }
    }
  }

  // Tear the file in place after its last entry: salvage recovers every
  // entry, so the next run again stores nothing — yet a salvaged load
  // counts as a change, and the torn file is rewritten whole.
  const std::string bytes = ReadAll(path);
  const std::size_t entries_end = bytes.rfind("\n  ]");
  ASSERT_NE(entries_end, std::string::npos);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes.substr(0, entries_end);
  }
  ASSERT_EQ(InodeAndMtime(path).first, written.first);
  const CampaignResult salvaged = RunMatrixCampaign(cached);
  EXPECT_EQ(salvaged.CacheHits(), cold_calls);
  EXPECT_EQ(SolverCalls(salvaged), 0u);
  EXPECT_NE(InodeAndMtime(path).first, written.first);
  VerdictCache reloaded;
  support::LoadOutcome stats;
  EXPECT_TRUE(reloaded.Load(path, &stats));
  EXPECT_TRUE(stats.clean);
  EXPECT_EQ(reloaded.size(), cold.cache_entries);
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

TEST(VerdictCache, PartiallyWarmReplayMixesHitsAndMissesInOneBatch) {
  // A cache recorded at split threshold 0.2 holds every box the tree at 0.1
  // visits down to the coarser leaves (a box that splits at 0.2 splits at
  // 0.1 too), so a replay at 0.1 decides batches of hits and misses
  // together.
  const CampaignOptions fine = FineCampaignOptions();
  const CampaignResult bare_result = RunMatrixCampaign(fine);
  const std::string bare = DeterministicFace(bare_result);
  const std::uint64_t fine_calls = SolverCalls(bare_result);

  const std::string path = TempPath("cache_partial_replay.json");
  std::remove(path.c_str());
  CampaignOptions coarse = fine;
  coarse.verifier.split_threshold = 0.2;
  coarse.cache_path = path;
  const std::uint64_t coarse_calls = SolverCalls(RunMatrixCampaign(coarse));
  ASSERT_GT(coarse_calls, 0u);
  ASSERT_LT(coarse_calls, fine_calls);

  for (const int threads : {1, 2, 4}) {
    for (const int width : {1, 8, 64}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " wave_width=" + std::to_string(width));
      CampaignOptions warm_options = fine;
      warm_options.cache_path = path;
      warm_options.cache_readonly = true;
      warm_options.verifier.num_threads = threads;
      warm_options.verifier.solver.wave_width = width;
      const CampaignResult warm = RunMatrixCampaign(warm_options);
      EXPECT_EQ(DeterministicFace(warm), bare);
      EXPECT_EQ(warm.CacheHits(), coarse_calls);
      EXPECT_EQ(warm.CacheMisses(), fine_calls - coarse_calls);
      EXPECT_EQ(SolverCalls(warm), fine_calls - coarse_calls);
      EXPECT_EQ(warm.CacheRejected(), 0u);
    }
  }
  std::remove(path.c_str());
}

TEST(VerdictCache, SaveIfChangedFollowsTheChangeGeneration) {
  const std::string path = TempPath("cache_generation.json");
  std::remove(path.c_str());
  const std::vector<Interval> box{Interval(0.0, 1.0)};

  VerdictCache cache;
  EXPECT_TRUE(cache.SaveIfChanged(path));  // fresh: no file holds it yet
  EXPECT_FALSE(cache.SaveIfChanged(path));
  cache.Store(1, box, CachedVerdict{});
  EXPECT_TRUE(cache.SaveIfChanged(path));
  EXPECT_FALSE(cache.SaveIfChanged(path));
  EXPECT_FALSE(cache.Erase(2, box));  // nothing removed, nothing changed
  EXPECT_FALSE(cache.SaveIfChanged(path));
  cache.Store(2, box, CachedVerdict{});
  cache.Save(path);  // an unconditional save also records the generation
  EXPECT_FALSE(cache.SaveIfChanged(path));
  EXPECT_TRUE(cache.Erase(2, box));
  EXPECT_TRUE(cache.SaveIfChanged(path));
  ASSERT_TRUE(cache.FromJson(cache.ToJson()));
  EXPECT_TRUE(cache.SaveIfChanged(path));

  VerdictCache loaded;
  ASSERT_TRUE(loaded.Load(path));  // clean: the file holds every entry
  EXPECT_FALSE(loaded.SaveIfChanged(path));
  const std::string absent_path = TempPath("cache_generation_absent.json");
  std::remove(absent_path.c_str());
  VerdictCache absent;
  EXPECT_FALSE(absent.Load(absent_path));  // cold: nothing on disk yet
  EXPECT_TRUE(absent.SaveIfChanged(absent_path));
  std::remove(path.c_str());
  std::remove(absent_path.c_str());
}

TEST(VerdictCache, SaveIsTracedWithDeterministicArgs) {
  const std::string path = TempPath("cache_traced_save.json");
  VerdictCache cache;
  cache.Store(1, std::vector<Interval>{Interval(0.0, 1.0)}, CachedVerdict{});
  auto record = [&] {
    obs::TraceRecorder& rec = obs::TraceRecorder::Global();
    std::uint64_t now = 0;
    rec.StartWithClock([&now] { return ++now; });
    cache.Save(path);
    cache.SaveIfChanged(path);  // unchanged: no write, no span
    VerdictCache loaded;
    loaded.Load(path);
    return rec.Stop();
  };
  const std::string trace = record();
  EXPECT_EQ(record(), trace);  // fixed clock: byte-identical

  const json::JsonValue root = json::ParseJson(trace);
  std::size_t saves = 0, loads = 0;
  for (const json::JsonValue& e : root.At("traceEvents").array) {
    const json::JsonValue* name = e.Find("name");
    if (name == nullptr) continue;
    if (name->AsString() == "cache-save") {
      ++saves;
    } else if (name->AsString() == "cache-load") {
      ++loads;
      EXPECT_EQ(e.At("args").At("outcome").AsDouble(), 0.0);  // clean
    } else {
      continue;
    }
    EXPECT_EQ(e.At("args").At("entries").AsDouble(), 1.0);
    EXPECT_EQ(e.At("args").At("bytes").AsDouble(),
              static_cast<double>(ReadAll(path).size()));
  }
  EXPECT_EQ(saves, 1u);
  EXPECT_EQ(loads, 1u);
  std::remove(path.c_str());
}

TEST(VerdictCache, ConcurrentSavesToOnePathAllSucceed) {
  // Concurrent saves of one cache share the "<path>.tmp" name; unserialized,
  // one rename moves the other's file away and the second rename throws.
  // A small cache keeps the saves' file I/O overlapping.
  const std::string path = TempPath("cache_concurrent_save.json");
  std::remove(path.c_str());
  VerdictCache cache;
  for (int i = 0; i < 10; ++i)
    cache.Store(static_cast<std::uint64_t>(i),
                std::vector<Interval>{Interval(i, i + 1.0)}, CachedVerdict{});

  std::atomic<int> failures{0};
  std::vector<std::thread> savers;
  for (int t = 0; t < 4; ++t) {
    savers.emplace_back([&] {
      for (int k = 0; k < 25; ++k) {
        try {
          cache.Save(path);
        } catch (const InternalError&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : savers) t.join();
  EXPECT_EQ(failures.load(), 0);

  VerdictCache reloaded;
  support::LoadOutcome stats;
  EXPECT_TRUE(reloaded.Load(path, &stats));
  EXPECT_TRUE(stats.clean);
  EXPECT_EQ(reloaded.ToJson(), cache.ToJson());
  std::remove(path.c_str());
}

/// FNV fold of DeltaSolver(¬ψ, options).cache_scope() over the 45
/// applicable (functional, condition) pairs of the catalogue, in order.
std::uint64_t CatalogueScopeFold(const solver::SolverOptions& options) {
  std::vector<functionals::Functional> catalogue =
      functionals::PaperFunctionals();
  for (const functionals::Functional& f : functionals::ExtensionFunctionals())
    catalogue.push_back(f);
  std::uint64_t fold = support::kFnvOffset;
  int pairs = 0;
  for (const functionals::Functional& f : catalogue) {
    for (const conditions::ConditionInfo& cond :
         conditions::AllConditions()) {
      if (!conditions::Applies(cond, f)) continue;
      const auto psi = conditions::BuildCondition(cond, f);
      if (!psi.has_value()) continue;
      ++pairs;
      fold = support::FnvMix(
          fold,
          solver::DeltaSolver(expr::BoolExpr::Not(*psi), options).cache_scope());
    }
  }
  XCV_CHECK_MSG(pairs == 45, "catalogue has " << pairs << " applicable pairs");
  return fold;
}

TEST(VerdictCache, SolverScopeIgnoresWaveWidthButTracksVerdictKnobs) {
  const auto* pbe = functionals::FindFunctional("PBE");
  const auto psi =
      conditions::BuildCondition(*conditions::FindCondition("EC1"), *pbe);
  ASSERT_TRUE(psi.has_value());
  const auto not_psi = expr::BoolExpr::Not(*psi);

  solver::SolverOptions base;
  base.max_nodes = 2'000;
  auto scope_of = [&](const solver::SolverOptions& o) {
    return solver::DeltaSolver(not_psi, o).cache_scope();
  };

  const std::uint64_t reference = scope_of(base);
  // Pure batching knob: same scope, so caches survive wave-width changes.
  solver::SolverOptions wave = base;
  wave.wave_width = 64;
  EXPECT_EQ(scope_of(wave), reference);
  // Verdict-affecting knobs each move the scope.
  solver::SolverOptions delta = base;
  delta.delta = 1e-4;
  EXPECT_NE(scope_of(delta), reference);
  solver::SolverOptions nodes = base;
  nodes.max_nodes = 4'000;
  EXPECT_NE(scope_of(nodes), reference);
  solver::SolverOptions rounds = base;
  rounds.contraction_rounds = 3;
  EXPECT_NE(scope_of(rounds), reference);
  solver::SolverOptions salt = base;
  salt.cache_salt = 1;
  EXPECT_NE(scope_of(salt), reference);

  // Pinned across versions: the scopes of every applicable catalogue pair,
  // folded in catalogue order. A refactor that reorders atoms or walks the
  // skeleton differently moves this and would turn every existing cache
  // cold; change the constant only together with the cache schema. The
  // builder orders commutative operands by interned expression id, so the
  // tapes follow the process's construction history: the fold runs in a
  // fresh process (the threadsafe death-test child re-executes only this
  // test), as `xcv` would build the catalogue.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        const std::uint64_t fold = CatalogueScopeFold(base);
        std::fprintf(stderr, "catalogue scope fold %016llx\n",
                     static_cast<unsigned long long>(fold));
        std::exit(fold == 0x49a735a27eaefc0full ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

TEST(VerdictCache, SolverConsultsAndRecords) {
  const auto* pbe = functionals::FindFunctional("PBE");
  const auto psi =
      conditions::BuildCondition(*conditions::FindCondition("EC1"), *pbe);
  ASSERT_TRUE(psi.has_value());
  const auto not_psi = expr::BoolExpr::Not(*psi);

  VerdictCache cache;
  solver::SolverOptions opts;
  opts.max_nodes = 2'000;
  opts.cache = &cache;
  solver::DeltaSolver solver(not_psi, opts);
  const Box domain = conditions::PaperDomain(*pbe);

  const auto cold = solver.Check(domain);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_EQ(cache.size(), 1u);

  const auto warm = solver.Check(domain);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.kind, cold.kind);
  EXPECT_EQ(warm.model, cold.model);
  EXPECT_EQ(warm.stats.nodes, cold.stats.nodes);
}

TEST(VerdictCache, EngineRejectsPoisonedEntries) {
  // Poison the cache: claim UNSAT (verified) for the whole EC1 domain of a
  // pair that actually has non-verified leaves. Revalidation cannot refute
  // "unsat" on boxes where interval evaluation is inconclusive, but a box
  // certainly containing violations classifies +1 and is rejected — and a
  // poisoned delta-sat whose model lies outside its box is always rejected.
  const auto* pbe = functionals::FindFunctional("PBE");
  const auto psi =
      conditions::BuildCondition(*conditions::FindCondition("EC1"), *pbe);
  ASSERT_TRUE(psi.has_value());
  const auto not_psi = expr::BoolExpr::Not(*psi);

  VerdictCache cache;
  solver::SolverOptions opts;
  opts.max_nodes = 2'000;
  opts.cache = &cache;
  solver::DeltaSolver probe(not_psi, opts);
  const Box domain = conditions::PaperDomain(*pbe);

  // A genuine cold solve for reference.
  solver::SolverOptions bare = opts;
  bare.cache = nullptr;
  const auto truth = solver::DeltaSolver(not_psi, bare).Check(domain);

  // Poison: a delta-sat whose "model" is far outside the domain.
  CachedVerdict poison;
  poison.kind = CachedKind::kDeltaSat;
  poison.model = std::vector<double>(domain.size(), 1e9);
  poison.nodes = 1;
  cache.Store(probe.cache_scope(), domain.dims(), poison);

  verifier::VerifierOptions vopts;
  vopts.split_threshold = 10.0;  // the root is the only box
  vopts.solver = opts;
  verifier::Verifier verifier(*psi, vopts);
  const auto report = verifier.Run(domain);
  // The poisoned hit was rejected and re-solved: one real solver call, and
  // the leaf status matches the genuine verdict (no witness at 1e9).
  EXPECT_EQ(report.cache_rejected, 1u);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.solver_calls, 1u);
  ASSERT_EQ(report.leaves.size(), 1u);
  for (const auto& w : report.witnesses)
    for (double c : w) EXPECT_LT(std::abs(c), 1e8);
  // The re-solve overwrote the poisoned entry with the genuine verdict.
  CachedVerdict repaired;
  ASSERT_TRUE(cache.Lookup(probe.cache_scope(), domain.dims(), &repaired));
  EXPECT_EQ(repaired.nodes, truth.stats.nodes);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  }
  return true;
}

std::vector<double> BoxBits(std::span<const Interval> box) {
  std::vector<double> out;
  for (const Interval& iv : box) {
    out.push_back(iv.lo());
    out.push_back(iv.hi());
  }
  return out;
}

// A verdict's replayed content, bit for bit.
bool SameVerdict(const CachedVerdict& a, const CachedVerdict& b) {
  return a.kind == b.kind && a.nodes == b.nodes && SameBits(a.model, b.model) &&
         SameBits(BoxBits(a.model_box), BoxBits(b.model_box));
}

TEST(VerdictCache, CheckManyAppliesTheTrustRulesInOneCall) {
  // ¬ψ = x > 0: one forward sweep classifies a box +1 when it lies right of
  // 0, -1 when it lies left of it, and 0 when it straddles 0.
  const expr::Expr x = expr::Expr::Variable("x", 0);
  const expr::BoolExpr formula = expr::BoolExpr::Gt(x, expr::Expr::Constant(0));
  auto box = [](double lo, double hi) { return Box({Interval(lo, hi)}); };
  auto delta_sat = [](std::vector<double> model) {
    CachedVerdict v;
    v.kind = CachedKind::kDeltaSat;
    for (double c : model) v.model_box.emplace_back(c);
    v.model = std::move(model);
    return v;
  };
  struct Row {
    const char* what;
    Box domain;
    bool cached;
    CachedVerdict entry;
    bool trusted;
  };
  const std::vector<Row> rows = {
      {"poisoned UNSAT on a +1 box", box(1, 2), true,
       CachedVerdict{CachedKind::kUnsat, {}, {}, 3}, false},
      {"poisoned timeout on a decided box", box(-4, -3), true,
       CachedVerdict{CachedKind::kTimeout, {}, {}, 50}, false},
      {"poisoned delta-sat on a -1 box", box(-2, -1), true,
       delta_sat({-1.5}), false},
      {"delta-sat with its model outside its box", box(-1, 1), true,
       delta_sat({5.0}), false},
      {"delta-sat without a model", box(2, 3), true,
       CachedVerdict{CachedKind::kDeltaSat, {}, {}, 4}, false},
      {"timeout on an undecided box", box(-3, 5), true,
       CachedVerdict{CachedKind::kTimeout, {}, {}, 77}, true},
      {"delta-sat inside a +1 box", box(5, 6), true, delta_sat({5.25}), true},
      // One sweep cannot refute UNSAT on a box it leaves undecided.
      {"UNSAT on an undecided box", box(-6, 6), true,
       CachedVerdict{CachedKind::kUnsat, {}, {}, 9}, true},
      {"miss", box(-7, 0.5), false, CachedVerdict{}, false},
  };

  solver::SolverOptions bare_options;
  bare_options.wave_width = 16;
  solver::DeltaSolver bare(formula, bare_options);
  VerdictCache cache;
  solver::SolverOptions options = bare_options;
  options.cache = &cache;
  solver::DeltaSolver cached(formula, options);
  std::vector<Box> domains;
  for (const Row& row : rows) {
    domains.push_back(row.domain);
    if (row.cached)
      cache.Store(cached.cache_scope(), row.domain.dims(), row.entry);
  }

  const obs::Counter& sweeps = obs::Registry::Global().GetCounter(
      "xcv_cache_revalidations_total",
      "Batched forward sweeps run to revalidate cached verdicts.");
  const double sweeps_before = sweeps.Value();
  const std::vector<solver::CheckResult> results = cached.CheckMany(domains);
  // One revalidation sweep for the call's eight hits.
  EXPECT_EQ(sweeps.Value() - sweeps_before, 1.0);

  ASSERT_EQ(results.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    SCOPED_TRACE(row.what);
    const solver::CheckResult& r = results[i];
    CachedVerdict stored;
    ASSERT_TRUE(cache.Lookup(cached.cache_scope(), row.domain.dims(), &stored));
    if (row.trusted) {
      // Replayed as recorded, and the entry is left alone. (CachedKind and
      // SatKind list the kinds in the same order.)
      EXPECT_TRUE(r.from_cache);
      EXPECT_FALSE(r.cache_rejected);
      EXPECT_EQ(static_cast<int>(r.kind), static_cast<int>(row.entry.kind));
      EXPECT_TRUE(SameBits(r.model, row.entry.model));
      EXPECT_EQ(r.stats.nodes, row.entry.nodes);
      EXPECT_TRUE(SameVerdict(stored, row.entry));
      continue;
    }
    // Rejected hits and the miss are solved as if no cache existed, and the
    // fresh verdict is what the cache holds afterwards.
    const solver::CheckResult truth = bare.Check(row.domain);
    EXPECT_FALSE(r.from_cache);
    EXPECT_EQ(r.cache_rejected, row.cached);
    EXPECT_EQ(r.kind, truth.kind);
    EXPECT_TRUE(SameBits(r.model, truth.model));
    EXPECT_TRUE(SameBits(BoxBits(r.model_box.dims()),
                         BoxBits(truth.model_box.dims())));
    EXPECT_EQ(r.stats.nodes, truth.stats.nodes);
    EXPECT_EQ(static_cast<int>(stored.kind), static_cast<int>(truth.kind));
    EXPECT_TRUE(SameBits(stored.model, truth.model));
    EXPECT_EQ(stored.nodes, truth.stats.nodes);
  }
}

// One of six kind and model mutations of `v` (by `m` mod 6) on `box`.
CachedVerdict Poison(std::size_t m, std::span<const Interval> box,
                     CachedVerdict v) {
  std::vector<double> mid, corner;
  for (const Interval& iv : box) {
    mid.push_back(0.5 * (iv.lo() + iv.hi()));
    corner.push_back(iv.lo());
  }
  v.model.clear();
  v.model_box.clear();
  v.kind = CachedKind::kDeltaSat;
  switch (m % 6) {
    case 0: v.kind = CachedKind::kUnsat; break;
    case 1: v.kind = CachedKind::kTimeout; break;
    case 2: v.model = mid; break;       // inside its box
    case 3:                             // outside its box
      v.model = mid;
      v.model[0] = box[0].hi() + 1.0;
      break;
    case 4: break;                      // no model at all
    case 5: v.model = corner; break;    // inside, on the box's corner
  }
  if (!v.model.empty()) v.model_box.assign(box.begin(), box.end());
  return v;
}

// Every entry of `cache`, keyed by its scope and box bits.
std::map<std::pair<std::uint64_t, std::vector<std::uint64_t>>, CachedVerdict>
Entries(const VerdictCache& cache) {
  std::map<std::pair<std::uint64_t, std::vector<std::uint64_t>>, CachedVerdict>
      out;
  cache.ForEach([&out](std::uint64_t scope, std::span<const Interval> box,
                       const CachedVerdict& v) {
    std::vector<std::uint64_t> bits;
    for (double c : BoxBits(box))
      bits.push_back(std::bit_cast<std::uint64_t>(c));
    out.emplace(std::make_pair(scope, std::move(bits)), v);
  });
  return out;
}

TEST(VerdictCache, PoisonedReplayRepairsExactlyTheRejectedEntries) {
  const std::string clean_path = TempPath("cache_poison_clean.json");
  std::remove(clean_path.c_str());
  CampaignOptions cold = FineCampaignOptions();
  cold.cache_path = clean_path;
  RunMatrixCampaign(cold);
  VerdictCache clean;
  ASSERT_TRUE(clean.Load(clean_path));
  const auto clean_entries = Entries(clean);

  // Every 7th entry, in canonical order, gets the next mutation.
  VerdictCache poisoned;
  std::size_t index = 0;
  clean.ForEach([&](std::uint64_t scope, std::span<const Interval> box,
                    const CachedVerdict& v) {
    poisoned.Store(scope, box,
                   index % 7 == 0 ? Poison(index / 7, box, v) : v);
    ++index;
  });
  const auto poisoned_entries = Entries(poisoned);

  std::string face, cache_bytes;
  for (const int threads : {1, 4}) {
    for (const int width : {1, 8, 64}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " wave_width=" + std::to_string(width));
      const std::string path = TempPath("cache_poison_replay.json");
      std::remove(path.c_str());
      poisoned.Save(path);
      CampaignOptions warm = FineCampaignOptions();
      warm.cache_path = path;
      warm.verifier.num_threads = threads;
      warm.verifier.solver.wave_width = width;
      const CampaignResult result = RunMatrixCampaign(warm);
      VerdictCache after;
      ASSERT_TRUE(after.Load(path));
      const auto after_entries = Entries(after);

      // The entries that changed are exactly the rejected hits, each back
      // to its clean verdict; the entries added are exactly the misses.
      std::uint64_t changed = 0, added = 0;
      for (const auto& [key, verdict] : after_entries) {
        const auto was = poisoned_entries.find(key);
        if (was == poisoned_entries.end()) {
          ++added;
          continue;
        }
        if (SameVerdict(verdict, was->second)) continue;
        ++changed;
        EXPECT_TRUE(SameVerdict(verdict, clean_entries.at(key)));
      }
      EXPECT_EQ(after_entries.size(), poisoned_entries.size() + added);
      EXPECT_EQ(changed, result.CacheRejected());
      EXPECT_EQ(added, result.CacheMisses());
      EXPECT_GT(result.CacheRejected(), 0u);

      // Every (threads, width) replays to the same report and cache bytes.
      const std::string run_face =
          DeterministicFace(result) + " hits=" +
          std::to_string(result.CacheHits()) + " misses=" +
          std::to_string(result.CacheMisses()) + " rejected=" +
          std::to_string(result.CacheRejected());
      if (face.empty()) {
        face = run_face;
        cache_bytes = ReadAll(path);
      }
      EXPECT_EQ(run_face, face);
      EXPECT_EQ(ReadAll(path), cache_bytes);
      std::remove(path.c_str());
    }
  }
  std::remove(clean_path.c_str());
}

TEST(VerdictCache, CampaignToleratesCorruptCacheFile) {
  const std::string path = TempPath("cache_corrupt.json");
  {
    std::ofstream os(path, std::ios::trunc);
    os << "{\"format\": \"xcv-verdict-cache\", \"version\": 1, \"entr";
  }
  CampaignOptions options = FastCampaignOptions();
  options.cache_path = path;
  const CampaignResult result = RunMatrixCampaign(options);
  EXPECT_FALSE(result.cache_was_warm);
  EXPECT_GT(result.cache_entries, 0u);  // ran cold, then saved a fresh cache
  EXPECT_EQ(DeterministicFace(result),
            DeterministicFace(RunMatrixCampaign(FastCampaignOptions())));
  // The rewritten file is valid and warm-loads now.
  const CampaignResult warm = RunMatrixCampaign(options);
  EXPECT_TRUE(warm.cache_was_warm);
  EXPECT_GT(warm.CacheHits(), 0u);
  std::remove(path.c_str());
}

TEST(VerdictCache, TapeFingerprintIsStructural) {
  const auto* pbe = functionals::FindFunctional("PBE");
  const auto* scan = functionals::FindFunctional("SCAN");
  const auto t1 = expr::CompileOptimized(pbe->eps_c);
  const auto t2 = expr::CompileOptimized(pbe->eps_c);
  const auto t3 = expr::CompileOptimized(scan->eps_c);
  EXPECT_EQ(expr::TapeFingerprint(t1), expr::TapeFingerprint(t2));
  EXPECT_NE(expr::TapeFingerprint(t1), expr::TapeFingerprint(t3));
}

}  // namespace
}  // namespace xcv::cache
