// Fault-injection layer (src/support/fault.h) and crash/corruption
// recovery: spec parsing and occurrence semantics, document checksums,
// injected-crash death tests (the old checkpoint must survive a
// crash-before-rename; a short-write must salvage), byte-level truncation
// sweeps over real checkpoint and cache files (salvage-or-cold, never a
// crash, never a silently wrong pair), one recovery table run against all
// four durable documents, and the coordinator's fragment backfill.
#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/verdict_cache.h"
#include "campaign/campaign.h"
#include "campaign/serialize.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "service/daemon.h"
#include "shard/coordinator.h"
#include "shard/transport.h"
#include "solver/box.h"
#include "support/check.h"
#include "support/document.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/json.h"
#include "support/retry.h"

namespace xcv {
namespace {

using campaign::Campaign;
using campaign::CampaignOptions;
using campaign::CampaignResult;
using campaign::Checkpoint;
using campaign::CheckpointToJson;
using campaign::PairState;
using support::ChecksumStatus;

namespace fault = support::fault;

// Every test leaves the process-global fault schedule clean.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Disarm(); }
  void TearDown() override { fault::Disarm(); }
};

// ---- Spec parsing and occurrence semantics ----------------------------------

TEST_F(FaultTest, DisarmedLayerNeitherFiresNorCounts) {
  EXPECT_FALSE(fault::Armed());
  EXPECT_FALSE(fault::Hit("some.point"));
  EXPECT_FALSE(fault::Hit("some.point"));
  EXPECT_EQ(fault::VisitCount("some.point"), 0u);
}

TEST_F(FaultTest, DefaultOccurrenceIsFirstVisitOnly) {
  fault::ArmFromSpec("p.q");
  EXPECT_TRUE(fault::Hit("p.q"));
  EXPECT_FALSE(fault::Hit("p.q"));
  EXPECT_FALSE(fault::Hit("p.q"));
  EXPECT_EQ(fault::VisitCount("p.q"), 3u);
  EXPECT_FALSE(fault::Hit("p.other"));
}

TEST_F(FaultTest, AtNFiresOnExactlyTheNthVisit) {
  fault::ArmFromSpec("p.q@3");
  EXPECT_FALSE(fault::Hit("p.q"));
  EXPECT_FALSE(fault::Hit("p.q"));
  EXPECT_TRUE(fault::Hit("p.q"));
  EXPECT_FALSE(fault::Hit("p.q"));
}

TEST_F(FaultTest, AtNPlusFiresFromTheNthVisitOn) {
  fault::ArmFromSpec("p.q@2+");
  EXPECT_FALSE(fault::Hit("p.q"));
  EXPECT_TRUE(fault::Hit("p.q"));
  EXPECT_TRUE(fault::Hit("p.q"));
}

TEST_F(FaultTest, StarFiresAlwaysAndArgCarriesPayload) {
  fault::ArmFromSpec("p.q@*=250,p.r");
  fault::FireInfo info;
  EXPECT_TRUE(fault::Hit("p.q", &info));
  EXPECT_EQ(info.arg, 250);
  EXPECT_TRUE(fault::Hit("p.q", &info));
  EXPECT_TRUE(fault::Hit("p.r"));
}

TEST_F(FaultTest, MalformedSpecsThrowAndArmNothing) {
  EXPECT_THROW(fault::ArmFromSpec("p.q@"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q@x"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q@0"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q=notanumber"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("@2"), InternalError);
  // Counts and payloads take the flags' decimal grammar: no sign, blank or
  // hex (strtoull read `@-1` as 2^64-1, a fault that never fires).
  EXPECT_THROW(fault::ArmFromSpec("p.q@-1"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q@ 2"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q@0x2"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q@1.5+"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q= 5"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q=+5"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q=-1"), InternalError);
  EXPECT_FALSE(fault::Armed());
}

// `xcv coordinate --fault-node` checks the child's spec in the coordinator's
// process: checking must leave the coordinator's own armed entries (from
// --faults or XCV_FAULTS) armed and firing, and still reject a bad spec.
TEST_F(FaultTest, CheckSpecLeavesTheArmedScheduleAlone) {
  fault::ArmFromSpec("p.q@2");
  EXPECT_FALSE(fault::Hit("p.q"));
  fault::CheckSpec("checkpoint.load.eio@99,p.r=5");
  EXPECT_THROW(fault::CheckSpec("p.r@0"), InternalError);
  EXPECT_TRUE(fault::Armed());
  EXPECT_TRUE(fault::Hit("p.q"));
  EXPECT_EQ(fault::VisitCount("p.q"), 2u);
  EXPECT_FALSE(fault::Hit("p.r"));
  EXPECT_FALSE(fault::Hit("checkpoint.load.eio"));
}

// ---- Document checksums -----------------------------------------------------

TEST_F(FaultTest, ChecksumRoundTrips) {
  const std::string doc =
      "{\n  \"format\": \"x\",\n  \"version\": 1,\n  \"body\": [1,2,3]\n}\n";
  const std::string stamped = support::AddDocumentChecksum(doc);
  EXPECT_NE(stamped, doc);
  EXPECT_NE(stamped.find("\"checksum\": \""), std::string::npos);
  EXPECT_EQ(support::VerifyDocumentChecksum(stamped), ChecksumStatus::kOk);
  // Legacy documents (no checksum field) stay accepted.
  EXPECT_EQ(support::VerifyDocumentChecksum(doc), ChecksumStatus::kAbsent);
}

TEST_F(FaultTest, ChecksumCatchesSingleBitFlips) {
  const std::string stamped = support::AddDocumentChecksum(
      "{\n  \"format\": \"x\",\n  \"version\": 1,\n  \"body\": [1,2,3]\n}\n");
  // The inserted line's punctuation is excised before re-hashing, so the
  // protected bytes are everything outside that line plus the 16 recorded
  // hex digits themselves (a flipped digit no longer matches the hash).
  const std::size_t field = stamped.find("\"checksum\": \"");
  ASSERT_NE(field, std::string::npos);
  const std::size_t line_start = stamped.rfind('\n', field) + 1;
  const std::size_t line_end = stamped.find('\n', field) + 1;
  const std::size_t hex = field + std::string("\"checksum\": \"").size();
  for (std::size_t i = 0; i < stamped.size(); ++i) {
    const bool in_line = i >= line_start && i < line_end;
    const bool in_hex = i >= hex && i < hex + 16;
    if (in_line && !in_hex) continue;
    std::string flipped = stamped;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_NE(support::VerifyDocumentChecksum(flipped), ChecksumStatus::kOk)
        << "bit flip at byte " << i << " went undetected";
  }
}

// ---- Real campaign fixtures -------------------------------------------------

// Budget-free (deterministic) options coarse enough to finish the tiny
// matrix here in well under a second.
CampaignOptions FastCampaignOptions() {
  CampaignOptions o;
  o.verifier.split_threshold = 0.7;
  o.verifier.solver.max_nodes = 4'000;
  o.verifier.solver.delta = 1e-3;
  o.tune_lda_delta = false;
  return o;
}

// Runs a real two-pair campaign to completion with checkpoint (and
// optionally cache) persistence, returning the completed state.
CampaignResult RunTinyCampaign(const std::string& checkpoint_path,
                               const std::string& cache_path = "") {
  CampaignOptions options = FastCampaignOptions();
  options.checkpoint_path = checkpoint_path;
  options.cache_path = cache_path;
  Campaign campaign(options);
  campaign.Add(*functionals::FindFunctional("VWN_RPA"),
               *conditions::FindCondition("EC1"));
  campaign.Add(*functionals::FindFunctional("VWN_RPA"),
               *conditions::FindCondition("EC2"));
  return campaign.Run();
}

std::string ReadAll(const std::string& path) {
  std::string text;
  XCV_CHECK_MSG(support::ReadFileToString(path, &text),
                "cannot read " << path);
  return text;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::trunc | std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  XCV_CHECK_MSG(os.good(), "cannot write " << path);
}

// A tolerant checkpoint load and its outcome, side by side.
struct TolerantLoad : support::LoadOutcome {
  Checkpoint checkpoint;
};

TolerantLoad LoadTolerant(const std::string& path) {
  TolerantLoad r;
  r.checkpoint = campaign::LoadCheckpointFileTolerant(path, &r);
  return r;
}

// One pair serialized alone — the byte-identity unit of the salvage sweep.
std::string PairJson(const Checkpoint& cp, const PairState& p) {
  return CheckpointToJson(cp.options, {p}, false);
}

// ---- Hardened writer/loader -------------------------------------------------

TEST_F(FaultTest, CheckpointFilesCarryAVerifiableChecksum) {
  const std::string path = testing::TempDir() + "fault_ck_checksum.json";
  RunTinyCampaign(path);
  EXPECT_EQ(support::VerifyDocumentChecksum(ReadAll(path)),
            ChecksumStatus::kOk);
  // The strict loader accepts it, and the tolerant loader calls it clean.
  EXPECT_NO_THROW(campaign::LoadCheckpointFile(path));
  const TolerantLoad r = LoadTolerant(path);
  EXPECT_TRUE(r.clean);
  EXPECT_FALSE(r.salvaged);
  EXPECT_FALSE(r.cold);
}

TEST_F(FaultTest, LegacyCheckpointWithoutChecksumStillLoads) {
  const std::string path = testing::TempDir() + "fault_ck_legacy.json";
  const CampaignResult done = RunTinyCampaign(path);
  // Rewrite the document the way pre-checksum writers did: same JSON, no
  // checksum line.
  Checkpoint cp = campaign::LoadCheckpointFile(path);
  WriteAll(path, CheckpointToJson(cp.options, cp.pairs, cp.cancelled));
  EXPECT_EQ(support::VerifyDocumentChecksum(ReadAll(path)),
            ChecksumStatus::kAbsent);
  const TolerantLoad r = LoadTolerant(path);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.checkpoint.pairs.size(), done.pairs.size());
}

TEST_F(FaultTest, ContentCorruptionColdStartsAndQuarantines) {
  const std::string path = testing::TempDir() + "fault_ck_bitflip.json";
  RunTinyCampaign(path);
  std::string bytes = ReadAll(path);
  // Flip one digit inside the document body: the file still parses, but
  // its bytes are no longer the ones that were hashed — exactly the
  // corruption a checksum exists to catch, and the one salvage must NOT
  // paper over (a flipped digit is a silently wrong report).
  const std::string field = "\"solver_calls\": ";
  const std::size_t at = bytes.find(field);
  ASSERT_NE(at, std::string::npos);
  char& digit = bytes[at + field.size()];
  digit = digit == '1' ? '2' : '1';
  WriteAll(path, bytes);

  const TolerantLoad r = LoadTolerant(path);
  EXPECT_TRUE(r.cold);
  EXPECT_EQ(r.records, 0u);
  EXPECT_EQ(r.quarantine_path, path + ".corrupt");
  EXPECT_EQ(ReadAll(r.quarantine_path), bytes);
  // The strict loader refuses it outright.
  EXPECT_THROW(campaign::LoadCheckpointFile(path), InternalError);
}

TEST_F(FaultTest, TruncationSweepSalvagesOrColdStartsNeverLies) {
  const std::string path = testing::TempDir() + "fault_ck_trunc.json";
  RunTinyCampaign(path);
  const std::string bytes = ReadAll(path);
  const Checkpoint original = campaign::LoadCheckpointFile(path);
  ASSERT_GE(original.pairs.size(), 2u);

  // Every pair's reference serialization, keyed by identity.
  std::vector<std::pair<std::string, std::string>> reference;
  for (const PairState& p : original.pairs)
    reference.emplace_back(p.functional + '\x1f' + p.condition,
                           PairJson(original, p));

  // Cut the file at a spread of byte offsets — a stride through the body
  // plus every single offset in the tail, where the interesting pair
  // boundaries live — and demand: never a throw, exactly one outcome flag,
  // and every salvaged pair byte-identical to the original.
  std::size_t salvage_hits = 0, cold_hits = 0;
  for (std::size_t cut = 0; cut <= bytes.size();
       cut += (cut + 211 > bytes.size() && cut < bytes.size()) ? 1 : 197) {
    WriteAll(path, bytes.substr(0, cut));
    TolerantLoad r;
    ASSERT_NO_THROW(r = LoadTolerant(path))
        << "tolerant load threw at cut " << cut;
    ASSERT_EQ((r.clean ? 1 : 0) + (r.salvaged ? 1 : 0) + (r.cold ? 1 : 0), 1)
        << "ambiguous outcome at cut " << cut;
    if (cut == bytes.size()) {
      EXPECT_TRUE(r.clean);
      continue;
    }
    EXPECT_FALSE(r.clean) << "truncated file reported clean at cut " << cut;
    if (r.salvaged) ++salvage_hits;
    if (r.cold) ++cold_hits;
    ASSERT_EQ(r.checkpoint.pairs.size(), r.records);
    for (const PairState& p : r.checkpoint.pairs) {
      const std::string key = p.functional + '\x1f' + p.condition;
      bool matched = false;
      for (const auto& [ref_key, ref_json] : reference) {
        if (ref_key != key) continue;
        matched = true;
        EXPECT_EQ(PairJson(original, p), ref_json)
            << "salvaged pair " << p.functional << " x " << p.condition
            << " differs from the original at cut " << cut;
      }
      EXPECT_TRUE(matched) << "salvage invented pair " << p.functional
                           << " x " << p.condition << " at cut " << cut;
    }
  }
  // The sweep must actually exercise both recovery paths.
  EXPECT_GT(salvage_hits, 0u);
  EXPECT_GT(cold_hits, 0u);
}

TEST_F(FaultTest, CacheTruncationSweepSalvagesOrColdStarts) {
  const std::string ck = testing::TempDir() + "fault_cache_ck.json";
  const std::string path = testing::TempDir() + "fault_cache_trunc.json";
  RunTinyCampaign(ck, path);
  const std::string bytes = ReadAll(path);

  cache::VerdictCache original;
  ASSERT_TRUE(original.Load(path));
  ASSERT_GT(original.size(), 0u);

  for (std::size_t cut = 0; cut <= bytes.size();
       cut += (cut + 211 > bytes.size() && cut < bytes.size()) ? 1 : 197) {
    WriteAll(path, bytes.substr(0, cut));
    cache::VerdictCache salvaged;
    support::LoadOutcome stats;
    bool warm = false;
    ASSERT_NO_THROW(warm = salvaged.Load(path, &stats))
        << "cache load threw at cut " << cut;
    ASSERT_EQ((stats.clean ? 1 : 0) + (stats.salvaged ? 1 : 0) +
                  (stats.cold ? 1 : 0),
              1)
        << "ambiguous outcome at cut " << cut;
    if (cut == bytes.size()) {
      EXPECT_TRUE(stats.clean);
      EXPECT_TRUE(warm);
      EXPECT_EQ(salvaged.size(), original.size());
      continue;
    }
    EXPECT_FALSE(stats.clean) << "truncated cache clean at cut " << cut;
    EXPECT_EQ(stats.records, salvaged.size());
    // Every salvaged entry must replay exactly the verdict the original
    // cache holds for that key — a salvage can shrink the cache, never
    // corrupt it.
    salvaged.ForEach([&](std::uint64_t scope, std::span<const Interval> box,
                         const cache::CachedVerdict& verdict) {
      cache::CachedVerdict ref;
      ASSERT_TRUE(original.Lookup(scope, box, &ref))
          << "salvage invented a cache entry at cut " << cut;
      EXPECT_EQ(static_cast<int>(verdict.kind), static_cast<int>(ref.kind));
      EXPECT_EQ(verdict.nodes, ref.nodes);
      EXPECT_EQ(verdict.model, ref.model);
    });
  }
}

TEST_F(FaultTest, CheckpointLoadEioIsAColdStartNotACrash) {
  const std::string path = testing::TempDir() + "fault_ck_eio.json";
  RunTinyCampaign(path);
  fault::ArmFromSpec("checkpoint.load.eio");
  const TolerantLoad r = LoadTolerant(path);
  EXPECT_TRUE(r.cold);
  // The fault fired on the first visit only; the next read succeeds.
  const TolerantLoad again = LoadTolerant(path);
  EXPECT_TRUE(again.clean);
}

TEST_F(FaultTest, CacheLoadEioIsAColdStartNotACrash) {
  const std::string ck = testing::TempDir() + "fault_cache_eio_ck.json";
  const std::string path = testing::TempDir() + "fault_cache_eio.json";
  RunTinyCampaign(ck, path);
  fault::ArmFromSpec("cache.load.eio");
  cache::VerdictCache cache;
  support::LoadOutcome stats;
  EXPECT_FALSE(cache.Load(path, &stats));
  EXPECT_TRUE(stats.cold);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.Load(path, &stats));
  EXPECT_TRUE(stats.clean);
}

// ---- One recovery table for every durable document --------------------------
//
// Checkpoint, verdict cache, xcvd queue journal and node ledger share one
// load policy (support/document.h), so the same rows hold for each, driven
// through each format's own loader.

// A durable document under test.
struct DocumentCase {
  std::string records;       // key of its records array
  std::string fault_prefix;  // its "<prefix>.load.eio" fault point
  std::string path;          // the file its loader reads
  std::string intact;        // an intact, checksummed copy of that file
  // Loads `path`; returns the outcome and the loaded state as the format's
  // own writer serializes it.
  std::function<std::pair<support::LoadOutcome, std::string>()> load;
};

DocumentCase CheckpointCase() {
  DocumentCase doc;
  doc.records = "pairs";
  doc.fault_prefix = "checkpoint";
  doc.path = testing::TempDir() + "table_checkpoint.json";
  RunTinyCampaign(doc.path);
  doc.intact = ReadAll(doc.path);
  doc.load = [path = doc.path] {
    support::LoadOutcome outcome;
    const Checkpoint cp = campaign::LoadCheckpointFileTolerant(path, &outcome);
    return std::make_pair(outcome,
                          CheckpointToJson(cp.options, cp.pairs, cp.cancelled));
  };
  return doc;
}

DocumentCase CacheCase() {
  DocumentCase doc;
  doc.records = "entries";
  doc.fault_prefix = "cache";
  doc.path = testing::TempDir() + "table_cache.json";
  RunTinyCampaign(testing::TempDir() + "table_cache_ck.json", doc.path);
  doc.intact = ReadAll(doc.path);
  doc.load = [path = doc.path] {
    support::LoadOutcome outcome;
    cache::VerdictCache cache;
    cache.Load(path, &outcome);
    return std::make_pair(outcome, cache.ToJson());
  };
  return doc;
}

// A state dir whose journal records two completed jobs.
DocumentCase JournalCase() {
  DocumentCase doc;
  doc.records = "jobs";
  doc.fault_prefix = "service.journal";
  const std::string dir = testing::TempDir() + "table_journal";
  std::filesystem::remove_all(dir);
  doc.path = dir + "/queue.json";
  service::DaemonOptions options;
  options.state_dir = dir;
  {
    service::Daemon daemon(options);
    daemon.Start();
    const std::string spec = R"({"format": "xcv-job-spec",
        "functionals": "lda", "conditions": "EC1..EC2",
        "verifier": {"budget_seconds": 0}, "solver": {"max_nodes": 2000}})";
    for (const char* id : {"j1", "j2"}) {
      EXPECT_EQ(daemon.Handle({"POST", "/v1/campaigns", {}, {}, spec}).status,
                201);
      std::string status;
      for (int i = 0; i < 3000 && status != "done"; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        status = json::ParseJson(
                     daemon
                         .Handle({"GET", std::string("/v1/campaigns/") + id,
                                  {}, {}, ""})
                         .body)
                     .At("status")
                     .AsString();
      }
      EXPECT_EQ(status, "done") << id;
    }
    daemon.Stop();
  }
  doc.intact = ReadAll(doc.path);
  doc.load = [options, path = doc.path] {
    service::Daemon daemon(options);
    daemon.Start();  // re-saves the journal it recovered
    const support::LoadOutcome outcome = daemon.JournalLoad();
    daemon.Stop();
    return std::make_pair(outcome, ReadAll(path));
  };
  return doc;
}

DocumentCase LedgerCase() {
  DocumentCase doc;
  doc.records = "nodes";
  doc.fault_prefix = "nodes";
  doc.path = testing::TempDir() + "table_nodes.json";
  std::remove(doc.path.c_str());
  support::retry::NodeLedger ledger;
  ledger.Load(doc.path);
  const support::retry::RuntimeAttrs attrs;
  ledger.RecordLaunch("local-0");
  ledger.RecordSuccess("local-0");
  ledger.RecordLaunch("local-1");
  ledger.RecordFailure("local-1", support::retry::FailureKind::kPreempted,
                       attrs);
  ledger.RecordLaunch("local-2");
  ledger.Save();
  doc.intact = ReadAll(doc.path);
  doc.load = [path = doc.path] {
    support::LoadOutcome outcome;
    support::retry::NodeLedger loaded;
    loaded.Load(path, &outcome);
    return std::make_pair(outcome, loaded.ToJson());
  };
  return doc;
}

// Given `text[start]` == '{' or '[', the index one past the matching close
// bracket (string- and escape-aware), or npos when the value is incomplete.
std::size_t SkipBalanced(const std::string& text, std::size_t start) {
  if (start >= text.size() || (text[start] != '{' && text[start] != '['))
    return std::string::npos;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = start; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\')
        ++i;  // the escaped byte (may run off the end: a torn file)
      else if (c == '"')
        in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      return i + 1;
    }
  }
  return std::string::npos;
}

// Byte spans [begin, end) of the records in `doc`'s `key` array.
std::vector<std::pair<std::size_t, std::size_t>> RecordSpans(
    const std::string& doc, const std::string& key) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  const std::size_t array = doc.find("\"" + key + "\": [");
  if (array == std::string::npos) return spans;
  for (std::size_t pos = doc.find('[', array) + 1;;) {
    pos = doc.find_first_not_of(", \t\r\n", pos);
    if (pos == std::string::npos || doc[pos] != '{') break;
    const std::size_t end = SkipBalanced(doc, pos);
    if (end == std::string::npos) break;
    spans.emplace_back(pos, end);
    pos = end;
  }
  return spans;
}

std::vector<std::string> RecordTexts(const std::string& doc,
                                     const std::string& key) {
  std::vector<std::string> texts;
  for (const auto& [begin, end] : RecordSpans(doc, key))
    texts.push_back(doc.substr(begin, end - begin));
  return texts;
}

// `doc` with the first `from` replaced by `to` and its checksum recomputed,
// so the loader judges the edit itself, not a checksum mismatch.
std::string Edited(std::string doc, const std::string& from,
                   const std::string& to) {
  const std::size_t checksum = doc.find("  \"checksum\": ");
  doc.erase(checksum, doc.find('\n', checksum) + 1 - checksum);
  const std::size_t at = doc.find(from);
  XCV_CHECK_MSG(at != std::string::npos, "no '" << from << "' to edit");
  doc.replace(at, from.size(), to);
  return support::AddDocumentChecksum(std::move(doc));
}

struct DocumentParam {
  const char* name;
  DocumentCase (*make)();
};

class DocumentRecoveryTest
    : public FaultTest,
      public ::testing::WithParamInterface<DocumentParam> {};

TEST_P(DocumentRecoveryTest, FollowsTheSharedPolicy) {
  const DocumentCase doc = GetParam().make();
  const std::string corrupt = doc.path + ".corrupt";
  const std::vector<std::string> originals =
      RecordTexts(doc.intact, doc.records);
  ASSERT_GE(originals.size(), 2u);
  const auto load = [&](const std::string* bytes) {
    std::filesystem::remove(corrupt);
    if (bytes != nullptr)
      WriteAll(doc.path, *bytes);
    else
      std::filesystem::remove(doc.path);
    return doc.load();
  };

  {  // Absent: cold, nothing to quarantine.
    const auto [outcome, state] = load(nullptr);
    EXPECT_TRUE(outcome.cold);
    EXPECT_TRUE(RecordTexts(state, doc.records).empty());
    EXPECT_FALSE(std::filesystem::exists(corrupt));
  }
  {  // Read error: cold.
    fault::ArmFromSpec(doc.fault_prefix + ".load.eio");
    const auto [outcome, state] = load(&doc.intact);
    fault::Disarm();
    EXPECT_TRUE(outcome.cold);
    EXPECT_TRUE(RecordTexts(state, doc.records).empty());
  }
  {  // Intact: clean, every record.
    const auto [outcome, state] = load(&doc.intact);
    EXPECT_TRUE(outcome.clean);
    EXPECT_EQ(outcome.records, originals.size());
    EXPECT_EQ(RecordTexts(state, doc.records), originals);
    EXPECT_FALSE(std::filesystem::exists(corrupt));
  }

  // Torn at every record boundary and mid-record: salvaged, exactly the
  // records before the cut, each re-serializing to the original's bytes.
  const auto spans = RecordSpans(doc.intact, doc.records);
  std::vector<std::pair<std::size_t, std::size_t>> cuts;  // (bytes, kept)
  cuts.emplace_back(spans[0].first, 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    cuts.emplace_back((spans[i].first + spans[i].second) / 2, i);
    cuts.emplace_back(spans[i].second, i + 1);
  }
  for (const auto& [cut, kept] : cuts) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string torn = doc.intact.substr(0, cut);
    const auto [outcome, state] = load(&torn);
    EXPECT_TRUE(outcome.salvaged);
    EXPECT_EQ(outcome.records, kept);
    EXPECT_EQ(RecordTexts(state, doc.records),
              std::vector<std::string>(originals.begin(),
                                       originals.begin() + kept));
    EXPECT_EQ(ReadAll(corrupt), torn);
  }

  // Damage that still parses: cold, and the damaged bytes quarantined.
  std::string flipped = doc.intact;
  const std::size_t digit = flipped.find_first_of("0123456789", spans[0].first);
  ASSERT_LT(digit, spans[0].second);
  flipped[digit] = flipped[digit] == '1' ? '2' : '1';
  const std::string format =
      json::ParseJson(doc.intact).At("format").AsString();
  const std::string version_key =
      doc.intact.find("\"schema_version\": 1") != std::string::npos
          ? "\"schema_version\": "
          : "\"version\": ";
  const std::pair<const char*, std::string> damaged[] = {
      {"one digit flipped", flipped},
      {"newer schema",
       Edited(doc.intact, version_key + "1", version_key + "99")},
      {"wrong format", Edited(doc.intact, "\"" + format + "\"",
                              "\"not-" + format + "\"")}};
  for (const auto& [what, bytes] : damaged) {
    SCOPED_TRACE(what);
    const auto [outcome, state] = load(&bytes);
    EXPECT_TRUE(outcome.cold);
    EXPECT_EQ(outcome.records, 0u);
    EXPECT_TRUE(RecordTexts(state, doc.records).empty());
    EXPECT_EQ(ReadAll(corrupt), bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Documents, DocumentRecoveryTest,
    ::testing::Values(DocumentParam{"Checkpoint", &CheckpointCase},
                      DocumentParam{"VerdictCache", &CacheCase},
                      DocumentParam{"QueueJournal", &JournalCase},
                      DocumentParam{"NodeLedger", &LedgerCase}),
    [](const ::testing::TestParamInfo<DocumentParam>& info) {
      return std::string(info.param.name);
    });

// ---- The streamed verdict-cache load against a tree oracle ------------------

// A verdict-cache load as a whole-document tree sees it: json::ParseJson
// over the text and entries read from JsonValues. A complete document
// loads clean, or cold when its checksum or header fails, or salvaged up to
// the first refused entry. A text that does not parse is torn: its header
// is the text through `"entries": [`, closed off, and its entries are
// carved one by one by bracket matching, each parsed alone, up to the
// first that does not follow its predecessor after one ',' or does not
// parse.
struct TreeLoad {
  int outcome = 2;  // 0 clean, 1 salvaged, 2 cold
  std::size_t records = 0;
  std::string entries;  // the loaded cache's ToJson
};

TreeLoad LoadAsTree(const std::string& text) {
  cache::VerdictCache cache;
  TreeLoad out;
  const auto finish = [&](int outcome) {
    out.outcome = outcome;
    out.entries = cache.ToJson();
    return out;
  };
  const auto entry = [&cache](const json::JsonValue& ev) {
    const std::string& scope_hex = ev.At("scope").AsString();
    char* end = nullptr;
    const std::uint64_t scope = std::strtoull(scope_hex.c_str(), &end, 16);
    XCV_CHECK(end != scope_hex.c_str() && *end == '\0');
    const std::vector<Interval> box = solver::BoxFromJson(ev.At("box"));
    cache::CachedVerdict v;
    v.kind = cache::CachedKindFromToken(ev.At("kind").AsString());
    v.nodes = static_cast<std::uint64_t>(json::CheckedInteger(
        ev.At("nodes").AsDouble(), 0, json::kMaxExactInteger, "nodes"));
    if (const json::JsonValue* m = ev.Find("model"))
      v.model = solver::PointFromJson(*m);
    if (const json::JsonValue* mb = ev.Find("model_box"))
      v.model_box = solver::BoxFromJson(*mb);
    cache.Store(scope, box, std::move(v));
  };
  const auto header_ok = [](const json::JsonValue& root) {
    try {
      json::RequireSupportedSchema(root, "xcv-verdict-cache", 1);
      return root.At("format").AsString() == "xcv-verdict-cache" &&
             root.At("entries").kind == json::JsonValue::Kind::kArray;
    } catch (const InternalError&) {
      return false;
    }
  };

  json::JsonValue root;
  bool torn = false;
  try {
    root = json::ParseJson(text);
  } catch (const InternalError&) {
    torn = true;
  }
  if (!torn) {
    if (support::VerifyDocumentChecksum(text) == ChecksumStatus::kMismatch ||
        !header_ok(root))
      return finish(2);
    for (const json::JsonValue& ev : root.At("entries").array) {
      try {
        entry(ev);
      } catch (const InternalError&) {
        return finish(1);
      }
      ++out.records;
    }
    return finish(0);
  }
  const std::string marker = "\"entries\": [";
  const std::size_t at = text.find(marker);
  if (at == std::string::npos) return finish(2);
  try {
    root = json::ParseJson(text.substr(0, at + marker.size()) + "]}");
  } catch (const InternalError&) {
    return finish(2);
  }
  if (!header_ok(root)) return finish(2);
  const auto skip_space = [&text](std::size_t pos) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
    return pos;
  };
  std::size_t pos = skip_space(at + marker.size());
  for (bool first = true;; first = false) {
    if (!first) {
      if (pos >= text.size() || text[pos] != ',') break;
      pos = skip_space(pos + 1);
    }
    const std::size_t end = SkipBalanced(text, pos);
    if (end == std::string::npos) break;
    try {
      entry(json::ParseJson(text.substr(pos, end - pos)));
    } catch (const InternalError&) {
      break;
    }
    ++out.records;
    pos = skip_space(end);
  }
  return finish(1);
}

std::string ToText(const json::JsonValue& v) {
  using Kind = json::JsonValue::Kind;
  switch (v.kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return v.boolean ? "true" : "false";
    case Kind::kNumber: return json::JsonDouble(v.number);
    case Kind::kString: return json::JsonEscape(v.str);
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i)
        out += (i ? ", " : "") + ToText(v.array[i]);
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < v.object.size(); ++i)
        out += (i ? ", " : "") + json::JsonEscape(v.object[i].first) + ": " +
               ToText(v.object[i].second);
      return out + "}";
    }
  }
  return "null";
}

// `doc` without its checksum line.
std::string Unstamped(std::string doc) {
  const std::size_t checksum = doc.find("  \"checksum\": ");
  doc.erase(checksum, doc.find('\n', checksum) + 1 - checksum);
  return doc;
}

// Seeded mutants of the tiny campaign's cache file, each loaded by
// VerdictCache::Load and by the tree oracle above: the same outcome, record
// count and entries. Truncations and half the byte flips keep the original
// checksum; every other mutant is re-stamped, so the loader judges the edit
// itself, and a quarter of those is also torn.
TEST_F(FaultTest, StreamedCacheLoadMatchesTheTreeOracle) {
  const std::string path = testing::TempDir() + "fault_cache_oracle.json";
  RunTinyCampaign(testing::TempDir() + "fault_cache_oracle_ck.json", path);
  const std::string intact = ReadAll(path);
  const std::string bare = Unstamped(intact);
  const auto spans = RecordSpans(bare, "entries");
  ASSERT_GE(spans.size(), 3u);

  std::mt19937 rng(20261018);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::string nested =
      R"({"a": [1, {"b": "x\"y\\z"}, null, true, -2.5e-3], "c": {}})";
  // `bare` with one record replaced by what `edit` makes of its members.
  const auto edit_record = [&](const auto& edit) {
    const auto [begin, end] = spans[pick(spans.size())];
    json::JsonValue record =
        json::ParseJson(bare.substr(begin, end - begin));
    std::string text = edit(record);
    return bare.substr(0, begin) + text + bare.substr(end);
  };
  const auto number_in = [&](json::JsonValue& v) -> json::JsonValue* {
    std::vector<json::JsonValue*> numbers;
    std::function<void(json::JsonValue&)> walk = [&](json::JsonValue& x) {
      if (x.kind == json::JsonValue::Kind::kNumber) numbers.push_back(&x);
      for (json::JsonValue& c : x.array) walk(c);
      for (auto& [k, c] : x.object) walk(c);
    };
    walk(v);
    return numbers.empty() ? nullptr : numbers[pick(numbers.size())];
  };

  std::vector<std::string> mutants;
  for (int i = 0; i < 40; ++i)
    mutants.push_back(intact.substr(0, pick(intact.size() + 1)));
  for (int i = 0; i < 60; ++i) {
    std::string text = i % 2 ? intact : bare;
    const std::size_t at = pick(text.size());
    text[at] = static_cast<char>(
        (static_cast<unsigned char>(text[at]) + 1 + pick(255)) % 256);
    mutants.push_back(i % 2 ? text : support::AddDocumentChecksum(text));
  }
  std::vector<std::string> edited;
  const char* const kinds[] = {"unsat", "delta_sat", "timeout", "maybe"};
  for (int i = 0; i < 20; ++i) {  // a repeated key with another value
    edited.push_back(edit_record([&](json::JsonValue& record) {
      const std::size_t at = pick(record.object.size());
      json::JsonValue other;
      const std::string& key = record.object[at].first;
      if (key == "scope" || key == "kind") {
        other.kind = json::JsonValue::Kind::kString;
        other.str = key == "kind" ? kinds[pick(4)] : "00000000000000a5";
      } else if (key == "nodes") {
        other = json::ParseJson(pick(4) ? std::to_string(pick(100)) : "-1");
      } else {
        other = json::ParseJson(key == "model" ? "[0.25]" : "[[0.5, 0.75]]");
      }
      record.object.insert(record.object.begin() + at + pick(2),
                           {key, other});
      return ToText(record);
    }));
  }
  for (int i = 0; i < 20; ++i) {  // keys in another order
    edited.push_back(edit_record([&](json::JsonValue& record) {
      std::shuffle(record.object.begin(), record.object.end(), rng);
      return ToText(record);
    }));
  }
  for (int i = 0; i < 20; ++i) {  // unknown keys with nested values
    std::string text = bare;
    if (i % 4 == 0) {
      text.insert(text.find("  \"entries\": ["),
                  "  \"x_header\": " + nested + ",\n");
    } else if (i % 4 == 1) {
      text.insert(text.rfind("\n}"), ",\n  \"x_trailer\": " + nested);
    } else {
      text = edit_record([&](json::JsonValue& record) {
        record.object.insert(
            record.object.begin() + pick(record.object.size() + 1),
            {"x_unknown", json::ParseJson(nested)});
        return ToText(record);
      });
    }
    edited.push_back(text);
  }
  for (int i = 0; i < 20; ++i) {  // non-finite tokens for numbers
    edited.push_back(edit_record([&](json::JsonValue& record) {
      if (json::JsonValue* n = number_in(record)) {
        n->kind = json::JsonValue::Kind::kString;
        n->str = std::array{"inf", "-inf", "nan"}[pick(3)];
      }
      return ToText(record);
    }));
  }
  for (int i = 0; i < 20; ++i) {  // a string byte written as \u00XX
    edited.push_back(edit_record([&](json::JsonValue& record) {
      std::string text = ToText(record);
      std::vector<std::size_t> letters;
      bool in_string = false;
      for (std::size_t c = 0; c < text.size(); ++c) {
        if (text[c] == '"') in_string = !in_string;
        else if (in_string && std::isalnum(static_cast<unsigned char>(text[c])))
          letters.push_back(c);
      }
      const std::size_t c = letters[pick(letters.size())];
      char escape[8];
      std::snprintf(escape, sizeof(escape), pick(2) ? "\\u%04x" : "\\u%04X",
                    static_cast<unsigned char>(text[c]));
      text.replace(c, 1, escape);
      return text;
    }));
  }
  for (const std::string& text : edited) {
    const std::string stamped = support::AddDocumentChecksum(text);
    mutants.push_back(pick(4) ? stamped
                              : stamped.substr(0, pick(stamped.size())));
  }

  int outcomes[3] = {};
  for (std::size_t m = 0; m < mutants.size(); ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m) + ":\n" + mutants[m]);
    WriteAll(path, mutants[m]);
    cache::VerdictCache streamed;
    support::LoadOutcome outcome;
    ASSERT_NO_THROW(streamed.Load(path, &outcome));
    const TreeLoad tree = LoadAsTree(mutants[m]);
    const int got = outcome.clean ? 0 : outcome.salvaged ? 1 : 2;
    EXPECT_EQ(got, tree.outcome);
    EXPECT_EQ(outcome.records, tree.records);
    EXPECT_EQ(streamed.ToJson(), tree.entries);
    ++outcomes[got];
  }
  EXPECT_EQ(mutants.size(), 200u);
  // Every outcome is exercised.
  EXPECT_GT(outcomes[0], 0);
  EXPECT_GT(outcomes[1], 0);
  EXPECT_GT(outcomes[2], 0);
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

// ---- Injected-crash death tests ---------------------------------------------
//
// Threadsafe style: the death-test child re-executes this test from the
// start, so the statements before EXPECT_EXIT run again in the child and
// the on-disk state the parent inspects afterwards is the CHILD's. All
// assertions below are therefore structural (verdicts, counts, document
// validity) rather than comparisons against parent-process bytes, which
// differ in the timing fields.

using FaultDeathTest = FaultTest;

TEST_F(FaultDeathTest, CrashBeforeRenameLeavesTheOldCheckpointIntact) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "fault_ck_rename.json";
  std::remove((path + ".tmp").c_str());
  RunTinyCampaign(path);

  // Attempt to overwrite the two-pair checkpoint with an empty one; the
  // injected crash hits after the temp file is written and fsynced but
  // before the rename.
  EXPECT_EXIT(
      {
        fault::ArmFromSpec("checkpoint.save.crash-before-rename");
        campaign::WriteCheckpointFile(path, FastCampaignOptions(), {}, false);
      },
      testing::ExitedWithCode(fault::kFaultExitCode), "");

  // The previous checkpoint survived in full: it strict-loads (checksum
  // intact) with both pairs done — not the empty document the crashed
  // write was carrying.
  EXPECT_EQ(support::VerifyDocumentChecksum(ReadAll(path)),
            ChecksumStatus::kOk);
  const Checkpoint survived = campaign::LoadCheckpointFile(path);
  ASSERT_EQ(survived.pairs.size(), 2u);
  for (const PairState& p : survived.pairs) EXPECT_TRUE(p.done);
  // The orphaned temp file proves the crash came after the write: it holds
  // the complete new (empty) document.
  const Checkpoint orphan =
      campaign::CheckpointFromJson(ReadAll(path + ".tmp"));
  EXPECT_TRUE(orphan.pairs.empty());
}

TEST_F(FaultDeathTest, ShortWriteTearsTheFileAndSalvageRecovers) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "fault_ck_shortwrite.json";
  const CampaignResult done = RunTinyCampaign(path);
  const Checkpoint full = campaign::LoadCheckpointFile(path);

  EXPECT_EXIT(
      {
        fault::ArmFromSpec("checkpoint.save.short-write");
        campaign::WriteCheckpointFile(path, full.options, full.pairs,
                                      full.cancelled);
      },
      testing::ExitedWithCode(fault::kFaultExitCode), "");

  // Half the bytes made it to disk under the final name — the torn-write
  // simulation. The strict loader must refuse it; the tolerant loader must
  // recover without inventing anything: only pairs the campaign really
  // ran, with the deterministic verdicts the parent's own run produced.
  EXPECT_THROW(campaign::LoadCheckpointFile(path), InternalError);
  const TolerantLoad r = LoadTolerant(path);
  EXPECT_FALSE(r.clean);
  EXPECT_TRUE(r.salvaged || r.cold);
  EXPECT_LE(r.checkpoint.pairs.size(), done.pairs.size());
  if (r.salvaged) EXPECT_EQ(r.quarantine_path, path + ".corrupt");
  for (const PairState& p : r.checkpoint.pairs) {
    bool found = false;
    for (const PairState& q : done.pairs) {
      if (q.functional == p.functional && q.condition == p.condition) {
        found = true;
        if (p.done) EXPECT_EQ(p.verdict, q.verdict);
      }
    }
    EXPECT_TRUE(found) << "salvage invented pair " << p.functional << " x "
                       << p.condition;
  }
}

TEST_F(FaultDeathTest, PairDoneCrashLeavesAResumableCheckpoint) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "fault_pair_crash.json";
  std::remove(path.c_str());

  EXPECT_EXIT(
      {
        fault::ArmFromSpec("campaign.pair-done.crash");
        RunTinyCampaign(path);
      },
      testing::ExitedWithCode(fault::kFaultExitCode), "");

  // The process died right after the first pair completed — which is after
  // that pair's checkpoint write, so the file is a valid snapshot with
  // exactly one pair done.
  TolerantLoad r = LoadTolerant(path);
  ASSERT_TRUE(r.clean);
  std::size_t finished = 0;
  for (const PairState& p : r.checkpoint.pairs)
    if (p.done) ++finished;
  EXPECT_EQ(finished, 1u);

  // Resuming the survivor runs the campaign to completion.
  CampaignOptions options = r.checkpoint.options;
  options.checkpoint_path = path;
  Campaign campaign(options);
  for (PairState& p : r.checkpoint.pairs) campaign.Restore(std::move(p));
  const CampaignResult resumed = campaign.Run();
  EXPECT_FALSE(resumed.cancelled);
  ASSERT_EQ(resumed.pairs.size(), 2u);
  for (const PairState& p : resumed.pairs) EXPECT_TRUE(p.done);
}

// ---- Coordinator fragment backfill ------------------------------------------

TEST_F(FaultTest, BackfillRestoresFragmentsAShardLost) {
  Checkpoint dealt;
  dealt.options = FastCampaignOptions();
  for (const char* cond : {"EC1", "EC2", "EC4"}) {
    dealt.pairs.push_back(
        campaign::InitialPairState(*functionals::FindFunctional("VWN_RPA"),
                                   *conditions::FindCondition(cond)));
  }

  // The shard came back with the middle fragment gone (torn off the end of
  // a salvaged file, say) and the first one completed.
  Checkpoint loaded;
  loaded.options = dealt.options;
  loaded.pairs.push_back(dealt.pairs[0]);
  loaded.pairs[0].done = true;
  loaded.pairs.push_back(dealt.pairs[2]);

  const std::size_t restored = shard::BackfillMissingPairs(loaded, dealt);
  EXPECT_EQ(restored, 1u);
  ASSERT_EQ(loaded.pairs.size(), 3u);
  // Progress that survived is kept; the lost fragment comes back in its
  // dealt (unrun) state.
  EXPECT_TRUE(loaded.pairs[0].done);
  EXPECT_EQ(loaded.pairs[2].condition, "EC2");
  EXPECT_FALSE(loaded.pairs[2].done);
  // Nothing to do when nothing is missing.
  EXPECT_EQ(shard::BackfillMissingPairs(loaded, dealt), 0u);
}

// ---- Heartbeat-lease edge cases ---------------------------------------------
//
// The liveness read (shard::HeartbeatAgeSeconds) must degrade to "silent
// since launch" on every pathological beat — and a silent node is a
// *stall* (the supervisor kills it, re-deals, retries), never a crash.

TEST_F(FaultTest, FutureHeartbeatMtimeDoesNotReadFreshForever) {
  const std::string hb = testing::TempDir() + "fault_hb_future";
  WriteAll(hb, "");
  // A writer with a skewed clock stamps the beat an hour into the future.
  // `now - mtime` is hugely negative; naively that never exceeds any
  // lease, and the node reads alive forever.
  std::filesystem::last_write_time(
      hb, std::filesystem::file_time_type::clock::now() +
              std::chrono::hours(1));
  EXPECT_EQ(shard::HeartbeatAgeSeconds(hb, 42.0), 42.0);
  // The supervisor's stale-lease SIGKILL then classifies as a stall.
  EXPECT_EQ(support::retry::ClassifyFailure(false, /*stall_kill=*/true, true,
                                            SIGKILL, 0),
            support::retry::FailureKind::kHeartbeatStall);
  std::filesystem::remove(hb);
}

TEST_F(FaultTest, SmallClockSkewStillReadsFresh) {
  const std::string hb = testing::TempDir() + "fault_hb_skew";
  WriteAll(hb, "");
  // Sub-second skew is ordinary clock jitter, not a pathology: the beat
  // clamps to age zero instead of falling back to time-since-launch.
  std::filesystem::last_write_time(
      hb, std::filesystem::file_time_type::clock::now() +
              std::chrono::milliseconds(300));
  EXPECT_EQ(shard::HeartbeatAgeSeconds(hb, 42.0), 0.0);
  std::filesystem::remove(hb);
}

TEST_F(FaultTest, HeartbeatUnlinkedMidRunFallsBackToTimeSinceLaunch) {
  const std::string hb = testing::TempDir() + "fault_hb_unlinked";
  support::TouchFile(hb);
  EXPECT_LT(shard::HeartbeatAgeSeconds(hb, 42.0), 42.0);
  // A janitor (or the work dir's cleanup) unlinks the beat mid-run: the
  // node must drift toward stale, not read as freshly launched forever.
  std::filesystem::remove(hb);
  EXPECT_EQ(shard::HeartbeatAgeSeconds(hb, 42.0), 42.0);
  EXPECT_EQ(support::retry::ClassifyFailure(false, true, true, SIGKILL, 0),
            support::retry::FailureKind::kHeartbeatStall);
}

TEST_F(FaultTest, TouchFileFailureMeansTheBeatNeverLands) {
  // An unwritable heartbeat path (here a regular file used as a directory
  // component, which fails with ENOTDIR even for root): TouchFile is
  // best-effort and silent, so the beat simply never lands and the lease
  // read falls back to time since launch — a stall, not a crash.
  const std::string blocker = testing::TempDir() + "fault_hb_blocker";
  WriteAll(blocker, "i am a file, not a directory");
  const std::string hb = blocker + "/hb";
  support::TouchFile(hb);
  EXPECT_FALSE(std::filesystem::exists(hb));
  EXPECT_EQ(shard::HeartbeatAgeSeconds(hb, 42.0), 42.0);
  EXPECT_EQ(support::retry::ClassifyFailure(false, true, true, SIGKILL, 0),
            support::retry::FailureKind::kHeartbeatStall);
  std::filesystem::remove(blocker);
}

}  // namespace
}  // namespace xcv
