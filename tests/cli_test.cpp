#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/job_spec.h"
#include "campaign/serialize.h"
#include "cli/cli.h"
#include "support/check.h"

namespace xcv::cli {
namespace {

std::vector<std::string> ConditionIds(const std::string& spec) {
  std::vector<std::string> ids;
  for (const auto* c : api::ParseConditionList(spec))
    ids.push_back(c->short_id);
  return ids;
}

std::vector<std::string> FunctionalNames(const std::string& spec) {
  std::vector<std::string> names;
  for (const auto* f : api::ParseFunctionalList(spec)) names.push_back(f->name);
  return names;
}

TEST(Cli, ParsesSingleConditions) {
  EXPECT_EQ(ConditionIds("EC1"), (std::vector<std::string>{"EC1"}));
  EXPECT_EQ(ConditionIds("ec3,EC1"),
            (std::vector<std::string>{"EC1", "EC3"}));  // paper row order
}

TEST(Cli, ParsesConditionRanges) {
  // Ranges follow Table I row order: EC1 EC2 EC3 EC6 EC7 EC4 EC5.
  EXPECT_EQ(ConditionIds("EC1..EC3"),
            (std::vector<std::string>{"EC1", "EC2", "EC3"}));
  EXPECT_EQ(ConditionIds("EC6-EC7"),
            (std::vector<std::string>{"EC6", "EC7"}));
  EXPECT_EQ(ConditionIds("EC1..EC7").size(), 7u);
  EXPECT_EQ(ConditionIds("all").size(), 7u);
}

TEST(Cli, RejectsBadConditionSpecs) {
  EXPECT_THROW(api::ParseConditionList("EC9"), InternalError);
  EXPECT_THROW(api::ParseConditionList(""), InternalError);
  EXPECT_THROW(api::ParseConditionList("EC7..EC1"), InternalError);
}

TEST(Cli, ParsesFunctionalNames) {
  EXPECT_EQ(FunctionalNames("pbe"), (std::vector<std::string>{"PBE"}));
  EXPECT_EQ(FunctionalNames("scan,pbe"),
            (std::vector<std::string>{"PBE", "SCAN"}));  // column order
  EXPECT_EQ(FunctionalNames("all").size(), 5u);
}

TEST(Cli, FamilySelectors) {
  // "lda" selects the LDA paper functional (VWN RPA) — the acceptance
  // spelling `--functionals=lda,pbe`.
  EXPECT_EQ(FunctionalNames("lda"), (std::vector<std::string>{"VWN_RPA"}));
  EXPECT_EQ(FunctionalNames("lda,pbe"),
            (std::vector<std::string>{"PBE", "VWN_RPA"}));
  const auto mgga = FunctionalNames("mgga");
  EXPECT_NE(std::find(mgga.begin(), mgga.end(), "SCAN"), mgga.end());
}

TEST(Cli, ExtensionFunctionalsAreOptIn) {
  const auto all = FunctionalNames("all");
  EXPECT_EQ(std::find(all.begin(), all.end(), "PBEsol"), all.end());
  EXPECT_EQ(FunctionalNames("pbesol"),
            (std::vector<std::string>{"PBEsol"}));
}

TEST(Cli, RejectsBadFunctionalSpecs) {
  EXPECT_THROW(api::ParseFunctionalList("b3lyp"), InternalError);
  EXPECT_THROW(api::ParseFunctionalList(""), InternalError);
}

TEST(Cli, UnknownFlagIsAUsageErrorWithASuggestion) {
  // The classic typo: the node budget flag is --solver-nodes. The error
  // must name the flag the user typed and point at the real one.
  api::JobSpec spec = api::DefaultJobSpec();
  try {
    api::ApplyFlags({{"max-nodes", "1000"}}, spec);
    FAIL() << "ApplyFlags accepted an unknown flag";
  } catch (const InternalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--max-nodes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--solver-nodes"), std::string::npos) << msg;
  }
}

TEST(Cli, UnknownFlagWithoutANearMissStillNamesTheFlag) {
  api::JobSpec spec = api::DefaultJobSpec();
  try {
    api::ApplyFlags({{"zzz-qqq", "1"}}, spec);
    FAIL() << "ApplyFlags accepted an unknown flag";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("--zzz-qqq"), std::string::npos);
  }
}

TEST(Cli, ExtraAllowedKeysPassTheStrictnessCheck) {
  // Command-consumed keys (resume's heartbeat, the global trace flag) are
  // declared by the caller and pass through untouched.
  api::JobSpec spec = api::DefaultJobSpec();
  EXPECT_NO_THROW(api::ApplyFlags({{"heartbeat", "/tmp/hb"}}, spec,
                                  {"heartbeat", "trace"}));
  EXPECT_THROW(api::ApplyFlags({{"heartbeat", "/tmp/hb"}}, spec),
               InternalError);
}

// Integer flags are checked as doubles (finite, integral, in range) before
// they are narrowed: a huge wave width used to reach the solver's scratch
// reservations and abort with std::bad_alloc.
TEST(Cli, IntegerFlagsAreCheckedBeforeNarrowing) {
  for (const auto& [key, value] :
       {std::pair<std::string, std::string>{"wave-width", "1e8"},
        {"threads", "1e300"},
        {"threads", "2.5"},
        {"threads", std::to_string(verifier::kMaxThreads + 1)}}) {
    api::JobSpec spec = api::DefaultJobSpec();
    try {
      api::ApplyFlags({{key, value}}, spec);
      FAIL() << "ApplyFlags accepted --" << key << "=" << value;
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find("--" + key), std::string::npos)
          << e.what();
    }
  }
  api::JobSpec widest = api::DefaultJobSpec();
  api::ApplyFlags({{"threads", std::to_string(verifier::kMaxThreads)}},
                  widest);
  EXPECT_EQ(widest.options.verifier.num_threads, verifier::kMaxThreads);
  const char* argv[] = {"xcv", "verify", "--functionals=lda",
                        "--conditions=EC1", "--wave-width=100000000"};
  EXPECT_EQ(Main(5, argv), 2);
}

// The chaos hook parses its node index through the checked flag parser: a
// malformed value is a usage error before any node launches, never a fault
// aimed at node 0.
TEST(Cli, ChaosFlagsAreCheckedBeforeAnyNodeLaunches) {
  const std::string work = ::testing::TempDir() + "xcv_chaos_flags";
  const std::string work_flag = "--work-dir=" + work;
  std::filesystem::remove_all(work);
  const char* argv[] = {"xcv",           "coordinate",
                        "--functionals=lda", "--conditions=EC1",
                        "--quiet",       work_flag.c_str(),
                        "--fault-node=x:checkpoint.load.eio"};
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(Main(7, argv), 2);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--fault-node"), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists(work));
}

// Runs `xcv resume` on a checkpoint file holding `text`; returns the exit
// code and leaves stderr in `err`.
int ResumeFrom(const std::string& name, const std::string& text,
               std::string* err) {
  const std::string path = ::testing::TempDir() + name;
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const std::string flag = "--checkpoint=" + path;
  const char* argv[] = {"xcv", "resume", flag.c_str()};
  ::testing::internal::CaptureStderr();
  const int rc = Main(3, argv);
  *err = ::testing::internal::GetCapturedStderr();
  std::remove(path.c_str());
  return rc;
}

TEST(Cli, ResumeRejectsHostileCheckpoints) {
  std::string err;
  // Unbounded nesting used to overflow the JSON reader's stack (SIGSEGV).
  // The streaming reader refuses a root that is not an object before it
  // descends, and stops nesting inside the header at the depth limit.
  EXPECT_EQ(ResumeFrom("xcv_deep_checkpoint.json",
                       std::string(2'000'000, '['), &err),
            2);
  EXPECT_NE(err.find("expected '{' at offset 0"), std::string::npos) << err;
  EXPECT_EQ(ResumeFrom("xcv_deep_checkpoint.json",
                       "{\"format\": " + std::string(2'000'000, '['), &err),
            2);
  EXPECT_NE(err.find("JSON nesting deeper than"), std::string::npos) << err;

  // Integer options are checked before they are narrowed, and a checkpoint's
  // solver options pass the same range checks as a job spec.
  const std::string base = campaign::CheckpointToJson(
      api::DefaultJobSpec().options, {}, /*cancelled=*/false);
  auto with_field = [&base](const std::string& field,
                            const std::string& value) {
    std::string text = base;
    const std::string key = "\"" + field + "\": ";
    const std::size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos) << field;
    const std::size_t begin = at + key.size();
    const std::size_t end = text.find_first_of(",\n", begin);
    text.replace(begin, end - begin, value);
    return text;
  };
  for (const auto& [field, value] :
       {std::pair<std::string, std::string>{"wave_width", "1e8"},
        {"num_threads", "1e300"},
        {"num_threads", std::to_string(verifier::kMaxThreads + 1)},
        {"contraction_rounds", "\"nan\""}}) {
    EXPECT_EQ(ResumeFrom("xcv_hostile_checkpoint.json",
                         with_field(field, value), &err),
              2)
        << field;
    EXPECT_NE(err.find(field), std::string::npos) << err;
  }
  // The widest count parses (not resumed: that would start its workers).
  const campaign::Checkpoint widest = campaign::CheckpointFromJson(
      with_field("num_threads", std::to_string(verifier::kMaxThreads)));
  EXPECT_EQ(widest.options.verifier.num_threads, verifier::kMaxThreads);
}

}  // namespace
}  // namespace xcv::cli
