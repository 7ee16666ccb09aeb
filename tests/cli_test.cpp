#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
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
  // Command-consumed keys (resume's heartbeat and trace flags) are declared
  // by the caller and pass through untouched.
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

// Runs `xcv args...`; returns the exit code and leaves stderr in `err`
// (stdout is captured and dropped).
int RunXcv(const std::vector<std::string>& args, std::string* err) {
  std::vector<const char*> argv{"xcv"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc = Main(static_cast<int>(argv.size()), argv.data());
  *err = ::testing::internal::GetCapturedStderr();
  ::testing::internal::GetCapturedStdout();
  return rc;
}

// A usage error is the message alone: no source path, no C++ condition.
TEST(Cli, UsageErrorsPrintTheMessageAlone) {
  std::string err;
  EXPECT_EQ(RunXcv({"verify", "--threads=abc"}, &err), 2);
  EXPECT_EQ(err, "xcv: --threads needs a non-negative number, got 'abc'\n");
}

// Flag numbers are decimal: strtod's hex, infinities and leading blanks,
// which used to run (--solver-nodes=0x10 as 16 nodes, --budget-seconds=inf
// as no budget), are usage errors naming the flag; ".05" still parses.
TEST(Cli, FlagNumbersAreDecimal) {
  for (const auto& [flag, value] :
       {std::pair<std::string, std::string>{"solver-nodes", "0x10"},
        {"budget-seconds", "inf"},
        {"threads", " 4"},
        {"delta", "nan"},
        {"split-threshold", "1e400"},
        {"wave-width", "+8"}}) {
    std::string err;
    EXPECT_EQ(RunXcv({"verify", "--functionals=lda", "--conditions=EC1",
                      "--" + flag + "=" + value},
                     &err),
              2);
    EXPECT_EQ(err, "xcv: --" + flag + " needs a non-negative number, got '" +
                       value + "'\n");
  }
  api::JobSpec spec = api::DefaultJobSpec();
  api::ApplyFlags({{"split-threshold", ".05"}, {"delta", "2.e-3"}}, spec);
  EXPECT_EQ(spec.options.verifier.split_threshold, 0.05);
  EXPECT_EQ(spec.options.verifier.solver.delta, 2e-3);
}

// --trace belongs to the commands that record a trace (verify, resume,
// coordinate); every other command refuses it rather than ignore it.
TEST(Cli, TraceIsAcceptedOnlyWhereItRecords) {
  const std::string trace = ::testing::TempDir() + "xcv_trace_flag.json";
  const std::string flag = "--trace=" + trace;
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"list", flag},
        {"info", flag},
        {"shard", flag, "--functionals=lda", "--conditions=EC1",
         "--out-dir=" + ::testing::TempDir() + "xcv_trace_shards"},
        {"merge", flag, "/nonexistent/s.json"},
        {"cache-stats", flag, "/nonexistent/c.json"}}) {
    std::string err;
    EXPECT_EQ(RunXcv(args, &err), 2) << args.front();
    EXPECT_NE(err.find("unknown flag --trace"), std::string::npos) << err;
    EXPECT_FALSE(std::filesystem::exists(trace)) << args.front();
  }
  std::string err;
  EXPECT_EQ(RunXcv({"verify", "--functionals=lda", "--conditions=EC1",
                    "--solver-nodes=50", "--split-threshold=2", "--quiet",
                    flag},
                   &err),
            0)
      << err;
  EXPECT_TRUE(std::filesystem::exists(trace));
  std::remove(trace.c_str());
}

// Every command checks its flags, not only the ones that build a job spec.
TEST(Cli, EveryCommandRejectsUnknownFlags) {
  for (const auto& [args, flag] :
       {std::pair<std::vector<std::string>, std::string>{
            {"merge", "--skip-corupt", "/nonexistent/s.json"},
            "--skip-corupt"},
        {{"cache-stats", "--bogus", "/nonexistent/c.json"}, "--bogus"},
        {{"list", "--bogus"}, "--bogus"},
        {{"info", "--metricz"}, "--metricz"},
        {{"help", "--bogus"}, "--bogus"}}) {
    std::string err;
    EXPECT_EQ(RunXcv(args, &err), 2) << args.front();
    EXPECT_NE(err.find("unknown flag " + flag), std::string::npos) << err;
  }
  std::string err;
  RunXcv({"merge", "--skip-corupt", "/nonexistent/s.json"}, &err);
  EXPECT_NE(err.find("did you mean --skip-corrupt?"), std::string::npos)
      << err;
  RunXcv({"info", "--metricz"}, &err);
  EXPECT_NE(err.find("did you mean --metrics?"), std::string::npos) << err;
  EXPECT_EQ(RunXcv({"--help"}, &err), 0) << err;
}

// The fleet's retry policy and the tenant are no run options: verify takes
// neither, and coordinate checks its policy flags before the work dir exists.
TEST(Cli, FleetPolicyFlagsBelongToCoordinateAlone) {
  for (const std::string flag : {"--max-retries=1", "--tenant=a"}) {
    std::string err;
    EXPECT_EQ(RunXcv({"verify", "--functionals=lda", "--conditions=EC1", flag},
                     &err),
              2);
    EXPECT_NE(err.find("unknown flag " + flag.substr(0, flag.find('='))),
              std::string::npos)
        << err;
  }
  const std::string work = ::testing::TempDir() + "xcv_policy_flags";
  for (const auto& [flag, name] :
       {std::pair<std::string, std::string>{"--max-retries=-1",
                                            "--max-retries"},
        {"--quarantine-after=0", "--quarantine-after"},
        {"--launch-timeout=0", "--launch-timeout"}}) {
    std::filesystem::remove_all(work);
    std::string err;
    EXPECT_EQ(RunXcv({"coordinate", "--functionals=lda", "--conditions=EC1",
                      "--quiet", "--work-dir=" + work, flag},
                     &err),
              2);
    EXPECT_NE(err.find(name), std::string::npos) << err;
    EXPECT_FALSE(std::filesystem::exists(work)) << flag;
  }
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

// `text` with the value of its first `"field": ` replaced by `value`.
std::string WithField(std::string text, const std::string& field,
                      const std::string& value) {
  const std::string key = "\"" + field + "\": ";
  const std::size_t at = text.find(key);
  EXPECT_NE(at, std::string::npos) << field;
  const std::size_t begin = at + key.size();
  const std::size_t end = text.find_first_of(",\n", begin);
  text.replace(begin, end - begin, value);
  return text;
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
    return WithField(base, field, value);
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

// A checkpoint load runs the option validator, so merge refuses what resume
// would refuse and writes nothing (the legacy, unchecksummed form used to
// merge into a file resume then rejected).
TEST(Cli, CheckpointLoadsRefuseOptionsTheValidatorRejects) {
  const std::string dir = ::testing::TempDir();
  const std::string bad = dir + "xcv_bad_delta.json";
  const std::string out = dir + "xcv_bad_delta_merged.json";
  {
    std::ofstream file(bad, std::ios::binary);
    file << WithField(campaign::CheckpointToJson(api::DefaultJobSpec().options,
                                                 {}, /*cancelled=*/false),
                      "delta", "-1");
  }
  std::remove(out.c_str());
  try {
    campaign::LoadCheckpointFile(bad);
    FAIL() << "loaded a checkpoint with delta -1";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint: delta"),
              std::string::npos)
        << e.what();
  }
  std::string err;
  EXPECT_EQ(RunXcv({"merge", bad, "-o", out}, &err), 2);
  EXPECT_NE(err.find("checkpoint: delta"), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists(out));
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace xcv::cli
