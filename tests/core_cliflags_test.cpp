// The CLI's usage text is generated from the flag table in cli.cpp, and
// this suite closes the loop the old hand-maintained usage blob could
// not: every command/flag pair the table documents is actually invoked
// once and must not be rejected as unknown, and undeclared flags must be
// usage errors (exit 2) on every command.
#include "src/core/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace mpps::core {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

/// Shared fixture: a tiny program file and a trace recorded from it, in
/// a per-process scratch directory (ctest runs suites concurrently).
class CliFlags : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(
        (std::filesystem::path(::testing::TempDir()) /
         ("cli_flags." + std::to_string(::getpid())))
            .string());
    std::filesystem::create_directories(*dir_);
    program_ = new std::string(*dir_ + "/flags.ops");
    std::ofstream ops(*program_);
    ops << "(make machine ^state s1)\n"
           "(p step1 (machine ^state s1) --> (modify 1 ^state s2))\n"
           "(p step2 (machine ^state s2) --> (halt))\n";
    ops.close();
    trace_ = new std::string(*dir_ + "/flags.trace");
    const CliRun r = cli({"trace", *program_, "-o", *trace_});
    ASSERT_EQ(r.code, 0) << r.err;
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete program_;
    delete trace_;
    dir_ = program_ = trace_ = nullptr;
  }

  /// The operand a command needs, plus flags that keep it fast.
  static std::vector<std::string> base_invocation(const CliCommand& cmd) {
    std::vector<std::string> args{cmd.name};
    if (cmd.operand.find(".ops") != std::string::npos) {
      args.push_back(*program_);
    } else if (cmd.operand.find(".trace") != std::string::npos) {
      args.push_back(*trace_);
    }
    if (cmd.name == "selfcheck") {
      args.insert(args.end(), {"--rounds", "2"});
    }
    if (cmd.name == "slice") {
      // The fixture trace has 2 cycles; the default --cycles 4 would be
      // out of range, which is a runtime error rather than a flag issue.
      args.insert(args.end(), {"--cycles", "1"});
    }
    return args;
  }

  /// Output-path samples must not collide across parallel test runs, so
  /// path-valued flags get per-fixture scratch paths instead of their
  /// table samples.
  static std::string sample_for(const CliCommand& cmd, const CliFlag& flag) {
    if (flag.name == "-o") {
      return cmd.name == "sections" ? *dir_ : *dir_ + "/o_" + cmd.name;
    }
    if (flag.name == "--trace-out") return *dir_ + "/" + cmd.name + ".t.json";
    if (flag.name == "--metrics-out") return *dir_ + "/" + cmd.name + ".m.csv";
    return flag.sample;
  }

  static std::string* dir_;
  static std::string* program_;
  static std::string* trace_;
};

std::string* CliFlags::dir_ = nullptr;
std::string* CliFlags::program_ = nullptr;
std::string* CliFlags::trace_ = nullptr;

TEST_F(CliFlags, EveryDocumentedFlagIsAccepted) {
  for (const CliCommand& cmd : cli_commands()) {
    for (const CliFlag& flag : cmd.flags) {
      std::vector<std::string> args = base_invocation(cmd);
      args.push_back(flag.name);
      if (!flag.value_name.empty()) {
        ASSERT_FALSE(flag.sample.empty())
            << cmd.name << " " << flag.name << ": value flag needs a sample";
        args.push_back(sample_for(cmd, flag));
      }
      if (flag.name == "--profile" || flag.name == "--match-batch") {
        // These configure the parallel engine, so each is a usage error
        // without --match-threads.
        args.insert(args.end(), {"--match-threads", "2"});
      }
      if (flag.name == "--replay") {
        // A schedule ID only means something relative to one scenario.
        args.insert(args.end(), {"--scenario", "fused-add-delete"});
      }
      if (flag.name == "--net-dims") {
        // Geometry flags are usage errors on a non-matching topology.
        args.insert(args.end(), {"--net", "mesh"});
      }
      if (flag.name == "--net-arity" || flag.name == "--net-levels") {
        args.insert(args.end(), {"--net", "fattree"});
      }
      const CliRun r = cli(args);
      EXPECT_EQ(r.err.find("unknown flag"), std::string::npos)
          << cmd.name << " rejected documented flag " << flag.name << ": "
          << r.err;
      EXPECT_EQ(r.code, 0) << cmd.name << " " << flag.name << " failed: "
                           << r.err;
    }
  }
}

TEST_F(CliFlags, EveryDocumentedFlagAppearsInUsage) {
  const std::string usage = cli_usage();
  for (const CliCommand& cmd : cli_commands()) {
    EXPECT_NE(usage.find("  " + cmd.name), std::string::npos) << cmd.name;
    for (const CliFlag& flag : cmd.flags) {
      EXPECT_NE(usage.find(flag.name), std::string::npos)
          << cmd.name << " " << flag.name;
    }
  }
}

TEST_F(CliFlags, UnknownFlagIsUsageErrorOnEveryCommand) {
  for (const CliCommand& cmd : cli_commands()) {
    std::vector<std::string> args = base_invocation(cmd);
    args.push_back("--no-such-flag");
    const CliRun r = cli(args);
    EXPECT_EQ(r.code, 2) << cmd.name << ": " << r.err;
    EXPECT_NE(r.err.find("unknown flag"), std::string::npos)
        << cmd.name << ": " << r.err;
  }
}

TEST_F(CliFlags, MissingFlagValueIsUsageError) {
  const CliRun r = cli({"simulate", *trace_, "--procs"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--procs"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("needs a value"), std::string::npos) << r.err;
}

TEST_F(CliFlags, StrayPositionalIsUsageError) {
  const CliRun extra = cli({"simulate", *trace_, "another.trace"});
  EXPECT_EQ(extra.code, 2);
  EXPECT_NE(extra.err.find("unexpected argument"), std::string::npos)
      << extra.err;
  const CliRun operandless = cli({"selfcheck", "file.trace"});
  EXPECT_EQ(operandless.code, 2);
}

TEST_F(CliFlags, UniformConventionsAcrossSubcommands) {
  // The unification contract: run/stats/simulate/sweep all accept the
  // same --procs comma-list, --jobs, and --trace-out/--metrics-out pair.
  for (const char* name : {"run", "stats", "simulate", "sweep"}) {
    const auto cmds = cli_commands();
    const auto it = std::find_if(
        cmds.begin(), cmds.end(),
        [&](const CliCommand& c) { return c.name == name; });
    ASSERT_NE(it, cmds.end()) << name;
    for (const char* flag :
         {"--procs", "--jobs", "--trace-out", "--metrics-out"}) {
      const bool found = std::any_of(
          it->flags.begin(), it->flags.end(),
          [&](const CliFlag& f) { return f.name == flag; });
      EXPECT_TRUE(found) << name << " is missing " << flag;
    }
  }
}

TEST_F(CliFlags, StatsAcceptsProcsListAndJobs) {
  const CliRun r = cli({"stats", *trace_, "--procs", "2,4", "--jobs", "2",
                        "--top", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("simulated run summary (2 match processors)"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("simulated run summary (4 match processors)"),
            std::string::npos)
      << r.out;
}

TEST_F(CliFlags, RunMatchThreadsPrintsMeasuredSkew) {
  const CliRun r = cli({"run", *program_, "--match-threads", "2", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("parallel match: 2 workers"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("measured busy skew:"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("outcome: halted"), std::string::npos) << r.out;
}

TEST_F(CliFlags, RunMatchThreadsWithSimulatedReplay) {
  // Measured skew (live parallel engine) and simulated skew (trace
  // replay) side by side in one invocation.
  const CliRun r = cli({"run", *program_, "--quiet", "--match-threads", "2",
                        "--match-assign", "random", "--seed", "3",
                        "--procs", "2,4", "--jobs", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("measured busy skew:"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("simulated 2 match processors"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("simulated 4 match processors"), std::string::npos)
      << r.out;
}

TEST_F(CliFlags, RunMatchBatchFusesPhases) {
  const CliRun r = cli({"run", *program_, "--quiet", "--match-threads", "2",
                        "--match-batch", "8"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("parallel match: 2 workers"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("BSP phases covering"), std::string::npos) << r.out;
}

TEST_F(CliFlags, MatchBatchRequiresMatchThreads) {
  const CliRun r = cli({"run", *program_, "--match-batch", "4"});
  EXPECT_EQ(r.code, 2) << r.err;
  EXPECT_NE(r.err.find("requires --match-threads"), std::string::npos)
      << r.err;
}

TEST_F(CliFlags, MatchBatchRejectsNonPositiveValues) {
  for (const char* bad : {"0", "-3", "abc", "4x"}) {
    const CliRun r = cli(
        {"run", *program_, "--match-threads", "2", "--match-batch", bad});
    EXPECT_EQ(r.code, 2) << bad << ": " << r.err;
    EXPECT_NE(r.err.find("not a positive integer"), std::string::npos)
        << bad << ": " << r.err;
  }
}

TEST_F(CliFlags, NumericFlagsRejectGarbageAndNegatives) {
  // Every integer flag is strict: a malformed or out-of-range value is a
  // usage error (exit 2) naming the flag, never a silent fall back to the
  // default (`--max-cycles abc` once ran with 100000).  Flags whose
  // documented default is 0 accept 0; the rest need a positive value.
  struct Case {
    std::vector<std::string> args;  // command + operand + context flags
    const char* flag;
    bool zero_ok;
  };
  const std::vector<Case> cases = {
      {{"run", *program_}, "--max-cycles", false},
      {{"run", *program_}, "--watch", true},
      {{"run", *program_}, "--match-threads", true},
      {{"run", *program_, "--match-threads", "2", "--match-assign",
        "random"},
       "--seed", true},
      {{"run", *program_, "--procs", "2"}, "--run", true},
      {{"run", *program_, "--procs", "2"}, "--jobs", false},
      {{"serve", *program_}, "--seed", true},
      {{"stats", *trace_}, "--top", false},
      {{"stats", *trace_}, "--jobs", false},
      {{"simulate", *trace_}, "--run", true},
      {{"simulate", *trace_}, "--ct", true},
      {{"simulate", *trace_}, "--cs", true},
      {{"simulate", *trace_, "--assign", "random"}, "--seed", true},
      {{"sweep", *trace_}, "--jobs", false},
      {{"trace", *program_, "-o", *dir_ + "/strict.trace"}, "--buckets",
       false},
      {{"sweep", *trace_, "--assign", "random"}, "--seed", true},
      {{"selfcheck"}, "--rounds", false},
      {{"selfcheck", "--rounds", "1"}, "--seed", true},
      {{"check"}, "--seed", true},
      {{"slice", *trace_, "-o", *dir_ + "/strict_slice.trace"}, "--from",
       true},
      {{"slice", *trace_, "-o", *dir_ + "/strict_slice.trace"}, "--cycles",
       false},
  };
  for (const Case& c : cases) {
    std::vector<std::string> bads = {"abc", "-1", "3x", ""};
    bads.back() = c.zero_ok ? "-5" : "0";
    for (const std::string& bad : bads) {
      std::vector<std::string> args = c.args;
      args.insert(args.end(), {c.flag, bad});
      const CliRun r = cli(args);
      const std::string what = args.front() + " " + c.flag + " " + bad;
      EXPECT_EQ(r.code, 2) << what << ": " << r.err;
      EXPECT_NE(r.err.find(c.flag), std::string::npos) << what << ": "
                                                       << r.err;
    }
  }
}

TEST_F(CliFlags, SweepAcceptsTraceOut) {
  const std::string timeline = *dir_ + "/sweep_timeline.json";
  const CliRun r = cli({"sweep", *trace_, "--procs", "2", "--runs", "1",
                        "--trace-out", timeline});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(timeline);
  EXPECT_TRUE(f.good()) << timeline;
}

}  // namespace
}  // namespace mpps::core
