// End-to-end exit-code contract of hecsim_cli.
//
// Scripts drive the CLI (sweeps, CI, schedulers), so failures must be
// distinguishable without scraping stdout:
//   0  success            2  no feasible configuration
//   64 usage error        65 malformed input file (ParseError)
//   70 contract violation 74 file write failure (IoError)
//   75 partial result (wall-clock deadline)   1 any other error
//
// The binary path is injected by CMake as HECSIM_CLI_PATH.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace {

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(HECSIM_CLI_PATH) + " " + args + " > /dev/null 2> /dev/null";
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << "CLI did not exit normally: " << args;
  return WEXITSTATUS(status);
}

/// Like run_cli but captures stderr, for tests that pin diagnostics.
/// ctest runs each case as its own process, possibly in parallel, so the
/// capture file is named after the calling test.
int run_cli_stderr(const std::string& args, std::string* err_out) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string err_path = ::testing::TempDir() + "hecsim_cli_stderr_" +
                               test->test_suite_name() + "." + test->name() +
                               ".txt";
  const std::string cmd = std::string(HECSIM_CLI_PATH) + " " + args +
                          " > /dev/null 2> " + err_path;
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << "CLI did not exit normally: " << args;
  std::ifstream in(err_path);
  err_out->assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  return WEXITSTATUS(status);
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  EXPECT_TRUE(out.good());
  return path;
}

TEST(CliExitCodes, SuccessIsZero) {
  EXPECT_EQ(run_cli("EP 10000 --max-arm 2 --max-amd 2"), 0);
}

TEST(CliExitCodes, SuccessWithFaultFlagsIsZero) {
  EXPECT_EQ(run_cli("EP 10000 --max-arm 2 --max-amd 2 --mttf-h 100 "
                    "--straggler-prob 0.1 --checkpoint-s 5 --trials 8"),
            0);
}

TEST(CliExitCodes, InfeasibleDeadlineIsTwo) {
  EXPECT_EQ(run_cli("EP 0.001 --max-arm 1 --max-amd 1"), 2);
}

TEST(CliExitCodes, UnknownFlagIsUsageError) {
  EXPECT_EQ(run_cli("EP 120 --no-such-flag"), 64);
}

TEST(CliExitCodes, MalformedNumberIsUsageError) {
  EXPECT_EQ(run_cli("EP twelve"), 64);
}

TEST(CliExitCodes, MissingArgumentsIsUsageError) {
  EXPECT_EQ(run_cli("EP"), 64);
}

TEST(CliExitCodes, OutOfRangeFlagIsUsageError) {
  EXPECT_EQ(run_cli("EP 120 --straggler-prob 1.5"), 64);
  EXPECT_EQ(run_cli("EP 120 --mttf-h 0"), 64);
  EXPECT_EQ(run_cli("EP 120 --trials 0"), 64);
}

TEST(CliExitCodes, EqualsFormFlagsAreAccepted) {
  EXPECT_EQ(run_cli("EP 10000 --max-arm=2 --max-amd=2 --method=exhaustive"),
            0);
}

TEST(CliExitCodes, MalformedEqualsValueIsUsageError) {
  EXPECT_EQ(run_cli("EP 10000 --trials=abc"), 64);
  EXPECT_EQ(run_cli("EP 10000 --units=  --max-arm 1"), 64);
  EXPECT_EQ(run_cli("EP 10000 --seed=1e"), 64);
}

TEST(CliExitCodes, MalformedValueDiagnosticNamesTheFlag) {
  std::string err;
  EXPECT_EQ(run_cli_stderr("EP 10000 --trials=abc", &err), 64);
  EXPECT_NE(err.find("--trials"), std::string::npos) << err;
  EXPECT_NE(err.find("'abc'"), std::string::npos) << err;

  EXPECT_EQ(run_cli_stderr("EP 10000 --budget junk", &err), 64);
  EXPECT_NE(err.find("--budget"), std::string::npos) << err;
}

TEST(CliExitCodes, BadLogLevelIsUsageError) {
  EXPECT_EQ(run_cli("EP 10000 --log-level=7"), 64);
  EXPECT_EQ(run_cli("EP 10000 --log-level=x"), 64);
}

TEST(CliExitCodes, IntegerFlagsRejectFractionsAndOutOfRangeValues) {
  // Integer flags parse as integers: no silent truncation, no undefined
  // casts of huge or nan values, and the diagnostic names the flag.
  for (const std::string bad :
       {"--max-arm 1e12", "--max-amd nan", "--trials 1e10", "--max-arm 2.7",
        "--seed 1.5", "--trials 0.5", "--seed -1", "--max-arm 99999999999"}) {
    const std::string flag = bad.substr(0, bad.find(' '));
    std::string err;
    EXPECT_EQ(run_cli_stderr("EP 10000 --max-arm 2 --max-amd 2 " + bad, &err),
              64)
        << bad;
    EXPECT_NE(err.find(flag), std::string::npos) << bad << ": " << err;
  }
  EXPECT_EQ(run_cli("EP 10000 --max-arm 2 --max-amd 2 --mttf-h 100 "
                    "--trials 8 --seed 18446744073709551615"),
            0);
}

TEST(CliExitCodes, TraceAndMetricsFilesAreWritten) {
  const std::string trace = ::testing::TempDir() + "hecsim_cli_trace.json";
  const std::string metrics = ::testing::TempDir() + "hecsim_cli_metrics.txt";
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
  EXPECT_EQ(run_cli("EP 10000 --max-arm 2 --max-amd 2 --trace-out=" + trace +
                    " --metrics-out=" + metrics),
            0);

  std::ifstream trace_in(trace);
  ASSERT_TRUE(trace_in.good()) << trace;
  std::string trace_text((std::istreambuf_iterator<char>(trace_in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(trace_text.find("\"traceEvents\""), std::string::npos);
#ifndef HEC_OBS_DISABLE
  // This TU sees the same build-wide definitions as the CLI binary, so
  // the span expectation tracks whether instrumentation was compiled in.
  EXPECT_NE(trace_text.find("cli.evaluate"), std::string::npos);
#endif

  std::ifstream metrics_in(metrics);
  ASSERT_TRUE(metrics_in.good()) << metrics;
  std::string metrics_text((std::istreambuf_iterator<char>(metrics_in)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(metrics_text.find("hec_config_evaluations"), std::string::npos);
  EXPECT_NE(metrics_text.find("hec_sim_events_processed"),
            std::string::npos);
  EXPECT_NE(metrics_text.find("hec_fault_runs"), std::string::npos);
}

TEST(CliExitCodes, UnwritableTraceFileIsIoError) {
  // Observability exports commit atomically; a write failure is the
  // dedicated I/O exit code, not a generic error.
  EXPECT_EQ(run_cli("EP 10000 --max-arm 1 --max-amd 1 "
                    "--trace-out=/no/such/dir/t.json"),
            74);
}

TEST(CliExitCodes, MalformedInputsFileIsParseError) {
  const std::string path = write_temp(
      "hecsim_bad_inputs.txt",
      "format hec-workload-inputs 1\ninst_per_unit nan\nwpi 0.8\n");
  EXPECT_EQ(run_cli("EP 10000 --max-arm 1 --max-amd 1 --arm-inputs " + path),
            65);
}

TEST(CliExitCodes, UnknownKeyInInputsFileIsParseError) {
  const std::string path = write_temp(
      "hecsim_bad_key.txt",
      "format hec-workload-inputs 1\ninst_per_unit 100\nwpi 0.8\nbogus 1\n");
  EXPECT_EQ(run_cli("EP 10000 --max-arm 1 --max-amd 1 --amd-inputs " + path),
            65);
}

TEST(CliExitCodes, ContractViolationIsSeventy) {
  EXPECT_EQ(run_cli("EP 120 --max-arm -3 --max-amd 0"), 70);
}

TEST(CliExitCodes, OtherErrorsAreOne) {
  // Unknown workload and unreadable files are plain runtime errors.
  EXPECT_EQ(run_cli("nginx 120"), 1);
  EXPECT_EQ(run_cli("EP 120 --arm-inputs /no/such/file.txt"), 1);
}

TEST(CliExitCodes, HelpIsZero) {
  EXPECT_EQ(run_cli("--help"), 0);
}

TEST(CliExitCodes, VersionAndBuildInfoAreZero) {
  EXPECT_EQ(run_cli("--version"), 0);
  EXPECT_EQ(run_cli("--build-info"), 0);
}

TEST(CliExitCodes, VersionPrintsBuildProvenance) {
  const std::string out_path = ::testing::TempDir() + "cli_version_out.txt";
  const std::string cmd = std::string(HECSIM_CLI_PATH) + " --version > " +
                          out_path + " 2> /dev/null";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::ifstream in(out_path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("hecsim_cli"), std::string::npos) << text;
  EXPECT_NE(text.find("git "), std::string::npos) << text;
  EXPECT_NE(text.find("obs "), std::string::npos) << text;
}

TEST(CliExitCodes, ProfileOutWritesBothFormats) {
  const std::string json = ::testing::TempDir() + "cli_profile.json";
  const std::string folded = ::testing::TempDir() + "cli_profile.folded";
  std::remove(json.c_str());
  std::remove(folded.c_str());
  EXPECT_EQ(run_cli("EP 10000 --max-arm 2 --max-amd 2 --profile-out=" + json),
            0);
  EXPECT_EQ(
      run_cli("EP 10000 --max-arm 2 --max-amd 2 --profile-out=" + folded), 0);

  std::ifstream json_in(json);
  ASSERT_TRUE(json_in.good()) << json;
  std::string json_text((std::istreambuf_iterator<char>(json_in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(json_text.find("\"schema\":\"hec-profile/v1\""),
            std::string::npos);
  std::ifstream folded_in(folded);
  ASSERT_TRUE(folded_in.good()) << folded;
#ifndef HEC_OBS_DISABLE
  EXPECT_NE(json_text.find("cli.evaluate"), std::string::npos);
#endif
}

TEST(CliExitCodes, UnwritableProfileFileIsIoError) {
  EXPECT_EQ(run_cli("EP 10000 --max-arm 1 --max-amd 1 "
                    "--profile-out=/no/such/dir/p.json"),
            74);
}

TEST(CliExitCodes, LedgerRecordsEveryInvocationWithItsExitCode) {
  const std::string ledger = ::testing::TempDir() + "cli_ledger.jsonl";
  std::remove(ledger.c_str());
  // Success, infeasible and usage-error runs must all land one record
  // each, carrying the real process exit code — the ledger is the
  // cross-run memory, so error runs matter as much as clean ones.
  EXPECT_EQ(run_cli("EP 10000 --max-arm 2 --max-amd 2 --ledger " + ledger),
            0);
  EXPECT_EQ(run_cli("EP 0.001 --max-arm 1 --max-amd 1 --ledger " + ledger),
            2);

  std::ifstream in(ledger);
  ASSERT_TRUE(in.good()) << ledger;
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"schema\":\"hec-run-ledger/v1\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"exit_code\":0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"tool\":\"hecsim_cli\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"git_sha\""), std::string::npos);
  // Protocol-derived counters survive even under HEC_OBS_DISABLE.
  EXPECT_NE(lines[0].find("sweep.configs_visited"), std::string::npos);
  EXPECT_NE(lines[1].find("\"exit_code\":2"), std::string::npos);
}

TEST(CliExitCodes, DefaultRunLedgerCarriesThePruneSplit) {
  // The default query runs on the sweep engine, so its record carries
  // the evaluated/pruned split; this space prunes most of its chunks.
  const std::string ledger = ::testing::TempDir() + "cli_ledger_split.jsonl";
  std::remove(ledger.c_str());
  EXPECT_EQ(run_cli("Julius 300 --max-arm 32 --max-amd 12 --ledger " + ledger),
            0);
  std::ifstream in(ledger);
  const std::string record((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  const auto counter = [&](const std::string& name) {
    const std::string key = "\"" + name + "\":";
    const auto at = record.find(key);
    return at == std::string::npos
               ? -1.0
               : std::strtod(record.c_str() + at + key.size(), nullptr);
  };
  EXPECT_GT(counter("sweep.configs_evaluated"), 0.0) << record;
  EXPECT_GT(counter("sweep.configs_pruned"), 0.0) << record;
  EXPECT_EQ(counter("sweep.configs_evaluated") +
                counter("sweep.configs_pruned"),
            counter("sweep.configs_visited"))
      << record;
}

/// Like run_cli but with an environment assignment prefixed (the
/// command runs through the shell, so VAR=value binds to the CLI only).
int run_cli_env(const std::string& env, const std::string& args) {
  const std::string cmd = env + " " + std::string(HECSIM_CLI_PATH) + " " +
                          args + " > /dev/null 2> /dev/null";
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << "CLI did not exit normally: " << args;
  return WEXITSTATUS(status);
}

TEST(CliExitCodes, JournaledRunSucceedsAndRemovesJournal) {
  const std::string journal = ::testing::TempDir() + "cli_journal.jsonl";
  std::remove(journal.c_str());
  EXPECT_EQ(run_cli("EP 10000 --journal " + journal +
                    " --journal-interval-s 0"),
            0);
  std::ifstream left_over(journal);
  EXPECT_FALSE(left_over.good()) << "journal must be removed on completion";
}

TEST(CliExitCodes, WallDeadlineYieldsPartialExitAndJournalResumes) {
  const std::string journal = ::testing::TempDir() + "cli_partial.jsonl";
  std::remove(journal.c_str());
  // A deadline far below thread-spawn latency: the sweep stops before
  // (or just after) the first block and must report partial coverage.
  EXPECT_EQ(run_cli("EP 10000 --journal " + journal +
                    " --deadline-s 0.0000001"),
            75);
  std::ifstream saved(journal);
  EXPECT_TRUE(saved.good()) << "partial run must leave a journal";
  // The resume finishes the sweep and cleans up.
  EXPECT_EQ(run_cli("EP 10000 --journal " + journal), 0);
  std::ifstream left_over(journal);
  EXPECT_FALSE(left_over.good());
}

TEST(CliExitCodes, DeadlineEnvVariableAlsoBoundsTheSweep) {
  EXPECT_EQ(run_cli_env("HEC_DEADLINE_S=0.0000001", "EP 10000"), 75);
}

TEST(CliExitCodes, MalformedDeadlineEnvIsUsageErrorNeverIgnored) {
  // A typoed HEC_DEADLINE_S must never silently become "no deadline".
  EXPECT_EQ(run_cli_env("HEC_DEADLINE_S=-1", "EP 10000"), 64);
  EXPECT_EQ(run_cli_env("HEC_DEADLINE_S=0", "EP 10000"), 64);
  EXPECT_EQ(run_cli_env("HEC_DEADLINE_S=nan", "EP 10000"), 64);
  EXPECT_EQ(run_cli_env("HEC_DEADLINE_S=30s", "EP 10000"), 64);
  EXPECT_EQ(run_cli_env("HEC_DEADLINE_S=1.5x", "EP 10000"), 64);
  // Empty means unset — feature off, normal run.
  EXPECT_EQ(run_cli_env("HEC_DEADLINE_S=",
                        "EP 10000 --max-arm 2 --max-amd 2"),
            0);
}

TEST(CliExitCodes, MalformedDeadlineEnvDiagnosticNamesTheVariable) {
  const std::string err_path = ::testing::TempDir() + "cli_env_err.txt";
  const std::string cmd = std::string("HEC_DEADLINE_S=abc ") +
                          HECSIM_CLI_PATH +
                          " EP 10000 > /dev/null 2> " + err_path;
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 64);
  std::ifstream in(err_path);
  std::string err((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(err.find("HEC_DEADLINE_S"), std::string::npos) << err;
}

TEST(CliExitCodes, ResilienceFlagsRequireExhaustiveMethod) {
  const std::string journal = ::testing::TempDir() + "cli_usage.jsonl";
  EXPECT_EQ(run_cli("EP 10000 --method greedy --journal " + journal), 64);
  EXPECT_EQ(run_cli("EP 10000 --budget 500 --journal " + journal), 64);
  EXPECT_EQ(run_cli("EP 10000 --deadline-s 0"), 64);
  EXPECT_EQ(run_cli("EP 10000 --deadline-s -1"), 64);
}

TEST(CliExitCodes, BadFailpointGrammarIsUsageError) {
  std::string err;
  const std::string err_path = ::testing::TempDir() + "cli_failpoint_err.txt";
  const std::string cmd = std::string("HEC_FAILPOINT=bogus ") +
                          HECSIM_CLI_PATH +
                          " EP 10000 > /dev/null 2> " + err_path;
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 64);
  std::ifstream in(err_path);
  err.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  EXPECT_NE(err.find("failpoint"), std::string::npos) << err;
}

TEST(CliExitCodes, FailpointCrashKillsThenJournalResumes) {
  const std::string journal = ::testing::TempDir() + "cli_crash.jsonl";
  std::remove(journal.c_str());
  // The shell reports a SIGKILLed child as 128 + 9.
  EXPECT_EQ(run_cli_env("HEC_FAILPOINT=journal.commit:2:crash",
                        "EP 10000 --journal " + journal +
                            " --journal-interval-s 0"),
            137);
  std::ifstream saved(journal);
  EXPECT_TRUE(saved.good()) << "crash must leave the last durable commit";
  EXPECT_EQ(run_cli("EP 10000 --journal " + journal +
                    " --journal-interval-s 0"),
            0);
}

TEST(CliExitCodes, ShardedFlagValidation) {
  EXPECT_EQ(run_cli("EP 10000 --shards 0"), 64);
  EXPECT_EQ(run_cli("EP 10000 --shards two"), 64);
  EXPECT_EQ(run_cli("EP 10000 --shards 2.5"), 64);
  EXPECT_EQ(run_cli("EP 10000 --shards 2 --method greedy"), 64);
  EXPECT_EQ(run_cli("EP 10000 --shards 2 --budget 500"), 64);
  EXPECT_EQ(run_cli("EP 10000 --shards 2 --shard-timeout-s 0"), 64);
  EXPECT_EQ(run_cli("EP 10000 --shards 2 --max-retries -1"), 64);
}

TEST(CliExitCodes, ShardedSweepMatchesSingleProcessSweep) {
  // The sharded run prints one extra accounting line; everything else —
  // the frontier-derived recommendation — must be byte-identical to an
  // uninterrupted single-process (resumable) sweep of the same space.
  const std::string plain_out = ::testing::TempDir() + "cli_plain.txt";
  const std::string shard_out = ::testing::TempDir() + "cli_sharded.txt";
  const std::string journal = ::testing::TempDir() + "cli_single.jsonl";
  std::remove(journal.c_str());
  const std::string base = "EP 10000 --max-arm 6 --max-amd 6";
  ASSERT_EQ(std::system((std::string(HECSIM_CLI_PATH) + " " + base +
                         " --journal " + journal + " > " + plain_out +
                         " 2> /dev/null")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((std::string(HECSIM_CLI_PATH) + " " + base +
                         " --shards 2 --shard-timeout-s 30 --max-retries 2 "
                         "| grep -v 'sharded sweep' > " +
                         shard_out + " 2> /dev/null")
                            .c_str()),
            0);
  std::ifstream plain_in(plain_out), shard_in(shard_out);
  const std::string plain((std::istreambuf_iterator<char>(plain_in)),
                          std::istreambuf_iterator<char>());
  const std::string sharded((std::istreambuf_iterator<char>(shard_in)),
                            std::istreambuf_iterator<char>());
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, sharded);
}

TEST(CliExitCodes, ShardedSweepSurvivesAWorkerKill) {
  // SIGKILL the second spawned worker at its first progress boundary;
  // the coordinator requeues the shard and still exits 0 with a full
  // answer.
  EXPECT_EQ(run_cli_env("HEC_FAILPOINT=shard.attempt.2:1:crash",
                        "EP 10000 --shards 2 --max-arm 8 --max-amd 8"),
            0);
}

TEST(CliExitCodes, ShardedDeadlineIsPartialExit) {
  EXPECT_EQ(run_cli("EP 10000 --shards 2 --deadline-s 0.0000001"), 75);
}

TEST(CliExitCodes, CorruptJournalWarnsAndRestartsCleanly) {
  const std::string journal = ::testing::TempDir() + "cli_corrupt.jsonl";
  {
    std::ofstream out(journal);
    out << "{\"schema\":\"hec-sweep-journal/v1\"  broken\n";
  }
  std::string err;
  EXPECT_EQ(run_cli_stderr("EP 10000 --journal " + journal, &err), 0);
  EXPECT_NE(err.find("restarting sweep from scratch"), std::string::npos)
      << err;
}

}  // namespace
