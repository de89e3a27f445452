// Command-line error path of examples/run_simulation: a bad flag or value
// must end the run with exit code 2 and a message on stderr that names the
// cause plus the option list — never an uncaught exception (SIGABRT, exit
// 134). --help prints the option list and exits 0.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct Outcome {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Runs the binary with `args` through the shell, capturing both streams.
Outcome run_cli(const std::string& args) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto tag = std::to_string(::getpid()) + "_" +
                   ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const auto out_path = dir / ("canb_cli_out_" + tag);
  const auto err_path = dir / ("canb_cli_err_" + tag);
  const std::string cmd = std::string(CANB_RUN_SIMULATION) + " " + args + " >" +
                          out_path.string() + " 2>" + err_path.string();
  const int status = std::system(cmd.c_str());
  Outcome o;
  if (status != -1 && WIFEXITED(status)) o.exit_code = WEXITSTATUS(status);
  o.out = slurp(out_path);
  o.err = slurp(err_path);
  std::filesystem::remove(out_path);
  std::filesystem::remove(err_path);
  return o;
}

void expect_usage_error(const Outcome& o, const std::string& names) {
  EXPECT_EQ(o.exit_code, 2) << "stderr: " << o.err;
  EXPECT_NE(o.err.find(names), std::string::npos) << "stderr must name " << names << ": " << o.err;
  EXPECT_NE(o.err.find("usage:"), std::string::npos) << "stderr must carry the usage line";
}

TEST(CliErrors, UnknownFlagExitsTwoAndNamesIt) {
  expect_usage_error(run_cli("--no-such-flag=1 --steps=1"), "--no-such-flag");
}

TEST(CliErrors, UnknownTransportExitsTwoAndNamesIt) {
  const Outcome o = run_cli("--transport=shmem --steps=1");
  expect_usage_error(o, "--transport");
  EXPECT_NE(o.err.find("shmem"), std::string::npos);
}

TEST(CliErrors, MalformedNumberExitsTwo) { EXPECT_EQ(run_cli("--n=many").exit_code, 2); }

TEST(CliErrors, InvalidConfigurationExitsTwo) {
  // c = 3 does not divide p = 64: rejected by the engine's constructor.
  expect_usage_error(run_cli("--p=64 --c=3 --n=64 --steps=1"), "replication factor");
}

TEST(CliErrors, HelpPrintsUsageAndExitsZero) {
  const Outcome o = run_cli("--help");
  EXPECT_EQ(o.exit_code, 0) << "stderr: " << o.err;
  EXPECT_NE(o.out.find("usage:"), std::string::npos);
  EXPECT_NE(o.out.find("--method"), std::string::npos);
  EXPECT_TRUE(o.err.empty()) << o.err;
}

}  // namespace
