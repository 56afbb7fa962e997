// Golden session digests: the committed oracle for round determinism.
// A small matrix of whole sessions (clean, dropout, byzantine,
// kill/resume, reward pool) runs at round engine pool sizes 1 and 3, and
// every run's session summary (chain tip height and hash, commit and
// fault counters, SV / weights / accuracy digests) must equal the entry
// committed in tests/golden/sessions.json.
//
// The binary is also the generator. After a change that alters session
// outcomes on purpose (DESIGN.md §13), rewrite the file with
//
//   ./build/tests/test_golden_sessions --regenerate tests/golden/sessions.json
//
// Regeneration runs every case at both pool sizes and writes nothing
// unless they agree.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "fault/fault_plan.h"
#include "obs/json_reader.h"

namespace bcfl::core {
namespace {

constexpr size_t kPoolSizes[] = {1, 3};

struct GoldenCase {
  std::string name;
  BcflConfig config;
  /// The plan kills the coordinator: run it killed, then resumed through
  /// a scratch state dir, and summarise the resumed session.
  bool resume = false;
};

void PrintTo(const GoldenCase& golden, std::ostream* out) {
  *out << golden.name;
}

BcflConfig SmallConfig(uint32_t owners, uint32_t rounds) {
  BcflConfig config;
  config.num_owners = owners;
  config.num_miners = 3;
  config.rounds = rounds;
  config.num_groups = 2;
  config.seed = 21;
  config.seed_e = 5;
  config.sigma = 0.5;
  config.local.epochs = 2;
  config.local.learning_rate = 0.05;
  config.digits.num_instances = 400;
  return config;
}

BcflConfig WithPlan(BcflConfig config, const char* plan) {
  config.fault_plan = *fault::FaultPlan::Parse(plan);
  return config;
}

std::vector<GoldenCase> Cases() {
  std::vector<GoldenCase> cases;
  cases.push_back({"clean", SmallConfig(5, 3)});
  // A crash, a retried submission and a deadline miss: two recoveries.
  cases.push_back(
      {"dropout",
       WithPlan(SmallConfig(6, 3),
                "crash owner 2 @1; drop-submit owner 1 @1 x2; "
                "drop-submit owner 4 @2 x8")});
  // Every byzantine kind, each convicted on chain; the dropout gives the
  // forged share a recovery to corrupt. Four byzantine owners out of
  // seven fit the Shamir budget only at threshold 3.
  BcflConfig byzantine = WithPlan(
      SmallConfig(7, 4),
      "drop-submit owner 5 @1 x8; bad-share owner 1 @1; "
      "equivocate-submit owner 2 @2; poison-update owner 4 @2 *50; "
      "inconsistent-mask owner 3 @3");
  byzantine.update_norm_bound = 5.0;
  byzantine.secure_agg_threshold = 3;
  cases.push_back({"byzantine", byzantine});
  cases.push_back(
      {"kill_resume", WithPlan(SmallConfig(5, 4), "kill @2"), true});
  BcflConfig reward = SmallConfig(5, 3);
  reward.reward_pool = 1'000'000;
  cases.push_back({"reward", reward});
  return cases;
}

Result<std::string> Summarize(BcflCoordinator* coordinator) {
  BCFL_ASSIGN_OR_RETURN(BcflRunResult result, coordinator->Run());
  return SessionSummaryJson(coordinator->engine().CanonicalChain(), result);
}

Result<std::string> RunKilledAndResumed(const BcflConfig& config,
                                        const std::string& state_dir) {
  PersistenceOptions persist;
  persist.state_dir = state_dir;
  {
    BCFL_ASSIGN_OR_RETURN(auto killed, BcflCoordinator::Create(config));
    BCFL_RETURN_IF_ERROR(killed->AttachPersistence(persist));
    if (killed->Run().ok() || !killed->was_killed()) {
      return Status::Internal("the planned kill did not fire");
    }
  }
  persist.resume = true;
  BCFL_ASSIGN_OR_RETURN(auto resumed, BcflCoordinator::Create(config));
  BCFL_RETURN_IF_ERROR(resumed->AttachPersistence(persist));
  if (resumed->start_round() == 0) {
    return Status::Internal("resume restored no completed round");
  }
  return Summarize(resumed.get());
}

/// Runs `golden` with `pool_threads` round engine workers and returns
/// the session summary.
Result<std::string> RunCase(const GoldenCase& golden, size_t pool_threads) {
  BcflConfig config = golden.config;
  config.pool_threads = pool_threads;
  if (!golden.resume) {
    BCFL_ASSIGN_OR_RETURN(auto coordinator, BcflCoordinator::Create(config));
    return Summarize(coordinator.get());
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bcfl_golden_" + std::to_string(::getpid()) + "_" + golden.name +
       "_" + std::to_string(pool_threads));
  std::filesystem::remove_all(dir);
  Result<std::string> summary = RunKilledAndResumed(config, dir.string());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return summary;
}

std::string Text(const obs::JsonValue& value) {
  return value.is_string() ? value.string : std::to_string(value.number);
}

class GoldenSessionTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenSessionTest, MatchesCommittedDigests) {
  auto golden = obs::ParseJsonFile(BCFL_GOLDEN_SESSIONS);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  const obs::JsonValue* expected = golden->Find(GetParam().name);
  ASSERT_NE(expected, nullptr) << "no golden entry for " << GetParam().name;
  for (size_t pool_threads : kPoolSizes) {
    auto summary = RunCase(GetParam(), pool_threads);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    auto actual = obs::ParseJson(*summary);
    ASSERT_TRUE(actual.ok()) << *summary;
    ASSERT_EQ(actual->object.size(), expected->object.size()) << *summary;
    for (const auto& [key, value] : actual->object) {
      const obs::JsonValue* want = expected->Find(key);
      ASSERT_NE(want, nullptr) << key;
      EXPECT_EQ(Text(value), Text(*want))
          << key << " at pool_threads=" << pool_threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenSessionTest,
                         ::testing::ValuesIn(Cases()),
                         [](const auto& info) { return info.param.name; });

TEST(GoldenSessionFileTest, HoldsExactlyTheCaseMatrix) {
  auto golden = obs::ParseJsonFile(BCFL_GOLDEN_SESSIONS);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  std::vector<std::string> names;
  for (const auto& [name, summary] : golden->object) names.push_back(name);
  std::vector<std::string> expected;
  for (const GoldenCase& golden_case : Cases()) {
    expected.push_back(golden_case.name);
  }
  EXPECT_EQ(names, expected);
}

/// Writes the golden file: one line per case, both pool sizes agreeing.
int Regenerate(const std::string& path) {
  const std::vector<GoldenCase> cases = Cases();
  std::string document = "{\n";
  for (size_t k = 0; k < cases.size(); ++k) {
    std::string first;
    for (size_t pool_threads : kPoolSizes) {
      auto summary = RunCase(cases[k], pool_threads);
      if (!summary.ok()) {
        std::fprintf(stderr, "%s: %s\n", cases[k].name.c_str(),
                     summary.status().ToString().c_str());
        return 1;
      }
      if (first.empty()) {
        first = *summary;
      } else if (*summary != first) {
        std::fprintf(stderr, "%s: pool_threads=%zu diverges:\n  %s\n  %s\n",
                     cases[k].name.c_str(), pool_threads, first.c_str(),
                     summary->c_str());
        return 1;
      }
    }
    document += "  \"" + cases[k].name + "\": " + first +
                (k + 1 < cases.size() ? ",\n" : "\n");
  }
  document += "}\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << document;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu golden sessions to %s\n", cases.size(), path.c_str());
  return 0;
}

}  // namespace
}  // namespace bcfl::core

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regenerate") != 0) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "usage: %s --regenerate <path>\n", argv[0]);
      return 2;
    }
    return bcfl::core::Regenerate(argv[i + 1]);
  }
  return RUN_ALL_TESTS();
}
