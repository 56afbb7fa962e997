#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "fault/fault_plan.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/round_ledger.h"
#include "obs/trace.h"

namespace bcfl::obs {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(RollingSvVolatilityTest, SampleStddevOverTrailingWindow) {
  const std::vector<std::vector<double>> history = {
      {1.0, 2.0}, {3.0, 2.0}, {5.0, 2.0}};
  // Window 2: owner 0 sees {3, 5} -> sample stddev sqrt(2); owner 1 is
  // perfectly stable.
  std::vector<double> v = RollingSvVolatility(history, 2);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  // Window larger than the history uses everything: {1, 3, 5} -> 2.
  v = RollingSvVolatility(history, 10);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
  // Window 0 means "all".
  EXPECT_DOUBLE_EQ(RollingSvVolatility(history, 0)[0], 2.0);
}

TEST(RollingSvVolatilityTest, WarmupAndEmptyEdges) {
  EXPECT_TRUE(RollingSvVolatility({}, 5).empty());
  const std::vector<std::vector<double>> one = {{0.4, 0.6}};
  std::vector<double> v = RollingSvVolatility(one, 5);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(RoundLedgerTest, AppendRequiresOpen) {
  RoundLedger ledger;
  RoundRecord record;
  EXPECT_FALSE(ledger.Append(record).ok());
}

TEST(RoundLedgerTest, AppendsParseableRecordsWithVolatility) {
  const std::string path = TempPath("ledger_unit.jsonl");
  RoundLedger ledger(/*volatility_window=*/3);
  ASSERT_TRUE(ledger.Open(path).ok());

  for (uint64_t r = 0; r < 3; ++r) {
    RoundRecord record;
    record.round = r;
    record.phase_us["train"] = 100.0 + static_cast<double>(r);
    record.phase_us["consensus"] = 50.0;
    record.sig_cache_hit_rate = 0.75;
    record.sig_cache_lookups = 16;
    record.sv = {0.1 * static_cast<double>(r + 1), 0.2};
    record.accuracy = 0.9;
    record.blocks_committed = 1;
    record.transactions = 4;
    if (r == 1) {
      record.fault_events = {"round 1: crash owner 0"};
      record.dropouts = {0};
      record.recovered = {0};
    }
    ASSERT_TRUE(ledger.Append(record).ok());
  }
  EXPECT_EQ(ledger.rounds_written(), 3u);
  ASSERT_EQ(ledger.last_volatility().size(), 2u);
  // Owner 0 scored {0.1, 0.2, 0.3}: sample stddev 0.1.
  EXPECT_NEAR(ledger.last_volatility()[0], 0.1, 1e-12);
  EXPECT_NEAR(ledger.last_volatility()[1], 0.0, 1e-12);
  ledger.Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (size_t i = 0; i < lines.size(); ++i) {
    auto parsed = ParseJson(lines[i]);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_DOUBLE_EQ(parsed->Find("round")->number,
                     static_cast<double>(i));
    EXPECT_DOUBLE_EQ(parsed->Find("phase_us")->Find("train")->number,
                     100.0 + static_cast<double>(i));
    EXPECT_DOUBLE_EQ(parsed->Find("sig_cache_hit_rate")->number, 0.75);
    ASSERT_EQ(parsed->Find("sv")->array.size(), 2u);
    ASSERT_EQ(parsed->Find("sv_volatility")->array.size(), 2u);
    EXPECT_TRUE(parsed->Find("sv_volatility_mean")->is_number());
  }
  auto second = ParseJson(lines[1]);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->Find("fault_events")->array.size(), 1u);
  EXPECT_EQ(second->Find("fault_events")->array[0].string,
            "round 1: crash owner 0");
  EXPECT_DOUBLE_EQ(second->Find("dropouts")->array[0].number, 0.0);
  EXPECT_DOUBLE_EQ(second->Find("recovered")->array[0].number, 0.0);
}

// End-to-end acceptance: a faulted session with a reward pool must emit
// exactly one record per FL round, with the dropout, its fault events
// and the recovery on the right round, per-phase latencies filled in,
// and the reward phase folded into the final round's record.
TEST(RoundLedgerCoordinatorTest, OneRecordPerRoundWithFaultsAndReward) {
  const std::string path = TempPath("ledger_e2e.jsonl");
  RoundLedger ledger;
  ASSERT_TRUE(ledger.Open(path).ok());

  core::BcflConfig config;
  config.num_owners = 5;
  config.num_miners = 3;
  config.rounds = 3;
  config.num_groups = 2;
  config.digits.num_instances = 400;
  config.reward_pool = 50000;
  auto plan = fault::FaultPlan::Parse("crash owner 1 @1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  config.fault_plan = *plan;

  auto coordinator = core::BcflCoordinator::Create(config);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  (*coordinator)->set_round_ledger(&ledger);
  auto result = (*coordinator)->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ledger.Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);  // One record per round, reward included.

  for (size_t r = 0; r < lines.size(); ++r) {
    auto parsed = ParseJson(lines[r]);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_DOUBLE_EQ(parsed->Find("round")->number, static_cast<double>(r));
    const JsonValue* phases = parsed->Find("phase_us");
    ASSERT_NE(phases, nullptr);
    for (const char* phase : {"train", "tx_admission", "consensus",
                              "secureagg_mask", "sv_eval"}) {
      const JsonValue* us = phases->Find(phase);
      ASSERT_NE(us, nullptr) << "missing phase " << phase << " in round "
                             << r;
      EXPECT_GE(us->number, 0.0);
    }
    EXPECT_EQ(parsed->Find("sv")->array.size(), 5u);
    EXPECT_EQ(parsed->Find("sv_volatility")->array.size(), 5u);
    EXPECT_GT(parsed->Find("accuracy")->number, 0.0);
    EXPECT_GT(parsed->Find("blocks_committed")->number, 0.0);
    EXPECT_GT(parsed->Find("transactions")->number, 0.0);
    EXPECT_GT(parsed->Find("sig_cache_lookups")->number, 0.0);
  }

  // Round 1 carries the injected dropout end to end.
  auto faulted = ParseJson(lines[1]);
  ASSERT_TRUE(faulted.ok());
  ASSERT_EQ(faulted->Find("dropouts")->array.size(), 1u);
  EXPECT_DOUBLE_EQ(faulted->Find("dropouts")->array[0].number, 1.0);
  ASSERT_EQ(faulted->Find("recovered")->array.size(), 1u);
  EXPECT_DOUBLE_EQ(faulted->Find("recovered")->array[0].number, 1.0);
  EXPECT_FALSE(faulted->Find("fault_events")->array.empty());
  ASSERT_NE(faulted->Find("phase_us")->Find("secureagg_recover"), nullptr);
  // The retired owner scores 0 from the dropout round on.
  EXPECT_DOUBLE_EQ(faulted->Find("sv")->array[1].number, 0.0);

  // Fault-free rounds carry no fault fields...
  auto clean = ParseJson(lines[0]);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->Find("dropouts")->array.empty());
  EXPECT_EQ(clean->Find("phase_us")->Find("secureagg_recover"), nullptr);
  EXPECT_EQ(clean->Find("phase_us")->Find("reward"), nullptr);

  // ...and the final round absorbs the on-chain reward phase.
  auto last = ParseJson(lines[2]);
  ASSERT_TRUE(last.ok());
  const JsonValue* reward_us = last->Find("phase_us")->Find("reward");
  ASSERT_NE(reward_us, nullptr);
  EXPECT_GT(reward_us->number, 0.0);
  // SV volatility is live by round 2 (three samples of a noisy vector).
  EXPECT_GT(last->Find("sv_volatility_mean")->number, 0.0);

  std::remove(path.c_str());
}

TEST(RoundLedgerCoordinatorTest, UnmeasuredPhasesAreOmittedNotZero) {
  // `secureagg_mask` and `sv_eval` are span-histogram deltas: with obs
  // off nothing measures them, so the record must not claim 0 us.
  const bool metrics_were_on = MetricsRegistry::enabled();
  const bool tracer_was_on = Tracer::Global().enabled();
  const std::string path = TempPath("ledger_obs.jsonl");
  core::BcflConfig config;
  config.num_owners = 4;
  config.num_miners = 3;
  config.rounds = 2;
  config.num_groups = 2;
  config.digits.num_instances = 400;
  for (bool obs_on : {false, true}) {
    RoundLedger ledger;
    ASSERT_TRUE(ledger.Open(path).ok());
    MetricsRegistry::set_enabled(obs_on);
    Tracer::Global().set_enabled(obs_on);
    auto coordinator = core::BcflCoordinator::Create(config);
    if (coordinator.ok()) (*coordinator)->set_round_ledger(&ledger);
    const bool ran = coordinator.ok() && (*coordinator)->Run().ok();
    MetricsRegistry::set_enabled(metrics_were_on);
    Tracer::Global().set_enabled(tracer_was_on);
    ledger.Close();
    ASSERT_TRUE(ran);

    const std::vector<std::string> lines = ReadLines(path);
    ASSERT_EQ(lines.size(), 2u);
    for (const std::string& line : lines) {
      auto parsed = ParseJson(line);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      for (const char* phase : {"secureagg_mask", "sv_eval"}) {
        const JsonValue* us = parsed->Find("phase_us")->Find(phase);
        if (obs_on) {
          ASSERT_NE(us, nullptr) << phase;
          EXPECT_GT(us->number, 0.0) << phase;
        } else {
          EXPECT_EQ(us, nullptr) << phase;
        }
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bcfl::obs
