#include "shapley/coalition_engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "data/digits.h"
#include "ml/logistic_regression.h"
#include "shapley/shapley_math.h"

namespace bcfl::shapley {
namespace {

ml::Dataset SmallTestSet() {
  data::DigitsConfig config;
  config.num_instances = 200;
  config.seed = 17;
  return data::DigitsGenerator(config).Generate();
}

std::vector<ml::Matrix> RandomModels(size_t m, size_t rows, size_t cols,
                                     uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<ml::Matrix> models;
  models.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    models.push_back(ml::Matrix::Gaussian(rows, cols, 0.3, &rng));
  }
  return models;
}

/// Scores a model by a fixed deterministic functional of its entries —
/// generic (non-linear-score) utility for exercising the weight-space
/// path.
class FrobeniusUtility : public UtilityFunction {
 public:
  Result<double> Evaluate(const ml::Matrix& weights) override {
    return weights.FrobeniusNorm() + 0.25 * weights.At(0, 0);
  }
};

/// Utility that fails on every coalition containing the poisoned value.
class FailingUtility : public UtilityFunction {
 public:
  Result<double> Evaluate(const ml::Matrix& weights) override {
    if (weights.At(0, 0) > 0.5) {
      return Status::Internal("poisoned model");
    }
    return weights.At(0, 0);
  }
};

/// Test accuracy without the linear-score capability, so the engine
/// scores mean models in weight space.
class WeightSpaceAccuracy : public UtilityFunction {
 public:
  explicit WeightSpaceAccuracy(ml::Dataset data) : inner_(std::move(data)) {}
  Result<double> Evaluate(const ml::Matrix& weights) override {
    return inner_.Evaluate(weights);
  }

 private:
  TestAccuracyUtility inner_;
};

/// The table the streamed path replaced: every coalition's score sum
/// materialized (2^m - 1 matrix adds, highest member last), then scored
/// by AccuracyFromScores, or by -LogLossFromScores on the 1/|S|-scaled
/// mean scores.
std::vector<double> MaterializedScoreTable(const std::vector<ml::Matrix>& models,
                                           const LinearScoreUtility& utility,
                                           bool log_loss) {
  std::vector<ml::Matrix> scores;
  for (const ml::Matrix& model : models) {
    scores.push_back(utility.PlayerScores(model).value());
  }
  const std::vector<int>& labels = utility.test_set().labels();
  std::vector<ml::Matrix> sums(size_t{1} << models.size());
  sums[0] = ml::Matrix(scores[0].rows(), scores[0].cols());
  std::vector<double> table(sums.size());
  for (uint64_t mask = 0; mask < sums.size(); ++mask) {
    if (mask > 0) {
      const int high = std::bit_width(mask) - 1;
      sums[mask] = sums[mask ^ (1ULL << high)];
      EXPECT_TRUE(sums[mask].AddInPlace(scores[high]).ok());
    }
    const size_t members = static_cast<size_t>(std::popcount(mask));
    table[mask] =
        log_loss
            ? -ml::LogLossFromScores(
                   members > 1 ? sums[mask].Scaled(1.0 / members) : sums[mask],
                   labels)
                   .value()
            : ml::AccuracyFromScores(sums[mask], labels).value();
  }
  return table;
}

/// The seed implementation: rebuild each coalition from scratch.
Result<double> NaiveCoalitionUtility(const std::vector<ml::Matrix>& models,
                                     uint64_t mask, UtilityFunction* u) {
  ml::Matrix coalition(models[0].rows(), models[0].cols());
  size_t count = 0;
  for (size_t j = 0; j < models.size(); ++j) {
    if (mask & (1ULL << j)) {
      BCFL_RETURN_IF_ERROR(coalition.AddInPlace(models[j]));
      ++count;
    }
  }
  if (count > 0) coalition.Scale(1.0 / static_cast<double>(count));
  return u->Evaluate(coalition);
}

TEST(CoalitionEngineTest, MatchesNaiveRebuildBitForBit) {
  // Weight-space path: subset-sum DP accumulates members in the same
  // ascending order as the naive rebuild, so the tables are identical.
  auto models = RandomModels(5, 6, 4, 11);
  FrobeniusUtility utility;
  CoalitionEngine engine(&utility);
  auto table = engine.EvaluateMeanCoalitions(models);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->size(), 32u);
  for (uint64_t mask = 0; mask < 32; ++mask) {
    auto naive = NaiveCoalitionUtility(models, mask, &utility);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ((*table)[mask], *naive) << "mask " << mask;
  }
  EXPECT_FALSE(engine.stats().used_linear_scores);
}

TEST(CoalitionEngineTest, ExactlyTwoToMMinusOneAdditions) {
  FrobeniusUtility utility;
  for (size_t m : {1u, 3u, 6u, 9u}) {
    auto models = RandomModels(m, 4, 3, 100 + m);
    CoalitionEngine engine(&utility);
    ASSERT_TRUE(engine.EvaluateMeanCoalitions(models).ok());
    EXPECT_EQ(engine.stats().matrix_additions, (1ULL << m) - 1)
        << "m = " << m;
    EXPECT_EQ(engine.stats().matrix_subtractions, 0u);
    EXPECT_EQ(engine.stats().utility_evaluations, 1ULL << m);
  }
}

TEST(CoalitionEngineTest, PoolSizeDoesNotChangeUtilityTableOrSv) {
  // Determinism guarantee: 1 worker vs many workers (vs no pool at all)
  // produce bit-identical utility tables and SV vectors.
  const size_t m = 6;
  ml::Dataset data = SmallTestSet();
  auto models = RandomModels(m, data.num_features() + 1, 10, 21);
  TestAccuracyUtility utility(data);

  CoalitionEngine serial(&utility);
  auto serial_table = serial.EvaluateMeanCoalitions(models);
  ASSERT_TRUE(serial_table.ok());

  for (size_t threads : {1u, 4u, 7u}) {
    ThreadPool pool(threads);
    CoalitionEngineConfig config;
    config.pool = &pool;
    CoalitionEngine parallel(&utility, config);
    auto parallel_table = parallel.EvaluateMeanCoalitions(models);
    ASSERT_TRUE(parallel_table.ok());
    ASSERT_EQ(parallel_table->size(), serial_table->size());
    for (size_t i = 0; i < serial_table->size(); ++i) {
      EXPECT_EQ((*parallel_table)[i], (*serial_table)[i])
          << "threads " << threads << " mask " << i;
    }
    auto serial_sv = ExactShapleyFromTable(m, *serial_table);
    auto parallel_sv = ExactShapleyFromTable(m, *parallel_table);
    ASSERT_TRUE(serial_sv.ok());
    ASSERT_TRUE(parallel_sv.ok());
    for (size_t i = 0; i < m; ++i) {
      EXPECT_EQ((*serial_sv)[i], (*parallel_sv)[i]);
    }
  }
}

TEST(CoalitionEngineTest, LinearScorePathAgreesWithWeightPath) {
  // TestAccuracyUtility takes the score-sum fast path; forcing the
  // generic path through a wrapper that hides the capability must give
  // the same accuracies up to FP-reassociation argmax ties.
  const size_t m = 5;
  ml::Dataset data = SmallTestSet();
  auto models = RandomModels(m, data.num_features() + 1, 10, 33);
  TestAccuracyUtility linear_utility(data);
  WeightSpaceAccuracy generic_utility(data);

  CoalitionEngine linear_engine(&linear_utility);
  CoalitionEngine generic_engine(&generic_utility);
  auto linear_table = linear_engine.EvaluateMeanCoalitions(models);
  auto generic_table = generic_engine.EvaluateMeanCoalitions(models);
  ASSERT_TRUE(linear_table.ok());
  ASSERT_TRUE(generic_table.ok());
  EXPECT_TRUE(linear_engine.stats().used_linear_scores);
  EXPECT_FALSE(generic_engine.stats().used_linear_scores);
  const double tie_tolerance =
      2.0 / static_cast<double>(data.num_examples());
  for (size_t i = 0; i < linear_table->size(); ++i) {
    EXPECT_NEAR((*linear_table)[i], (*generic_table)[i], tie_tolerance)
        << "mask " << i;
  }
}

TEST(CoalitionEngineTest, StreamedTableMatchesMaterializedScoreTable) {
  // Both linear-score terms, m = 1..10, no pool and pools of 1, 3 and 8:
  // every entry bit-equal to the materialized subset-sum score table.
  ml::Dataset data = SmallTestSet();
  TestAccuracyUtility accuracy(data);
  NegLogLossUtility log_loss(data);
  ThreadPool pool1(1), pool3(3), pool8(8);
  for (size_t m = 1; m <= 10; ++m) {
    auto models = RandomModels(m, data.num_features() + 1, 10, 300 + m);
    for (LinearScoreUtility* utility :
         {static_cast<LinearScoreUtility*>(&accuracy),
          static_cast<LinearScoreUtility*>(&log_loss)}) {
      const bool is_log_loss = utility == &log_loss;
      const std::vector<double> expected =
          MaterializedScoreTable(models, *utility, is_log_loss);
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1,
                               &pool3, &pool8}) {
        CoalitionEngineConfig config;
        config.pool = pool;
        CoalitionEngine engine(utility, config);
        auto table = engine.EvaluateMeanCoalitions(models);
        ASSERT_TRUE(table.ok());
        EXPECT_TRUE(engine.stats().used_linear_scores);
        EXPECT_EQ(engine.stats().utility_evaluations, size_t{1} << m);
        ASSERT_EQ(table->size(), expected.size());
        for (size_t mask = 0; mask < expected.size(); ++mask) {
          EXPECT_EQ(std::bit_cast<uint64_t>((*table)[mask]),
                    std::bit_cast<uint64_t>(expected[mask]))
              << "m " << m << (is_log_loss ? " log-loss" : " accuracy")
              << " pool " << (pool ? pool->num_threads() : 0) << " mask "
              << mask;
        }
      }
    }
  }
}

TEST(CoalitionEngineTest, BlockedProjectionMatchesFullScoreMatrices) {
  // The streamed path projects kProjectionRows test rows per player at a
  // time. Its totals must equal one kernel call over every player's full
  // X_aug * W matrix bit for bit: at block edges (63, 64, 65 rows), below
  // one block, at the paper's 1124-row test set, and at m = 1, 3 and 9.
  static_assert(CoalitionEngine::kProjectionRows == 64);
  data::DigitsConfig config;
  config.num_instances = 1124;
  config.seed = 23;
  const ml::Dataset all = data::DigitsGenerator(config).Generate();
  for (size_t rows : {1, 63, 64, 65, 1124}) {
    std::vector<size_t> first(rows);
    for (size_t i = 0; i < rows; ++i) first[i] = i;
    auto data = all.Subset(first);
    ASSERT_TRUE(data.ok());
    TestAccuracyUtility accuracy(*data);
    NegLogLossUtility log_loss(*data);
    for (size_t m : {1, 3, 9}) {
      auto models = RandomModels(m, data->num_features() + 1, 10, 900 + m);
      for (LinearScoreUtility* utility :
           {static_cast<LinearScoreUtility*>(&accuracy),
            static_cast<LinearScoreUtility*>(&log_loss)}) {
        std::vector<ml::Matrix> scores;
        std::vector<const double*> basis;
        for (const ml::Matrix& model : models) {
          auto s = utility->PlayerScores(model);
          ASSERT_TRUE(s.ok());
          scores.push_back(std::move(s).value());
        }
        for (const ml::Matrix& s : scores) basis.push_back(s.data().data());
        ml::kernels::CoalitionRows job;
        job.term = utility->row_term();
        job.basis = basis.data();
        job.players = m;
        job.rows = rows;
        job.classes = 10;
        job.labels = data->labels().data();
        std::vector<double> expected(size_t{1} << m, 0.0);
        ml::kernels::ScoreCoalitionRows(job, expected.data());
        for (double& t : expected) t = utility->UtilityFromRowTotal(t);

        CoalitionEngine engine(utility);
        auto table = engine.EvaluateMeanCoalitions(models);
        ASSERT_TRUE(table.ok());
        ASSERT_EQ(table->size(), expected.size());
        for (size_t mask = 0; mask < expected.size(); ++mask) {
          ASSERT_EQ(std::bit_cast<uint64_t>((*table)[mask]),
                    std::bit_cast<uint64_t>(expected[mask]))
              << "rows " << rows << " m " << m
              << (utility == &log_loss ? " log-loss" : " accuracy")
              << " mask " << mask;
        }
      }
    }
  }
}

TEST(CoalitionEngineTest, BlockedProjectionKeepsWeightShapeCheck) {
  ml::Dataset data = SmallTestSet();
  TestAccuracyUtility accuracy(data);
  // Every model lacks the bias row: the projection would read past the
  // weights, so the engine must refuse them before projecting.
  auto models = RandomModels(3, data.num_features(), 10, 41);
  CoalitionEngine engine(&accuracy);
  auto table = engine.EvaluateMeanCoalitions(models);
  EXPECT_FALSE(table.ok());
}

TEST(CoalitionEngineTest, GrayCodeFallbackMatchesSubsetSum) {
  // The weight-space paths only: linear-score utilities always stream.
  const size_t m = 6;
  ml::Dataset data = SmallTestSet();
  auto models = RandomModels(m, data.num_features() + 1, 10, 5);
  WeightSpaceAccuracy utility(data);

  CoalitionEngine table_engine(&utility);
  auto dp = table_engine.EvaluateMeanCoalitions(models);
  ASSERT_TRUE(dp.ok());
  ASSERT_FALSE(table_engine.stats().used_gray_code);

  CoalitionEngineConfig tight;
  tight.max_table_bytes = 1;  // Force the O(1)-memory path.
  CoalitionEngine gray_engine(&utility, tight);
  auto gray = gray_engine.EvaluateMeanCoalitions(models);
  ASSERT_TRUE(gray.ok());
  EXPECT_TRUE(gray_engine.stats().used_gray_code);
  // One add or sub per step over 2^m - 1 Gray transitions.
  EXPECT_EQ(gray_engine.stats().matrix_additions +
                gray_engine.stats().matrix_subtractions,
            (1ULL << m) - 1);
  const double tie_tolerance =
      2.0 / static_cast<double>(data.num_examples());
  for (size_t i = 0; i < dp->size(); ++i) {
    EXPECT_NEAR((*gray)[i], (*dp)[i], tie_tolerance) << "mask " << i;
  }
}

TEST(CoalitionEngineTest, LinearUtilityAboveTableBoundTakesGrayCode) {
  // The streamed row table (2^m x classes doubles) obeys max_table_bytes
  // too: one byte under it, linear utilities walk the Gray code in
  // weight space; exactly at it, they still stream.
  const size_t m = 6, classes = 10;
  ml::Dataset data = SmallTestSet();
  auto models = RandomModels(m, data.num_features() + 1, classes, 6);
  TestAccuracyUtility accuracy(data);
  NegLogLossUtility log_loss(data);
  const size_t row_table_bytes = (size_t{1} << m) * classes * sizeof(double);
  for (LinearScoreUtility* utility :
       {static_cast<LinearScoreUtility*>(&accuracy),
        static_cast<LinearScoreUtility*>(&log_loss)}) {
    CoalitionEngineConfig at_bound;
    at_bound.max_table_bytes = row_table_bytes;
    CoalitionEngine streamed_engine(utility, at_bound);
    auto streamed = streamed_engine.EvaluateMeanCoalitions(models);
    ASSERT_TRUE(streamed.ok());
    EXPECT_TRUE(streamed_engine.stats().used_linear_scores);
    EXPECT_FALSE(streamed_engine.stats().used_gray_code);

    CoalitionEngineConfig tight;
    tight.max_table_bytes = row_table_bytes - 1;
    CoalitionEngine gray_engine(utility, tight);
    auto gray = gray_engine.EvaluateMeanCoalitions(models);
    ASSERT_TRUE(gray.ok());
    EXPECT_FALSE(gray_engine.stats().used_linear_scores);
    EXPECT_TRUE(gray_engine.stats().used_gray_code);
    EXPECT_EQ(gray_engine.stats().matrix_additions +
                  gray_engine.stats().matrix_subtractions,
              (1ULL << m) - 1);
    // Weight-space running sums round differently from score sums: a
    // near-tie may flip one prediction, a loss moves in the last bits.
    const double tolerance =
        utility == &accuracy
            ? 2.0 / static_cast<double>(data.num_examples())
            : 1e-9;
    ASSERT_EQ(gray->size(), streamed->size());
    for (size_t i = 0; i < gray->size(); ++i) {
      EXPECT_NEAR((*gray)[i], (*streamed)[i], tolerance) << "mask " << i;
    }
  }
}

TEST(CoalitionEngineTest, PropagatesUtilityErrors) {
  std::vector<ml::Matrix> models = {ml::Matrix(1, 1, 0.1),
                                    ml::Matrix(1, 1, 2.0)};
  FailingUtility utility;
  CoalitionEngine serial(&utility);
  EXPECT_FALSE(serial.EvaluateMeanCoalitions(models).ok());

  ThreadPool pool(3);
  CoalitionEngineConfig config;
  config.pool = &pool;
  CoalitionEngine parallel(&utility, config);
  EXPECT_FALSE(parallel.EvaluateMeanCoalitions(models).ok());
}

TEST(CoalitionEngineTest, RejectsDegenerateInput) {
  FrobeniusUtility utility;
  CoalitionEngine engine(&utility);
  EXPECT_FALSE(engine.EvaluateMeanCoalitions({}).ok());
  std::vector<ml::Matrix> mismatched = {ml::Matrix(2, 2), ml::Matrix(3, 2)};
  EXPECT_FALSE(engine.EvaluateMeanCoalitions(mismatched).ok());
  EXPECT_FALSE(engine.EvaluateModelTable({}).ok());
}

TEST(CoalitionEngineTest, ModelTableParallelMatchesSerial) {
  ml::Dataset data = SmallTestSet();
  TestAccuracyUtility utility(data);
  auto models = RandomModels(16, data.num_features() + 1, 10, 77);

  CoalitionEngine serial(&utility);
  auto serial_table = serial.EvaluateModelTable(models);
  ASSERT_TRUE(serial_table.ok());

  ThreadPool pool(4);
  CoalitionEngineConfig config;
  config.pool = &pool;
  CoalitionEngine parallel(&utility, config);
  auto parallel_table = parallel.EvaluateModelTable(models);
  ASSERT_TRUE(parallel_table.ok());
  for (size_t i = 0; i < models.size(); ++i) {
    EXPECT_EQ((*serial_table)[i], (*parallel_table)[i]);
  }
}

TEST(CoalitionAccumulatorTest, IncrementalScanMatchesEngineTable) {
  const size_t m = 4;
  ml::Dataset data = SmallTestSet();
  auto models = RandomModels(m, data.num_features() + 1, 10, 55);
  TestAccuracyUtility utility(data);

  CoalitionEngine engine(&utility);
  auto table = engine.EvaluateMeanCoalitions(models);
  ASSERT_TRUE(table.ok());

  auto acc = CoalitionAccumulator::Make(&models, &utility);
  ASSERT_TRUE(acc.ok());
  // Grow a coalition in ascending order: every prefix must agree with
  // the engine's table entry for the same mask (identical add order).
  EXPECT_EQ(acc->Evaluate().value(), (*table)[0]);
  uint64_t mask = 0;
  for (size_t j = 0; j < m; ++j) {
    ASSERT_TRUE(acc->Include(j).ok());
    mask |= 1ULL << j;
    EXPECT_EQ(acc->mask(), mask);
    EXPECT_EQ(acc->Evaluate().value(), (*table)[mask]) << "mask " << mask;
  }
  // Reset returns to the empty coalition.
  acc->Reset();
  EXPECT_EQ(acc->count(), 0u);
  EXPECT_EQ(acc->Evaluate().value(), (*table)[0]);
}

TEST(CoalitionAccumulatorTest, RejectsDuplicatesAndOutOfRange) {
  auto models = RandomModels(3, 2, 2, 8);
  FrobeniusUtility utility;
  auto acc = CoalitionAccumulator::Make(&models, &utility);
  ASSERT_TRUE(acc.ok());
  EXPECT_TRUE(acc->Include(1).ok());
  EXPECT_FALSE(acc->Include(1).ok());
  EXPECT_FALSE(acc->Include(3).ok());
}

}  // namespace
}  // namespace bcfl::shapley
