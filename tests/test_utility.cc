#include "shapley/utility.h"

#include <gtest/gtest.h>

#include "data/digits.h"

namespace bcfl::shapley {
namespace {

ml::Dataset TestSet() {
  data::DigitsConfig config;
  config.num_instances = 300;
  config.seed = 4;
  return data::DigitsGenerator(config).Generate();
}

ml::Matrix TrainedWeights(const ml::Dataset& data, size_t epochs) {
  ml::LogisticRegressionConfig config;
  config.learning_rate = 0.05;
  ml::LogisticRegression model(data.num_features(), data.num_classes(),
                               config);
  EXPECT_TRUE(model.TrainEpochs(data, epochs).ok());
  return model.weights();
}

TEST(TestAccuracyUtilityTest, MatchesModelAccuracy) {
  ml::Dataset data = TestSet();
  ml::Matrix weights = TrainedWeights(data, 30);
  TestAccuracyUtility utility(data);
  auto u = utility.Evaluate(weights);
  ASSERT_TRUE(u.ok());
  auto model = ml::LogisticRegression::FromWeights(weights);
  ASSERT_TRUE(model.ok());
  auto acc = model->Accuracy(data);
  ASSERT_TRUE(acc.ok());
  EXPECT_DOUBLE_EQ(*u, *acc);
  EXPECT_GT(*u, 0.5);
}

TEST(TestAccuracyUtilityTest, UntrainedModelNearChance) {
  ml::Dataset data = TestSet();
  TestAccuracyUtility utility(data);
  auto u = utility.Evaluate(ml::Matrix(65, 10));
  ASSERT_TRUE(u.ok());
  EXPECT_LT(*u, 0.35);
}

TEST(TestAccuracyUtilityTest, RejectsWrongShape) {
  TestAccuracyUtility utility(TestSet());
  EXPECT_FALSE(utility.Evaluate(ml::Matrix(10, 10)).ok());
}

TEST(NegLogLossUtilityTest, TrainedBeatsUntrained) {
  ml::Dataset data = TestSet();
  NegLogLossUtility utility(data);
  auto trained = utility.Evaluate(TrainedWeights(data, 30));
  auto untrained = utility.Evaluate(ml::Matrix(65, 10));
  ASSERT_TRUE(trained.ok());
  ASSERT_TRUE(untrained.ok());
  EXPECT_GT(*trained, *untrained);  // Higher utility = lower loss.
  EXPECT_LE(*trained, 0.0);
}

}  // namespace
}  // namespace bcfl::shapley
