#include "shapley/utility.h"

namespace bcfl::shapley {

namespace {

/// Shape check equivalent to LogisticRegression::FromWeights +
/// Accuracy/LogLoss: (features + 1) x classes with classes >= 2.
Status CheckWeightShape(const ml::Matrix& weights, size_t num_features) {
  if (weights.rows() < 2 || weights.cols() < 2) {
    return Status::InvalidArgument(
        "weights must be (features+1) x classes with classes >= 2");
  }
  if (weights.rows() != num_features + 1) {
    return Status::InvalidArgument("weight rows != features + 1");
  }
  return Status::OK();
}

}  // namespace

LinearScoreUtility::LinearScoreUtility(ml::Dataset test_set)
    : test_set_(std::move(test_set)),
      augmented_(ml::LogisticRegression::Augment(test_set_.features())) {}

Status LinearScoreUtility::CheckWeights(const ml::Matrix& weights) const {
  return CheckWeightShape(weights, test_set_.num_features());
}

Result<ml::Matrix> LinearScoreUtility::PlayerScores(
    const ml::Matrix& weights) const {
  BCFL_RETURN_IF_ERROR(CheckWeights(weights));
  return augmented_.MatMul(weights);
}

void LinearScoreUtility::PlayerScoreRows(const ml::Matrix& weights,
                                         size_t row_begin, size_t count,
                                         double* out) const {
  const size_t cols = augmented_.cols();
  ml::kernels::Gemm(augmented_.data().data() + row_begin * cols, count, cols,
                    weights.data().data(), weights.cols(), out);
}

Result<double> LinearScoreUtility::EvaluateScoreSum(
    const ml::Matrix& score_sum, size_t coalition_size) const {
  const std::vector<int>& labels = test_set_.labels();
  if (score_sum.rows() == 0 || score_sum.rows() != labels.size() ||
      score_sum.cols() < 2) {
    return Status::InvalidArgument(
        "score sum must be examples x classes with classes >= 2");
  }
  const ml::kernels::CoalitionTerm term = row_term();
  double total = 0.0;
  for (size_t i = 0; i < score_sum.rows(); ++i) {
    total += ml::kernels::CoalitionRowTerm(term, score_sum.Row(i),
                                           score_sum.cols(), labels[i],
                                           coalition_size);
  }
  return UtilityFromRowTotal(total);
}

double LinearScoreUtility::UtilityFromRowTotal(double total) const {
  const double mean =
      total / static_cast<double>(test_set_.num_examples());
  return row_term() == ml::kernels::CoalitionTerm::kCorrect ? mean : -mean;
}

TestAccuracyUtility::TestAccuracyUtility(ml::Dataset test_set)
    : LinearScoreUtility(std::move(test_set)) {}

Result<double> TestAccuracyUtility::Evaluate(const ml::Matrix& weights) {
  BCFL_RETURN_IF_ERROR(CheckWeights(weights));
  return ml::AccuracyFromAugmented(augmented_, test_set_.labels(), weights);
}

NegLogLossUtility::NegLogLossUtility(ml::Dataset test_set)
    : LinearScoreUtility(std::move(test_set)) {}

Result<double> NegLogLossUtility::Evaluate(const ml::Matrix& weights) {
  BCFL_RETURN_IF_ERROR(CheckWeights(weights));
  BCFL_ASSIGN_OR_RETURN(
      double loss,
      ml::LogLossFromAugmented(augmented_, test_set_.labels(), weights));
  return -loss;
}

}  // namespace bcfl::shapley
