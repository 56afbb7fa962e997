#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/sim_clock.h"
#include "ml/kernels.h"
#include "obs/metrics.h"

namespace bcfl::ml {

void SoftmaxRowsInPlace(Matrix* logits) {
  kernels::SoftmaxRows(logits->mutable_data().data(), logits->rows(),
                       logits->cols());
}

LogisticRegression::LogisticRegression(size_t num_features, int num_classes,
                                       LogisticRegressionConfig config)
    : weights_(num_features + 1, static_cast<size_t>(num_classes)),
      config_(config) {}

Result<LogisticRegression> LogisticRegression::FromWeights(
    Matrix weights, LogisticRegressionConfig config) {
  if (weights.rows() < 2 || weights.cols() < 2) {
    return Status::InvalidArgument(
        "weights must be (features+1) x classes with classes >= 2");
  }
  LogisticRegression model(weights.rows() - 1,
                           static_cast<int>(weights.cols()), config);
  model.weights_ = std::move(weights);
  return model;
}

Status LogisticRegression::SetWeights(const Matrix& weights) {
  if (weights.rows() != weights_.rows() || weights.cols() != weights_.cols()) {
    return Status::InvalidArgument("SetWeights: shape mismatch");
  }
  weights_ = weights;
  return Status::OK();
}

Matrix LogisticRegression::Augment(const Matrix& features) {
  Matrix aug(features.rows(), features.cols() + 1);
  for (size_t i = 0; i < features.rows(); ++i) {
    double* dst = aug.Row(i);
    dst[0] = 1.0;
    std::memcpy(dst + 1, features.Row(i), features.cols() * sizeof(double));
  }
  return aug;
}

Status LogisticRegression::Train(const Dataset& data) {
  return TrainEpochs(data, config_.epochs);
}

Status LogisticRegression::TrainEpochs(const Dataset& data, size_t epochs) {
  BCFL_RETURN_IF_ERROR(data.Validate());
  if (data.num_features() != num_features()) {
    return Status::InvalidArgument("dataset feature count != model");
  }
  if (data.num_classes() != num_classes()) {
    return Status::InvalidArgument("dataset class count != model");
  }
  if (data.num_examples() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  Matrix aug = Augment(data.features());
  static auto& epochs_counter =
      obs::MetricsRegistry::Global().GetCounter("ml.train.epochs");
  static auto& gflops_gauge =
      obs::MetricsRegistry::Global().GetGauge("ml.kernels.fused_step_gflops");
  Stopwatch timer;
  // Fused epoch kernel: logits, stable softmax, loss and the gradient
  // are produced in one pass over `aug` per epoch — no per-epoch probs /
  // one-hot materialisation. Bit-identical to the unfused step sequence
  // (see kernels.h for the contract).
  kernels::FusedStepScratch scratch;
  for (size_t e = 0; e < epochs; ++e) {
    kernels::FusedSoftmaxCeStep(
        aug.data().data(), aug.rows(), aug.cols(), data.labels().data(),
        weights_.cols(), config_.learning_rate, config_.l2_penalty,
        weights_.mutable_data().data(), &scratch);
  }
  epochs_counter.Add(epochs);
  if (epochs > 0) {
    // Forward + gradient GEMMs dominate: ~4*rows*cols*classes flops/epoch.
    const double flops = 4.0 * static_cast<double>(aug.rows()) *
                         static_cast<double>(aug.cols()) *
                         static_cast<double>(weights_.cols()) *
                         static_cast<double>(epochs);
    const double s = timer.ElapsedSeconds();
    if (s > 0) gflops_gauge.Set(flops / s * 1e-9);
  }
  return Status::OK();
}

Result<Matrix> LogisticRegression::PredictProba(const Matrix& features) const {
  if (features.cols() != num_features()) {
    return Status::InvalidArgument("PredictProba: feature count mismatch");
  }
  Matrix aug = Augment(features);
  BCFL_ASSIGN_OR_RETURN(Matrix probs, aug.MatMul(weights_));
  SoftmaxRowsInPlace(&probs);
  return probs;
}

Result<std::vector<int>> LogisticRegression::Predict(
    const Matrix& features) const {
  BCFL_ASSIGN_OR_RETURN(Matrix probs, PredictProba(features));
  std::vector<int> out(probs.rows());
  for (size_t i = 0; i < probs.rows(); ++i) {
    const double* row = probs.Row(i);
    out[i] = static_cast<int>(
        std::max_element(row, row + probs.cols()) - row);
  }
  return out;
}

Result<double> LogisticRegression::Accuracy(const Dataset& data) const {
  BCFL_ASSIGN_OR_RETURN(std::vector<int> preds, Predict(data.features()));
  if (preds.empty()) return Status::InvalidArgument("empty dataset");
  size_t correct = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == data.labels()[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(preds.size());
}

Result<double> LogisticRegression::LogLoss(const Dataset& data) const {
  BCFL_ASSIGN_OR_RETURN(Matrix probs, PredictProba(data.features()));
  if (probs.rows() == 0) return Status::InvalidArgument("empty dataset");
  double loss = 0.0;
  for (size_t i = 0; i < probs.rows(); ++i) {
    double p = probs.At(i, static_cast<size_t>(data.labels()[i]));
    loss -= std::log(std::max(p, 1e-12));
  }
  return loss / static_cast<double>(probs.rows());
}

namespace {

/// Rows per logits block in the fused evaluation kernels: big enough
/// that the blocked GEMM reaches full throughput, small enough that the
/// block (256 x classes doubles) stays cache-resident.
constexpr size_t kEvalRowBlock = 256;

Status CheckEvalShapes(size_t rows, size_t labels, size_t classes) {
  if (rows == 0) return Status::InvalidArgument("empty dataset");
  if (labels != rows) {
    return Status::InvalidArgument("label count != example count");
  }
  if (classes < 2) {
    return Status::InvalidArgument("need at least two classes");
  }
  return Status::OK();
}

}  // namespace

Result<double> AccuracyFromAugmented(const Matrix& aug_features,
                                     const std::vector<int>& labels,
                                     const Matrix& weights) {
  if (aug_features.cols() != weights.rows()) {
    return Status::InvalidArgument(
        "AccuracyFromAugmented: feature count mismatch");
  }
  BCFL_RETURN_IF_ERROR(
      CheckEvalShapes(aug_features.rows(), labels.size(), weights.cols()));
  const size_t classes = weights.cols();
  const size_t rows = aug_features.rows();
  const size_t cols = aug_features.cols();
  std::vector<double> logits(kEvalRowBlock * classes);
  double correct = 0.0;
  for (size_t r0 = 0; r0 < rows; r0 += kEvalRowBlock) {
    const size_t block = std::min(kEvalRowBlock, rows - r0);
    kernels::Gemm(aug_features.Row(r0), block, cols, weights.data().data(),
                  classes, logits.data());
    for (size_t i = 0; i < block; ++i) {
      correct += kernels::CoalitionRowTerm(kernels::CoalitionTerm::kCorrect,
                                           logits.data() + i * classes,
                                           classes, labels[r0 + i], 1);
    }
  }
  return correct / static_cast<double>(rows);
}

Result<double> LogLossFromAugmented(const Matrix& aug_features,
                                    const std::vector<int>& labels,
                                    const Matrix& weights) {
  if (aug_features.cols() != weights.rows()) {
    return Status::InvalidArgument(
        "LogLossFromAugmented: feature count mismatch");
  }
  BCFL_RETURN_IF_ERROR(
      CheckEvalShapes(aug_features.rows(), labels.size(), weights.cols()));
  const size_t classes = weights.cols();
  const size_t rows = aug_features.rows();
  const size_t cols = aug_features.cols();
  std::vector<double> logits(kEvalRowBlock * classes);
  double loss = 0.0;
  for (size_t r0 = 0; r0 < rows; r0 += kEvalRowBlock) {
    const size_t block = std::min(kEvalRowBlock, rows - r0);
    kernels::Gemm(aug_features.Row(r0), block, cols, weights.data().data(),
                  classes, logits.data());
    for (size_t i = 0; i < block; ++i) {
      loss += kernels::CoalitionRowTerm(kernels::CoalitionTerm::kNegLogProb,
                                        logits.data() + i * classes, classes,
                                        labels[r0 + i], 1);
    }
  }
  return loss / static_cast<double>(rows);
}

Result<double> AccuracyFromScores(const Matrix& scores,
                                  const std::vector<int>& labels) {
  BCFL_RETURN_IF_ERROR(
      CheckEvalShapes(scores.rows(), labels.size(), scores.cols()));
  double correct = 0.0;
  for (size_t i = 0; i < scores.rows(); ++i) {
    correct += kernels::CoalitionRowTerm(kernels::CoalitionTerm::kCorrect,
                                         scores.Row(i), scores.cols(),
                                         labels[i], 1);
  }
  return correct / static_cast<double>(scores.rows());
}

Result<double> LogLossFromScores(const Matrix& scores,
                                 const std::vector<int>& labels) {
  BCFL_RETURN_IF_ERROR(
      CheckEvalShapes(scores.rows(), labels.size(), scores.cols()));
  double loss = 0.0;
  for (size_t i = 0; i < scores.rows(); ++i) {
    loss += kernels::CoalitionRowTerm(kernels::CoalitionTerm::kNegLogProb,
                                      scores.Row(i), scores.cols(), labels[i],
                                      1);
  }
  return loss / static_cast<double>(scores.rows());
}

}  // namespace bcfl::ml
