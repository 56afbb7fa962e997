#include "shapley/utility.h"

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"

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

CachingUtility::CachingUtility(std::unique_ptr<UtilityFunction> inner)
    : inner_(std::move(inner)) {}

Result<double> CachingUtility::Evaluate(const ml::Matrix& weights) {
  // Registry handles resolved once; the per-evaluation cost is one
  // sharded relaxed add, dwarfed by the SHA-256 keying below.
  static auto& hit_counter =
      obs::MetricsRegistry::Global().GetCounter("shapley.cache.hits");
  static auto& miss_counter =
      obs::MetricsRegistry::Global().GetCounter("shapley.cache.misses");
  ByteWriter writer;
  weights.Serialize(&writer);
  crypto::Digest digest = crypto::Sha256::Hash(writer.buffer());
  std::string key(digest.begin(), digest.end());
  // The digest is uniformly distributed; its first byte picks the shard.
  Shard& shard = shards_[static_cast<uint8_t>(key[0]) % kNumShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit_counter.Add();
      return it->second;
    }
  }
  // Evaluate outside the lock so concurrent misses on *different* keys
  // don't serialise; a duplicate racing insert on the same key is benign
  // (emplace keeps the first, values are identical).
  misses_.fetch_add(1, std::memory_order_relaxed);
  miss_counter.Add();
  BCFL_ASSIGN_OR_RETURN(double value, inner_->Evaluate(weights));
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.emplace(std::move(key), value);
  }
  return value;
}

size_t CachingUtility::cache_size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace bcfl::shapley
