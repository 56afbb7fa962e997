#pragma once

#include "common/result.h"
#include "ml/dataset.h"
#include "ml/kernels.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"

namespace bcfl::shapley {

/// The utility function u(.) of cooperative game theory, evaluated on
/// model parameters. Contribution evaluation scores coalition models;
/// higher is better.
///
/// Thread-safety contract: the coalition-evaluation engine calls
/// `Evaluate` concurrently from a thread pool, so implementations MUST
/// be safe for concurrent `Evaluate` calls on one object. Implementations
/// that are immutable after construction (every utility in this file
/// builds its derived state in the constructor) satisfy this for free;
/// stateful implementations must synchronise internally.
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;
  /// Scores the model given by `weights`. Must be deterministic and
  /// callable concurrently (see the class comment).
  virtual Result<double> Evaluate(const ml::Matrix& weights) = 0;
};

/// Fast-path capability for utilities that score a model only through
/// its per-example score matrix X_aug * W on a held-out test set, one
/// term per test row (`row_term()`, the one hook subclasses implement).
/// Because X_aug * W is linear in W, the score matrix of a
/// mean-aggregated coalition model is the (scaled) *sum* of the members'
/// score matrices — so an engine can precompute one score matrix per
/// player and score every coalition from sums of those rows
/// (kernels::ScoreCoalitionRows), with no X * W product per coalition.
///
/// The bias-augmented test matrix is built once in the constructor and
/// shared (read-only) by every evaluation. Immutable after construction,
/// so every method is safe to call concurrently.
class LinearScoreUtility : public UtilityFunction {
 public:
  /// The per-test-row term whose sum over the test set, in ascending row
  /// order, makes the utility (see `UtilityFromRowTotal`).
  virtual ml::kernels::CoalitionTerm row_term() const = 0;

  /// The per-example score ("logit") matrix X_aug * W for one player.
  Result<ml::Matrix> PlayerScores(const ml::Matrix& weights) const;
  /// Rows [row_begin, row_begin + count) of PlayerScores(weights), by the
  /// same per-element kernel, into `out` (count x classes, row-major).
  /// `weights` must have passed CheckWeights and the rows must exist.
  void PlayerScoreRows(const ml::Matrix& weights, size_t row_begin,
                       size_t count, double* out) const;
  /// Fails unless `weights` is (features + 1) x classes, classes >= 2.
  Status CheckWeights(const ml::Matrix& weights) const;
  /// Utility of the coalition whose member score matrices sum to
  /// `score_sum`. `coalition_size` = |S| (0 for the empty coalition, in
  /// which case `score_sum` is all zeros — the untrained model).
  Result<double> EvaluateScoreSum(const ml::Matrix& score_sum,
                                  size_t coalition_size) const;
  /// Utility from the sum of a coalition's row terms over the test set.
  double UtilityFromRowTotal(double total) const;

  const ml::Dataset& test_set() const { return test_set_; }

 protected:
  explicit LinearScoreUtility(ml::Dataset test_set);

  ml::Dataset test_set_;
  ml::Matrix augmented_;  ///< Bias-augmented features, built once.
};

/// The paper's utility: accuracy of the coalition model on a held-out
/// test set (agreed upon at the off-chain setup stage and therefore
/// evaluable deterministically by every miner). `Evaluate` runs the
/// fused kernel — no per-evaluation copy of the test set and no
/// intermediate probability matrix.
class TestAccuracyUtility : public LinearScoreUtility {
 public:
  explicit TestAccuracyUtility(ml::Dataset test_set);

  Result<double> Evaluate(const ml::Matrix& weights) override;
  /// Accuracy only needs the row argmax, which is invariant to the
  /// positive 1/|S| rescaling — the raw sum is scored directly.
  ml::kernels::CoalitionTerm row_term() const override {
    return ml::kernels::CoalitionTerm::kCorrect;
  }
};

/// Negative log-loss utility — smoother than accuracy, used in ablations.
class NegLogLossUtility : public LinearScoreUtility {
 public:
  explicit NegLogLossUtility(ml::Dataset test_set);

  Result<double> Evaluate(const ml::Matrix& weights) override;
  /// Log-loss is not scale-invariant: the term rescales the sum to the
  /// mean model's scores.
  ml::kernels::CoalitionTerm row_term() const override {
    return ml::kernels::CoalitionTerm::kNegLogProb;
  }
};

}  // namespace bcfl::shapley
