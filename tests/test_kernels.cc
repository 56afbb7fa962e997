#include "ml/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"

namespace bcfl::ml::kernels {
namespace {

std::vector<double> Random(size_t n, Xoshiro256* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->NextDouble() * 2.0 - 1.0;
  return v;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct Shape {
  size_t m, k, n;
};

/// Edge shapes (empty, 1xN, Nx1, narrow, non-square) plus the dispatch
/// boundaries: <= 16 output columns takes the fixed-width kernels, wider
/// takes the generic path, >= 512 rows crosses the parallel threshold.
const Shape kEdgeShapes[] = {
    {0, 0, 0}, {0, 3, 4},  {1, 1, 1},  {1, 9, 1},    {6, 1, 3},
    {3, 4, 1}, {2, 2, 17}, {16, 16, 16}, {31, 7, 19}, {5, 65, 10},
};

TEST(KernelPropertyTest, GemmMatchesReferenceOnEdgeShapes) {
  Xoshiro256 rng(1);
  for (const Shape& s : kEdgeShapes) {
    std::vector<double> a = Random(s.m * s.k, &rng);
    std::vector<double> b = Random(s.k * s.n, &rng);
    std::vector<double> ref(s.m * s.n, 0.0), opt(s.m * s.n, 7.0);
    reference::Gemm(a.data(), s.m, s.k, b.data(), s.n, ref.data());
    Gemm(a.data(), s.m, s.k, b.data(), s.n, opt.data());
    if (s.m * s.n == 0) continue;
    EXPECT_TRUE(BitEqual(ref, opt)) << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(KernelPropertyTest, GemmMatchesReferenceOnRandomShapes) {
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t m = 1 + rng.NextBounded(40);
    const size_t k = 1 + rng.NextBounded(80);
    const size_t n = 1 + rng.NextBounded(30);
    std::vector<double> a = Random(m * k, &rng);
    std::vector<double> b = Random(k * n, &rng);
    std::vector<double> ref(m * n, 0.0), opt(m * n, 7.0);
    reference::Gemm(a.data(), m, k, b.data(), n, ref.data());
    Gemm(a.data(), m, k, b.data(), n, opt.data());
    EXPECT_TRUE(BitEqual(ref, opt)) << m << "x" << k << "x" << n;
  }
}

TEST(KernelPropertyTest, GemmTransAMatchesReference) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t rows = 1 + rng.NextBounded(300);
    const size_t m = 1 + rng.NextBounded(40);
    const size_t n = 1 + rng.NextBounded(24);
    std::vector<double> a = Random(rows * m, &rng);
    std::vector<double> b = Random(rows * n, &rng);
    std::vector<double> ref(m * n, 0.0), opt(m * n, 7.0);
    reference::GemmTransA(a.data(), rows, m, b.data(), n, ref.data());
    GemmTransA(a.data(), rows, m, b.data(), n, opt.data());
    EXPECT_TRUE(BitEqual(ref, opt)) << rows << " rows, " << m << "x" << n;
  }
}

TEST(KernelPropertyTest, GemmHandlesZeroEntriesIdentically) {
  // The optimized path drops the seed's `if (a == 0.0) continue;` skip;
  // adding a +/-0.0 product must leave every finite accumulator bit
  // unchanged.
  Xoshiro256 rng(4);
  const size_t m = 9, k = 33, n = 11;
  std::vector<double> a = Random(m * k, &rng);
  std::vector<double> b = Random(k * n, &rng);
  for (size_t i = 0; i < a.size(); i += 3) a[i] = 0.0;
  for (size_t i = 1; i < a.size(); i += 7) a[i] = -0.0;
  std::vector<double> ref(m * n, 0.0), opt(m * n, 7.0);
  reference::Gemm(a.data(), m, k, b.data(), n, ref.data());
  Gemm(a.data(), m, k, b.data(), n, opt.data());
  EXPECT_TRUE(BitEqual(ref, opt));
}

TEST(KernelPropertyTest, TransposeMatchesReference) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t r = 1 + rng.NextBounded(100);
    const size_t c = 1 + rng.NextBounded(100);
    std::vector<double> a = Random(r * c, &rng);
    std::vector<double> ref(c * r, 0.0), opt(c * r, 7.0);
    reference::Transpose(a.data(), r, c, ref.data());
    Transpose(a.data(), r, c, opt.data());
    EXPECT_TRUE(BitEqual(ref, opt)) << r << "x" << c;
  }
}

TEST(KernelPropertyTest, AxpyMatchesReference) {
  Xoshiro256 rng(6);
  std::vector<double> x = Random(257, &rng);
  std::vector<double> ref = Random(257, &rng);
  std::vector<double> opt = ref;
  reference::Axpy(0.37, x.data(), x.size(), ref.data());
  Axpy(0.37, x.data(), x.size(), opt.data());
  EXPECT_TRUE(BitEqual(ref, opt));
}

TEST(KernelPropertyTest, SoftmaxRowsMatchesReference) {
  Xoshiro256 rng(7);
  for (size_t cols : {size_t{1}, size_t{2}, size_t{10}, size_t{33}}) {
    const size_t rows = 1 + rng.NextBounded(50);
    std::vector<double> ref = Random(rows * cols, &rng);
    std::vector<double> opt = ref;
    reference::SoftmaxRows(ref.data(), rows, cols);
    SoftmaxRows(opt.data(), rows, cols);
    EXPECT_TRUE(BitEqual(ref, opt)) << rows << "x" << cols;
  }
}

TEST(KernelPropertyTest, FusedStepMatchesReferenceOnRandomShapes) {
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t rows = 1 + rng.NextBounded(400);
    const size_t cols = 1 + rng.NextBounded(40);
    const size_t classes = 2 + rng.NextBounded(11);
    std::vector<double> aug = Random(rows * cols, &rng);
    std::vector<int> labels(rows);
    for (int& l : labels) l = static_cast<int>(rng.NextBounded(classes));
    std::vector<double> w_ref(cols * classes, 0.0),
        w_opt(cols * classes, 0.0);
    FusedStepScratch scratch;
    for (int epoch = 0; epoch < 3; ++epoch) {
      const double loss_ref = reference::FusedSoftmaxCeStep(
          aug.data(), rows, cols, labels.data(), classes, 0.05, 1e-4,
          w_ref.data());
      const double loss_opt =
          FusedSoftmaxCeStep(aug.data(), rows, cols, labels.data(), classes,
                             0.05, 1e-4, w_opt.data(), &scratch);
      EXPECT_EQ(loss_ref, loss_opt)
          << rows << "x" << cols << " c=" << classes << " epoch " << epoch;
    }
    EXPECT_TRUE(BitEqual(w_ref, w_opt))
        << rows << "x" << cols << " c=" << classes;
  }
}

TEST(KernelPropertyTest, ParallelGemmBitIdenticalAcrossPoolSizes) {
  // Output rows are independent, so 64-row blocks multiplied concurrently
  // on pool workers (the chain path's PlayerScoreRows pattern) must give
  // the bits of one call over all rows, for any worker count.
  Xoshiro256 rng(9);
  const size_t m = 1027, k = 65, n = 10;  // Ragged last block.
  constexpr size_t kBlock = 64;
  std::vector<double> a = Random(m * k, &rng);
  std::vector<double> b = Random(k * n, &rng);
  std::vector<double> whole(m * n, 0.0);
  Gemm(a.data(), m, k, b.data(), n, whole.data());
  const size_t blocks = (m + kBlock - 1) / kBlock;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(workers);
    std::vector<double> blocked(m * n, 7.0);
    pool.ParallelFor(
        blocks,
        [&](size_t blk) {
          const size_t r0 = blk * kBlock;
          const size_t rows = std::min(kBlock, m - r0);
          Gemm(a.data() + r0 * k, rows, k, b.data(), n,
               blocked.data() + r0 * n);
        },
        /*grain=*/1);
    EXPECT_TRUE(BitEqual(whole, blocked)) << workers << " workers";
  }
}

/// Per-row oracle for ScoreCoalitionRows: every coalition's score sum
/// materialized as a matrix (highest member added last), then each row
/// scored on its own by AccuracyFromScores or LogLossFromScores (of the
/// 1/|S|-scaled mean), and the row terms summed in ascending row order.
std::vector<double> ExplicitCoalitionTotals(const std::vector<Matrix>& basis,
                                            const std::vector<int>& labels,
                                            CoalitionTerm term) {
  const size_t classes = basis[0].cols();
  std::vector<Matrix> sums(size_t{1} << basis.size());
  sums[0] = Matrix(basis[0].rows(), classes);
  for (size_t mask = 1; mask < sums.size(); ++mask) {
    const int high = std::bit_width(mask) - 1;
    sums[mask] = sums[mask ^ (size_t{1} << high)];
    EXPECT_TRUE(sums[mask].AddInPlace(basis[high]).ok());
  }
  std::vector<double> totals(sums.size(), 0.0);
  for (size_t mask = 0; mask < sums.size(); ++mask) {
    const size_t members = static_cast<size_t>(std::popcount(mask));
    const Matrix scored = term == CoalitionTerm::kNegLogProb && members > 1
                              ? sums[mask].Scaled(1.0 / members)
                              : sums[mask];
    for (size_t r = 0; r < basis[0].rows(); ++r) {
      Matrix row(1, classes);
      std::memcpy(row.Row(0), scored.Row(r), classes * sizeof(double));
      const std::vector<int> label = {labels[r]};
      const double oracle = term == CoalitionTerm::kCorrect
                                ? AccuracyFromScores(row, label).value()
                                : LogLossFromScores(row, label).value();
      if (term == CoalitionTerm::kCorrect) {
        // std::max_element also picks the first of tied maxima.
        const double* s = scored.Row(r);
        EXPECT_EQ(oracle, std::max_element(s, s + classes) - s == labels[r]
                              ? 1.0
                              : 0.0)
            << "mask " << mask << " row " << r;
      }
      totals[mask] += oracle;
    }
  }
  return totals;
}

struct CoalitionCase {
  size_t rows, classes;
  bool ties;  ///< Scores drawn from {-1, 0, 1}: sums tie often.
};

/// Edge shapes: one row, two classes, and tie-heavy integer scores
/// (the first maximum must win), next to the 10-class shape.
const CoalitionCase kCoalitionCases[] = {
    {1, 2, false}, {1, 10, true}, {7, 2, true}, {37, 10, false},
    {37, 10, true}, {5, 3, false},
};

TEST(CoalitionKernelTest, StreamedTotalsMatchExplicitSubsetSums) {
  Xoshiro256 rng(11);
  for (const CoalitionCase& c : kCoalitionCases) {
    for (size_t m = 1; m <= 10; ++m) {
      std::vector<Matrix> basis;
      std::vector<const double*> pointers;
      for (size_t j = 0; j < m; ++j) {
        Matrix b(c.rows, c.classes);
        for (double& x : b.mutable_data()) {
          x = c.ties ? static_cast<double>(rng.NextBounded(3)) - 1.0
                     : rng.NextDouble() * 2.0 - 1.0;
        }
        basis.push_back(std::move(b));
      }
      for (const Matrix& b : basis) pointers.push_back(b.data().data());
      // Labels cover both ends of the class range.
      std::vector<int> labels(c.rows);
      for (size_t r = 0; r < c.rows; ++r) {
        labels[r] = r == 0 ? 0
                    : r + 1 == c.rows
                        ? static_cast<int>(c.classes) - 1
                        : static_cast<int>(rng.NextBounded(c.classes));
      }
      const size_t full = size_t{1} << m;
      for (CoalitionTerm term :
           {CoalitionTerm::kCorrect, CoalitionTerm::kNegLogProb}) {
        const std::vector<double> expected =
            ExplicitCoalitionTotals(basis, labels, term);
        for (Dispatch dispatch : {Dispatch::kScalar, Dispatch::kAuto}) {
          CoalitionRows job;
          job.term = term;
          job.basis = pointers.data();
          job.players = m;
          job.rows = c.rows;
          job.classes = c.classes;
          job.labels = labels.data();
          std::vector<double> out(full, 0.0);
          ScoreCoalitionRows(job, out.data(), dispatch);
          EXPECT_TRUE(BitEqual(out, expected))
              << c.rows << "x" << c.classes << (c.ties ? " ties" : "")
              << " m " << m << " term " << static_cast<int>(term)
              << " dispatch " << static_cast<int>(dispatch);
        }
      }
    }
  }
}

TEST(CoalitionKernelTest, AllEqualScoresPickTheFirstClass) {
  // Every coalition row is constant, so the first maximum is class 0:
  // only rows labelled 0 count, on both dispatches.
  const size_t m = 5, rows = 4, classes = 6;
  std::vector<Matrix> basis(m, Matrix(rows, classes, 0.25));
  std::vector<const double*> pointers;
  for (const Matrix& b : basis) pointers.push_back(b.data().data());
  const std::vector<int> labels = {0, 5, 0, 3};
  for (Dispatch dispatch : {Dispatch::kScalar, Dispatch::kAuto}) {
    CoalitionRows job;
    job.basis = pointers.data();
    job.players = m;
    job.rows = rows;
    job.classes = classes;
    job.labels = labels.data();
    std::vector<double> out(size_t{1} << m, 0.0);
    ScoreCoalitionRows(job, out.data(), dispatch);
    for (size_t mask = 0; mask < out.size(); ++mask) {
      EXPECT_EQ(out[mask], 2.0) << "mask " << mask;
    }
  }
}

TEST(KernelPropertyTest, ActivePathIsKnown) {
  const std::string path = ActivePath();
  EXPECT_TRUE(path == "scalar" || path == "avx2") << path;
}

// Regression for the overflow guard: SoftmaxRowsInPlace subtracts the
// row max before exp, so extreme logits must stay finite and normalized
// instead of collapsing to inf/NaN.
TEST(SoftmaxRowsInPlaceTest, ExtremeLogitsStayFinite) {
  Matrix logits(3, 4);
  const double rows[3][4] = {
      {1e6, -1e6, 0.0, 5e5},
      {-3e4, -3e4 + 1.0, -3e4 - 1.0, -3e4},
      {709.0, 710.0, 711.0, 712.0},  // exp(709) alone would overflow.
  };
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) logits.At(i, j) = rows[i][j];
  }
  SoftmaxRowsInPlace(&logits);
  for (size_t i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < 4; ++j) {
      const double p = logits.At(i, j);
      EXPECT_TRUE(std::isfinite(p)) << i << "," << j;
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << "row " << i;
  }
  // The max logit dominates each extreme row.
  EXPECT_NEAR(logits.At(0, 0), 1.0, 1e-12);
}

}  // namespace
}  // namespace bcfl::ml::kernels
