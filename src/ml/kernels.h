#pragma once

#include <cstddef>
#include <vector>

namespace bcfl::ml::kernels {

// Compute kernels behind Matrix::MatMul / TransposedMatMul / Transpose
// and the fused logistic-regression training step. All buffers are dense
// row-major doubles; output buffers must not alias inputs.
//
// Determinism contract
// --------------------
// Every kernel accumulates each output element in strictly ascending
// k-order — the same per-element operation sequence as the seed's scalar
// triple loops — so the optimized kernels, the reference kernels, and
// any thread count all produce bit-identical results on finite inputs.
// Concretely:
//   * the optimized GEMMs vectorize across *output columns* and unroll
//     across *output rows*; neither axis carries an accumulation, so no
//     floating-point operation is reordered;
//   * output rows are independent, so a caller that splits a product
//     into row blocks (and runs them on any threads) gets the same bits
//     as one call over all rows;
//   * the AVX2 variants are compiled without FMA, so no multiply-add is
//     contracted (the build also pins -ffp-contract=off for this file);
//   * the only arithmetic difference from the seed loops is dropping the
//     `if (a == 0.0) continue;` branch, which is bit-neutral: the
//     accumulator starts at +0.0 and adding a ±0.0 product leaves every
//     finite accumulator value unchanged.

/// Seed-faithful scalar kernels: the oracle the equivalence tests and
/// bench_kernels compare the optimized entry points against.
namespace reference {

/// out[i,j] = sum_k a[i,k]*b[k,j]; a is ar x ac, b is ac x bc.
void Gemm(const double* a, size_t ar, size_t ac, const double* b, size_t bc,
          double* out);

/// out[i,j] = sum_k a[k,i]*b[k,j] (i.e. a^T * b); a is ar x ac, b is
/// ar x bc, out is ac x bc.
void GemmTransA(const double* a, size_t ar, size_t ac, const double* b,
                size_t bc, double* out);

/// out (ac x ar) = a^T; a is ar x ac.
void Transpose(const double* a, size_t ar, size_t ac, double* out);

/// y[i] += alpha * x[i].
void Axpy(double alpha, const double* x, size_t n, double* y);

/// Numerically stable in-place row softmax (subtracts the row max).
void SoftmaxRows(double* m, size_t rows, size_t cols);

/// One full-batch softmax-regression step, as the literal seed sequence
/// (probs = softmax(aug*W); loss; grad = aug^T(P-Y)/n + l2*W;
/// W -= lr*grad). `weights` is cols x classes. Returns the pre-step
/// loss. Preconditions (checked by the caller): rows > 0, labels in
/// [0, classes).
double FusedSoftmaxCeStep(const double* aug, size_t rows, size_t cols,
                          const int* labels, size_t classes,
                          double learning_rate, double l2, double* weights);

}  // namespace reference

/// Reusable buffers for the fused step: one row-block of logits plus the
/// gradient accumulator. Training loops hold one of these across epochs
/// so the hot path does no per-epoch allocation.
struct FusedStepScratch {
  std::vector<double> logits;
  std::vector<double> grad;
};

void Gemm(const double* a, size_t ar, size_t ac, const double* b, size_t bc,
          double* out);
void GemmTransA(const double* a, size_t ar, size_t ac, const double* b,
                size_t bc, double* out);
void Transpose(const double* a, size_t ar, size_t ac, double* out);
void Axpy(double alpha, const double* x, size_t n, double* y);
void SoftmaxRows(double* m, size_t rows, size_t cols);

/// Fused softmax–cross-entropy–gradient step: streams `aug` once per
/// epoch in L1-sized row blocks — logits, stable softmax, loss and the
/// gradient contribution of the block are produced in one pass, and the
/// per-element accumulation order (k strictly ascending) is exactly the
/// reference sequence, so the result is bit-identical to
/// reference::FusedSoftmaxCeStep. `scratch` may be reused across calls.
double FusedSoftmaxCeStep(const double* aug, size_t rows, size_t cols,
                          const int* labels, size_t classes,
                          double learning_rate, double l2, double* weights,
                          FusedStepScratch* scratch);

/// The per-test-row term ScoreCoalitionRows folds for each coalition.
enum class CoalitionTerm {
  /// 1 when the first maximum of the coalition's score row sits at the
  /// row's label, else 0; the sum over rows is the correct count.
  kCorrect,
  /// -log p(label) under a softmax of the coalition's *mean* score row
  /// (the sum times 1/|S| when |S| > 1), p clamped at 1e-12; the sum
  /// over rows is the log-loss numerator.
  kNegLogProb,
};

/// Codegen a kernel runs on. kAuto takes AVX2 where the CPU has it;
/// tests and bench_kernels also pin kScalar, the baseline codegen, to
/// check that the two agree bit for bit.
enum class Dispatch { kAuto, kScalar };

/// One ScoreCoalitionRows job: every test row folded into every one of
/// the 2^players coalitions.
struct CoalitionRows {
  CoalitionTerm term = CoalitionTerm::kCorrect;
  /// basis[j]: player j's rows x classes row-major score matrix.
  const double* const* basis = nullptr;
  size_t players = 0;
  size_t rows = 0;
  size_t classes = 0;
  const int* labels = nullptr;  ///< One per row.
};

/// Row-streamed coalition scoring. For each test row, in ascending
/// order, builds the score rows of all 2^players coalitions in a
/// class-major 2^players x classes table — s[0] = 0 and
/// s[mask] = s[mask ^ high] + basis[high][row] for mask's top bit
/// `high`, i.e. one broadcast add per class over masks [2^j, 2^(j+1))
/// for each bit j — and adds the row's `term` of each coalition into
/// out[mask]. Each table entry is the single add a materialized
/// subset-sum score table would do, so `out` is bit-identical to
/// folding CoalitionRowTerm over explicit subset sums. At m = 9 and 10
/// classes the table is 40 KB and stays cache-resident; nothing of size
/// rows x 2^m is ever stored.
void ScoreCoalitionRows(const CoalitionRows& job, double* out,
                        Dispatch dispatch = Dispatch::kAuto);

/// The `term` of one explicit coalition score row (`scores`, the sum of
/// the members' rows) for a coalition of `coalition_size` members: what
/// ScoreCoalitionRows adds per row and coalition. With coalition_size 1
/// it is also the per-row term of ml's accuracy and log-loss evaluators.
double CoalitionRowTerm(CoalitionTerm term, const double* scores,
                        size_t classes, int label, size_t coalition_size);

/// "scalar" or "avx2" — the dispatch the optimized entry points select
/// on the host CPU. Exported to metrics as
/// ml.kernels.path.<name>. (An AVX-512 tier was measured and rejected:
/// the 512-bit frequency license slows the scalar exp/softmax epilogue
/// interleaved with the GEMM blocks, so the fused step ran ~40% slower
/// than AVX2; ChaCha20 keeps its AVX-512 path because it is pure
/// integer SIMD with no scalar phases.)
const char* ActivePath();

}  // namespace bcfl::ml::kernels
