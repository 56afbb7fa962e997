// Ablation G: the contribution-evaluation design space. The paper's
// related work ([2], [3]) is about making SV affordable; this bench
// places GroupSV among the standard estimators on the same workload:
//
//   exact/native  — Eq. 1 over retrained coalitions (ground truth)
//   MC            — permutation-sampling Monte Carlo over aggregated
//                   coalition models
//   TMC           — truncated MC (Ghorbani & Zou style)
//   GroupSV       — the paper's method (m = 3 and m = 9)
//
// Reported: utility evaluations / models trained (the cost driver),
// wall time, and mean-centered cosine vs ground truth. Rows are also
// dumped to BENCH_sv_estimators.json for cross-PR trend tracking.
//
// MC/TMC go through MonteCarloShapleyFromModels, which walks each
// permutation with the engine's CoalitionAccumulator: one matrix add
// per prefix extension instead of an O(n) rebuild, and the linear-score
// fast path when the utility supports it.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "obs/exporter.h"
#include "obs/json_writer.h"
#include "shapley/group_sv.h"
#include "shapley/monte_carlo.h"
#include "shapley/similarity.h"
#include "workload.h"

using namespace bcfl;
using namespace bcfl::bench;
using bcfl::obs::JsonWriter;

namespace {

std::vector<double> Centered(std::vector<double> v) {
  double mean = 0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  for (double& x : v) x -= mean;
  return v;
}

void Report(JsonWriter* json, const char* name, double seconds,
            size_t evals, const std::vector<double>& values,
            const std::vector<double>& truth) {
  auto cosine =
      shapley::CosineSimilarity(Centered(values), Centered(truth));
  auto rank = shapley::SpearmanCorrelation(values, truth);
  std::printf("%-18s %-12.2f %-14zu %-12s %-12s\n", name, seconds, evals,
              cosine.ok() ? std::to_string(*cosine).substr(0, 7).c_str()
                          : "n/a",
              rank.ok() ? std::to_string(*rank).substr(0, 7).c_str()
                        : "n/a");
  json->BeginObject();
  json->Field("estimator", name);
  json->Field("seconds", seconds);
  json->Field("utility_evaluations", evals);
  if (cosine.ok()) json->Field("cosine_centered", *cosine);
  if (rank.ok()) json->Field("spearman", *rank);
  json->EndObject();
}

}  // namespace

int main() {
  const double kSigma = 2.0;
  const size_t n = Workload::kOwners;
  ThreadPool pool(std::thread::hardware_concurrency());

  Workload workload = Workload::Make(kSigma, 42, 5620, 20);
  auto run = workload.trainer->Run(&pool).value();

  std::printf("Ablation G: SV estimators on the sigma=%.1f workload "
              "(9 owners, 20 FL rounds)\n", kSigma);
  PrintRule();
  std::printf("%-18s %-12s %-14s %-12s %-12s\n", "estimator", "time/s",
              "evals", "cosine*", "spearman");
  PrintRule();

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "sv_estimators");
  json.Field("sigma", kSigma);
  json.Field("owners", n);
  json.Field("rounds", run.per_round_locals.size());
  json.Field("hardware_threads",
             std::max<size_t>(1, std::thread::hardware_concurrency()));
  json.Field("pool_threads", pool.num_threads());
  json.BeginArray("estimators");

  // Ground truth.
  Stopwatch truth_timer;
  auto truth = workload.GroundTruth(&pool);
  Report(&json, "native (truth)", truth_timer.ElapsedSeconds(), 1u << n,
         truth.values, truth.values);

  // MC/TMC score aggregated coalitions: mean of the members' final local
  // weights, scored on the test set. MonteCarloShapleyFromModels builds
  // each mean incrementally along the permutation and memoises repeated
  // coalitions internally.
  const auto& finals = run.per_round_locals.back();
  shapley::TestAccuracyUtility mc_utility(workload.test_set);

  for (size_t perms : {50u, 200u}) {
    shapley::MonteCarloConfig config;
    config.num_permutations = perms;
    config.seed = 3;
    Stopwatch timer;
    auto mc =
        shapley::MonteCarloShapleyFromModels(finals, &mc_utility, config)
            .value();
    char label[32];
    std::snprintf(label, sizeof(label), "MC (%zu perms)", perms);
    Report(&json, label, timer.ElapsedSeconds(), mc.utility_evaluations,
           mc.values, truth.values);
  }
  {
    shapley::MonteCarloConfig config;
    config.num_permutations = 200;
    config.seed = 3;
    config.truncation_tolerance = 0.01;
    Stopwatch timer;
    auto tmc =
        shapley::MonteCarloShapleyFromModels(finals, &mc_utility, config)
            .value();
    Report(&json, "TMC (200 perms)", timer.ElapsedSeconds(),
           tmc.utility_evaluations, tmc.values, truth.values);
  }

  for (size_t m : {3u, 9u}) {
    shapley::TestAccuracyUtility utility(workload.test_set);
    shapley::GroupShapleyConfig config;
    config.num_groups = m;
    config.seed_e = 7;
    shapley::GroupShapley evaluator(n, config, &utility);
    Stopwatch timer;
    auto totals =
        evaluator.AccumulateOverRounds(run.per_round_locals).value();
    char label[32];
    std::snprintf(label, sizeof(label), "GroupSV (m=%zu)", m);
    Report(&json, label, timer.ElapsedSeconds(),
           run.per_round_locals.size() * (1u << m), totals, truth.values);
  }
  json.EndArray();
  json.EndObject();

  PrintRule();
  std::printf(
      "cosine* = mean-centered cosine vs the retrained ground truth.\n"
      "GroupSV is the only estimator here that works on *masked* data;\n"
      "MC/TMC need per-owner coalition models and native needs raw data.\n");

  const char* out_path = "BENCH_sv_estimators.json";
  if (json.WriteFile(out_path)) {
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("failed to write %s\n", out_path);
    return 1;
  }
  Status exported = obs::ExportGlobalWithPrefix("BENCH_sv_estimators");
  if (!exported.ok()) {
    std::printf("failed to export observability artifacts: %s\n",
                exported.ToString().c_str());
    return 1;
  }
  return 0;
}
