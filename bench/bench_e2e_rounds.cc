// End-to-end round engine gate: the round engine (concurrent owner
// train/mask/payload with canonical-order replay) must land the same
// per-round SV vectors, global model and canonical chain tip at every
// pool size, under faults included; and on multi-core hosts a full pool
// must actually be faster than one worker. This binary asserts the
// identities (exit non-zero on any divergence), measures pool-1 vs
// pool-N rounds/s at the paper's n=9 roster, microbenches the batched
// Shamir recovery against the per-secret reference, and drops
// BENCH_e2e.json in the working directory for the CI bench_diff gate.
// The session outcome itself is pinned by tests/golden/sessions.json.
//
// The >= 2x speedup floor is only enforced when the full pool has >= 4
// threads — on small CI boxes (1-2 cores) the identity checks still
// gate, the speedup is merely reported.
//
// Flags: --quick  smaller dataset and fewer Shamir reps (CI smoke mode);
//                 the timed sessions run 20 rounds either way.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "core/coordinator.h"
#include "crypto/shamir.h"
#include "obs/json_writer.h"

namespace {

using namespace bcfl;
using bcfl::obs::JsonWriter;

struct SessionStats {
  double wall_seconds = 0.0;
  core::BcflRunResult result;
  crypto::Digest tip_hash;
  size_t pool_threads = 1;
};

/// Creates and runs one full session; only Run() (the R rounds) is
/// timed — dataset synthesis and setup are identical across pool sizes.
bool RunSession(core::BcflConfig config, SessionStats* stats) {
  auto coordinator = core::BcflCoordinator::Create(std::move(config));
  if (!coordinator.ok()) {
    std::printf("  !! Create failed: %s\n",
                coordinator.status().ToString().c_str());
    return false;
  }
  Stopwatch timer;
  auto result = (*coordinator)->Run();
  stats->wall_seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::printf("  !! Run failed: %s\n", result.status().ToString().c_str());
    return false;
  }
  stats->result = std::move(result).value();
  stats->tip_hash = (*coordinator)->engine().CanonicalChain().Tip().header.Hash();
  stats->pool_threads = (*coordinator)->pool_threads_in_use();
  return true;
}

/// Everything the chain and the evaluation make visible must match.
bool SameRun(const SessionStats& a, const SessionStats& b,
             const char* label) {
  bool same = a.result.per_round_sv == b.result.per_round_sv &&
              a.result.total_sv == b.result.total_sv &&
              a.result.global_weights == b.result.global_weights &&
              a.result.round_accuracies == b.result.round_accuracies &&
              a.result.blocks_committed == b.result.blocks_committed &&
              a.result.total_transactions == b.result.total_transactions &&
              a.result.retired_at == b.result.retired_at &&
              a.result.recover_transactions == b.result.recover_transactions &&
              a.result.submission_retries == b.result.submission_retries &&
              a.tip_hash == b.tip_hash;
  if (!same) std::printf("  !! %s diverged\n", label);
  return same;
}

/// The paper's shape (n = 9, m = 3, 5 miners) over 20 rounds: a 2-4
/// round session lasts tens of milliseconds, too short for its pool-1
/// vs pool-N ratio to mean anything.
core::BcflConfig PaperRosterConfig(bool quick) {
  core::BcflConfig config;
  config.num_owners = 9;
  config.num_miners = 5;
  config.num_groups = 3;
  config.rounds = 20;
  config.seed = 42;
  config.seed_e = 7;
  config.local.epochs = 2;
  config.local.learning_rate = 0.05;
  config.digits.num_instances = quick ? 600 : 1200;
  return config;
}

/// Faulted identity: the pool size must not disturb the dropout /
/// recovery / retry machinery either.
bool CheckFaultedEquivalence() {
  core::BcflConfig config;
  config.num_owners = 4;
  config.num_miners = 3;
  config.num_groups = 2;
  config.rounds = 3;
  config.seed = 21;
  config.seed_e = 5;
  config.local.epochs = 2;
  config.digits.num_instances = 400;
  config.fault_plan = *fault::FaultPlan::Parse(
      "crash owner 2 @1; drop-submit owner 1 @2 x2");
  config.pool_threads = 1;
  SessionStats single;
  if (!RunSession(config, &single)) return false;
  config.pool_threads = 3;
  SessionStats parallel;
  if (!RunSession(config, &parallel)) return false;
  if (single.result.retired_at.empty()) {
    std::printf("  !! faulted run recovered nobody — plan did not bite\n");
    return false;
  }
  return SameRun(single, parallel, "faulted pool-1-vs-pool-3");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const size_t hw_threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());

  std::printf("End-to-end round engine bench (n=9 roster%s)\n",
              quick ? ", quick" : "");

  // ---- Timed runs + identity gate ---------------------------------------
  // Pool-size invariance: one worker must see the exact same chain as N.
  core::BcflConfig config = PaperRosterConfig(quick);
  config.pool_threads = 1;
  SessionStats single;
  if (!RunSession(config, &single)) return 1;

  config.pool_threads = 0;  // One per hardware thread.
  SessionStats parallel;
  if (!RunSession(config, &parallel)) return 1;

  const bool pool_size_ok = SameRun(single, parallel, "pool-1-vs-pool-N");
  const bool faulted_ok = CheckFaultedEquivalence();

  const double rounds = static_cast<double>(single.result.per_round_sv.size());
  const double single_rps = rounds / single.wall_seconds;
  const double parallel_rps = rounds / parallel.wall_seconds;
  const double speedup =
      parallel.wall_seconds > 0 ? single.wall_seconds / parallel.wall_seconds
                                : 0.0;
  std::printf("pool 1:   %.2f s  (%.2f rounds/s)\n", single.wall_seconds,
              single_rps);
  std::printf("parallel: %.2f s  (%.2f rounds/s, %zu pool threads) -> %.2fx\n",
              parallel.wall_seconds, parallel_rps, parallel.pool_threads,
              speedup);

  // ---- Batched Shamir recovery microbench -------------------------------
  // The recovery shape: many 32-byte secrets revealed by one surviving
  // roster. The batch path hoists the Lagrange basis (one batch-inverted
  // set of coefficients for the whole batch) where the reference pays a
  // per-coefficient field inversion per secret.
  bool shamir_ok = true;
  double shamir_ref_us = 0.0, shamir_batch_us = 0.0, shamir_speedup = 0.0;
  {
    auto scheme = crypto::ShamirSecretSharing::Create(5, 9).value();
    Xoshiro256 rng(17);
    const size_t kSecrets = 16;
    std::vector<Bytes> secrets(kSecrets);
    std::vector<std::vector<crypto::ShamirShare>> sets(kSecrets);
    std::vector<size_t> sizes(kSecrets, 32);
    for (size_t s = 0; s < kSecrets; ++s) {
      secrets[s].resize(32);
      for (auto& b : secrets[s]) b = static_cast<uint8_t>(rng.Next());
      auto shares = scheme.Split(secrets[s], &rng);
      sets[s].assign(shares.begin(), shares.begin() + 5);
    }
    const size_t reps = quick ? 20 : 100;
    Stopwatch ref_timer;
    for (size_t r = 0; r < reps && shamir_ok; ++r) {
      for (size_t s = 0; s < kSecrets; ++s) {
        auto back = scheme.ReconstructReference(sets[s], sizes[s]);
        if (!back.ok() || *back != secrets[s]) shamir_ok = false;
      }
    }
    const double ref_s = ref_timer.ElapsedSeconds();
    Stopwatch batch_timer;
    for (size_t r = 0; r < reps && shamir_ok; ++r) {
      auto back = scheme.ReconstructBatch(sets, sizes, nullptr);
      if (!back.ok()) {
        shamir_ok = false;
        break;
      }
      for (size_t s = 0; s < kSecrets; ++s) {
        if ((*back)[s] != secrets[s]) shamir_ok = false;
      }
    }
    const double batch_s = batch_timer.ElapsedSeconds();
    const double per = static_cast<double>(reps) * kSecrets;
    shamir_ref_us = ref_s / per * 1e6;
    shamir_batch_us = batch_s / per * 1e6;
    shamir_speedup = batch_s > 0 ? ref_s / batch_s : 0.0;
    std::printf("shamir recover (16 x 32B): ref %.1f us, batch %.1f us, "
                "%.1fx%s\n",
                shamir_ref_us, shamir_batch_us, shamir_speedup,
                shamir_ok ? "" : "  !! MISMATCH");
  }

  struct NamedCheck {
    const char* name;
    bool ok;
  };
  const NamedCheck checks[] = {
      {"pool_size_invariant", pool_size_ok},
      {"faulted_identical", faulted_ok},
      {"shamir_batch_reference", shamir_ok},
  };
  bool all_ok = true;
  std::printf("equivalence:");
  for (const NamedCheck& c : checks) {
    all_ok = all_ok && c.ok;
    std::printf(" %s=%s", c.name, c.ok ? "ok" : "FAIL");
  }
  std::printf("\n");

  // The speedup floor gates only where the parallelism exists to deliver
  // it; identity always gates.
  const bool enforce_speedup = parallel.pool_threads >= 4;
  bool speedup_ok = true;
  if (enforce_speedup && speedup < 2.0) {
    std::printf("!! parallel speedup %.2fx below the 2x floor "
                "(%zu pool threads)\n",
                speedup, parallel.pool_threads);
    speedup_ok = false;
  }

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "e2e_rounds");
  json.Field("quick", quick);
  json.Field("owners", static_cast<size_t>(9));
  json.Field("rounds", static_cast<size_t>(rounds));
  json.Field("hardware_threads", hw_threads);
  json.Field("pool_threads", parallel.pool_threads);
  json.BeginObject("equivalence");
  for (const NamedCheck& c : checks) json.Field(c.name, c.ok);
  json.EndObject();
  json.Field("all_equivalent", all_ok);
  json.BeginObject("pool1");
  json.Field("wall_s", single.wall_seconds);
  json.Field("rounds_per_s", single_rps);
  json.EndObject();
  json.BeginObject("parallel");
  json.Field("wall_s", parallel.wall_seconds);
  json.Field("rounds_per_s", parallel_rps);
  json.Field("speedup", speedup);
  json.Field("speedup_gate_enforced", enforce_speedup);
  json.EndObject();
  json.BeginObject("shamir_recover");
  json.Field("reference_us", shamir_ref_us);
  json.Field("batch_us", shamir_batch_us);
  json.Field("speedup", shamir_speedup);
  json.EndObject();
  json.EndObject();

  const char* out_path = "BENCH_e2e.json";
  if (json.WriteFile(out_path)) {
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("failed to write %s\n", out_path);
    return 1;
  }
  return (all_ok && speedup_ok) ? 0 : 1;
}
