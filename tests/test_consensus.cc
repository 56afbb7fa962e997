#include "chain/consensus.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace bcfl::chain {
namespace {

/// Commits that skipped re-execution; metrics are switched on so the
/// counter moves even under BCFL_OBS=off.
obs::Counter& AdoptedCounter() {
  obs::MetricsRegistry::set_enabled(true);
  return obs::MetricsRegistry::Global().GetCounter("chain.commit.adopted");
}

/// Counter contract: method "inc" bumps a per-sender counter.
class CounterContract : public SmartContract {
 public:
  std::string name() const override { return "counter"; }
  Status Execute(const Transaction& tx, ContractState* state) override {
    if (tx.method != "inc") return Status::Unimplemented(tx.method);
    std::string key = "count/" + tx.sender.ToHex();
    uint64_t value = 0;
    auto existing = state->Get(key);
    if (existing.ok()) {
      ByteReader reader(*existing);
      BCFL_ASSIGN_OR_RETURN(value, reader.ReadU64());
    }
    ByteWriter writer;
    writer.WriteU64(value + 1);
    state->Put(key, writer.Take());
    return Status::OK();
  }
};

class ConsensusFixture : public ::testing::Test {
 protected:
  ConsensusFixture() {
    host_ = std::make_shared<ContractHost>(scheme_);
    EXPECT_TRUE(host_->Register(std::make_shared<CounterContract>()).ok());
  }

  std::unique_ptr<ConsensusEngine> MakeEngine(size_t miners) {
    ConsensusConfig config;
    config.leader_seed = 7;
    return std::make_unique<ConsensusEngine>(miners, host_, config);
  }

  Transaction IncTx(uint64_t nonce) {
    Transaction tx;
    tx.contract = "counter";
    tx.method = "inc";
    tx.nonce = nonce;
    tx.Sign(scheme_, key_, &rng_);
    return tx;
  }

  crypto::Schnorr scheme_;
  Xoshiro256 rng_{3};
  crypto::SchnorrKeyPair key_ = scheme_.GenerateKeyPair(&rng_);
  std::shared_ptr<ContractHost> host_;
};

TEST_F(ConsensusFixture, HonestMinersCommitUnanimously) {
  auto engine = MakeEngine(5);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  EXPECT_EQ(result->accept_votes, 5u);
  EXPECT_EQ(result->reject_votes, 0u);
  EXPECT_EQ(result->height, 1u);
  EXPECT_EQ(result->num_txs, 1u);
  EXPECT_EQ(result->retries_used, 0u);
}

TEST_F(ConsensusFixture, AllReplicasConverge) {
  auto engine = MakeEngine(4);
  for (uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(engine->SubmitTransaction(IncTx(i)).ok());
  }
  auto results = engine->RunUntilDrained();
  ASSERT_TRUE(results.ok());
  crypto::Digest root = engine->miner(0).state().StateRoot();
  for (size_t m = 1; m < 4; ++m) {
    EXPECT_EQ(engine->miner(m).state().StateRoot(), root);
    EXPECT_EQ(engine->miner(m).chain().Height(),
              engine->miner(0).chain().Height());
    EXPECT_TRUE(engine->miner(m).mempool().empty());
  }
}

TEST_F(ConsensusFixture, DuplicateTransactionsAreDeduplicated) {
  auto engine = MakeEngine(3);
  Transaction tx = IncTx(1);
  ASSERT_TRUE(engine->SubmitTransaction(tx).ok());
  ASSERT_TRUE(engine->SubmitTransaction(tx).ok());  // Gossip echo.
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_txs, 1u);
}

TEST_F(ConsensusFixture, ByzantineLeaderIsRejectedThenRotatedPast) {
  auto engine = MakeEngine(5);
  // Corrupt every miner that could become leader first with a tamper
  // hook on miner of the first-scheduled leader only.
  ConsensusConfig config;
  config.leader_seed = 7;
  LeaderSchedule schedule({0, 1, 2, 3, 4}, config.leader_seed);
  uint32_t first_leader = *schedule.LeaderFor(1, 0);

  MinerBehavior evil;
  evil.tamper_state = [](ContractState* state) {
    state->Put("forged", {0xde, 0xad});
  };
  engine->miner(first_leader).set_behavior(evil);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  // The fraudulent proposal was rejected; a later leader committed.
  EXPECT_GT(result->retries_used, 0u);
  EXPECT_NE(result->leader, first_leader);
  // The forged key never reached any replica.
  for (size_t m = 0; m < 5; ++m) {
    EXPECT_FALSE(engine->miner(m).state().Has("forged"));
  }
}

TEST_F(ConsensusFixture, CleanRoundAdoptsOnEveryReplica) {
  // The leader keeps its proposal's post-state and every validator keeps
  // its re-execution, so no replica executes the block a third time.
  obs::Counter& adopted = AdoptedCounter();
  auto engine = MakeEngine(5);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  const uint64_t before = adopted.Value();
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->committed);
  EXPECT_EQ(adopted.Value(), before + 5);
}

TEST_F(ConsensusFixture, CommitAdoptsOnlyTheBlockItExecuted) {
  obs::Counter& adopted = AdoptedCounter();
  Miner leader(0, host_), validator(1, host_), bystander(2, host_);
  const Transaction tx = IncTx(1);
  for (Miner* m : {&leader, &validator, &bystander}) {
    ASSERT_TRUE(m->mempool().Add(tx).ok());
  }
  auto block = leader.ProposeBlock(1);
  ASSERT_TRUE(block.ok());
  auto verdict = validator.ValidateProposal(*block);
  ASSERT_TRUE(verdict.ok());
  ASSERT_TRUE(*verdict);

  const uint64_t before = adopted.Value();
  ASSERT_TRUE(leader.CommitBlock(*block).ok());
  ASSERT_TRUE(validator.CommitBlock(*block).ok());
  EXPECT_EQ(adopted.Value(), before + 2);
  // The bystander never executed the block, so it re-executes.
  ASSERT_TRUE(bystander.CommitBlock(*block).ok());
  EXPECT_EQ(adopted.Value(), before + 2);
  for (Miner* m : {&leader, &validator, &bystander}) {
    EXPECT_EQ(m->state().StateRoot(), block->header.state_root);
    EXPECT_EQ(m->chain().Height(), 1u);
    EXPECT_TRUE(m->mempool().empty());
  }
}

TEST_F(ConsensusFixture, LostProposalIsReexecutedAtCommitAndConverges) {
  obs::Counter& adopted = AdoptedCounter();
  Miner loser(0, host_), voter(1, host_), winner(2, host_);
  const Transaction tx1 = IncTx(1);
  const Transaction tx2 = IncTx(2);
  ASSERT_TRUE(loser.mempool().Add(tx1).ok());
  for (Miner* m : {&voter, &winner}) {
    ASSERT_TRUE(m->mempool().Add(tx1).ok());
    ASSERT_TRUE(m->mempool().Add(tx2).ok());
  }
  // The loser's proposal is executed by its leader and one voter, but a
  // different block wins the height.
  auto lost = loser.ProposeBlock(1);
  ASSERT_TRUE(lost.ok());
  auto verdict = voter.ValidateProposal(*lost);
  ASSERT_TRUE(verdict.ok());
  ASSERT_TRUE(*verdict);
  auto won = winner.ProposeBlock(2);
  ASSERT_TRUE(won.ok());
  ASSERT_NE(lost->header.state_root, won->header.state_root);

  const uint64_t before = adopted.Value();
  for (Miner* m : {&loser, &voter, &winner}) {
    ASSERT_TRUE(m->CommitBlock(*won).ok()) << "miner " << m->id();
  }
  EXPECT_EQ(adopted.Value(), before + 1);  // Only the winner's own.
  for (const Miner* m : {&loser, &voter, &winner}) {
    EXPECT_EQ(m->state().StateRoot(), won->header.state_root);
    EXPECT_EQ(m->chain().Tip().header.Hash(), won->header.Hash());
  }
  // The lost block no longer extends the tip and cannot be committed.
  EXPECT_FALSE(loser.CommitBlock(*lost).ok());
  EXPECT_EQ(adopted.Value(), before + 1);
  EXPECT_EQ(loser.state().StateRoot(), won->header.state_root);
}

TEST_F(ConsensusFixture, TamperingLeaderNeverAdoptsItsTamperedState) {
  obs::Counter& adopted = AdoptedCounter();
  Miner evil(0, host_), honest(1, host_);
  MinerBehavior tamper;
  tamper.tamper_state = [](ContractState* state) {
    state->Put("forged", {0xde, 0xad});
  };
  evil.set_behavior(tamper);
  const Transaction tx = IncTx(1);
  ASSERT_TRUE(evil.mempool().Add(tx).ok());
  ASSERT_TRUE(honest.mempool().Add(tx).ok());

  auto forged = evil.ProposeBlock(1);
  ASSERT_TRUE(forged.ok());
  auto verdict = honest.ValidateProposal(*forged);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(*verdict);

  // Even its own leader re-executes the forged block honestly at commit,
  // which fails the root check instead of adopting the tampered state.
  const uint64_t before = adopted.Value();
  EXPECT_TRUE(evil.CommitBlock(*forged).IsCorruption());
  EXPECT_EQ(adopted.Value(), before);
  EXPECT_EQ(evil.chain().Height(), 0u);
  EXPECT_EQ(evil.state().size(), 0u);

  // An honest block then commits everywhere, the evil miner adopting its
  // own (honest) validation of it.
  auto good = honest.ProposeBlock(2);
  ASSERT_TRUE(good.ok());
  verdict = evil.ValidateProposal(*good);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);
  ASSERT_TRUE(evil.CommitBlock(*good).ok());
  ASSERT_TRUE(honest.CommitBlock(*good).ok());
  EXPECT_EQ(adopted.Value(), before + 2);
  EXPECT_FALSE(evil.state().Has("forged"));
  EXPECT_EQ(evil.state().StateRoot(), honest.state().StateRoot());
}

TEST_F(ConsensusFixture, MinorityGriefersCannotBlockProgress) {
  auto engine = MakeEngine(5);
  MinerBehavior reject;
  reject.always_reject = true;
  engine->miner(3).set_behavior(reject);
  engine->miner(4).set_behavior(reject);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  // 3 accepts (including an honest leader) > 5/2 — commits eventually.
  EXPECT_TRUE(result->committed);
}

TEST_F(ConsensusFixture, MajorityGriefersHaltConsensus) {
  auto engine = MakeEngine(5);
  MinerBehavior reject;
  reject.always_reject = true;
  for (size_t m = 1; m < 5; ++m) engine->miner(m).set_behavior(reject);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->committed);
  EXPECT_EQ(engine->miner(0).chain().Height(), 0u);
}

TEST_F(ConsensusFixture, BadSignatureTxCommitsAsFailedReceiptDeterministically) {
  // A transaction with an invalid signature still enters a block; every
  // replica marks it failed identically, so consensus is unaffected.
  auto engine = MakeEngine(3);
  Transaction bad = IncTx(1);
  bad.payload = {9};  // Breaks the signature.
  ASSERT_TRUE(engine->SubmitTransaction(bad).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  // No counter key was created anywhere.
  EXPECT_EQ(engine->miner(0).state().size(), 0u);
}

TEST_F(ConsensusFixture, RunUntilDrainedCommitsEverything) {
  auto engine = MakeEngine(3);
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(engine->SubmitTransaction(IncTx(i)).ok());
  }
  auto results = engine->RunUntilDrained();
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(engine->CanonicalChain().TotalTransactions(), 10u);
  // All 10 increments landed.
  auto counter =
      engine->CanonicalState().Get("count/" + key_.public_key.ToHex());
  ASSERT_TRUE(counter.ok());
  ByteReader reader(*counter);
  EXPECT_EQ(*reader.ReadU64(), 10u);
}

TEST_F(ConsensusFixture, MaxTxsPerBlockSplitsBatches) {
  ConsensusConfig config;
  config.leader_seed = 7;
  config.max_txs_per_block = 2;
  ConsensusEngine engine(3, host_, config);
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(engine.SubmitTransaction(IncTx(i)).ok());
  }
  auto results = engine.RunUntilDrained();
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 3u);  // 2 + 2 + 1.
  EXPECT_EQ(engine.CanonicalChain().TotalTransactions(), 5u);
}

TEST_F(ConsensusFixture, NetworkTrafficIsGenerated) {
  auto engine = MakeEngine(4);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  ASSERT_TRUE(engine->RunRound().ok());
  // 3 proposal messages + 3 votes.
  EXPECT_EQ(engine->network().stats().messages_sent, 6u);
}

TEST_F(ConsensusFixture, LossyNetworkEventuallyCommits) {
  // 20% message loss: proposals or votes can vanish, failing individual
  // attempts, but retries with fresh leaders make progress.
  ConsensusConfig config;
  config.leader_seed = 7;
  config.max_retries = 30;
  config.network.drop_probability = 0.2;
  config.network.seed = 123;
  ConsensusEngine engine(5, host_, config);
  ASSERT_TRUE(engine.SubmitTransaction(IncTx(1)).ok());
  auto result = engine.RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  // All replicas still converge.
  crypto::Digest root = engine.miner(0).state().StateRoot();
  for (size_t m = 1; m < 5; ++m) {
    EXPECT_EQ(engine.miner(m).state().StateRoot(), root);
  }
}

TEST_F(ConsensusFixture, TotalMessageLossExhaustsRetries) {
  ConsensusConfig config;
  config.leader_seed = 7;
  config.max_retries = 3;
  config.network.drop_probability = 1.0;  // Nothing ever arrives.
  ConsensusEngine engine(5, host_, config);
  ASSERT_TRUE(engine.SubmitTransaction(IncTx(1)).ok());
  auto result = engine.RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->committed);
  EXPECT_EQ(engine.miner(0).chain().Height(), 0u);
}

TEST_F(ConsensusFixture, SingleMinerCommitsAlone) {
  // Degenerate but valid: one miner is its own majority.
  auto engine = MakeEngine(1);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  EXPECT_EQ(result->accept_votes, 1u);
}

TEST_F(ConsensusFixture, ViewChangeRotatesPastCrashedLeader) {
  auto engine = MakeEngine(5);
  LeaderSchedule schedule({0, 1, 2, 3, 4}, 7);
  uint32_t first_leader = *schedule.LeaderFor(1, 0);

  auto plan = fault::FaultPlan::Parse(
      "crash miner " + std::to_string(first_leader) + " @0");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 0, 5);
  injector.BeginRound(0);
  engine->set_fault_injector(&injector);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  uint64_t clock_before = engine->network().clock().NowMicros();
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  EXPECT_NE(result->leader, first_leader);
  EXPECT_GT(result->retries_used, 0u);
  // The view change burned simulated (never wall-clock) time.
  EXPECT_GT(engine->network().clock().NowMicros() - clock_before, 50'000u);
  // The crashed miner saw nothing; the four live replicas committed.
  EXPECT_EQ(engine->miner(first_leader).chain().Height(), 0u);
  for (uint32_t m = 0; m < 5; ++m) {
    if (m == first_leader) continue;
    EXPECT_EQ(engine->miner(m).chain().Height(), 1u);
  }
  engine->set_fault_injector(nullptr);
}

TEST_F(ConsensusFixture, DuplicatedVotesCountEachMinerOnce) {
  // Every miner duplicates its traffic: proposals arrive twice (so
  // validators vote twice) and each vote is delivered twice. The tally
  // must still count five distinct voters, not nine messages.
  auto engine = MakeEngine(5);
  auto plan = fault::FaultPlan::Parse(
      "duplicate miner 0 @0; duplicate miner 1 @0; duplicate miner 2 @0; "
      "duplicate miner 3 @0; duplicate miner 4 @0");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 0, 5);
  injector.BeginRound(0);
  engine->set_fault_injector(&injector);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  EXPECT_EQ(result->accept_votes, 5u);
  engine->set_fault_injector(nullptr);
}

TEST_F(ConsensusFixture, DuplicatedVoteCannotForgeMajority) {
  // Only two of five miners are online and one duplicates its outbound
  // vote. A doubled accept must not be mistaken for a third voter: two
  // distinct accepts (leader + one validator) are not a strict majority
  // of the full roster, so nothing may commit.
  auto engine = MakeEngine(5);
  auto plan = fault::FaultPlan::Parse(
      "crash miner 2 @0; crash miner 3 @0; crash miner 4 @0; "
      "duplicate miner 0 @0; duplicate miner 1 @0");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 0, 5);
  injector.BeginRound(0);
  engine->set_fault_injector(&injector);

  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->committed);
  EXPECT_LE(result->accept_votes, 2u);
  for (uint32_t m = 0; m < 5; ++m) {
    EXPECT_EQ(engine->miner(m).chain().Height(), 0u) << "miner " << m;
  }
  engine->set_fault_injector(nullptr);
}

TEST_F(ConsensusFixture, RecoveredMinerIsReadmittedByCatchUp) {
  auto engine = MakeEngine(5);
  auto plan =
      fault::FaultPlan::Parse("crash miner 4 @0; recover miner 4 @1");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 0, 5);
  engine->set_fault_injector(&injector);

  // Two blocks commit while miner 4 is down.
  injector.BeginRound(0);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  ASSERT_TRUE(engine->RunRound().ok());
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(2)).ok());
  ASSERT_TRUE(engine->RunRound().ok());
  EXPECT_EQ(engine->miner(4).chain().Height(), 0u);
  EXPECT_EQ(engine->CanonicalChain().Height(), 2u);

  // Back online: the next round first replays the canonical blocks into
  // the laggard, then it participates in the new height normally.
  injector.BeginRound(1);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(3)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  EXPECT_EQ(engine->miner(4).chain().Height(), 3u);
  crypto::Digest root = engine->miner(0).state().StateRoot();
  for (size_t m = 1; m < 5; ++m) {
    EXPECT_EQ(engine->miner(m).state().StateRoot(), root) << "miner " << m;
  }
  engine->set_fault_injector(nullptr);
}

TEST_F(ConsensusFixture, MinorityPartitionCellFallsBehindThenCatchesUp) {
  auto engine = MakeEngine(5);
  auto plan = fault::FaultPlan::Parse("partition miners 3,4 @0");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(*plan, 0, 5);
  engine->set_fault_injector(&injector);

  injector.BeginRound(0);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(1)).ok());
  auto result = engine->RunRound();
  ASSERT_TRUE(result.ok());
  // The majority side (3 of 5) commits without the isolated cell.
  EXPECT_TRUE(result->committed);
  EXPECT_EQ(engine->miner(3).chain().Height(), 0u);
  EXPECT_EQ(engine->miner(4).chain().Height(), 0u);
  EXPECT_EQ(engine->CanonicalChain().Height(), 1u);

  // Partition heals at round 1: the cell is caught up with the next round.
  injector.BeginRound(1);
  ASSERT_TRUE(engine->SubmitTransaction(IncTx(2)).ok());
  ASSERT_TRUE(engine->RunRound().ok());
  for (size_t m = 0; m < 5; ++m) {
    EXPECT_EQ(engine->miner(m).chain().Height(), 2u) << "miner " << m;
  }
  engine->set_fault_injector(nullptr);
}

using ConsensusTest = ConsensusFixture;

/// Everything a pool must leave unchanged: each round's commit result,
/// every replica's tip and state root, and the votes cast.
struct ReplicaRun {
  std::vector<CommitResult> commits;
  std::vector<crypto::Digest> tips;
  std::vector<crypto::Digest> roots;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t dropped = 0;
};

bool SameCommit(const CommitResult& a, const CommitResult& b) {
  return a.committed == b.committed && a.leader == b.leader &&
         a.retries_used == b.retries_used &&
         a.accept_votes == b.accept_votes &&
         a.reject_votes == b.reject_votes && a.height == b.height &&
         a.block_hash == b.block_hash && a.num_txs == b.num_txs;
}

TEST_F(ConsensusTest, PooledReplicaExecutionMatchesSerial) {
  // One transaction stream through a lossy network with a tampering
  // first leader, a griefer, a duplicating miner and two miners that
  // crash and catch up together: no pool, one worker and four workers
  // must agree on every vote, commit, tip and state root.
  obs::MetricsRegistry::set_enabled(true);
  obs::Counter& accepted =
      obs::MetricsRegistry::Global().GetCounter("chain.proposal.accepted");
  obs::Counter& rejected =
      obs::MetricsRegistry::Global().GetCounter("chain.proposal.rejected");
  std::vector<Transaction> txs;
  for (uint64_t i = 1; i <= 12; ++i) txs.push_back(IncTx(i));
  LeaderSchedule schedule({0, 1, 2, 3, 4}, 7);
  const uint32_t tamperer = *schedule.LeaderFor(1, 0);
  const uint32_t griefer = (tamperer + 1) % 5;
  const uint32_t crashed_a = (tamperer + 2) % 5;
  const uint32_t crashed_b = (tamperer + 3) % 5;
  const uint32_t duplicator = (tamperer + 4) % 5;
  auto plan = fault::FaultPlan::Parse(
      "duplicate miner " + std::to_string(duplicator) + " @0..3; crash miner " +
      std::to_string(crashed_a) + " @1; crash miner " +
      std::to_string(crashed_b) + " @1; recover miner " +
      std::to_string(crashed_a) + " @2; recover miner " +
      std::to_string(crashed_b) + " @2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  MinerBehavior tamper;
  tamper.tamper_state = [](ContractState* state) {
    state->Put("forged", {0xde, 0xad});
  };
  MinerBehavior grief;
  grief.always_reject = true;

  auto run = [&](ThreadPool* pool) {
    ReplicaRun out;
    ConsensusConfig config;
    config.leader_seed = 7;
    config.max_retries = 30;
    config.network.drop_probability = 0.15;
    config.network.seed = 99;
    ConsensusEngine engine(5, host_, config);
    engine.set_pool(pool);
    fault::FaultInjector injector(*plan, 0, 5);
    engine.set_fault_injector(&injector);
    engine.miner(tamperer).set_behavior(tamper);
    const uint64_t accepted0 = accepted.Value();
    const uint64_t rejected0 = rejected.Value();
    for (uint64_t round = 0; round < 4; ++round) {
      injector.BeginRound(round);
      // With two miners down the griefer would leave no majority.
      engine.miner(griefer).set_behavior(round == 1 ? MinerBehavior{} : grief);
      for (size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(engine.SubmitTransaction(txs[round * 3 + i]).ok());
      }
      auto commits = engine.RunUntilDrained();
      EXPECT_TRUE(commits.ok()) << commits.status().ToString();
      if (!commits.ok()) return out;
      out.commits.insert(out.commits.end(), commits->begin(), commits->end());
    }
    for (size_t m = 0; m < 5; ++m) {
      out.tips.push_back(engine.miner(m).chain().Tip().header.Hash());
      out.roots.push_back(engine.miner(m).state().StateRoot());
    }
    out.accepted = accepted.Value() - accepted0;
    out.rejected = rejected.Value() - rejected0;
    out.dropped = engine.network().stats().messages_dropped;
    engine.set_fault_injector(nullptr);
    return out;
  };

  const ReplicaRun serial = run(nullptr);
  ASSERT_FALSE(serial.commits.empty());
  EXPECT_TRUE(serial.commits.back().committed);
  // The tampered first proposal is rejected; a later leader commits.
  EXPECT_GT(serial.commits.front().retries_used, 0u);
  EXPECT_NE(serial.commits.front().leader, tamperer);
  EXPECT_GT(serial.dropped, 0u);
  EXPECT_GT(serial.rejected, 0u);
  // Every replica, the two that caught up included, ends on one chain.
  for (size_t m = 1; m < 5; ++m) {
    EXPECT_EQ(serial.tips[m], serial.tips[0]) << "miner " << m;
    EXPECT_EQ(serial.roots[m], serial.roots[0]) << "miner " << m;
  }
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (ThreadPool* pool : {&pool1, &pool4}) {
    const ReplicaRun pooled = run(pool);
    const size_t threads = pool->num_threads();
    ASSERT_EQ(pooled.commits.size(), serial.commits.size()) << threads;
    for (size_t i = 0; i < serial.commits.size(); ++i) {
      EXPECT_TRUE(SameCommit(pooled.commits[i], serial.commits[i]))
          << "pool " << threads << " commit " << i;
    }
    EXPECT_EQ(pooled.tips, serial.tips) << threads;
    EXPECT_EQ(pooled.roots, serial.roots) << threads;
    EXPECT_EQ(pooled.accepted, serial.accepted) << threads;
    EXPECT_EQ(pooled.rejected, serial.rejected) << threads;
    EXPECT_EQ(pooled.dropped, serial.dropped) << threads;
  }
}

TEST(LeaderScheduleTest, DeterministicAndInRange) {
  LeaderSchedule schedule({10, 20, 30}, 42);
  for (uint64_t h = 1; h <= 20; ++h) {
    auto leader = schedule.LeaderFor(h);
    ASSERT_TRUE(leader.ok());
    EXPECT_TRUE(*leader == 10 || *leader == 20 || *leader == 30);
    EXPECT_EQ(*leader, *schedule.LeaderFor(h));
  }
  EXPECT_TRUE(schedule.LeaderFor(0).status().IsInvalidArgument());
}

TEST(LeaderScheduleTest, RetriesRotateLeaders) {
  LeaderSchedule schedule({0, 1, 2, 3, 4}, 9);
  // Over several retries at one height, more than one leader appears.
  std::set<uint32_t> leaders;
  for (uint32_t r = 0; r < 5; ++r) leaders.insert(*schedule.LeaderFor(1, r));
  EXPECT_GT(leaders.size(), 1u);
}

TEST(LeaderScheduleTest, EmptyMinerSetFails) {
  LeaderSchedule schedule({}, 1);
  EXPECT_TRUE(schedule.LeaderFor(1).status().IsFailedPrecondition());
}

}  // namespace
}  // namespace bcfl::chain
