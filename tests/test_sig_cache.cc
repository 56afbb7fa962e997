#include "chain/sig_cache.h"

#include <gtest/gtest.h>

#include "chain/contract_host.h"
#include "chain/state.h"
#include "common/rng.h"

namespace bcfl::chain {
namespace {

/// Minimal contract: "put" stores the payload under the nonce.
class PutContract : public SmartContract {
 public:
  std::string name() const override { return "put"; }
  Status Execute(const Transaction& tx, ContractState* state) override {
    state->Put("put/" + std::to_string(tx.nonce), tx.payload);
    return Status::OK();
  }
};

Transaction SignedTx(const crypto::Schnorr& scheme,
                     const crypto::SchnorrKeyPair& key, uint64_t nonce,
                     Xoshiro256* rng) {
  Transaction tx;
  tx.contract = "put";
  tx.method = "put";
  tx.payload = Bytes(48, static_cast<uint8_t>(nonce));
  tx.nonce = nonce;
  tx.Sign(scheme, key, rng);
  return tx;
}

TEST(SigVerifyCacheTest, InsertContainsClear) {
  SigVerifyCache cache;
  crypto::Digest a{};
  a[0] = 1;
  crypto::Digest b{};
  b[0] = 2;
  EXPECT_FALSE(cache.Contains(a));
  cache.Insert(a);
  EXPECT_TRUE(cache.Contains(a));
  EXPECT_FALSE(cache.Contains(b));
  EXPECT_EQ(cache.Size(), 1u);
  cache.Insert(a);  // Idempotent.
  EXPECT_EQ(cache.Size(), 1u);
  cache.Clear();
  EXPECT_FALSE(cache.Contains(a));
  EXPECT_EQ(cache.Size(), 0u);
}

class SigCacheHostTest : public ::testing::Test {
 protected:
  SigCacheHostTest() {
    host_ = std::make_shared<ContractHost>();
    EXPECT_TRUE(host_->Register(std::make_shared<PutContract>()).ok());
  }

  std::shared_ptr<ContractHost> host_;
  Xoshiro256 rng_{2024};
};

TEST_F(SigCacheHostTest, SuccessfulVerifiesAreCachedAcrossReExecution) {
  auto key = host_->scheme().GenerateKeyPair(&rng_);
  std::vector<Transaction> txs;
  for (uint64_t i = 0; i < 5; ++i) {
    txs.push_back(SignedTx(host_->scheme(), key, i, &rng_));
  }
  ContractState s1;
  auto r1 = host_->ExecuteBlock(txs, &s1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(host_->sig_cache().Size(), txs.size());

  // Re-execution (a second miner validating the same block) must yield
  // identical receipts and state without growing the cache.
  ContractState s2;
  auto r2 = host_->ExecuteBlock(txs, &s2);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].success, (*r2)[i].success);
    EXPECT_EQ((*r1)[i].tx_hash, (*r2)[i].tx_hash);
  }
  EXPECT_EQ(s1.StateRoot(), s2.StateRoot());
  EXPECT_EQ(host_->sig_cache().Size(), txs.size());
}

TEST_F(SigCacheHostTest, InvalidSignatureIsNeverCached) {
  auto key = host_->scheme().GenerateKeyPair(&rng_);
  Transaction tx = SignedTx(host_->scheme(), key, 7, &rng_);
  tx.signature.s = tx.signature.s.Add(crypto::UInt256(1));
  ContractState state;
  for (int round = 0; round < 2; ++round) {
    auto receipt = host_->ExecuteTransaction(tx, &state);
    ASSERT_TRUE(receipt.ok());
    EXPECT_FALSE(receipt->success);
    EXPECT_EQ(receipt->error, "invalid signature");
  }
  EXPECT_EQ(host_->sig_cache().Size(), 0u);
}

TEST_F(SigCacheHostTest, TamperedTransactionMissesTheCache) {
  auto key = host_->scheme().GenerateKeyPair(&rng_);
  Transaction tx = SignedTx(host_->scheme(), key, 9, &rng_);
  ContractState state;
  auto good = host_->ExecuteTransaction(tx, &state);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->success);
  EXPECT_EQ(host_->sig_cache().Size(), 1u);

  // Flipping a payload byte changes the tx hash, so the cached verdict
  // cannot be replayed onto the tampered bytes (fail-closed).
  Transaction tampered = tx;
  tampered.payload[0] ^= 0xff;
  auto bad = host_->ExecuteTransaction(tampered, &state);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->success);
  EXPECT_EQ(bad->error, "invalid signature");
  EXPECT_EQ(host_->sig_cache().Size(), 1u);
}

TEST_F(SigCacheHostTest, PreVerifyThenExecuteMatchesExecute) {
  auto key_a = host_->scheme().GenerateKeyPair(&rng_);
  auto key_b = host_->scheme().GenerateKeyPair(&rng_);
  std::vector<Transaction> txs;
  for (uint64_t i = 0; i < 12; ++i) {
    txs.push_back(
        SignedTx(host_->scheme(), i % 2 == 0 ? key_a : key_b, i, &rng_));
  }
  txs[3].signature.r = crypto::UInt256(0);  // One invalid tx.

  // Baseline: execute on a cold cache.
  ContractState s_direct;
  auto r_direct = host_->ExecuteBlock(txs, &s_direct);
  ASSERT_TRUE(r_direct.ok());

  // Fresh host: pre-verify warms the cache with every valid signature
  // (the invalid one stays uncached), then execution must not differ.
  auto warm_host = std::make_shared<ContractHost>();
  ASSERT_TRUE(warm_host->Register(std::make_shared<PutContract>()).ok());
  warm_host->PreVerifySignatures(txs);
  EXPECT_EQ(warm_host->sig_cache().Size(), txs.size() - 1);
  ContractState s_warm;
  auto r_warm = warm_host->ExecuteBlock(txs, &s_warm);
  ASSERT_TRUE(r_warm.ok());

  ASSERT_EQ(r_direct->size(), r_warm->size());
  for (size_t i = 0; i < r_direct->size(); ++i) {
    EXPECT_EQ((*r_direct)[i].success, (*r_warm)[i].success);
    EXPECT_EQ((*r_direct)[i].error, (*r_warm)[i].error);
  }
  EXPECT_EQ(s_direct.StateRoot(), s_warm.StateRoot());
  EXPECT_FALSE((*r_warm)[3].success);
}

}  // namespace
}  // namespace bcfl::chain
