#include <gtest/gtest.h>

#include "chain/contract_host.h"
#include "chain/state.h"

namespace bcfl::chain {
namespace {

TEST(ContractStateTest, PutGetDelete) {
  ContractState state;
  EXPECT_FALSE(state.Has("k"));
  EXPECT_TRUE(state.Get("k").status().IsNotFound());
  state.Put("k", {1, 2});
  EXPECT_TRUE(state.Has("k"));
  EXPECT_EQ(*state.Get("k"), (Bytes{1, 2}));
  state.Put("k", {3});
  EXPECT_EQ(*state.Get("k"), (Bytes{3}));
  state.Delete("k");
  EXPECT_FALSE(state.Has("k"));
  EXPECT_EQ(state.size(), 0u);
}

TEST(ContractStateTest, PrefixScanIsSortedAndBounded) {
  ContractState state;
  state.Put("update/00000001/a", {});
  state.Put("update/00000001/b", {});
  state.Put("update/00000002/a", {});
  state.Put("other", {});
  auto keys = state.KeysWithPrefix("update/00000001/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "update/00000001/a");
  EXPECT_EQ(keys[1], "update/00000001/b");
  EXPECT_EQ(state.KeysWithPrefix("missing/").size(), 0u);
  EXPECT_EQ(state.KeysWithPrefix("").size(), 4u);
}

TEST(ContractStateTest, StateRootDeterministicAndOrderInsensitive) {
  ContractState a, b;
  a.Put("x", {1});
  a.Put("y", {2});
  b.Put("y", {2});
  b.Put("x", {1});
  EXPECT_EQ(a.StateRoot(), b.StateRoot());
}

TEST(ContractStateTest, StateRootSensitiveToContent) {
  ContractState a, b;
  a.Put("x", {1});
  b.Put("x", {2});
  EXPECT_NE(a.StateRoot(), b.StateRoot());
  ContractState c;
  c.Put("y", {1});
  EXPECT_NE(a.StateRoot(), c.StateRoot());
}

TEST(ContractStateTest, KeyValueBoundaryIsUnambiguous) {
  // ("ab", "c") must hash differently from ("a", "bc").
  ContractState a, b;
  a.Put("ab", {'c'});
  b.Put("a", {'b', 'c'});
  EXPECT_NE(a.StateRoot(), b.StateRoot());
}

TEST(ContractStateTest, SnapshotIsolation) {
  ContractState state;
  state.Put("k", {1});
  ContractState snap = state.Snapshot();
  snap.Put("k", {2});
  snap.Put("new", {3});
  EXPECT_EQ(*state.Get("k"), (Bytes{1}));
  EXPECT_FALSE(state.Has("new"));
}

TEST(ContractStateTest, SnapshotSharesNoWritesEitherWay) {
  // Snapshots share value buffers; a write on either side must replace
  // only its own entry, and each side's root must follow its own writes.
  ContractState parent;
  parent.Put("a", {1});
  parent.Put("b", {2});
  const crypto::Digest root = parent.StateRoot();
  ContractState snap = parent.Snapshot();

  snap.Put("a", {9});
  snap.Delete("b");
  EXPECT_EQ(*parent.Get("a"), (Bytes{1}));
  EXPECT_EQ(*parent.Get("b"), (Bytes{2}));
  EXPECT_EQ(parent.StateRoot(), root);

  parent.Put("b", {7});
  parent.Put("c", {3});
  EXPECT_EQ(*snap.Get("a"), (Bytes{9}));
  EXPECT_FALSE(snap.Has("b"));
  EXPECT_FALSE(snap.Has("c"));

  ContractState expected_snap;
  expected_snap.Put("a", {9});
  EXPECT_EQ(snap.StateRoot(), expected_snap.StateRoot());
  ContractState expected_parent;
  expected_parent.Put("a", {1});
  expected_parent.Put("b", {7});
  expected_parent.Put("c", {3});
  EXPECT_EQ(parent.StateRoot(), expected_parent.StateRoot());
}

TEST(ContractStateTest, RollbackRestoresEntriesAndRoot) {
  ContractState state;
  state.Put("keep", {1});
  state.Put("over", {2, 2});
  state.Put("gone", {3});
  const crypto::Digest root = state.StateRoot();

  state.BeginTx();
  state.Put("over", {4});  // Put over an existing key.
  state.Put("new", {5});   // Put of a new key.
  state.Delete("gone");
  state.Put("new", {6});   // Second write to a key of this transaction.
  state.Delete("keep");
  EXPECT_NE(state.StateRoot(), root);
  state.RollbackTx();

  EXPECT_EQ(state.size(), 3u);
  EXPECT_EQ(*state.Get("keep"), (Bytes{1}));
  EXPECT_EQ(*state.Get("over"), (Bytes{2, 2}));
  EXPECT_EQ(*state.Get("gone"), (Bytes{3}));
  EXPECT_FALSE(state.Has("new"));
  EXPECT_EQ(state.StateRoot(), root);

  // The restored leaves match too: a later write re-hashes every leaf
  // and must agree with a state built directly.
  state.Put("z", {0});
  ContractState direct;
  direct.Put("gone", {3});
  direct.Put("keep", {1});
  direct.Put("over", {2, 2});
  direct.Put("z", {0});
  EXPECT_EQ(state.StateRoot(), direct.StateRoot());
}

TEST(ContractStateTest, CommitTxKeepsWritesAndEndsJournal) {
  ContractState state;
  state.BeginTx();
  state.Put("k", {1});
  state.CommitTx();
  state.BeginTx();
  state.Put("k", {2});
  state.RollbackTx();  // Undoes only the second transaction.
  EXPECT_EQ(*state.Get("k"), (Bytes{1}));
}

TEST(ContractStateTest, PutThenDeleteMatchesNeverSeenKey) {
  ContractState seen;
  seen.Put("x", {1});
  seen.Put("y", {2});
  (void)seen.StateRoot();
  seen.Delete("y");
  ContractState never;
  never.Put("x", {1});
  EXPECT_EQ(seen.StateRoot(), never.StateRoot());
  seen.Delete("x");
  EXPECT_EQ(seen.StateRoot(), ContractState().StateRoot());
}

/// Test contract: method "put" stores the payload under "echo/<nonce>";
/// method "fail" adds a key, overwrites "pre", deletes "echo/1" and then
/// errors (to exercise rollback); anything else is unimplemented.
class EchoContract : public SmartContract {
 public:
  std::string name() const override { return "echo"; }
  Status Execute(const Transaction& tx, ContractState* state) override {
    if (tx.method == "put") {
      state->Put("echo/" + std::to_string(tx.nonce), tx.payload);
      return Status::OK();
    }
    if (tx.method == "fail") {
      state->Put("should_not_persist", {1});
      state->Put("pre", {9});
      state->Delete("echo/1");
      return Status::Internal("deliberate failure");
    }
    return Status::Unimplemented(tx.method);
  }
};

class HostFixture : public ::testing::Test {
 protected:
  HostFixture() {
    host_ = std::make_unique<ContractHost>(scheme_);
    EXPECT_TRUE(host_->Register(std::make_shared<EchoContract>()).ok());
  }

  Transaction SignedTx(const std::string& contract, const std::string& method,
                       uint64_t nonce = 1) {
    Transaction tx;
    tx.contract = contract;
    tx.method = method;
    tx.payload = {42};
    tx.nonce = nonce;
    tx.Sign(scheme_, key_, &rng_);
    return tx;
  }

  crypto::Schnorr scheme_;
  Xoshiro256 rng_{2};
  crypto::SchnorrKeyPair key_ = scheme_.GenerateKeyPair(&rng_);
  std::unique_ptr<ContractHost> host_;
};

TEST_F(HostFixture, RegisterRejectsDuplicatesAndNull) {
  EXPECT_TRUE(
      host_->Register(std::make_shared<EchoContract>()).IsAlreadyExists());
  EXPECT_TRUE(host_->Register(nullptr).IsInvalidArgument());
  EXPECT_TRUE(host_->HasContract("echo"));
  EXPECT_FALSE(host_->HasContract("nope"));
}

TEST_F(HostFixture, ExecutesValidTransaction) {
  ContractState state;
  auto receipt = host_->ExecuteTransaction(SignedTx("echo", "put", 5), &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);
  EXPECT_TRUE(state.Has("echo/5"));
}

TEST_F(HostFixture, RejectsBadSignatureWithoutStateChange) {
  ContractState state;
  Transaction tx = SignedTx("echo", "put");
  tx.payload.push_back(9);  // Invalidate signature.
  auto receipt = host_->ExecuteTransaction(tx, &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_EQ(receipt->error, "invalid signature");
  EXPECT_EQ(state.size(), 0u);
}

TEST_F(HostFixture, RejectsUnknownContract) {
  ContractState state;
  auto receipt =
      host_->ExecuteTransaction(SignedTx("missing", "put"), &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_NE(receipt->error.find("unknown contract"), std::string::npos);
}

TEST_F(HostFixture, FailedExecutionRollsBackPartialWrites) {
  ContractState state;
  state.Put("pre", {1});
  auto receipt = host_->ExecuteTransaction(SignedTx("echo", "fail"), &state);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_FALSE(state.Has("should_not_persist"));
  EXPECT_EQ(*state.Get("pre"), (Bytes{1}));
}

TEST_F(HostFixture, ExecuteBlockMixesSuccessAndFailureDeterministically) {
  ContractState state;
  std::vector<Transaction> txs = {SignedTx("echo", "put", 1),
                                  SignedTx("echo", "fail", 2),
                                  SignedTx("echo", "put", 3)};
  auto receipts = host_->ExecuteBlock(txs, &state);
  ASSERT_TRUE(receipts.ok());
  ASSERT_EQ(receipts->size(), 3u);
  EXPECT_TRUE((*receipts)[0].success);
  EXPECT_FALSE((*receipts)[1].success);
  EXPECT_TRUE((*receipts)[2].success);
  EXPECT_TRUE(state.Has("echo/1"));
  EXPECT_TRUE(state.Has("echo/3"));

  // Re-execution on a fresh state yields the identical root — the
  // property consensus relies on.
  ContractState replay;
  ASSERT_TRUE(host_->ExecuteBlock(txs, &replay).ok());
  EXPECT_EQ(replay.StateRoot(), state.StateRoot());
}

TEST_F(HostFixture, FailingTransactionLeavesSameRootAsBlockWithoutIt) {
  // The failing tx overwrites "pre" and deletes "echo/1" before it
  // errors; the rollback must leave no trace in the root.
  const std::vector<Transaction> with_failure = {
      SignedTx("echo", "put", 1), SignedTx("echo", "fail", 2),
      SignedTx("echo", "put", 3)};
  const std::vector<Transaction> without = {with_failure[0], with_failure[2]};
  ContractState a, b;
  a.Put("pre", {1});
  b.Put("pre", {1});
  ASSERT_TRUE(host_->ExecuteBlock(with_failure, &a).ok());
  ASSERT_TRUE(host_->ExecuteBlock(without, &b).ok());
  EXPECT_TRUE(a.Has("echo/1"));
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.StateRoot(), b.StateRoot());
}

}  // namespace
}  // namespace bcfl::chain
