#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "chain/blockchain.h"
#include "chain/contract_host.h"
#include "chain/mempool.h"
#include "common/result.h"

namespace bcfl::chain {

/// Hook applied by a *Byzantine* leader between executing a proposal and
/// publishing it: it may mutate the post-execution state (e.g. inflate
/// its own contribution record) and/or the block. Honest miners have no
/// behaviour installed.
struct MinerBehavior {
  /// Tampers with the leader's post-execution state before the state
  /// root is computed. Null = honest.
  std::function<void(ContractState*)> tamper_state;
  /// When true the miner votes reject regardless of validity (griefing).
  bool always_reject = false;
};

/// One blockchain miner: a chain replica, a contract-state replica and a
/// mempool, with the two consensus roles from Sect. III — proposing as
/// leader and re-executing/verifying as validator.
class Miner {
 public:
  Miner(uint32_t id, std::shared_ptr<const ContractHost> host);

  uint32_t id() const { return id_; }
  const Blockchain& chain() const { return chain_; }
  const ContractState& state() const { return state_; }
  Mempool& mempool() { return mempool_; }

  void set_behavior(MinerBehavior behavior) { behavior_ = std::move(behavior); }
  const MinerBehavior& behavior() const { return behavior_; }

  /// Leader role: executes pending transactions on a scratch state and
  /// assembles the next block (committing nothing). An honest post-state
  /// is kept for CommitBlock to adopt; a Byzantine `tamper_state` hook
  /// corrupts the proposal here, and its state is never kept.
  Result<Block> ProposeBlock(uint64_t timestamp_us, size_t max_txs = 0);

  /// Validator role: structural checks plus full re-execution; true iff
  /// the proposer's state root matches this miner's own re-execution
  /// (the verification protocol of Sect. III). A matching post-state is
  /// kept for CommitBlock to adopt. Counts no vote: the consensus engine
  /// counts `chain.proposal.{accepted,rejected}` when it sends one.
  /// Miners share only the host (whose caches are internally locked), so
  /// distinct miners may validate and commit concurrently.
  Result<bool> ValidateProposal(const Block& block);

  /// Applies a block agreed by consensus: adopts the kept post-state when
  /// it was executed for this very block on the current tip, otherwise
  /// re-executes against the live state (catch-up, resume replay, a lost
  /// proposal); then appends to the chain and evicts its transactions
  /// from the mempool. Fails (leaving the replica untouched) if the block
  /// does not execute to its claimed state root.
  Status CommitBlock(const Block& block);

 private:
  uint32_t id_;
  std::shared_ptr<const ContractHost> host_;
  Blockchain chain_;
  ContractState state_;
  Mempool mempool_;
  MinerBehavior behavior_;

  /// Post-state of this miner's last honest execution, keyed by the
  /// block it executed and the tip it executed on.
  struct Executed {
    crypto::Digest block_hash{};
    crypto::Digest parent_hash{};
    ContractState post;
  };
  std::optional<Executed> executed_;
};

}  // namespace bcfl::chain
