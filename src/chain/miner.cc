#include "chain/miner.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcfl::chain {

Miner::Miner(uint32_t id, std::shared_ptr<const ContractHost> host)
    : id_(id), host_(std::move(host)) {}

Result<Block> Miner::ProposeBlock(uint64_t timestamp_us, size_t max_txs) {
  static auto& proposed =
      obs::MetricsRegistry::Global().GetCounter("chain.block.proposed");
  obs::ScopedSpan span(obs::Tracer::Global(), "propose", "chain");
  proposed.Add();
  Block block;
  block.txs = mempool_.Peek(max_txs);
  block.header.height = chain_.Height() + 1;
  block.header.prev_hash = chain_.Tip().header.Hash();
  block.header.timestamp_us = timestamp_us;
  block.header.proposer = id_;
  // Proposing the whole pool promotes the mempool's incrementally
  // maintained root (bit-identical to a rebuild); a partial block still
  // hashes its own prefix.
  block.header.merkle_root = block.txs.size() == mempool_.size()
                                 ? mempool_.PendingRoot()
                                 : block.ComputeMerkleRoot();

  ContractState scratch = state_.Snapshot();
  BCFL_ASSIGN_OR_RETURN(std::vector<TxReceipt> receipts,
                        host_->ExecuteBlock(block.txs, &scratch));
  (void)receipts;
  if (behavior_.tamper_state) {
    behavior_.tamper_state(&scratch);
  }
  block.header.state_root = scratch.StateRoot();
  if (behavior_.tamper_state) {
    executed_.reset();  // A tampered state is never adopted.
  } else {
    executed_ = Executed{block.header.Hash(), block.header.prev_hash,
                         std::move(scratch)};
  }
  return block;
}

Result<bool> Miner::ValidateProposal(const Block& block) {
  obs::ScopedSpan span(obs::Tracer::Global(), "validate", "chain");
  if (behavior_.always_reject) return false;
  Status structural = Blockchain::Validate(block, chain_.Tip());
  if (!structural.ok()) return false;

  // Re-execute the body on a snapshot of this miner's own state — the
  // "verification protocol" of Sect. III.
  ContractState scratch = state_.Snapshot();
  auto receipts = host_->ExecuteBlock(block.txs, &scratch);
  if (!receipts.ok()) return false;
  const bool match = scratch.StateRoot() == block.header.state_root;
  if (match) {
    executed_ = Executed{block.header.Hash(), block.header.prev_hash,
                         std::move(scratch)};
  }
  return match;
}

Status Miner::CommitBlock(const Block& block) {
  static auto& adopted =
      obs::MetricsRegistry::Global().GetCounter("chain.commit.adopted");
  obs::ScopedSpan span(obs::Tracer::Global(), "commit", "chain");
  ContractState scratch;
  if (executed_ && executed_->block_hash == block.header.Hash() &&
      executed_->parent_hash == chain_.Tip().header.Hash()) {
    scratch = std::move(executed_->post);
    adopted.Add();
  } else {
    scratch = state_.Snapshot();
    BCFL_ASSIGN_OR_RETURN(std::vector<TxReceipt> receipts,
                          host_->ExecuteBlock(block.txs, &scratch));
    (void)receipts;
  }
  executed_.reset();
  if (scratch.StateRoot() != block.header.state_root) {
    return Status::Corruption(
        "committed block does not re-execute to its state root");
  }
  BCFL_RETURN_IF_ERROR(chain_.Append(block));
  state_ = std::move(scratch);
  mempool_.RemoveCommitted(block.txs);
  return Status::OK();
}

}  // namespace bcfl::chain
