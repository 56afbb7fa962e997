#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/sha256.h"

namespace bcfl::chain {

/// Deterministic key-value store backing smart-contract execution.
///
/// Keys are strings, values opaque bytes. Each value is stored once as an
/// immutable, exact-capacity shared buffer next to its leaf digest,
/// SHA-256("bcfl.state.leaf" || len(key) || key || len(value) || value),
/// computed once in `Put`. `StateRoot()` hashes the sorted leaf digests,
/// so every miner that executed the same transactions in the same order
/// gets the same root; consensus compares roots to verify the leader's
/// execution. Block execution therefore costs O(bytes written), not
/// O(live state): snapshots share value buffers and the root re-hashes
/// 32 bytes per entry, never the values.
///
/// Const reads (`Get`, `Has`, `KeysWithPrefix`, `size`) may run
/// concurrently; `StateRoot()` fills a cache and may not.
class ContractState {
 public:
  ContractState() = default;

  /// Stores `value` under `key` (overwrites).
  void Put(const std::string& key, Bytes value);
  /// Retrieves a value; NotFound if absent.
  Result<Bytes> Get(const std::string& key) const;
  bool Has(const std::string& key) const;
  /// Removes a key (no-op when absent).
  void Delete(const std::string& key);

  /// Number of live keys.
  size_t size() const { return entries_.size(); }

  /// Keys beginning with `prefix`, in sorted order — contracts use
  /// prefix scans to enumerate e.g. all submissions of a round.
  std::vector<std::string> KeysWithPrefix(const std::string& prefix) const;

  /// Commitment to the full store contents: SHA-256("bcfl.state.root" ||
  /// leaf digests in key order). Cached; a write invalidates it.
  crypto::Digest StateRoot() const;

  /// Independent copy for re-executing proposals without touching the
  /// committed state. Value buffers are immutable and shared, so this
  /// copies pointers and digests, never value bytes; a write to either
  /// side replaces its own pointer and never shows in the other.
  ContractState Snapshot() const { return *this; }

  /// Undo journal for one transaction: after `BeginTx()` every write
  /// records the entry it replaces. `CommitTx()` keeps the writes;
  /// `RollbackTx()` restores the entries as of `BeginTx()` in O(writes).
  /// Transactions do not nest.
  void BeginTx();
  void CommitTx();
  void RollbackTx();

 private:
  struct Entry {
    std::shared_ptr<const Bytes> value;
    crypto::Digest leaf{};
  };

  std::map<std::string, Entry> entries_;
  /// Cached StateRoot(); empty after a write until the next call.
  mutable std::optional<crypto::Digest> root_;

  bool in_tx_ = false;
  /// Every write of the open transaction, in order, with the entry the
  /// key held before it (nullopt = absent).
  std::vector<std::pair<std::string, std::optional<Entry>>> journal_;
};

}  // namespace bcfl::chain
