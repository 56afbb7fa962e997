#include "chain/state.h"

#include <string_view>

namespace bcfl::chain {

namespace {

// Equal-length domain tags keep leaf and root preimages disjoint.
constexpr std::string_view kLeafTag = "bcfl.state.leaf";
constexpr std::string_view kRootTag = "bcfl.state.root";

/// Little-endian u32 length prefix, the ByteWriter encoding.
void UpdateLength(crypto::Sha256* hasher, size_t size) {
  uint8_t len[4];
  for (int i = 0; i < 4; ++i) len[i] = static_cast<uint8_t>(size >> (8 * i));
  hasher->Update(len, sizeof(len));
}

crypto::Digest LeafDigest(const std::string& key, const Bytes& value) {
  crypto::Sha256 hasher;
  hasher.Update(kLeafTag);
  UpdateLength(&hasher, key.size());
  hasher.Update(key);
  UpdateLength(&hasher, value.size());
  hasher.Update(value);
  return hasher.Finish();
}

}  // namespace

void ContractState::Put(const std::string& key, Bytes value) {
  const crypto::Digest leaf = LeafDigest(key, value);
  // Encoders hand over ByteWriter buffers with doubling slack; a value
  // lives as long as its key, so store it at exact size.
  value.shrink_to_fit();
  auto [it, inserted] = entries_.try_emplace(key);
  if (in_tx_) {
    journal_.emplace_back(key, inserted ? std::nullopt
                                        : std::optional<Entry>(it->second));
  }
  it->second = Entry{std::make_shared<const Bytes>(std::move(value)), leaf};
  root_.reset();
}

Result<Bytes> ContractState::Get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("no such state key: " + key);
  }
  return *it->second.value;
}

bool ContractState::Has(const std::string& key) const {
  return entries_.count(key) > 0;
}

void ContractState::Delete(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  if (in_tx_) journal_.emplace_back(key, std::move(it->second));
  entries_.erase(it);
  root_.reset();
}

std::vector<std::string> ContractState::KeysWithPrefix(
    const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

crypto::Digest ContractState::StateRoot() const {
  if (!root_) {
    crypto::Sha256 hasher;
    hasher.Update(kRootTag);
    for (const auto& [key, entry] : entries_) {
      hasher.Update(entry.leaf.data(), entry.leaf.size());
    }
    root_ = hasher.Finish();
  }
  return *root_;
}

void ContractState::BeginTx() { in_tx_ = true; }

void ContractState::CommitTx() {
  in_tx_ = false;
  journal_.clear();
}

void ContractState::RollbackTx() {
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    auto& [key, prior] = *it;
    if (prior) {
      entries_[key] = std::move(*prior);
    } else {
      entries_.erase(key);
    }
  }
  root_.reset();
  in_tx_ = false;
  journal_.clear();
}

}  // namespace bcfl::chain
