#include "chain/merkle.h"

#include <cstring>

namespace bcfl::chain {

namespace {

/// out[i] = LeafHash(leaves[i]) via the batched SHA-256 path.
void HashLeafLevel(const std::vector<crypto::Digest>& leaves,
                   std::vector<crypto::Digest>* out) {
  size_t n = leaves.size();
  out->resize(n);
  std::vector<uint8_t> pre(n * 33);
  std::vector<const uint8_t*> ptrs(n);
  for (size_t i = 0; i < n; ++i) {
    uint8_t* p = pre.data() + i * 33;
    p[0] = 0x00;
    std::memcpy(p + 1, leaves[i].data(), 32);
    ptrs[i] = p;
  }
  crypto::Sha256Batch(ptrs.data(), 33, n, out->data());
}

/// next[i] = NodeHash(prev[2i], prev[2i+1] or duplicated last node).
void HashNodeLevel(const std::vector<crypto::Digest>& prev,
                   std::vector<crypto::Digest>* next) {
  size_t n = (prev.size() + 1) / 2;
  next->resize(n);
  std::vector<uint8_t> pre(n * 65);
  std::vector<const uint8_t*> ptrs(n);
  for (size_t i = 0; i < n; ++i) {
    size_t left = 2 * i;
    size_t right = left + 1 < prev.size() ? left + 1 : left;
    uint8_t* p = pre.data() + i * 65;
    p[0] = 0x01;
    std::memcpy(p + 1, prev[left].data(), 32);
    std::memcpy(p + 33, prev[right].data(), 32);
    ptrs[i] = p;
  }
  crypto::Sha256Batch(ptrs.data(), 65, n, next->data());
}

}  // namespace

crypto::Digest MerkleTree::LeafHash(const crypto::Digest& data) {
  crypto::Sha256 hasher;
  uint8_t tag = 0x00;
  hasher.Update(&tag, 1);
  hasher.Update(data.data(), data.size());
  return hasher.Finish();
}

crypto::Digest MerkleTree::NodeHash(const crypto::Digest& left,
                                    const crypto::Digest& right) {
  crypto::Sha256 hasher;
  uint8_t tag = 0x01;
  hasher.Update(&tag, 1);
  hasher.Update(left.data(), left.size());
  hasher.Update(right.data(), right.size());
  return hasher.Finish();
}

MerkleTree::MerkleTree(const std::vector<crypto::Digest>& leaves)
    : num_leaves_(leaves.size()) {
  root_.fill(0);
  if (leaves.empty()) return;

  std::vector<crypto::Digest> level;
  HashLeafLevel(leaves, &level);
  levels_.push_back(std::move(level));

  while (levels_.back().size() > 1) {
    std::vector<crypto::Digest> next;
    HashNodeLevel(levels_.back(), &next);
    levels_.push_back(std::move(next));
  }
  root_ = levels_.back()[0];
}

void MerkleTree::Append(const crypto::Digest& leaf) {
  if (num_leaves_ == 0) {
    levels_.assign(1, {LeafHash(leaf)});
    num_leaves_ = 1;
    root_ = levels_[0][0];
    return;
  }
  ++num_leaves_;
  levels_[0].push_back(LeafHash(leaf));
  // Only the last node of each level depends on the appended leaf (the
  // previous last parent either gains a real right child where it used
  // to duplicate, or a new parent appears). Walk the right edge up.
  size_t depth = 0;
  while (levels_[depth].size() > 1) {
    size_t prev_size = levels_[depth].size();
    size_t parent_count = (prev_size + 1) / 2;
    // May reallocate levels_ itself: take references only afterwards.
    if (depth + 1 == levels_.size()) levels_.emplace_back();
    const auto& prev = levels_[depth];
    auto& parents = levels_[depth + 1];
    parents.resize(parent_count);
    size_t last = parent_count - 1;
    size_t left = 2 * last;
    size_t right = left + 1 < prev_size ? left + 1 : left;
    parents[last] = NodeHash(prev[left], prev[right]);
    ++depth;
  }
  root_ = levels_.back()[0];
}

Result<std::vector<MerkleProofStep>> MerkleTree::Proof(size_t index) const {
  if (index >= num_leaves_) {
    return Status::OutOfRange("leaf index out of range");
  }
  std::vector<MerkleProofStep> proof;
  size_t pos = index;
  for (size_t depth = 0; depth + 1 < levels_.size(); ++depth) {
    const auto& level = levels_[depth];
    MerkleProofStep step;
    if (pos % 2 == 0) {
      // Sibling is on the right (or the duplicated self at the edge).
      step.sibling = (pos + 1 < level.size()) ? level[pos + 1] : level[pos];
      step.sibling_is_right = true;
    } else {
      step.sibling = level[pos - 1];
      step.sibling_is_right = false;
    }
    proof.push_back(step);
    pos /= 2;
  }
  return proof;
}

bool MerkleTree::VerifyProof(const crypto::Digest& leaf,
                             const std::vector<MerkleProofStep>& proof,
                             const crypto::Digest& root) {
  crypto::Digest current = LeafHash(leaf);
  for (const auto& step : proof) {
    current = step.sibling_is_right ? NodeHash(current, step.sibling)
                                    : NodeHash(step.sibling, current);
  }
  return current == root;
}

}  // namespace bcfl::chain
