#include "chain/block.h"

#include <stdexcept>

namespace tradefl::chain {

Bytes BlockHeader::serialize() const {
  ByteWriter writer;
  writer(*this);
  return writer.release();
}

Hash256 BlockHeader::hash() const { return sha256(serialize()); }

Hash256 Block::merkle_root(const std::vector<Transaction>& transactions) {
  std::vector<Hash256> leaves;
  leaves.reserve(transactions.size());
  for (const Transaction& tx : transactions) leaves.push_back(tx.hash());
  return merkle_root_of_leaves(std::move(leaves));
}

Hash256 Block::merkle_root_of_leaves(std::vector<Hash256> leaves) {
  if (leaves.empty()) return Hash256{};
  // Each level compacts the buffer front-to-back: slot `out` is only ever
  // rewritten after sha256_pair has fully consumed slots i / i+1 (the pair
  // hash returns by value), so one buffer serves every layer.
  std::size_t width = leaves.size();
  while (width > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < width; i += 2) {
      const Hash256& left = leaves[i];
      const Hash256& right = i + 1 < width ? leaves[i + 1] : leaves[i];
      leaves[out++] = sha256_pair(left, right);
    }
    width = out;
  }
  return leaves.front();
}

bool Block::verify_tx_root() const {
  return header.tx_root == merkle_root(transactions);
}

MerkleProof MerkleProof::build(const std::vector<Transaction>& transactions,
                               std::size_t index) {
  if (index >= transactions.size()) {
    throw std::out_of_range("merkle proof: transaction index out of range");
  }
  MerkleProof proof;
  proof.leaf_index = index;
  std::vector<Hash256> layer;
  layer.reserve(transactions.size());
  for (const Transaction& tx : transactions) layer.push_back(tx.hash());

  std::size_t position = index;
  while (layer.size() > 1) {
    const std::size_t sibling =
        position % 2 == 0 ? std::min(position + 1, layer.size() - 1) : position - 1;
    proof.siblings.push_back(layer[sibling]);
    std::vector<Hash256> next;
    next.reserve((layer.size() + 1) / 2);
    for (std::size_t i = 0; i < layer.size(); i += 2) {
      const Hash256& left = layer[i];
      const Hash256& right = i + 1 < layer.size() ? layer[i + 1] : layer[i];
      next.push_back(sha256_pair(left, right));
    }
    layer = std::move(next);
    position /= 2;
  }
  return proof;
}

bool MerkleProof::verify(const Hash256& leaf, const Hash256& root) const {
  Hash256 current = leaf;
  std::uint64_t position = leaf_index;
  for (const Hash256& sibling : siblings) {
    current = position % 2 == 0 ? sha256_pair(current, sibling)
                                : sha256_pair(sibling, current);
    position /= 2;
  }
  return current == root;
}

}  // namespace tradefl::chain
