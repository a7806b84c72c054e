// Blocks: a header chained by SHA-256 over the previous header hash plus a
// Merkle root over the block's transactions. Provides the immutability and
// traceability guarantees the TradeFL prototype needs for arbitration
// (Sec. III-F): any mutation of a past transaction changes the Merkle root,
// which breaks every subsequent prev-hash link.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/tx.h"

namespace tradefl::chain {

struct BlockHeader {
  std::uint64_t index = 0;
  std::uint64_t timestamp = 0;  // logical clock maintained by the chain
  Hash256 prev_hash{};
  Hash256 tx_root{};

  /// The fields() bytes, which hash() digests.
  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] Hash256 hash() const;
};

template <class Ar>
void fields(Ar& ar, BlockHeader& header) {
  ar(header.index, header.timestamp, fixed_bytes(header.prev_hash), fixed_bytes(header.tx_root));
}

struct Block {
  BlockHeader header;
  std::vector<Transaction> transactions;

  /// Merkle root over the transaction hashes (empty block -> zero root;
  /// odd layers duplicate the last node, Bitcoin-style).
  [[nodiscard]] static Hash256 merkle_root(const std::vector<Transaction>& transactions);

  /// Same tree over precomputed leaf hashes. Takes the leaves by value and
  /// compacts them in place, so the whole reduction reuses one buffer — the
  /// seal path hands over the hashes the mempool already carries and never
  /// re-hashes transaction bytes or allocates per level.
  [[nodiscard]] static Hash256 merkle_root_of_leaves(std::vector<Hash256> leaves);

  /// True when header.tx_root matches the transactions.
  [[nodiscard]] bool verify_tx_root() const;
};

/// A block record: the WAL frames it, the ledger nests it as a blob.
template <class Ar>
void fields(Ar& ar, Block& block) {
  ar(block.header, block.transactions);
}

/// Merkle inclusion proof: the sibling hashes from a transaction leaf up to
/// the root. Lets an arbitrator verify "this exact transaction is in that
/// sealed block" with O(log n) hashes and no access to the other
/// transactions — the light-client flavour of the paper's arbitration story.
struct MerkleProof {
  std::uint64_t leaf_index = 0;
  std::vector<Hash256> siblings;  // bottom-up; pairing side derives from index

  /// Builds the proof for transactions[index]. Throws std::out_of_range.
  [[nodiscard]] static MerkleProof build(const std::vector<Transaction>& transactions,
                                         std::size_t index);

  /// Verifies that `leaf` hashes up to `root` along this proof.
  [[nodiscard]] bool verify(const Hash256& leaf, const Hash256& root) const;
};

}  // namespace tradefl::chain
