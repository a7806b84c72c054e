// Accounts, addresses, and transactions of the in-process Ethereum-like
// chain. Wei is a plain int64 (the simulation's money supply fits easily);
// contract calls carry an ABI-encoded payload in `data`.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "chain/bytes.h"
#include "chain/sha256.h"

namespace tradefl::chain {

using Wei = std::int64_t;

/// 20-byte account identifier, derived like Ethereum's: trailing bytes of a
/// hash of the owner's public name/key material.
struct Address {
  std::array<std::uint8_t, 20> bytes{};

  [[nodiscard]] static Address from_name(const std::string& name);
  [[nodiscard]] static Address zero() { return Address{}; }

  [[nodiscard]] std::string to_hex() const;
  [[nodiscard]] bool is_zero() const;

  auto operator<=>(const Address&) const = default;
};

/// Persisted as a 20-byte length-prefixed blob (common/snapshot.h).
template <class Ar>
void fields(Ar& ar, Address& address) {
  ar(fixed_bytes(address.bytes));
}

struct Transaction {
  Address from;
  Address to;            // zero address = contract deployment
  Wei value = 0;
  std::uint64_t nonce = 0;
  Bytes data;            // ABI-encoded call: method + arguments
  std::uint64_t gas_limit = 10'000'000;
  /// Priority fee: orders the mempool (higher seals earlier within a nonce
  /// rank), is part of the signed/hashed bytes, but is never charged — the
  /// simulation's economics live in the contract, not in gas auctions.
  Wei fee = 0;

  /// The fields() bytes: what hash() digests and the WAL persists.
  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] Hash256 hash() const;
};

template <class Ar>
void fields(Ar& ar, Transaction& tx) {
  ar(tx.from, tx.to, tx.value, tx.nonce, tx.data, tx.gas_limit, tx.fee);
}

/// Execution outcome recorded on-chain next to the transaction.
struct Receipt {
  Hash256 tx_hash{};
  bool success = false;
  std::string revert_reason;
  std::uint64_t gas_used = 0;
  Bytes return_data;
  std::uint64_t block_index = 0;
};

template <class Ar>
void fields(Ar& ar, Receipt& receipt) {
  ar(fixed_bytes(receipt.tx_hash), receipt.success, receipt.revert_reason, receipt.gas_used,
     receipt.return_data, receipt.block_index);
}

}  // namespace tradefl::chain
