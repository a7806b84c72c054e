#include "chain/tx.h"

namespace tradefl::chain {

Address Address::from_name(const std::string& name) {
  const Hash256 digest = sha256("tradefl-address:" + name);
  Address address;
  for (std::size_t i = 0; i < address.bytes.size(); ++i) {
    address.bytes[i] = digest[digest.size() - address.bytes.size() + i];
  }
  return address;
}

std::string Address::to_hex() const {
  return "0x" + tradefl::chain::to_hex(Bytes(bytes.begin(), bytes.end()));
}

bool Address::is_zero() const {
  for (std::uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

Bytes Transaction::serialize() const {
  ByteWriter writer;
  // Exact payload size: two prefixed 20-byte addresses, four 8-byte ints,
  // one prefixed data blob. Submit/seal/validate all hash through here, so
  // the buffer growth otherwise dominates the (hardware-accelerated) SHA.
  writer.reserve(2 * (4 + from.bytes.size()) + 4 * 8 + 4 + data.size());
  writer(*this);
  return writer.release();
}

Hash256 Transaction::hash() const { return sha256(serialize()); }

}  // namespace tradefl::chain
