// SHA-256 against the FIPS 180-4 / NIST test vectors.
#include "chain/sha256.h"

#include <gtest/gtest.h>

#include <cstring>

namespace tradefl::chain {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_to_hex(sha256(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_to_hex(sha256(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_to_hex(sha256(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.update(reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size());
  }
  EXPECT_EQ(hash_to_hex(hasher.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte message exercises the padding-into-second-block path.
  const std::string msg(64, 'x');
  const Hash256 direct = sha256(msg);
  Sha256 streaming;
  streaming.update(reinterpret_cast<const std::uint8_t*>(msg.data()), 32);
  streaming.update(reinterpret_cast<const std::uint8_t*>(msg.data()) + 32, 32);
  EXPECT_EQ(hash_to_hex(direct), hash_to_hex(streaming.finish()));
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog repeatedly";
  Sha256 streaming;
  for (char c : msg) {
    const auto byte = static_cast<std::uint8_t>(c);
    streaming.update(&byte, 1);
  }
  EXPECT_EQ(hash_to_hex(streaming.finish()), hash_to_hex(sha256(msg)));
}

TEST(Sha256, PairCombination) {
  const Hash256 left = sha256(std::string("left"));
  const Hash256 right = sha256(std::string("right"));
  // Copied by memcpy: std::vector::insert here trips GCC 12's false
  // -Wstringop-overread.
  Bytes concatenated(left.size() + right.size());
  std::memcpy(concatenated.data(), left.data(), left.size());
  std::memcpy(concatenated.data() + left.size(), right.data(), right.size());
  EXPECT_EQ(sha256_pair(left, right), sha256(concatenated));
  EXPECT_NE(sha256_pair(left, right), sha256_pair(right, left));
}

TEST(Sha256, AvalancheEffect) {
  const Hash256 a = sha256(std::string("message"));
  const Hash256 b = sha256(std::string("messagf"));
  int differing_bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differing_bits += __builtin_popcount(a[i] ^ b[i]);
  }
  EXPECT_GT(differing_bits, 80);  // ~128 expected
}

}  // namespace
}  // namespace tradefl::chain
