#include "chain/abi.h"

#include <limits>
#include <stdexcept>

#include "common/check.h"

namespace tradefl::chain {
namespace {

enum class Tag : std::uint8_t {
  kU64 = 1,
  kI64 = 2,
  kString = 3,
  kAddress = 4,
  kBytes = 5,
  kFixed = 6,
};

void encode_value(ByteWriter& writer, const AbiValue& value) {
  if (const auto* u = std::get_if<std::uint64_t>(&value)) {
    writer.put_u8(static_cast<std::uint8_t>(Tag::kU64));
    writer.put_u64(*u);
  } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
    writer.put_u8(static_cast<std::uint8_t>(Tag::kI64));
    writer.put_i64(*i);
  } else if (const auto* s = std::get_if<std::string>(&value)) {
    writer.put_u8(static_cast<std::uint8_t>(Tag::kString));
    writer.put_string(*s);
  } else if (const auto* a = std::get_if<Address>(&value)) {
    writer.put_u8(static_cast<std::uint8_t>(Tag::kAddress));
    writer(*a);
  } else if (const auto* b = std::get_if<Bytes>(&value)) {
    writer.put_u8(static_cast<std::uint8_t>(Tag::kBytes));
    writer.put_bytes(*b);
  } else if (const auto* f = std::get_if<Fixed>(&value)) {
    writer.put_u8(static_cast<std::uint8_t>(Tag::kFixed));
    writer.put_i64(f->raw());
  } else {
    throw std::logic_error("abi: unhandled variant alternative");
  }
}

AbiValue decode_value(ByteReader& reader) {
  const Tag tag = static_cast<Tag>(reader.get_u8());
  switch (tag) {
    case Tag::kU64: return reader.get_u64();
    case Tag::kI64: return reader.get_i64();
    case Tag::kString: return reader.get_string();
    case Tag::kAddress: {
      Address address;
      reader(address);
      return address;
    }
    case Tag::kBytes: return reader.get_bytes();
    case Tag::kFixed: return Fixed::from_raw(reader.get_i64());
  }
  throw std::invalid_argument("abi: unknown type tag");
}

[[noreturn]] void type_error(std::size_t index, const char* wanted, const AbiValue& got) {
  throw std::invalid_argument("abi: argument " + std::to_string(index) + " must be " + wanted +
                              ", got " + abi_type_name(got));
}

void require_index(const std::vector<AbiValue>& args, std::size_t index) {
  if (index >= args.size()) {
    throw std::invalid_argument("abi: missing argument " + std::to_string(index));
  }
}

}  // namespace

std::string abi_type_name(const AbiValue& value) {
  switch (value.index()) {
    case 0: return "u64";
    case 1: return "i64";
    case 2: return "string";
    case 3: return "address";
    case 4: return "bytes";
    case 5: return "fixed";
    default: return "?";
  }
}

Bytes encode_call(const CallPayload& payload) {
  ByteWriter writer;
  writer.put_string(payload.method);
  TFL_CHECK(payload.args.size() <= std::numeric_limits<std::uint32_t>::max(),
            "argument count overflows u32");
  writer.put_u32(static_cast<std::uint32_t>(payload.args.size()));
  for (const AbiValue& value : payload.args) encode_value(writer, value);
  return writer.release();
}

CallPayload decode_call(const Bytes& data) {
  try {
    ByteReader reader(data);
    CallPayload payload;
    payload.method = reader.get_string();
    const std::uint32_t count = reader.get_u32();
    // Every encoded value occupies at least its 1-byte tag, so a count larger
    // than the payload itself is malformed; checking before reserve() keeps a
    // hostile 4-billion count from allocating gigabytes.
    if (count > data.size()) throw std::invalid_argument("abi: argument count exceeds payload");
    payload.args.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) payload.args.push_back(decode_value(reader));
    if (!reader.exhausted()) throw std::invalid_argument("abi: trailing bytes");
    return payload;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("abi: truncated call payload");
  }
}

Bytes encode_values(const std::vector<AbiValue>& values) {
  ByteWriter writer;
  TFL_CHECK(values.size() <= std::numeric_limits<std::uint32_t>::max(),
            "value count overflows u32");
  writer.put_u32(static_cast<std::uint32_t>(values.size()));
  for (const AbiValue& value : values) encode_value(writer, value);
  return writer.release();
}

std::vector<AbiValue> decode_values(const Bytes& data) {
  try {
    ByteReader reader(data);
    const std::uint32_t count = reader.get_u32();
    if (count > data.size()) throw std::invalid_argument("abi: value count exceeds payload");
    std::vector<AbiValue> values;
    values.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) values.push_back(decode_value(reader));
    if (!reader.exhausted()) throw std::invalid_argument("abi: trailing bytes");
    return values;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("abi: truncated value list");
  }
}

std::uint64_t abi_u64(const std::vector<AbiValue>& args, std::size_t index) {
  require_index(args, index);
  if (const auto* value = std::get_if<std::uint64_t>(&args[index])) return *value;
  type_error(index, "u64", args[index]);
}

std::int64_t abi_i64(const std::vector<AbiValue>& args, std::size_t index) {
  require_index(args, index);
  if (const auto* value = std::get_if<std::int64_t>(&args[index])) return *value;
  type_error(index, "i64", args[index]);
}

const std::string& abi_string(const std::vector<AbiValue>& args, std::size_t index) {
  require_index(args, index);
  if (const auto* value = std::get_if<std::string>(&args[index])) return *value;
  type_error(index, "string", args[index]);
}

Address abi_address(const std::vector<AbiValue>& args, std::size_t index) {
  require_index(args, index);
  if (const auto* value = std::get_if<Address>(&args[index])) return *value;
  type_error(index, "address", args[index]);
}

Fixed abi_fixed(const std::vector<AbiValue>& args, std::size_t index) {
  require_index(args, index);
  if (const auto* value = std::get_if<Fixed>(&args[index])) return *value;
  type_error(index, "fixed", args[index]);
}

}  // namespace tradefl::chain
