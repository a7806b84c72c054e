#include "common/snapshot.h"

#include <array>
#include <cstdio>
#include <filesystem>

namespace tradefl {
namespace {

constexpr std::uint32_t kMagic = 0x534C4654u;  // "TFLS" little-endian
constexpr std::size_t kHeaderMin = 4 + 4 + 8;  // magic + version + kind length
constexpr std::size_t kTrailer = 4;            // CRC32

// Sanity cap on length prefixes: nothing in this repo snapshots anywhere near
// 1 GiB, so a larger claimed length is corruption, not data.
constexpr std::uint64_t kMaxFieldBytes = 1ULL << 30;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value >> 1) ^ ((value & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = value;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xFFu];
  }
  return ~crc;
}

std::uint32_t crc32(const std::vector<std::uint8_t>& data) {
  return crc32(data.data(), data.size());
}

// ----- SnapshotWriter / SnapshotReader primitives -----

void SnapshotWriter::put_u32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<std::uint8_t>((value >> shift) & 0xFFu));
  }
}

void SnapshotWriter::put_u64(std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<std::uint8_t>((value >> shift) & 0xFFu));
  }
}

void SnapshotWriter::put_blob(const std::uint8_t* data, std::size_t size) {
  put_u64(size);
  buffer_.insert(buffer_.end(), data, data + size);
}

void SnapshotReader::fail(const std::string& message) { throw SnapshotError(message); }

void SnapshotReader::require(std::size_t bytes) const {
  if (size_ - offset_ < bytes) {
    fail("payload overrun: need " + std::to_string(bytes) + " bytes, have " +
         std::to_string(size_ - offset_));
  }
}

std::uint8_t SnapshotReader::get_u8() {
  require(1);
  return data_[offset_++];
}

std::uint32_t SnapshotReader::get_u32() {
  require(4);
  std::uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<std::uint32_t>(data_[offset_++]) << shift;
  }
  return value;
}

std::uint64_t SnapshotReader::get_u64() {
  require(8);
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<std::uint64_t>(data_[offset_++]) << shift;
  }
  return value;
}

std::pair<const std::uint8_t*, std::size_t> SnapshotReader::take_blob() {
  const std::uint64_t length = get_u64();
  if (length > kMaxFieldBytes) fail("length prefix exceeds sanity cap");
  require(static_cast<std::size_t>(length));
  const std::uint8_t* start = data_ + offset_;
  offset_ += static_cast<std::size_t>(length);
  return {start, static_cast<std::size_t>(length)};
}

void SnapshotReader::require_exhausted() const {
  if (offset_ != size_) fail("trailing bytes after payload: " + std::to_string(size_ - offset_));
}

// ----- file I/O -----

Result<std::size_t> write_snapshot_file(const std::string& path, const std::string& kind,
                                        std::uint32_t version, const SnapshotWriter& payload) {
  SnapshotWriter framed;
  framed(kMagic, version, kind, payload.payload());
  const std::vector<std::uint8_t>& body = framed.payload();
  const std::uint32_t checksum = crc32(body);

  // Write to a sibling temp file, then rename into place: POSIX rename is
  // atomic within a filesystem, so readers observe either the previous
  // snapshot or the complete new one.
  const std::string temp_path = path + ".tmp";
  {
    std::FILE* file = std::fopen(temp_path.c_str(), "wb");
    if (file == nullptr) {
      return Error{"io", "cannot open " + temp_path + " for writing"};
    }
    const std::size_t written = std::fwrite(body.data(), 1, body.size(), file);
    std::uint8_t trailer[4];
    for (int i = 0; i < 4; ++i) {
      trailer[i] = static_cast<std::uint8_t>((checksum >> (8 * i)) & 0xFFu);
    }
    const std::size_t trailer_written = std::fwrite(trailer, 1, kTrailer, file);
    const bool flushed = std::fflush(file) == 0;
    const bool closed = std::fclose(file) == 0;
    if (written != body.size() || trailer_written != kTrailer || !flushed || !closed) {
      std::remove(temp_path.c_str());
      return Error{"io", "write failed for " + temp_path};
    }
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    std::remove(temp_path.c_str());
    return Error{"io", "cannot rename " + temp_path + " to " + path};
  }
  return body.size() + kTrailer;
}

Result<std::vector<std::uint8_t>> read_snapshot_file(const std::string& path,
                                                     const std::string& kind,
                                                     std::uint32_t max_version,
                                                     std::uint32_t min_version) {
  std::vector<std::uint8_t> raw;
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      return Error{"io", "cannot open " + path + " for reading"};
    }
    std::uint8_t chunk[4096];
    std::size_t read = 0;
    while ((read = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
      raw.insert(raw.end(), chunk, chunk + read);
    }
    const bool clean = std::ferror(file) == 0;
    std::fclose(file);
    if (!clean) return Error{"io", "read failed for " + path};
  }

  if (raw.size() < kHeaderMin + 8 + kTrailer) {
    return Error{"snapshot.truncated",
                 path + ": " + std::to_string(raw.size()) + " bytes is smaller than any snapshot"};
  }

  // Validate the CRC first: a flipped byte anywhere (header included) must
  // fail closed before any field is interpreted.
  const std::size_t body_size = raw.size() - kTrailer;
  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<std::uint32_t>(raw[body_size + static_cast<std::size_t>(i)])
                  << (8 * i);
  }
  const std::uint32_t computed_crc = crc32(raw.data(), body_size);

  SnapshotReader reader(raw.data(), body_size);
  try {
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    reader(magic, version);
    if (magic != kMagic) {
      return Error{"snapshot.magic", path + ": not a TradeFL snapshot (bad magic)"};
    }
    if (computed_crc != stored_crc) {
      return Error{"snapshot.crc", path + ": CRC mismatch (file is corrupt)"};
    }
    if (version > max_version) {
      return Error{"snapshot.version", path + ": schema version " + std::to_string(version) +
                                           " is newer than supported " +
                                           std::to_string(max_version)};
    }
    if (version < min_version) {
      return Error{"snapshot.version", path + ": schema version " + std::to_string(version) +
                                           " is older than supported " +
                                           std::to_string(min_version)};
    }
    std::string file_kind;
    reader(file_kind);
    if (file_kind != kind) {
      return Error{"snapshot.kind",
                   path + ": holds a '" + file_kind + "' snapshot, expected '" + kind + "'"};
    }
    std::vector<std::uint8_t> payload;
    reader(payload);
    reader.require_exhausted();
    return payload;
  } catch (const SnapshotError& error) {
    return Error{"snapshot.truncated", path + ": " + error.what()};
  }
}

bool snapshot_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

}  // namespace tradefl
