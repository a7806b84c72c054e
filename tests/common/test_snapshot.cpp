// Crash-consistent snapshot layer: canonical encoding round trips, atomic
// file framing, and — the robustness contract — every corruption mode fails
// closed with a typed error while the previous checkpoint stays intact.
#include "common/snapshot.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace tradefl {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  return {std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(file.good()) << path;
}

SnapshotWriter sample_payload() {
  SnapshotWriter writer;
  writer(std::uint8_t{7}, std::uint32_t{0xDEADBEEFu}, std::uint64_t{1} << 60, std::int64_t{-42},
         true, 1.5f, -0.0, std::string("TradeFL"), std::vector<std::uint8_t>{0x00, 0xFF, 0x10},
         std::vector<float>{0.25f, std::numeric_limits<float>::quiet_NaN()},
         std::vector<double>{1e-300, 2.5}, std::vector<std::uint64_t>{1, 2, 3});
  return writer;
}

enum class Color : std::uint8_t { kRed = 0, kGreen = 1, kBlue = 2 };

/// A persisted type of the shape every pipeline uses: one field list.
struct Sample {
  int level = 0;
  Color color = Color::kRed;
  std::array<std::uint8_t, 4> tag{};
  std::optional<std::string> note;
  std::map<std::string, std::uint64_t> counts;
  std::set<std::vector<std::size_t>> visited;
  std::vector<std::pair<std::string, double>> pairs;
  std::array<std::uint64_t, 2> words{};
};

template <class Ar>
void fields(Ar& ar, Sample& sample) {
  ar(sample.level, as_enum<std::uint8_t>(sample.color, Color::kBlue), fixed_bytes(sample.tag),
     sample.note, sample.counts, sample.visited, sample.pairs, sample.words);
}

/// Decodes a T from `payload` the way every pipeline does.
template <class T>
Result<T> decode_as(const std::vector<std::uint8_t>& payload) {
  return decode_snapshot<T>(payload, [](SnapshotReader& reader) {
    T value{};
    reader(value);
    return value;
  });
}

TEST(Snapshot, Crc32MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
}

TEST(Snapshot, WriterReaderRoundTripsEveryFieldType) {
  const SnapshotWriter writer = sample_payload();
  SnapshotReader reader(writer.payload());
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  bool flag = false;
  float f32 = 0.0f;
  double negative_zero = 1.0;
  std::string text;
  std::vector<std::uint8_t> bytes;
  std::vector<float> floats;
  std::vector<double> doubles;
  std::vector<std::uint64_t> words;
  reader(u8, u32, u64, i64, flag, f32, negative_zero, text, bytes, floats, doubles, words);
  EXPECT_EQ(u8, 7u);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, std::uint64_t{1} << 60);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(flag);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));  // bit-exact, not value-equal
  EXPECT_EQ(text, "TradeFL");
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0x00, 0xFF, 0x10}));
  ASSERT_EQ(floats.size(), 2u);
  EXPECT_EQ(floats[0], 0.25f);
  EXPECT_TRUE(std::isnan(floats[1]));  // NaN payloads survive
  EXPECT_EQ(doubles, (std::vector<double>{1e-300, 2.5}));
  EXPECT_EQ(words, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_NO_THROW(reader.require_exhausted());
}

TEST(Snapshot, PrimitivesKeepTheirCanonicalWidths) {
  // int travels as i64, bool as one byte, unsigned at its own width, and a
  // string or byte blob behind a u64 length: the layout every file pins.
  SnapshotWriter writer;
  writer(int{-1}, true, std::uint32_t{2}, std::string("ab"));
  EXPECT_EQ(writer.payload(),
            (std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
                                       0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00,
                                       0x00, 0x00, 0x00, 'a', 'b'}));
}

TEST(Snapshot, FieldListRoundTripsContainersAndWrappers) {
  Sample sample;
  sample.level = -3;
  sample.color = Color::kBlue;
  sample.tag = {1, 2, 3, 4};
  sample.note = "kept";
  sample.counts = {{"a", 1}, {"b", 2}};
  sample.visited = {{0, 1}, {2, 0}};
  sample.pairs = {{"gap", 0.5}};
  sample.words = {5, 6};
  SnapshotWriter writer;
  writer(sample);
  const Result<Sample> decoded = decode_as<Sample>(writer.payload());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const Sample& back = decoded.value();
  EXPECT_EQ(back.level, -3);
  EXPECT_EQ(back.color, Color::kBlue);
  EXPECT_EQ(back.tag, sample.tag);
  EXPECT_EQ(back.note, sample.note);
  EXPECT_EQ(back.counts, sample.counts);
  EXPECT_EQ(back.visited, sample.visited);
  EXPECT_EQ(back.pairs, sample.pairs);
  EXPECT_EQ(back.words, sample.words);

  // An absent optional is one false byte, and decodes absent.
  sample.note.reset();
  SnapshotWriter without;
  without(sample);
  EXPECT_EQ(without.payload().size(), writer.payload().size() - 8 - 4);
  ASSERT_TRUE(decode_as<Sample>(without.payload()).ok());
  EXPECT_FALSE(decode_as<Sample>(without.payload()).value().note.has_value());
}

TEST(Snapshot, ReaderOverrunThrowsInsteadOfFabricating) {
  SnapshotWriter writer;
  writer(std::uint32_t{5});
  SnapshotReader reader(writer.payload());
  std::uint32_t five = 0;
  reader(five);
  EXPECT_EQ(five, 5u);
  std::uint64_t missing = 0;
  EXPECT_THROW(reader(missing), SnapshotError);
}

TEST(Snapshot, HostileCountsFailBeforeAllocating) {
  // A count larger than the bytes left cannot be honest (every element takes
  // at least one byte), so it fails closed instead of reserving.
  for (const std::uint64_t count : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    SnapshotWriter writer;
    writer(count, std::uint64_t{0});
    const auto doubles = decode_as<std::vector<double>>(writer.payload());
    ASSERT_FALSE(doubles.ok());
    EXPECT_EQ(doubles.error().code, "snapshot.decode");
    const auto samples = decode_as<std::vector<Sample>>(writer.payload());
    ASSERT_FALSE(samples.ok());
    EXPECT_EQ(samples.error().code, "snapshot.decode");
    const auto counts = decode_as<std::map<std::string, std::uint64_t>>(writer.payload());
    ASSERT_FALSE(counts.ok());
    EXPECT_EQ(counts.error().code, "snapshot.decode");
  }
}

TEST(Snapshot, OutOfRangeScalarsFailClosed) {
  SnapshotWriter bad_bool;
  bad_bool(std::uint8_t{2});
  EXPECT_FALSE(decode_as<bool>(bad_bool.payload()).ok());

  SnapshotWriter wide_int;
  wide_int(std::int64_t{1} << 40);
  EXPECT_FALSE(decode_as<int>(wide_int.payload()).ok());
  EXPECT_TRUE(decode_as<std::int64_t>(wide_int.payload()).ok());

  Sample sample;
  SnapshotWriter writer;
  writer(sample);
  std::vector<std::uint8_t> payload = writer.payload();
  payload[8] = 3;  // the color byte after the i64 level: above kBlue
  const auto decoded = decode_as<Sample>(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "snapshot.decode");
}

TEST(Snapshot, FixedBytesDemandExactLength) {
  SnapshotWriter writer;
  writer(std::int64_t{0}, std::uint8_t{0}, std::vector<std::uint8_t>{1, 2, 3});
  const auto decoded = decode_as<Sample>(writer.payload());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("4 bytes"), std::string::npos)
      << decoded.error().message;
}

TEST(Snapshot, FileRoundTripPreservesPayload) {
  const std::string path = temp_path("roundtrip.snap");
  const SnapshotWriter writer = sample_payload();
  const auto written = write_snapshot_file(path, "test.kind", 3, writer);
  ASSERT_TRUE(written.ok()) << written.error().to_string();
  EXPECT_EQ(written.value(), slurp(path).size());
  EXPECT_TRUE(snapshot_exists(path));

  const auto payload = read_snapshot_file(path, "test.kind", 3);
  ASSERT_TRUE(payload.ok()) << payload.error().to_string();
  EXPECT_EQ(payload.value(), writer.payload());
}

TEST(Snapshot, OlderVersionStillReadable) {
  const std::string path = temp_path("old_version.snap");
  ASSERT_TRUE(write_snapshot_file(path, "test.kind", 2, sample_payload()).ok());
  EXPECT_TRUE(read_snapshot_file(path, "test.kind", 5).ok());
}

TEST(Snapshot, MissingFileIsTypedIoError) {
  const auto payload = read_snapshot_file(temp_path("never_written.snap"), "test.kind", 1);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.error().code, "io");
  EXPECT_FALSE(snapshot_exists(temp_path("never_written.snap")));
}

TEST(Snapshot, WriteToUnwritablePathFailsClosed) {
  const auto written =
      write_snapshot_file("/nonexistent-dir/x.snap", "test.kind", 1, sample_payload());
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.error().code, "io");
}

// ----- satellite: corruption suite. Each mode must fail closed with a
// descriptive typed error, and a prior good checkpoint must stay intact. ---

/// Writes a good snapshot, applies `corrupt` to its bytes, and returns the
/// read error. Also asserts a sibling "previous" checkpoint still reads back.
template <typename Corrupt>
Error corrupt_and_read(const std::string& name, Corrupt&& corrupt) {
  const std::string previous = temp_path(name + ".previous.snap");
  const std::string path = temp_path(name + ".snap");
  EXPECT_TRUE(write_snapshot_file(previous, "test.kind", 1, sample_payload()).ok());
  EXPECT_TRUE(write_snapshot_file(path, "test.kind", 1, sample_payload()).ok());

  std::vector<std::uint8_t> bytes = slurp(path);
  corrupt(bytes);
  dump(path, bytes);

  const auto damaged = read_snapshot_file(path, "test.kind", 1);
  EXPECT_FALSE(damaged.ok());

  // The corruption of one file can never bleed into the previous checkpoint.
  const auto intact = read_snapshot_file(previous, "test.kind", 1);
  EXPECT_TRUE(intact.ok());
  if (intact.ok()) EXPECT_EQ(intact.value(), sample_payload().payload());
  return damaged.ok() ? Error{"", ""} : damaged.error();
}

TEST(SnapshotCorruption, TruncatedBelowMinimumFrameFailsClosed) {
  const Error error = corrupt_and_read("truncated", [](std::vector<std::uint8_t>& bytes) {
    bytes.resize(10);  // smaller than any legal header + trailer
  });
  EXPECT_EQ(error.code, "snapshot.truncated");
  EXPECT_FALSE(error.message.empty());
}

TEST(SnapshotCorruption, TruncatedMidPayloadFailsClosed) {
  // A torn write that keeps a plausible header still dies at the CRC gate:
  // the checksum covers the whole frame, so missing tail bytes cannot pass.
  const Error error = corrupt_and_read("torn", [](std::vector<std::uint8_t>& bytes) {
    bytes.resize(bytes.size() / 2);
  });
  EXPECT_EQ(error.code, "snapshot.crc");
}

TEST(SnapshotCorruption, SingleFlippedByteTripsCrc) {
  const Error error = corrupt_and_read("bitflip", [](std::vector<std::uint8_t>& bytes) {
    bytes[bytes.size() / 2] ^= 0x01;  // one bit, mid-payload
  });
  EXPECT_EQ(error.code, "snapshot.crc");
}

TEST(SnapshotCorruption, WrongMagicFailsClosed) {
  const Error error = corrupt_and_read("magic", [](std::vector<std::uint8_t>& bytes) {
    bytes[0] = 'X';
  });
  EXPECT_EQ(error.code, "snapshot.magic");
}

TEST(SnapshotCorruption, FutureSchemaVersionRejected) {
  const std::string path = temp_path("future.snap");
  ASSERT_TRUE(write_snapshot_file(path, "test.kind", 9, sample_payload()).ok());
  const auto payload = read_snapshot_file(path, "test.kind", 1);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.error().code, "snapshot.version");
  EXPECT_NE(payload.error().message.find("9"), std::string::npos)
      << "error should name the offending version: " << payload.error().message;
}

TEST(SnapshotCorruption, KindMismatchRejected) {
  const std::string path = temp_path("kind.snap");
  ASSERT_TRUE(write_snapshot_file(path, "fl.fedavg", 1, sample_payload()).ok());
  const auto payload = read_snapshot_file(path, "core.gbd", 1);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.error().code, "snapshot.kind");
}

TEST(SnapshotCorruption, EmptyFileFailsClosed) {
  const std::string path = temp_path("empty.snap");
  dump(path, {});
  const auto payload = read_snapshot_file(path, "test.kind", 1);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.error().code, "snapshot.truncated");
}

TEST(Snapshot, RewriteIsAtomicReplacingOldContent) {
  const std::string path = temp_path("rewrite.snap");
  SnapshotWriter first;
  first(std::uint64_t{1});
  SnapshotWriter second;
  second(std::uint64_t{2});
  ASSERT_TRUE(write_snapshot_file(path, "test.kind", 1, first).ok());
  ASSERT_TRUE(write_snapshot_file(path, "test.kind", 1, second).ok());
  const auto payload = read_snapshot_file(path, "test.kind", 1);
  ASSERT_TRUE(payload.ok());
  SnapshotReader reader(payload.value());
  std::uint64_t value = 0;
  reader(value);
  EXPECT_EQ(value, 2u);
  // No stray temp file left behind.
  EXPECT_FALSE(snapshot_exists(path + ".tmp"));
}

TEST(Snapshot, DecodeSnapshotConvertsThrowToTypedError) {
  SnapshotWriter writer;
  writer(std::uint32_t{1});
  // Decoder demands more than the payload holds -> snapshot.decode, no throw.
  const Result<int> decoded =
      decode_snapshot<int>(writer.payload(), [](SnapshotReader& reader) {
        std::uint64_t wide = 0;
        reader(wide);
        return 1;
      });
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "snapshot.decode");
}

TEST(Snapshot, DecodeSnapshotRejectsTrailingBytes) {
  SnapshotWriter writer;
  writer(std::uint32_t{1}, std::uint32_t{2});
  const Result<int> decoded =
      decode_snapshot<int>(writer.payload(), [](SnapshotReader& reader) {
        std::uint32_t first = 0;
        reader(first);
        return 1;  // leaves 4 bytes unread
      });
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "snapshot.decode");
}

}  // namespace
}  // namespace tradefl
