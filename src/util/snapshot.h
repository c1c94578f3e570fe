// Versioned binary snapshot framing — the wire format under every
// checkpoint the simulator writes (sim/checkpoint.h orchestrates *what*
// goes into a snapshot; this header owns *how* bytes get on disk).
//
// A framed snapshot is
//
//   [magic u32][version u32][payload_len u64][payload ...][crc32 u32]
//
// little-endian, with the CRC32 (polynomial 0xEDB88320, the zlib one)
// taken over the payload bytes alone. Inside the payload every value is
// tagged with a one-byte type code and written in a fixed-width
// little-endian encoding — doubles as their raw IEEE-754 bit pattern, so
// a round trip is bit-exact (NaN payloads and signed zeros included) and
// a resumed run can continue a floating-point accumulation stream
// without drift. The tags turn a reader/writer mismatch (schema drift,
// corruption the CRC happened to miss, a truncated nested blob) into a
// structured SnapshotParseError carrying the byte offset of the fault
// instead of silently misinterpreted state.
//
// Compatibility policy (DESIGN.md §14): the version constant of each
// snapshot kind bumps on ANY layout change and readers reject every
// version but their own — checkpoints are crash-recovery state, not an
// archival format, and a stale-format checkpoint is equivalent to no
// checkpoint (the run simply starts fresh).
//
// atomic_write_file provides the durable-write protocol: tmp file in the
// same directory, write, fsync, rename over the target, fsync the
// directory — a crash mid-write leaves either the old generation or the
// new one, never a torn file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mecar::util {

/// Structured snapshot decode failure carrying the byte offset (within
/// the framed buffer) at which the fault was detected.
class SnapshotParseError : public std::runtime_error {
 public:
  SnapshotParseError(std::size_t offset, const std::string& what)
      : std::runtime_error(what), offset_(offset) {}
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// CRC32 (reflected, polynomial 0xEDB88320) of a byte buffer.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept;

/// Serializer for the tagged payload encoding. Write values, then either
/// finish() into a framed buffer or take payload() to nest the bytes
/// inside an enclosing snapshot (engine snapshots embed the policy's
/// opaque state blob this way).
class SnapshotWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  /// Bit-exact: the raw IEEE-754 pattern, not a decimal round trip.
  void f64(double v);
  void boolean(bool v);
  void str(const std::string& v);
  void bytes(const std::vector<std::uint8_t>& v);

  /// Writes a u64 element count followed by f(element) per element.
  template <typename T, typename F>
  void vec(const std::vector<T>& v, F&& f) {
    u64(static_cast<std::uint64_t>(v.size()));
    for (const T& item : v) f(item);
  }

  /// The unframed payload written so far.
  const std::vector<std::uint8_t>& payload() const noexcept { return buf_; }

  /// Frames the payload: magic, version, length, payload, CRC32.
  std::vector<std::uint8_t> finish(std::uint32_t magic,
                                   std::uint32_t version) const;

 private:
  void raw(const void* data, std::size_t size);

  std::vector<std::uint8_t> buf_;
};

/// Deserializer. The framed constructor validates magic, version, length
/// and CRC up front; unframed() wraps a nested payload blob. Every read
/// checks its type tag and bounds, throwing SnapshotParseError with the
/// offending byte offset.
class SnapshotReader {
 public:
  /// Parses a framed buffer; throws SnapshotParseError on a bad magic
  /// (offset 0), unsupported version (offset 4), inconsistent length
  /// (offset 8) or CRC mismatch (offset of the stored CRC).
  SnapshotReader(const std::vector<std::uint8_t>& framed, std::uint32_t magic,
                 std::uint32_t version);
  /// The reader keeps a view of its buffer, so a temporary would dangle
  /// once the full-expression ends: hold the bytes in a named variable.
  SnapshotReader(std::vector<std::uint8_t>&& framed, std::uint32_t magic,
                 std::uint32_t version) = delete;

  /// Wraps an unframed payload (a nested blob); no magic/CRC check.
  static SnapshotReader unframed(const std::vector<std::uint8_t>& payload);
  static SnapshotReader unframed(std::vector<std::uint8_t>&& payload) = delete;

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  std::vector<std::uint8_t> bytes();

  /// Reads a u64 element count then f() per element into a vector.
  template <typename T, typename F>
  std::vector<T> vec(F&& f) {
    const std::uint64_t n = u64();
    check_count(n);
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(f());
    return out;
  }

  /// True when every payload byte has been consumed.
  bool at_end() const noexcept { return pos_ == end_; }
  /// Current absolute offset within the framed buffer.
  std::size_t offset() const noexcept { return pos_; }

  /// Throws unless the payload was fully consumed (trailing garbage is a
  /// schema mismatch, not padding).
  void expect_end() const;

 private:
  SnapshotReader(const std::uint8_t* data, std::size_t begin, std::size_t end);

  void expect_tag(std::uint8_t tag, const char* what);
  const std::uint8_t* take(std::size_t size, const char* what);
  void check_count(std::uint64_t n) const;

  const std::uint8_t* data_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

/// Durably replaces `path` with `data`: tmp file in the same directory,
/// write + fsync, rename over `path`, fsync the directory. Throws
/// std::runtime_error (with errno text) on any failure.
void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& data);

/// Reads a whole file as bytes; throws std::runtime_error when the file
/// cannot be opened or read.
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

}  // namespace mecar::util
