// Little-endian fixed-width codec: the one byte format behind the shard
// worker protocol (rpc/wire.h) and the metrics snapshots workers ship back
// (obs/metrics.h). Integers are little-endian fixed width; doubles travel
// as their IEEE-754 bit pattern (bit-exact round-trip — the remote parity
// guarantee depends on it); strings are a u32 length plus the bytes.
#ifndef KSPDG_CORE_WIRE_CODEC_H_
#define KSPDG_CORE_WIRE_CODEC_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "core/status.h"

namespace kspdg {

/// Appends little-endian primitives to a payload string.
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  /// IEEE-754 bit pattern, so weights round-trip bit-exactly.
  void F64(double v);
  /// Length-prefixed byte string.
  void Str(std::string_view s);

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over a payload; every read fails with
/// kInvalidArgument instead of running off the end.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status F64(double* v);
  /// Fails, too, when the length prefix exceeds `max_len`.
  Status Str(std::string* s,
             uint32_t max_len = std::numeric_limits<uint32_t>::max());

  /// All bytes consumed? Trailing garbage is a protocol error.
  Status ExpectEnd() const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace kspdg

#endif  // KSPDG_CORE_WIRE_CODEC_H_
