#include "core/wire_codec.h"

#include <cstring>

namespace kspdg {

void WireWriter::U32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out_.append(bytes, 4);
}

void WireWriter::U64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out_.append(bytes, 8);
}

void WireWriter::F64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

Status WireReader::U8(uint8_t* v) {
  if (pos_ + 1 > data_.size()) {
    return Status::InvalidArgument("truncated payload (u8)");
  }
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status WireReader::U32(uint32_t* v) {
  if (pos_ + 4 > data_.size()) {
    return Status::InvalidArgument("truncated payload (u32)");
  }
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status WireReader::U64(uint64_t* v) {
  if (pos_ + 8 > data_.size()) {
    return Status::InvalidArgument("truncated payload (u64)");
  }
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status WireReader::F64(double* v) {
  uint64_t bits = 0;
  KSPDG_RETURN_NOT_OK(U64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status WireReader::Str(std::string* s, uint32_t max_len) {
  uint32_t len = 0;
  KSPDG_RETURN_NOT_OK(U32(&len));
  if (len > max_len) {
    return Status::InvalidArgument("string length over its cap");
  }
  if (pos_ + len > data_.size()) {
    return Status::InvalidArgument("truncated payload (string body)");
  }
  s->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status WireReader::ExpectEnd() const {
  if (pos_ != data_.size()) {
    return Status::InvalidArgument("payload has trailing bytes");
  }
  return Status::OK();
}

}  // namespace kspdg
