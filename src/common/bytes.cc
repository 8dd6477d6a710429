#include "common/bytes.h"

#include <cstdio>

#include "common/logging.h"

namespace deca {

void ByteWriter::WriteVarU64(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::WriteVarI64(int64_t v) {
  WriteVarU64((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
}

void ByteWriter::WriteBytes(const uint8_t* data, size_t n) {
  // An empty write may pass a null source (empty vector's data()).
  if (n == 0) return;
  buf_.insert(buf_.end(), data, data + n);
}

void ByteWriter::WriteString(const std::string& s) {
  WriteVarU64(s.size());
  WriteBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

uint64_t ByteReader::ReadVarU64() {
  uint64_t result = 0;
  int shift = 0;
  while (true) {
    DECA_DCHECK(pos_ < size_);
    uint8_t b = data_[pos_++];
    result |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    // A u64 fits in 10 bytes; an 11th would shift past bit 63.
    DECA_CHECK(shift <= 63) << "varint longer than 10 bytes";
  }
  return result;
}

int64_t ByteReader::ReadVarI64() {
  uint64_t u = ReadVarU64();
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

void ByteReader::ReadBytes(uint8_t* out, size_t n) {
  DECA_DCHECK(pos_ + n <= size_);
  // An empty read may pass a null destination (empty vector's data()).
  if (n == 0) return;
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
}

std::string ByteReader::ReadString() {
  size_t n = ReadVarU64();
  DECA_DCHECK(pos_ + n <= size_);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[32];
  if (u == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f%s", v, units[u]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f%s", v, units[u]);
  }
  return buf;
}

}  // namespace deca
