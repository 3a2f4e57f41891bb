#include "src/format/vlog_pointer.h"

namespace lsmssd {
namespace {

uint32_t GetU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

void EncodeVlogPointer(const VlogPointer& ptr, char* out) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(ptr.file >> (8 * i));
  for (int i = 0; i < 8; ++i) {
    out[4 + i] = static_cast<char>(ptr.offset >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    out[12 + i] = static_cast<char>(ptr.length >> (8 * i));
  }
}

std::string EncodeVlogPointerToString(const VlogPointer& ptr) {
  char buf[kVlogPointerSize];
  EncodeVlogPointer(ptr, buf);
  return std::string(buf, kVlogPointerSize);
}

bool DecodeVlogPointer(std::string_view data, VlogPointer* ptr) {
  if (data.size() != kVlogPointerSize) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  ptr->file = GetU32(p);
  ptr->offset = GetU64(p + 4);
  ptr->length = GetU32(p + 12);
  return true;
}

}  // namespace lsmssd
