#ifndef LSMSSD_FORMAT_VLOG_POINTER_H_
#define LSMSSD_FORMAT_VLOG_POINTER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/format/options.h"

namespace lsmssd {

/// The fixed-width record payload stored in the tree when key–value
/// separation is on: it names where the real value lives in the value
/// log. 16 bytes, little-endian:
///
///   [u32 file][u64 offset][u32 length]
///
/// `file` is the vlog segment number (dir/vlog-<file>), `offset` the
/// byte offset of the entry *header* within that segment, and `length`
/// the value length (redundant with the entry header, but it lets
/// readers size their read without a second seek and lets recovery
/// bound the durable vlog frontier from WAL records alone).
struct VlogPointer {
  uint32_t file = 0;
  uint64_t offset = 0;
  uint32_t length = 0;

  bool operator==(const VlogPointer& o) const {
    return file == o.file && offset == o.offset && length == o.length;
  }
};

/// Writes the 16-byte encoding of `ptr` to `out[0, kVlogPointerSize)`.
void EncodeVlogPointer(const VlogPointer& ptr, char* out);

/// Returns the 16-byte encoding of `ptr`.
std::string EncodeVlogPointerToString(const VlogPointer& ptr);

/// Decodes a pointer from exactly kVlogPointerSize bytes. Returns false
/// when `data` has the wrong size.
bool DecodeVlogPointer(std::string_view data, VlogPointer* ptr);

}  // namespace lsmssd

#endif  // LSMSSD_FORMAT_VLOG_POINTER_H_
