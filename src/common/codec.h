// Binary serialization primitives for the durability subsystem.
//
// Fixed-width little-endian encoding with length-prefixed strings, written
// into / read out of contiguous byte buffers. Lives in `common` (below every
// other layer) so db/eval/rules can expose Serialize/Deserialize
// hooks without depending on `storage`. The framing above these primitives
// (record length prefixes, CRCs, file headers) belongs to src/storage.
//
// Readers are defensive: every read validates remaining length and value
// tags, returning InvalidArgument instead of crashing, because checkpoint
// and WAL bytes may be torn or corrupt on disk.

#ifndef PTLDB_COMMON_CODEC_H_
#define PTLDB_COMMON_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace ptldb::codec {

/// CRC-32C (Castagnoli polynomial 0x82F63B78), software table-driven — the
/// checksum LevelDB/RocksDB use for log records.
uint32_t Crc32c(const void* data, size_t n);

/// Appends primitive encodings to a caller-owned byte buffer.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// u32 byte length + raw bytes (may contain NULs).
  void Str(std::string_view s);
  /// u8 ValueType tag + payload (nothing for null).
  void Val(const Value& v);
  /// u32 arity + values (db::Tuple, event params, ...).
  void ValVec(const std::vector<Value>& vs);

 private:
  std::string* out_;
};

/// Cursor over an immutable byte buffer; every read is bounds-checked.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<double> F64();
  Result<bool> Bool();
  Result<std::string> Str();
  Result<Value> Val();
  Result<std::vector<Value>> ValVec();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// InvalidArgument when trailing bytes remain (blob/version mismatch).
  Status ExpectEnd() const;

 private:
  Status Short(const char* what) const;

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace ptldb::codec

#endif  // PTLDB_COMMON_CODEC_H_
