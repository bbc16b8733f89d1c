#include "common/codec.h"

#include <cstring>

namespace ptldb::codec {

namespace {

// Table for CRC-32C, generated once from the Castagnoli polynomial. The
// reflected form (0x82F63B78) matches the hardware SSE4.2 instruction and the
// LevelDB/RocksDB log-record checksum.
const uint32_t* Crc32cTable() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n) {
  const uint32_t* table = Crc32cTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void Writer::U32(uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  buf[2] = static_cast<char>((v >> 16) & 0xFF);
  buf[3] = static_cast<char>((v >> 24) & 0xFF);
  out_->append(buf, 4);
}

void Writer::U64(uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out_->append(buf, 8);
}

void Writer::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void Writer::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_->append(s.data(), s.size());
}

void Writer::Val(const Value& v) {
  U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      Bool(v.AsBool());
      break;
    case ValueType::kInt64:
      I64(v.AsInt());
      break;
    case ValueType::kDouble:
      F64(v.AsDoubleExact());
      break;
    case ValueType::kString:
      Str(v.AsString());
      break;
  }
}

void Writer::ValVec(const std::vector<Value>& vs) {
  U32(static_cast<uint32_t>(vs.size()));
  for (const Value& v : vs) Val(v);
}

Status Reader::Short(const char* what) const {
  return Status::InvalidArgument(std::string("codec: truncated read of ") +
                                 what);
}

Result<uint8_t> Reader::U8() {
  if (remaining() < 1) return Short("u8");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> Reader::U32() {
  if (remaining() < 4) return Short("u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::U64() {
  if (remaining() < 8) return Short("u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> Reader::I64() {
  PTLDB_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> Reader::F64() {
  PTLDB_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<bool> Reader::Bool() {
  PTLDB_ASSIGN_OR_RETURN(uint8_t v, U8());
  if (v > 1) return Status::InvalidArgument("codec: bad bool byte");
  return v == 1;
}

Result<std::string> Reader::Str() {
  PTLDB_ASSIGN_OR_RETURN(uint32_t len, U32());
  if (remaining() < len) return Short("string body");
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

Result<Value> Reader::Val() {
  PTLDB_ASSIGN_OR_RETURN(uint8_t tag, U8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      PTLDB_ASSIGN_OR_RETURN(bool b, Bool());
      return Value::Bool(b);
    }
    case ValueType::kInt64: {
      PTLDB_ASSIGN_OR_RETURN(int64_t i, I64());
      return Value::Int(i);
    }
    case ValueType::kDouble: {
      PTLDB_ASSIGN_OR_RETURN(double d, F64());
      return Value::Real(d);
    }
    case ValueType::kString: {
      PTLDB_ASSIGN_OR_RETURN(std::string s, Str());
      return Value::Str(std::move(s));
    }
  }
  return Status::InvalidArgument("codec: bad value tag");
}

Result<std::vector<Value>> Reader::ValVec() {
  PTLDB_ASSIGN_OR_RETURN(uint32_t n, U32());
  // Arity guard: each value costs at least one tag byte, so a count larger
  // than the remaining bytes is corruption, not a huge tuple.
  if (n > remaining()) return Short("value vector");
  std::vector<Value> vs;
  vs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PTLDB_ASSIGN_OR_RETURN(Value v, Val());
    vs.push_back(std::move(v));
  }
  return vs;
}

Status Reader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::InvalidArgument("codec: trailing bytes after payload");
  }
  return Status::OK();
}

}  // namespace ptldb::codec
