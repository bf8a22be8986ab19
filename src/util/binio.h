// Bounds-checked binary encoding and small file helpers for the
// persistence layer. ByteWriter appends fixed-width little-endian fields
// to a growable buffer; ByteReader is its hostile-input counterpart: every
// read is bounds-checked, length prefixes are validated against explicit
// caps before a single byte is allocated, and the first malformed field
// poisons the reader (ok() goes false, every later read fails) so decoders
// can check once at the end instead of after every field.
#ifndef ROBODET_SRC_UTIL_BINIO_H_
#define ROBODET_SRC_UTIL_BINIO_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace robodet {

class ByteWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
    }
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
    }
  }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  // u32 length prefix + raw bytes.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  void PutRaw(std::string_view s) { out_.append(s); }

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadI64(int64_t* v);
  bool ReadI32(int32_t* v);
  // Reads a u32-length-prefixed string; fails (without allocating) when the
  // prefix exceeds `max_len` or the remaining input.
  bool ReadString(std::string* v, size_t max_len);
  // Borrows `n` raw bytes from the input without copying.
  bool ReadRaw(size_t n, std::string_view* v);

  size_t remaining() const { return data_.size() - pos_; }
  size_t pos() const { return pos_; }
  // True until any read has failed; a failed reader fails all later reads.
  bool ok() const { return ok_; }

 private:
  bool Take(size_t n, const char** p);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Reads at most `max_bytes` of `path` into `out`. False when the file is
// missing, unreadable, or larger than the cap (oversized state files are
// treated as hostile, not truncated silently).
bool ReadFileLimited(const std::string& path, size_t max_bytes, std::string* out);

// Writes `data` to `path` via a sibling temp file + rename, so readers see
// either the old file or the new one, never a torn middle.
bool WriteFileAtomic(const std::string& path, std::string_view data);

}  // namespace robodet

#endif  // ROBODET_SRC_UTIL_BINIO_H_
