// Bounds-checked binary encoding for the persistence layer. ByteWriter
// appends fixed-width little-endian fields to a growable buffer;
// ByteReader is its hostile-input counterpart: every read is
// bounds-checked, length prefixes are validated against explicit caps
// before a single byte is allocated, and the first malformed field
// poisons the reader (every later read fails) so decoders can check once
// at the end instead of after every field. StreamReader hands a stream to
// them one piece at a time, so no file is ever held whole.
#ifndef ROBODET_SRC_UTIL_BINIO_H_
#define ROBODET_SRC_UTIL_BINIO_H_

#include <bit>
#include <cstdint>
#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace robodet {

class ByteWriter {
 public:
  ByteWriter() = default;
  // Writes into `buffer`'s storage, emptied first: a caller that reserves
  // it, or hands over one it is done with, spares the writer regrowing.
  explicit ByteWriter(std::string buffer) : out_(std::move(buffer)) { out_.clear(); }

  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutLe(v); }
  void PutU64(uint64_t v) { PutLe(v); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  // A u32 count and then that many fixed-width fields, each
  // little-endian: one append on a little-endian host instead of a call
  // per element. ByteReader's Read*Run reads it back.
  void PutI32Run(std::span<const int32_t> v) { PutLeRun(v); }
  void PutU64Run(std::span<const uint64_t> v) { PutLeRun(v); }
  // u32 length prefix + raw bytes.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  void PutRaw(std::string_view s) { out_.append(s); }
  // Appends `n` bytes for the caller to fill through the returned pointer,
  // which stays valid until the next write.
  char* Extend(size_t n) {
    const size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }
  // Overwrites the u32 written at byte offset `at` (a length prefix whose
  // value is known only after its payload).
  void PatchU32(size_t at, uint32_t v);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }
  // Empties the buffer and keeps its storage for the next bytes.
  void Clear() { out_.clear(); }
  size_t size() const { return out_.size(); }

 private:
  template <typename T>
  void PutLe(T v) {
    char buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
    }
    out_.append(buf, sizeof(T));
  }
  template <typename T>
  void PutLeRun(std::span<const T> v) {
    PutU32(static_cast<uint32_t>(v.size()));
    if constexpr (std::endian::native == std::endian::little) {
      out_.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
    } else {
      for (T x : v) {
        PutLe(static_cast<std::make_unsigned_t<T>>(x));
      }
    }
  }

  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v) { return ReadLe(v); }
  bool ReadU32(uint32_t* v) { return ReadLe(v); }
  bool ReadU64(uint64_t* v) { return ReadLe(v); }
  bool ReadI64(int64_t* v) { return ReadLe(v); }
  bool ReadI32(int32_t* v) { return ReadLe(v); }
  // Reads a u32 count and then that many fixed-width fields into `v`;
  // fails (without allocating) when the count exceeds `max_items` or the
  // remaining input.
  bool ReadI32Run(size_t max_items, std::vector<int32_t>* v);
  bool ReadU64Run(size_t max_items, std::vector<uint64_t>* v);
  // Reads a u32-length-prefixed string; fails (without allocating) when the
  // prefix exceeds `max_len` or the remaining input.
  bool ReadString(std::string* v, size_t max_len);
  // Borrows `n` raw bytes from the input without copying.
  bool ReadRaw(size_t n, std::string_view* v);

  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Take(size_t n, const char** p) {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    *p = data_.data() + pos_;
    pos_ += n;
    return true;
  }
  // Little-endian, whatever the host's byte order.
  template <typename T>
  static T LoadLe(const char* p) {
    std::make_unsigned_t<T> out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      out |= static_cast<std::make_unsigned_t<T>>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    return static_cast<T>(out);
  }
  template <typename T>
  bool ReadLe(T* v) {
    const char* p = nullptr;
    if (!Take(sizeof(T), &p)) {
      return false;
    }
    *v = LoadLe<T>(p);
    return true;
  }
  template <typename T>
  bool ReadRun(size_t max_items, std::vector<T>* v);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Reads a stream front to back in pieces the caller sizes, through one
// buffer that it reuses and grows to the largest piece. A piece longer
// than what the stream has left fails before a byte is allocated for it,
// so a forged length costs nothing.
class StreamReader {
 public:
  StreamReader() = default;
  // Reads `in` from its position on; `in` must outlive the reader.
  explicit StreamReader(std::istream* in);

  // The next `n` bytes, valid until the next read. False when fewer are
  // left or the stream fails; every later read fails too.
  bool Read(size_t n, std::string_view* out);

  size_t remaining() const { return remaining_; }

 private:
  std::istream* in_ = nullptr;
  size_t remaining_ = 0;
  std::string buffer_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_UTIL_BINIO_H_
