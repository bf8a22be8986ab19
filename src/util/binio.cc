#include "src/util/binio.h"

#include <cstring>

namespace robodet {

void ByteWriter::PatchU32(size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    out_[at + i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  }
}

template <typename T>
bool ByteReader::ReadRun(size_t max_items, std::vector<T>* v) {
  uint32_t n = 0;
  if (!ReadU32(&n) || n > max_items || static_cast<size_t>(n) * sizeof(T) > remaining()) {
    ok_ = false;
    return false;
  }
  const char* p = nullptr;
  Take(n * sizeof(T), &p);
  v->resize(n);
  if (n == 0) {
    return true;
  }
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(v->data(), p, n * sizeof(T));
  } else {
    for (size_t i = 0; i < n; ++i) {
      (*v)[i] = LoadLe<T>(p + i * sizeof(T));
    }
  }
  return true;
}

bool ByteReader::ReadI32Run(size_t max_items, std::vector<int32_t>* v) {
  return ReadRun(max_items, v);
}

bool ByteReader::ReadU64Run(size_t max_items, std::vector<uint64_t>* v) {
  return ReadRun(max_items, v);
}

bool ByteReader::ReadString(std::string* v, size_t max_len) {
  uint32_t len = 0;
  if (!ReadU32(&len)) {
    return false;
  }
  if (len > max_len) {
    ok_ = false;
    return false;
  }
  const char* p = nullptr;
  if (!Take(len, &p)) {
    return false;
  }
  v->assign(p, len);
  return true;
}

bool ByteReader::ReadRaw(size_t n, std::string_view* v) {
  const char* p = nullptr;
  if (!Take(n, &p)) {
    return false;
  }
  *v = std::string_view(p, n);
  return true;
}

StreamReader::StreamReader(std::istream* in) : in_(in) {
  const std::istream::pos_type at = in->tellg();
  in->seekg(0, std::ios::end);
  const std::istream::pos_type end = in->tellg();
  in->seekg(at);
  if (at >= 0 && end >= at && *in) {
    remaining_ = static_cast<size_t>(end - at);
  }
}

bool StreamReader::Read(size_t n, std::string_view* out) {
  if (n > remaining_) {
    remaining_ = 0;
    return false;
  }
  if (n == 0) {
    *out = {};
    return true;
  }
  if (buffer_.size() < n) {
    buffer_.resize(n);
  }
  in_->read(buffer_.data(), static_cast<std::streamsize>(n));
  if (static_cast<size_t>(in_->gcount()) != n) {
    remaining_ = 0;
    return false;
  }
  remaining_ -= n;
  *out = std::string_view(buffer_.data(), n);
  return true;
}

}  // namespace robodet
