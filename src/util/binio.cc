#include "src/util/binio.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace robodet {

bool ByteReader::Take(size_t n, const char** p) {
  if (!ok_ || n > data_.size() - pos_) {
    ok_ = false;
    return false;
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool ByteReader::ReadU8(uint8_t* v) {
  const char* p = nullptr;
  if (!Take(1, &p)) {
    return false;
  }
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool ByteReader::ReadU32(uint32_t* v) {
  const char* p = nullptr;
  if (!Take(4, &p)) {
    return false;
  }
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = out;
  return true;
}

bool ByteReader::ReadU64(uint64_t* v) {
  const char* p = nullptr;
  if (!Take(8, &p)) {
    return false;
  }
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = out;
  return true;
}

bool ByteReader::ReadI64(int64_t* v) {
  uint64_t raw = 0;
  if (!ReadU64(&raw)) {
    return false;
  }
  *v = static_cast<int64_t>(raw);
  return true;
}

bool ByteReader::ReadI32(int32_t* v) {
  uint32_t raw = 0;
  if (!ReadU32(&raw)) {
    return false;
  }
  *v = static_cast<int32_t>(raw);
  return true;
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

bool ReadFileLimited(const std::string& path, size_t max_bytes, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0 || static_cast<uint64_t>(size) > max_bytes) {
    return false;
  }
  in.seekg(0, std::ios::beg);
  out->resize(static_cast<size_t>(size));
  in.read(out->data(), size);
  return static_cast<bool>(in) || size == 0;
}

bool WriteFileAtomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return false;
    }
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) {
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace robodet
