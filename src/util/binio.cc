#include "src/util/binio.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

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
