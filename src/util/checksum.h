// CRC32C (Castagnoli) checksums for the persistence layer. Every record of
// the state file carries one so that recovery can tell a torn
// or bit-rotted tail from valid state without trusting a single byte of
// the input. Portable slicing-by-8 (eight table lookups per eight input
// bytes, no CPU-specific instructions): recovery checksums every byte of
// the state directory before it trusts one, so the CRC runs at memory
// speed, and a dependency-free routine keeps the format verifiable anywhere.
#ifndef ROBODET_SRC_UTIL_CHECKSUM_H_
#define ROBODET_SRC_UTIL_CHECKSUM_H_

#include <cstdint>
#include <string_view>

namespace robodet {

// CRC32C over `data`, continuing from `seed` (pass a previous return value
// to checksum discontiguous pieces as one stream). Seed 0 starts fresh.
uint32_t Crc32c(std::string_view data, uint32_t seed = 0);

}  // namespace robodet

#endif  // ROBODET_SRC_UTIL_CHECKSUM_H_
