// FNV-1a 64: the one hash behind verdict-cache scopes and tape fingerprints,
// document checksums, and the retry backoff's jitter. Every value it gives
// is persisted or pinned somewhere (cache keys, checksum lines), so the
// byte order below is part of those formats.
#pragma once

#include <cstdint>
#include <string_view>

namespace xcv::support {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Continues the hash `h` over `bytes`: HashBytes(b, HashBytes(a)) is the
/// hash of a followed by b.
inline std::uint64_t HashBytes(std::string_view bytes,
                               std::uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Continues the hash `h` over the eight bytes of `word`, least
/// significant first.
inline std::uint64_t FnvMix(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace xcv::support
