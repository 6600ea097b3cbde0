// 64-bit word-at-a-time byte hash: the one hash behind raft::Payload's
// digest, the invariant checker's entry fingerprint and its state digests.
//
// Four lanes read the bytes as 8-byte words (a 1-7 byte tail is
// zero-padded), then one final mix folds them into a word whose low bit is
// forced to 1, so 0 can mean "unset". A round is a bijection of its input
// word and of the running lane, so changing one seed word, or one word of the
// bytes at a fixed length, always changes the lanes. Values are compared only
// within one process (native byte order), never stored.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace dyna::hash {

inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;

[[nodiscard]] constexpr std::uint64_t round(std::uint64_t lane, std::uint64_t word) noexcept {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

/// Native-endian 8-byte load; memcpy keeps it free of alignment and
/// aliasing assumptions.
[[nodiscard]] inline std::uint64_t load_word(const char* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// Fold `bytes` into four seeded lanes, then mix the lanes down to one word
/// with the low bit set.
[[nodiscard]] inline std::uint64_t hash_bytes(std::array<std::uint64_t, 4> lane,
                                              std::string_view bytes) noexcept {
  const char* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lane[0] = round(lane[0], load_word(p + i));
    lane[1] = round(lane[1], load_word(p + i + 8));
    lane[2] = round(lane[2], load_word(p + i + 16));
    lane[3] = round(lane[3], load_word(p + i + 24));
  }
  std::size_t k = 0;
  for (; i + 8 <= n; i += 8) {
    lane[k] = round(lane[k], load_word(p + i));
    ++k;
  }
  if (i < n) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    lane[k] = round(lane[k], tail);
  }
  std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) + std::rotl(lane[2], 12) +
                    std::rotl(lane[3], 18);
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h | 1;
}

/// Digest of a byte string. The length seeds a lane, which tells "a" from
/// "a\0".
[[nodiscard]] inline std::uint64_t digest(std::string_view bytes) noexcept {
  return hash_bytes({kPrime1 + kPrime2, kPrime2, 0, round(0 - kPrime1, bytes.size())}, bytes);
}

}  // namespace dyna::hash
