#ifndef CENN_UTIL_HASH_H_
#define CENN_UTIL_HASH_H_

/**
 * @file
 * FNV-1a 64, the one content hash of the repo: checkpoint trailers,
 * session state checksums, LUT content fingerprints and the DSL's
 * field hashes all fold their bytes through these helpers, least
 * significant byte first. Callers pick the starting value; the
 * pinned checksums depend on it, so each call site keeps its own.
 */

#include <cstdint>
#include <span>

namespace cenn {

/** The standard 64-bit FNV-1a offset basis. */
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/** Folds one byte into an FNV-1a hash. */
constexpr std::uint64_t
FnvMixByte(std::uint64_t h, std::uint8_t byte)
{
  return (h ^ byte) * 1099511628211ull;
}

/** Folds a 64-bit word, least significant byte first. */
constexpr std::uint64_t
FnvMix(std::uint64_t h, std::uint64_t word)
{
  for (int i = 0; i < 8; ++i) {
    h = FnvMixByte(h, static_cast<std::uint8_t>(word >> (8 * i)));
  }
  return h;
}

/** Folds every byte of `bytes`, in order. */
constexpr std::uint64_t
FnvMix(std::uint64_t h, std::span<const std::uint8_t> bytes)
{
  for (const std::uint8_t byte : bytes) {
    h = FnvMixByte(h, byte);
  }
  return h;
}

}  // namespace cenn

#endif  // CENN_UTIL_HASH_H_
