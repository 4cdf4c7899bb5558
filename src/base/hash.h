// The repo's non-cryptographic hashes, kept in one place because their
// stability requirements differ sharply:
//   * Fnv1a (64-bit FNV-1a): src/store routes keys to shards with it — it is
//     ON-DISK-FORMAT CRITICAL: a record must be found in the shard whose log
//     holds it, so the constants and byte order below may never change
//     (std::hash guarantees neither across runs/toolchains, which is why it
//     is not used);
//   * HashMix64: in-memory only (label interning, check-cache set
//     selection), free to change.
#ifndef SRC_BASE_HASH_H_
#define SRC_BASE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace asbestos {

constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

// Folds `n` raw bytes into `h`. Chainable: pass a previous result as `h`.
inline uint64_t Fnv1aBytes(const void* data, size_t n, uint64_t h = kFnv1aOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

inline uint64_t Fnv1a(std::string_view s, uint64_t h = kFnv1aOffsetBasis) {
  return Fnv1aBytes(s.data(), s.size(), h);
}

// Word-at-a-time mixer for IN-MEMORY hashing of u64 words: one
// multiply-xorshift round per word — an order of magnitude cheaper than
// byte-wise FNV, with the avalanche byte-FNV lacks (adjacent ids must not
// cluster cache sets). Chained over a sequence it is order-dependent (the
// check cache's set selection); applied to each packed label entry on its own
// it gives the terms of the label intern hash, a wrapping sum that a rep
// updates by one term per edit (src/labels/intern.h). Never use for anything
// persisted; the on-disk-stable hash is Fnv1a above.
inline uint64_t HashMix64(uint64_t h, uint64_t v) {
  h ^= v * 0x9e3779b97f4a7c15ULL;  // golden-ratio odd constant
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;  // splitmix64 finalizer round
  h ^= h >> 32;
  return h;
}

}  // namespace asbestos

#endif  // SRC_BASE_HASH_H_
