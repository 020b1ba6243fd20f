#ifndef GALVATRON_UTIL_HASH_H_
#define GALVATRON_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace galvatron {

/// SplitMix64-style mixing of one more word into a running hash. Cheap,
/// well-dispersed, and deterministic across platforms.
inline size_t HashCombine(size_t h, uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<size_t>(v ^ (v >> 31)) ^ h;
}

/// Hash of a word vector, two words per mixing round (the flat keys of the
/// DP frontier cache run to ~100 words and are hashed once per lookup on
/// the sweep's hot path).
inline size_t HashWords(const std::vector<int32_t>& words) {
  size_t h = HashCombine(0, words.size());
  size_t i = 0;
  for (; i + 1 < words.size(); i += 2) {
    h = HashCombine(
        h, (static_cast<uint64_t>(static_cast<uint32_t>(words[i])) << 32) |
               static_cast<uint32_t>(words[i + 1]));
  }
  if (i < words.size()) {
    h = HashCombine(h, static_cast<uint32_t>(words[i]));
  }
  return h;
}

}  // namespace galvatron

#endif  // GALVATRON_UTIL_HASH_H_
