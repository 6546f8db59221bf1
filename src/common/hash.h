#ifndef MLQ_COMMON_HASH_H_
#define MLQ_COMMON_HASH_H_

#include <cstdint>

namespace mlq {

// splitmix64 finalizer: full avalanche in a few multiplies, so even keys
// that differ only in low bits (quantized grid cells, aligned pointers)
// spread evenly over a power-of-two table or a small shard count.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace mlq

#endif  // MLQ_COMMON_HASH_H_
