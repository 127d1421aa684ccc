#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace tgm::e2e {

double CalibrationLoopSeconds() {
  constexpr std::size_t kKeys = 200'000;
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> v(kKeys);
    std::uint32_t x = 2463534242u;  // xorshift32: the same keys everywhere
    for (std::uint32_t& k : v) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      k = x;
    }
    return v;
  }();
  static std::vector<std::uint32_t> work(kKeys);
  std::copy(keys.begin(), keys.end(), work.begin());
  const auto start = std::chrono::steady_clock::now();
  std::sort(work.begin(), work.end());
  // The sorted buffer counts as read, so the sort cannot be dropped or
  // moved past the clock read.
  asm volatile("" : : "r"(work.data()) : "memory");
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace tgm::e2e
