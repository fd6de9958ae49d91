#include "core/crc32c.h"

#include <array>

namespace fedms::core {

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      t[i] = crc;
    }
    return t;
  }();
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i)
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xFFu];
  return ~crc;
}

}  // namespace fedms::core
