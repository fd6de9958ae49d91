// CRC32C (Castagnoli), reflected polynomial 0x82F63B78: the checksum of the
// transport frame trailer and of the wire-encoding reference models.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fedms::core {

// CRC32C of `size` bytes at `data`. `seed` is the CRC of the bytes before
// these, so a buffer can be checksummed in pieces.
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0);

}  // namespace fedms::core
