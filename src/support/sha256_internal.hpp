// The block compressors behind comt::Sha256, exposed so tests can run every
// digest through each path and compare them. Not for production callers:
// Sha256 already picks the fastest compressor the CPU supports.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "support/sha256.hpp"

namespace comt::sha256_internal {

/// Compresses `count` consecutive 64-byte blocks at `data` into `state`.
/// `data` needs no alignment.
using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                         std::size_t count);

/// The portable FIPS 180-4 rounds: the fallback and the test reference.
void blocks_scalar(std::uint32_t* state, const std::uint8_t* data, std::size_t count);

/// The SHA-NI compressor, or nullptr when this build targets no x86-64 or the
/// CPU lacks the SHA extensions.
BlockFn blocks_accelerated();

/// The compressor every default-constructed Sha256 uses: blocks_accelerated()
/// when it exists, else blocks_scalar. Chosen on the first call, once per
/// process.
BlockFn blocks_dispatched();

struct Access {
  /// Digest of the concatenation of `parts`, absorbed by one Sha256::update
  /// call per part, with `blocks` as the hasher's compressor.
  static std::array<std::uint8_t, 32> digest(BlockFn blocks,
                                             const std::vector<std::string_view>& parts);
};

}  // namespace comt::sha256_internal
