// SHA-256 (FIPS 180-4). Content digests for OCI blobs and build-graph node
// identities. Self-contained implementation — no external crypto dependency.
// On x86-64 CPUs with the SHA extensions the block compression runs on
// SHA-NI, chosen once per process; everywhere else it runs the portable
// scalar rounds. Both produce the same digests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace comt {

namespace sha256_internal {
struct Access;
}  // namespace sha256_internal

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `data` into the running hash.
  void update(std::string_view data);
  void update(const void* data, std::size_t size);

  /// Finalizes and returns the 32-byte digest. The hasher must not be used
  /// after calling finish().
  std::array<std::uint8_t, 32> finish();

  /// One-shot convenience: lowercase-hex digest of `data`.
  static std::string hex_digest(std::string_view data);

 private:
  /// Compresses `count` consecutive 64-byte blocks at `data` into `state`.
  using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t count);
  friend struct sha256_internal::Access;

  explicit Sha256(BlockFn blocks);

  BlockFn blocks_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Lowercase-hex encoding of arbitrary bytes.
std::string to_hex(const std::uint8_t* data, std::size_t size);

}  // namespace comt
