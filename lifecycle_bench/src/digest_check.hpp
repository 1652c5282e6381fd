// Blob verification that does not trust the program's own hashing: digests
// are recomputed with OpenSSL's libcrypto, not comt::Sha256.
#pragma once

#include <string>
#include <string_view>

#include "oci/oci.hpp"

namespace lifecycle {

/// "sha256:<hex>" of `bytes`, computed by OpenSSL.
std::string openssl_sha256(std::string_view bytes);

/// Empty when `bytes` has the digest and size `descriptor` names; otherwise
/// a one-line description of the mismatch.
std::string check_blob(std::string_view bytes, const comt::oci::Descriptor& descriptor);

}  // namespace lifecycle
