#include "digest_check.hpp"

#include <openssl/evp.h>

#include <cstdio>

namespace lifecycle {

std::string openssl_sha256(std::string_view bytes) {
  unsigned char md[EVP_MAX_MD_SIZE];
  unsigned int md_len = 0;
  if (EVP_Digest(bytes.data(), bytes.size(), md, &md_len, EVP_sha256(), nullptr) != 1) {
    return "sha256:openssl-error";
  }
  std::string out = "sha256:";
  char hex[3];
  for (unsigned int i = 0; i < md_len; ++i) {
    std::snprintf(hex, sizeof hex, "%02x", md[i]);
    out += hex;
  }
  return out;
}

std::string check_blob(std::string_view bytes, const comt::oci::Descriptor& descriptor) {
  if (bytes.size() != descriptor.size) {
    return descriptor.digest.value + ": size " + std::to_string(bytes.size()) +
           " != descriptor " + std::to_string(descriptor.size);
  }
  std::string actual = openssl_sha256(bytes);
  if (actual != descriptor.digest.value) {
    return descriptor.digest.value + ": content hashes to " + actual;
  }
  return {};
}

}  // namespace lifecycle
