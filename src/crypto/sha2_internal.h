// SHA-256 internals (not part of the public crypto API): the compression
// back ends Sha256 chooses between, exposed so crypto tests can check the
// hardware path against the portable one.
#pragma once

#include "crypto/sha2.h"

namespace securestore::crypto::sha2_internal {

/// A Sha256 that compresses with the portable C++ code whatever the CPU
/// supports. Plain Sha256 uses the SHA-NI instructions when the CPU has
/// them and this same portable code otherwise.
Sha256 portable_sha256();

/// True iff plain Sha256 runs on the SHA-NI instructions on this CPU.
bool sha256_uses_sha_ni();

}  // namespace securestore::crypto::sha2_internal
