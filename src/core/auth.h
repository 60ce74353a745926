// Capability-style authorization tokens.
//
// The paper assumes "a secure authorization mechanism in place. A non-faulty
// server does not accept a write or a read request from an unauthorized
// client... effected by using authorization tokens issued to clients by some
// secure authorization service" (§4). This is that stand-in service: a
// well-known authority key signs (client, group, rights, expiry) capability
// tokens; servers verify them on each request when authorization is enabled.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "util/ids.h"
#include "util/serial.h"
#include "util/time.h"

namespace securestore::core {

enum class Rights : std::uint8_t {
  kRead = 1,
  kWrite = 2,
  kReadWrite = 3,
};

/// True iff `granted` covers `needed`.
bool rights_cover(Rights granted, Rights needed);

struct AuthToken {
  ClientId client{};
  GroupId group{};
  Rights rights = Rights::kRead;
  SimTime expiry = 0;  // 0 = never expires
  Bytes signature;

  Bytes signed_payload() const;
  void encode(Writer& w) const;
  static AuthToken decode(Reader& r);
};

/// The issuing side of the authorization service.
class Authorizer {
 public:
  explicit Authorizer(crypto::KeyPair authority) : authority_(std::move(authority)) {}

  AuthToken issue(ClientId client, GroupId group, Rights rights, SimTime expiry = 0) const;

 private:
  crypto::KeyPair authority_;
};

/// The verifying side (runs at each server).
class TokenVerifier {
 public:
  explicit TokenVerifier(Bytes authority_public_key) : key_(std::move(authority_public_key)) {}

  /// Checks signature, principal, group, rights and expiry.
  bool check(const std::optional<AuthToken>& token, ClientId client, GroupId group,
             Rights needed, SimTime now) const;

 private:
  Bytes key_;
};

}  // namespace securestore::core
