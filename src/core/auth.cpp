#include "core/auth.h"

#include "crypto/keys.h"

namespace securestore::core {

bool rights_cover(Rights granted, Rights needed) {
  return (static_cast<std::uint8_t>(granted) & static_cast<std::uint8_t>(needed)) ==
         static_cast<std::uint8_t>(needed);
}

Bytes AuthToken::signed_payload() const {
  Writer w;
  w.str("securestore.token.v1");
  w.u32(client.value);
  w.u64(group.value);
  w.u8(static_cast<std::uint8_t>(rights));
  w.u64(expiry);
  return w.take();
}

void AuthToken::encode(Writer& w) const {
  w.u32(client.value);
  w.u64(group.value);
  w.u8(static_cast<std::uint8_t>(rights));
  w.u64(expiry);
  w.bytes(signature);
}

AuthToken AuthToken::decode(Reader& r) {
  AuthToken token;
  token.client = ClientId{r.u32()};
  token.group = GroupId{r.u64()};
  token.rights = static_cast<Rights>(r.u8());
  token.expiry = r.u64();
  token.signature = r.bytes();
  return token;
}

AuthToken Authorizer::issue(ClientId client, GroupId group, Rights rights,
                            SimTime expiry) const {
  AuthToken token;
  token.client = client;
  token.group = group;
  token.rights = rights;
  token.expiry = expiry;
  token.signature = crypto::meter_sign(authority_, token.signed_payload());
  return token;
}

bool TokenVerifier::check(const std::optional<AuthToken>& token, ClientId client,
                          GroupId group, Rights needed, SimTime now) const {
  if (!token.has_value()) return false;
  if (token->client != client || token->group != group) return false;
  if (!rights_cover(token->rights, needed)) return false;
  if (token->expiry != 0 && now >= token->expiry) return false;
  return crypto::meter_verify(key_, token->signed_payload(), token->signature);
}

}  // namespace securestore::core
