// Experiment E10 — crypto primitive microbenchmarks (google-benchmark).
//
// Grounds E3's operation-cost model in measured primitive times: the §6
// tradeoff between signatures (secure store, masking quorums) and MACs
// (PBFT-style SMR) is quantified here — MACs are orders of magnitude
// cheaper per operation, which is exactly why PBFT wins on computation and
// loses on message count.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "crypto/chacha20.h"
#include "obs/trace.h"
#include "crypto/ed25519.h"
#include "crypto/ed25519_batch.h"
#include "crypto/hmac.h"
#include "crypto/ida.h"
#include "crypto/keys.h"
#include "crypto/sha2.h"
#include "crypto/shamir.h"
#include "crypto/x25519.h"
#include "util/rng.h"

namespace securestore::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
// 144 bytes is one audit-chain link (AuditLog::link), the unit a server
// reboot re-hashes once per logged write.
BENCHMARK(BM_Sha256)->Arg(64)->Arg(144)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(2);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_Ed25519Sign(benchmark::State& state) {
  Rng rng(3);
  const KeyPair pair = KeyPair::generate(rng);
  const Bytes message = rng.bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_sign(pair, message));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  Rng rng(4);
  const KeyPair pair = KeyPair::generate(rng);
  const Bytes message = rng.bytes(256);
  const Bytes signature = ed25519_sign(pair, message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_verify(pair.public_key, message, signature));
  }
}
BENCHMARK(BM_Ed25519Verify);

void BM_Ed25519BatchVerify(benchmark::State& state) {
  Rng rng(13);
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<KeyPair> pairs;
  std::vector<Bytes> messages;
  std::vector<Bytes> signatures;
  for (std::size_t i = 0; i < count; ++i) {
    pairs.push_back(KeyPair::generate(rng));
    messages.push_back(rng.bytes(256));
    signatures.push_back(ed25519_sign(pairs.back(), messages.back()));
  }
  std::vector<BatchVerifyItem> items;
  for (std::size_t i = 0; i < count; ++i) {
    items.push_back({pairs[i].public_key, messages[i], signatures[i]});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_batch_verify(items));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Ed25519BatchVerify)->Arg(1)->Arg(4)->Arg(16);

void BM_Ed25519KeyGen(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyPair::generate(rng));
  }
}
BENCHMARK(BM_Ed25519KeyGen);

void BM_AeadSeal(benchmark::State& state) {
  Rng rng(6);
  const Bytes key = rng.bytes(kChaChaKeySize);
  const Bytes nonce = rng.bytes(kChaChaNonceSize);
  const Bytes plaintext = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead_seal(key, nonce, {}, plaintext));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(256)->Arg(4096)->Arg(65536);

void BM_AeadOpen(benchmark::State& state) {
  Rng rng(7);
  const Bytes key = rng.bytes(kChaChaKeySize);
  const Bytes nonce = rng.bytes(kChaChaNonceSize);
  const Bytes plaintext = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const Bytes sealed = aead_seal(key, nonce, {}, plaintext);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead_open(key, nonce, {}, sealed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AeadOpen)->Arg(256)->Arg(4096);

void BM_X25519SharedSecret(benchmark::State& state) {
  Rng rng(12);
  const DhKeyPair a = DhKeyPair::generate(rng);
  const DhKeyPair b = DhKeyPair::generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x25519_shared_secret(a.private_scalar, b.public_key));
  }
}
BENCHMARK(BM_X25519SharedSecret);

void BM_ShamirSplit(benchmark::State& state) {
  Rng rng(8);
  const Bytes secret = rng.bytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_split(secret, 3, 7, rng));
  }
}
BENCHMARK(BM_ShamirSplit);

void BM_ShamirCombine(benchmark::State& state) {
  Rng rng(9);
  const Bytes secret = rng.bytes(32);
  const auto shares = shamir_split(secret, 3, 7, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_combine(std::span(shares).first(3), 3));
  }
}
BENCHMARK(BM_ShamirCombine);

void BM_IdaDisperse(benchmark::State& state) {
  Rng rng(10);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ida_disperse(data, 3, 7));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_IdaDisperse)->Arg(1024)->Arg(16384);

void BM_IdaReconstruct(benchmark::State& state) {
  Rng rng(11);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const auto fragments = ida_disperse(data, 3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ida_reconstruct(std::span(fragments).first(3), 3));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_IdaReconstruct)->Arg(1024)->Arg(16384);

/// Registry-sourced distributions for the sidecar: the google-benchmark
/// loops above report means, so the per-call spread of the two signature
/// primitives (the costs E3/E4 price protocol ops with) is re-measured here
/// through an obs::Histogram.
void emit_registry_sidecar() {
  obs::Registry registry;
  obs::Histogram& sign_us = registry.histogram("crypto.ed25519_sign_us");
  obs::Histogram& verify_us = registry.histogram("crypto.ed25519_verify_us");

  Rng rng(20);
  const KeyPair pair = KeyPair::generate(rng);
  const Bytes message = rng.bytes(256);
  const Bytes signature = ed25519_sign(pair, message);
  constexpr int kCalls = 200;
  for (int i = 0; i < kCalls; ++i) {
    const std::uint64_t t0 = obs::wall_now_us();
    benchmark::DoNotOptimize(ed25519_sign(pair, message));
    const std::uint64_t t1 = obs::wall_now_us();
    benchmark::DoNotOptimize(ed25519_verify(pair.public_key, message, signature));
    const std::uint64_t t2 = obs::wall_now_us();
    sign_us.observe(static_cast<double>(t1 - t0));
    verify_us.observe(static_cast<double>(t2 - t1));
  }

  bench::BenchJson json("e10_crypto_micro");
  bench::emit_metrics(json, registry);
}

}  // namespace
}  // namespace securestore::crypto

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  securestore::crypto::emit_registry_sidecar();
  return 0;
}
