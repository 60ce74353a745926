// The contract both wall-clock transports keep: every case runs on
// ThreadTransport and on TcpTransport (local nodes, so no socket hop), the
// two transports that share one net::Executor. Carries the `tsan` label.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/tcp_transport.h"
#include "net/thread_transport.h"
#include "util/serial.h"

namespace securestore {
namespace {

constexpr NodeId kFrom{1};
constexpr NodeId kTo{2};

struct ThreadKind {
  using Transport = net::ThreadTransport;
  static std::unique_ptr<Transport> make() {
    return std::make_unique<Transport>(sim::NetworkModel(Rng(1), sim::zero_profile()));
  }
  /// Drain cap the case should observe.
  static std::size_t cap(Transport& transport) {
    transport.set_max_batch(4);
    return 4;
  }
};

struct TcpKind {
  using Transport = net::TcpTransport;
  static std::unique_ptr<Transport> make() {
    return std::make_unique<Transport>(0, std::map<NodeId, net::TcpEndpoint>{});
  }
  static std::size_t cap(Transport&) { return net::Transport::kMaxDeliveryBatch; }
};

struct KindNames {
  template <typename Kind>
  static std::string GetName(int) {
    return std::is_same_v<Kind, ThreadKind> ? "Thread" : "Tcp";
  }
};

/// Parks the dispatch thread in a scheduled callback until `open()`, so
/// work submitted meanwhile queues up behind it.
class Gate {
 public:
  explicit Gate(net::Transport& transport) {
    auto entered = std::make_shared<std::promise<void>>();
    auto entered_future = entered->get_future();
    transport.schedule(0, [entered, opened = opened_] {
      entered->set_value();
      opened.wait();
    });
    entered_future.wait();
  }
  ~Gate() { open(); }
  void open() {
    if (!open_called_) open_.set_value();
    open_called_ = true;
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> opened_ = open_.get_future().share();
  bool open_called_ = false;
};

Bytes numbered(std::uint32_t i) {
  Writer w;
  w.u32(i);
  return w.take();
}

/// Polls `done` for up to five seconds.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

template <typename Kind>
class TransportContract : public ::testing::Test {
 protected:
  ~TransportContract() override { transport->stop(); }

  std::unique_ptr<typename Kind::Transport> transport = Kind::make();
};

using Kinds = ::testing::Types<ThreadKind, TcpKind>;
TYPED_TEST_SUITE(TransportContract, Kinds, KindNames);

TYPED_TEST(TransportContract, StopIsIdempotentAndCountsPendingMessagesDropped) {
  auto& transport = *this->transport;
  std::atomic<std::uint64_t> handled{0};
  transport.register_node_batched(kTo, [&](std::vector<net::Delivery>& batch) {
    handled.fetch_add(batch.size());
  });
  auto fired = std::make_shared<std::atomic<bool>>(false);
  transport.schedule(seconds(60), [fired] { *fired = true; });

  constexpr std::uint32_t kCount = 50;
  {
    // The messages wait in the ring behind the parked dispatcher while
    // stop() begins; stop() then counts them dropped instead of running
    // their drain.
    Gate gate(transport);
    for (std::uint32_t i = 0; i < kCount; ++i) transport.send(kFrom, kTo, numbered(i));
    std::thread stopper([&] { transport.stop(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.open();
    stopper.join();
  }
  const sim::TransportStats stopped = transport.stats();
  EXPECT_EQ(stopped.messages_sent, kCount);
  EXPECT_EQ(stopped.messages_delivered + stopped.messages_dropped, kCount);
  EXPECT_EQ(stopped.messages_delivered, handled.load());

  transport.stop();
  EXPECT_EQ(transport.stats().messages_dropped, stopped.messages_dropped);
  transport.send(kFrom, kTo, numbered(kCount));
  EXPECT_EQ(transport.stats().messages_dropped, stopped.messages_dropped + 1);
  EXPECT_EQ(transport.stats().messages_delivered, stopped.messages_delivered);
  EXPECT_FALSE(*fired);
}

TYPED_TEST(TransportContract, SendsRacingStopAreDeliveredOrCountedDropped) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  auto& transport = *this->transport;
  std::atomic<std::uint64_t> handled{0};
  transport.register_node_batched(kTo, [&](std::vector<net::Delivery>& batch) {
    handled.fetch_add(batch.size());
  });

  std::atomic<bool> go{false};
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) transport.send(kFrom, kTo, to_bytes("racing"));
    });
  }
  go.store(true, std::memory_order_release);
  // Stop mid-burst: some sends land before, some during, some after.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  transport.stop();
  for (auto& thread : senders) thread.join();

  const sim::TransportStats stats = transport.stats();
  EXPECT_EQ(stats.messages_sent, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.messages_sent, stats.messages_delivered + stats.messages_dropped);
  EXPECT_EQ(stats.messages_delivered, handled.load());
}

TYPED_TEST(TransportContract, CappedDrainsKeepSendOrder) {
  auto& transport = *this->transport;
  const std::size_t cap = TypeParam::cap(transport);
  std::atomic<std::size_t> total{0};
  std::atomic<std::size_t> calls{0};
  std::atomic<bool> ok{true};
  std::uint32_t next_expected = 0;  // dispatch thread only
  transport.register_node_batched(kTo, [&](std::vector<net::Delivery>& batch) {
    if (batch.empty() || batch.size() > cap) ok = false;
    for (const net::Delivery& d : batch) {
      Reader r(d.payload);
      if (d.from != kFrom || r.u32() != next_expected++) ok = false;
    }
    calls.fetch_add(1);
    total.fetch_add(batch.size());
  });

  // The whole burst is pending when the first drain runs, so every drain
  // but the last is a full, capped one.
  constexpr std::uint32_t kCount = 300;
  {
    Gate gate(transport);
    for (std::uint32_t i = 0; i < kCount; ++i) transport.send(kFrom, kTo, numbered(i));
  }
  ASSERT_TRUE(eventually([&] { return total.load() == kCount; }));
  transport.stop();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(calls.load(), (kCount + cap - 1) / cap);
  const sim::TransportStats stats = transport.stats();
  EXPECT_EQ(stats.messages_delivered, kCount);
  EXPECT_EQ(stats.messages_dropped, 0u);
  EXPECT_EQ(stats.bytes_received, kCount * sizeof(std::uint32_t));
  EXPECT_GE(stats.ring_occupancy_highwater, kCount);
}

TYPED_TEST(TransportContract, UnregisteredEndpointRemnantsAreCountedDropped) {
  auto& transport = *this->transport;
  std::atomic<std::uint64_t> handled{0};
  transport.register_node_batched(kTo, [&](std::vector<net::Delivery>& batch) {
    handled.fetch_add(batch.size());
  });
  constexpr std::uint32_t kCount = 40;
  {
    Gate gate(transport);
    for (std::uint32_t i = 0; i < kCount; ++i) transport.send(kFrom, kTo, numbered(i));
    EXPECT_EQ(transport.backlog(kTo), kCount);
    transport.unregister_node(kTo);
    EXPECT_EQ(transport.backlog(kTo), 0u);
  }
  ASSERT_TRUE(eventually([&] { return transport.stats().messages_dropped == kCount; }));
  transport.stop();
  EXPECT_EQ(handled.load(), 0u);
  const sim::TransportStats stats = transport.stats();
  EXPECT_EQ(stats.messages_delivered, 0u);
  EXPECT_EQ(stats.messages_dropped, kCount);
  EXPECT_EQ(stats.bytes_received, 0u);
}

TYPED_TEST(TransportContract, ScheduledCallbacksRunOnTheDeliveryThread) {
  auto& transport = *this->transport;
  std::promise<std::thread::id> delivered_on;
  transport.register_node(kTo, [&](NodeId, BytesView) {
    delivered_on.set_value(std::this_thread::get_id());
  });
  std::promise<std::thread::id> scheduled_on;
  transport.schedule(0, [&] { scheduled_on.set_value(std::this_thread::get_id()); });
  transport.send(kFrom, kTo, to_bytes("where"));

  auto delivered = delivered_on.get_future();
  auto scheduled = scheduled_on.get_future();
  ASSERT_EQ(delivered.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  ASSERT_EQ(scheduled.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  const std::thread::id dispatch = scheduled.get();
  EXPECT_EQ(delivered.get(), dispatch);
  EXPECT_NE(dispatch, std::this_thread::get_id());
}

TYPED_TEST(TransportContract, JobsDueAtOnceRunInEnqueueOrder) {
  auto& transport = *this->transport;
  constexpr std::uint32_t kCount = 2000;
  std::vector<std::uint32_t> ran;  // dispatch thread only
  std::promise<void> done;
  {
    // Parked, every callback below is due by the time the gate opens, many
    // of them at the same clock reading: only the sequence orders those.
    Gate gate(transport);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      transport.schedule(0, [&ran, &done, i] {
        ran.push_back(i);
        if (ran.size() == kCount) done.set_value();
      });
    }
  }
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(5)), std::future_status::ready);
  transport.stop();
  for (std::uint32_t i = 0; i < kCount; ++i) ASSERT_EQ(ran[i], i);
}

TYPED_TEST(TransportContract, StatsSnapshotsDoNotRaceTheRegistryCollector) {
  // Under TSan: the registry collector must fold its own copy of the
  // counters, not the buffer a concurrent stats() caller is rewriting.
  auto& transport = *this->transport;
  transport.register_node_batched(kTo, [](std::vector<net::Delivery>&) {});
  std::atomic<bool> running{true};
  std::thread sender([&] {
    while (running.load()) transport.send(kFrom, kTo, to_bytes("traffic"));
  });
  std::thread scraper([&] {
    while (running.load()) (void)transport.registry().snapshot();
  });
  std::uint64_t seen = 0;
  for (int i = 0; i < 2000; ++i) {
    const sim::TransportStats& stats = transport.stats();
    EXPECT_GE(stats.messages_sent, seen);
    seen = stats.messages_sent;
  }
  running = false;
  sender.join();
  scraper.join();
  transport.stop();

  const sim::TransportStats stats = transport.stats();
  EXPECT_EQ(stats.messages_sent, stats.messages_delivered + stats.messages_dropped);
  const obs::MetricsSnapshot folded = transport.registry().snapshot();
  EXPECT_EQ(folded.gauges.at("transport.messages_sent"),
            static_cast<std::int64_t>(stats.messages_sent));
}

}  // namespace
}  // namespace securestore
