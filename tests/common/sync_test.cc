#include "common/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace haocl {
namespace {

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueueTest, CloseReleasesBlockedConsumer) {
  BlockingQueue<int> q;
  std::atomic<bool> got_nullopt{false};
  std::thread consumer([&] {
    auto item = q.Pop();
    got_nullopt = !item.has_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  consumer.join();
  EXPECT_TRUE(got_nullopt);
}

TEST(BlockingQueueTest, DrainsAfterClose) {
  BlockingQueue<int> q;
  q.Push(7);
  q.Close();
  EXPECT_EQ(*q.Pop(), 7);           // Already-queued items still drain.
  EXPECT_FALSE(q.Pop().has_value());  // Then it reports closed.
  q.Push(8);                          // Dropped silently after close.
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueueTest, ManyProducersManyConsumers) {
  BlockingQueue<int> q;
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 1000;
  std::atomic<long long> sum{0};
  std::atomic<int> count{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.Pop()) {
        sum += *item;
        ++count;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kItemsEach; ++i) q.Push(p * kItemsEach + i);
    });
  }
  for (auto& t : producers) t.join();
  while (count.load() < kProducers * kItemsEach) {
    std::this_thread::yield();
  }
  q.Close();
  for (auto& t : consumers) t.join();

  const long long n = kProducers * kItemsEach;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(PromiseTest, SetThenWait) {
  Promise<int> p;
  p.Set(99);
  EXPECT_EQ(p.Wait(), 99);
  EXPECT_TRUE(p.Ready());
}

TEST(PromiseTest, FirstWriterWins) {
  Promise<int> p;
  p.Set(1);
  p.Set(2);
  EXPECT_EQ(p.Wait(), 1);
}

TEST(PromiseTest, WaitBlocksUntilSet) {
  Promise<std::string> p;
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    p.Set("done");
  });
  EXPECT_EQ(p.Wait(), "done");
  setter.join();
}

TEST(PromiseTest, WaitForTimesOut) {
  Promise<int> p;
  EXPECT_EQ(p.WaitFor(std::chrono::milliseconds(10)), nullptr);
  p.Set(5);
  const int* v = p.WaitFor(std::chrono::milliseconds(10));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 5);
}

TEST(PromiseTest, TakeForMovesTheValueOutAndLaterSetsAreDropped) {
  Promise<std::unique_ptr<int>> p;
  EXPECT_FALSE(p.TakeFor(std::chrono::milliseconds(10)).has_value());
  p.Set(std::make_unique<int>(1));
  auto taken = p.TakeFor(std::chrono::milliseconds(10));
  ASSERT_TRUE(taken.has_value() && *taken != nullptr);
  EXPECT_EQ(**taken, 1);
  // Still set: a late second writer must not count as the first.
  p.Set(std::make_unique<int>(2));
  EXPECT_TRUE(p.Ready());
  EXPECT_EQ(p.Wait(), nullptr) << "the taken value was replaced";
}

}  // namespace
}  // namespace haocl
