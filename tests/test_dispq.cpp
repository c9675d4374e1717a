// Tests for the library-level dispatch queue (core/dispq.hpp): level
// then seq order, epoch-based lazy deletion, skip-in-place, re-queue
// ordering, the live count and reconfiguration.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/dispq.hpp"

namespace vppb::core {
namespace {

using Queue = DispQueue<int>;  // item 0 is "nothing taken"

/// The owner side of the contract: an epoch per item, bumped on
/// removal outside the queue, exactly as the engine stamps threads.
struct Owner {
  Queue q;
  std::map<int, std::uint32_t> epoch;
  std::map<int, int> level;

  void put(int item, int lvl, std::uint64_t seq) {
    level[item] = lvl;
    q.insert(lvl, item, seq, epoch[item]);
  }
  void remove(int item) {
    ++epoch[item];
    q.invalidate(level[item]);
  }
  /// One scan taking the first live item not in `skip`; records every
  /// item the scan visited.
  int take(const std::vector<int>& skip = {},
           std::vector<int>* visited = nullptr) {
    const int out = q.scan([&](int item, std::uint32_t e) {
      if (visited != nullptr) visited->push_back(item);
      if (e != epoch[item]) return Queue::Visit::kDrop;
      for (const int s : skip) {
        if (s == item) return Queue::Visit::kSkip;
      }
      return Queue::Visit::kTake;
    });
    if (out != 0) ++epoch[out];
    return out;
  }
  std::vector<int> drain() {
    std::vector<int> order;
    for (int item = take(); item != 0; item = take()) order.push_back(item);
    return order;
  }
};

TEST(DispQueueTest, HigherLevelFirstThenSmallerSeq) {
  Owner o;
  o.q.configure(4);
  o.put(1, 0, 1);
  o.put(2, 3, 5);
  o.put(3, 3, 2);
  o.put(4, 1, 3);
  EXPECT_EQ(o.drain(), (std::vector<int>{3, 2, 4, 1}));
}

TEST(DispQueueTest, InvalidatedEntriesAreDroppedNotTaken) {
  Owner o;
  o.q.configure(3);
  o.put(1, 2, 1);
  o.put(2, 2, 2);
  o.put(3, 1, 3);
  o.remove(1);  // stale husk at the head of level 2
  EXPECT_EQ(o.take(), 2);

  // Invalidating a bucket's last live entry empties it outright: the
  // next scan never visits the husk.
  o.put(4, 2, 4);
  o.remove(4);
  std::vector<int> visited;
  EXPECT_EQ(o.take({}, &visited), 3);
  EXPECT_EQ(visited, (std::vector<int>{3}));
  EXPECT_EQ(o.take(), 0);
}

TEST(DispQueueTest, SkippedEntryStaysQueued) {
  Owner o;
  o.q.configure(2);
  o.put(1, 1, 1);
  o.put(2, 1, 2);
  EXPECT_EQ(o.take({1}), 2);
  EXPECT_EQ(o.take({1}), 0);  // everything skipped: nothing taken
  EXPECT_EQ(o.q.live(), 1u);
  EXPECT_EQ(o.take(), 1);
}

TEST(DispQueueTest, OlderSeqReinsertLandsInSeqOrder) {
  Owner o;
  o.q.configure(1);
  o.put(5, 0, 5);
  o.put(7, 0, 7);
  o.put(9, 0, 9);
  EXPECT_EQ(o.take(), 5);  // head moves past the consumed entry
  o.put(6, 0, 6);
  o.put(3, 0, 3);
  EXPECT_EQ(o.drain(), (std::vector<int>{3, 6, 7, 9}));
}

TEST(DispQueueTest, LiveCountsInsertsMinusTakesAndInvalidations) {
  Owner o;
  o.q.configure(3);
  EXPECT_EQ(o.q.live(), 0u);
  o.put(1, 0, 1);
  o.put(2, 1, 2);
  o.put(3, 2, 3);
  EXPECT_EQ(o.q.live(), 3u);
  o.remove(2);
  EXPECT_EQ(o.q.live(), 2u);
  EXPECT_EQ(o.take(), 3);
  EXPECT_EQ(o.q.live(), 1u);
  EXPECT_EQ(o.take(), 1);
  EXPECT_EQ(o.q.live(), 0u);
}

TEST(DispQueueTest, ConfigureEmptiesTheQueueForReuse) {
  Owner o;
  o.q.configure(3);
  o.put(1, 2, 1);
  o.put(2, 2, 2);
  o.put(3, 0, 3);
  EXPECT_EQ(o.take({1}), 2);  // leaves a consumed entry and a skipped one

  o.q.configure(3);  // same level count: a reused engine workspace
  EXPECT_EQ(o.q.live(), 0u);
  std::vector<int> visited;
  EXPECT_EQ(o.take({}, &visited), 0);
  EXPECT_TRUE(visited.empty());
  o.put(4, 0, 4);
  o.put(5, 1, 1);
  EXPECT_EQ(o.drain(), (std::vector<int>{5, 4}));

  o.q.configure(5);  // a different program: more levels
  o.put(6, 4, 1);
  o.put(7, 2, 1);
  EXPECT_EQ(o.drain(), (std::vector<int>{6, 7}));
}

}  // namespace
}  // namespace vppb::core
