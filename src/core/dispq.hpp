// Solaris-style dispatch queue for the engine's library level.
//
// Solaris dispatches kernel threads through `dispq`: an array of FIFO
// run queues, one per global priority, plus a bitmap of non-empty
// levels (disp_qactmap).  Insertion appends to the level's queue and
// sets its bit; picking the next thread finds the highest set bit and
// takes that queue's head — both O(1) in the number of queued threads.
// The engine reproduces that shape at the library level (unbound
// threads waiting for an LWP, bucketed by user priority), replacing the
// sort-per-step scheduler it started with.  The kernel level (LWPs
// waiting for a CPU) rebuilds its waiter list on every pass and selects
// from it by linear scan instead; see DESIGN.md.
//
// The queue is persistent, with lazy deletion.  The owner stamps every
// entry with an epoch; bumping the epoch outside the queue invalidates
// the entry in place, and `invalidate()` keeps the per-bucket live
// count (and the bitmap) in step.  The stale husk is discarded when a
// later `scan` walks over it.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace vppb::core {

/// Bitmap of non-empty priority levels (Solaris' disp_qactmap).
class PrioBitmap {
 public:
  void configure(int levels) {
    words_.assign(static_cast<std::size_t>((levels + 63) / 64), 0);
  }
  void set(int level) {
    words_[static_cast<std::size_t>(level >> 6)] |= 1ull << (level & 63);
  }
  void clear(int level) {
    words_[static_cast<std::size_t>(level >> 6)] &= ~(1ull << (level & 63));
  }

  /// Highest set level, or -1 when empty.
  int highest() const {
    for (int w = static_cast<int>(words_.size()) - 1; w >= 0; --w) {
      const std::uint64_t word = words_[static_cast<std::size_t>(w)];
      if (word != 0) return (w << 6) + 63 - std::countl_zero(word);
    }
    return -1;
  }

  /// Highest set level strictly below `level`, or -1.
  int highest_below(int level) const {
    if (level <= 0) return -1;
    int w = (level - 1) >> 6;
    const std::uint64_t mask = ~0ull >> (63 - ((level - 1) & 63));
    std::uint64_t word = words_[static_cast<std::size_t>(w)] & mask;
    for (;;) {
      if (word != 0) return (w << 6) + 63 - std::countl_zero(word);
      if (--w < 0) return -1;
      word = words_[static_cast<std::size_t>(w)];
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// One dispatch-queue array: per-level FIFO buckets ordered by an
/// explicit sequence number, plus the bitmap of non-empty levels.
/// Higher level = dispatched first; within a level, smaller seq first.
template <typename Item>
class DispQueue {
 public:
  struct Entry {
    Item item;
    std::uint64_t seq;
    std::uint32_t epoch;  ///< owner's stamp; mismatch = lazily deleted
  };

  enum class Visit : std::uint8_t {
    kSkip,  ///< live but not eligible right now: leave it queued
    kDrop,  ///< stale husk (already invalidate()d): discard physically
    kTake,  ///< pop this entry and stop the scan
  };

  /// Sizes the queue for `levels` buckets and empties it.  Surviving
  /// buckets keep their storage, so a reused engine workspace running
  /// the same program again allocates nothing.
  void configure(int levels) {
    buckets_.resize(static_cast<std::size_t>(levels));
    for (Bucket& b : buckets_) {
      b.q.clear();
      b.head = 0;
      b.live = 0;
    }
    bits_.configure(levels);
    live_total_ = 0;
  }

  /// Queue `item` at `level`, ordered by `seq` within the bucket.  The
  /// common case (monotonically growing seq) appends; re-queues with an
  /// older seq walk back from the tail to their position, so bucket
  /// order is always by seq regardless of arrival order.
  void insert(int level, Item item, std::uint64_t seq, std::uint32_t epoch) {
    Bucket& b = buckets_[static_cast<std::size_t>(level)];
    if (b.live == 0) bits_.set(level);
    ++b.live;
    ++live_total_;
    std::size_t pos = b.q.size();
    while (pos > b.head && b.q[pos - 1].seq > seq) --pos;
    b.q.insert(b.q.begin() + static_cast<std::ptrdiff_t>(pos),
               Entry{item, seq, epoch});
  }

  /// The owner removed an entry of `level` by bumping its epoch; keep
  /// the live count and bitmap consistent.
  void invalidate(int level) {
    Bucket& b = buckets_[static_cast<std::size_t>(level)];
    --b.live;
    --live_total_;
    if (b.live == 0) reset_bucket(b, level);
  }

  /// Walks entries from the strongest level down, calling
  /// `classify(item, epoch)` on each; returns the first kTake'n item,
  /// or Item{} when every entry was skipped or dropped.  The caller
  /// updates its own bookkeeping (epoch bump etc.) for a taken item.
  template <typename F>
  Item scan(F&& classify) {
    for (int level = bits_.highest(); level >= 0;
         level = bits_.highest_below(level)) {
      Bucket& b = buckets_[static_cast<std::size_t>(level)];
      for (std::size_t i = b.head; i < b.q.size(); ++i) {
        const Visit v = classify(b.q[i].item, b.q[i].epoch);
        if (v == Visit::kSkip) continue;
        if (v == Visit::kDrop) {
          // live was already decremented by invalidate(); only the
          // husk remains.  Trim it when it sits at the head.
          if (i == b.head) ++b.head;
          continue;
        }
        Item out = b.q[i].item;
        if (i == b.head) ++b.head;
        --b.live;
        --live_total_;
        if (b.live == 0) reset_bucket(b, level);
        return out;
      }
    }
    return Item{};
  }

  /// Entries inserted and not yet taken or invalidated, across all
  /// buckets.  Zero means a scan cannot take anything, letting callers
  /// skip it in O(1).
  std::size_t live() const { return live_total_; }

 private:
  struct Bucket {
    std::vector<Entry> q;
    std::size_t head = 0;   ///< physical entries before this are consumed
    std::size_t live = 0;   ///< entries not lazily deleted
  };

  void reset_bucket(Bucket& b, int level) {
    // No live entries: whatever is physically left is stale husks, so
    // the storage can be recycled wholesale.
    b.q.clear();
    b.head = 0;
    bits_.clear(level);
  }

  std::vector<Bucket> buckets_;
  PrioBitmap bits_;
  std::size_t live_total_ = 0;
};

}  // namespace vppb::core
