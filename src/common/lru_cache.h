#ifndef VISUALROAD_COMMON_LRU_CACHE_H_
#define VISUALROAD_COMMON_LRU_CACHE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace visualroad {

/// How an LruCache lookup was satisfied.
enum class LruOutcome { kHit, kMiss, kCoalesced };

/// Cumulative counters of one LruCache.
struct LruCacheStats {
  int64_t hits = 0;        // A ready entry answered Get or GetOrCompute.
  int64_t misses = 0;      // GetOrCompute ran the compute (single-flight leader).
  int64_t coalesced = 0;   // GetOrCompute waited on another caller's compute.
  int64_t insertions = 0;  // Values published by Put or a successful compute.
  int64_t evictions = 0;   // Entries dropped to fit the byte budget.
  int64_t bytes_in_use = 0;
  int64_t entries = 0;
};

/// Registry instruments an LruCache moves alongside its own stats. Each
/// counter counts the LruCacheStats event of the same name; the gauges move
/// by this cache's change, so they sum over every live cache. Borrowed (the
/// registry's instruments live for the process); null members are skipped.
struct LruCacheMetrics {
  metrics::Counter* hits = nullptr;
  metrics::Counter* misses = nullptr;
  metrics::Counter* coalesced = nullptr;
  metrics::Counter* insertions = nullptr;
  metrics::Counter* evictions = nullptr;
  metrics::Gauge* bytes_in_use = nullptr;
  metrics::Gauge* entries = nullptr;
};

/// The budgeted size of a value: its `bytes` member.
struct BytesMember {
  template <typename V>
  int64_t operator()(const V& value) const {
    return value.bytes;
  }
};

/// A byte-budgeted LRU of shared immutable values with single-flight fill,
/// under one mutex that is never held across a compute. Readers share values
/// by shared_ptr, so eviction never invalidates one.
///
/// Rules:
///  - Budget: publishing evicts least-recently-used entries until the ready
///    entries fit `capacity_bytes`, the new one included; a value larger than
///    the whole budget is still returned to its callers, just not kept.
///  - Single flight: concurrent GetOrCompute calls on one cold key run one
///    compute; every waiter gets the leader's value or the leader's error.
///    A failed compute publishes nothing, so the next caller leads again.
///  - Clear (and EraseIf) drops ready entries only; a compute in flight
///    across it still publishes its value when it completes.
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Weigh = BytesMember>
class LruCache {
 public:
  using Value = std::shared_ptr<const V>;

  explicit LruCache(int64_t capacity_bytes, LruCacheMetrics metrics = {})
      : capacity_bytes_(std::max<int64_t>(capacity_bytes, 0)), metrics_(metrics) {}
  /// Takes this cache's share out of the gauges.
  ~LruCache() { Clear(); }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// The ready value of `key`, made most recently used and counted as a hit;
  /// null (counting nothing) when absent.
  Value Get(const K& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    return FindLocked(key);
  }

  /// The ready value of `key` or null, moving neither stats nor recency.
  Value Peek(const K& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : it->second->value;
  }

  /// The value of `key`: a ready entry, else the result of the compute in
  /// flight for it, else the result of `compute()` (a callable returning
  /// StatusOr<V>), which this caller runs and publishes.
  template <typename Compute>
  StatusOr<Value> GetOrCompute(const K& key, Compute&& compute,
                               LruOutcome* outcome = nullptr) {
    std::shared_ptr<Flight> flight;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (Value hit = FindLocked(key)) {
        if (outcome != nullptr) *outcome = LruOutcome::kHit;
        return hit;
      }
      auto it = flights_.find(key);
      if (it != flights_.end()) {
        flight = it->second;
        CountLocked(stats_.coalesced, metrics_.coalesced);
        if (outcome != nullptr) *outcome = LruOutcome::kCoalesced;
        ready_.wait(lock, [&flight] { return flight->done; });
        return flight->Result();
      }
      flight = std::make_shared<Flight>();
      flights_.emplace(key, flight);
      CountLocked(stats_.misses, metrics_.misses);
      if (outcome != nullptr) *outcome = LruOutcome::kMiss;
    }
    StatusOr<V> computed = compute();
    std::lock_guard<std::mutex> lock(mutex_);
    flights_.erase(key);
    if (computed.ok()) {
      flight->value = std::make_shared<const V>(std::move(*computed));
      PublishLocked(key, flight->value);
    } else {
      flight->status = computed.status();
    }
    flight->done = true;
    ready_.notify_all();
    return flight->Result();
  }

  /// Publishes `value` under `key`, replacing any ready entry there, as the
  /// most recently used entry.
  void Put(const K& key, Value value) {
    std::lock_guard<std::mutex> lock(mutex_);
    PublishLocked(key, std::move(value));
  }

  /// Drops every ready entry whose key satisfies `pred` (not counted as
  /// evictions).
  template <typename Pred>
  void EraseIf(Pred pred) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = order_.begin(); it != order_.end();) {
      it = pred(it->key) ? DropLocked(it) : std::next(it);
    }
  }

  /// Drops every ready entry.
  void Clear() {
    EraseIf([](const K&) { return true; });
  }

  /// Every ready value, most recently used first; moves neither stats nor
  /// recency.
  std::vector<Value> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Value> out;
    out.reserve(order_.size());
    for (const Node& node : order_) out.push_back(node.value);
    return out;
  }

  int64_t capacity_bytes() const { return capacity_bytes_; }

  LruCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    LruCacheStats out = stats_;
    out.entries = static_cast<int64_t>(order_.size());
    return out;
  }

 private:
  struct Node {
    K key;
    Value value;
    int64_t bytes = 0;
  };
  using Order = std::list<Node>;  // Front is the most recently used.

  struct Flight {
    bool done = false;
    Status status;
    Value value;

    StatusOr<Value> Result() const {
      if (!status.ok()) return status;
      return value;
    }
  };

  Value FindLocked(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    CountLocked(stats_.hits, metrics_.hits);
    return it->second->value;
  }

  void PublishLocked(const K& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) DropLocked(it->second);
    const int64_t bytes = Weigh{}(*value);
    order_.push_front(Node{key, std::move(value), bytes});
    index_.emplace(key, order_.begin());
    MoveLocked(bytes, 1);
    CountLocked(stats_.insertions, metrics_.insertions);
    while (stats_.bytes_in_use > capacity_bytes_ && !order_.empty()) {
      DropLocked(std::prev(order_.end()));
      CountLocked(stats_.evictions, metrics_.evictions);
    }
  }

  typename Order::iterator DropLocked(typename Order::iterator node) {
    MoveLocked(-node->bytes, -1);
    index_.erase(node->key);
    return order_.erase(node);
  }

  void MoveLocked(int64_t bytes, int entries) {
    stats_.bytes_in_use += bytes;
    if (metrics_.bytes_in_use != nullptr) {
      metrics_.bytes_in_use->Add(static_cast<double>(bytes));
    }
    if (metrics_.entries != nullptr) metrics_.entries->Add(entries);
  }

  static void CountLocked(int64_t& stat, metrics::Counter* counter) {
    ++stat;
    if (counter != nullptr) counter->Increment();
  }

  const int64_t capacity_bytes_;
  const LruCacheMetrics metrics_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  Order order_;
  std::unordered_map<K, typename Order::iterator, Hash> index_;
  std::unordered_map<K, std::shared_ptr<Flight>, Hash> flights_;
  LruCacheStats stats_;
};

}  // namespace visualroad

#endif  // VISUALROAD_COMMON_LRU_CACHE_H_
