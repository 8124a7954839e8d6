// Tests for the cache primitive (src/common/lru_cache.h) that the tests of
// its users (gop_cache_test, semcache_test, vss_test) do not reach: how a
// failed single-flight compute reaches the callers waiting on it.

#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

namespace visualroad {
namespace {

struct Blob {
  int value = 0;
  int64_t bytes = 1;
};

TEST(LruCacheTest, FailedComputeReachesTheWaiterAndTheNextCallerLeads) {
  LruCache<int, Blob> cache(/*capacity_bytes=*/16);
  StatusOr<std::shared_ptr<const Blob>> waited = Status::Internal("unset");
  LruOutcome waiter_outcome = LruOutcome::kHit;
  std::thread waiter;
  LruOutcome leader_outcome = LruOutcome::kHit;
  StatusOr<std::shared_ptr<const Blob>> led = cache.GetOrCompute(
      7,
      [&]() -> StatusOr<Blob> {
        // The waiter starts once this compute is in flight, and the compute
        // fails only after the waiter has joined it.
        waiter = std::thread([&] {
          waited = cache.GetOrCompute(
              7,
              []() -> StatusOr<Blob> {
                ADD_FAILURE() << "a waiter must not run the compute";
                return Blob{};
              },
              &waiter_outcome);
        });
        while (cache.stats().coalesced != 1) std::this_thread::yield();
        return Status::IoError("decode failed");
      },
      &leader_outcome);
  waiter.join();

  EXPECT_EQ(leader_outcome, LruOutcome::kMiss);
  EXPECT_EQ(waiter_outcome, LruOutcome::kCoalesced);
  ASSERT_FALSE(led.ok());
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(led.status().code(), StatusCode::kIoError);
  EXPECT_EQ(waited.status().code(), led.status().code());
  EXPECT_EQ(waited.status().message(), led.status().message());
  EXPECT_EQ(cache.stats().entries, 0);

  // The failure published nothing, so the next caller leads again.
  LruOutcome outcome = LruOutcome::kHit;
  StatusOr<std::shared_ptr<const Blob>> again = cache.GetOrCompute(
      7, []() -> StatusOr<Blob> { return Blob{42, 1}; }, &outcome);
  EXPECT_EQ(outcome, LruOutcome::kMiss);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->value, 42);
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.coalesced, 1);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.entries, 1);
}

}  // namespace
}  // namespace visualroad
