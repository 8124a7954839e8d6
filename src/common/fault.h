#ifndef VISUALROAD_COMMON_FAULT_H_
#define VISUALROAD_COMMON_FAULT_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "common/random.h"
#include "common/status.h"

namespace visualroad::fault {

/// Every place the benchmark can inject a fault. Each site draws from its
/// own deterministic substream of the injector seed, so adding draws at one
/// site never perturbs the schedule of another — the property that makes a
/// faulty run reproducible (same seed => same fault schedule).
enum class Site {
  kStoreReadFlap = 0,   // Transient datanode failure observed by a block read.
  kStoreSlowRead,       // A block read that completes but late.
  kStoreWriteFail,      // A replica write that fails mid-block.
  kRtpLoss,             // An online frame lost in the channel.
  kRtpJitter,           // Network delay on an online frame delivery.
  kRpcSend,             // A distributed RPC frame lost/failed on send.
  kWorkerCrash,         // A worker process killed before a dispatch lands.
};
inline constexpr int kSiteCount = 7;

/// Stable lower_snake label for a site ("store_read_flap", ...). Used for
/// substream derivation, metric labels, and trace span names.
std::string_view SiteName(Site site);

/// Per-site fault probabilities plus delay magnitudes. A default-constructed
/// profile injects nothing; `vcd --faults=<name>` selects a named profile.
struct FaultProfile {
  std::string name = "none";
  std::array<double, kSiteCount> probability{};  // All zero by default.

  // Delay magnitudes, deliberately small so faulty runs stay fast.
  std::chrono::microseconds slow_read_delay{2000};
  std::chrono::microseconds jitter_delay{1000};

  double& prob(Site site) { return probability[static_cast<int>(site)]; }
  double prob(Site site) const { return probability[static_cast<int>(site)]; }
  /// True when any site has nonzero probability.
  bool any() const;
};

/// Looks up a named profile: "none", "flaky" (transient storage faults plus
/// mild online-feed loss), "lossy" (heavy online-feed loss and jitter),
/// "cluster" (RPC send failures and worker crashes). Unknown names are an
/// error listing the valid choices.
StatusOr<FaultProfile> ProfileByName(std::string_view name);

/// A seeded, deterministic fault source. Each site owns an independent
/// Pcg32 substream (derived from the seed and the site name) behind its own
/// mutex, so concurrent callers at different sites never contend and the
/// per-site outcome sequence depends only on the seed and the number of
/// draws at that site. Thread-safe.
class FaultInjector {
 public:
  FaultInjector(FaultProfile profile, uint64_t seed);

  /// Draws the next outcome for `site`: true with the profile probability.
  /// Also counts the draw (and any injection) in the vr_fault_* metrics.
  bool ShouldInject(Site site);

  /// ShouldInject + sleep for the site's configured delay when it fires.
  /// Returns true when a delay was injected.
  bool MaybeDelay(Site site);

  const FaultProfile& profile() const { return profile_; }
  uint64_t seed() const { return seed_; }

  /// Total draws / injections at `site` so far (for tests and reports).
  int64_t draws(Site site) const;
  int64_t injected(Site site) const;

 private:
  struct SiteState {
    mutable std::mutex mutex;
    Pcg32 rng;
    int64_t draws = 0;
    int64_t injected = 0;
  };

  FaultProfile profile_;
  uint64_t seed_;
  std::array<SiteState, kSiteCount> sites_;
};

/// Bounds for RetryPolicy: capped exponential backoff under an overall
/// deadline. Defaults keep tier-1 tests fast (a failed op gives up after
/// ~7 ms of sleeping).
struct RetryOptions {
  int max_attempts = 4;
  std::chrono::microseconds initial_backoff{1000};
  std::chrono::microseconds max_backoff{4000};
  double backoff_multiplier = 2.0;
  /// Overall wall-clock budget across all attempts (0 = attempts-only).
  std::chrono::microseconds deadline{50000};
};

/// Returns true when `code` is worth retrying (transient-shaped errors:
/// IoError, DataLoss, ResourceExhausted, Internal). Caller bugs
/// (InvalidArgument, NotFound, OutOfRange, ...) are returned immediately.
bool IsRetryable(StatusCode code);

/// Runs an operation with capped exponential backoff under a deadline,
/// recording vr_retry_* metrics (labeled by site) and a `retry:<site>` trace
/// span around any attempt after the first. The first attempt runs with no
/// overhead beyond one clock read, so wrapping a hot path that rarely fails
/// is cheap.
class RetryPolicy {
 public:
  RetryPolicy(Site site, RetryOptions options);

  /// Invokes `op` until it succeeds, returns a non-retryable error, exhausts
  /// max_attempts, or exceeds the deadline. `attempts_out` (optional)
  /// receives the number of attempts made.
  Status Run(const std::function<Status()>& op, int* attempts_out = nullptr);

 private:
  Site site_;
  RetryOptions options_;
};

/// Retry attempts made by code running on the current thread. RetryPolicy
/// increments this on the calling thread alongside the vr_retry_* metrics,
/// so a caller that brackets an operation with two reads gets the operation's
/// exact retry count even while other threads retry concurrently (the VCD,
/// the query server and the coordinator attribute retries this way).
int64_t ThreadRetries();

/// Degraded deliveries recorded by code running on the current thread:
/// online freeze-frame concealment calls NoteDegraded() at its increment
/// site, which runs on the reading caller's own thread. Bracketing an
/// instance with two reads therefore counts each degraded frame exactly
/// once, regardless of which other threads read concurrently. The exported
/// view remains vr_rtp_frames_concealed_total.
int64_t ThreadDegraded();

/// Records `count` degraded deliveries against the current thread. Called by
/// the degrade site (the online feed); not a metric — the site keeps its own
/// registry instrument.
void NoteDegraded(int64_t count = 1);

}  // namespace visualroad::fault

#endif  // VISUALROAD_COMMON_FAULT_H_
