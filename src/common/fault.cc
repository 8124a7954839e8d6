#include "common/fault.h"

#include <algorithm>
#include <thread>

#include "common/metrics.h"
#include "common/trace.h"

namespace visualroad::fault {
namespace {

// Thread-scoped mirrors of the robustness counters; see ThreadRetries() /
// ThreadDegraded() in the header for the attribution contract.
thread_local int64_t t_thread_retries = 0;
thread_local int64_t t_thread_degraded = 0;

struct SiteInstruments {
  metrics::Counter* draws = nullptr;
  metrics::Counter* injected = nullptr;
  metrics::Counter* attempts = nullptr;
  metrics::Counter* retries = nullptr;
  metrics::Counter* giveups = nullptr;
  metrics::Counter* sleep_seconds = nullptr;
};

/// One instrument set per site, registered on first use. The label body is
/// `site="<name>"` so every site exports as its own sample line.
const SiteInstruments& InstrumentsFor(Site site) {
  static std::array<SiteInstruments, kSiteCount>* all = [] {
    auto* a = new std::array<SiteInstruments, kSiteCount>();
    auto& registry = metrics::MetricsRegistry::Global();
    for (int i = 0; i < kSiteCount; ++i) {
      std::string label =
          "site=\"" + std::string(SiteName(static_cast<Site>(i))) + "\"";
      (*a)[i].draws = &registry.GetCounter(
          "vr_fault_draws_total",
          "Fault-injection decisions drawn, by site.", label);
      (*a)[i].injected = &registry.GetCounter(
          "vr_fault_injected_total",
          "Faults actually injected, by site.", label);
      (*a)[i].attempts = &registry.GetCounter(
          "vr_retry_attempts_total",
          "Operation attempts made under a RetryPolicy, by site.", label);
      (*a)[i].retries = &registry.GetCounter(
          "vr_retry_retries_total",
          "Attempts beyond the first under a RetryPolicy, by site.", label);
      (*a)[i].giveups = &registry.GetCounter(
          "vr_retry_giveups_total",
          "RetryPolicy runs that exhausted attempts or deadline, by site.",
          label);
      (*a)[i].sleep_seconds = &registry.GetCounter(
          "vr_retry_sleep_seconds_total",
          "Total backoff sleep under a RetryPolicy, by site.", label);
    }
    return a;
  }();
  return (*all)[static_cast<int>(site)];
}

}  // namespace

std::string_view SiteName(Site site) {
  switch (site) {
    case Site::kStoreReadFlap: return "store_read_flap";
    case Site::kStoreSlowRead: return "store_slow_read";
    case Site::kStoreWriteFail: return "store_write_fail";
    case Site::kRtpLoss: return "rtp_loss";
    case Site::kRtpJitter: return "rtp_jitter";
    case Site::kRpcSend: return "rpc_send";
    case Site::kWorkerCrash: return "worker_crash";
  }
  return "unknown";
}

bool FaultProfile::any() const {
  return std::any_of(probability.begin(), probability.end(),
                     [](double p) { return p > 0.0; });
}

StatusOr<FaultProfile> ProfileByName(std::string_view name) {
  FaultProfile p;
  p.name = std::string(name);
  if (name == "none") {
    return p;
  }
  if (name == "flaky") {
    // Transient storage trouble dominates: reads flap and retry, a few
    // replica writes fail over to another node, and the online feed drops
    // the odd frame.
    p.prob(Site::kStoreReadFlap) = 0.35;
    p.prob(Site::kStoreSlowRead) = 0.05;
    p.prob(Site::kStoreWriteFail) = 0.05;
    p.prob(Site::kRtpLoss) = 0.05;
    p.prob(Site::kRtpJitter) = 0.05;
    return p;
  }
  if (name == "lossy") {
    // A bad network, healthy storage: online frames go missing and arrive
    // late far more often than datanodes misbehave.
    p.prob(Site::kRtpLoss) = 0.20;
    p.prob(Site::kRtpJitter) = 0.20;
    return p;
  }
  if (name == "cluster") {
    // Distributed-execution trouble: RPC sends fail (forcing reconnect +
    // retry under the rpc_send RetryPolicy) and worker processes crash
    // before a dispatch lands (forcing dead-worker re-dispatch). The
    // coordinator never crashes its last live worker, so a cluster run
    // always completes.
    p.prob(Site::kRpcSend) = 0.10;
    p.prob(Site::kWorkerCrash) = 0.20;
    return p;
  }
  return Status::InvalidArgument(
      "unknown fault profile '" + std::string(name) +
      "' (choose none, flaky, lossy, or cluster)");
}

FaultInjector::FaultInjector(FaultProfile profile, uint64_t seed)
    : profile_(std::move(profile)), seed_(seed) {
  for (int i = 0; i < kSiteCount; ++i) {
    sites_[i].rng =
        SubStream(seed_, "fault", HashLabel(SiteName(static_cast<Site>(i))));
  }
}

bool FaultInjector::ShouldInject(Site site) {
  double p = profile_.prob(site);
  auto& state = sites_[static_cast<int>(site)];
  bool fire;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    // Always draw, even at p == 0, so enabling a site later does not shift
    // the schedule of the others and a "none" run consumes the same stream.
    fire = state.rng.NextBool(p);
    ++state.draws;
    if (fire) ++state.injected;
  }
  const SiteInstruments& inst = InstrumentsFor(site);
  inst.draws->Increment();
  if (fire) inst.injected->Increment();
  return fire;
}

bool FaultInjector::MaybeDelay(Site site) {
  if (!ShouldInject(site)) return false;
  std::chrono::microseconds delay{0};
  switch (site) {
    case Site::kStoreSlowRead: delay = profile_.slow_read_delay; break;
    case Site::kRtpJitter: delay = profile_.jitter_delay; break;
    default: break;
  }
  if (delay.count() > 0) std::this_thread::sleep_for(delay);
  return true;
}

int64_t FaultInjector::draws(Site site) const {
  const auto& state = sites_[static_cast<int>(site)];
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.draws;
}

int64_t FaultInjector::injected(Site site) const {
  const auto& state = sites_[static_cast<int>(site)];
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.injected;
}

bool IsRetryable(StatusCode code) {
  switch (code) {
    case StatusCode::kIoError:
    case StatusCode::kDataLoss:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

RetryPolicy::RetryPolicy(Site site, RetryOptions options)
    : site_(site), options_(options) {}

Status RetryPolicy::Run(const std::function<Status()>& op, int* attempts_out) {
  const SiteInstruments& inst = InstrumentsFor(site_);
  const auto start = std::chrono::steady_clock::now();
  const bool has_deadline = options_.deadline.count() > 0;
  std::chrono::microseconds backoff = options_.initial_backoff;
  Status status;
  int attempts = 0;
  std::optional<trace::Span> retry_span;
  for (;;) {
    ++attempts;
    inst.attempts->Increment();
    status = op();
    if (status.ok() || !IsRetryable(status.code())) break;
    if (attempts >= std::max(1, options_.max_attempts)) {
      inst.giveups->Increment();
      break;
    }
    auto sleep = backoff;
    if (has_deadline) {
      auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
          options_.deadline - (std::chrono::steady_clock::now() - start));
      if (remaining.count() <= 0) {
        inst.giveups->Increment();
        break;
      }
      sleep = std::min(sleep, remaining);
    }
    if (!retry_span) {
      // The span brackets the whole retry tail, opened only once an actual
      // retry happens so fault-free runs trace nothing extra.
      retry_span.emplace("retry:" + std::string(SiteName(site_)));
    }
    inst.retries->Increment();
    ++t_thread_retries;
    std::this_thread::sleep_for(sleep);
    inst.sleep_seconds->Increment(
        std::chrono::duration<double>(sleep).count());
    backoff = std::min(
        std::chrono::microseconds(static_cast<int64_t>(
            static_cast<double>(backoff.count()) * options_.backoff_multiplier)),
        options_.max_backoff);
  }
  if (attempts_out != nullptr) *attempts_out = attempts;
  return status;
}

int64_t ThreadRetries() { return t_thread_retries; }

int64_t ThreadDegraded() { return t_thread_degraded; }

void NoteDegraded(int64_t count) { t_thread_degraded += count; }

}  // namespace visualroad::fault
