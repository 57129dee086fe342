#include "serve/server_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace ppgnn::serve {

std::size_t LatencyHistogram::bucket_of(double us) {
  if (!(us >= 1.0)) return 0;  // sub-microsecond, negative and NaN
  constexpr std::uint64_t kLast = (std::uint64_t{1} << kMaxOctave) - 1;
  const std::uint64_t u = us >= static_cast<double>(kLast)
                              ? kLast
                              : static_cast<std::uint64_t>(us);
  if (u < 2 * kSubBuckets) return static_cast<std::size_t>(u);
  // u in [2^e, 2^(e+1)), e >= 8: keep its top 8 bits (128 sub-buckets),
  // one run of 128 buckets per octave.
  const auto shift = static_cast<unsigned>(std::bit_width(u)) - 8;
  return shift * kSubBuckets + static_cast<std::size_t>(u >> shift);
}

double LatencyHistogram::bucket_lower(std::size_t bucket) {
  if (bucket < 2 * kSubBuckets) return static_cast<double>(bucket);
  const std::size_t shift = bucket / kSubBuckets - 1;
  return static_cast<double>(
      static_cast<std::uint64_t>(bucket % kSubBuckets + kSubBuckets)
      << shift);
}

void LatencyHistogram::grow(std::size_t bucket) {
  // Whole octaves, allocated exactly (reserve before resize), so the
  // storage never exceeds kMaxBuckets counters.
  const std::size_t n =
      std::min(kMaxBuckets, (bucket / kSubBuckets + 1) * kSubBuckets);
  counts_.reserve(n);
  counts_.resize(n, 0);
}

void LatencyHistogram::record(double us) {
  if (!(us >= 0.0)) us = 0.0;
  const std::size_t b = bucket_of(us);
  if (b >= counts_.size()) grow(b);
  ++counts_[b];
  if (count_ == 0 || us < min_) min_ = us;
  if (count_ == 0 || us > max_) max_ = us;
  ++count_;
  sum_ += us;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (other.counts_.size() > counts_.size()) grow(other.counts_.size() - 1);
  for (std::size_t b = 0; b < other.counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  min_ = count_ ? std::min(min_, other.min_) : other.min_;
  max_ = count_ ? std::max(max_, other.max_) : other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

void LatencyHistogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  // Nearest-rank is 1-based: rank ceil(p/100 * n), at least 1.
  const double r = std::ceil(p / 100.0 * static_cast<double>(count_));
  const std::uint64_t rank =
      r < 1.0 ? 1 : std::min(count_, static_cast<std::uint64_t>(r));
  if (rank == count_) return max_;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= rank) return std::clamp(bucket_lower(b), min_, max_);
  }
  return max_;
}

LatencySummary LatencyHistogram::summary(double wall_seconds) const {
  LatencySummary s;
  s.count = count_;
  s.wall_seconds = wall_seconds;
  if (count_ == 0) return s;
  s.mean_us = mean();
  s.max_us = max_;
  s.p50_us = percentile(50);
  s.p95_us = percentile(95);
  s.p99_us = percentile(99);
  // A single instantaneous completion has no measurable span; report the
  // count over a conservative 1us floor instead of infinity.
  s.throughput_rps =
      static_cast<double>(count_) / std::max(wall_seconds, 1e-6);
  return s;
}

std::string LatencySummary::to_json() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%zu,\"p50_us\":%.1f,\"p95_us\":%.1f,"
                "\"p99_us\":%.1f,\"mean_us\":%.1f,\"max_us\":%.1f,"
                "\"wall_seconds\":%.4f,\"throughput_rps\":%.0f}",
                count, p50_us, p95_us, p99_us, mean_us, max_us, wall_seconds,
                throughput_rps);
  return buf;
}

std::string AdmissionCounters::to_json() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"admitted\":%zu,\"rejected\":%zu,\"shed\":%zu,"
                "\"reject_rate\":%.4f,\"shed_rate\":%.4f}",
                admitted, rejected, shed, reject_rate(), shed_rate());
  return buf;
}

std::string TenantStat::to_json() const {
  char buf[352];
  std::snprintf(buf, sizeof(buf),
                "{\"tenant\":%u,\"admitted\":%zu,\"rejected\":%zu,"
                "\"shed\":%zu,\"quota_refused\":%zu,\"samples\":%zu,"
                "\"p50_us\":%.1f,\"p99_us\":%.1f,\"win_samples\":%zu,"
                "\"win_p50_us\":%.1f,\"win_p99_us\":%.1f}",
                tenant, admitted, rejected, shed, quota_refused, samples,
                p50_us, p99_us, win_samples, win_p50_us, win_p99_us);
  return buf;
}

std::string StageGauges::to_json() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"admission_us\":%.1f,\"dispatch_us\":%.1f,"
                "\"compute_us\":%.1f,\"shed_wait_us\":%.1f,"
                "\"shed_waits\":%zu}",
                mean_admission_us(), mean_dispatch_us(), mean_compute_us(),
                mean_shed_wait_us(), shed_waits);
  return buf;
}

ServerStats::ServerStats(std::chrono::milliseconds window, const Clock* clock)
    : clock_(clock_or_real(clock)) {
  if (window.count() <= 0) window = std::chrono::milliseconds(1000);
  window_ = window;
  // Bucket length must be a nonzero duration (it divides timestamps);
  // a sub-16ms window degrades to coarser effective bucketing rather
  // than dividing by zero.
  bucket_len_ = std::max<std::chrono::steady_clock::duration>(
      window_ / kBuckets, std::chrono::milliseconds(1));
}

std::size_t ServerStats::slot_of(
    std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point* start) const {
  // Buckets are addressed by absolute bucket index mod kBuckets; a bucket
  // whose recorded start doesn't match the slot's current period is stale
  // (the ring wrapped past it) and restarts from zero.
  const auto ticks = now.time_since_epoch() / bucket_len_;
  *start = std::chrono::steady_clock::time_point(bucket_len_ * ticks);
  return static_cast<std::size_t>(static_cast<std::uint64_t>(ticks) %
                                  kBuckets);
}

ServerStats::Bucket& ServerStats::current_bucket_locked(
    std::chrono::steady_clock::time_point now) {
  std::chrono::steady_clock::time_point start;
  Bucket& b = buckets_[slot_of(now, &start)];
  if (b.start != start) {
    b = Bucket{};
    b.start = start;
  }
  return b;
}

LatencyHistogram ServerStats::windowed_locked(
    const TenantSlice& slice, std::chrono::steady_clock::time_point now) const {
  LatencyHistogram h;
  for (const WindowLatency& w : slice.window) {
    if (in_window(w.start, now)) h.merge(w.latency);
  }
  return h;
}

void ServerStats::record(double latency_us, std::uint32_t tenant) {
  const auto now = clock_->now();
  std::chrono::steady_clock::time_point start;
  const std::size_t slot = slot_of(now, &start);
  std::lock_guard<std::mutex> lk(mu_);
  TenantSlice& t = tenants_[tenant];
  t.latency.record(latency_us);
  WindowLatency& w = t.window[slot];
  if (w.start != start) {
    w.latency.clear();
    w.start = start;
  }
  w.latency.record(latency_us);
  if (!any_) {
    first_done_ = now;
    any_ = true;
  }
  last_done_ = now;
}

void ServerStats::record_batch(std::size_t batch_size) {
  std::lock_guard<std::mutex> lk(mu_);
  ++batches_;
  batched_requests_ += batch_size;
}

void ServerStats::record_queue_delay(double delay_us) {
  const auto now = clock_->now();
  std::lock_guard<std::mutex> lk(mu_);
  Bucket& b = current_bucket_locked(now);
  b.queue_delay_sum_us += delay_us;
  ++b.queue_delay_count;
}

void ServerStats::record_admitted(std::uint32_t tenant) {
  const auto now = clock_->now();
  std::lock_guard<std::mutex> lk(mu_);
  ++admission_.admitted;
  ++tenants_[tenant].admitted;
  ++current_bucket_locked(now).admission.admitted;
}

void ServerStats::record_rejected(std::uint32_t tenant) {
  const auto now = clock_->now();
  std::lock_guard<std::mutex> lk(mu_);
  ++admission_.rejected;
  ++tenants_[tenant].rejected;
  ++current_bucket_locked(now).admission.rejected;
}

void ServerStats::record_shed(std::uint32_t tenant) {
  const auto now = clock_->now();
  std::lock_guard<std::mutex> lk(mu_);
  ++admission_.shed;
  ++tenants_[tenant].shed;
  ++current_bucket_locked(now).admission.shed;
}

void ServerStats::record_quota_refused(std::uint32_t tenant, std::size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  quota_refused_ += n;
  tenants_[tenant].quota_refused += n;
  // No bucket update: quota refusals stay out of the windowed admission
  // counters by design (the autoscaler must not see them as shed).
}

void ServerStats::record_deadline_miss() {
  const auto now = clock_->now();
  std::lock_guard<std::mutex> lk(mu_);
  ++deadline_missed_;
  ++current_bucket_locked(now).deadline_missed;
}

void ServerStats::record_stages(double admission_us, double dispatch_us,
                                double compute_us) {
  std::lock_guard<std::mutex> lk(mu_);
  stages_.admission_sum_us += admission_us;
  stages_.dispatch_sum_us += dispatch_us;
  stages_.compute_sum_us += compute_us;
  ++stages_.dispatched;
}

void ServerStats::record_shed_wait(double admission_us) {
  std::lock_guard<std::mutex> lk(mu_);
  stages_.shed_wait_sum_us += admission_us;
  ++stages_.shed_waits;
}

AdmissionCounters ServerStats::admission() const {
  std::lock_guard<std::mutex> lk(mu_);
  return admission_;
}

StageGauges ServerStats::stages() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stages_;
}

std::size_t ServerStats::deadline_missed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return deadline_missed_;
}

std::size_t ServerStats::quota_refused_total() const {
  std::lock_guard<std::mutex> lk(mu_);
  return quota_refused_;
}

std::vector<TenantStat> ServerStats::tenant_stats(
    std::chrono::steady_clock::time_point now) const {
  std::vector<TenantStat> rows;
  std::lock_guard<std::mutex> lk(mu_);
  rows.reserve(tenants_.size());
  for (const auto& [id, slice] : tenants_) {
    TenantStat t;
    t.tenant = id;
    t.admitted = slice.admitted;
    t.rejected = slice.rejected;
    t.shed = slice.shed;
    t.quota_refused = slice.quota_refused;
    t.samples = slice.latency.count();
    t.p50_us = slice.latency.percentile(50);
    t.p99_us = slice.latency.percentile(99);
    const LatencyHistogram recent = windowed_locked(slice, now);
    t.win_samples = recent.count();
    t.win_p50_us = recent.percentile(50);
    t.win_p99_us = recent.percentile(99);
    rows.push_back(t);
  }
  return rows;
}

WindowStats ServerStats::window(
    std::chrono::steady_clock::time_point now) const {
  WindowStats w;
  double delay_sum = 0;
  LatencyHistogram recent;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Bucket& b : buckets_) {
      // A bucket participates only if its period is inside the window; a
      // start of time_point{} (never written) sorts before any horizon.
      if (!in_window(b.start, now)) continue;
      w.admission.admitted += b.admission.admitted;
      w.admission.rejected += b.admission.rejected;
      w.admission.shed += b.admission.shed;
      w.deadline_missed += b.deadline_missed;
      delay_sum += b.queue_delay_sum_us;
      w.queue_delay_samples += b.queue_delay_count;
    }
    recent = windowed_all_locked(now);
  }
  if (w.queue_delay_samples > 0) {
    w.mean_queue_delay_us =
        delay_sum / static_cast<double>(w.queue_delay_samples);
  }
  w.latency = recent.summary(std::chrono::duration<double>(window_).count());
  return w;
}

LatencyHistogram ServerStats::windowed_all_locked(
    std::chrono::steady_clock::time_point now) const {
  LatencyHistogram h;
  for (const auto& [id, slice] : tenants_) {
    (void)id;
    h.merge(windowed_locked(slice, now));
  }
  return h;
}

LatencyHistogram ServerStats::windowed_latency(
    std::chrono::steady_clock::time_point now) const {
  std::lock_guard<std::mutex> lk(mu_);
  return windowed_all_locked(now);
}

void ServerStats::merge(const ServerStats& other) {
  if (&other == this) return;
  std::scoped_lock lk(mu_, other.mu_);  // std::lock's deadlock avoidance
  batches_ += other.batches_;
  batched_requests_ += other.batched_requests_;
  admission_.admitted += other.admission_.admitted;
  admission_.rejected += other.admission_.rejected;
  admission_.shed += other.admission_.shed;
  deadline_missed_ += other.deadline_missed_;
  quota_refused_ += other.quota_refused_;
  for (const auto& [id, slice] : other.tenants_) {
    TenantSlice& mine = tenants_[id];
    mine.admitted += slice.admitted;
    mine.rejected += slice.rejected;
    mine.shed += slice.shed;
    mine.quota_refused += slice.quota_refused;
    mine.latency.merge(slice.latency);
  }
  const StageGauges& st = other.stages_;
  stages_.admission_sum_us += st.admission_sum_us;
  stages_.dispatch_sum_us += st.dispatch_sum_us;
  stages_.compute_sum_us += st.compute_sum_us;
  stages_.dispatched += st.dispatched;
  stages_.shed_wait_sum_us += st.shed_wait_sum_us;
  stages_.shed_waits += st.shed_waits;
  if (other.any_) {
    if (!any_ || other.first_done_ < first_done_) {
      first_done_ = other.first_done_;
    }
    if (!any_ || other.last_done_ > last_done_) last_done_ = other.last_done_;
    any_ = true;
  }
}

bool ServerStats::merge_once(const ServerStats& other,
                             std::uint64_t generation) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!merged_generations_.insert(generation).second) {
      return false;  // this generation's samples are already pooled here
    }
  }
  merge(other);
  return true;
}

LatencySummary ServerStats::summary() const {
  LatencyHistogram all;
  double wall_seconds = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [id, slice] : tenants_) {
    (void)id;
    all.merge(slice.latency);
  }
  if (any_) {
    wall_seconds =
        std::chrono::duration<double>(last_done_ - first_done_).count();
  }
  return all.summary(wall_seconds);
}

std::size_t ServerStats::batches() const {
  std::lock_guard<std::mutex> lk(mu_);
  return batches_;
}

double ServerStats::mean_batch_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return batches_ == 0 ? 0.0
                       : static_cast<double>(batched_requests_) /
                             static_cast<double>(batches_);
}

void ServerStats::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  batches_ = 0;
  batched_requests_ = 0;
  admission_ = AdmissionCounters{};
  deadline_missed_ = 0;
  quota_refused_ = 0;
  stages_ = StageGauges{};
  tenants_.clear();
  any_ = false;
  buckets_ = {};
  merged_generations_.clear();
}

}  // namespace ppgnn::serve
