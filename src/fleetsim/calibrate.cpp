#include "fleetsim/calibrate.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "serve/testbed.h"
#include "serve/workload.h"

namespace ppgnn::fleetsim {

namespace {

// Key-based scalar extraction from one flat bench record.  `found` (when
// given) reports whether the key was present; absent keys return `fallback`
// so records from older bench builds degrade to defaults instead of
// exploding.
double find_number(const std::string& rec, const std::string& key,
                   double fallback, bool* found = nullptr) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = rec.find(needle);
  if (found) *found = pos != std::string::npos;
  if (pos == std::string::npos) return fallback;
  return std::strtod(rec.c_str() + pos + needle.size(), nullptr);
}

std::string find_string(const std::string& rec, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = rec.find(needle);
  if (pos == std::string::npos) return {};
  const auto start = pos + needle.size();
  const auto end = rec.find('"', start);
  return end == std::string::npos ? std::string{}
                                  : rec.substr(start, end - start);
}

// 'u'/'d' signature from the record's events array, in emission order.
std::string event_signature_of(const std::string& rec) {
  std::string sig;
  const auto events_at = rec.find("\"events\":[");
  if (events_at == std::string::npos) return sig;
  const std::string needle = "\"action\":\"";
  for (auto pos = rec.find(needle, events_at); pos != std::string::npos;
       pos = rec.find(needle, pos + needle.size())) {
    const char c = rec[pos + needle.size()];
    sig.push_back(c == 's' ? 'u' : 'd');  // "spawn" / "retire"
  }
  return sig;
}

}  // namespace

const MeasuredKernel* BenchCalibration::dispatched_kernel() const {
  for (const MeasuredKernel& k : kernels) {
    if (k.active) return &k;
  }
  return kernels.empty() ? nullptr : &kernels.back();
}

BenchCalibration parse_bench_json(const std::string& json) {
  BenchCalibration c;
  bool have_config = false;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"section\":\"kernel_ladder\"") != std::string::npos) {
      MeasuredKernel k;
      k.isa = find_string(line, "isa");
      k.gemm_gops = find_number(line, "gemm_gops", 0);
      k.serve_rps = find_number(line, "serve_rps", 0);
      k.active = line.find("\"active\":true") != std::string::npos;
      c.kernels.push_back(std::move(k));
      continue;
    }
    if (line.find("\"section\":\"cross_process\"") != std::string::npos) {
      // A skipped section (no replica server built) measured nothing.
      if (line.find("\"skipped\":true") != std::string::npos) continue;
      c.has_cross_process = true;
      c.xp_overhead_ratio = find_number(line, "overhead_ratio", 0);
      c.xp_frames_per_writev = find_number(line, "frames_per_writev", 0);
      c.xp_bytes_per_syscall = find_number(line, "bytes_per_syscall", 0);
      c.xp_pool_hit_rate = find_number(line, "pool_hit_rate", 0);
      c.xp_allocs_per_frame = find_number(line, "allocs_per_frame", 0);
      continue;
    }
    if (line.find("\"section\":\"autoscale_trace\"") == std::string::npos) {
      continue;
    }
    if (!have_config) {
      have_config = true;
      c.single_replica_rps = find_number(line, "single_replica_rps", 0);
      c.offered_mean_rps = find_number(line, "offered_mean_rps", 0);
      c.ramp_seconds = find_number(line, "ramp_seconds", 6);
      c.mean_batch = find_number(line, "mean_batch", 0);
      c.mean_dispatch_us = find_number(line, "dispatch_us", 0);
      c.cache_capacity_rows = static_cast<std::size_t>(
          find_number(line, "cache_capacity_rows", 0));
      c.nodes = static_cast<std::size_t>(find_number(line, "nodes", 20000));
      c.skew = find_number(line, "skew", 0.99);
      c.cores = std::max(1.0, find_number(line, "cores", 1));
      c.max_batch_size = static_cast<std::size_t>(
          find_number(line, "max_batch_size", 128));
      c.max_delay_us = find_number(line, "max_delay_us", 500);
      c.shed_budget_ms = find_number(line, "shed_budget_ms", 2);
      c.stats_window_ms = find_number(line, "stats_window_ms", 500);
      c.scale_up_shed = find_number(line, "scale_up_shed", 0.10);
      c.scale_down_idle = find_number(line, "scale_down_idle", 0.90);
      c.sustain_ms = find_number(line, "sustain_ms", 300);
      c.idle_window_ms = find_number(line, "idle_window_ms", 800);
      c.cooldown_ms = find_number(line, "cooldown_ms", 1000);
      c.tick_ms = find_number(line, "tick_ms", 50);
      c.warm_keys =
          static_cast<std::size_t>(find_number(line, "warm_keys", 512));
    }
    MeasuredArm arm;
    arm.fleet = find_string(line, "fleet");
    arm.autoscale = line.find("\"autoscale\":true") != std::string::npos;
    arm.min_replicas =
        static_cast<std::size_t>(find_number(line, "min_replicas", 1));
    arm.max_replicas =
        static_cast<std::size_t>(find_number(line, "max_replicas", 1));
    arm.answered_rps = find_number(line, "answered_rps", 0);
    arm.admitted_p99_us = find_number(line, "admitted_p99_us", 0);
    arm.shed_rate = find_number(line, "shed_rate", 0);
    arm.max_replicas_seen =
        static_cast<std::size_t>(find_number(line, "max_replicas_seen", 0));
    arm.replica_seconds = find_number(line, "replica_seconds", 0);
    arm.event_signature = event_signature_of(line);
    // The bench's events array opens with the initial build (one spawn per
    // starting replica, at t=0); SimResult.events records dynamic
    // membership changes only.  Strip the leading initial spawns so the
    // two signatures compare like for like.
    std::size_t lead = 0;
    while (lead < arm.min_replicas && lead < arm.event_signature.size() &&
           arm.event_signature[lead] == 'u') {
      ++lead;
    }
    arm.event_signature.erase(0, lead);
    // The fixed-min arm's hit rate anchors the cache model: one replica,
    // one shard, no membership churn mixing warm-up regimes.
    if (!arm.autoscale && arm.min_replicas == 1) {
      c.cache_hit_rate = find_number(line, "cache_hit_rate", 0);
    }
    c.arms.push_back(std::move(arm));
  }
  if (!have_config) {
    throw std::runtime_error(
        "parse_bench_json: no autoscale_trace record (run "
        "bench_serving_latency with --json first)");
  }
  if (c.single_replica_rps <= 0 || c.mean_batch <= 0) {
    throw std::runtime_error(
        "parse_bench_json: autoscale_trace record lacks calibration "
        "anchors (single_replica_rps / mean_batch) — bench too old");
  }
  return c;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

CalibrationReport run_calibration(const BenchCalibration& calib,
                                  const CalibrationTolerance& tol) {
  const ServiceModel model = ServiceModel::calibrated(
      calib.single_replica_rps, calib.mean_batch, calib.mean_dispatch_us,
      calib.cache_hit_rate, calib.cores);

  CalibrationReport report;
  report.model = model.params();
  if (const MeasuredKernel* k = calib.dispatched_kernel()) {
    report.kernel_isa = k->isa;
    report.kernel_gemm_gops = k->gemm_gops;
  }
  report.has_cross_process = calib.has_cross_process;
  report.rpc_overhead_ratio = calib.xp_overhead_ratio;
  report.rpc_frames_per_writev = calib.xp_frames_per_writev;
  report.rpc_pool_hit_rate = calib.xp_pool_hit_rate;
  report.rpc_allocs_per_frame = calib.xp_allocs_per_frame;
  // Measured-over-analytic hit correction: the analytic formula assumes a
  // static top-C cache at steady state; the measured run was an LRU from
  // cold.  The ratio folds both gaps into one scale.
  const double analytic = steady_hit_rate(calib.cache_capacity_rows,
                                          calib.nodes, calib.skew, 1);
  report.cache_hit_scale =
      analytic > 0 && calib.cache_hit_rate > 0
          ? std::clamp(calib.cache_hit_rate / analytic, 0.1, 1.5)
          : 1.0;

  // The same staged ramp the bench paced, as a deterministic trace: all
  // kHigh, single-node, no deadlines (drive_ramp's legacy try_submit).
  serve::TraceMixConfig mix;
  mix.num_nodes = calib.nodes;
  mix.skew = calib.skew;
  mix.seed = 53;  // the bench ramp stream's seed; only the node draw uses it
  const double baseline = calib.single_replica_rps;
  const double span = calib.ramp_seconds;
  const auto trace = serve::trace_from_rate(mix, span, [&](double t) {
    const int phase = std::min(2, static_cast<int>(3.0 * t / span));
    return serve::StagedRampPacer::kPhaseMult[phase] * baseline;
  });

  SimFleetConfig base;
  base.policy = serve::RoutingPolicy::kCacheAffinity;
  base.batch.max_batch_size = calib.max_batch_size;
  base.batch.max_delay = std::chrono::microseconds(
      static_cast<std::int64_t>(calib.max_delay_us));
  base.batch.shed_budget = std::chrono::microseconds(
      static_cast<std::int64_t>(calib.shed_budget_ms * 1000));
  base.stats_window = std::chrono::milliseconds(
      static_cast<std::int64_t>(calib.stats_window_ms));
  base.warm_keys = calib.warm_keys;
  base.initial_fill = 0;  // the bench fleets start cold
  base.cache.capacity_rows = calib.cache_capacity_rows;
  base.cache.num_nodes = calib.nodes;
  base.cache.skew = calib.skew;
  base.cache.hit_scale = report.cache_hit_scale;
  base.timeline_every = std::chrono::milliseconds(0);
  base.autoscale.scale_up_shed = calib.scale_up_shed;
  base.autoscale.scale_down_idle = calib.scale_down_idle;
  base.autoscale.sustain = std::chrono::milliseconds(
      static_cast<std::int64_t>(calib.sustain_ms));
  base.autoscale.idle_window = std::chrono::milliseconds(
      static_cast<std::int64_t>(calib.idle_window_ms));
  base.autoscale.cooldown = std::chrono::milliseconds(
      static_cast<std::int64_t>(calib.cooldown_ms));
  base.autoscale.tick =
      std::chrono::milliseconds(static_cast<std::int64_t>(calib.tick_ms));

  report.pass = true;
  for (const MeasuredArm& arm : calib.arms) {
    SimFleetConfig cfg = base;
    cfg.initial_replicas = arm.min_replicas;
    cfg.autoscale.enabled = arm.autoscale;
    cfg.autoscale.min_replicas = arm.min_replicas;
    cfg.autoscale.max_replicas = arm.max_replicas;
    const SimResult sim = FleetSim(cfg, model).run(trace);

    ArmCheck check;
    check.fleet = arm.fleet;
    check.measured_rps = arm.answered_rps;
    check.sim_rps = sim.answered_rps;
    check.rps_ratio =
        arm.answered_rps > 0 ? sim.answered_rps / arm.answered_rps : 0;
    check.measured_p99_us = arm.admitted_p99_us;
    check.sim_p99_us = sim.admitted_latency.p99_us;
    check.p99_ratio = arm.admitted_p99_us > 0
                          ? sim.admitted_latency.p99_us / arm.admitted_p99_us
                          : 0;
    check.measured_events = arm.event_signature;
    check.sim_events = sim.event_signature();
    check.event_edits =
        edit_distance(check.measured_events, check.sim_events);
    check.pass = check.rps_ratio >= tol.rps_lo &&
                 check.rps_ratio <= tol.rps_hi &&
                 check.p99_ratio >= tol.p99_lo &&
                 check.p99_ratio <= tol.p99_hi &&
                 check.event_edits <= tol.max_event_edits;
    report.pass = report.pass && check.pass;
    report.arms.push_back(std::move(check));
  }
  return report;
}

std::string CalibrationReport::to_json(
    const CalibrationTolerance& tol) const {
  std::ostringstream os;
  os << "{\"model\":{\"batch_overhead_us\":" << model.batch_overhead_us
     << ",\"hit_us_per_row\":" << model.hit_us_per_row
     << ",\"miss_extra_us_per_row\":" << model.miss_extra_us_per_row
     << ",\"cores\":" << model.cores << "}"
     << ",\"kernel\":{\"isa\":\"" << kernel_isa
     << "\",\"gemm_gops\":" << kernel_gemm_gops << "}";
  if (has_cross_process) {
    os << ",\"cross_process\":{\"overhead_ratio\":" << rpc_overhead_ratio
       << ",\"frames_per_writev\":" << rpc_frames_per_writev
       << ",\"pool_hit_rate\":" << rpc_pool_hit_rate
       << ",\"allocs_per_frame\":" << rpc_allocs_per_frame << "}";
  }
  os << ",\"cache_hit_scale\":" << cache_hit_scale
     << ",\"tolerance\":{\"rps\":[" << tol.rps_lo << "," << tol.rps_hi
     << "],\"p99\":[" << tol.p99_lo << "," << tol.p99_hi
     << "],\"max_event_edits\":" << tol.max_event_edits << "},\"arms\":[";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmCheck& a = arms[i];
    if (i) os << ",";
    os << "{\"fleet\":\"" << a.fleet << "\",\"measured_rps\":"
       << a.measured_rps << ",\"sim_rps\":" << a.sim_rps
       << ",\"rps_ratio\":" << a.rps_ratio
       << ",\"measured_p99_us\":" << a.measured_p99_us
       << ",\"sim_p99_us\":" << a.sim_p99_us
       << ",\"p99_ratio\":" << a.p99_ratio << ",\"measured_events\":\""
       << a.measured_events << "\",\"sim_events\":\"" << a.sim_events
       << "\",\"event_edits\":" << a.event_edits
       << ",\"pass\":" << (a.pass ? "true" : "false") << "}";
  }
  os << "],\"pass\":" << (pass ? "true" : "false") << "}";
  return os.str();
}

}  // namespace ppgnn::fleetsim
