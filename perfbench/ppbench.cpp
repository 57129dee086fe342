// ppbench: the repository's benchmark binary (see perfbench/README.md).
//
// One invocation runs one workload from one seed:
//
//   ppbench --workload=NAME --seed=N --seconds=S --trace=0|1
//           --dir=RUN_DIR --server-bin=PATH [--trace-out=FILE]
//
// Every input (graph, features, preprocessing, deployed checkpoints,
// request streams, datasets) is generated from --seed BEFORE any clock
// starts.  The run then times set-up (median of kSetupReps repetitions),
// drives the workload for --seconds, checks the program's outputs, and
// prints one JSON object as its last stdout line:
//
//   {"correct":true,"attempted":N,"failed":F,"metrics":{NAME:{"value":V,"unit":U},...}}
//
// --trace=0 reports the end-to-end metrics.  --trace=1 is a separate run of
// the same workload that reports the per-layer metrics instead: it drives
// half its time untraced and half with spans recorded around every call the
// benchmark makes into a layer (the difference is the tracing overhead),
// then times each layer's public entry points on the workload's own
// artifacts.  Spans stay in memory and are written to --trace-out (Chrome
// trace-event JSON) at the end.
//
// A failed output check prints "correct":false with no metrics and exits 1.
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "core/precompute.h"
#include "core/sgc.h"
#include "core/sign.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "graph/generator.h"
#include "loader/cache.h"
#include "loader/shuffler.h"
#include "loader/storage.h"
#include "rpc/buffer.h"
#include "rpc/client.h"
#include "rpc/remote_replica.h"
#include "serve/feature_source.h"
#include "serve/inference_session.h"
#include "serve/replica_set.h"
#include "serve/serve_api.h"
#include "serve/server_stats.h"
#include "serve/workload.h"
#include "tenancy/admission.h"
#include "tenancy/tenant.h"
#include "tensor/cpu_features.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/rng.h"

using namespace ppgnn;
using Clk = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------- basics

const Clk::time_point kEpoch = Clk::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clk::now() -
                                                              kEpoch)
      .count();
}

double seconds_since(Clk::time_point t) {
  return std::chrono::duration<double>(Clk::now() - t).count();
}

// Nearest-rank percentile, p in [0, 100].
template <typename T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  k = std::min(v.size(), std::max<std::size_t>(k, 1)) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double median(std::vector<T> v) {
  return percentile(std::move(v), 50);
}

void log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void log(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "ppbench: ");
  std::vfprintf(stderr, fmt, ap);
  std::fprintf(stderr, "\n");
  va_end(ap);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;         // per-run working directory (must exist)
  std::string server_bin;  // replica_server_cli
  std::string trace_out;   // span file (trace runs)
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    std::string k = s, v;
    const auto eq = s.find('=');
    if (eq != std::string::npos) {
      k = s.substr(0, eq);
      v = s.substr(eq + 1);
    } else if (i + 1 < argc) {
      v = argv[++i];
    }
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--dir") a.dir = v;
    else if (k == "--server-bin") a.server_bin = v;
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty() || a.dir.empty() || a.seconds <= 0) {
    throw std::invalid_argument("--workload, --dir and --seconds > 0 needed");
  }
  return a;
}

// Derives an independent 64-bit seed for one input from the run seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed * 0x9e3779b97f4a7c15ULL + tag);
  return r.next_u64();
}

// ---------------------------------------------------------------- host

// Cumulative (total, steal) jiffies from /proc/stat — steal is CPU time
// the hypervisor gave to other guests while this one wanted it.
std::pair<double, double> cpu_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v, total = 0, steal = 0;
  f >> cpu;
  for (int i = 0; i < 8 && (f >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

// Share of CPU time stolen since `since` (a cpu_jiffies() reading), %.
double steal_pct_since(std::pair<double, double> since) {
  const auto now = cpu_jiffies();
  const double dt = now.first - since.first;
  return dt > 0 ? 100.0 * (now.second - since.second) / dt : 0;
}

// ---------------------------------------------------------------- memory

// A "Vm*:" line of /proc/<pid>/status in MiB (pid 0 = this process).
double proc_status_mb(pid_t pid, const char* key) {
  const std::string path =
      pid ? "/proc/" + std::to_string(pid) + "/status" : "/proc/self/status";
  std::ifstream f(path);
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::stod(line.substr(klen)) / 1024.0;
    }
  }
  return 0;
}

// Restarts this process's VmHWM at its current RSS, so the peak covers
// set-up and the run, not input generation.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

// --------------------------------------------------------------- tracing

struct Span {
  const char* name = nullptr;
  std::int64_t t0 = 0, t1 = 0;  // ns since process start
  std::uint32_t parent = 0;     // 1-based span id, 0 = root
  std::uint64_t req = 0;        // request / step id, 0 = none
};

// Fixed-capacity in-memory span log.  Ids are 1-based indices; a full log
// drops further spans (counted) instead of growing.  Per-request spans are
// `bulk`: they stop kProbeReserve short of capacity, so the layer probes
// that run after the drive always find room.  open/close are lock-free, so
// completion callbacks on server threads may close spans.
class Tracer {
 public:
  static constexpr std::size_t kProbeReserve = 100000;

  explicit Tracer(std::size_t capacity) : spans_(capacity) {}

  std::uint32_t open(const char* name, std::uint32_t parent = 0,
                     std::uint64_t req = 0, bool bulk = false) {
    const std::size_t limit =
        bulk ? spans_.size() - kProbeReserve : spans_.size();
    if (bulk && next_.load(std::memory_order_relaxed) >= limit) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= limit) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    spans_[i] = Span{name, now_ns(), 0, parent, req};
    return static_cast<std::uint32_t>(i + 1);
  }
  void close(std::uint32_t id) {
    if (id) spans_[id - 1].t1 = now_ns();
  }
  std::uint32_t add(const char* name, std::int64_t t0, std::int64_t t1,
                    std::uint32_t parent = 0, std::uint64_t req = 0,
                    bool bulk = false) {
    const std::uint32_t id = open(name, parent, req, bulk);
    if (id) {
      spans_[id - 1].t0 = t0;
      spans_[id - 1].t1 = t1;
    }
    return id;
  }

  std::size_t size() const {
    return std::min(next_.load(), spans_.size());
  }
  std::size_t dropped() const { return dropped_.load(); }

  // Durations (us) of every closed span called `name`.
  std::vector<double> durations_us(const char* name) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < size(); ++i) {
      const Span& s = spans_[i];
      if (s.t1 > 0 && std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.t1 - s.t0) / 1e3);
      }
    }
    return out;
  }

  // Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  // At most kWritePerName spans of one name go to the file (the request
  // spans of a saturated loop would otherwise make it hundreds of MB);
  // every span stays in memory for the metrics.
  void write(const std::string& path) const {
    constexpr std::size_t kWritePerName = 50000;
    std::map<std::string, std::size_t> written;
    std::ofstream f(path);
    f << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < size(); ++i) {
      const Span& s = spans_[i];
      if (s.t1 == 0 || ++written[s.name] > kWritePerName) continue;
      f << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << num(s.t0 / 1e3)
        << ",\"dur\":" << num((s.t1 - s.t0) / 1e3) << ",\"args\":{\"id\":"
        << (i + 1) << ",\"parent\":" << s.parent << ",\"req\":" << s.req
        << "}}";
      first = false;
    }
    f << "],\"dropped\":" << dropped() << "}\n";
  }

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> dropped_{0};
};

// Null unless this is a traced run AND the traced half is being driven.
Tracer* g_tracer = nullptr;

struct Scoped {
  explicit Scoped(const char* name, std::uint32_t parent = 0,
                  std::uint64_t req = 0, bool bulk = false)
      : id(g_tracer ? g_tracer->open(name, parent, req, bulk) : 0) {}
  ~Scoped() {
    if (g_tracer) g_tracer->close(id);
  }
  std::uint32_t id;
};

// Times `fn` `reps` times, each call under its own span; returns the
// median call duration in microseconds.
double timed_calls(Tracer& tr, const char* name, std::size_t reps,
                   const std::function<void()>& fn) {
  fn();  // first call pays lazy set-up; not a sample
  for (std::size_t i = 0; i < reps; ++i) {
    const std::uint32_t id = tr.open(name);
    fn();
    tr.close(id);
  }
  return median(tr.durations_us(name));
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failed_checks;
  std::vector<std::pair<std::string, std::string>> record;  // key -> json
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, v, unit});
  }
  void check(bool ok, const std::string& what) {
    log("check %s: %s", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) failed_checks.push_back(what);
  }
  void note(const std::string& key, double v) { record.push_back({key, num(v)}); }
  void note_str(const std::string& key, const std::string& v) {
    record.push_back({key, "\"" + v + "\""});
  }
};

std::string checks_json(const Report& r) {
  std::string s = "[";
  for (std::size_t i = 0; i < r.failed_checks.size(); ++i) {
    s += (i ? ",\"" : "\"") + r.failed_checks[i] + "\"";
  }
  return s + "]";
}

void print_report(const Args& a, const Report& r) {
  const bool ok = r.failed_checks.empty();
  std::string rec = "{\"workload\":\"" + a.workload + "\",\"seed\":" +
                    std::to_string(a.seed) + ",\"trace\":" +
                    (a.trace ? "1" : "0") +
                    ",\"failed_checks\":" + checks_json(r);
  for (const auto& [k, v] : r.record) rec += ",\"" + k + "\":" + v;
  std::printf("record %s}\n", rec.c_str());
  std::string out = std::string("{\"correct\":") + (ok ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) +
                    ",\"metrics\":{";
  if (ok) {
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const Metric& m = r.metrics[i];
      out += (i ? ",\"" : "\"") + m.name + "\":{\"value\":" + num(m.value) +
             ",\"unit\":\"" + m.unit + "\"}";
    }
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------- serving inputs

// The serving testbed: 100k-node SBM graph with heavy-tailed hubs, SIGN
// with 2 hops and hidden 32, deployed int8.
constexpr std::size_t kServeNodes = 100000;
constexpr std::size_t kServeFeat = 32;
constexpr std::size_t kServeClasses = 16;
constexpr std::size_t kServeHops = 2;
constexpr std::size_t kServeHidden = 32;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kMaxBatch = 128;
constexpr std::chrono::microseconds kMaxDelay{200};
constexpr std::size_t kClosedWindow = 256;   // in-flight envelopes
constexpr std::size_t kWarmRequests = 50000; // fixed-count warm-up drive
constexpr std::size_t kSetupReps = 3;
// Open loop: a fixed absolute offered rate (never re-calibrated per run)
// and the deadline budget each request carries.  The budget takes the
// batcher's deadline path without ever firing on a working host: a miss
// would take a multi-second stall, so every run answers every request and
// failures stay 0 whatever the host's load.
constexpr double kOpenRate = 8000;
constexpr std::chrono::milliseconds kOpenDeadline{2000};
// The generator's p99 lag behind its schedule must stay within this.
constexpr std::chrono::milliseconds kMaxOpenLag{25};
// Share of --seconds the open-loop workload spends at its fixed rate; the
// rest is a closed-loop saturation phase on the same fleet.
constexpr double kOpenShare = 0.7;
// Per-replica LRU over the int8 store: ~3% of rows.
constexpr double kCacheRowsFrac = 0.03;
constexpr std::uint32_t kTenantWeights[4] = {2, 1, 1, 1};
// Warm-up, saturation and check traffic bill this tenant, which has no
// contract (unmetered): it must not drain the four tenants' buckets.
constexpr std::uint32_t kUnmeteredTenant = 100;
constexpr std::size_t kSampleNodes = 2000;   // accuracy sample
constexpr std::size_t kIdentityNodes = 256;  // bit-identity sample
constexpr std::size_t kStreamLen = 1 << 20;  // cycled by the closed loop

std::unique_ptr<core::PpModel> serve_shell(std::uint64_t seed) {
  Rng rng(seed);
  core::SignConfig sc;
  sc.feat_dim = kServeFeat;
  sc.hops = kServeHops;
  sc.hidden = kServeHidden;
  sc.classes = kServeClasses;
  sc.mlp_layers = 2;
  sc.dropout = 0.f;
  return std::make_unique<core::Sign>(sc, rng);
}

struct ServeInputs {
  core::Preprocessed pre;
  std::string ckpt;       // int8 deployment
  std::string ckpt_fp32;  // fp32 reference
  std::string store;      // int8 FeatureFileStore (empty if none)
  std::vector<std::int64_t> stream, warm, sample;
  std::vector<std::uint32_t> tenant_of;  // open loop, per request
  double gen_seconds = 0;
};

ServeInputs make_serve_inputs(const Args& a, bool with_store) {
  const auto t0 = Clk::now();
  ServeInputs in;
  graph::SbmConfig sc;
  sc.num_nodes = kServeNodes;
  sc.num_classes = kServeClasses;
  sc.avg_degree = 10.0;
  sc.degree_power = 1.6;
  sc.seed = sub_seed(a.seed, 1);
  std::vector<std::int32_t> labels;
  {
    graph::SbmGraph sbm = graph::generate_sbm(sc);
    graph::FeatureConfig fc;
    fc.dim = kServeFeat;
    fc.seed = sub_seed(a.seed, 2);
    const Tensor x = graph::generate_features(sbm.labels, kServeClasses, fc);
    core::PrecomputeConfig pc;
    pc.hops = kServeHops;
    in.pre = core::precompute(sbm.graph, x, pc);
    labels = std::move(sbm.labels);
  }
  in.ckpt = a.dir + "/model_int8.ckpt";
  in.ckpt_fp32 = a.dir + "/model_fp32.ckpt";
  {
    auto model = serve_shell(sub_seed(a.seed, 3));
    core::quick_train(*model, in.pre, labels, 2, 1e-2f, 512,
                      sub_seed(a.seed, 4));
    serve::save_deployed_model(*model, in.ckpt_fp32);
    serve::save_deployed_model(*model, in.ckpt, serve::Precision::kInt8);
  }
  if (with_store) {
    in.store = a.dir + "/store";
    loader::FeatureFileStore::create(in.store, in.pre.hop_features,
                                     loader::RowCodec::kInt8);
  }
  serve::ZipfWorkloadConfig wc;
  wc.num_nodes = kServeNodes;
  wc.skew = 0.99;
  wc.num_requests = kStreamLen;
  wc.seed = sub_seed(a.seed, 5);
  in.stream = serve::zipf_stream(wc);
  wc.num_requests = kWarmRequests;
  wc.seed = sub_seed(a.seed, 6);
  in.warm = serve::zipf_stream(wc);
  Rng rng(sub_seed(a.seed, 7));
  in.sample.resize(kSampleNodes);
  for (auto& n : in.sample) {
    n = static_cast<std::int64_t>(rng.uniform_int(kServeNodes));
  }
  in.tenant_of.resize(kStreamLen);
  for (auto& t : in.tenant_of) {
    const std::uint64_t r = rng.uniform_int(5);  // weights 2:1:1:1
    t = r < 2 ? 0 : static_cast<std::uint32_t>(r - 1);
  }
  in.gen_seconds = seconds_since(t0);
  return in;
}

std::size_t cache_bytes(std::size_t row_bytes) {
  return static_cast<std::size_t>(kCacheRowsFrac * kServeNodes) * row_bytes;
}

// ---------------------------------------------------------------- fleets

struct Fleet {
  Fleet() = default;
  Fleet(const Fleet&) = delete;  // the spawn recipe holds its address
  Fleet& operator=(const Fleet&) = delete;

  std::unique_ptr<serve::FleetManager> fm;
  std::vector<std::shared_ptr<rpc::RemoteReplica>> remotes;
  std::vector<std::size_t> ordinals;
  std::string log_path;
  std::string socket_dir;

  void stop() {
    if (fm) fm->stop();
    fm.reset();
    remotes.clear();
  }
};

std::unique_ptr<tenancy::TenantRegistry> make_tenants() {
  auto reg = std::make_unique<tenancy::TenantRegistry>();
  for (std::uint32_t t = 0; t < 4; ++t) {
    tenancy::TenantContract c;
    c.weight = kTenantWeights[t];
    // Quota at twice the tenant's share of the offered rate: never binding
    // at the fixed rate, so a refusal means the gate misbehaved.
    c.rate_per_s = 2.0 * kOpenRate * kTenantWeights[t] / 5.0;
    reg->set_contract(t, c);
  }
  return reg;
}

// Heap-allocated: the spawn recipe keeps a pointer to the Fleet.
std::unique_ptr<Fleet> build_fleet(const Args& a, const ServeInputs& in,
                                   bool xproc,
                                   const tenancy::TenantRegistry* tenants,
                                   int rep) {
  auto owner = std::make_unique<Fleet>();
  Fleet& f = *owner;
  serve::FleetConfig fc;
  fc.precision = serve::Precision::kInt8;
  fc.batch.max_batch_size = kMaxBatch;
  fc.batch.max_delay = kMaxDelay;
  if (!xproc) {
    fc.policy = serve::RoutingPolicy::kRoundRobin;
    const core::Preprocessed* pre = &in.pre;
    serve::FleetBuilder builder(
        in.ckpt, [](std::size_t i) { return serve_shell(1000 + i); },
        [pre](std::size_t) {
          return std::unique_ptr<serve::FeatureSource>(
              std::make_unique<serve::MemorySource>(*pre));
        },
        serve::Precision::kInt8);
    f.fm = std::make_unique<serve::FleetManager>(std::move(builder),
                                                 kReplicas, fc);
    return owner;
  }
  fc.policy = serve::RoutingPolicy::kCacheAffinity;
  fc.tenants = tenants;
  f.socket_dir = a.dir;
  f.log_path = a.dir + "/replica-" + std::to_string(rep) + ".log";
  rpc::ReplicaSpawnConfig scfg;
  scfg.server_binary = a.server_bin;
  scfg.socket_dir = f.socket_dir;
  scfg.log_path = f.log_path;
  const std::size_t row_bytes = 3 * (sizeof(float) + kServeFeat);
  scfg.server_args = {
      "--checkpoint=" + in.ckpt,
      "--store=" + in.store,
      "--nodes=" + std::to_string(kServeNodes),
      "--model=SIGN",
      "--hops=" + std::to_string(kServeHops),
      "--feat-dim=" + std::to_string(kServeFeat),
      "--hidden=" + std::to_string(kServeHidden),
      "--classes=" + std::to_string(kServeClasses),
      "--precision=int8",
      "--max-batch=" + std::to_string(kMaxBatch),
      "--max-delay-us=" + std::to_string(kMaxDelay.count()),
      "--cache=lru",
      "--cache-mb=" + num(static_cast<double>(cache_bytes(row_bytes)) /
                          (1024.0 * 1024.0)),
  };
  Fleet* fp = &f;
  f.fm = std::make_unique<serve::FleetManager>(
      [scfg, fp](std::size_t ordinal) {
        std::string err;
        auto replica = rpc::spawn_replica_process(scfg, ordinal, &err);
        if (!replica) {
          log("spawn replica %zu failed: %s", ordinal, err.c_str());
        } else {
          fp->remotes.push_back(replica);
          fp->ordinals.push_back(ordinal);
        }
        return replica;
      },
      kReplicas, fc);
  if (f.remotes.size() != kReplicas) {
    throw std::runtime_error("replica processes did not come up");
  }
  return owner;
}

// ---------------------------------------------------------------- drives

struct TenantCount {
  std::size_t attempted = 0, answered = 0, failed = 0;
};

struct DriveResult {
  double seconds = 0;
  std::size_t attempted = 0, answered = 0, failed = 0;
  // Answered requests in time order — completion (closed loop) or
  // scheduled send (open loop) — with that time.
  std::vector<float> lat_us;
  std::vector<std::int64_t> t_ns;
  std::map<std::uint32_t, TenantCount> tenants;
  std::vector<double> lag_us;  // open loop: send time minus schedule
  double send_seconds = 0;     // open loop: first to last send
};

// Robust per-run statistics.  Scheduling stalls of 1-10 ms (the fleet's
// own pool wake-ups, CPU steal) delay every request in flight, so a
// whole-run percentile counts how many stalls a run happened to catch.
// Instead the samples, in time order, are cut into consecutive windows and
// the median over windows of a per-window statistic is reported: a stall
// moves the windows it lands in, not the run's figure.
//
// Latency windows hold a fixed count of requests — 500, five beyond the
// window's p99 — so at any rate one stall touches one or two windows.
// Rate windows are a fixed 62.5 ms.
constexpr std::size_t kWindowRequests = 500;
constexpr std::int64_t kWindowNs = 62500000;

// Median over consecutive windows of `window` samples of each window's
// p-th percentile; the whole-run percentile when not one window fills.
template <typename T>
double windowed_percentile(const std::vector<T>& v, std::size_t window,
                           double p) {
  std::vector<double> per;
  for (std::size_t lo = 0; lo + window <= v.size(); lo += window) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(lo);
    per.push_back(percentile(
        std::vector<T>(first, first + static_cast<std::ptrdiff_t>(window)),
        p));
  }
  return per.empty() ? percentile(v, p) : median(per);
}

// Median over 62.5 ms windows of answered requests per second.
double windowed_rate(const DriveResult& r) {
  if (r.t_ns.empty()) return 0;
  const std::int64_t t0 = r.t_ns.front();
  const std::size_t full =
      static_cast<std::size_t>((r.t_ns.back() - t0) / kWindowNs);
  std::vector<double> per(full, 0.0);
  for (const std::int64_t t : r.t_ns) {
    const std::size_t k = static_cast<std::size_t>((t - t0) / kWindowNs);
    if (k < full) per[k] += 1e9 / kWindowNs;
  }
  return per.empty() ? r.answered / r.seconds : median(per);
}

// Closed loop from one thread: keeps `window` single-node envelopes in
// flight until `seconds` pass or `max_requests` were sent, then drains.
DriveResult drive_closed(serve::FleetManager& fm,
                         const std::vector<std::int64_t>& stream,
                         std::size_t& cursor, std::size_t window,
                         double seconds, std::size_t max_requests,
                         std::uint32_t tenant) {
  DriveResult r;
  r.lat_us.reserve(std::min<std::size_t>(max_requests, 4u << 20));
  r.t_ns.reserve(r.lat_us.capacity());
  constexpr std::size_t kRing = 1 << 20;  // send stamps, by id
  std::vector<std::int64_t> sent(kRing);
  std::vector<std::uint32_t> span_of(g_tracer ? kRing : 0);
  serve::CompletionQueue cq;
  const auto t0 = Clk::now();
  const auto t_end =
      t0 + std::chrono::duration_cast<Clk::duration>(
               std::chrono::duration<double>(seconds));
  std::size_t inflight = 0;
  bool sending = true;
  serve::ServeResponse resp;
  while (sending || inflight > 0) {
    while (sending && inflight < window) {
      if (r.attempted >= max_requests ||
          ((r.attempted & 63) == 0 && Clk::now() >= t_end)) {
        sending = false;
        break;
      }
      serve::ServeRequest req;
      req.id = r.attempted;
      req.tenant = tenant;
      req.nodes.push_back(stream[cursor++ % stream.size()]);
      const std::size_t slot = req.id & (kRing - 1);
      sent[slot] = now_ns();
      if (g_tracer) {
        span_of[slot] = g_tracer->open("serve.request", 0, req.id + 1, true);
        Scoped s("serve.submit", span_of[slot], req.id + 1, true);
        fm.submit(std::move(req), cq);
      } else {
        fm.submit(std::move(req), cq);
      }
      ++r.attempted;
      ++inflight;
    }
    if (inflight == 0) break;
    if (!cq.wait_for(&resp, std::chrono::milliseconds(30000))) {
      fm.stop();  // answers what is left before `cq` goes out of scope
      throw std::runtime_error("closed loop: no completion within 30 s");
    }
    --inflight;
    const std::size_t slot = resp.id & (kRing - 1);
    if (g_tracer) g_tracer->close(span_of[slot]);
    if (resp.status == serve::ServeStatus::kOk) {
      ++r.answered;
      const std::int64_t t = now_ns();
      r.lat_us.push_back(static_cast<float>(t - sent[slot]) / 1e3f);
      r.t_ns.push_back(t);
    } else {
      ++r.failed;
    }
  }
  r.seconds = seconds_since(t0);
  TenantCount& tc = r.tenants[tenant];
  tc.attempted = r.attempted;
  tc.answered = r.answered;
  tc.failed = r.failed;
  return r;
}

// Open loop from one thread at a fixed rate.  Every request carries a
// deadline and its tenant; latency runs from the scheduled send, so a
// generator stall is charged to the requests it delayed.
DriveResult drive_open(serve::FleetManager& fm, const ServeInputs& in,
                       std::size_t& cursor, double rate, double seconds) {
  const std::size_t n = static_cast<std::size_t>(rate * seconds);
  DriveResult r;
  std::vector<std::int64_t> sched(n), done(n, 0);
  std::vector<std::uint8_t> status(n, 0);
  std::vector<std::uint32_t> span_of(g_tracer ? n : 0);
  std::atomic<std::size_t> completed{0};
  serve::CompletionQueue cq([&](serve::ServeResponse&& resp) {
    const std::size_t i = resp.id;
    done[i] = now_ns();
    status[i] = static_cast<std::uint8_t>(resp.status);
    if (g_tracer) g_tracer->close(span_of[i]);
    completed.fetch_add(1, std::memory_order_release);
  });
  r.lag_us.resize(n);
  // Sleep, never spin, between sends (a spinning generator would take a
  // core from the fleet); a 1 ns timer slack keeps the oversleep small.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::int64_t start = now_ns() + 1000000;
  const double period_ns = 1e9 / rate;
  for (std::size_t i = 0; i < n; ++i) {
    sched[i] = start + static_cast<std::int64_t>(period_ns * i);
    std::int64_t t = now_ns();
    if (t < sched[i]) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(sched[i] - t));
      t = now_ns();
    }
    r.lag_us[i] = static_cast<double>(t - sched[i]) / 1e3;
    serve::ServeRequest req;
    req.id = i;
    req.tenant = in.tenant_of[cursor % in.tenant_of.size()];
    req.nodes.push_back(in.stream[cursor++ % in.stream.size()]);
    req.deadline = kEpoch + std::chrono::nanoseconds(sched[i]) + kOpenDeadline;
    ++r.tenants[req.tenant].attempted;
    if (g_tracer) {
      span_of[i] = g_tracer->add("serve.request", sched[i], 0, 0, i + 1, true);
      Scoped s("serve.submit", span_of[i], i + 1, true);
      fm.submit(std::move(req), cq);
    } else {
      fm.submit(std::move(req), cq);
    }
  }
  r.send_seconds = static_cast<double>(now_ns() - sched[0]) / 1e9;
  const auto t_wait = Clk::now();
  while (completed.load(std::memory_order_acquire) < n) {
    if (seconds_since(t_wait) > 30) {
      fm.stop();  // answers what is left before `cq` goes out of scope
      throw std::runtime_error("open loop: responses missing after 30 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  r.seconds = static_cast<double>(now_ns() - start) / 1e9;
  r.attempted = n;
  r.lat_us.reserve(n);
  r.t_ns.reserve(n);
  std::size_t c2 = cursor - n;
  for (std::size_t i = 0; i < n; ++i, ++c2) {
    TenantCount& tc = r.tenants[in.tenant_of[c2 % in.tenant_of.size()]];
    if (status[i] == static_cast<std::uint8_t>(serve::ServeStatus::kOk)) {
      ++r.answered;
      ++tc.answered;
      r.lat_us.push_back(static_cast<float>(done[i] - sched[i]) / 1e3f);
      r.t_ns.push_back(sched[i]);
    } else {
      ++r.failed;
      ++tc.failed;
    }
  }
  return r;
}

// ------------------------------------------------------ serving checks

// Fleet answers must be bit-identical to one InferenceSession over the
// same checkpoint and features.
bool fleet_matches_session(serve::FleetManager& fm,
                           serve::InferenceSession& ref,
                           const std::vector<std::int64_t>& nodes) {
  serve::ServeRequest req;
  req.id = 1;
  req.tenant = kUnmeteredTenant;
  req.nodes = nodes;
  const serve::ServeResponse resp = fm.infer_request(std::move(req));
  if (resp.status != serve::ServeStatus::kOk ||
      resp.logits.size() != nodes.size()) {
    return false;
  }
  const Tensor want = ref.infer_nodes(nodes);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (resp.logits[i].size() != want.cols() ||
        std::memcmp(resp.logits[i].data(), want.row(i),
                    want.cols() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<serve::InferenceSession> reference_session(
    const ServeInputs& in, bool int8, bool from_store) {
  std::unique_ptr<serve::FeatureSource> src;
  if (from_store) {
    src = std::make_unique<serve::FileStoreSource>(
        loader::FeatureFileStore::open(in.store, kServeNodes, kServeHops + 1,
                                       kServeFeat, loader::RowCodec::kInt8));
  } else {
    src = std::make_unique<serve::MemorySource>(in.pre);
  }
  serve::FleetBuilder b(
      int8 ? in.ckpt : in.ckpt_fp32,
      [](std::size_t) { return serve_shell(7); },
      [&src](std::size_t) { return std::move(src); },
      int8 ? serve::Precision::kInt8 : serve::Precision::kFp32);
  return b.build(0);
}

// Sums "(N admitted, S shed, B batches)" over a replica log's exit lines.
void replica_log_batches(const std::string& path, double* admitted,
                         double* batches) {
  std::ifstream f(path);
  std::string line;
  *admitted = *batches = 0;
  while (std::getline(f, line)) {
    const auto p = line.find(" exiting rc=");
    if (p == std::string::npos) continue;
    unsigned long long ad = 0, sh = 0, ba = 0;
    const auto q = line.find('(', p);
    if (q != std::string::npos &&
        std::sscanf(line.c_str() + q, "(%llu admitted, %llu shed, %llu batches)",
                    &ad, &sh, &ba) == 3) {
      *admitted += static_cast<double>(ad);
      *batches += static_cast<double>(ba);
    }
  }
}

// ------------------------------------------------- layer probes (shared)

// The int8 GEMM at the serving model's widest Linear: [m, (R+1)F] x
// [hidden, (R+1)F]^T.  Reports the dispatched arm through `arm`.
void probe_gemm_s8(Tracer& tr, Report& rep, std::size_t m, std::string* arm) {
  const std::size_t k = (kServeHops + 1) * kServeFeat, n = kServeHidden;
  Rng rng(97);
  const Tensor w = Tensor::normal({n, k}, rng, 0.f, 0.1f);
  const Tensor x = Tensor::normal({m, k}, rng, 0.f, 1.f);
  const Tensor bias = Tensor::normal({n}, rng, 0.f, 0.1f);
  const QuantizedMatrix wq = quantize_per_row(w);
  const QuantizedActs xq = quantize_acts_per_row(x);
  *arm = isa_name(gemm_dispatch_arm(wq));
  Tensor c;
  const double us = timed_calls(tr, "tensor.gemm_s8", 2000, [&] {
    gemm_s8_nt(xq, wq, c, &bias);
  });
  const double ops = 2.0 * static_cast<double>(m * n * k);
  const double bytes = static_cast<double>(m * k + 8 * m + n * k + 8 * n +
                                           4 * n + 4 * m * n);
  rep.add("tensor.gemm_s8.gops", ops / (us * 1e3), "Gop/s");
  rep.add("tensor.gemm_s8.ops_per_call", ops, "op");
  rep.add("tensor.gemm_s8.bytes_per_call", bytes, "B");
}

// fp32 GEMM at SIGN's training shape: one hop branch of the storage
// workloads, [512, 384] x [384, 256].
void probe_gemm_f32(Tracer& tr, Report& rep) {
  Rng rng(98);
  const Tensor a = Tensor::normal({512, 384}, rng, 0.f, 1.f);
  const Tensor b = Tensor::normal({384, 256}, rng, 0.f, 0.1f);
  const double us =
      timed_calls(tr, "tensor.gemm_f32", 30, [&] { (void)matmul(a, b); });
  rep.add("tensor.gemm_f32.gflops", 2.0 * 512 * 384 * 256 / (us * 1e3),
          "Gflop/s");
}

void probe_tenancy(Tracer& tr, Report& rep) {
  const auto reg = make_tenants();
  tenancy::TenantAdmission adm(*reg, nullptr);
  constexpr std::size_t kCalls = 1000000;
  std::size_t admitted = 0;
  const std::uint32_t id = tr.open("tenancy.try_admit x1M");
  for (std::size_t i = 0; i < kCalls; ++i) {
    admitted += adm.try_admit(static_cast<std::uint32_t>(i & 3), 1,
                              static_cast<double>(i) * 1e-6);
  }
  tr.close(id);
  const double us = median(tr.durations_us("tenancy.try_admit x1M"));
  rep.add("tenancy.admit_ns", us * 1e3 / kCalls, "ns");
  if (admitted == 0) rep.check(false, "tenancy probe admitted nothing");
}

void probe_stats(Tracer& tr, Report& rep) {
  constexpr std::size_t kRecords = 1000000;
  ::malloc_trim(0);
  const double rss0 = proc_status_mb(0, "VmRSS:");
  serve::ServerStats st;
  const std::uint32_t id = tr.open("serve.stats.record x1M");
  for (std::size_t i = 0; i < kRecords; ++i) {
    st.record(100.0 + static_cast<double>(i & 1023), 0);
  }
  tr.close(id);
  const double rss1 = proc_status_mb(0, "VmRSS:");
  const double us = median(tr.durations_us("serve.stats.record x1M"));
  rep.add("serve.stats.record_ns", us * 1e3 / kRecords, "ns");
  rep.add("serve.stats.bytes_per_record",
          (rss1 - rss0) * 1024.0 * 1024.0 / kRecords, "B");
}

// Layers a workload never calls report 0 (see README: "not exercised").
void add_zero(Report& rep, std::initializer_list<std::pair<const char*,
                                                           const char*>> ms) {
  for (const auto& [n, u] : ms) rep.add(n, 0.0, u);
}

void add_tracing_overhead(Report& rep, double untraced, double traced,
                          bool higher_is_better, std::size_t spans,
                          std::size_t dropped) {
  const double worse = higher_is_better ? (untraced - traced) / untraced
                                        : (traced - untraced) / untraced;
  rep.add("trace.overhead_pct", 100.0 * worse, "%");
  rep.add("trace.spans", static_cast<double>(spans), "count");
  rep.note("trace_untraced_primary", untraced);
  rep.note("trace_traced_primary", traced);
  rep.note("trace_dropped_spans", static_cast<double>(dropped));
}

// ------------------------------------------------------ serve workloads

void run_serve(const Args& a, bool xproc, Report& rep, Tracer* tracer) {
  log("generating inputs (seed %llu)",
      static_cast<unsigned long long>(a.seed));
  ServeInputs in = make_serve_inputs(a, xproc);
  rep.note("input_gen_s", in.gen_seconds);
  const auto tenants = xproc ? make_tenants() : nullptr;

  // Every drive's envelopes must each get exactly one response.
  const auto check_tenants = [&rep](const DriveResult& d, const char* phase) {
    for (const auto& [t, c] : d.tenants) {
      rep.check(c.answered + c.failed == c.attempted,
                std::string(phase) + ", tenant " + std::to_string(t) +
                    ": answered + failed == attempted (" +
                    std::to_string(c.answered) + " + " +
                    std::to_string(c.failed) + " vs " +
                    std::to_string(c.attempted) + ")");
    }
  };

  reset_peak_rss();
  std::vector<double> setup;
  std::unique_ptr<Fleet> owner;
  std::size_t cursor = 0;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    if (owner) owner->stop();
    const auto t0 = Clk::now();
    owner = build_fleet(a, in, xproc, tenants.get(), static_cast<int>(r));
    Fleet& fleet = *owner;
    std::size_t wc = 0;
    check_tenants(drive_closed(*fleet.fm, in.warm, wc, kClosedWindow, 1e9,
                               kWarmRequests, kUnmeteredTenant),
                  "warm-up");
    setup.push_back(seconds_since(t0));
    log("setup %zu: %.3f s", r, setup.back());
  }
  Fleet& fleet = *owner;
  const serve::StageGauges st0 = fleet.fm->aggregate_stages();
  const double batches0 = static_cast<double>(fleet.fm->aggregate_batches());
  const double parts0 = batches0 * fleet.fm->aggregate_mean_batch_size();

  // Timed phase(s).  A traced run splits --seconds into an untraced and a
  // traced half; the untraced half alone feeds the overhead comparison.
  const int halves = a.trace ? 2 : 1;
  const auto jiffies0 = cpu_jiffies();
  DriveResult main_r, sat_r;
  double primary[2] = {0, 0};
  for (int h = 0; h < halves; ++h) {
    g_tracer = (a.trace && h == 1) ? tracer : nullptr;
    const double secs = a.seconds / halves;
    if (!xproc) {
      main_r = drive_closed(*fleet.fm, in.stream, cursor, kClosedWindow, secs,
                            ~std::size_t{0}, 0);
      check_tenants(main_r, "closed loop");
      primary[h] = windowed_rate(main_r);
    } else {
      main_r = drive_open(*fleet.fm, in, cursor, kOpenRate, secs * kOpenShare);
      check_tenants(main_r, "open loop");
      primary[h] = percentile(main_r.lat_us, 50);
      if (!a.trace) {
        sat_r = drive_closed(*fleet.fm, in.stream, cursor, kClosedWindow,
                             secs * (1 - kOpenShare), ~std::size_t{0},
                             kUnmeteredTenant);
        check_tenants(sat_r, "saturation");
      }
    }
    g_tracer = nullptr;
  }

  rep.note("host_steal_pct", steal_pct_since(jiffies0));

  // ---- output checks (every run)
  auto ref_int8 = reference_session(in, true, xproc);
  std::vector<std::int64_t> ident(in.sample.begin(),
                                  in.sample.begin() + kIdentityNodes);
  rep.check(fleet_matches_session(*fleet.fm, *ref_int8, ident),
            "fleet logits bit-identical to one InferenceSession on " +
                std::to_string(kIdentityNodes) + " nodes");
  if (xproc) {
    const double lag99 = percentile(main_r.lag_us, 99);
    const double lagmax = percentile(main_r.lag_us, 100);
    rep.note("open_lag_p99_us", lag99);
    rep.note("open_lag_max_us", lagmax);
    // The generator must hold the fixed rate: a p99 send lag past
    // kMaxOpenLag, or a rate more than 1% short, is no longer the workload
    // this benchmark defines.
    const double sent_rps = (main_r.attempted - 1) / main_r.send_seconds;
    rep.note("open_offered_rps", sent_rps);
    rep.check(lag99 <= 1e3 * kMaxOpenLag.count(),
              "open-loop generator p99 lag " + num(lag99) + " us <= " +
                  num(1e3 * kMaxOpenLag.count()) + " us");
    rep.check(sent_rps >= 0.99 * kOpenRate,
              "open-loop offered rate " + num(sent_rps) + " >= 0.99 x " +
                  num(kOpenRate));
  }
  const double peak_rss = [&] {
    double mb = proc_status_mb(0, "VmHWM:");
    for (const auto& r : fleet.remotes) mb += proc_status_mb(r->pid(), "VmHWM:");
    return mb;
  }();

  // ---- end-to-end metrics
  if (!a.trace) {
    auto ref_fp32 = reference_session(in, false, false);
    const serve::PrecisionDrift drift =
        serve::compare_precision(*ref_fp32, *ref_int8, in.sample);
    const DriveResult& thr = xproc ? sat_r : main_r;
    const double rps = windowed_rate(thr);
    const double p50 = percentile(main_r.lat_us, 50);
    const double p99 = windowed_percentile(main_r.lat_us, kWindowRequests, 99);
    const std::size_t attempted = main_r.attempted + sat_r.attempted;
    const std::size_t failed = main_r.failed + sat_r.failed;
    rep.attempted = attempted;
    rep.failed = failed;
    rep.add("throughput_rps", rps, "1/s");
    rep.add("p50_us", p50, "us");
    rep.add("p99_us", p99, "us");
    rep.add("answered_frac",
            static_cast<double>(main_r.answered) / main_r.attempted, "1");
    rep.add("accuracy", drift.top1_agreement, "1");
    rep.add("setup_s", median(setup), "s");
    rep.add("peak_rss_mb", peak_rss, "MiB");
    rep.add("samples_per_s", rps, "1/s");
    rep.add("step_p50_ms", p50 / 1e3, "ms");
    rep.note("latency_samples", static_cast<double>(main_r.lat_us.size()));
    rep.note("p99_all_samples_us", percentile(main_r.lat_us, 99));
    rep.note("rps_whole_phase", thr.answered / thr.seconds);
    rep.note("max_logit_err", drift.max_logit_err);
    if (xproc) rep.note("quota_refused", fleet.fm->quota_refused_total());
    fleet.stop();
    return;
  }

  // ---- per-layer metrics (traced run)
  rep.attempted = main_r.attempted;
  rep.failed = main_r.failed;
  add_tracing_overhead(rep, primary[0], primary[1], !xproc, tracer->size(),
                       tracer->dropped());
  const serve::StageGauges st1 = fleet.fm->aggregate_stages();
  const double disp = static_cast<double>(st1.dispatched - st0.dispatched);
  const double queue_us =
      disp > 0 ? ((st1.admission_sum_us - st0.admission_sum_us) +
                  (st1.dispatch_sum_us - st0.dispatch_sum_us)) / disp
               : 0;
  const double compute_us =
      disp > 0 ? (st1.compute_sum_us - st0.compute_sum_us) / disp : 0;
  const std::size_t quota_refused = xproc ? fleet.fm->quota_refused_total() : 0;
  rpc::RpcStats rs;
  double rtt_us = 0;
  double mean_batch = 0;
  if (xproc) {
    rs = fleet.fm->aggregate_rpc_stats();
    // Idle round trip: one 1-node call at a time on a fresh connection.
    rpc::RpcClientConfig cc;
    cc.address = "unix:" + fleet.socket_dir + "/replica-" +
                 std::to_string(fleet.ordinals.front()) + ".sock";
    rpc::RpcClient client(cc);
    rpc::WireHelloAck ack;
    std::string err;
    if (!client.handshake(&ack, &err)) {
      rep.check(false, "rpc probe handshake: " + err);
    } else {
      rpc::WireRequest wr;
      std::size_t k = 0;
      rtt_us = timed_calls(*tracer, "rpc.call", 2000, [&] {
        std::atomic<bool> done{false};
        wr.nodes.assign(1, in.stream[k++ % in.stream.size()]);
        client.call(wr, std::chrono::milliseconds(5000),
                    [&done](rpc::RpcClient::Result&) {
                      done.store(true, std::memory_order_release);
                    });
        while (!done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
    }
    client.shutdown();
    fleet.stop();  // replicas print their batch counters on exit
    double admitted = 0, batches = 0;
    replica_log_batches(fleet.log_path, &admitted, &batches);
    mean_batch = batches > 0 ? admitted / batches : 0;
  } else {
    const double b1 = static_cast<double>(fleet.fm->aggregate_batches());
    const double p1 = b1 * fleet.fm->aggregate_mean_batch_size();
    mean_batch = b1 > batches0 ? (p1 - parts0) / (b1 - batches0) : 0;
    fleet.stop();
  }
  rep.add("serve.batcher.mean_batch", mean_batch, "req");
  rep.add("serve.batcher.queue_us", queue_us, "us");
  rep.add("serve.batcher.compute_us", compute_us, "us");
  const std::size_t bmean =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(mean_batch)));

  // Gather on the workload's feature path, at the measured batch shape.
  {
    std::unique_ptr<serve::FeatureSource> src;
    serve::CachedSource* cached = nullptr;
    const loader::FeatureFileStore* store = nullptr;
    if (xproc) {
      auto file = std::make_unique<serve::FileStoreSource>(
          loader::FeatureFileStore::open(in.store, kServeNodes,
                                         kServeHops + 1, kServeFeat,
                                         loader::RowCodec::kInt8));
      store = &file->store();
      const std::size_t rb = file->store().row_bytes();
      auto c = std::make_unique<serve::CachedSource>(
          std::move(file),
          std::make_unique<loader::LruCache>(cache_bytes(rb), rb));
      cached = c.get();
      src = std::move(c);
      Tensor tmp;
      for (std::size_t i = 0; i < in.warm.size(); i += 64) {
        src->gather({in.warm.begin() + static_cast<std::ptrdiff_t>(i),
                     in.warm.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(in.warm.size(), i + 64))},
                    tmp);
      }
    } else {
      src = std::make_unique<serve::MemorySource>(in.pre);
    }
    const serve::FeatureCacheStats c0 =
        cached ? cached->stats() : serve::FeatureCacheStats{};
    const std::uint64_t pr0 = store ? store->preads() : 0;
    std::size_t k = 0;
    Tensor out;
    std::vector<std::int64_t> rows(bmean);
    constexpr std::size_t kBatches = 4000;
    const double us = timed_calls(*tracer, "serve.gather", kBatches, [&] {
      for (auto& r : rows) r = in.stream[k++ % in.stream.size()];
      src->gather(rows, out);
    });
    rep.add("serve.gather.us_per_batch", us, "us");
    if (cached) {
      const serve::FeatureCacheStats c1 = cached->stats();
      rep.add("serve.gather.hit_rate",
              static_cast<double>(c1.hits - c0.hits) /
                  static_cast<double>(c1.accesses - c0.accesses),
              "1");
      rep.add("serve.gather.preads_per_batch",
              static_cast<double>(store->preads() - pr0) / (kBatches + 1),
              "count");
    } else {
      add_zero(rep, {{"serve.gather.hit_rate", "1"},
                     {"serve.gather.preads_per_batch", "count"}});
    }
  }

  // int8 forward of the deployed model at batch 1 and at the mean batch.
  {
    core::PpModel& model = ref_int8->model();
    serve::MemorySource src(in.pre);
    Tensor x1, xb;
    src.gather({in.stream.begin(), in.stream.begin() + 1}, x1);
    src.gather({in.stream.begin(), in.stream.begin() +
                                       static_cast<std::ptrdiff_t>(bmean)},
               xb);
    rep.add("nn.forward.us_b1",
            timed_calls(*tracer, "nn.forward.b1", 5000,
                        [&] { (void)model.infer(x1); }),
            "us");
    rep.add("nn.forward.us_bmean",
            timed_calls(*tracer, "nn.forward.bmean", 2000,
                        [&] { (void)model.infer(xb); }),
            "us");
  }
  std::string arm;
  probe_gemm_s8(*tracer, rep, bmean, &arm);
  rep.note_str("gemm_s8_arm", arm);
  probe_tenancy(*tracer, rep);
  rep.add("tenancy.quota_refused", static_cast<double>(quota_refused), "count");
  probe_stats(*tracer, rep);
  if (xproc) {
    rep.add("rpc.rtt_us", rtt_us, "us");
    rep.add("rpc.frames_per_writev", rs.frames_per_writev(), "count");
    rep.add("rpc.bytes_per_syscall", rs.bytes_per_syscall(), "B");
    rep.add("rpc.pool_hit_rate", rs.pool_hit_rate(), "1");
    rep.add("rpc.allocs_per_frame", rs.allocs_per_frame(), "count");
  } else {
    add_zero(rep, {{"rpc.rtt_us", "us"},
                   {"rpc.frames_per_writev", "count"},
                   {"rpc.bytes_per_syscall", "B"},
                   {"rpc.pool_hit_rate", "1"},
                   {"rpc.allocs_per_frame", "count"}});
  }
  rep.add("core.precompute.s", in.pre.preprocess_seconds, "s");
  add_zero(rep, {{"loader.read_us_per_batch", "us"},
                 {"loader.preads_per_batch", "count"},
                 {"core.trainer.stall_s", "s"},
                 {"nn.forward_s", "s"},
                 {"nn.backward_s", "s"},
                 {"nn.optimizer_s", "s"}});
  probe_gemm_f32(*tracer, rep);
  rep.note("peak_rss_mb", peak_rss);
}

// ----------------------------------------------------- train workloads

constexpr double kIgbScale = 1.0;
constexpr std::size_t kTrainHops = 3;

// Decorates the trained model from outside: records the start of every
// training step (a train-mode forward) so step times come from the same
// run the throughput does, and in traced runs opens spans around forward
// and backward.  Eval-mode forwards mark the gap they fall in, which is
// then not counted as a step.
class StepClock : public core::PpModel {
 public:
  explicit StepClock(core::PpModel& inner) : inner_(inner) {}

  Tensor forward(const Tensor& batch, bool train) override {
    if (!train) {
      eval_since_ = true;
      return inner_.forward(batch, false);
    }
    const std::int64_t t = now_ns();
    if (last_ > 0 && !eval_since_) {
      step_us_.push_back(static_cast<double>(t - last_) / 1e3);
      if (g_tracer) {
        g_tracer->add("train.step", last_, t, 0, step_us_.size(), true);
      }
    }
    last_ = t;
    eval_since_ = false;
    Scoped s("nn.forward", 0, 0, true);
    return inner_.forward(batch, true);
  }
  Tensor infer(const Tensor& batch) override {
    eval_since_ = true;
    return inner_.infer(batch);
  }
  void backward(const Tensor& g) override {
    Scoped s("nn.backward", 0, 0, true);
    inner_.backward(g);
  }
  void collect_params(std::vector<nn::ParamSlot>& out) override {
    inner_.collect_params(out);
  }
  void collect_linears(std::vector<nn::Linear*>& out) override {
    inner_.collect_linears(out);
  }
  std::string name() const override { return inner_.name(); }
  std::size_t hops() const override { return inner_.hops(); }

  const std::vector<double>& step_us() const { return step_us_; }

 private:
  core::PpModel& inner_;
  std::int64_t last_ = 0;
  bool eval_since_ = false;
  std::vector<double> step_us_;
};

// A storage-training workload.  The epoch count is fixed by --seconds
// alone (never by how fast the host runs), so accuracy is comparable
// across commits: epochs = max(1, round(seconds * epochs_per_second)).
// SGC reads 2048-row batches: each step is still one read per row, but
// at ~22 ms a step absorbs a few ms of preemption or CPU steal, where a
// 5 ms step of 512 rows doubled and its p99 swung with the host's load.
struct TrainShape {
  bool sgc;
  std::size_t batch;
  std::size_t chunk;
  double epochs_per_second;
  float lr;
  std::size_t epochs = 0;
};

std::unique_ptr<core::PpModel> train_model(const TrainShape& s,
                                           const graph::Dataset& ds,
                                           std::uint64_t seed) {
  Rng rng(seed);
  if (s.sgc) {
    return std::make_unique<core::Sgc>(ds.feature_dim(), kTrainHops,
                                       ds.num_classes, rng);
  }
  core::SignConfig sc;
  sc.feat_dim = ds.feature_dim();
  sc.hops = kTrainHops;
  sc.hidden = 256;
  sc.classes = ds.num_classes;
  sc.mlp_layers = 2;
  sc.dropout = 0.f;
  return std::make_unique<core::Sign>(sc, rng);
}

// The step-time tail.  With at least kStepWindows windows of kStepWindow
// steps (SGC: ~450 steps) it is the median over windows of each window's
// p99, the serving latency rule: a burst of host contention moves the
// windows it lands in, not the figure.  With fewer steps (a 15 s SIGN run
// has ~56, where a literal p99 is the slowest one) it is the highest
// percentile with ten steps beyond it, capped at p99.
constexpr std::size_t kStepWindow = 100;
constexpr std::size_t kStepWindows = 3;

double step_tail_us(const std::vector<double>& step_us, Report& rep) {
  const double n = static_cast<double>(step_us.size());
  if (step_us.size() >= kStepWindow * kStepWindows) {
    rep.note("step_tail_window", static_cast<double>(kStepWindow));
    rep.note("step_p99_all_samples_us", percentile(step_us, 99));
    return windowed_percentile(step_us, kStepWindow, 99);
  }
  const double tail_pct = std::min(99.0, 100.0 * (1.0 - 10.0 / n));
  rep.note("step_tail_percentile", tail_pct);
  return percentile(step_us, tail_pct);
}

struct TrainRun {
  double wall_s = 0;
  core::PpTrainResult result;
  std::vector<double> step_us;
};

TrainRun train_once(const Args& a, const TrainShape& s,
                    const graph::Dataset& ds, const core::Preprocessed& pre,
                    const std::string& store_dir, core::PpModel& model) {
  StepClock clocked(model);
  core::PpTrainConfig cfg;
  cfg.epochs = s.epochs;
  cfg.batch_size = s.batch;
  cfg.chunk_size = s.chunk;
  cfg.mode = core::LoadingMode::kStorageChunk;
  cfg.storage_dir = store_dir;
  cfg.eval_every = s.epochs;  // one evaluation, after the fixed epochs
  cfg.seed = sub_seed(a.seed, 13);
  cfg.lr = s.lr;
  TrainRun r;
  const auto t0 = Clk::now();
  {
    Scoped span("core.train_pp");
    r.result = core::train_pp(clocked, pre, ds, cfg);
  }
  r.wall_s = seconds_since(t0);
  r.step_us = clocked.step_us();
  return r;
}

void run_train(const Args& a, TrainShape shape, Report& rep,
               Tracer* tracer) {
  shape.epochs = static_cast<std::size_t>(
      std::max(1.0, std::round(a.seconds * shape.epochs_per_second)));
  log("generating dataset (seed %llu)",
      static_cast<unsigned long long>(a.seed));
  const auto tg = Clk::now();
  const graph::Dataset ds = graph::make_dataset(
      graph::DatasetName::kIgbMediumSim, kIgbScale, sub_seed(a.seed, 11));
  rep.note("input_gen_s", seconds_since(tg));
  reset_peak_rss();

  // Set-up: preprocessing, the feature-store spill of the training rows,
  // and model init — repeated, median reported.
  std::vector<double> setup, pre_s;
  core::Preprocessed pre;
  const std::string spill_dir = a.dir + "/spill";
  std::unique_ptr<loader::FeatureFileStore> spill;
  std::unique_ptr<core::PpModel> model;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    spill.reset();
    const auto t0 = Clk::now();
    core::PrecomputeConfig pc;
    pc.hops = kTrainHops;
    pre = core::precompute(ds.graph, ds.features, pc);
    std::vector<Tensor> hop_train;
    for (const auto& hop : pre.hop_features) {
      hop_train.push_back(gather_rows(hop, ds.split.train));
    }
    spill = std::make_unique<loader::FeatureFileStore>(
        loader::FeatureFileStore::create(spill_dir, hop_train));
    model = train_model(shape, ds, sub_seed(a.seed, 12));
    setup.push_back(seconds_since(t0));
    pre_s.push_back(pre.preprocess_seconds);
    log("setup %zu: %.3f s", r, setup.back());
  }

  const std::string store_dir = a.dir + "/train_store";
  const auto jiffies0 = cpu_jiffies();
  const TrainRun run = train_once(a, shape, ds, pre, store_dir, *model);
  rep.note("host_steal_pct", steal_pct_since(jiffies0));
  TrainRun traced;
  if (a.trace) {
    // The traced repeat trains a fresh model with the same initial weights.
    model = train_model(shape, ds, sub_seed(a.seed, 12));
    g_tracer = tracer;
    traced = train_once(a, shape, ds, pre, store_dir, *model);
    g_tracer = nullptr;
  }
  const auto& hist = run.result.history.epochs;
  bool finite = !hist.empty();
  for (const auto& e : hist) finite = finite && std::isfinite(e.train_loss);
  rep.check(finite, "training loss finite in every epoch");
  const double rows = static_cast<double>(run.result.train_rows);
  const std::size_t steps_per_epoch =
      (run.result.train_rows + shape.batch - 1) / shape.batch;
  const double steps = static_cast<double>(steps_per_epoch * hist.size());
  rep.attempted = static_cast<std::uint64_t>(steps);
  rep.failed = finite ? 0 : rep.attempted;
  const double samples_per_s = rows * hist.size() / run.wall_s;
  rep.note("epochs", static_cast<double>(hist.size()));
  rep.note("train_rows", rows);
  rep.note("step_samples", static_cast<double>(run.step_us.size()));
  rep.note("final_loss", hist.empty() ? 0 : hist.back().train_loss);

  if (!a.trace) {
    rep.add("throughput_rps", steps / run.wall_s, "1/s");
    rep.add("p50_us", percentile(run.step_us, 50), "us");
    rep.add("p99_us", step_tail_us(run.step_us, rep), "us");
    rep.add("answered_frac", finite ? 1.0 : 0.0, "1");
    rep.add("accuracy", hist.empty() ? 0 : hist.back().test_acc, "1");
    rep.add("setup_s", median(setup), "s");
    rep.add("peak_rss_mb", proc_status_mb(0, "VmHWM:"), "MiB");
    rep.add("samples_per_s", samples_per_s, "1/s");
    rep.add("step_p50_ms", percentile(run.step_us, 50) / 1e3, "ms");
    return;
  }

  const double traced_sps = rows * traced.result.history.epochs.size() /
                            traced.wall_s;
  add_tracing_overhead(rep, samples_per_s, traced_sps, true, tracer->size(),
                       tracer->dropped());
  add_zero(rep, {{"serve.batcher.mean_batch", "req"},
                 {"serve.batcher.queue_us", "us"},
                 {"serve.batcher.compute_us", "us"},
                 {"serve.gather.us_per_batch", "us"},
                 {"serve.gather.hit_rate", "1"},
                 {"serve.gather.preads_per_batch", "count"},
                 {"nn.forward.us_b1", "us"},
                 {"nn.forward.us_bmean", "us"}});
  std::string arm;
  probe_gemm_s8(*tracer, rep, 64, &arm);
  rep.note_str("gemm_s8_arm", arm);
  probe_tenancy(*tracer, rep);
  rep.add("tenancy.quota_refused", 0, "count");
  probe_stats(*tracer, rep);
  add_zero(rep, {{"rpc.rtt_us", "us"},
                 {"rpc.frames_per_writev", "count"},
                 {"rpc.bytes_per_syscall", "B"},
                 {"rpc.pool_hit_rate", "1"},
                 {"rpc.allocs_per_frame", "count"}});
  rep.add("core.precompute.s", median(pre_s), "s");

  // One epoch's batch order read back through read_chunk, exactly as the
  // storage loader assembles batches (one read per contiguous run).
  {
    const auto shuffler = loader::make_shuffler(shape.chunk);
    Rng rng(sub_seed(a.seed, 14));
    const auto order = shuffler->epoch_order(spill->num_rows(), rng);
    const std::size_t width = spill->num_hops() * spill->hop_dim();
    const std::uint64_t pr0 = spill->preads();
    std::size_t batches = 0;
    for (std::size_t lo = 0; lo < order.size(); lo += shape.batch, ++batches) {
      const std::size_t hi = std::min(order.size(), lo + shape.batch);
      const std::uint32_t id = tracer->open("loader.batch");
      Tensor out({hi - lo, width});
      std::size_t i = lo;
      while (i < hi) {
        std::size_t run_len = 1;
        while (i + run_len < hi && order[i + run_len] == order[i + run_len - 1] + 1) {
          ++run_len;
        }
        Tensor piece({run_len, width});
        spill->read_chunk(static_cast<std::size_t>(order[i]), run_len, piece);
        std::memcpy(out.row(i - lo), piece.data(), piece.bytes());
        i += run_len;
      }
      tracer->close(id);
    }
    rep.add("loader.read_us_per_batch",
            median(tracer->durations_us("loader.batch")), "us");
    rep.add("loader.preads_per_batch",
            static_cast<double>(spill->preads() - pr0) / batches, "count");
  }
  double stall = 0, fwd = 0, bwd = 0, opt = 0;
  for (const auto& e : hist) {
    stall += e.data_loading_seconds;
    fwd += e.forward_seconds;
    bwd += e.backward_seconds;
    opt += e.optimizer_seconds;
  }
  const double ne = static_cast<double>(hist.size());
  rep.add("core.trainer.stall_s", stall / ne, "s");
  rep.add("nn.forward_s", fwd / ne, "s");
  rep.add("nn.backward_s", bwd / ne, "s");
  rep.add("nn.optimizer_s", opt / ne, "s");
  probe_gemm_f32(*tracer, rep);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppbench: %s\n", e.what());
    return 2;
  }
  Report rep;
  std::unique_ptr<Tracer> tracer;
  if (a.trace) tracer = std::make_unique<Tracer>(std::size_t{4} << 20);
  rep.note_str("active_isa", isa_name(active_isa()));
  try {
    if (a.workload == "serve_closed_int8") {
      run_serve(a, false, rep, tracer.get());
    } else if (a.workload == "serve_open_xproc") {
      run_serve(a, true, rep, tracer.get());
    } else if (a.workload == "train_igb_storage") {
      run_train(a, {false, 512, 512, 0.2, 1e-3f}, rep, tracer.get());
    } else if (a.workload == "train_sgc_storage_rr") {
      run_train(a, {true, 2048, 1, 6.0, 4e-2f}, rep, tracer.get());
    } else {
      std::fprintf(stderr, "ppbench: unknown workload %s\n",
                   a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    rep.check(false, std::string("exception: ") + e.what());
  }
  if (tracer && !a.trace_out.empty()) tracer->write(a.trace_out);
  print_report(a, rep);
  return rep.failed_checks.empty() ? 0 : 1;
}
