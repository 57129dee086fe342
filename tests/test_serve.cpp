#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <random>
#include <thread>

#include "core/precompute.h"
#include "core/sgc.h"
#include "core/sign.h"
#include "graph/dataset.h"
#include "loader/cache.h"
#include "loader/storage.h"
#include "serve/feature_source.h"
#include "serve/clock.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "serve/server_stats.h"
#include "serve/workload.h"
#include "tensor/ops.h"

namespace ppgnn::serve {
namespace {

std::string tmp_dir(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

struct Fixture {
  graph::Dataset ds;
  core::Preprocessed pre;

  explicit Fixture(double scale = 0.02, std::size_t hops = 2)
      : ds(graph::make_dataset(graph::DatasetName::kPokecSim, scale)) {
    core::PrecomputeConfig pc;
    pc.hops = hops;
    pre = core::precompute(ds.graph, ds.features, pc);
  }

  std::unique_ptr<core::PpModel> make_model(std::uint64_t seed = 7) const {
    Rng rng(seed);
    core::SignConfig cfg;
    cfg.feat_dim = ds.feature_dim();
    cfg.hops = pre.num_hops();
    cfg.hidden = 16;
    cfg.classes = ds.num_classes;
    cfg.dropout = 0.f;
    return std::make_unique<core::Sign>(cfg, rng);
  }

  std::unique_ptr<InferenceSession> make_session(
      std::uint64_t seed = 7) const {
    return std::make_unique<InferenceSession>(
        make_model(seed), std::make_unique<MemorySource>(pre));
  }
};

TEST(FeatureSource, FileStoreMatchesMemory) {
  const Fixture fx;
  MemorySource mem(fx.pre);
  FileStoreSource file(
      loader::FeatureFileStore::create(tmp_dir("serve_fs"), fx.pre.hop_features));
  ASSERT_EQ(mem.num_rows(), file.num_rows());
  ASSERT_EQ(mem.row_dim(), file.row_dim());
  const std::vector<std::int64_t> rows{0, 5, 3, 5,
                                       static_cast<std::int64_t>(mem.num_rows()) - 1};
  Tensor a, b;
  mem.gather(rows, a);
  file.gather(rows, b);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(FeatureSource, CachedGatherIsTransparentAndCounts) {
  const Fixture fx;
  auto backing = std::make_unique<FileStoreSource>(
      loader::FeatureFileStore::create(tmp_dir("serve_cached"),
                                       fx.pre.hop_features));
  // Byte-denominated capacity: budget for exactly 4 stored rows.
  const std::size_t row_bytes = backing->store().row_bytes();
  CachedSource cached(std::move(backing),
                      std::make_unique<loader::LruCache>(4 * row_bytes,
                                                         row_bytes));
  MemorySource mem(fx.pre);
  const std::vector<std::int64_t> rows{1, 2, 1, 3, 1, 2, 9, 1};
  Tensor got, want;
  cached.gather(rows, got);
  mem.gather(rows, want);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  const auto st = cached.stats();
  EXPECT_EQ(st.accesses, rows.size());
  // Unique rows {1,2,3,9} are fetched once each; repeats hit the payload.
  EXPECT_EQ(st.rows_read, 4u);
  EXPECT_EQ(st.hits, rows.size() - 4);
  // A second pass over resident rows is all hits.
  cached.gather({1, 2, 3, 9}, got);
  EXPECT_EQ(cached.stats().rows_read, 4u);
}

TEST(FeatureSource, StaticPolicyCachesOnlyPinnedRows) {
  const Fixture fx;
  auto backing = std::make_unique<MemorySource>(fx.pre);
  CachedSource cached(
      std::move(backing),
      std::make_unique<loader::StaticCache>(std::vector<std::int64_t>{2, 4}));
  cached.warm({2, 4});
  Tensor out;
  cached.gather({2, 3, 4, 3}, out);
  const auto st = cached.stats();
  EXPECT_EQ(st.hits, 3u);       // pinned rows 2 and 4, plus the repeat of 3
  EXPECT_EQ(st.rows_read, 1u);  // row 3 fetched once (deduped), never cached
  // Row 3 was declined by the static policy: a later gather re-reads it.
  cached.gather({3}, out);
  EXPECT_EQ(cached.stats().rows_read, 2u);
}

TEST(InferenceSession, FileStoreAndMemoryProduceIdenticalLogits) {
  const Fixture fx;
  auto mem_session = fx.make_session(11);

  auto store_source = std::make_unique<FileStoreSource>(
      loader::FeatureFileStore::create(tmp_dir("serve_eq"),
                                       fx.pre.hop_features));
  const std::size_t row_bytes = store_source->store().row_bytes();
  auto file_source = std::make_unique<CachedSource>(
      std::move(store_source),
      std::make_unique<loader::LruCache>(8 * row_bytes, row_bytes));
  InferenceSession file_session(fx.make_model(11), std::move(file_source));

  const std::vector<std::int64_t> nodes{0, 7, 7, 21, 3};
  const Tensor a = mem_session->infer_nodes(nodes);
  const Tensor b = file_session.infer_nodes(nodes);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  // Re-ask through the now-warm cache: still identical (cache-hit path).
  const Tensor c = file_session.infer_nodes(nodes);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], c[i]);
}

TEST(InferenceSession, BatchedInferenceBitIdenticalToSingleRequests) {
  const Fixture fx;
  auto session = fx.make_session();
  const std::vector<std::int64_t> nodes{4, 0, 19, 4, 33};
  const Tensor batched = session->infer_nodes(nodes);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto single = session->infer_one(nodes[i]);
    ASSERT_EQ(single.size(), batched.cols());
    for (std::size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(single[j], batched.at(i, j))
          << "node " << nodes[i] << " logit " << j;
    }
  }
}

TEST(InferenceSession, DeployedCheckpointRoundTrips) {
  const Fixture fx;
  auto trained = fx.make_model(21);
  const std::string path = tmp_dir("deploy.ckpt");
  save_deployed_model(*trained, path);

  auto fresh = fx.make_model(99);  // different init
  load_deployed_model(*fresh, path);
  InferenceSession a(std::move(trained), std::make_unique<MemorySource>(fx.pre));
  InferenceSession b(std::move(fresh), std::make_unique<MemorySource>(fx.pre));
  const std::vector<std::int64_t> nodes{1, 2, 3};
  const Tensor la = a.infer_nodes(nodes);
  const Tensor lb = b.infer_nodes(nodes);
  for (std::size_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]);
}

TEST(MicroBatcher, CoalescesUpToMaxBatchSize) {
  const Fixture fx;
  auto session = fx.make_session();
  MicroBatchConfig cfg;
  cfg.max_batch_size = 8;
  // Generous window so all submissions land in one batch deterministically.
  cfg.max_delay = std::chrono::microseconds(200'000);
  ServerStats stats;
  std::vector<std::future<std::vector<float>>> futs;
  {
    MicroBatcher batcher(*session, cfg, &stats);
    for (int i = 0; i < 8; ++i) futs.push_back(batcher.submit(i));
    for (auto& f : futs) f.wait();
    const auto c = batcher.counters();
    EXPECT_EQ(c.requests, 8u);
    EXPECT_EQ(c.batches, 1u);  // size cutoff fired, not the delay
    EXPECT_EQ(c.max_batch_observed, 8u);
  }
  EXPECT_EQ(stats.batches(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size(), 8.0);
}

TEST(MicroBatcher, MaxDelayDispatchesPartialBatch) {
  const Fixture fx;
  auto session = fx.make_session();
  MicroBatchConfig cfg;
  cfg.max_batch_size = 1024;  // never fills
  cfg.max_delay = std::chrono::microseconds(2000);
  MicroBatcher batcher(*session, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  auto fut = batcher.submit(5);
  fut.wait();
  const auto waited = std::chrono::steady_clock::now() - t0;
  // The lone request must complete once the delay window closes — well
  // before any size cutoff could fire (bounded generously for CI jitter).
  EXPECT_LT(waited, std::chrono::seconds(2));
  EXPECT_EQ(batcher.counters().batches, 1u);
  EXPECT_EQ(batcher.counters().max_batch_observed, 1u);
}

TEST(MicroBatcher, SplitsBeyondMaxBatchSize) {
  const Fixture fx;
  auto session = fx.make_session();
  MicroBatchConfig cfg;
  cfg.max_batch_size = 4;
  cfg.max_delay = std::chrono::microseconds(50'000);
  MicroBatcher batcher(*session, cfg);
  std::vector<std::future<std::vector<float>>> futs;
  for (int i = 0; i < 10; ++i) futs.push_back(batcher.submit(i % 5));
  for (auto& f : futs) f.wait();
  const auto c = batcher.counters();
  EXPECT_EQ(c.requests, 10u);
  EXPECT_GE(c.batches, 3u);  // ceil(10/4) at best, more if windows split
  EXPECT_LE(c.max_batch_observed, 4u);
}

TEST(MicroBatcher, BadNodeFailsRequestNotServer) {
  const Fixture fx;
  auto session = fx.make_session();
  MicroBatchConfig cfg;
  cfg.max_delay = std::chrono::microseconds(1000);
  MicroBatcher batcher(*session, cfg);
  auto bad = batcher.submit(static_cast<std::int64_t>(session->num_nodes()));
  EXPECT_THROW(bad.get(), std::out_of_range);
  // The server still answers afterwards.
  auto good = batcher.submit(0);
  EXPECT_EQ(good.get().size(), fx.ds.num_classes);
}

TEST(MicroBatcher, DeterministicUnderEightConcurrentClients) {
  const Fixture fx;
  auto session = fx.make_session();
  // Reference answers, computed single-request before any concurrency.
  const std::size_t n = session->num_nodes();
  std::vector<std::vector<float>> expect(n);
  for (std::size_t v = 0; v < n; ++v) {
    expect[v] = session->infer_one(static_cast<std::int64_t>(v));
  }

  MicroBatchConfig cfg;
  cfg.max_batch_size = 16;
  cfg.max_delay = std::chrono::microseconds(100);
  MicroBatcher batcher(*session, cfg);
  constexpr int kClients = 8;
  constexpr int kPerClient = 100;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ZipfWorkloadConfig wc;
      wc.num_nodes = n;
      wc.num_requests = kPerClient;
      wc.seed = 100 + static_cast<std::uint64_t>(c);
      for (const auto node : zipf_stream(wc)) {
        const auto got = batcher.infer_blocking(node);
        const auto& want = expect[static_cast<std::size_t>(node)];
        if (got != want) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "micro-batch composition changed some answer";
  EXPECT_EQ(batcher.counters().requests,
            static_cast<std::size_t>(kClients * kPerClient));
}

TEST(ServerStats, PercentilesAndThroughput) {
  ServerStats stats;
  for (int i = 1; i <= 100; ++i) stats.record(static_cast<double>(i));
  const auto s = stats.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(s.p95_us, 95.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 99.0);
  EXPECT_DOUBLE_EQ(s.max_us, 100.0);
  EXPECT_GT(s.throughput_rps, 0.0);
  const auto json = s.to_json();
  EXPECT_NE(json.find("\"p99_us\":99.0"), std::string::npos) << json;
}

// --- LatencyHistogram ---------------------------------------------------

// A seeded Zipf-latency stream: rank k ~ Zipf(1.0) over 20000 ranks maps
// to 130 + 9 * k^0.9 us plus sub-microsecond jitter — a heavy tail that
// stays in the relative-error regime (>= 128 us).
std::vector<double> zipf_latencies(std::size_t n, std::uint64_t seed) {
  constexpr std::size_t kRanks = 20000;
  std::vector<double> cdf(kRanks);
  double total = 0;
  for (std::size_t k = 0; k < kRanks; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> out(n);
  for (double& v : out) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u(rng) * total);
    const auto k = static_cast<double>(it - cdf.begin() + 1);
    v = 130.0 + 9.0 * std::pow(k, 0.9) + u(rng);
  }
  return out;
}

double exact_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::min(v.size(), std::max<std::size_t>(rank, 1));
  return v[rank - 1];
}

TEST(LatencyHistogram, BucketsAreLogLinearWithinOnePercent) {
  // Integer microseconds below 128, then 128 sub-buckets per octave.
  EXPECT_EQ(LatencyHistogram::bucket_of(0.4), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(-3.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(57.9), 57u);
  EXPECT_EQ(LatencyHistogram::bucket_of(200.5), 200u);
  EXPECT_EQ(LatencyHistogram::bucket_of(256.0), 256u);
  EXPECT_EQ(LatencyHistogram::bucket_of(257.0), 256u);  // 2 us wide here
  EXPECT_EQ(LatencyHistogram::bucket_of(1e30),
            LatencyHistogram::kMaxBuckets - 1);
  std::size_t prev = 0;
  for (double v = 1.0; v < 4e9; v *= 1.0007) {
    const std::size_t b = LatencyHistogram::bucket_of(v);
    ASSERT_LT(b, LatencyHistogram::kMaxBuckets);
    ASSERT_GE(b, prev) << v;  // monotone
    prev = b;
    const double lo = LatencyHistogram::bucket_lower(b);
    ASSERT_LE(lo, v) << v;
    ASSERT_GT(LatencyHistogram::bucket_lower(b + 1), v) << v;
    if (v >= 128.0) {
      ASSERT_LE(v - lo, v / 128.0) << v;
    } else {
      ASSERT_LT(v - lo, 1.0) << v;
    }
  }
}

TEST(LatencyHistogram, MergeEqualsRecordingTheUnion) {
  const auto a = zipf_latencies(50000, 1);
  const auto b = zipf_latencies(30000, 2);
  LatencyHistogram ha, hb, all;
  for (const double v : a) {
    ha.record(v);
    all.record(v);
  }
  for (const double v : b) {
    hb.record(v);
    all.record(v);
  }
  LatencyHistogram merged;
  merged.merge(ha);
  merged.merge(hb);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  EXPECT_NEAR(merged.mean(), all.mean(), 1e-9 * all.mean());
  for (double p = 0; p <= 100.0; p += 0.5) {
    EXPECT_EQ(merged.percentile(p), all.percentile(p)) << "p" << p;
  }
  // Merging an empty histogram is a no-op either way round.
  LatencyHistogram empty;
  merged.merge(empty);
  empty.merge(all);
  EXPECT_EQ(merged.percentile(99), empty.percentile(99));
}

TEST(LatencyHistogram, ZipfPercentilesWithinOnePercentOfExact) {
  const auto v = zipf_latencies(200000, 7);
  LatencyHistogram h;
  for (const double x : v) h.record(x);
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = exact_percentile(v, p);
    EXPECT_NEAR(h.percentile(p), exact, 0.01 * exact) << "p" << p;
  }
  EXPECT_EQ(h.percentile(100), exact_percentile(v, 100));
  EXPECT_EQ(h.percentile(0), exact_percentile(v, 0));
}

TEST(LatencyHistogram, MemoryDoesNotGrowWithRecords) {
  // Values sweep 1 us .. ~1 h, so every octave gets touched early; after
  // that no number of records may allocate another byte.
  LatencyHistogram h;
  auto value = [](std::size_t i) {
    return std::ldexp(1.0 + static_cast<double>(i % 997) / 997.0,
                      static_cast<int>(i % 32));
  };
  for (std::size_t i = 0; i < 100000; ++i) h.record(value(i));
  const std::size_t bytes = h.bytes();
  EXPECT_LE(bytes, LatencyHistogram::kMaxBuckets * sizeof(std::uint64_t));
  for (std::size_t i = 100000; i < 10000000; ++i) h.record(value(i));
  EXPECT_EQ(h.count(), 10000000u);
  EXPECT_EQ(h.bytes(), bytes);
  // clear() recycles the storage.
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.bytes(), bytes);
}

TEST(ServerStats, TenantWindowsAgeOutWhileCumulativeStays) {
  SimClock clock(std::chrono::seconds(100));
  ServerStats stats(std::chrono::milliseconds(160), &clock);
  for (int i = 1; i <= 100; ++i) stats.record(static_cast<double>(i), 0);
  for (int i = 1; i <= 10; ++i) stats.record(1000.0 * i, 3);
  auto rows = stats.tenant_stats();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].win_samples, 100u);
  EXPECT_EQ(rows[0].win_p50_us, 50.0);
  EXPECT_EQ(rows[1].tenant, 3u);
  EXPECT_EQ(rows[1].win_samples, 10u);
  EXPECT_EQ(stats.window().latency.count, 110u);

  // One window later the old latencies are out of the window; new ones
  // land in a recycled bucket.
  clock.advance(std::chrono::milliseconds(200));
  stats.record(7.0, 0);
  rows = stats.tenant_stats();
  EXPECT_EQ(rows[0].win_samples, 1u);
  EXPECT_EQ(rows[0].win_p99_us, 7.0);
  EXPECT_EQ(rows[1].win_samples, 0u);
  EXPECT_EQ(rows[0].samples, 101u);  // cumulative keeps everything
  EXPECT_EQ(rows[0].p50_us, 50.0);
  EXPECT_EQ(rows[1].samples, 10u);
  const auto w = stats.window();
  EXPECT_EQ(w.latency.count, 1u);
  EXPECT_EQ(stats.windowed_latency(clock.now()).count(), 1u);
  EXPECT_EQ(stats.summary().count, 111u);
}

TEST(Workload, ZipfStreamIsHeavyTailedAndSeeded) {
  ZipfWorkloadConfig cfg;
  cfg.num_nodes = 1000;
  cfg.num_requests = 20000;
  cfg.skew = 1.0;
  cfg.seed = 5;
  const auto a = zipf_stream(cfg);
  const auto b = zipf_stream(cfg);
  EXPECT_EQ(a, b);  // deterministic
  // The configured hot set should cover far more traffic than its share of
  // the id space (1%); Zipf(1.0) puts ~30% of mass on the top 1%.
  const auto hot = zipf_hot_set(cfg, 10);
  std::size_t hot_hits = 0;
  for (const auto r : a) {
    for (const auto h : hot) {
      if (r == h) {
        ++hot_hits;
        break;
      }
    }
  }
  EXPECT_GT(hot_hits, a.size() / 10);  // >10% of requests on 1% of nodes
  for (const auto r : a) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 1000);
  }
}

TEST(Workload, DegreeStreamPrefersHubs) {
  const Fixture fx;
  const auto stream = degree_stream(fx.ds.graph, 20000, 3);
  // Mean degree of requested nodes should exceed the graph's mean degree.
  double req_deg = 0;
  for (const auto v : stream) {
    req_deg += static_cast<double>(
        fx.ds.graph.degree(static_cast<graph::NodeId>(v)));
  }
  req_deg /= static_cast<double>(stream.size());
  EXPECT_GT(req_deg, fx.ds.graph.avg_degree());
}

}  // namespace
}  // namespace ppgnn::serve
