// File-backed preprocessed-feature store (the GDS analogue, Section 4.3).
//
// Preprocessed hop features are written to one binary file per hop — the
// paper splits hops into separate files to expose parallel storage streams.
// Three read paths:
//   - read_batch (training): a batch's row ids in batch order.  Each
//     ascending run of consecutive ids costs one preadv per hop file, and
//     the hop files are read CONCURRENTLY — one reader thread per hop,
//     capped at the core count, with the caller reading one hop itself.
//     fp32 bytes land directly in each row's hop slot of the output (no
//     staging buffer, no interleave copy).  With chunk size 1 a batch is
//     thousands of single-row runs, so the loader is syscall-bound and the
//     per-hop streams are what keeps it ahead of the model step;
//   - read_chunk: one contiguous row range — the single-run case of
//     read_batch's per-hop loop, read on the calling thread;
//   - read_rows (serving): row-granular random access.  Row ids are sorted
//     per call and adjacent/duplicate runs coalesce into one pread per run,
//     so a hub-heavy serving micro-batch costs far fewer syscalls than one
//     pread per row per hop.  It stays serial: in serving, each replica's
//     dispatcher is the unit of parallelism.
// preads() counts the syscalls actually issued.
//
// Two row codecs share the layout:
//   - kFp32: dim floats per row per hop (exact);
//   - kInt8: one fp32 scale header then dim int8s per row per hop
//     (per-row symmetric quantization, tensor/quant.h) — ~4x smaller rows,
//     which is 4x effective RowCache capacity per serving replica.
// Reads always decode to fp32; the codec is a storage property, not an API
// one.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ppgnn::loader {

// On-disk row encoding of a FeatureFileStore.
enum class RowCodec { kFp32, kInt8 };

const char* codec_name(RowCodec codec);

class FeatureFileStore {
 public:
  // Writes hop_features[h] ([n, dim] each, identical shapes) to
  // dir/hop_<h>.bin and returns an open store.  Overwrites existing files.
  // kInt8 quantizes each row symmetrically (scale header + int8 payload).
  static FeatureFileStore create(const std::string& dir,
                                 const std::vector<Tensor>& hop_features,
                                 RowCodec codec = RowCodec::kFp32);
  // Opens existing files written by create() with the same codec.
  static FeatureFileStore open(const std::string& dir, std::size_t num_rows,
                               std::size_t num_hops, std::size_t dim,
                               RowCodec codec = RowCodec::kFp32);

  FeatureFileStore(FeatureFileStore&&) noexcept;
  FeatureFileStore& operator=(FeatureFileStore&&) noexcept;
  ~FeatureFileStore();

  std::size_t num_rows() const { return rows_; }
  std::size_t num_hops() const { return hops_; }
  std::size_t hop_dim() const { return dim_; }
  RowCodec codec() const { return codec_; }
  // Stored bytes of one row within one hop file (codec-dependent).
  std::size_t hop_row_bytes() const {
    return codec_ == RowCodec::kInt8 ? sizeof(float) + dim_
                                     : dim_ * sizeof(float);
  }
  // Stored bytes of one full expanded row across all hops.
  std::size_t row_bytes() const { return hops_ * hop_row_bytes(); }
  std::size_t total_bytes() const { return rows_ * row_bytes(); }

  // out: [count, hops*dim]; reads rows [row0, row0+count) of every hop file
  // and lays them out hop-major within each output row (hop 0 first) —
  // matching the in-memory expanded layout of core::Preprocessed.
  void read_chunk(std::size_t row0, std::size_t count, Tensor& out) const;

  // Training batch read: out[i] = concatenated hops of row ids[i], with
  // ids in batch order (unsorted; duplicates allowed).  One preadv per
  // ascending run of consecutive ids per hop (split at IOV_MAX rows), the
  // hop files read concurrently.  Every reader is joined before return;
  // the first reader's exception (in reader order) is then rethrown here.
  void read_batch(const std::vector<std::int64_t>& ids, Tensor& out) const;

  // Random row-granular access: out[i] = concatenated hops of rows[i].
  // Sorts the ids and issues one pread per run of adjacent/duplicate rows
  // per hop; results are independent of the coalescing (bit-identical to
  // per-row reads).  Thread-safe (pread, no shared cursor).
  void read_rows(const std::vector<std::int64_t>& rows, Tensor& out) const;

  // As read_rows, but returns the STORED bytes: out[i] is the hop-major
  // concatenation of row rows[i]'s per-hop records, row_bytes() each.
  // This is what a payload cache should keep resident — for kInt8 the
  // encoded row is ~4x smaller than its fp32 expansion, and decode_row of
  // the same bytes yields the same floats whether they came from disk or
  // from cache (caching can never change answers).
  void read_rows_encoded(const std::vector<std::int64_t>& rows,
                         std::uint8_t* out) const;
  // Decodes one encoded row (row_bytes() bytes) into hops*dim floats,
  // exactly as read_rows would.
  void decode_row(const std::uint8_t* enc, float* out) const;

  // Cumulative pread/preadv syscalls issued by this store (all threads).
  // The serving bench reports the delta per micro-batch to show what run
  // coalescing saves over the historical one-pread-per-row-per-hop.
  std::uint64_t preads() const {
    return preads_.load(std::memory_order_relaxed);
  }

 private:
  FeatureFileStore() = default;
  // `count` consecutive stored rows from `row0`, bound for output rows
  // out0, out0+1, ...
  struct Run {
    std::size_t row0, count, out0;
  };
  // Reads hop `h` of every run into its slot of the output rows, decoding
  // int8 records to fp32.
  void read_hop(std::size_t h, const std::vector<Run>& runs,
                Tensor& out) const;

  std::string dir_;
  std::size_t rows_ = 0, hops_ = 0, dim_ = 0;
  RowCodec codec_ = RowCodec::kFp32;
  std::vector<int> fds_;  // one per hop file
  mutable std::atomic<std::uint64_t> preads_{0};
};

}  // namespace ppgnn::loader
