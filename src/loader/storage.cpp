#include "loader/storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "tensor/quant.h"

namespace ppgnn::loader {

namespace {

std::string hop_path(const std::string& dir, std::size_t hop) {
  return dir + "/hop_" + std::to_string(hop) + ".bin";
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// Reads exactly the bytes the iovecs describe, starting at `offset`:
// retries EINTR, resumes short reads mid-iovec, and fails loudly on EOF.
// Counts every syscall it issues in `calls`.  Consumes (mutates) `iov`.
void preadv_exact(int fd, iovec* iov, int n, off_t offset,
                  std::atomic<std::uint64_t>& calls) {
  while (n > 0) {
    calls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t r = ::preadv(fd, iov, n, offset);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("preadv");
    }
    if (r == 0) throw std::runtime_error("pread: unexpected EOF");
    offset += r;
    auto left = static_cast<std::size_t>(r);
    while (n > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --n;
    }
    if (n > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
}

// The single-buffer case (serving's row reads, int8 runs), kept on plain
// pread; same retry rules as preadv_exact.
void pread_exact(int fd, void* buf, std::size_t count, off_t offset,
                 std::atomic<std::uint64_t>& calls) {
  auto* p = static_cast<char*>(buf);
  while (count > 0) {
    calls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t r = ::pread(fd, p, count, offset);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread");
    }
    if (r == 0) throw std::runtime_error("pread: unexpected EOF");
    p += r;
    count -= static_cast<std::size_t>(r);
    offset += r;
  }
}

void write_all(int fd, const char* p, std::size_t left) {
  while (left > 0) {
    const ssize_t w = ::write(fd, p, left);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("write");
    }
    p += w;
    left -= static_cast<std::size_t>(w);
  }
}

}  // namespace

const char* codec_name(RowCodec codec) {
  return codec == RowCodec::kInt8 ? "int8" : "fp32";
}

FeatureFileStore FeatureFileStore::create(
    const std::string& dir, const std::vector<Tensor>& hop_features,
    RowCodec codec) {
  if (hop_features.empty()) {
    throw std::invalid_argument("FeatureFileStore: no hop features");
  }
  ::mkdir(dir.c_str(), 0755);  // ok if it already exists
  const std::size_t rows = hop_features[0].rows();
  const std::size_t dim = hop_features[0].cols();
  for (const auto& t : hop_features) {
    if (t.rows() != rows || t.cols() != dim) {
      throw std::invalid_argument("FeatureFileStore: hop shape mismatch");
    }
  }
  for (std::size_t h = 0; h < hop_features.size(); ++h) {
    const int fd = ::open(hop_path(dir, h).c_str(),
                          O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) throw_errno("open for write: " + hop_path(dir, h));
    if (codec == RowCodec::kFp32) {
      write_all(fd, reinterpret_cast<const char*>(hop_features[h].data()),
                hop_features[h].bytes());
    } else {
      // Row record: [fp32 scale][dim int8 codes].
      const std::size_t rec = sizeof(float) + dim;
      std::vector<char> buf(rows * rec);
      for (std::size_t i = 0; i < rows; ++i) {
        char* out = buf.data() + i * rec;
        float scale = 0.f;
        quantize_row_s8(hop_features[h].row(i), dim,
                        reinterpret_cast<std::int8_t*>(out + sizeof(float)),
                        &scale);
        std::memcpy(out, &scale, sizeof(float));
      }
      write_all(fd, buf.data(), buf.size());
    }
    ::close(fd);
  }
  return open(dir, rows, hop_features.size(), dim, codec);
}

FeatureFileStore FeatureFileStore::open(const std::string& dir,
                                        std::size_t num_rows,
                                        std::size_t num_hops,
                                        std::size_t dim, RowCodec codec) {
  FeatureFileStore s;
  s.dir_ = dir;
  s.rows_ = num_rows;
  s.hops_ = num_hops;
  s.dim_ = dim;
  s.codec_ = codec;
  s.fds_.reserve(num_hops);
  // Record sizes differ per codec (4*dim vs 4+dim bytes), so the file
  // length pins down which codec wrote the file — a mismatched open
  // (e.g. an int8 store opened as fp32) fails loudly here instead of
  // silently decoding garbage features.
  const off_t want_bytes =
      static_cast<off_t>(num_rows * s.hop_row_bytes());
  for (std::size_t h = 0; h < num_hops; ++h) {
    const int fd = ::open(hop_path(dir, h).c_str(), O_RDONLY);
    if (fd < 0) throw_errno("open for read: " + hop_path(dir, h));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("fstat: " + hop_path(dir, h));
    }
    if (st.st_size != want_bytes) {
      ::close(fd);
      throw std::invalid_argument(
          "FeatureFileStore::open: " + hop_path(dir, h) + " holds " +
          std::to_string(st.st_size) + " bytes but rows*dim with the " +
          std::string(codec_name(codec)) + " codec needs " +
          std::to_string(want_bytes) +
          " (codec/shape mismatch with how the store was created?)");
    }
    s.fds_.push_back(fd);
  }
  return s;
}

FeatureFileStore::FeatureFileStore(FeatureFileStore&& other) noexcept {
  *this = std::move(other);
}

FeatureFileStore& FeatureFileStore::operator=(
    FeatureFileStore&& other) noexcept {
  if (this != &other) {
    for (const int fd : fds_) ::close(fd);
    dir_ = std::move(other.dir_);
    rows_ = other.rows_;
    hops_ = other.hops_;
    dim_ = other.dim_;
    codec_ = other.codec_;
    fds_ = std::move(other.fds_);
    other.fds_.clear();
    preads_.store(other.preads_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  }
  return *this;
}

FeatureFileStore::~FeatureFileStore() {
  for (const int fd : fds_) ::close(fd);
}

void FeatureFileStore::read_hop(std::size_t h, const std::vector<Run>& runs,
                                Tensor& out) const {
  const std::size_t rec = hop_row_bytes();
  if (codec_ == RowCodec::kFp32) {
    // Scatter each run straight into the rows' hop-h slots: one iovec per
    // row, merged where slots touch (a 1-hop store's rows are contiguous),
    // at most IOV_MAX per syscall.
    std::vector<iovec> iov;
    for (const Run& run : runs) {
      off_t offset = static_cast<off_t>(run.row0 * rec);
      std::size_t pending = 0;  // bytes described by `iov`
      for (std::size_t t = 0; t < run.count; ++t) {
        char* slot =
            reinterpret_cast<char*>(out.row(run.out0 + t) + h * dim_);
        if (!iov.empty() &&
            static_cast<char*>(iov.back().iov_base) + iov.back().iov_len ==
                slot) {
          iov.back().iov_len += rec;
        } else {
          if (iov.size() == static_cast<std::size_t>(IOV_MAX)) {
            preadv_exact(fds_[h], iov.data(), static_cast<int>(iov.size()),
                         offset, preads_);
            offset += static_cast<off_t>(pending);
            pending = 0;
            iov.clear();
          }
          iov.push_back({slot, rec});
        }
        pending += rec;
      }
      preadv_exact(fds_[h], iov.data(), static_cast<int>(iov.size()), offset,
                   preads_);
      iov.clear();
    }
    return;
  }
  std::vector<char> buf;
  for (const Run& run : runs) {
    buf.resize(run.count * rec);
    pread_exact(fds_[h], buf.data(), buf.size(),
                static_cast<off_t>(run.row0 * rec), preads_);
    for (std::size_t t = 0; t < run.count; ++t) {
      const char* in = buf.data() + t * rec;
      float scale = 0.f;
      std::memcpy(&scale, in, sizeof(float));
      dequantize_row_s8(
          reinterpret_cast<const std::int8_t*>(in + sizeof(float)), dim_,
          scale, out.row(run.out0 + t) + h * dim_);
    }
  }
}

void FeatureFileStore::read_chunk(std::size_t row0, std::size_t count,
                                  Tensor& out) const {
  if (row0 + count > rows_) {
    throw std::out_of_range("read_chunk: range out of bounds");
  }
  if (out.rows() != count || out.cols() != hops_ * dim_) {
    throw std::invalid_argument("read_chunk: bad output shape");
  }
  const std::vector<Run> run{{row0, count, 0}};
  for (std::size_t h = 0; h < hops_; ++h) read_hop(h, run, out);
}

void FeatureFileStore::read_batch(const std::vector<std::int64_t>& ids,
                                  Tensor& out) const {
  if (out.rows() != ids.size() || out.cols() != hops_ * dim_) {
    throw std::invalid_argument("read_batch: bad output shape");
  }
  std::vector<Run> runs;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 0 || static_cast<std::size_t>(ids[i]) >= rows_) {
      throw std::out_of_range("read_batch: row out of bounds");
    }
    const auto row = static_cast<std::size_t>(ids[i]);
    if (!runs.empty() && runs.back().row0 + runs.back().count == row) {
      ++runs.back().count;
    } else {
      runs.push_back({row, 1, i});
    }
  }
  // One reader per hop file, capped at the core count; reader r reads hops
  // r, r + readers, ...  The caller is reader 0.  Plain threads, not the
  // global pool: the trainer's GEMM holds the pool while this runs on the
  // prefetch thread, and a nested parallel_for would run serially.
  const std::size_t readers = std::max<std::size_t>(
      1, std::min<std::size_t>(hops_, std::thread::hardware_concurrency()));
  std::vector<std::exception_ptr> errors(readers);
  const auto reader = [&](std::size_t r) {
    try {
      for (std::size_t h = r; h < hops_; h += readers) read_hop(h, runs, out);
    } catch (...) {
      errors[r] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;  // joined on scope exit, throw or not
    threads.reserve(readers - 1);
    for (std::size_t r = 1; r < readers; ++r) threads.emplace_back(reader, r);
    reader(0);
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void FeatureFileStore::read_rows_encoded(
    const std::vector<std::int64_t>& rows, std::uint8_t* out) const {
  for (const auto r : rows) {
    if (r < 0 || static_cast<std::size_t>(r) >= rows_) {
      throw std::out_of_range("read_rows: row out of bounds");
    }
  }
  const std::size_t rec = hop_row_bytes();
  // Sort output positions by row id so duplicates and adjacent ids form
  // runs; each run costs one pread per hop instead of one per occurrence.
  // Serving batches are heavy-tailed (hot rows repeat within a batch), so
  // the saving is structural, not incidental.
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return rows[a] < rows[b]; });
  std::vector<std::uint8_t> buf;
  std::size_t i = 0;
  while (i < order.size()) {
    const std::size_t run_first = static_cast<std::size_t>(rows[order[i]]);
    std::size_t j = i;
    std::size_t run_last = run_first;
    // Extend the run while the next sorted id is the same row (duplicate)
    // or the immediately following one (adjacent on disk).
    while (j + 1 < order.size()) {
      const auto next = static_cast<std::size_t>(rows[order[j + 1]]);
      if (next > run_last + 1) break;
      run_last = next;
      ++j;
    }
    const std::size_t count = run_last - run_first + 1;
    buf.resize(count * rec);
    for (std::size_t h = 0; h < hops_; ++h) {
      pread_exact(fds_[h], buf.data(), count * rec,
                  static_cast<off_t>(run_first * rec), preads_);
      for (std::size_t t = i; t <= j; ++t) {
        const auto r = static_cast<std::size_t>(rows[order[t]]);
        std::memcpy(out + order[t] * row_bytes() + h * rec,
                    buf.data() + (r - run_first) * rec, rec);
      }
    }
    i = j + 1;
  }
}

void FeatureFileStore::decode_row(const std::uint8_t* enc, float* out) const {
  const std::size_t rec = hop_row_bytes();
  for (std::size_t h = 0; h < hops_; ++h) {
    const std::uint8_t* in = enc + h * rec;
    if (codec_ == RowCodec::kFp32) {
      std::memcpy(out + h * dim_, in, rec);
    } else {
      float scale = 0.f;
      std::memcpy(&scale, in, sizeof(float));
      dequantize_row_s8(
          reinterpret_cast<const std::int8_t*>(in + sizeof(float)), dim_,
          scale, out + h * dim_);
    }
  }
}

void FeatureFileStore::read_rows(const std::vector<std::int64_t>& rows,
                                 Tensor& out) const {
  if (out.rows() != rows.size() || out.cols() != hops_ * dim_) {
    throw std::invalid_argument("read_rows: bad output shape");
  }
  std::vector<std::uint8_t> enc(rows.size() * row_bytes());
  read_rows_encoded(rows, enc.data());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    decode_row(enc.data() + i * row_bytes(), out.row(i));
  }
}

}  // namespace ppgnn::loader
