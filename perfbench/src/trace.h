// Span recording and the decorators that time SPEED's layers from outside.
//
// The benchmark never edits the program to trace it. It wraps the public
// interfaces the deployment already accepts: the net::Transport a
// DedupRuntime talks through, the store::BlobBackend a ResultStore persists
// to, and the compute callback a marked call runs on a miss. Each wrapper
// records a span (layer, start, end, bytes) into a per-thread buffer kept in
// memory; the buffers are written out once the run ends.
//
// Spans of one operation share its call id: the harness sets the id on the
// calling thread before it enters DedupRuntime::execute or a BlockStore op,
// so every frame that thread ships carries it. A batched frame is shipped by
// its leader, so it is attributed to the leader's call. Frames shipped by a
// runtime's asynchronous PUT thread, and backend work done on the store's
// worker threads, have call id 0.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/channel.h"
#include "store/blob_backend.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class Layer : std::uint8_t {
  kExecute,     ///< DedupRuntime::execute, whole marked call
  kBlockOp,     ///< BlockStore put/get, whole op
  kCompute,     ///< the app function, run on a miss
  kRoundTrip,   ///< one frame through net::Transport
  kBlobGet,     ///< BlobBackend::get_blob
  kBlobPut,     ///< BlobBackend::put_blob
  kWalAppend,   ///< BlobBackend::wal_append that did not fsync
  kWalSync,     ///< wal_append that fsynced, or wal_sync
  kCount
};

const char* layer_name(Layer layer);

struct Span {
  std::uint64_t call = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t bytes = 0;
  Layer layer = Layer::kExecute;
};

/// Process-wide span sink. Recording is lock-free after a thread's first
/// span; enabling and disabling is a relaxed flag the decorators read.
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t new_call_id() {
    return next_call_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Call id stamped on spans this thread records (0 = none).
  static void set_current_call(std::uint64_t id);
  static std::uint64_t current_call();

  void record(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t bytes = 0);

  /// Every span recorded so far, from all threads. Call once recording
  /// threads have stopped.
  std::vector<Span> collect() const;

  /// Writes `spans` as CSV (call,layer,start_ns,dur_ns,bytes).
  static bool write_csv(const std::string& path, const std::vector<Span>& spans);

 private:
  std::vector<Span>& thread_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_call_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Records [construction, destruction) as one span when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, std::uint64_t bytes = 0)
      : layer_(layer), bytes_(bytes),
        start_(Tracer::global().enabled() ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (start_ != 0) Tracer::global().record(layer_, start_, now_ns(), bytes_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Layer layer_;
  std::uint64_t bytes_;
  std::uint64_t start_;
};

/// Frame counts and sizes seen by one TracedTransport; counted whether or
/// not spans are being recorded.
struct WireCounters {
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> bytes{0};
};

/// net::Transport decorator: one kRoundTrip span per frame, plus exact
/// frame and byte counts. Keeps a bounded sample of frame sizes so channel
/// crypto can be replayed at the sizes the workload actually sent.
class TracedTransport : public speed::net::Transport {
 public:
  TracedTransport(std::unique_ptr<speed::net::Transport> inner,
                  WireCounters& counters);

  speed::Bytes round_trip(speed::ByteView request) override;
  bool recover() override { return inner_->recover(); }
  void set_rekey_callback(RekeyCallback cb) override {
    inner_->set_rekey_callback(std::move(cb));
  }

 private:
  std::unique_ptr<speed::net::Transport> inner_;
  WireCounters& counters_;
};

/// Request and response frame sizes sampled across all TracedTransports.
struct FrameSizeSample {
  std::vector<std::uint32_t> request;
  std::vector<std::uint32_t> response;
};
FrameSizeSample sampled_frame_sizes();

/// store::BlobBackend decorator timing the blob arena and the WAL. An append
/// that made the inner backend fsync is recorded as kWalSync.
class TracedBackend : public speed::store::BlobBackend {
 public:
  explicit TracedBackend(std::shared_ptr<speed::store::BlobBackend> inner)
      : inner_(std::move(inner)) {}

  speed::store::BlobRef put_blob(speed::ByteView blob) override;
  std::optional<speed::Bytes> get_blob(
      const speed::store::BlobRef& ref) const override;
  void delete_blob(const speed::store::BlobRef& ref) override {
    inner_->delete_blob(ref);
  }
  bool note_blob(const speed::store::BlobRef& ref) override {
    return inner_->note_blob(ref);
  }
  std::size_t compact() override { return inner_->compact(); }
  bool corrupt_blob(const speed::store::BlobRef& ref) override {
    return inner_->corrupt_blob(ref);
  }
  bool durable() const override { return inner_->durable(); }
  void wal_append(speed::ByteView record) override;
  void wal_sync() override;
  void wal_replay(const std::function<bool(speed::ByteView, std::uint64_t)>& fn)
      override {
    inner_->wal_replay(fn);
  }
  void wal_truncate(std::uint64_t offset) override {
    inner_->wal_truncate(offset);
  }
  speed::store::BackendStats stats() const override { return inner_->stats(); }

 private:
  std::shared_ptr<speed::store::BlobBackend> inner_;
};

}  // namespace perfbench
