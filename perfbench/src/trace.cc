#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

thread_local std::uint64_t tls_call = 0;
thread_local std::vector<Span>* tls_buffer = nullptr;

constexpr std::size_t kFrameSampleCap = 4096;

struct FrameSampler {
  std::mutex mu;
  std::atomic<std::size_t> taken{0};
  FrameSizeSample sample;
};

FrameSampler& frame_sampler() {
  static FrameSampler s;
  return s;
}

void sample_frame(std::size_t request, std::size_t response) {
  FrameSampler& s = frame_sampler();
  if (s.taken.load(std::memory_order_relaxed) >= kFrameSampleCap) return;
  std::lock_guard lock(s.mu);
  if (s.sample.request.size() >= kFrameSampleCap) return;
  s.sample.request.push_back(static_cast<std::uint32_t>(request));
  s.sample.response.push_back(static_cast<std::uint32_t>(response));
  s.taken.store(s.sample.request.size(), std::memory_order_relaxed);
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kExecute: return "execute";
    case Layer::kBlockOp: return "blockstore_op";
    case Layer::kCompute: return "compute";
    case Layer::kRoundTrip: return "round_trip";
    case Layer::kBlobGet: return "blob_get";
    case Layer::kBlobPut: return "blob_put";
    case Layer::kWalAppend: return "wal_append";
    case Layer::kWalSync: return "wal_sync";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

void Tracer::set_current_call(std::uint64_t id) { tls_call = id; }
std::uint64_t Tracer::current_call() { return tls_call; }

std::vector<Span>& Tracer::thread_buffer() {
  if (tls_buffer == nullptr) {
    auto buf = std::make_unique<std::vector<Span>>();
    buf->reserve(1 << 16);
    std::lock_guard lock(mu_);
    tls_buffer = buf.get();
    buffers_.push_back(std::move(buf));
  }
  return *tls_buffer;
}

void Tracer::record(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t bytes) {
  thread_buffer().push_back(Span{tls_call, start_ns, end_ns,
                                 static_cast<std::uint32_t>(bytes), layer});
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard lock(mu_);
  std::vector<Span> all;
  for (const auto& buf : buffers_) all.insert(all.end(), buf->begin(), buf->end());
  return all;
}

bool Tracer::write_csv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "call,layer,start_ns,dur_ns,bytes\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%s,%llu,%llu,%u\n",
                 static_cast<unsigned long long>(s.call), layer_name(s.layer),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns - s.start_ns),
                 s.bytes);
  }
  return std::fclose(f) == 0;
}

TracedTransport::TracedTransport(std::unique_ptr<speed::net::Transport> inner,
                                 WireCounters& counters)
    : inner_(std::move(inner)), counters_(counters) {}

speed::Bytes TracedTransport::round_trip(speed::ByteView request) {
  Tracer& tracer = Tracer::global();
  const bool on = tracer.enabled();
  const std::uint64_t start = on ? now_ns() : 0;
  speed::Bytes response = inner_->round_trip(request);
  const std::uint64_t bytes = request.size() + response.size();
  counters_.frames.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (on) {
    tracer.record(Layer::kRoundTrip, start, now_ns(), bytes);
    sample_frame(request.size(), response.size());
  }
  return response;
}

FrameSizeSample sampled_frame_sizes() {
  FrameSampler& s = frame_sampler();
  std::lock_guard lock(s.mu);
  return s.sample;
}

speed::store::BlobRef TracedBackend::put_blob(speed::ByteView blob) {
  const ScopedSpan span(Layer::kBlobPut, blob.size());
  return inner_->put_blob(blob);
}

std::optional<speed::Bytes> TracedBackend::get_blob(
    const speed::store::BlobRef& ref) const {
  const ScopedSpan span(Layer::kBlobGet, ref.length);
  return inner_->get_blob(ref);
}

void TracedBackend::wal_append(speed::ByteView record) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) {
    inner_->wal_append(record);
    return;
  }
  const std::uint64_t syncs_before = inner_->stats().wal_fsyncs;
  const std::uint64_t start = now_ns();
  inner_->wal_append(record);
  const std::uint64_t end = now_ns();
  const bool synced = inner_->stats().wal_fsyncs != syncs_before;
  tracer.record(synced ? Layer::kWalSync : Layer::kWalAppend, start, end,
                record.size());
}

void TracedBackend::wal_sync() {
  const ScopedSpan span(Layer::kWalSync);
  inner_->wal_sync();
}

}  // namespace perfbench
