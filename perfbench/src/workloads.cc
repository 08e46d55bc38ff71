#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "apps/blockstore/blockstore.h"
#include "apps/deflate/deflate.h"
#include "apps/mapreduce/bow.h"
#include "apps/match/ruleset.h"
#include "chunk/chunker.h"
#include "crypto/drbg.h"
#include "deployment.h"
#include "inputs.h"
#include "mle/rce.h"
#include "net/secure_channel.h"
#include "serialize/serde.h"
#include "store/meta_codec.h"
#include "telemetry/exposition.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace speed;

// Client threads of hot_batched. apps_mix and cold_rw run 2 app enclaves:
// with 4, their closed-loop clients, PUT workers and the server's 5 threads
// oversubscribed the 4-vCPU host and throughput spread 20-90% between runs.
constexpr std::size_t kThreads = 4;
constexpr double kMB = 1024.0 * 1024.0;

// ------------------------------------------------------------- workload shape

// hot_batched: 20k small entries, all resident in the 8 MB decoded-metadata
// cache; Zipf 0.99 reads, 5% new keys.
constexpr std::size_t kHotEntries = 20000;
// The traced run's open loop offers a fixed rate of about half the closed-loop
// ops/s of the commit that added the benchmark (11k/s on one CPU of a 4-vCPU
// x86 VM), so open-loop latency is always read at one load.
constexpr double kHotOpenRate = 6000;

// cold_rw: a durable store (WAL on) reopened from this many entries, far
// more records than the decoded-metadata cache holds, so most GETs fault one
// in. Its log and blobs live in memory (MemoryBackend with the WAL recorded):
// on a 4-vCPU VM with a shared disk, fsync and read latency swung run
// throughput by up to 4x.
constexpr std::size_t kColdEntries = 150000;
constexpr std::size_t kColdApps = 2;
constexpr double kColdOpenRate = 2750;  ///< half of 5.5k/s on one CPU
constexpr const char* kColdPlatformSeed = "perfbench-cold_rw";
// The reopened store's contents are fixed; --seed picks which keys a run
// reads and which new keys it writes.
constexpr std::uint64_t kColdPopulationSeed = 0x5eedc01d;

// Per-thread length of a closed-loop op sequence. The loop starts it over
// when it runs out, with new fresh keys, so no throughput can exhaust it.
constexpr std::size_t kClosedPattern = std::size_t{1} << 15;

constexpr int kSetupRepsWarmStore = 100;
constexpr int kSetupRepsCold = 3;

// ----------------------------------------------------------------- utilities

/// Store configuration of every workload: 8 shards, and a per-app quota no
/// run can reach even at several times the parent commit's throughput, so a
/// faster program never shows up as refused PUTs.
store::StoreConfig bench_store_config() {
  store::StoreConfig cfg;
  cfg.shards = 8;
  cfg.per_app_quota_bytes = 1ull << 30;
  return cfg;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// q-quantile of a telemetry histogram in microseconds, interpolated inside
/// the bucket that holds it.
double hist_quantile_us(const telemetry::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double c = static_cast<double>(h.buckets[i]);
    if (c == 0) continue;
    if (seen + c >= rank) {
      const double lo =
          i == 0 ? 0 : static_cast<double>(telemetry::Histogram::bucket_upper_bound(i - 1) + 1);
      const double hi = static_cast<double>(telemetry::Histogram::bucket_upper_bound(i));
      return (lo + (hi - lo) * (rank - seen) / c) / 1e3;
    }
    seen += c;
  }
  return static_cast<double>(h.max) / 1e3;
}

telemetry::HistogramSnapshot registry_hist(const std::string& family) {
  telemetry::HistogramSnapshot merged;
  merged.buckets.assign(telemetry::Histogram::kBuckets, 0);
  for (const auto& fam : telemetry::Registry::global().collect()) {
    if (fam.name != family) continue;
    for (const auto& s : fam.samples) merged.merge(s.hist);
  }
  return merged;
}

telemetry::HistogramSnapshot hist_delta(const telemetry::HistogramSnapshot& a,
                                        const telemetry::HistogramSnapshot& b) {
  telemetry::HistogramSnapshot d = a;
  for (std::size_t i = 0; i < d.buckets.size() && i < b.buckets.size(); ++i) {
    d.buckets[i] -= b.buckets[i];
  }
  d.count -= b.count;
  d.sum -= b.sum;
  return d;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time all threads of the process have run.
std::uint64_t process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU time the calling thread has run.
std::uint64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }

// ------------------------------------------------------ host speed yardstick

// The shared host's cores run the same code faster or slower by up to ~25%
// over minutes (other guests' load on the same cores and caches), and the CPU
// clocks count that too. Each run therefore times a fixed integer loop of the
// benchmark's own while the deployment is idle (before set-up, after the
// warm-up and after the last phase) and scales its CPU figures to a core on which the loop takes
// kReferenceLoopUs, its median on the 4-vCPU x86 VM the benchmark was written
// on. The loop is not program code and runs while the program is idle, so no
// change to the program can move it.
constexpr double kReferenceLoopUs = 600;
constexpr int kReferenceSamples = 40;

/// Runs the loop kReferenceSamples times; appends each run's CPU time (us).
void sample_reference(std::vector<double>& out) {
  static std::atomic<std::uint64_t> sink{0};
  std::vector<std::uint64_t> buf(32768, 7);  // 256 KB
  for (int i = 0; i < kReferenceSamples; ++i) {
    const std::uint64_t c0 = thread_cpu_ns();
    std::uint64_t h = 1;
    for (int pass = 0; pass < 8; ++pass) {
      for (auto& x : buf) {
        h = (h ^ x) * 0x9E3779B97F4A7C15ull;
        h ^= h >> 29;
        x += h;
      }
    }
    out.push_back(static_cast<double>(thread_cpu_ns() - c0) / 1e3);
    sink.fetch_add(h, std::memory_order_relaxed);
  }
}

/// Restricts the calling thread, and every thread it creates afterwards, to
/// the first CPU it may run on, and returns that CPU.
///
/// hot_batched and cold_rw run this way. Each of their ops is a chain of
/// hand-offs between threads (batcher, server, store, PUT worker). Across the
/// host's vCPUs every hand-off is an interrupt to another vCPU, whose cost the
/// host sets by its own load: unpinned, hot_batched's CPU per op moved from
/// 95 us to 134 us and its wall-clock rate from 12.1k/s to 3.8k/s between
/// runs. On one CPU a hand-off is a local context switch; in the same hour
/// the pinned runs read 65-78 us/op and 10.2k-11.3k ops/s.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) == 0) return cpu;
      break;
    }
  }
  throw Error("perfbench: could not pin the run to one CPU");
}

void wait_until(std::uint64_t due_ns) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= due_ns) return;
    const std::uint64_t left = due_ns - now;
    // Sleep through most of the wait (timer slack is ~60 us), then yield
    // until due.
    if (left > 150000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
    } else {
      std::this_thread::yield();
    }
  }
}

// ------------------------------------------------------------ counter deltas

struct Counters {
  store::ResultStore::Stats store;
  store::BackendStats backend;
  runtime::DedupRuntime::Stats rt;  ///< summed over apps
  std::uint64_t app_ecalls = 0, app_ocalls = 0;
  std::uint64_t store_ecalls = 0, store_ocalls = 0;
  std::uint64_t frames = 0, wire_bytes = 0;
  telemetry::HistogramSnapshot get_ns, put_ns;
};

Counters snapshot(Deployment& dep) {
  Counters c;
  c.store = dep.store().stats();
  c.backend = dep.backend().stats();
  for (auto& app : dep.apps()) {
    const auto s = app.rt->stats();
    c.rt.calls += s.calls;
    c.rt.local_hits += s.local_hits;
    c.rt.hits += s.hits;
    c.rt.misses += s.misses;
    c.rt.failed_recoveries += s.failed_recoveries;
    c.rt.degraded_calls += s.degraded_calls;
    c.rt.puts_sent += s.puts_sent;
    c.rt.puts_rejected += s.puts_rejected;
    c.rt.puts_dropped += s.puts_dropped;
    c.rt.stream_degraded += s.stream_degraded;
    c.rt.stream_bytes_deduped += s.stream_bytes_deduped;
    c.app_ecalls += app.enclave->ecall_count();
    c.app_ocalls += app.enclave->ocall_count();
  }
  c.store_ecalls = dep.store().enclave().ecall_count();
  c.store_ocalls = dep.store().enclave().ocall_count();
  c.frames = dep.wire().frames.load();
  c.wire_bytes = dep.wire().bytes.load();
  c.get_ns = registry_hist("speed_store_get_ns");
  c.put_ns = registry_hist("speed_store_put_ns");
  return c;
}

/// Failed ops the runtimes counted between two snapshots: degraded calls,
/// failed recoveries, dropped or rejected PUTs, degraded stream puts.
std::uint64_t runtime_failures(const Counters& b, const Counters& a) {
  return (a.rt.degraded_calls - b.rt.degraded_calls) +
         (a.rt.failed_recoveries - b.rt.failed_recoveries) +
         (a.rt.puts_dropped - b.rt.puts_dropped) +
         (a.rt.puts_rejected - b.rt.puts_rejected) +
         (a.rt.stream_degraded - b.rt.stream_degraded);
}

/// Bytes the store keeps on the host: live blobs (result ciphertext and
/// sealed metadata records) plus the WAL.
double host_bytes(const Counters& c) {
  return static_cast<double>(c.backend.live_blob_bytes + c.backend.wal_bytes);
}

// ------------------------------------------------------------------ op logs

// A closed loop is cut into this many equal windows, for the wall-clock
// rates the traced run reports: the median window's, the slowest window's and
// the whole phase's. A traced run has tracing on in every other window (see
// run_closed).
constexpr std::size_t kWindows = 20;

/// What one client thread observed in a measured phase.
struct ThreadLog {
  std::uint64_t phase_start = 0, phase_end = ~0ull;
  std::uint64_t window_ns = 0;  ///< 0: the phase is not cut into windows
  std::array<std::uint64_t, kWindows> done{};  ///< ops completed per window
  std::vector<double> hit, miss, late;  ///< latency in us
  std::vector<double> hit_cpu, miss_cpu;  ///< caller-thread CPU per call, us
  std::uint64_t in_phase = 0;  ///< ops completed before the phase ended
  std::uint64_t ops = 0;       ///< ops completed
  std::uint64_t marked = 0;
  std::uint64_t wrong = 0;
  std::uint64_t errors = 0;           ///< ops that threw; not completed
  std::uint64_t unexpected = 0;       ///< hit/miss outcome the schedule rules out
  std::uint64_t kept_bytes = 0;       ///< plaintext the store was asked to keep
  std::uint64_t block_put_bytes = 0;
  std::uint64_t traced_ops = 0, untraced_ops = 0;
  bool exhausted = false;

  /// Counts one op that returned (`traced`: tracing was on when it started).
  void completed(std::uint64_t end_ns, bool traced) {
    if (end_ns <= phase_end) {
      ++in_phase;
      if (window_ns > 0 && end_ns >= phase_start) {
        ++done[std::min<std::uint64_t>((end_ns - phase_start) / window_ns, kWindows - 1)];
      }
    }
    ++ops;
    ++(traced ? traced_ops : untraced_ops);
  }
};

std::vector<ThreadLog> make_logs(std::size_t threads, std::uint64_t phase_start,
                                 double seconds) {
  std::vector<ThreadLog> logs(threads);
  for (auto& l : logs) {
    l.phase_start = phase_start;
    l.phase_end = phase_start + static_cast<std::uint64_t>(seconds * 1e9);
    l.window_ns = static_cast<std::uint64_t>(seconds * 1e9 / kWindows);
  }
  return logs;
}

struct PhaseTotals {
  std::vector<double> hit, miss, late;
  std::vector<double> hit_cpu, miss_cpu;
  std::array<std::uint64_t, kWindows> done{};
  std::uint64_t in_phase = 0;
  std::uint64_t ops = 0, marked = 0, wrong = 0, errors = 0, unexpected = 0;
  std::uint64_t kept_bytes = 0, block_put_bytes = 0;
  std::uint64_t traced_ops = 0, untraced_ops = 0;
  bool exhausted = false;

  void add(const PhaseTotals& o) {
    ops += o.ops;
    marked += o.marked;
    wrong += o.wrong;
    errors += o.errors;
    unexpected += o.unexpected;
    kept_bytes += o.kept_bytes;
    block_put_bytes += o.block_put_bytes;
    exhausted = exhausted || o.exhausted;
  }
};

PhaseTotals merge_logs(const std::vector<ThreadLog>& logs) {
  PhaseTotals t;
  for (const auto& l : logs) {
    t.hit.insert(t.hit.end(), l.hit.begin(), l.hit.end());
    t.miss.insert(t.miss.end(), l.miss.begin(), l.miss.end());
    t.late.insert(t.late.end(), l.late.begin(), l.late.end());
    t.hit_cpu.insert(t.hit_cpu.end(), l.hit_cpu.begin(), l.hit_cpu.end());
    t.miss_cpu.insert(t.miss_cpu.end(), l.miss_cpu.begin(), l.miss_cpu.end());
    t.in_phase += l.in_phase;
    for (std::size_t w = 0; w < kWindows; ++w) t.done[w] += l.done[w];
    t.ops += l.ops;
    t.marked += l.marked;
    t.wrong += l.wrong;
    t.errors += l.errors;
    t.unexpected += l.unexpected;
    t.kept_bytes += l.kept_bytes;
    t.block_put_bytes += l.block_put_bytes;
    t.traced_ops += l.traced_ops;
    t.untraced_ops += l.untraced_ops;
    t.exhausted = t.exhausted || l.exhausted;
  }
  return t;
}

/// Ops per second in each window of a phase of `seconds`, sorted.
std::vector<double> window_rates(const PhaseTotals& t, double seconds) {
  std::vector<double> rates;
  for (const std::uint64_t n : t.done) {
    rates.push_back(static_cast<double>(n) * kWindows / seconds);
  }
  std::sort(rates.begin(), rates.end());
  return rates;
}

/// Closed-loop time and ops with tracing on and off (alternating windows),
/// and all wall time spent tracing.
struct TraceSplit {
  double traced_s = 0, untraced_s = 0;
  std::uint64_t traced_ops = 0, untraced_ops = 0;
  double all_traced_s = 0;
};

/// Closed loop from `start`: each thread issues its next op as soon as the
/// previous one returns, until `seconds` pass. `body(thread, i)` runs op i;
/// false means the thread's sequence is used up. With `alternate_trace`,
/// tracing is switched on for every other window of the phase. Returns the
/// CPU seconds the whole process ran in each window.
std::vector<double> run_closed(std::size_t threads, std::uint64_t start, double seconds,
                bool alternate_trace, TraceSplit& split,
                const std::function<bool(std::size_t, std::size_t)>& body) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        if (!body(t, i)) break;
      }
    });
  }
  Tracer& tracer = Tracer::global();
  const double window = seconds / kWindows;
  std::vector<double> window_cpu_s;
  std::uint64_t cpu0 = process_cpu_ns();
  for (std::size_t w = 0; w < kWindows; ++w) {
    const bool on = alternate_trace && (w % 2) == 1;
    tracer.set_enabled(on);
    const auto end = start + static_cast<std::uint64_t>(window * 1e9 * static_cast<double>(w + 1));
    const std::uint64_t t0 = now_ns();
    std::this_thread::sleep_for(std::chrono::nanoseconds(end > t0 ? end - t0 : 0));
    (on ? split.traced_s : split.untraced_s) += static_cast<double>(now_ns() - t0) / 1e9;
    const std::uint64_t cpu1 = process_cpu_ns();
    window_cpu_s.push_back(static_cast<double>(cpu1 - cpu0) / 1e9);
    cpu0 = cpu1;
  }
  tracer.set_enabled(false);
  stop = true;
  for (auto& th : ts) th.join();
  return window_cpu_s;
}

/// Open loop from `start`: thread t issues op i at start + due[t][i] whether
/// or not earlier ops have returned, for `seconds` of schedule;
/// `body(t, i, due_ns)` times the op from its due time. Returns elapsed
/// seconds.
double run_open(const std::vector<std::vector<std::uint64_t>>& due, std::uint64_t start,
                double seconds,
                const std::function<void(std::size_t, std::size_t, std::uint64_t)>& body) {
  const auto limit = static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < due.size(); ++t) {
    ts.emplace_back([&, t] {
      for (std::size_t i = 0; i < due[t].size() && due[t][i] < limit; ++i) {
        wait_until(start + due[t][i]);
        body(t, i, start + due[t][i]);
      }
    });
  }
  for (auto& th : ts) th.join();
  return static_cast<double>(now_ns() - start) / 1e9;
}

/// One marked call through DedupRuntime::execute, timed from `due_ns`.
/// Returns the outcome, or nullopt when the call threw: such a call counts as
/// an error and not as a completed op.
std::optional<runtime::DedupRuntime::Outcome> marked_call(
    runtime::DedupRuntime& rt, const mle::FunctionIdentity& fn, ByteView input,
    const std::function<Bytes()>& compute, std::uint64_t due_ns,
    ThreadLog& log) {
  Tracer& tracer = Tracer::global();
  const bool traced = tracer.enabled();
  Tracer::set_current_call(tracer.new_call_id());
  const std::uint64_t c0 = thread_cpu_ns();
  const std::uint64_t t0 = now_ns();
  std::optional<runtime::DedupRuntime::Outcome> out;
  try {
    out = rt.execute(fn, input, [&] {
      const ScopedSpan span(Layer::kCompute);
      return compute();
    });
  } catch (const std::exception&) {
    ++log.errors;
  }
  const std::uint64_t t1 = now_ns();
  const double cpu_us = static_cast<double>(thread_cpu_ns() - c0) / 1e3;
  if (traced) tracer.record(Layer::kExecute, t0, t1);
  Tracer::set_current_call(0);
  if (!out.has_value()) return out;
  log.completed(t1, traced);
  ++log.marked;
  const double us = static_cast<double>(t1 - due_ns) / 1e3;
  if (out->deduplicated) {
    log.hit.push_back(us);
    log.hit_cpu.push_back(cpu_us);
  } else {
    log.miss.push_back(us);
    log.miss_cpu.push_back(cpu_us);
    log.kept_bytes += out->result.size();
  }
  return out;
}

// -------------------------------------------------------- per-layer replays

struct MleSample {
  mle::FunctionIdentity fn;
  Bytes input;
  Bytes result;
};

struct MleReplay {
  double tag_us = 0, recover_us = 0, protect_us = 0;
};

/// Times the public RCE functions the runtime runs on each path, on the
/// workload's own inputs: tag derivation on every call, protect on a miss,
/// recover on a store hit.
MleReplay replay_mle(const std::vector<MleSample>& samples) {
  MleReplay r;
  if (samples.empty()) return r;
  crypto::Drbg drbg(as_bytes("perfbench-mle-replay"));
  double tag = 0, prot = 0, rec = 0;
  for (const auto& s : samples) {
    std::uint64_t t0 = now_ns();
    const mle::ComputationContext ctx(s.fn, s.input);
    const mle::Tag t = ctx.tag();
    std::uint64_t t1 = now_ns();
    tag += static_cast<double>(t1 - t0);
    (void)t;
    t0 = now_ns();
    const auto entry = mle::ResultCipher::protect(ctx, s.result, drbg);
    t1 = now_ns();
    prot += static_cast<double>(t1 - t0);
    t0 = now_ns();
    const auto back = mle::ResultCipher::recover(ctx, entry);
    t1 = now_ns();
    rec += static_cast<double>(t1 - t0);
    if (!back.has_value()) throw Error("perfbench: RCE replay failed to recover");
  }
  const double n = static_cast<double>(samples.size());
  r.tag_us = tag / n / 1e3;
  r.protect_us = prot / n / 1e3;
  r.recover_us = rec / n / 1e3;
  return r;
}

/// Enclave::seal / unseal at the size of one sealed metadata spill record.
std::pair<double, double> replay_seal(sgx::Enclave& enclave) {
  store::MetaRecord rec;
  rec.challenge.assign(mle::kChallengeSize, 0x5a);
  rec.wrapped_key.assign(mle::kResultKeySize, 0xa5);
  rec.blob_bytes = 600;
  const Bytes plain = store::encode_meta_record(rec);
  const Bytes aad = store::meta_seal_aad();
  constexpr int kN = 2000;
  std::vector<Bytes> sealed;
  sealed.reserve(kN);
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kN; ++i) sealed.push_back(enclave.seal(aad, plain));
  const std::uint64_t t1 = now_ns();
  for (const auto& s : sealed) {
    if (!enclave.unseal(aad, s).has_value()) throw Error("perfbench: unseal failed");
  }
  const std::uint64_t t2 = now_ns();
  return {static_cast<double>(t1 - t0) / kN / 1e3,
          static_cast<double>(t2 - t1) / kN / 1e3};
}

/// SecureChannel wrap/unwrap replayed at the frame sizes the run sent.
std::pair<double, double> replay_channel() {
  const FrameSizeSample frames = sampled_frame_sizes();
  if (frames.request.empty()) return {0, 0};
  const Bytes key(16, 0x42);  // the handshake derives AES-128 session keys
  const std::size_t overhead = net::SecureChannel(key, true).wrap(Bytes{}).size();
  net::SecureChannel client(key, true);
  net::SecureChannel server(key, false);
  double wrap_ns = 0, unwrap_ns = 0;
  std::size_t n = 0;
  const auto one = [&](net::SecureChannel& from, net::SecureChannel& to,
                       std::uint32_t frame_bytes) {
    const Bytes plain(frame_bytes > overhead ? frame_bytes - overhead : 0, 0x33);
    const std::uint64_t t0 = now_ns();
    const Bytes frame = from.wrap(plain);
    const std::uint64_t t1 = now_ns();
    const auto back = to.unwrap(frame);
    const std::uint64_t t2 = now_ns();
    if (!back.has_value()) throw Error("perfbench: channel replay failed");
    wrap_ns += static_cast<double>(t1 - t0);
    unwrap_ns += static_cast<double>(t2 - t1);
    ++n;
  };
  for (std::size_t i = 0; i < frames.request.size(); ++i) {
    one(client, server, frames.request[i]);
    one(server, client, frames.response[i]);
  }
  return {wrap_ns / static_cast<double>(n) / 1e3,
          unwrap_ns / static_cast<double>(n) / 1e3};
}

// ----------------------------------------------------------- span analysis

struct SpanStats {
  double execute_us = 0, compute_us = 0, round_trip_us = 0;
  double transitions_us = 0, self_us = 0;
  double compute_ms_per_miss = 0;
  double rtt_p50_us = 0, rtt_p99_us = 0, rtt_mean_us = 0;
  double blob_get_us = 0, blob_put_us = 0, wal_append_us = 0, wal_sync_us = 0;
  double backend_busy_ms = 0;
  std::size_t calls = 0;
};

SpanStats analyze_spans(const std::vector<Span>& spans, const sgx::CostModel& cost) {
  SpanStats st;
  struct PerCall {
    std::uint64_t exec = 0, compute = 0, rtt = 0, rtt_n = 0;
    bool has_exec = false;
  };
  std::map<std::uint64_t, PerCall> calls;
  std::vector<double> rtts;
  double computes = 0, compute_n = 0;
  std::array<double, static_cast<std::size_t>(Layer::kCount)> layer_sum{};
  std::array<double, static_cast<std::size_t>(Layer::kCount)> layer_n{};
  for (const Span& s : spans) {
    const auto d = static_cast<double>(s.end_ns - s.start_ns);
    layer_sum[static_cast<std::size_t>(s.layer)] += d;
    layer_n[static_cast<std::size_t>(s.layer)] += 1;
    switch (s.layer) {
      case Layer::kExecute:
        calls[s.call].exec += s.end_ns - s.start_ns;
        calls[s.call].has_exec = true;
        break;
      case Layer::kCompute:
        computes += d;
        compute_n += 1;
        if (s.call != 0) calls[s.call].compute += s.end_ns - s.start_ns;
        break;
      case Layer::kRoundTrip:
        rtts.push_back(d / 1e3);
        if (s.call != 0) {
          calls[s.call].rtt += s.end_ns - s.start_ns;
          ++calls[s.call].rtt_n;
        }
        break;
      default:
        break;
    }
  }
  const double ecall_pair = 2.0 * static_cast<double>(cost.ecall_ns);
  const double ocall_pair = 2.0 * static_cast<double>(cost.ocall_ns);
  double exec = 0, comp = 0, rtt = 0, trans = 0;
  for (const auto& [id, c] : calls) {
    if (!c.has_exec) continue;
    ++st.calls;
    exec += static_cast<double>(c.exec);
    comp += static_cast<double>(c.compute);
    rtt += static_cast<double>(c.rtt);
    // The execute ECALL, plus one OCALL per frame this call shipped.
    trans += ecall_pair + ocall_pair * static_cast<double>(c.rtt_n);
  }
  const double n = static_cast<double>(st.calls);
  if (n > 0) {
    st.execute_us = exec / n / 1e3;
    st.compute_us = comp / n / 1e3;
    st.round_trip_us = rtt / n / 1e3;
    st.transitions_us = trans / n / 1e3;
    st.self_us = (exec - comp - rtt) / n / 1e3;
  }
  st.compute_ms_per_miss = ratio(computes, compute_n) / 1e6;
  st.rtt_p50_us = percentile(rtts, 0.5);
  st.rtt_p99_us = percentile(rtts, 0.99);
  st.rtt_mean_us = mean(rtts);
  const auto lmean = [&](Layer l) {
    const auto i = static_cast<std::size_t>(l);
    return ratio(layer_sum[i], layer_n[i]) / 1e3;
  };
  st.blob_get_us = lmean(Layer::kBlobGet);
  st.blob_put_us = lmean(Layer::kBlobPut);
  st.wal_append_us = lmean(Layer::kWalAppend);
  st.wal_sync_us = lmean(Layer::kWalSync);
  for (Layer l : {Layer::kBlobGet, Layer::kBlobPut, Layer::kWalAppend, Layer::kWalSync}) {
    st.backend_busy_ms += layer_sum[static_cast<std::size_t>(l)] / 1e6;
  }
  return st;
}

// ----------------------------------------------------------------- reports

struct RunData {
  std::string workload;
  PhaseTotals totals;
  PhaseTotals warm;      ///< untimed warm-up
  PhaseTotals open;      ///< traced open-loop phase (key/value workloads)
  double open_rate = 0;
  /// Closed loop, wall clock: the median window's ops/s, the whole phase's
  /// and the slowest window's.
  double ops_per_s = 0, phase_ops_per_s = 0, worst_window_ops_per_s = 0;
  /// Process CPU seconds in each window of the closed loop.
  std::vector<double> window_cpu_s;
  /// Per bring-up: process CPU seconds and wall seconds.
  std::vector<double> setup_cpu_s, setup_wall_s;
  /// CPU time of each run of the yardstick loop (see kReferenceLoopUs).
  std::vector<double> reference_us;
  /// `start`: before the warm-up; `before`/`after`: around the measured phase.
  Counters start, before, after;
  /// Host bytes stored per plaintext byte the apps asked to keep, over the
  /// warm-up: a fixed op count, so the figure does not depend on how many
  /// ops a timed phase happened to complete.
  double storage_ratio = 0;
  /// Peak RSS through set-up and the warm-up: a fixed amount of work, so the
  /// figure does not grow with how many ops the timed phase completed.
  double peak_rss_mb = 0;
  double epc_peak_mb = 0;
  double meta_resident_mb = 0;
  // Traced run only.
  std::vector<Span> spans;
  TraceSplit split;
  MleReplay mle;
  std::pair<double, double> seal{0, 0}, channel{0, 0};
  double split_us_per_mb = 0;
  double result_mb_per_app = 0;  ///< apps_mix only
  sgx::CostModel cost;

  /// Factor that scales this run's CPU figures to the reference core speed.
  double speed_scale() const { return kReferenceLoopUs / median(reference_us); }

  /// Sets the closed-loop rates from `totals`, a phase of `seconds`.
  void set_rates(double seconds) {
    const std::vector<double> rates = window_rates(totals, seconds);
    ops_per_s = median(rates);
    phase_ops_per_s = static_cast<double>(totals.in_phase) / seconds;
    worst_window_ops_per_s = rates.front();
  }
};

void add(Report& r, const std::string& name, double value, const char* unit) {
  r.metrics.push_back({name, value, unit});
}

void end_to_end_metrics(const RunData& d, Report& r) {
  const PhaseTotals& t = d.totals;
  const double k = d.speed_scale();
  // Median window: a stretch of the run in which the host made every op
  // cost more CPU (see "Why CPU time" in README.md) moves it only if it
  // covers half of the windows.
  std::vector<double> per_op;
  for (std::size_t w = 0; w < d.window_cpu_s.size(); ++w) {
    if (t.done[w] == 0) continue;
    per_op.push_back(1e6 * d.window_cpu_s[w] / static_cast<double>(t.done[w]));
  }
  const double cpu_us_per_op = median(per_op);
  add(r, "setup_s", k * median(d.setup_cpu_s), "s");
  add(r, "cpu_us_per_op", k * cpu_us_per_op, "us");
  add(r, "hit_cpu_p50_us", k * median(t.hit_cpu), "us");
  add(r, "miss_cpu_p50_us", k * median(t.miss_cpu), "us");
  r.notes.push_back("yardstick loop " + std::to_string(median(d.reference_us)) +
                    " us (scale " + std::to_string(k) + "); unscaled: setup " +
                    std::to_string(median(d.setup_cpu_s)) + " s, " +
                    std::to_string(cpu_us_per_op) + " us/op, hit " +
                    std::to_string(median(t.hit_cpu)) + " us, miss " +
                    std::to_string(median(t.miss_cpu)) + " us");
  add(r, "stored_bytes_per_user_byte", d.storage_ratio, "ratio");
  add(r, "peak_rss_mb", d.peak_rss_mb, "MB");
  r.notes.push_back("wall clock: setup " + std::to_string(median(d.setup_wall_s)) +
                    " s, " + std::to_string(d.ops_per_s) + " ops/s, hit p50 " +
                    std::to_string(median(t.hit)) + " us, miss p50 " +
                    std::to_string(median(t.miss)) + " us");
}

void per_layer_metrics(const RunData& d, Report& r) {
  const Counters& b = d.before;
  const Counters& a = d.after;
  const auto delta = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(x - y);
  };
  const double ops = static_cast<double>(d.totals.ops);
  const SpanStats sp = analyze_spans(d.spans, d.cost);

  const double calls = delta(a.rt.calls, b.rt.calls);
  const double local_hits = delta(a.rt.local_hits, b.rt.local_hits);
  const double store_hits = delta(a.rt.hits, b.rt.hits);
  const double misses = delta(a.rt.misses, b.rt.misses);
  const double gets = delta(a.store.get_requests, b.store.get_requests);
  const double puts = delta(a.store.put_requests, b.store.put_requests);
  const double frames = delta(a.frames, b.frames);
  const auto get_h = hist_delta(a.get_ns, b.get_ns);
  const auto put_h = hist_delta(a.put_ns, b.put_ns);
  const double service_us =
      ratio(static_cast<double>(get_h.sum + put_h.sum), frames) / 1e3;

  add(r, "apps.compute_ms_per_miss", sp.compute_ms_per_miss, "ms");
  add(r, "mle.tag_us_per_call", d.mle.tag_us, "us");
  add(r, "mle.recover_us_per_hit", d.mle.recover_us, "us");
  add(r, "mle.protect_us_per_miss", d.mle.protect_us, "us");
  add(r, "crypto.seal_us_per_record", d.seal.first, "us");
  add(r, "crypto.unseal_us_per_record", d.seal.second, "us");
  add(r, "net.channel_wrap_us", d.channel.first, "us");
  add(r, "net.channel_unwrap_us", d.channel.second, "us");
  add(r, "net.round_trip_p50_us", sp.rtt_p50_us, "us");
  add(r, "net.round_trip_p99_us", sp.rtt_p99_us, "us");
  add(r, "net.round_trips_per_call", ratio(frames, ops), "count");
  add(r, "net.wire_bytes_per_call", ratio(delta(a.wire_bytes, b.wire_bytes), ops), "B");
  add(r, "net.round_trip_self_us", sp.rtt_mean_us - service_us, "us");
  add(r, "runtime.local_hit_ratio", ratio(local_hits, calls), "ratio");
  add(r, "runtime.store_hit_ratio", ratio(store_hits, store_hits + misses), "ratio");
  add(r, "runtime.miss_ratio", ratio(misses, calls), "ratio");
  add(r, "apps.result_mb_per_app", d.result_mb_per_app, "MB");
  add(r, "runtime.ops_per_batch", ratio(gets + puts, frames), "count");
  add(r, "runtime.self_us_per_call", sp.self_us, "us");
  const double app_trans =
      delta(a.app_ecalls, b.app_ecalls) + delta(a.app_ocalls, b.app_ocalls);
  const double store_trans =
      delta(a.store_ecalls, b.store_ecalls) + delta(a.store_ocalls, b.store_ocalls);
  add(r, "sgx.app_transitions_per_call", ratio(app_trans, ops), "count");
  add(r, "sgx.store_ecalls_per_op", ratio(delta(a.store_ecalls, b.store_ecalls), ops), "count");
  // Each ECALL/OCALL is charged twice (enter and exit) at the one-way cost.
  const double one_way_ns = static_cast<double>(d.cost.ecall_ns);
  add(r, "sgx.modeled_us_per_call",
      ratio((app_trans + store_trans) * 2.0 * one_way_ns, ops) / 1e3, "us");
  add(r, "sgx.epc_peak_mb", d.epc_peak_mb, "MB");
  add(r, "chunk.split_us_per_mb", d.split_us_per_mb, "us/MB");
  add(r, "chunk.dedup_ratio",
      ratio(delta(a.rt.stream_bytes_deduped, b.rt.stream_bytes_deduped),
            static_cast<double>(d.totals.block_put_bytes)),
      "ratio");
  add(r, "store.get_p50_us", hist_quantile_us(get_h, 0.5), "us");
  add(r, "store.put_p50_us", hist_quantile_us(put_h, 0.5), "us");
  // Per GET that found its entry: only those have a record to fault in.
  add(r, "store.fault_ins_per_get",
      ratio(delta(a.store.meta_fault_ins, b.store.meta_fault_ins),
            delta(a.store.hits, b.store.hits)),
      "count");
  add(r, "store.spills_per_put",
      ratio(delta(a.store.meta_spills, b.store.meta_spills), puts), "count");
  add(r, "store.wal_fsyncs_per_put",
      ratio(delta(a.backend.wal_fsyncs, b.backend.wal_fsyncs), puts), "count");
  add(r, "store.meta_resident_mb", d.meta_resident_mb, "MB");
  add(r, "store.backend.get_blob_us", sp.blob_get_us, "us");
  add(r, "store.backend.put_blob_us", sp.blob_put_us, "us");
  add(r, "store.backend.wal_append_us", sp.wal_append_us, "us");
  add(r, "store.backend.wal_sync_us", sp.wal_sync_us, "us");
  add(r, "store.backend.busy_ms", ratio(sp.backend_busy_ms, d.split.all_traced_s),
      "ms/s");
  add(r, "harness.reference_loop_us", median(d.reference_us), "us");
  add(r, "harness.setup_wall_s", median(d.setup_wall_s), "s");
  add(r, "harness.ops_per_s", d.ops_per_s, "1/s");
  add(r, "harness.hit_p50_us", median(d.totals.hit), "us");
  add(r, "harness.miss_p50_us", median(d.totals.miss), "us");
  add(r, "harness.phase_ops_per_s", d.phase_ops_per_s, "1/s");
  add(r, "harness.worst_window_ops_per_s", d.worst_window_ops_per_s, "1/s");
  add(r, "harness.open_rate", d.open_rate, "1/s");
  add(r, "harness.open_hit_p50_us", percentile(d.open.hit, 0.5), "us");
  add(r, "harness.open_hit_p99_us", percentile(d.open.hit, 0.99), "us");
  add(r, "harness.open_miss_p50_us", percentile(d.open.miss, 0.5), "us");
  add(r, "harness.open_miss_p99_us", percentile(d.open.miss, 0.99), "us");
  add(r, "harness.gen_late_p99_us", percentile(d.open.late, 0.99), "us");
  // Closed-loop throughput in traced slices against untraced ones.
  const double traced_rate =
      ratio(static_cast<double>(d.split.traced_ops), d.split.traced_s);
  const double untraced_rate =
      ratio(static_cast<double>(d.split.untraced_ops), d.split.untraced_s);
  add(r, "harness.trace_overhead_pct",
      untraced_rate > 0 ? 100.0 * (1.0 - traced_rate / untraced_rate) : 0, "%");

  // Per marked call: where the time of DedupRuntime::execute went. Crypto is
  // the replayed RCE cost weighted by how often each path ran; transitions
  // are the modeled charge on the calling thread; the rest is unattributed.
  const double crypto = d.mle.tag_us + ratio(store_hits, calls) * d.mle.recover_us +
                        ratio(misses, calls) * d.mle.protect_us;
  add(r, "breakdown.execute_us", sp.execute_us, "us");
  add(r, "breakdown.compute_us", sp.compute_us, "us");
  add(r, "breakdown.round_trip_us", sp.round_trip_us, "us");
  add(r, "breakdown.crypto_us", crypto, "us");
  add(r, "breakdown.transitions_us", sp.transitions_us, "us");
  add(r, "breakdown.unattributed_us",
      sp.execute_us - sp.compute_us - sp.round_trip_us - crypto - sp.transitions_us,
      "us");
}

/// Common tail of every workload: counters, telemetry snapshot, metrics.
void finish(RunData& d, Deployment& dep, const Options& opt, Report& r) {
  sample_reference(d.reference_us);
  d.after = snapshot(dep);
  d.epc_peak_mb = static_cast<double>(dep.platform().epc().peak_bytes()) / kMB;
  d.meta_resident_mb = static_cast<double>(d.after.store.meta_resident_bytes) / kMB;
  d.cost = dep.platform().cost_model();
  // Read before teardown: per-store collectors deregister on destruction.
  const std::string telemetry = telemetry::snapshot_json();
  if (!opt.out_dir.empty()) {
    std::ofstream(opt.out_dir + "/" + d.workload + ".telemetry.json") << telemetry;
  }
  if (opt.trace) {
    d.seal = replay_seal(dep.store().enclave());
    d.channel = replay_channel();
  }

  // Attempted and failed ops include the warm-up, whose outputs are checked.
  // Any failed op fails the run: a wrong output, a call that threw, or one
  // the runtime degraded, could not recover, or whose PUT it dropped.
  PhaseTotals t = d.totals;
  t.add(d.warm);
  r.attempted = t.ops + t.errors;
  r.failed = t.wrong + t.errors + runtime_failures(d.start, d.after);
  r.correct = r.failed == 0 && !t.exhausted;
  if (r.failed > 0) {
    r.notes.push_back("error: " + std::to_string(t.wrong) + " wrong outputs, " +
                      std::to_string(t.errors) + " calls threw, " +
                      std::to_string(runtime_failures(d.start, d.after)) +
                      " runtime failures");
  }
  if (t.exhausted) r.notes.push_back("error: a pre-generated op sequence ran out");
  if (t.unexpected > 0) {
    r.notes.push_back("note: " + std::to_string(t.unexpected) +
                      " calls had an outcome the schedule rules out");
  }
  r.notes.push_back("fail_ratio " + std::to_string(ratio(static_cast<double>(r.failed),
                                                          static_cast<double>(r.attempted))) +
                    " (failed " + std::to_string(r.failed) + " / attempted " +
                    std::to_string(r.attempted) + ")");
}

void finish_trace(RunData& d, const Options& opt, Report& r) {
  Tracer::global().set_enabled(false);
  d.spans = Tracer::global().collect();
  if (!opt.out_dir.empty()) {
    Tracer::write_csv(opt.out_dir + "/" + d.workload + ".spans.csv", d.spans);
  }
  per_layer_metrics(d, r);
}

/// Runs the warm-up: every thread runs its whole fixed op sequence. Its ops
/// are checked and counted like measured ones but not timed; it also gives
/// the storage figure (see RunData::storage_ratio).
void warm_up(RunData& d, Deployment& dep, std::size_t threads,
             const std::function<void(std::size_t, ThreadLog&)>& body) {
  d.start = snapshot(dep);
  std::vector<ThreadLog> logs(threads);
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] { body(t, logs[t]); });
  }
  for (auto& th : ts) th.join();
  dep.flush_all();
  const PhaseTotals warm = merge_logs(logs);
  d.storage_ratio = ratio(host_bytes(snapshot(dep)) - host_bytes(d.start),
                          static_cast<double>(warm.kept_bytes + warm.block_put_bytes));
  d.warm = warm;
  d.peak_rss_mb = peak_rss_mb();
  sample_reference(d.reference_us);
}

/// Brings the deployment up `reps` times, tearing the previous one down
/// first, and records each bring-up's wall and process CPU time. `verify`
/// (untimed) checks each bring-up.
std::unique_ptr<Deployment> timed_setup(
    int reps, const DeploymentSpec& spec, RunData& d,
    const std::function<void(Deployment&)>& verify = {}) {
  sample_reference(d.reference_us);
  std::unique_ptr<Deployment> dep;
  for (int i = 0; i < reps; ++i) {
    dep.reset();
    const std::uint64_t c0 = process_cpu_ns();
    const std::uint64_t t0 = now_ns();
    dep = std::make_unique<Deployment>(spec);
    d.setup_wall_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    d.setup_cpu_s.push_back(static_cast<double>(process_cpu_ns() - c0) / 1e9);
    if (verify) verify(*dep);
  }
  return dep;
}

// --------------------------------------------------------- key/value shape

struct KvPlan {
  DeploymentSpec spec;
  KvShape shape;
  std::uint64_t existing_space = 0;
  bool thread_per_app = false;  ///< thread t -> app t, else all on app 0
};

/// Preloads `count` entries of `space` straight into the store, as the
/// runtime would have protected them (owner = the app's enclave).
void preload(Deployment& dep, std::uint64_t space, std::size_t count) {
  const mle::FunctionIdentity fn = app_function("expand");
  std::vector<std::thread> ts;
  std::atomic<std::size_t> bad{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      auto& app = dep.apps()[t % dep.apps().size()];
      crypto::Drbg drbg(app.enclave->random_bytes(32));
      for (std::size_t k = t; k < count; k += kThreads) {
        const Bytes input = small_input(space, k);
        const mle::ComputationContext ctx(fn, input);
        serialize::PutRequest put;
        put.tag = ctx.tag();
        put.requester = app.enclave->measurement();
        put.entry = mle::ResultCipher::protect(ctx, expand_result(input), drbg);
        if (dep.store().put(put).status != serialize::PutStatus::kStored) ++bad;
      }
    });
  }
  for (auto& th : ts) th.join();
  if (bad > 0) throw Error("perfbench: preload PUT refused");
}

/// Runs op `i` of `thread` in `phase`: the expand function on a 64-byte
/// input, checked against a fresh computation of the expected result.
void kv_op(runtime::DedupRuntime& rt, const mle::FunctionIdentity& fn,
           const KvSchedule& sched, KvPhase phase, std::size_t thread,
           std::uint64_t i, std::uint64_t due, ThreadLog& log) {
  const Bytes input = sched.input(phase, thread, i);
  const auto out = marked_call(rt, fn, input, [&] { return expand_result(input); },
                               due, log);
  if (!out.has_value()) return;
  if (out->result != expand_result(input)) ++log.wrong;
  if (out->deduplicated == sched.op(phase, thread, i).fresh) ++log.unexpected;
}

std::vector<MleSample> kv_samples(const KvSchedule& s, const mle::FunctionIdentity& fn) {
  std::vector<MleSample> out;
  for (std::size_t t = 0; t < s.threads; ++t) {
    for (std::uint64_t i = 0; i < 500; ++i) {
      Bytes input = s.input(KvPhase::kClosed, t, i);
      Bytes result = expand_result(input);
      out.push_back({fn, std::move(input), std::move(result)});
    }
  }
  return out;
}

Report run_kv(const Options& opt, const KvPlan& plan, int setup_reps,
              std::size_t preload_count,
              const std::function<void(Deployment&)>& verify_setup = {}) {
  Report r;
  RunData d;
  d.workload = opt.workload;
  const KvSchedule sched =
      make_kv_schedule(plan.shape, plan.existing_space, opt.seed, opt.trace);
  r.notes.push_back("peak RSS before set-up " + std::to_string(peak_rss_mb()) + " MB");
  r.notes.push_back("pinned to CPU " + std::to_string(pin_to_one_cpu()));
  std::unique_ptr<Deployment> dep = timed_setup(setup_reps, plan.spec, d, verify_setup);
  if (preload_count > 0) preload(*dep, plan.existing_space, preload_count);

  const mle::FunctionIdentity fn = app_function("expand");
  const auto rt_for = [&](std::size_t t) -> runtime::DedupRuntime& {
    return *dep->apps()[plan.thread_per_app ? t : 0].rt;
  };
  const std::size_t threads = plan.shape.threads;

  warm_up(d, *dep, threads, [&](std::size_t t, ThreadLog& log) {
    for (std::size_t i = 0; i < plan.shape.warm_ops; ++i) {
      kv_op(rt_for(t), fn, sched, KvPhase::kWarm, t, i, now_ns(), log);
    }
  });

  // End-to-end runs measure one closed loop for the whole run. A traced run
  // splits it: a closed loop with tracing on in alternate slices, then an
  // open loop at the fixed rate, traced throughout.
  d.before = snapshot(*dep);
  const double closed_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::uint64_t closed_start = now_ns();
  std::vector<ThreadLog> closed = make_logs(threads, closed_start, closed_seconds);
  d.window_cpu_s = run_closed(
      threads, closed_start, closed_seconds, opt.trace, d.split,
      [&](std::size_t t, std::size_t i) {
        kv_op(rt_for(t), fn, sched, KvPhase::kClosed, t, i, now_ns(), closed[t]);
        return true;
      });
  d.totals = merge_logs(closed);
  d.set_rates(closed_seconds);
  d.split.traced_ops = d.totals.traced_ops;
  d.split.untraced_ops = d.totals.untraced_ops;
  d.split.all_traced_s = d.split.traced_s;

  if (opt.trace) {
    Tracer::global().set_enabled(true);
    const double open_seconds = opt.seconds / 2;
    const std::uint64_t open_start = now_ns() + 2000000;
    std::vector<ThreadLog> open = make_logs(threads, open_start, open_seconds);
    d.split.all_traced_s += run_open(sched.open_due_ns, open_start, open_seconds,
                                     [&](std::size_t t, std::size_t i, std::uint64_t due) {
      open[t].late.push_back(static_cast<double>(now_ns() - due) / 1e3);
      kv_op(rt_for(t), fn, sched, KvPhase::kOpen, t, i, due, open[t]);
    });
    Tracer::global().set_enabled(false);
    d.open = merge_logs(open);
    d.open_rate = plan.shape.open_rate;
    d.totals.add(d.open);
  }
  if (!dep->flush_all()) r.notes.push_back("warning: PUT queues did not drain");

  finish(d, *dep, opt, r);
  r.notes.push_back("closed loop: " + std::to_string(d.totals.ops - d.open.ops) +
                    " ops in " + std::to_string(closed_seconds) + " s");
  if (opt.trace) {
    r.notes.push_back("open loop: " + std::to_string(d.open.ops) + " ops at " +
                      std::to_string(d.open_rate) + " ops/s offered");
  }
  if (opt.trace) {
    d.mle = replay_mle(kv_samples(sched, fn));
    dep.reset();
    finish_trace(d, opt, r);
  } else {
    end_to_end_metrics(d, r);
  }
  return r;
}

// --------------------------------------------------------------- hot_batched

Report run_hot(const Options& opt) {
  KvPlan plan;
  plan.spec.apps = 1;
  plan.spec.store = bench_store_config();
  plan.spec.runtime.local_cache = false;
  plan.spec.runtime.batching.enabled = true;
  plan.spec.traced = opt.trace;
  plan.existing_space = derive_seed(opt.seed, 3);
  plan.shape.threads = kThreads;
  plan.shape.existing = kHotEntries;
  plan.shape.skew = 0.99;
  plan.shape.fresh_share = 0.05;
  plan.shape.warm_ops = 250;
  plan.shape.closed_ops = kClosedPattern;
  plan.shape.open_ops = static_cast<std::size_t>(
      2 * kHotOpenRate * opt.seconds / 2 / kThreads) + 100;
  plan.shape.open_rate = kHotOpenRate;
  return run_kv(opt, plan, kSetupRepsWarmStore, kHotEntries);
}

// ------------------------------------------------------------------- cold_rw

store::StoreConfig cold_store_config() {
  store::StoreConfig cfg = bench_store_config();
  // Room for the preloaded entries plus what a run adds, so nothing is evicted.
  cfg.max_ciphertext_bytes = 1ull << 30;
  return cfg;
}

/// Fills `backend` with the cold_rw entries, as the apps' runtimes would have
/// stored them. Not measured: the platform charges no modeled cost, but has
/// the runs' hardware key, so they can unseal the log.
void populate_cold(const std::shared_ptr<store::BlobBackend>& backend) {
  sgx::Platform platform(sgx::CostModel::disabled(), as_bytes(kColdPlatformSeed));
  store::StoreConfig cfg = cold_store_config();
  cfg.backend = backend;
  store::ResultStore store(platform, cfg);
  std::vector<std::unique_ptr<sgx::Enclave>> owners;
  for (std::size_t i = 0; i < kColdApps; ++i) {
    owners.push_back(platform.create_enclave("perfbench-app-" + std::to_string(i)));
  }
  const mle::FunctionIdentity fn = app_function("expand");
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      sgx::Enclave& owner = *owners[t % owners.size()];
      crypto::Drbg drbg(owner.random_bytes(32));
      for (std::size_t k = t; k < kColdEntries; k += kThreads) {
        const Bytes input = small_input(kColdPopulationSeed, k);
        const mle::ComputationContext ctx(fn, input);
        serialize::PutRequest put;
        put.tag = ctx.tag();
        put.requester = owner.measurement();
        put.entry = mle::ResultCipher::protect(ctx, expand_result(input), drbg);
        if (store.put(put).status != serialize::PutStatus::kStored) ++bad;
      }
    });
  }
  for (auto& th : ts) th.join();
  if (bad > 0) throw Error("perfbench: cold_rw population PUT refused");
}

Report run_cold(const Options& opt) {
  KvPlan plan;
  plan.spec.apps = kColdApps;
  plan.spec.store = cold_store_config();
  plan.spec.runtime.local_cache = false;
  plan.spec.backend = std::make_shared<store::MemoryBackend>(/*record_wal=*/true);
  plan.spec.platform_seed = kColdPlatformSeed;
  plan.spec.traced = opt.trace;
  plan.existing_space = kColdPopulationSeed;
  plan.thread_per_app = true;
  plan.shape.threads = kColdApps;
  plan.shape.existing = kColdEntries;
  plan.shape.fresh_share = 0.5;
  plan.shape.warm_ops = 100;
  plan.shape.closed_ops = kClosedPattern;
  plan.shape.open_ops = static_cast<std::size_t>(
      2 * kColdOpenRate * opt.seconds / 2 / kColdApps) + 100;
  plan.shape.open_rate = kColdOpenRate;
  populate_cold(plan.spec.backend);
  // Every bring-up reopens the same log: the replay finds the same records
  // (a run only appends after the last bring-up).
  return run_kv(opt, plan, kSetupRepsCold, 0, [](Deployment& dep) {
    if (dep.store().recovery_info().inserts != kColdEntries) {
      throw Error("perfbench: cold_rw reopen recovered " +
                  std::to_string(dep.store().recovery_info().inserts) + " entries");
    }
  });
}

// ------------------------------------------------------------------ apps_mix

constexpr std::size_t kAppThreads = 2;  // app enclaves, one thread each
// Ops generated per app per second of the run: over 10x the ~700/s an app
// completes on a 4-vCPU x86 VM. Running out fails the run.
constexpr double kAppOpsPerSecond = 10000;
// Items whose first computation is checked against a fresh run of the app
// function after the timed phase, per kind.
constexpr std::size_t kReferenceChecks = 40;

struct MarkedRecord {
  AppKind kind;
  std::uint32_t key;
  std::uint64_t hash;
  std::uint32_t bytes;  ///< result size
};

/// Hash of what the app function returned for each item, recorded by the
/// compute callback. Every result served later must match it.
class ResultBook {
 public:
  /// Records a computed result; false if the item was computed before with
  /// different bytes (the functions are deterministic).
  bool record(AppKind kind, std::uint32_t key, std::uint64_t hash) {
    std::lock_guard lock(mu_);
    const auto [it, inserted] = hashes_.emplace(id(kind, key), hash);
    return inserted || it->second == hash;
  }
  std::optional<std::uint64_t> find(AppKind kind, std::uint32_t key) const {
    const auto it = hashes_.find(id(kind, key));
    if (it == hashes_.end()) return std::nullopt;
    return it->second;
  }
  std::size_t size() const { return hashes_.size(); }
  /// Up to `n` items of `kind`, lowest keys first.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> first(AppKind kind,
                                                             std::size_t n) const {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    for (const auto& [k, h] : hashes_) {
      if (static_cast<AppKind>(k >> 32) == kind) {
        out.emplace_back(static_cast<std::uint32_t>(k), h);
      }
    }
    std::sort(out.begin(), out.end());
    if (out.size() > n) out.resize(n);
    return out;
  }

 private:
  static std::uint64_t id(AppKind kind, std::uint32_t key) {
    return (static_cast<std::uint64_t>(kind) << 32) | key;
  }
  std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> hashes_;
};

Report run_apps(const Options& opt) {
  Report r;
  RunData d;
  d.workload = opt.workload;
  const AppInputs in = make_app_inputs(
      opt.seed, kAppThreads, static_cast<std::size_t>(kAppOpsPerSecond * opt.seconds));
  const match::RuleSet ruleset(scanner_rules());
  r.notes.push_back("peak RSS before set-up " + std::to_string(peak_rss_mb()) + " MB");

  DeploymentSpec spec;
  spec.apps = kAppThreads;
  spec.store = bench_store_config();
  spec.traced = opt.trace;
  std::unique_ptr<Deployment> dep = timed_setup(kSetupRepsWarmStore, spec, d);

  const mle::FunctionIdentity fn_deflate = app_function("deflate");
  const mle::FunctionIdentity fn_scan = app_function("scan_sequential");
  const mle::FunctionIdentity fn_bow = app_function("bag_of_words");
  std::vector<std::unique_ptr<blockstore::BlockStore>> blocks;
  for (auto& app : dep->apps()) {
    blocks.push_back(std::make_unique<blockstore::BlockStore>(*app.rt));
  }

  // The app functions on an item's input (`input` = app_item_input).
  const auto compute = [&](AppKind kind, std::uint32_t key, const Bytes& input) -> Bytes {
    switch (kind) {
      case AppKind::kDeflate: return deflate::compress(input);
      case AppKind::kScan: return serialize::serialize(ruleset.scan_sequential(input));
      case AppKind::kBow:
        return serialize::serialize(mapreduce::bag_of_words(app_item_pages(in, key)));
      default: return {};
    }
  };
  const auto fn_of = [&](AppKind kind) -> const mle::FunctionIdentity& {
    return kind == AppKind::kDeflate ? fn_deflate
           : kind == AppKind::kScan  ? fn_scan
                                     : fn_bow;
  };
  ResultBook book;
  std::atomic<std::uint64_t> inconsistent{0};
  std::vector<std::vector<MarkedRecord>> records(kAppThreads);
  const auto run_op = [&](std::size_t a, const AppOp& op, ThreadLog& log) {
    auto& rt = *dep->apps()[a].rt;
    if (op.kind == AppKind::kBlockPut || op.kind == AppKind::kBlockGet) {
      const std::string name = "object-" + std::to_string(op.key);
      Tracer& tracer = Tracer::global();
      Tracer::set_current_call(tracer.new_call_id());
      const std::uint64_t t0 = now_ns();
      const bool traced = tracer.enabled();
      bool threw = false;
      try {
        if (op.kind == AppKind::kBlockPut) {
          blocks[a]->put(name, in.versions[op.key]);
          log.block_put_bytes += in.versions[op.key].size();
        } else {
          const auto got = blocks[a]->get(name);
          if (!got.has_value() || *got != in.versions[op.key]) ++log.wrong;
        }
      } catch (const std::exception&) {
        ++log.errors;
        threw = true;
      }
      const std::uint64_t t1 = now_ns();
      if (traced) tracer.record(Layer::kBlockOp, t0, t1);
      Tracer::set_current_call(0);
      if (!threw) log.completed(t1, traced);
      return;
    }
    const Bytes input = app_item_input(in, op.kind, op.key);
    const auto out = marked_call(
        rt, fn_of(op.kind), input,
        [&] {
          Bytes result = compute(op.kind, op.key, input);
          if (!book.record(op.kind, op.key, hash_bytes(result))) ++inconsistent;
          return result;
        },
        now_ns(), log);
    if (out.has_value()) {
      records[a].push_back({op.kind, op.key, hash_bytes(out->result),
                            static_cast<std::uint32_t>(out->result.size())});
    }
  };

  warm_up(d, *dep, kAppThreads, [&](std::size_t a, ThreadLog& log) {
    for (const auto& op : in.warm[a]) run_op(a, op, log);
  });

  d.before = snapshot(*dep);
  const std::uint64_t start = now_ns();
  std::vector<ThreadLog> logs = make_logs(kAppThreads, start, opt.seconds);
  d.window_cpu_s = run_closed(kAppThreads, start, opt.seconds, opt.trace, d.split,
                              [&](std::size_t a, std::size_t i) {
                                if (i >= in.ops[a].size()) {
                                  logs[a].exhausted = true;
                                  return false;
                                }
                                run_op(a, in.ops[a][i], logs[a]);
                                return true;
                              });
  if (!dep->flush_all()) r.notes.push_back("warning: PUT queues did not drain");
  d.totals = merge_logs(logs);
  d.set_rates(opt.seconds);
  d.split.traced_ops = d.totals.traced_ops;
  d.split.untraced_ops = d.totals.untraced_ops;
  d.split.all_traced_s = d.split.traced_s;
  finish(d, *dep, opt, r);

  // Every served result must equal what the app function returned when the
  // item was computed; a sample of those computations is checked against a
  // fresh run of the function.
  std::uint64_t wrong = inconsistent.load();
  for (const auto& recs : records) {
    for (const auto& rec : recs) {
      const auto expected = book.find(rec.kind, rec.key);
      if (!expected.has_value() || *expected != rec.hash) ++wrong;
    }
  }
  for (AppKind kind : {AppKind::kDeflate, AppKind::kScan, AppKind::kBow}) {
    for (const auto& [key, hash] : book.first(kind, kReferenceChecks)) {
      if (hash_bytes(compute(kind, key, app_item_input(in, kind, key))) != hash) ++wrong;
    }
  }
  if (wrong > 0) {
    r.failed += wrong;
    r.correct = false;
    r.notes.push_back("error: " + std::to_string(wrong) + " wrong marked-call results");
  }
  // Plaintext of the distinct results each app was served: the working set
  // its 4 MB local cache would have to hold.
  double result_bytes = 0;
  for (const auto& recs : records) {
    std::map<std::uint64_t, std::uint32_t> distinct;
    for (const auto& rec : recs) {
      distinct[(static_cast<std::uint64_t>(rec.kind) << 32) | rec.key] = rec.bytes;
    }
    for (const auto& [id, bytes] : distinct) result_bytes += bytes;
  }
  d.result_mb_per_app = result_bytes / kMB / static_cast<double>(kAppThreads);
  r.notes.push_back("closed loop " + std::to_string(d.totals.ops) + " ops (" +
                    std::to_string(d.totals.marked) + " marked calls) in " +
                    std::to_string(opt.seconds) + " s; " + std::to_string(book.size()) +
                    " items computed");

  if (opt.trace) {
    std::vector<MleSample> samples;
    for (const auto& recs : records) {
      for (std::size_t i = 0; i < recs.size() && i < 60; ++i) {
        Bytes input = app_item_input(in, recs[i].kind, recs[i].key);
        Bytes result = compute(recs[i].kind, recs[i].key, input);
        samples.push_back({fn_of(recs[i].kind), std::move(input), std::move(result)});
      }
    }
    d.mle = replay_mle(samples);
    const chunk::Chunker chunker(blocks.front()->config().chunker);
    std::size_t bytes = 0;
    const std::uint64_t t0 = now_ns();
    for (const auto& v : in.versions) {
      bytes += v.size();
      if (chunker.split(v).empty()) throw Error("perfbench: empty chunking");
    }
    d.split_us_per_mb =
        static_cast<double>(now_ns() - t0) / 1e3 / (static_cast<double>(bytes) / kMB);
    blocks.clear();
    dep.reset();
    finish_trace(d, opt, r);
  } else {
    end_to_end_metrics(d, r);
  }
  return r;
}

}  // namespace

Report run_workload(const Options& opt) {
  if (opt.workload == "hot_batched") return run_hot(opt);
  if (opt.workload == "cold_rw") return run_cold(opt);
  if (opt.workload == "apps_mix") return run_apps(opt);
  throw Error("perfbench: unknown workload '" + opt.workload + "'");
}

bool self_test() {
  bool ok = true;
  const auto check = [&](const char* what, std::uint64_t a, std::uint64_t a2,
                         std::uint64_t b) {
    const bool good = a == a2 && a != b;
    std::printf("self-test %-12s same seed %s, other seed %s\n", what,
                a == a2 ? "identical" : "DIFFERENT", a != b ? "different" : "IDENTICAL");
    ok = ok && good;
  };
  KvShape shape;
  shape.existing = 1000;
  shape.skew = 0.99;
  shape.fresh_share = 0.05;
  shape.warm_ops = shape.closed_ops = shape.open_ops = 200;
  shape.open_rate = 1000;
  check("hot_batched", digest(make_kv_schedule(shape, derive_seed(7, 3), 7, true)),
        digest(make_kv_schedule(shape, derive_seed(7, 3), 7, true)),
        digest(make_kv_schedule(shape, derive_seed(8, 3), 8, true)));
  shape.skew = 0;
  shape.fresh_share = 0.5;
  check("cold_rw", digest(make_kv_schedule(shape, kColdPopulationSeed, 7, true)),
        digest(make_kv_schedule(shape, kColdPopulationSeed, 7, true)),
        digest(make_kv_schedule(shape, kColdPopulationSeed, 8, true)));
  check("apps_mix", digest(make_app_inputs(7, kThreads, 500)),
        digest(make_app_inputs(7, kThreads, 500)),
        digest(make_app_inputs(8, kThreads, 500)));
  return ok;
}

}  // namespace perfbench
