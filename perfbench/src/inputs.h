// Seeded input generation for the three workloads.
//
// Everything a run feeds the program — inputs, key choices, op mixes and
// schedules — is generated here from the workload seed, before any timing
// starts. The random source is the benchmark's own (splitmix64), so a change
// to the program's generators cannot silently change the key schedule. Input
// *contents* for the app workload come from src/workload, the repository's
// stand-ins for the paper's datasets.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/match/ruleset.h"
#include "common/bytes.h"

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf over ranks [0, n): P(rank k) ~ 1 / (k+1)^skew.
class Zipf {
 public:
  Zipf(std::size_t n, double skew);
  std::size_t operator()(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Fast 64-bit content hash for output checks (not cryptographic).
std::uint64_t hash_bytes(speed::ByteView data);

/// Mixes a seed with a stream label so every generator draws independently.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// ------------------------------------------------------------ key/value ops

/// 64-byte input of key `index` in key space `space`.
speed::Bytes small_input(std::uint64_t space, std::uint64_t index);
/// The small-input app function: a 512-byte result expanded from the input
/// with SHA-256 in counter mode. Its output is checked byte for byte.
speed::Bytes expand_result(speed::ByteView input);
inline constexpr std::size_t kSmallInputBytes = 64;
inline constexpr std::size_t kSmallResultBytes = 512;

/// One entry of a key/value op sequence: an existing key, or a fresh key
/// whose number is given when the op is issued (KvSchedule::input), so fresh
/// keys never repeat however long a phase runs.
struct KvOp {
  std::uint32_t key = 0;  ///< existing key; unused when fresh
  bool fresh = false;
};

enum class KvPhase : std::uint8_t { kWarm, kClosed, kOpen };
inline constexpr std::size_t kKvPhases = 3;

struct KvSchedule {
  std::size_t threads = 0;
  std::uint64_t existing_space = 0;  ///< keys already in the store
  /// Per phase: a key space no run has issued before.
  std::array<std::uint64_t, kKvPhases> fresh_space{};
  /// Per phase, per client thread: the op sequence. A phase that issues
  /// more ops than its sequence holds starts it over.
  std::array<std::vector<std::vector<KvOp>>, kKvPhases> ops;
  /// Per client thread: when each open-loop op is due, in ns from the start
  /// of the phase (Poisson arrivals at open_rate / threads per thread).
  /// Empty unless the schedule was made with the open loop.
  std::vector<std::vector<std::uint64_t>> open_due_ns;

  /// Op `i` of `thread` in `phase`.
  const KvOp& op(KvPhase phase, std::size_t thread, std::uint64_t i) const;
  /// The 64-byte input of that op. A fresh op's key is i * threads + thread
  /// in the phase's fresh space.
  speed::Bytes input(KvPhase phase, std::size_t thread, std::uint64_t i) const;
};

struct KvShape {
  std::size_t threads = 4;
  std::size_t existing = 0;      ///< keys [0, existing) are in the store
  double skew = 0.0;             ///< 0 = uniform reads
  double fresh_share = 0.0;      ///< share of ops that use a new key
  std::size_t warm_ops = 0;      ///< per thread
  std::size_t closed_ops = 0;    ///< per thread; the closed loop cycles them
  std::size_t open_ops = 0;      ///< per thread
  double open_rate = 0;          ///< offered ops/s over all threads
};

/// Existing keys live in `existing_space`; the fresh key spaces and every
/// sequence derive from `seed`. The open-loop phase (its ops and due times)
/// is generated only `with_open`.
KvSchedule make_kv_schedule(const KvShape& shape, std::uint64_t existing_space,
                            std::uint64_t seed, bool with_open);

// --------------------------------------------------------------- app mix

enum class AppKind : std::uint8_t {
  kDeflate,   ///< compression gateway
  kScan,      ///< virus scanner: rule-by-rule scan_sequential
  kBow,       ///< analytics: bag_of_words over a document batch
  kBlockPut,  ///< BlockStore put of one version of a chain
  kBlockGet,  ///< BlockStore get of a version this app stored
};

struct AppOp {
  AppKind kind = AppKind::kDeflate;
  /// Marked calls: the item id. Block ops: chain * versions + version.
  std::uint32_t key = 0;
};

struct AppInputs {
  std::vector<speed::Bytes> texts;    ///< deflate base inputs
  std::vector<speed::Bytes> packets;  ///< scan base inputs
  std::vector<std::vector<std::string>> pages;  ///< bag-of-words base batches
  std::vector<speed::Bytes> versions;  ///< chain-major version blobs (fixed)
  std::uint64_t salt = 0;  ///< seed-derived; part of every item header
  /// Per app: warm-up ops, then the measured sequence.
  std::vector<std::vector<AppOp>> warm, ops;
};

/// Marked-call input of item `id`: a base input from the pool behind a
/// 16-byte item header, so every id is a distinct computation.
speed::Bytes app_item_input(const AppInputs& in, AppKind kind, std::uint32_t id);
/// The bag-of-words batch of item `id`; its serialization is the input.
std::vector<std::string> app_item_pages(const AppInputs& in, std::uint32_t id);

/// The virus scanner's rule set: the app's configuration, not its input, so
/// it is fixed rather than seeded.
const std::vector<speed::match::Rule>& scanner_rules();

AppInputs make_app_inputs(std::uint64_t seed, std::size_t apps,
                          std::size_t ops_per_app);

/// Digest of everything generated (inputs and schedule), for the self-test.
std::uint64_t digest(const KvSchedule& s);
std::uint64_t digest(const AppInputs& in);

}  // namespace perfbench
