#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "crypto/sha256.h"
#include "serialize/serde.h"
#include "workload/stream_corpus.h"
#include "workload/synthetic.h"

namespace perfbench {

using speed::Bytes;
using speed::ByteView;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::size_t n, double skew) : cdf_(n) {
  double sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::uint64_t hash_bytes(ByteView data) {
  std::uint64_t h = 0x243f6a8885a308d3ull ^ data.size();
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + i, 8);
    h = (h ^ w) * 0x9fb21c651e98df25ull;
    h ^= h >> 29;
  }
  for (; i < data.size(); ++i) h = (h ^ data[i]) * 0x100000001b3ull;
  h ^= h >> 32;
  return h * 0xd6e8feb86659fd93ull;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed ^ (stream * 0xd1b54a32d192ed03ull));
  r.next();
  return r.next();
}

Bytes small_input(std::uint64_t space, std::uint64_t index) {
  Rng r(derive_seed(space, index));
  Bytes out(kSmallInputBytes);
  for (std::size_t i = 0; i < out.size(); i += 8) {
    const std::uint64_t w = r.next();
    std::memcpy(out.data() + i, &w, 8);
  }
  return out;
}

Bytes expand_result(ByteView input) {
  Bytes out;
  out.reserve(kSmallResultBytes);
  for (std::uint8_t block = 0; out.size() < kSmallResultBytes; ++block) {
    speed::crypto::Sha256 h;
    h.update(input);
    h.update(ByteView(&block, 1));
    const auto d = h.finish();
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

const KvOp& KvSchedule::op(KvPhase phase, std::size_t thread, std::uint64_t i) const {
  const auto& seq = ops[static_cast<std::size_t>(phase)][thread];
  return seq[i % seq.size()];
}

Bytes KvSchedule::input(KvPhase phase, std::size_t thread, std::uint64_t i) const {
  const KvOp& o = op(phase, thread, i);
  if (!o.fresh) return small_input(existing_space, o.key);
  return small_input(fresh_space[static_cast<std::size_t>(phase)], i * threads + thread);
}

KvSchedule make_kv_schedule(const KvShape& shape, std::uint64_t existing_space,
                            std::uint64_t seed, bool with_open) {
  KvSchedule s;
  s.threads = shape.threads;
  s.existing_space = existing_space;
  for (std::size_t p = 0; p < kKvPhases; ++p) s.fresh_space[p] = derive_seed(seed, 20 + p);
  const Zipf zipf(shape.skew > 0 ? shape.existing : 1, shape.skew);
  Rng rng(derive_seed(seed, 1));
  const auto fill = [&](KvPhase phase, std::size_t n) {
    auto& out = s.ops[static_cast<std::size_t>(phase)];
    out.assign(shape.threads, {});
    for (auto& seq : out) {
      seq.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        KvOp op;
        if (rng.uniform() < shape.fresh_share) {
          op.fresh = true;
        } else if (shape.skew > 0) {
          // Scatter Zipf ranks over the key space so hot keys are not
          // numerically adjacent.
          op.key = static_cast<std::uint32_t>((zipf(rng) * 0x9e3779b1ull) % shape.existing);
        } else {
          op.key = static_cast<std::uint32_t>(rng.below(shape.existing));
        }
        seq.push_back(op);
      }
    }
  };
  fill(KvPhase::kWarm, shape.warm_ops);
  fill(KvPhase::kClosed, shape.closed_ops);
  if (!with_open) return s;
  fill(KvPhase::kOpen, shape.open_ops);
  const double mean_gap_ns =
      shape.open_rate > 0 ? 1e9 * static_cast<double>(shape.threads) / shape.open_rate : 0;
  s.open_due_ns.assign(shape.threads, {});
  for (auto& dues : s.open_due_ns) {
    double t = 0;
    for (std::size_t i = 0; i < shape.open_ops; ++i) {
      t += -std::log(1.0 - rng.uniform()) * mean_gap_ns;
      dues.push_back(static_cast<std::uint64_t>(t));
    }
  }
  return s;
}

// ----------------------------------------------------------------- app mix

namespace {

// Sizes and shares follow the repository's own model of the paper's Fig. 1
// deployment, bench/bench_macro_workflow.cc: 24 KB inputs for the scanner
// and the gateway, bag-of-words batches of 6 pages of 1500 B, a 400-rule set,
// every app issuing the same number of requests, 24 distinct inputs per 120
// requests, and repeats Zipf 1.1. The gateway compresses synth_text, the
// content of bench/bench_fig5b_deflate.cc. BlockStore objects are the version
// chain of bench/bench_stream.cc's smoke run: 128 KB blobs, 8 versions, one
// 64-byte edit per version.
//
// Base pools: items are a base input behind a per-item header, so the number
// of distinct computations is unbounded while memory stays small.
constexpr std::size_t kPool = 64;
constexpr std::size_t kTextBytes = 24 * 1024;
constexpr std::size_t kPacketBytes = 24 * 1024;
constexpr std::size_t kBowDocs = 6;
constexpr std::size_t kBowDocBytes = 1500;
constexpr std::size_t kChains = 4;
constexpr std::size_t kChainVersions = 8;
constexpr std::size_t kWarmOps = 400;  ///< per app
// The BlockStore objects are the app's data set, fixed like the scanner's
// rules: how much of a 128 KB blob repeats its own 4 KB blocks depends on the
// seed of its chain, and with seeded chains that alone moved
// stored_bytes_per_user_byte by 22% between seeds. The seed picks which
// versions each app puts and gets, and in what order.
constexpr std::uint64_t kChainSeed = 0xb10c5eedull;

// A fixed share of marked calls introduces a new item (24 / 120); the rest
// repeat an item introduced earlier (by any app), Zipf 1.1 over introduction
// order. Misses therefore arrive at the same rate through the whole run
// instead of stopping once a fixed pool is covered.
constexpr double kNewShare = 24.0 / 120.0;
constexpr double kRepeatSkew = 1.1;

/// Rank in [0, n) with P(rank k) roughly proportional to (k+1)^-skew.
std::size_t power_law_rank(std::size_t n, double skew, Rng& rng) {
  const double e = 1.0 - skew;
  const double x = (std::pow(static_cast<double>(n) + 1.0, e) - 1.0) * rng.uniform() + 1.0;
  const auto r = static_cast<std::size_t>(std::pow(x, 1.0 / e)) - 1;
  return std::min(r, n - 1);
}

Bytes item_header(std::uint64_t salt, std::uint32_t id) {
  Bytes h(16);
  const std::uint64_t a = salt;
  const std::uint64_t b = derive_seed(salt, id);
  std::memcpy(h.data(), &a, 8);
  std::memcpy(h.data() + 8, &b, 8);
  return h;
}

}  // namespace

Bytes app_item_input(const AppInputs& in, AppKind kind, std::uint32_t id) {
  if (kind == AppKind::kBow) return speed::serialize::serialize(app_item_pages(in, id));
  const Bytes& base = kind == AppKind::kDeflate ? in.texts[id % in.texts.size()]
                                                : in.packets[id % in.packets.size()];
  Bytes out = item_header(in.salt, id);
  out.insert(out.end(), base.begin(), base.end());
  return out;
}

std::vector<std::string> app_item_pages(const AppInputs& in, std::uint32_t id) {
  std::vector<std::string> pages = in.pages[id % in.pages.size()];
  pages.front() = "item" + std::to_string(derive_seed(in.salt, id)) + " " + pages.front();
  return pages;
}

const std::vector<speed::match::Rule>& scanner_rules() {
  static const auto rules = speed::workload::synth_ruleset(400, 11, 0.1, 0.03);
  return rules;
}

AppInputs make_app_inputs(std::uint64_t seed, std::size_t apps,
                          std::size_t ops_per_app) {
  AppInputs in;
  in.salt = derive_seed(seed, 9);
  const std::uint64_t text_seed = derive_seed(seed, 10);
  for (std::size_t i = 0; i < kPool; ++i) {
    const std::string t =
        speed::workload::synth_text(kTextBytes, derive_seed(text_seed, i));
    in.texts.emplace_back(t.begin(), t.end());
  }
  const auto trace = speed::workload::synth_packet_trace(
      kPool, kPacketBytes, scanner_rules(), 0.2, derive_seed(seed, 11));
  for (const auto& p : trace) in.packets.push_back(p.payload);
  const std::uint64_t bow_seed = derive_seed(seed, 12);
  for (std::size_t b = 0; b < kPool; ++b) {
    std::vector<std::string> docs;
    for (std::size_t d = 0; d < kBowDocs; ++d) {
      docs.push_back(speed::workload::synth_web_page(
          kBowDocBytes, derive_seed(bow_seed, b * kBowDocs + d)));
    }
    in.pages.push_back(std::move(docs));
  }
  speed::workload::StreamCorpusConfig chain_cfg;
  chain_cfg.blob_bytes = 128 * 1024;
  for (std::size_t c = 0; c < kChains; ++c) {
    auto chain = speed::workload::stream_version_chain(
        chain_cfg, kChainVersions, 1, 64, derive_seed(kChainSeed, c));
    for (auto& v : chain) in.versions.push_back(std::move(v));
  }

  Rng rng(derive_seed(seed, 13));
  // Items introduced so far, per marked kind, in introduction order.
  std::array<std::vector<std::uint32_t>, 3> introduced;
  const auto marked = [&](AppKind kind) -> AppOp {
    auto& items = introduced[static_cast<std::size_t>(kind)];
    if (items.empty() || rng.uniform() < kNewShare) {
      items.push_back(static_cast<std::uint32_t>(items.size()));
      return {kind, items.back()};
    }
    return {kind, items[power_law_rank(items.size(), kRepeatSkew, rng)]};
  };

  // The warm-up gives the storage figure, so its shape is fixed: a repeating
  // pattern of op kinds in the measured shares, and every chain stored in
  // version order by two apps, so cross-app dedup is in it.
  constexpr AppKind kWarmPattern[] = {
      AppKind::kDeflate, AppKind::kScan, AppKind::kBow, AppKind::kBlockPut,
      AppKind::kDeflate, AppKind::kScan, AppKind::kBow, AppKind::kBlockGet};
  constexpr std::size_t kPattern = std::size(kWarmPattern);
  // Apps are generated in lockstep, so an item is introduced about when the
  // apps will reach it.
  in.warm.assign(apps, {});
  std::vector<std::size_t> puts(apps, 0);
  for (std::size_t i = 0; i < kWarmOps; ++i) {
    for (std::size_t a = 0; a < apps; ++a) {
      const AppKind kind = kWarmPattern[i % kPattern];
      if (kind == AppKind::kBlockPut) ++puts[a];
      const std::size_t put = std::max<std::size_t>(puts[a], 1) - 1;
      const std::size_t chain = ((a / 2) * (kChains / 2) + put / kChainVersions) % kChains;
      const auto version_key =
          static_cast<std::uint32_t>(chain * kChainVersions + put % kChainVersions);
      in.warm[a].push_back(kind == AppKind::kBlockPut || kind == AppKind::kBlockGet
                               ? AppOp{kind, version_key}
                               : marked(kind));
    }
  }
  // Measured ops: a quarter each for deflate, scan, bag-of-words and
  // BlockStore, as each app of the macro workflow issues the same number of
  // requests. BlockStore ops are half puts, which walk a random chain in
  // version order, and half gets of a version this app put earlier in the
  // measured sequence.
  std::vector<std::vector<std::size_t>> next_version(
      apps, std::vector<std::size_t>(kChains, 0));
  std::vector<std::vector<std::uint32_t>> stored(apps);
  in.ops.assign(apps, {});
  for (std::size_t i = 0; i < ops_per_app; ++i) {
    for (std::size_t a = 0; a < apps; ++a) {
      const double u = rng.uniform();
      AppOp op;
      if (u < 0.25) {
        op = marked(AppKind::kDeflate);
      } else if (u < 0.50) {
        op = marked(AppKind::kScan);
      } else if (u < 0.75) {
        op = marked(AppKind::kBow);
      } else if (u < 0.875 || stored[a].empty()) {
        const std::size_t chain = rng.below(kChains);
        std::size_t& v = next_version[a][chain];
        op = {AppKind::kBlockPut, static_cast<std::uint32_t>(chain * kChainVersions + v)};
        stored[a].push_back(op.key);
        v = (v + 1) % kChainVersions;
      } else {
        op = {AppKind::kBlockGet, stored[a][rng.below(stored[a].size())]};
      }
      in.ops[a].push_back(op);
    }
  }
  return in;
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x9fb21c651e98df25ull + 0x7f4a7c15ull;
}

template <typename Seqs, typename F>
std::uint64_t digest_seqs(std::uint64_t h, const Seqs& seqs, F&& f) {
  for (const auto& seq : seqs) {
    h = mix(h, seq.size());
    for (const auto& op : seq) h = mix(h, f(op));
  }
  return h;
}

}  // namespace

std::uint64_t digest(const KvSchedule& s) {
  std::uint64_t h = mix(s.existing_space, s.threads);
  for (std::size_t p = 0; p < kKvPhases; ++p) {
    const auto phase = static_cast<KvPhase>(p);
    h = mix(h, s.fresh_space[p]);
    for (std::size_t t = 0; t < s.ops[p].size(); ++t) {
      h = mix(h, s.ops[p][t].size());
      // Twice round each sequence, so the inputs of a cycled phase count.
      for (std::uint64_t i = 0; i < 2 * s.ops[p][t].size(); ++i) {
        h = mix(h, hash_bytes(s.input(phase, t, i)));
      }
    }
  }
  return digest_seqs(h, s.open_due_ns, [](std::uint64_t due) { return due; });
}

std::uint64_t digest(const AppInputs& in) {
  std::uint64_t h = 0;
  h = mix(h, in.salt);
  for (const auto& t : in.texts) h = mix(h, hash_bytes(t));
  for (const auto& p : in.packets) h = mix(h, hash_bytes(p));
  for (std::uint32_t id = 0; id < in.pages.size(); ++id) {
    h = mix(h, hash_bytes(app_item_input(in, AppKind::kBow, id)));
  }
  for (const auto& v : in.versions) h = mix(h, hash_bytes(v));
  const auto op_hash = [](const AppOp& op) {
    return (static_cast<std::uint64_t>(op.kind) << 32) | op.key;
  };
  h = digest_seqs(h, in.warm, op_hash);
  return digest_seqs(h, in.ops, op_hash);
}

}  // namespace perfbench
