#include "harness.h"

#include <algorithm>
#include <cmath>

namespace ptldb::ptlbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case kOp:
      return "db.op";
    case kOnState:
      return "rules.on_state";
    case kCommitProbe:
      return "rules.commit_probe";
    case kWalDelta:
      return "storage.wal_delta";
    case kWalState:
      return "storage.wal_state";
    case kWalFiring:
      return "storage.wal_firing";
    case kArchive:
      return "temporal.archive";
    case kTableAsOf:
      return "temporal.table_asof";
    case kNumLayers:
      break;
  }
  return "?";
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  // Children of each span, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    uint64_t lo = std::max(s.start_ns, p.start_ns);
    uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t dur =
        spans[i].end_ns > spans[i].start_ns ? spans[i].end_ns - spans[i].start_ns
                                            : 0;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

LayerTimes SumLayers(const std::vector<Span>& spans) {
  LayerTimes out;
  std::vector<uint64_t> self = SelfTimes(spans);
  // Parents precede their children, so one pass finds every span's root.
  std::vector<size_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root[i] = s.parent < 0 ? i : root[static_cast<size_t>(s.parent)];
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    out.self_ns[s.layer] += self[i];
    ++out.count[s.layer];
    if (!s.nested_in_same_layer) out.inclusive_ns[s.layer] += dur;
    if (spans[root[i]].layer != kOp) continue;
    out.op_tree_self_ns += self[i];
    if (s.parent < 0) out.op_root_ns += dur;
  }
  return out;
}

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const double n = static_cast<double>(samples->size());
  // Nearest rank: the smallest sample with at least p% of samples at or
  // below it.
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > samples->size()) rank = samples->size();
  return (*samples)[rank - 1];
}

double GoodFifth(std::vector<double> per_rep, bool lower_is_better) {
  if (per_rep.empty()) return 0;
  std::sort(per_rep.begin(), per_rep.end());
  if (!lower_is_better) std::reverse(per_rep.begin(), per_rep.end());
  return per_rep[(per_rep.size() - 1) / 5];
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  if (n < 2 * min_beyond) return 0;
  double best = 50;
  // 90, 99, 99.9, ...: percentile 100 - 100/10^k leaves n/10^k samples
  // beyond it.
  uint64_t scale = 10;
  for (int k = 1; k <= 9 && n >= min_beyond * scale; ++k, scale *= 10) {
    best = 100.0 - 100.0 / static_cast<double>(scale);
  }
  return best;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FiringDigest(const std::vector<rules::Firing>& log) {
  uint64_t h = Fnv1a("");
  for (const rules::Firing& f : log) {
    h = Fnv1a(f.rule, h);
    h = Fnv1a("|", h);
    h = Fnv1a(f.params, h);
    h = Fnv1a("|" + std::to_string(f.time) + "\n", h);
  }
  return h;
}

}  // namespace ptldb::ptlbench
