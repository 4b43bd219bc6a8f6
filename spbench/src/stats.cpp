#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

namespace spbench {

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // The epsilon keeps q * n from rounding up past an exact integer rank
  // (0.99 * 1000 is 990.0000000000001 in binary floating point).
  const double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double TailQuantile(size_t n, double cap_q) {
  if (n <= kTailSamples) return 0.0;
  // Samples strictly beyond the nearest-rank q-quantile: n - ceil(q * n).
  // The largest q keeping that >= kTailSamples is (n - kTailSamples) / n.
  const double q = static_cast<double>(n - kTailSamples) /
                   static_cast<double>(n);
  return std::min(q, cap_q);
}

LatencySummary Summarize(std::vector<double> samples, size_t missed,
                         double cap_q) {
  samples.insert(samples.end(), missed,
                 std::numeric_limits<double>::infinity());
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.n = samples.size();
  s.p50 = NearestRank(samples, 0.5);
  s.tail_q = TailQuantile(s.n, cap_q);
  s.tail = NearestRank(samples, s.tail_q);
  return s;
}

double OpAccounting::ErrorRate() const {
  const uint64_t n = attempted();
  return n == 0 ? 0.0 : static_cast<double>(missed()) / static_cast<double>(n);
}

OpAccounting& OpAccounting::operator+=(const OpAccounting& other) {
  ok += other.ok;
  failed += other.failed;
  refused += other.refused;
  mismatched += other.mismatched;
  return *this;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::optional<CpuTimes> ParseCpuTimes(std::string_view line) {
  std::istringstream in{std::string(line)};
  std::string tag;
  in >> tag;
  if (tag != "cpu") return std::nullopt;
  // user nice system idle iowait irq softirq steal; guest time is already
  // inside user and nice.
  uint64_t field[8];
  CpuTimes t;
  for (int i = 0; i < 8; ++i) {
    if (!(in >> field[i])) return std::nullopt;
    t.total += field[i];
  }
  t.steal = field[7];
  return t;
}

double StealShare(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total || b.steal < a.steal) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

std::vector<size_t> CalmestSlices(const std::vector<double>& steal,
                                  size_t keep) {
  std::vector<size_t> order(steal.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  order.resize(std::min(keep, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

Scrape MergeServerStats(const std::vector<StatsReply>& replies) {
  static const std::set<std::string> kPerServer = {
      "server.sessions_opened", "server.sessions_closed",
      "server.sessions_active", "server.queries",
      "server.updates",         "server.rows_returned",
      "server.bytes_sent",      "server.errors",
      "server.sessions_queued", "server.sessions_shed",
      "server.idle_reaped",     "server.send_timeouts",
      "server.chaos_injected",  "server.pings",
      "engine.rows_scanned",    "engine.index_probes",
      "engine.index_candidates", "engine.refine_checks"};
  Scrape out;
  for (size_t i = 0; i < replies.size(); ++i) {
    for (const auto& [name, value] : replies[i]) {
      if (i == 0 || kPerServer.count(name) > 0) out[name] += value;
    }
  }
  return out;
}

}  // namespace spbench
