// Result accounting for the spatial-server benchmark: the percentile rule
// and the error-rate rule every reported number follows.

#ifndef SPBENCH_STATS_H_
#define SPBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spbench {

// Every latency report carries its median, the highest percentile that
// still has at least kTailSamples samples beyond it (capped at the metric's
// nominal percentile, e.g. 0.99), and the sample count it was taken from.
inline constexpr size_t kTailSamples = 10;

struct LatencySummary {
  size_t n = 0;          // samples, missed operations included
  double p50 = 0.0;
  double tail_q = 0.0;   // the percentile actually reported as the tail
  double tail = 0.0;
};

// Nearest-rank quantile of an ascending-sorted sample: the smallest value
// with at least q * n samples at or below it. q in [0, 1].
double NearestRank(const std::vector<double>& sorted, double q);

// The highest percentile (capped at `cap_q`) with at least kTailSamples of
// n samples beyond it; 0 when n is too small for any.
double TailQuantile(size_t n, double cap_q);

// Summarises `samples` (any order). `missed` operations — failed, refused
// or mismatched — count as infinitely slow: they miss any latency limit, so
// they rank above every completed sample.
LatencySummary Summarize(std::vector<double> samples, size_t missed,
                         double cap_q);

// Operation outcomes of one run. Every attempted operation ends in exactly
// one bucket; the three miss buckets all count against error_rate.
struct OpAccounting {
  uint64_t ok = 0;          // completed and verified against the oracle
  uint64_t failed = 0;      // the call returned an error
  uint64_t refused = 0;     // shed by admission control / breaker fast-fail
  uint64_t mismatched = 0;  // completed, but the oracle disagreed

  uint64_t attempted() const { return ok + failed + refused + mismatched; }
  uint64_t missed() const { return failed + refused + mismatched; }
  // (failed + refused + mismatched) / attempted; 0 when nothing ran.
  double ErrorRate() const;
  OpAccounting& operator+=(const OpAccounting& other);
};

double Median(std::vector<double> values);

// The host's aggregate CPU time (the "cpu" line of /proc/stat), in ticks.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;  // time the hypervisor ran something else
};
// Parses the aggregate "cpu ..." line of /proc/stat; nullopt when malformed.
std::optional<CpuTimes> ParseCpuTimes(std::string_view line);
// Share of the host's CPU time stolen between two samples; 0 when none
// elapsed.
double StealShare(const CpuTimes& a, const CpuTimes& b);
// Indexes (ascending) of the `keep` entries of `steal` with the least
// steal, ties to the earlier slice: the window slices that timings are
// taken from (see NOTES.md, Steadiness).
std::vector<size_t> CalmestSlices(const std::vector<double>& steal, size_t keep);

// Counters by name, as scraped from the servers' Stats frames.
using Scrape = std::map<std::string, double>;
using StatsReply = std::vector<std::pair<std::string, double>>;

// Merges the Stats replies of the servers that one host process runs. The
// per-server atomics that Server::GlobalStatsEntries writes itself are
// summed. Every other entry (server.query_latency_s, cache.*, storage.*)
// comes from the host's one registry, which its servers share and each
// reply repeats, so it is taken from the first reply only.
Scrape MergeServerStats(const std::vector<StatsReply>& replies);

}  // namespace spbench

#endif  // SPBENCH_STATS_H_
