// Workload generation for the spatial-server benchmark. Every input is a
// pure function of the dataset (fixed) and the workload seed, so one seed
// always replays the same request streams.

#ifndef SPBENCH_WORKLOAD_H_
#define SPBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "geom/envelope.h"
#include "geom/geometry.h"
#include "tigergen/tigergen.h"
#include "topo/predicates.h"

namespace spbench {

using jackpine::Result;
using jackpine::Rng;
namespace geom = jackpine::geom;
namespace tigergen = jackpine::tigergen;
namespace topo = jackpine::topo;

enum class Workload : uint8_t { kBrowse, kAnalyze, kScatter };

Result<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

// Closed-loop sessions of every workload's timed window: the host has 4
// cores.
inline constexpr int kClients = 2;
// Single-row INSERTs one session issues after the read window, so every
// workload reports the write path of its deployment.
inline constexpr int kProbeWrites = 2000;
// Servers the host runs, all durable pinedb servers (WAL + group commit)
// hosting pine-rtree: 2 behind the shard(ep1,ep2) router on scatter, else 1.
int ServersFor(Workload workload);

// The fixed TIGER-like dataset (the paper's fixed Texas extract, here a
// pure function of scale). The workload seed drives requests, not data.
// Every run uses kScale (about 16k edges); tests use smaller scales.
inline constexpr double kScale = 4.0;
tigergen::TigerGenOptions DatasetOptions(double scale);

enum class OpKind : uint8_t { kRead, kWrite };

// How the engine's filter step reaches a read's candidates, for the traced
// replay that re-issues the index and refine work outside the engine.
enum class Access : uint8_t { kWindow, kKnn, kScan };

// The scalar spatial function a read evaluates over its refine survivors.
enum class AlgoFn : uint8_t {
  kNone,
  kArea,              // SUM(ST_Area(geom))
  kIntersectionArea,  // SUM(ST_Area(ST_Intersection(geom, shape)))
  kWithinDistance,    // ST_DWithin(geom, shape, distance)
  kLength,            // SUM(ST_Length(geom))
};

struct Op {
  OpKind kind = OpKind::kRead;
  std::string sql;
  std::string table;  // probed table (reads) or target table (writes)
  Access access = Access::kScan;
  geom::Envelope window;  // kWindow probe window
  geom::Geometry shape;   // the literal the refine step tests against
  std::optional<topo::PredicateKind> predicate;
  AlgoFn algo = AlgoFn::kNone;
  double distance = 0.0;
  geom::Coord center{};  // kKnn
  size_t k = 0;
  int64_t row_id = 0;    // kWrite: key of the inserted row
};

// Inputs shared by every stream of one run: the browse tile pool and its
// Zipf popularity ranking, both fixed by the dataset.
class WorkloadInputs {
 public:
  WorkloadInputs(Workload workload, const tigergen::TigerDataset& dataset);

  Workload workload() const { return workload_; }
  const geom::Envelope& extent() const { return extent_; }
  // A fixed pseudo-random tour over a kTourSide x kTourSide grid of cells.
  const std::vector<uint32_t>& tour() const { return tour_; }
  static constexpr uint32_t kTourSide = 32;
  // The browse tile pool (browse draws its reads from it).
  const std::vector<Op>& pool() const { return pool_; }
  // Pool entry by Zipf rank draw.
  const Op& DrawBrowse(Rng* rng) const;

 private:
  Workload workload_;
  geom::Envelope extent_;
  std::vector<Op> pool_;        // quantized viewports, distinct SQL
  std::vector<double> zipf_cdf_;
  std::vector<size_t> rank_to_entry_;  // popularity rank -> pool entry
  std::vector<uint32_t> tour_;
};

// One session's request stream. Writes get keys from `write_base` upward,
// so concurrent streams never collide.
class OpStream {
 public:
  OpStream(const WorkloadInputs* inputs, uint64_t seed, int stream,
           int64_t write_base);

  Op Next();
  // A single-row INSERT (the post-window write probe).
  Op NextWrite();

 private:
  Op NextAnalyze();
  Op NextScatter();
  // Where the next fresh-region request goes: the next cell of a fixed
  // tour of the extent, jittered within the cell by the seed.
  geom::Coord NextCellPoint();

  const WorkloadInputs* inputs_;
  Rng rng_;
  int64_t next_write_;
  uint64_t step_;  // requests issued (analyze, scatter)
};

}  // namespace spbench

#endif  // SPBENCH_WORKLOAD_H_
