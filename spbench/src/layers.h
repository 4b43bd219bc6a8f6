// The traced replay: re-issues a fixed sample of a workload's operations
// through each layer's public functions, with the benchmark's own spans
// around every call, and turns the spans into per-layer self times.

#ifndef SPBENCH_LAYERS_H_
#define SPBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "obs/span.h"
#include "workload.h"

namespace spbench {

// Self time per span name: the span's duration minus the part of it that
// its children cover (the union of their intervals, clipped to the span).
struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> SelfTimes(
    const std::vector<jackpine::obs::SpanRecord>& spans);

// Mean per-operation costs from the replay, in microseconds unless noted.
struct LayerCosts {
  double cache_lookup_us = 0;  // QueryCache Prepare + Lookup
  double parse_us = 0;         // engine::ParseSql
  double plan_us = 0;          // engine::PlanSelect
  double exec_us = 0;          // engine::ExecutePlan
  double encode_us = 0;        // net::EncodeResultFrames
  double decode_us = 0;        // frame decode + DecodeResultBatch
  double bytes_per_read = 0;   // encoded result frame bytes
  double index_probe_us = 0;   // SpatialIndex::Query, per window read
  double index_knn_us = 0;     // SpatialIndex::Nearest, per k-NN read
  double nodes_per_probe = 0;  // ProbeStats::nodes_visited per window probe
  double refine_us = 0;        // topo::EvalPredicate over the candidates
  double algo_us = 0;          // the read's scalar function over survivors
  double filter_ratio = 0;     // refine survivors / MBR candidates
  double rows_examined_per_row = 0;
  double insert_us = 0;        // Database::Execute(INSERT), in memory
  double index_insert_us = 0;  // SpatialIndex::Insert into an R-tree
  double append_us = 0;        // StorageManager::OnInsert (WAL append)
  double wait_durable_us = 0;  // StorageManager::WaitDurable (group fsync)
  uint64_t reads = 0;
  uint64_t writes = 0;
};

// Replays `reads` (twice: the first pass fills a private QueryCache so the
// timed pass sees the hit path a warm server sees) and `writes` against
// `db`, which holds the workload's tables. Writes are applied to `db`.
// `scratch_dir` receives a throwaway WAL for the storage calls.
jackpine::Result<LayerCosts> ReplayLayers(jackpine::engine::Database* db,
                                          const std::vector<Op>& reads,
                                          const std::vector<Op>& writes,
                                          const std::string& scratch_dir);

}  // namespace spbench

#endif  // SPBENCH_LAYERS_H_
