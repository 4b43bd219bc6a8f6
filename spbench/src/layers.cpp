#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <variant>

#include "algo/distance.h"
#include "algo/measures.h"
#include "algo/overlay.h"
#include "cache/query_cache.h"
#include "common/exec_context.h"
#include "common/string_util.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "engine/sql_parser.h"
#include "host.h"
#include "index/spatial_index.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "storage/storage.h"

namespace spbench {

using jackpine::Result;
using jackpine::Status;
using jackpine::StrFormat;
namespace engine = jackpine::engine;
namespace obs = jackpine::obs;

std::map<std::string, SpanTotals> SelfTimes(
    const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id != 0) kids[s.parent_id].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::string, SpanTotals> totals;
  for (const obs::SpanRecord& s : spans) {
    const double duration = s.end_s - s.start_s;
    double covered = 0.0;
    auto it = kids.find(s.span_id);
    if (it != kids.end()) {
      std::vector<std::pair<double, double>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double run_start = 0.0;
      double run_end = -1.0;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_s);
        b = std::min(b, s.end_s);
        if (b <= a) continue;
        if (a > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = a;
          run_end = b;
        } else {
          run_end = std::max(run_end, b);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_s += duration;
    t.self_s += duration - covered;
  }
  return totals;
}

namespace {

struct Counts {
  uint64_t window_reads = 0;
  uint64_t knn_reads = 0;
  uint64_t probes = 0;
  uint64_t nodes = 0;
  uint64_t bytes = 0;
  obs::QueryTrace trace;
};

Result<const engine::Table*> GeomTable(const engine::Database& db,
                                       const std::string& name,
                                       size_t* column) {
  const engine::Table* table = db.catalog().GetTable(name);
  if (table == nullptr) return Status::NotFound("no table " + name);
  std::optional<size_t> col = table->schema().FindColumn("geom");
  if (!col) return Status::NotFound("no geom column in " + name);
  *column = *col;
  return table;
}

// One read through cache -> parse -> plan -> execute -> encode -> decode,
// under a replay.read root, then its filter/refine work re-issued directly
// against the index and predicates under a replay.filter root.
Status ReplayRead(engine::Database* db, jackpine::cache::QueryCache* cache,
                  const Op& op, obs::SpanRecorder* rec, Counts* counts) {
  const uint64_t tid = rec->NewTraceId();
  obs::Span root = rec->StartSpan("replay.read", tid);
  std::optional<jackpine::cache::QueryCache::Prepared> prepared;
  std::shared_ptr<const jackpine::cache::ResultCache::Entry> hit;
  {
    obs::Span s = rec->StartSpan("cache.lookup", tid, root.span_id());
    prepared = cache->Prepare(op.sql, 0, 0);
    if (prepared) hit = cache->Lookup(*prepared);
  }
  Result<engine::Statement> parsed = Status::Internal("unparsed");
  {
    obs::Span s = rec->StartSpan("engine.parse", tid, root.span_id());
    parsed = engine::ParseSql(op.sql);
  }
  if (!parsed.ok()) return parsed.status();
  const auto* select = std::get_if<engine::SelectStatement>(&*parsed);
  if (select == nullptr) return Status::InvalidArgument("not a SELECT");
  jackpine::ExecContext exec;
  obs::QueryTrace trace;
  exec.set_trace(&trace);
  engine::EvalContext ctx;
  ctx.exec = &exec;
  Result<engine::PhysicalPlan> plan = Status::Internal("unplanned");
  {
    obs::Span s = rec->StartSpan("engine.plan", tid, root.span_id());
    plan = engine::PlanSelect(*select, db->catalog(), ctx);
  }
  if (!plan.ok()) return plan.status();
  Result<engine::QueryResult> result = Status::Internal("unexecuted");
  {
    obs::Span s = rec->StartSpan("engine.exec", tid, root.span_id());
    result = engine::ExecutePlan(*plan, nullptr);
  }
  if (!result.ok()) return result.status();
  std::vector<std::string> frames;
  {
    obs::Span s = rec->StartSpan("net.encode", tid, root.span_id());
    frames = jackpine::net::EncodeResultFrames(*result,
                                               jackpine::net::kDefaultBatchRows);
  }
  jackpine::net::ResultAssembler assembler;
  {
    obs::Span s = rec->StartSpan("net.decode", tid, root.span_id());
    jackpine::net::FrameDecoder decoder;
    for (const std::string& f : frames) decoder.Feed(f);
    while (true) {
      JACKPINE_ASSIGN_OR_RETURN(std::optional<jackpine::net::Frame> frame,
                                decoder.Next());
      if (!frame) break;
      JACKPINE_ASSIGN_OR_RETURN(jackpine::net::ResultBatchMsg batch,
                                jackpine::net::DecodeResultBatch(frame->payload));
      JACKPINE_RETURN_IF_ERROR(assembler.Add(std::move(batch)));
    }
  }
  root.End();
  if (assembler.Take().Checksum() != result->Checksum()) {
    return Status::Internal("wire round trip changed the result of " + op.sql);
  }
  for (const std::string& f : frames) counts->bytes += f.size();
  counts->trace += trace;
  if (prepared && hit == nullptr) {
    auto ticket = cache->JoinFlight(*prepared);
    if (ticket.leader) cache->FinishFlight(*prepared, *std::move(result), trace);
  }

  if (op.access == Access::kScan) return Status::Ok();
  size_t column = 0;
  JACKPINE_ASSIGN_OR_RETURN(const engine::Table* table,
                            GeomTable(*db, op.table, &column));
  const jackpine::index::SpatialIndex* index = table->GetSpatialIndex(column);
  if (index == nullptr) return Status::NotFound("no index on " + op.table);
  const uint64_t ftid = rec->NewTraceId();
  obs::Span filter = rec->StartSpan("replay.filter", ftid);
  std::vector<int64_t> ids;
  if (op.access == Access::kKnn) {
    obs::Span s = rec->StartSpan("index.knn", ftid, filter.span_id());
    index->Nearest(op.center, op.k, &ids);
    ++counts->knn_reads;
    return Status::Ok();
  }
  jackpine::index::ProbeStats probe;
  {
    obs::Span s = rec->StartSpan("index.probe", ftid, filter.span_id());
    index->Query(op.window, &ids, &probe);
  }
  ++counts->window_reads;
  ++counts->probes;
  counts->nodes += probe.nodes_visited;
  std::vector<const jackpine::geom::Geometry*> survivors;
  {
    obs::Span s = rec->StartSpan("topo.refine", ftid, filter.span_id());
    for (int64_t id : ids) {
      const jackpine::geom::Geometry& g =
          table->row(static_cast<size_t>(id))[column].geometry_value();
      if (!op.predicate ||
          jackpine::topo::EvalPredicate(*op.predicate, g, op.shape,
                                        jackpine::topo::PredicateMode::kExact)) {
        survivors.push_back(&g);
      }
    }
  }
  double sink = 0.0;
  {
    obs::Span s = rec->StartSpan("algo.function", ftid, filter.span_id());
    for (const jackpine::geom::Geometry* g : survivors) {
      switch (op.algo) {
        case AlgoFn::kNone:
          break;
        case AlgoFn::kArea:
          sink += jackpine::algo::Area(*g);
          break;
        case AlgoFn::kIntersectionArea: {
          auto clipped = jackpine::algo::Intersection(*g, op.shape);
          if (clipped.ok()) sink += jackpine::algo::Area(*clipped);
          break;
        }
        case AlgoFn::kWithinDistance:
          sink += jackpine::algo::WithinDistance(*g, op.shape, op.distance);
          break;
        case AlgoFn::kLength:
          sink += jackpine::algo::Length(*g);
          break;
      }
    }
  }
  filter.Annotate("sink", StrFormat("%g", sink));
  return Status::Ok();
}

double PerOp(const std::map<std::string, SpanTotals>& totals,
             const std::string& name, uint64_t ops) {
  auto it = totals.find(name);
  if (it == totals.end() || ops == 0) return 0.0;
  return it->second.self_s * 1e6 / static_cast<double>(ops);
}

}  // namespace

Result<LayerCosts> ReplayLayers(engine::Database* db,
                                const std::vector<Op>& reads,
                                const std::vector<Op>& writes,
                                const std::string& scratch_dir) {
  obs::SpanRecorder rec(size_t{1} << 20);
  jackpine::cache::QueryCache cache(jackpine::cache::QueryCacheConfig{});
  Counts warm;
  rec.set_enabled(false);
  for (const Op& op : reads) {
    JACKPINE_RETURN_IF_ERROR(ReplayRead(db, &cache, op, &rec, &warm));
  }
  rec.set_enabled(true);
  Counts counts;
  for (const Op& op : reads) {
    JACKPINE_RETURN_IF_ERROR(ReplayRead(db, &cache, op, &rec, &counts));
  }

  // Writes: the in-memory engine insert, an R-tree insert into a copy of
  // the table's index, and the WAL append + group-commit wait of a durable
  // store, each timed on its own.
  std::filesystem::create_directories(scratch_dir);
  jackpine::storage::StorageOptions store_options;
  store_options.dir = scratch_dir;
  store_options.group_commit_window_s = kGroupCommitWindowS;
  engine::Database scratch;
  JACKPINE_ASSIGN_OR_RETURN(
      std::unique_ptr<jackpine::storage::StorageManager> store,
      jackpine::storage::StorageManager::Open(store_options, &scratch));
  std::map<std::string, std::unique_ptr<jackpine::index::SpatialIndex>> rtrees;
  for (const Op& w : writes) {
    if (rtrees.count(w.table)) continue;
    size_t column = 0;
    JACKPINE_ASSIGN_OR_RETURN(const engine::Table* table,
                              GeomTable(*db, w.table, &column));
    std::vector<jackpine::index::IndexEntry> entries;
    for (size_t i = 0; i < table->NumRows(); ++i) {
      entries.push_back({table->row(i)[column].geometry_value().envelope(),
                         static_cast<int64_t>(i)});
    }
    auto rtree = jackpine::index::MakeSpatialIndex(
        jackpine::index::IndexKind::kRtree);
    rtree->BulkLoad(std::move(entries));
    rtrees[w.table] = std::move(rtree);
    {
      std::lock_guard<std::mutex> lock(store->mutation_mutex());
      JACKPINE_RETURN_IF_ERROR(
          store->OnCreateTable(w.table, table->schema()).status());
    }
  }
  for (const Op& w : writes) {
    const uint64_t tid = rec.NewTraceId();
    obs::Span root = rec.StartSpan("replay.write", tid);
    {
      obs::Span s = rec.StartSpan("engine.insert", tid, root.span_id());
      JACKPINE_ASSIGN_OR_RETURN(engine::QueryResult r, db->Execute(w.sql));
      (void)r;
    }
    size_t column = 0;
    JACKPINE_ASSIGN_OR_RETURN(const engine::Table* table,
                              GeomTable(*db, w.table, &column));
    const engine::Row& row = table->row(table->NumRows() - 1);
    {
      obs::Span s = rec.StartSpan("index.insert", tid, root.span_id());
      rtrees[w.table]->Insert(row[column].geometry_value().envelope(),
                              static_cast<int64_t>(table->NumRows() - 1));
    }
    uint64_t ticket = 0;
    {
      obs::Span s = rec.StartSpan("storage.append", tid, root.span_id());
      std::lock_guard<std::mutex> lock(store->mutation_mutex());
      JACKPINE_ASSIGN_OR_RETURN(ticket, store->OnInsert(w.table, {row}));
    }
    {
      obs::Span s = rec.StartSpan("storage.wait_durable", tid, root.span_id());
      JACKPINE_RETURN_IF_ERROR(store->WaitDurable(ticket));
    }
  }
  store.reset();
  std::filesystem::remove_all(scratch_dir);

  const std::map<std::string, SpanTotals> totals = SelfTimes(rec.Drain());
  LayerCosts c;
  c.reads = reads.size();
  c.writes = writes.size();
  c.cache_lookup_us = PerOp(totals, "cache.lookup", c.reads);
  c.parse_us = PerOp(totals, "engine.parse", c.reads);
  c.plan_us = PerOp(totals, "engine.plan", c.reads);
  c.exec_us = PerOp(totals, "engine.exec", c.reads);
  c.encode_us = PerOp(totals, "net.encode", c.reads);
  c.decode_us = PerOp(totals, "net.decode", c.reads);
  c.bytes_per_read =
      c.reads ? static_cast<double>(counts.bytes) / c.reads : 0.0;
  c.index_probe_us = PerOp(totals, "index.probe", counts.window_reads);
  c.index_knn_us = PerOp(totals, "index.knn", counts.knn_reads);
  c.nodes_per_probe = counts.probes ? static_cast<double>(counts.nodes) /
                                          static_cast<double>(counts.probes)
                                    : 0.0;
  c.refine_us = PerOp(totals, "topo.refine", counts.window_reads);
  c.algo_us = PerOp(totals, "algo.function", counts.window_reads);
  c.filter_ratio = counts.trace.FilterRatio();
  c.rows_examined_per_row =
      static_cast<double>(counts.trace.rows_examined) /
      static_cast<double>(std::max<uint64_t>(counts.trace.rows_returned, 1));
  c.insert_us = PerOp(totals, "engine.insert", c.writes);
  c.index_insert_us = PerOp(totals, "index.insert", c.writes);
  c.append_us = PerOp(totals, "storage.append", c.writes);
  c.wait_durable_us = PerOp(totals, "storage.wait_durable", c.writes);
  return c;
}

}  // namespace spbench
