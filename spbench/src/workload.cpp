#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/string_util.h"
#include "geom/wkt_reader.h"

namespace spbench {

using jackpine::StrFormat;

namespace {

// Fixed generator seeds: the dataset and the browse tile pool belong to the
// benchmark, not to a run.
constexpr uint64_t kDatasetSeed = 42;
constexpr uint64_t kPoolSeed = 7;
constexpr size_t kPoolDraws = 3000;
// Zipf exponent of browse popularity: a few hot tiles, a long tail. 1.1 is
// the skew of the repo's cache experiment (E8, BENCH_cache_overload.json).
constexpr double kZipfS = 1.1;

std::string BoxWkt(const geom::Envelope& e) {
  return StrFormat("POLYGON((%.6f %.6f, %.6f %.6f, %.6f %.6f, %.6f %.6f, "
                   "%.6f %.6f))",
                   e.min_x(), e.min_y(), e.max_x(), e.min_y(), e.max_x(),
                   e.max_y(), e.min_x(), e.max_y(), e.min_x(), e.min_y());
}

std::string PointWkt(const geom::Coord& c) {
  return StrFormat("POINT(%.6f %.6f)", c.x, c.y);
}

geom::Geometry BoxGeometry(const geom::Envelope& e) {
  return geom::GeometryFromWkt(BoxWkt(e)).value();
}

geom::Envelope Box(const geom::Coord& c, double half) {
  return geom::Envelope(c.x - half, c.y - half, c.x + half, c.y + half);
}

// A window read: `select` over `table` rows intersecting the box.
Op WindowRead(const std::string& table, const std::string& select,
              const geom::Envelope& box, AlgoFn algo) {
  Op op;
  op.table = table;
  op.access = Access::kWindow;
  op.window = box;
  op.shape = BoxGeometry(box);
  op.predicate = topo::PredicateKind::kIntersects;
  op.algo = algo;
  op.sql = StrFormat("SELECT %s FROM %s WHERE ST_Intersects(geom, "
                     "ST_GeomFromText('%s'))",
                     select.c_str(), table.c_str(), BoxWkt(box).c_str());
  return op;
}

Op KnnRead(const std::string& table, const std::string& select,
           const std::string& key, const geom::Coord& p, size_t k) {
  Op op;
  op.table = table;
  op.access = Access::kKnn;
  op.center = p;
  op.k = k;
  op.sql = StrFormat("SELECT %s FROM %s ORDER BY ST_Distance(geom, "
                     "ST_GeomFromText('%s')), %s LIMIT %zu",
                     select.c_str(), table.c_str(), PointWkt(p).c_str(),
                     key.c_str(), k);
  return op;
}

// Address lookup (geocoding): attribute match plus interpolation along the
// matched road; the engine answers it with a scan.
Op AddressRead(const jackpine::tigergen::Edge& e, Rng* rng) {
  const int64_t span = std::max<int64_t>(e.ltoadd - e.lfromadd, 1);
  const int64_t house =
      e.lfromadd + 2 * static_cast<int64_t>(rng->NextBounded(
                           static_cast<uint64_t>(span / 2 + 1)));
  Op op;
  op.table = "edges";
  op.access = Access::kScan;
  op.sql = StrFormat(
      "SELECT tlid, ST_AsText(ST_LineInterpolatePoint(geom, %.6f)) FROM "
      "edges WHERE fullname = '%s' AND lfromadd <= %lld AND ltoadd >= %lld",
      static_cast<double>(house - e.lfromadd) / static_cast<double>(span),
      e.fullname.c_str(), static_cast<long long>(house),
      static_cast<long long>(house));
  return op;
}

geom::Coord Urbanish(const jackpine::tigergen::TigerDataset& ds, Rng* rng) {
  const geom::Envelope& ext = ds.extent;
  geom::Coord c{rng->NextDouble(ext.min_x(), ext.max_x()),
                rng->NextDouble(ext.min_y(), ext.max_y())};
  if (!ds.urban_centers.empty() && rng->NextBool(0.7)) {
    const geom::Coord& u =
        ds.urban_centers[rng->NextBounded(ds.urban_centers.size())];
    c.x = u.x + rng->NextGaussian() * ext.Width() * 0.05;
    c.y = u.y + rng->NextGaussian() * ext.Height() * 0.05;
  }
  c.x = std::clamp(c.x, ext.min_x(), ext.max_x());
  c.y = std::clamp(c.y, ext.min_y(), ext.max_y());
  return c;
}

geom::Coord Uniform(const geom::Envelope& ext, Rng* rng) {
  return {rng->NextDouble(ext.min_x(), ext.max_x()),
          rng->NextDouble(ext.min_y(), ext.max_y())};
}

}  // namespace

Result<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kBrowse, Workload::kAnalyze, Workload::kScatter}) {
    if (name == WorkloadName(w)) return w;
  }
  return jackpine::Status::InvalidArgument(
      StrFormat("unknown workload '%s'", std::string(name).c_str()));
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kBrowse: return "browse";
    case Workload::kAnalyze: return "analyze";
    case Workload::kScatter: return "scatter";
  }
  return "?";
}

int ServersFor(Workload workload) {
  return workload == Workload::kScatter ? 2 : 1;
}

jackpine::tigergen::TigerGenOptions DatasetOptions(double scale) {
  jackpine::tigergen::TigerGenOptions o;
  o.seed = kDatasetSeed;
  o.scale = scale;
  return o;
}

WorkloadInputs::WorkloadInputs(Workload workload,
                               const jackpine::tigergen::TigerDataset& dataset)
    : workload_(workload), extent_(dataset.extent) {
  // The browse pool: viewports snapped to three tile grids (tiny, small,
  // medium windows) around where people live, plus reverse-geocoding
  // points at tile centres and address lookups. Quantization makes
  // popular tiles repeat, which is what lets the result cache work.
  Rng rng(kPoolSeed);
  std::set<std::string> seen;
  const double width = extent_.Width();
  const double tiles[] = {width / 64, width / 32, width / 16};
  std::vector<const jackpine::tigergen::Edge*> addressable;
  for (const auto& e : dataset.edges) {
    if (e.ltoadd > e.lfromadd) addressable.push_back(&e);
  }
  for (size_t i = 0; i < kPoolDraws; ++i) {
    const double tile = tiles[rng.NextBounded(3)];
    const geom::Coord c = Urbanish(dataset, &rng);
    const double tx = extent_.min_x() +
                      std::floor((c.x - extent_.min_x()) / tile) * tile;
    const double ty = extent_.min_y() +
                      std::floor((c.y - extent_.min_y()) / tile) * tile;
    const geom::Envelope box(tx, ty, tx + tile, ty + tile);
    Op op;
    switch (rng.NextBounded(5)) {
      case 0:
        op = WindowRead("edges", "COUNT(*)", box, AlgoFn::kNone);
        break;
      case 1:
        op = WindowRead("edges", "tlid, fullname, mtfcc", box, AlgoFn::kNone);
        break;
      case 2:
        op = WindowRead("pointlm", "plid, fullname, geom", box, AlgoFn::kNone);
        break;
      case 3:
        op = KnnRead("edges", "tlid, fullname", "tlid", box.Center(), 1);
        break;
      default:
        if (addressable.empty()) continue;
        op = AddressRead(*addressable[rng.NextBounded(addressable.size())],
                         &rng);
        break;
    }
    if (seen.insert(op.sql).second) pool_.push_back(std::move(op));
  }
  // Zipf(s) over popularity ranks. Which tile holds which rank is part of
  // the fixed pool, not of the seed: hot tiles differ a lot in result size,
  // so a seed-dependent hot set would make the seed, not the system, set
  // the throughput. The seed drives the draws.
  double total = 0.0;
  zipf_cdf_.reserve(pool_.size());
  for (size_t r = 0; r < pool_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    zipf_cdf_.push_back(total);
  }
  for (double& v : zipf_cdf_) v /= total;
  rank_to_entry_.resize(pool_.size());
  for (size_t i = 0; i < pool_.size(); ++i) rank_to_entry_[i] = i;
  Rng perm(kPoolSeed + 1);
  for (size_t i = pool_.size(); i > 1; --i) {
    std::swap(rank_to_entry_[i - 1], rank_to_entry_[perm.NextBounded(i)]);
  }
  tour_.resize(kTourSide * kTourSide);
  for (uint32_t i = 0; i < tour_.size(); ++i) tour_[i] = i;
  for (size_t i = tour_.size(); i > 1; --i) {
    std::swap(tour_[i - 1], tour_[perm.NextBounded(i)]);
  }
}

const Op& WorkloadInputs::DrawBrowse(Rng* rng) const {
  const double u = rng->NextDouble();
  const size_t rank = std::min<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin(),
      pool_.size() - 1);
  return pool_[rank_to_entry_[rank]];
}

OpStream::OpStream(const WorkloadInputs* inputs, uint64_t seed, int stream,
                   int64_t write_base)
    : inputs_(inputs),
      rng_(seed * 1000003ull + static_cast<uint64_t>(stream) + 1),
      next_write_(write_base),
      // Sessions start half a tour apart, so they do not probe the same
      // cells at the same time.
      step_(static_cast<uint64_t>(stream) * inputs->tour().size() / 2) {}

// Fresh-region requests follow a fixed tour of the extent instead of
// independent uniform draws: request costs are heavy-tailed (a region over
// a dense city costs 100x one over open land), and a fixed tour makes every
// seed pay the same mix, so runs with different seeds agree. The seed
// jitters each point within its cell, which keeps every request new.
geom::Coord OpStream::NextCellPoint() {
  const geom::Envelope& ext = inputs_->extent();
  const uint32_t side = WorkloadInputs::kTourSide;
  const uint32_t cell = inputs_->tour()[step_ % inputs_->tour().size()];
  const double w = ext.Width() / side;
  const double h = ext.Height() / side;
  return {ext.min_x() + (cell % side + rng_.NextDouble()) * w,
          ext.min_y() + (cell / side + rng_.NextDouble()) * h};
}

Op OpStream::Next() {
  switch (inputs_->workload()) {
    case Workload::kBrowse:
      return inputs_->DrawBrowse(&rng_);
    case Workload::kAnalyze:
      return NextAnalyze();
    case Workload::kScatter:
      return NextScatter();
  }
  return inputs_->DrawBrowse(&rng_);
}

// Refinement-bound macro queries (flood risk, land management, toxic
// spill), each over a fresh random region so no two requests share a cache
// key.
Op OpStream::NextAnalyze() {
  const double width = inputs_->extent().Width();
  const uint64_t step = step_++;
  const geom::Coord c = NextCellPoint();
  const geom::Envelope region = Box(c, width * rng_.NextDouble(0.04, 0.05));
  const std::string wkt = BoxWkt(region);
  switch (step % 4) {
    case 0: {
      // Flood risk: landmarks in the region within a margin of water.
      Op op = WindowRead("pointlm", "COUNT(*)", region, AlgoFn::kNone);
      op.predicate = topo::PredicateKind::kWithin;
      op.sql = StrFormat(
          "SELECT COUNT(*) FROM pointlm p, areawater w WHERE "
          "ST_Within(p.geom, ST_GeomFromText('%s')) AND "
          "ST_DWithin(p.geom, w.geom, %.6f)",
          wkt.c_str(), width * 0.01);
      return op;
    }
    case 1: {
      // Land management: parcel inventory of the region.
      Op op = WindowRead("arealm", "COUNT(*), SUM(ST_Area(geom))", region,
                         AlgoFn::kArea);
      return op;
    }
    case 2: {
      // Land management overlay: parcel area falling inside the region.
      Op op = WindowRead("arealm", "COUNT(*)", region,
                         AlgoFn::kIntersectionArea);
      op.sql = StrFormat(
          "SELECT SUM(ST_Area(ST_Intersection(geom, ST_GeomFromText('%s')))) "
          "FROM arealm WHERE ST_Intersects(geom, ST_GeomFromText('%s'))",
          wkt.c_str(), wkt.c_str());
      return op;
    }
    default: {
      // Toxic spill: roads within the plume radius, and their mileage.
      const double radius = width * rng_.NextDouble(0.02, 0.025);
      Op op;
      op.table = "edges";
      op.access = Access::kWindow;
      op.window = Box(c, radius);
      op.shape = geom::Geometry::MakePoint(c);
      op.algo = AlgoFn::kWithinDistance;
      op.distance = radius;
      op.sql = StrFormat(
          "SELECT COUNT(*), SUM(ST_Length(geom)) FROM edges WHERE "
          "ST_DWithin(geom, ST_GeomFromText('%s'), %.6f)",
          PointWkt(c).c_str(), radius);
      return op;
    }
  }
}

// The browse shapes without quantization: uniform, non-repeating viewports
// from tiny (almost always one shard) to large (always both), plus COUNT /
// SUM aggregates and k-NN.
Op OpStream::NextScatter() {
  const double width = inputs_->extent().Width();
  const uint64_t step = step_++;
  const geom::Coord c = NextCellPoint();
  const double halves[] = {width / 256, width / 64, width / 24, width / 10};
  const geom::Envelope box =
      Box(c, halves[(step / 5) % 4] * rng_.NextDouble(0.9, 1.1));
  switch (step % 5) {
    case 0:
      return WindowRead("edges", "COUNT(*)", box, AlgoFn::kNone);
    case 1:
      return WindowRead("edges", "COUNT(*), SUM(ST_Length(geom))", box,
                        AlgoFn::kLength);
    case 2:
      return WindowRead("pointlm", "plid, fullname", box, AlgoFn::kNone);
    case 3:
      return WindowRead("pointlm", "COUNT(*)", box, AlgoFn::kNone);
    default:
      return KnnRead("pointlm", "plid, fullname", "plid", c, 5);
  }
}

Op OpStream::NextWrite() {
  const geom::Envelope& ext = inputs_->extent();
  const geom::Coord c = Uniform(ext, &rng_);
  Op op;
  op.kind = OpKind::kWrite;
  op.row_id = next_write_++;
  if (rng_.NextBool(0.7)) {
    op.table = "pointlm";
    op.sql = StrFormat(
        "INSERT INTO pointlm VALUES (%lld, 'Bench Landmark %lld', 'K2543', "
        "0, ST_GeomFromText('%s'))",
        static_cast<long long>(op.row_id), static_cast<long long>(op.row_id),
        PointWkt(c).c_str());
  } else {
    const double dx = rng_.NextDouble(-0.3, 0.3);
    const double dy = rng_.NextDouble(-0.3, 0.3);
    op.table = "edges";
    op.sql = StrFormat(
        "INSERT INTO edges VALUES (%lld, 'Bench Rd %lld', 'S1400', 0, 100, "
        "198, 101, 199, 78701, ST_GeomFromText('LINESTRING(%.6f %.6f, %.6f "
        "%.6f)'))",
        static_cast<long long>(op.row_id), static_cast<long long>(op.row_id),
        c.x, c.y, c.x + dx, c.y + dy);
  }
  return op;
}

}  // namespace spbench
