// The correctness oracle: a private in-process pine-rtree engine (no
// result cache, no network) that recomputes every read the servers
// answered and replays every write they acknowledged.

#ifndef SPBENCH_ORACLE_H_
#define SPBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "client/client.h"
#include "tigergen/tigergen.h"
#include "workload.h"

namespace spbench {

// One session's completed operations, in issue order. SQL texts are
// interned: browse repeats a few thousand texts hundreds of thousands of
// times.
class OpLog {
 public:
  struct Entry {
    uint32_t text = 0;
    OpKind kind = OpKind::kRead;
    uint64_t checksum = 0;  // reads: result checksum; writes: unused
  };

  void Add(const std::string& sql, OpKind kind, uint64_t checksum);
  const std::vector<Entry>& entries() const { return entries_; }
  const std::string& text(uint32_t id) const { return texts_[id]; }
  // Bytes of acknowledged INSERT text (the user bytes a store must keep).
  uint64_t write_bytes() const { return write_bytes_; }
  uint64_t writes() const { return writes_; }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> texts_;
  std::vector<Entry> entries_;
  uint64_t write_bytes_ = 0;
  uint64_t writes_ = 0;
};

struct Verdict {
  uint64_t checked = 0;
  uint64_t mismatched = 0;
  std::string first_mismatch;  // SQL and both checksums, for the report

  Verdict& operator+=(const Verdict& other);
};

class Oracle {
 public:
  // Loads `dataset` into a fresh in-process engine.
  static jackpine::Result<std::unique_ptr<Oracle>> Create(
      const jackpine::tigergen::TigerDataset& dataset);

  // Reference checksum of one SELECT against the current state.
  jackpine::Result<uint64_t> Checksum(std::string_view sql);

  // Compares one observed checksum (the unit the run's counters use).
  bool Matches(std::string_view sql, uint64_t observed, Verdict* verdict);

  // Verifies reads served while no table changed: each distinct text is
  // recomputed once, on `threads` workers. Writes in the logs are ignored.
  Verdict VerifyReadOnly(const std::vector<const OpLog*>& logs, int threads);

  // Replays a log in order: writes apply, reads compare against the state
  // the preceding writes left.
  jackpine::Result<Verdict> Replay(const OpLog& log);

  jackpine::client::Connection& connection() { return connection_; }

 private:
  explicit Oracle(jackpine::client::Connection connection)
      : connection_(std::move(connection)) {}

  jackpine::client::Connection connection_;
};

}  // namespace spbench

#endif  // SPBENCH_ORACLE_H_
