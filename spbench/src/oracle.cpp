#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "common/string_util.h"
#include "core/loader.h"

namespace spbench {

using jackpine::Result;
using jackpine::StrFormat;
namespace client = jackpine::client;

void OpLog::Add(const std::string& sql, OpKind kind, uint64_t checksum) {
  auto [it, inserted] =
      ids_.try_emplace(sql, static_cast<uint32_t>(texts_.size()));
  if (inserted) texts_.push_back(sql);
  entries_.push_back(Entry{it->second, kind, checksum});
  if (kind == OpKind::kWrite) {
    write_bytes_ += sql.size();
    ++writes_;
  }
}

Verdict& Verdict::operator+=(const Verdict& other) {
  checked += other.checked;
  mismatched += other.mismatched;
  if (first_mismatch.empty()) first_mismatch = other.first_mismatch;
  return *this;
}

Result<std::unique_ptr<Oracle>> Oracle::Create(
    const jackpine::tigergen::TigerDataset& dataset) {
  JACKPINE_ASSIGN_OR_RETURN(client::Connection conn,
                            client::Connection::Open("jackpine:pine-rtree"));
  JACKPINE_ASSIGN_OR_RETURN(jackpine::core::LoadTiming timing,
                            jackpine::core::LoadDataset(dataset, &conn));
  (void)timing;
  return std::unique_ptr<Oracle>(new Oracle(std::move(conn)));
}

Result<uint64_t> Oracle::Checksum(std::string_view sql) {
  client::Statement stmt = connection_.CreateStatement();
  JACKPINE_ASSIGN_OR_RETURN(client::ResultSet rs, stmt.ExecuteQuery(sql));
  return rs.Checksum();
}

bool Oracle::Matches(std::string_view sql, uint64_t observed,
                     Verdict* verdict) {
  ++verdict->checked;
  Result<uint64_t> expected = Checksum(sql);
  if (expected.ok() && *expected == observed) return true;
  ++verdict->mismatched;
  if (verdict->first_mismatch.empty()) {
    verdict->first_mismatch =
        expected.ok()
            ? StrFormat("%s: observed %016llx, reference %016llx",
                        std::string(sql).c_str(),
                        static_cast<unsigned long long>(observed),
                        static_cast<unsigned long long>(*expected))
            : StrFormat("%s: reference failed: %s", std::string(sql).c_str(),
                        expected.status().ToString().c_str());
  }
  return false;
}

Verdict Oracle::VerifyReadOnly(const std::vector<const OpLog*>& logs,
                               int threads) {
  // Distinct texts across all logs, then one reference execution each.
  std::unordered_map<std::string, size_t> slot;
  std::vector<std::string> texts;
  for (const OpLog* log : logs) {
    for (const OpLog::Entry& e : log->entries()) {
      if (e.kind != OpKind::kRead) continue;
      const std::string& sql = log->text(e.text);
      if (slot.try_emplace(sql, texts.size()).second) texts.push_back(sql);
    }
  }
  std::vector<Result<uint64_t>> reference(texts.size(), uint64_t{0});
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < std::max(threads, 1); ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < texts.size(); i = next++) {
        reference[i] = Checksum(texts[i]);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  Verdict verdict;
  for (const OpLog* log : logs) {
    for (const OpLog::Entry& e : log->entries()) {
      if (e.kind != OpKind::kRead) continue;
      const std::string& sql = log->text(e.text);
      const Result<uint64_t>& expected = reference[slot[sql]];
      ++verdict.checked;
      if (expected.ok() && *expected == e.checksum) continue;
      ++verdict.mismatched;
      if (verdict.first_mismatch.empty()) {
        verdict.first_mismatch = StrFormat(
            "%s: observed %016llx, reference %s", sql.c_str(),
            static_cast<unsigned long long>(e.checksum),
            expected.ok()
                ? StrFormat("%016llx",
                            static_cast<unsigned long long>(*expected))
                      .c_str()
                : expected.status().ToString().c_str());
      }
    }
  }
  return verdict;
}

Result<Verdict> Oracle::Replay(const OpLog& log) {
  Verdict verdict;
  client::Statement stmt = connection_.CreateStatement();
  for (const OpLog::Entry& e : log.entries()) {
    const std::string& sql = log.text(e.text);
    if (e.kind == OpKind::kWrite) {
      JACKPINE_ASSIGN_OR_RETURN(int64_t n, stmt.ExecuteUpdate(sql));
      if (n != 1) {
        return jackpine::Status::Internal(
            StrFormat("reference replay of '%s' affected %lld rows",
                      sql.c_str(), static_cast<long long>(n)));
      }
    } else {
      Matches(sql, e.checksum, &verdict);
    }
  }
  return verdict;
}

}  // namespace spbench
