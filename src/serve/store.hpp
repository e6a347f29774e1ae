// DiskResultStore — the durable fingerprint -> RunReport tier of the serving
// subsystem.
//
// Layout: one record file per fingerprint inside the store directory,
//
//   <dir>/<hash16(fp)><hash16'(fp)>.json
//   record = {"schema":1,"fingerprint":"<fp>","report":{...}}
//
// written to a temp sibling of its own, <record>.<pid>.<n>.tmp for the n-th
// save this process started, and atomically renamed into place. Readers and
// writers (including concurrent daemons sharing the directory) therefore
// never observe a half-written record: not from a writer killed mid-save
// (DiskResultStore.SigkillMidSaveLeavesTheOldOrTheNewRecord), and not while
// another store saves the same record
// (DiskResultStore.TwoStoresSavingOneRecordNeitherFailNorTearIt). A killed
// writer may leave its *.tmp file behind; nothing reads it. The filename
// is a hash, not the fingerprint itself (fingerprints contain '/' and are
// unbounded in length); the fingerprint inside the record is authoritative,
// and a mismatch — a hash collision or a copied-in foreign record — is
// rejected like corruption. Rejections are LOUD misses: a warning on
// stderr, a bump of stats().rejected, and nullptr back to the caller, never
// a crash and never a silently-served wrong result. Bumping the schema
// version invalidates old records the same way.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/report.hpp"

namespace bsr::serve {

/// Counters of one DiskResultStore's lifetime (monotone, thread-safe reads
/// under the store's own lock via stats()).
struct StoreStats {
  std::uint64_t hits = 0;      ///< load_record() found a valid record
  std::uint64_t misses = 0;    ///< load_record() found nothing
  std::uint64_t rejected = 0;  ///< corrupt / old-schema / mismatched records
  std::uint64_t saves = 0;     ///< records written
};

/// One valid record, read in one pass over its text.
struct StoredRecord {
  /// The record's "report" as JsonValue::dump() writes it, so a store hit
  /// answers with the bytes the cold run serialized: the report's own bytes
  /// from the record, which for writer output are exactly those, or a
  /// re-emission through a tree when the report holds whitespace between
  /// tokens or an escape the writer never spells.
  std::string json;
  /// The same report, deserialized straight from the record's text.
  core::RunReport report;
};

/// The on-disk store (see file comment). Thread-safe: saves and loads do
/// their file work outside the internal mutex and take it only to count.
class DiskResultStore {
 public:
  /// Records are written under `dir`, created (one level) if absent. Throws
  /// std::runtime_error when the directory cannot be created.
  explicit DiskResultStore(std::string dir);

  /// The one read path: reads the record for `fingerprint` in one read and
  /// walks it once with a JsonCursor, building no tree: the whole record
  /// is checked as JSON, the envelope vetted (schema, fingerprint; in any
  /// order, the first of each name counting) and the report deserialized
  /// in place. Counts exactly one hit, miss or reject; nullopt on a miss or
  /// a loud reject (any of: unreadable JSON, schema drift, fingerprint
  /// mismatch, or a valid envelope around a report that does not
  /// deserialize).
  [[nodiscard]] std::optional<StoredRecord> load_record(
      const std::string& fingerprint);

  /// load_record()'s report text; nullptr on miss or loud reject. The text
  /// comes from the same pass that deserializes the report, so this costs
  /// what load_record() costs.
  [[nodiscard]] std::shared_ptr<const std::string> load_serialized(
      const std::string& fingerprint);

  /// Writes (or atomically overwrites) the record for `fingerprint`, its
  /// report given already serialized (serve::serialize_report).
  void save_serialized(const std::string& fingerprint,
                       const std::string& report_json);

  /// Lifetime counters (copied under the lock).
  [[nodiscard]] StoreStats stats() const;

  /// The store directory as given.
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// The record path for `fingerprint` (exposed for tests and tooling).
  [[nodiscard]] std::string record_path(const std::string& fingerprint) const;

  /// The on-disk schema version this build reads and writes.
  static constexpr int kSchemaVersion = 1;

 private:
  std::string dir_;
  mutable std::mutex mutex_;
  StoreStats stats_;
};

}  // namespace bsr::serve
