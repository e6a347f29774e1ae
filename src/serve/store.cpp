#include "serve/store.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "serve/report_json.hpp"

namespace bsr::serve {

namespace {

/// Process-wide corruption counter (bsr/observability.hpp): every loud
/// reject — truncated record, garbage JSON, schema drift, fingerprint
/// mismatch, report-schema drift — counts here as well as in the store's
/// own stats(), so daemons surface corruption without polling stderr.
common::Counter& rejected_records_counter() {
  static common::Counter& c = common::MetricsRegistry::global().counter(
      "bsr_store_rejected_records_total",
      "durable-store records rejected as corrupt, stale-schema, or "
      "mismatched (each one is a loud miss, never a served answer)");
  return c;
}

/// FNV-1a over `s`, folded with a per-call basis so two independent 64-bit
/// digests make one 32-hex-digit filename (collisions are additionally
/// caught by the fingerprint check inside the record).
std::uint64_t fnv1a(const std::string& s, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

/// The whole file at `path`, read with one read sized from the file (a file
/// that shrank meanwhile yields what is left); nullopt when it cannot be
/// opened.
std::optional<std::string> read_file(const std::string& path) {
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  struct stat st {};
  if (file == nullptr || ::fstat(::fileno(file.get()), &st) != 0) {
    return std::nullopt;
  }
  std::setvbuf(file.get(), nullptr, _IONBF, 0);  // read straight into bytes
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), file.get()));
  return bytes;
}

[[noreturn]] void missing(const char* key) {
  throw std::runtime_error(std::string("missing member \"") + key + "\"");
}

/// The record in `bytes` for `fingerprint`, read with one cursor pass. The
/// envelope's members may come in any order, the first of each name counts
/// and others are skipped, but the whole record must be valid JSON. The
/// report is deserialized in place, and its text is served as it lies in
/// the record: writer output is exactly what JsonValue::dump() would give.
/// Only a report holding whitespace between tokens or an escape the writer
/// never spells is re-emitted through a tree, so every record yields the
/// bytes a tree would.
StoredRecord read_record(std::string bytes, const std::string& fingerprint) {
  JsonCursor c(bytes);
  bool schema_read = false;
  bool fingerprint_read = false;
  std::optional<core::RunReport> report;
  std::size_t begin = 0;
  std::size_t end = 0;
  bool verbatim = false;
  for (bool more = c.begin_object(); more; more = c.next_member()) {
    const std::string_view key = c.key();
    if (key == "schema" && !schema_read) {
      schema_read = true;
      const std::int64_t version = c.token().to_int64();
      if (version != DiskResultStore::kSchemaVersion) {
        throw std::runtime_error(
            "schema version " + std::to_string(version) +
            ", this build reads " +
            std::to_string(DiskResultStore::kSchemaVersion));
      }
    } else if (key == "fingerprint" && !fingerprint_read) {
      fingerprint_read = true;
      if (c.token().as_string() != fingerprint) {
        throw std::runtime_error("fingerprint mismatch");
      }
    } else if (key == "report" && !report.has_value()) {
      (void)c.peek();
      begin = c.offset();
      const std::size_t noncanonical = c.noncanonical();
      report = read_report(c);
      end = c.offset();
      verbatim = c.noncanonical() == noncanonical;
    } else {
      c.skip();
    }
  }
  c.finish();
  if (!schema_read) missing("schema");
  if (!fingerprint_read) missing("fingerprint");
  if (!report.has_value()) missing("report");
  StoredRecord out{{}, std::move(*report)};
  if (verbatim) {
    bytes.resize(end);
    bytes.erase(0, begin);
    out.json = std::move(bytes);
  } else {
    const std::string_view span(bytes.data() + begin, end - begin);
    out.json = JsonValue::parse(span).dump();
  }
  return out;
}

}  // namespace

DiskResultStore::DiskResultStore(std::string dir) : dir_(std::move(dir)) {
  if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    throw std::runtime_error("store: cannot create directory " + dir_ + ": " +
                             std::strerror(errno));
  }
}

std::string DiskResultStore::record_path(const std::string& fingerprint) const {
  return dir_ + "/" + hex16(fnv1a(fingerprint, 14695981039346656037ULL)) +
         hex16(fnv1a(fingerprint, 0x9e3779b97f4a7c15ULL)) + ".json";
}

std::optional<StoredRecord> DiskResultStore::load_record(
    const std::string& fingerprint) {
  const std::string path = record_path(fingerprint);
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes.has_value()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  }
  // Anything unexpected, the report's own schema included, is a loud reject.
  try {
    StoredRecord out = read_record(std::move(*bytes), fingerprint);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return out;
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.rejected;
    }
    rejected_records_counter().inc();
    std::fprintf(stderr,
                 "store: rejecting record %s (%s); treating as a miss\n",
                 path.c_str(), e.what());
    return std::nullopt;
  }
}

std::shared_ptr<const std::string> DiskResultStore::load_serialized(
    const std::string& fingerprint) {
  std::optional<StoredRecord> record = load_record(fingerprint);
  return record ? std::make_shared<const std::string>(std::move(record->json))
                : nullptr;
}

void DiskResultStore::save_serialized(const std::string& fingerprint,
                                      const std::string& report_json) {
  JsonWriter w;
  w.obj_open();
  w.key("schema").value(kSchemaVersion);
  w.key("fingerprint").value(fingerprint);
  w.key("report").raw(report_json);
  w.obj_close();

  // Each save writes its own temp file, named for this process and this
  // save, so concurrent saves of one record (threads of one store, or
  // daemons sharing the directory) never write into or rename each other's
  // file: the last rename wins, and every rename installs a whole record.
  static std::atomic<std::uint64_t> saves_started{0};
  const std::string path = record_path(fingerprint);
  const std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                          std::to_string(saves_started.fetch_add(1)) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("store: cannot write " + tmp);
    }
    out << w.str() << '\n';
    if (!out.flush()) {
      std::remove(tmp.c_str());
      throw std::runtime_error("store: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int error = errno;
    std::remove(tmp.c_str());
    throw std::runtime_error("store: rename " + tmp + " -> " + path + ": " +
                             std::strerror(error));
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.saves;
}

StoreStats DiskResultStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace bsr::serve
