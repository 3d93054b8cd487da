#include "store/result_store.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "store/serialize.hpp"
#include "store/version.hpp"

namespace ibsim::store {

namespace fs = std::filesystem;

namespace {

constexpr const char* kRecordHeader = "ibsim-store-record-v1";
constexpr const char* kRecordTrailer = "end";

std::string hostname() {
  char buf[256];
  if (gethostname(buf, sizeof(buf)) != 0) return "unknown-host";
  buf[sizeof(buf) - 1] = '\0';
  return buf;
}

std::int64_t now_unix_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// `name <decimal byte count>\n<exactly that many bytes>` — the framed
/// blocks carrying config and result text inside a record.
void put_block(std::string& out, const char* name, const std::string& body) {
  out += name;
  out += ' ';
  out += std::to_string(body.size());
  out += '\n';
  out += body;
}

bool read_line(const std::string& text, std::size_t* pos, std::string* line) {
  if (*pos >= text.size()) return false;
  const std::size_t nl = text.find('\n', *pos);
  if (nl == std::string::npos) return false;
  *line = text.substr(*pos, nl - *pos);
  *pos = nl + 1;
  return true;
}

bool read_named(const std::string& text, std::size_t* pos, const char* name,
                std::string* value) {
  std::string line;
  if (!read_line(text, pos, &line)) return false;
  const std::string prefix = std::string(name) + ' ';
  if (line.rfind(prefix, 0) != 0) return false;
  *value = line.substr(prefix.size());
  return true;
}

bool read_block(const std::string& text, std::size_t* pos, const char* name,
                std::string* body) {
  std::string size_str;
  if (!read_named(text, pos, name, &size_str)) return false;
  char* end = nullptr;
  const std::uint64_t n = std::strtoull(size_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  if (n > text.size() - *pos) return false;  // *pos + n could wrap
  *body = text.substr(*pos, n);
  *pos += n;
  return true;
}

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "objects", ec);
  if (!ec) fs::create_directories(fs::path(dir_) / "tmp", ec);
  if (ec) {
    error_ = "cannot create store directory '" + dir_ + "': " + ec.message();
  }
}

std::string ResultStore::object_path(const std::string& key) const {
  const std::string shard = key.size() >= 2 ? key.substr(0, 2) : std::string("xx");
  return (fs::path(dir_) / "objects" / shard / key).string();
}

bool ResultStore::get(const std::string& key, sim::SimResult* result) {
  if (!error_.empty()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::ifstream in(object_path(key), std::ios::binary);
  if (!in.good()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Parse the record; anything unexpected is a torn or foreign file and
  // counts as a miss (the next producer overwrites it).
  const auto bad = [&] {
    bad_records_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  };
  std::size_t pos = 0;
  std::string line;
  std::string value;
  if (!read_line(text, &pos, &line) || line != kRecordHeader) return bad();
  if (!read_named(text, &pos, "key", &value) || value != key) return bad();
  // Provenance and the config text are for people reading the file; a
  // lookup only needs them present.
  for (const char* name : {"version", "host", "timestamp_us", "wall_seconds"}) {
    if (!read_named(text, &pos, name, &value)) return bad();
  }
  if (!read_block(text, &pos, "config_bytes", &value)) return bad();
  std::string result_text;
  if (!read_block(text, &pos, "result_bytes", &result_text)) return bad();
  if (!read_line(text, &pos, &line) || line != kRecordTrailer) return bad();
  if (pos != text.size()) return bad();
  sim::SimResult parsed;
  if (!parse_result(result_text, &parsed)) return bad();

  hits_.fetch_add(1, std::memory_order_relaxed);
  *result = std::move(parsed);
  return true;
}

void ResultStore::put(const std::string& key, const std::string& config_text,
                      const sim::SimResult& result, double wall_seconds) {
  if (!error_.empty()) return;

  std::string record;
  record.reserve(1024 + config_text.size());
  record += kRecordHeader;
  record += '\n';
  record += "key " + key + '\n';
  record += "version " + std::string(code_version()) + '\n';
  record += "host " + hostname() + '\n';
  record += "timestamp_us " + std::to_string(now_unix_us()) + '\n';
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", wall_seconds);
    record += "wall_seconds " + std::string(buf) + '\n';
  }
  put_block(record, "config_bytes", config_text);
  put_block(record, "result_bytes", serialize_result(result));
  record += kRecordTrailer;
  record += '\n';

  std::lock_guard<std::mutex> lock(write_mu_);
  const std::string tmp =
      (fs::path(dir_) / "tmp" /
       (key + "." + std::to_string(::getpid()) + "." +
        std::to_string(tmp_seq_.fetch_add(1, std::memory_order_relaxed))))
          .string();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << record;
    if (!out.good()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  const std::string object = object_path(key);
  std::error_code ec;
  fs::create_directories(fs::path(object).parent_path(), ec);
  if (!ec) fs::rename(tmp, object, ec);  // atomic publish
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  puts_.fetch_add(1, std::memory_order_relaxed);

  // Append-only provenance index; informational, never read back for
  // lookups, so a lost line costs nothing.
  std::ofstream index((fs::path(dir_) / "index.tsv").string(), std::ios::app);
  index << key << '\t' << code_version() << '\t' << now_unix_us() << '\t' << hostname()
        << '\n';
}

ResultStore::Stats ResultStore::stats() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
          puts_.load(std::memory_order_relaxed), bad_records_.load(std::memory_order_relaxed)};
}

std::string ResultStore::stats_line() const {
  if (!error_.empty()) return "store " + dir_ + ": disabled: " + error_;
  const Stats s = stats();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "store %s: hits=%llu misses=%llu puts=%llu bad=%llu", dir_.c_str(),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.puts),
                static_cast<unsigned long long>(s.bad_records));
  return buf;
}

StoreRegistry& StoreRegistry::instance() {
  static StoreRegistry registry;
  return registry;
}

std::shared_ptr<ResultStore> StoreRegistry::open(const std::string& dir) {
  // lexically_normal keeps a trailing separator ("x/." -> "x/"), which
  // would split one directory across two store instances.
  std::string norm = fs::path(dir).lexically_normal().string();
  while (norm.size() > 1 && norm.back() == fs::path::preferred_separator) norm.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stores_.find(norm);
  if (it != stores_.end()) return it->second;
  auto store = std::make_shared<ResultStore>(norm);
  stores_.emplace(norm, store);
  return store;
}

void StoreRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stores_.clear();
}

}  // namespace ibsim::store
