#include "store/serialize.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace ibsim::store {

namespace {

constexpr const char* kHeader = "ibsim-result-v1";
constexpr const char* kTrailer = "end";

void put_double(std::string& out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out += name;
  out += ' ';
  out += buf;
  out += '\n';
}

void put_i64(std::string& out, const char* name, std::int64_t v) {
  out += name;
  out += ' ';
  out += std::to_string(v);
  out += '\n';
}

void put_u64(std::string& out, const char* name, std::uint64_t v) {
  out += name;
  out += ' ';
  out += std::to_string(v);
  out += '\n';
}

/// Reader over the serialized lines: each get_* consumes one line and
/// validates its field name, so reordered or missing fields fail loudly
/// instead of silently mis-assigning.
class LineReader {
 public:
  explicit LineReader(const std::string& text) : in_(text) {}

  bool next(std::string* line) { return static_cast<bool>(std::getline(in_, *line)); }

  bool expect_named(const char* name, std::string* value) {
    std::string line;
    if (!next(&line)) return false;
    const std::string prefix = std::string(name) + ' ';
    if (line.rfind(prefix, 0) != 0) return false;
    *value = line.substr(prefix.size());
    return !value->empty();
  }

  bool get_double(const char* name, double* v) {
    std::string value;
    if (!expect_named(name, &value)) return false;
    char* end = nullptr;
    *v = std::strtod(value.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  bool get_i64(const char* name, std::int64_t* v) {
    std::string value;
    if (!expect_named(name, &value)) return false;
    char* end = nullptr;
    *v = std::strtoll(value.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
  }

  bool get_u64(const char* name, std::uint64_t* v) {
    std::string value;
    if (!expect_named(name, &value)) return false;
    char* end = nullptr;
    *v = std::strtoull(value.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
  }

 private:
  std::istringstream in_;
};

bool parse_time_list(const std::string& value, std::vector<core::Time>* out) {
  std::istringstream in(value);
  std::uint64_t n = 0;
  if (!(in >> n)) return false;
  // No reserve(n): the count comes from the file, and a corrupt one must
  // read as a malformed record, not size an allocation.
  for (std::uint64_t i = 0; i < n; ++i) {
    std::int64_t t = 0;
    if (!(in >> t)) return false;
    out->push_back(t);
  }
  std::string extra;
  return !(in >> extra);
}

}  // namespace

std::string serialize_result(const sim::SimResult& r) {
  std::string out;
  out.reserve(1024 + 48 * r.counters.size());
  out += kHeader;
  out += '\n';
  put_double(out, "hotspot_rcv_gbps", r.hotspot_rcv_gbps);
  put_double(out, "non_hotspot_rcv_gbps", r.non_hotspot_rcv_gbps);
  put_double(out, "all_rcv_gbps", r.all_rcv_gbps);
  put_double(out, "total_throughput_gbps", r.total_throughput_gbps);
  put_double(out, "jain_non_hotspot", r.jain_non_hotspot);
  put_double(out, "median_latency_us", r.median_latency_us);
  put_double(out, "p99_latency_us", r.p99_latency_us);
  put_u64(out, "fecn_marked", r.fecn_marked);
  put_u64(out, "cnps_sent", r.cnps_sent);
  put_u64(out, "becn_received", r.becn_received);
  put_i64(out, "delivered_bytes", r.delivered_bytes);
  put_u64(out, "events_executed", r.events_executed);
  put_u64(out, "delivered_packets", r.delivered_packets);
  {
    out += "events_by_kind " + std::to_string(r.events_by_kind.size());
    for (const std::uint64_t v : r.events_by_kind) {
      out += ' ';
      out += std::to_string(v);
    }
    out += '\n';
  }
  put_u64(out, "counters", r.counters.size());
  for (const auto& [name, value] : r.counters) {
    // std::map iterates name-sorted, so equal results serialize to
    // equal bytes. Counter names never contain whitespace.
    out += "c " + name + ' ' + std::to_string(value) + '\n';
  }
  {
    const sim::WorkloadResult& w = r.workload;
    out += std::string("workload ") + (w.ran ? "1" : "0") + ' ' + (w.completed ? "1" : "0") +
           ' ' + std::to_string(w.makespan) + ' ' + std::to_string(w.messages_completed) +
           ' ' + std::to_string(w.messages_total) + '\n';
    out += "rank_finish " + std::to_string(w.rank_finish.size());
    for (const core::Time t : w.rank_finish) out += ' ' + std::to_string(t);
    out += '\n';
    out += "phase_finish " + std::to_string(w.phase_finish.size());
    for (const core::Time t : w.phase_finish) out += ' ' + std::to_string(t);
    out += '\n';
  }
  out += kTrailer;
  out += '\n';
  return out;
}

bool parse_result(const std::string& text, sim::SimResult* result) {
  *result = sim::SimResult{};
  LineReader in(text);
  std::string line;
  if (!in.next(&line) || line != kHeader) return false;

  sim::SimResult r;
  if (!in.get_double("hotspot_rcv_gbps", &r.hotspot_rcv_gbps)) return false;
  if (!in.get_double("non_hotspot_rcv_gbps", &r.non_hotspot_rcv_gbps)) return false;
  if (!in.get_double("all_rcv_gbps", &r.all_rcv_gbps)) return false;
  if (!in.get_double("total_throughput_gbps", &r.total_throughput_gbps)) return false;
  if (!in.get_double("jain_non_hotspot", &r.jain_non_hotspot)) return false;
  if (!in.get_double("median_latency_us", &r.median_latency_us)) return false;
  if (!in.get_double("p99_latency_us", &r.p99_latency_us)) return false;
  if (!in.get_u64("fecn_marked", &r.fecn_marked)) return false;
  if (!in.get_u64("cnps_sent", &r.cnps_sent)) return false;
  if (!in.get_u64("becn_received", &r.becn_received)) return false;
  if (!in.get_i64("delivered_bytes", &r.delivered_bytes)) return false;
  if (!in.get_u64("events_executed", &r.events_executed)) return false;
  if (!in.get_u64("delivered_packets", &r.delivered_packets)) return false;
  {
    std::string value;
    if (!in.expect_named("events_by_kind", &value)) return false;
    std::istringstream slots(value);
    std::uint64_t n = 0;
    if (!(slots >> n) || n != r.events_by_kind.size()) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!(slots >> r.events_by_kind[i])) return false;
    }
  }
  std::uint64_t n_counters = 0;
  if (!in.get_u64("counters", &n_counters)) return false;
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    if (!in.next(&line)) return false;
    std::istringstream row(line);
    std::string tag;
    std::string name;
    std::int64_t value = 0;
    if (!(row >> tag >> name >> value) || tag != "c") return false;
    r.counters.emplace(std::move(name), value);
  }
  {
    std::string value;
    if (!in.expect_named("workload", &value)) return false;
    std::istringstream w(value);
    int ran = 0;
    int completed = 0;
    std::int64_t makespan = 0;
    if (!(w >> ran >> completed >> makespan >> r.workload.messages_completed >>
          r.workload.messages_total)) {
      return false;
    }
    r.workload.ran = ran != 0;
    r.workload.completed = completed != 0;
    r.workload.makespan = makespan;
    if (!in.expect_named("rank_finish", &value)) return false;
    if (!parse_time_list(value, &r.workload.rank_finish)) return false;
    if (!in.expect_named("phase_finish", &value)) return false;
    if (!parse_time_list(value, &r.workload.phase_finish)) return false;
  }
  if (!in.next(&line) || line != kTrailer) return false;
  if (in.next(&line)) return false;  // trailing garbage

  *result = std::move(r);
  return true;
}

}  // namespace ibsim::store
