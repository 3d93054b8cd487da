#include "workload/spec.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/assert.hpp"

namespace ibsim::workload {
namespace {

/// Barrier iteration chaining used by several builders: the first ops of
/// iteration k depend on `prev` (the closing ops of iteration k-1) and
/// pay the per-iteration compute delay.
void chain_iteration(WorkloadOp* op, const std::vector<std::int32_t>& prev,
                     core::Time compute) {
  op->deps.insert(op->deps.end(), prev.begin(), prev.end());
  op->compute = compute;
}

}  // namespace

std::int32_t WorkloadSpec::phase_count() const {
  std::int32_t max_phase = -1;
  for (const WorkloadOp& op : ops) max_phase = std::max(max_phase, op.phase);
  return max_phase + 1;
}

std::string WorkloadSpec::validate() const {
  if (ranks < 1) return "workload needs at least one rank";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const WorkloadOp& op = ops[i];
    std::ostringstream at;
    at << "op " << i << ": ";
    if (op.src_rank < 0 || op.src_rank >= ranks) return at.str() + "src rank out of range";
    if (op.dst_rank < 0 || op.dst_rank >= ranks) return at.str() + "dst rank out of range";
    if (op.src_rank == op.dst_rank) return at.str() + "src and dst rank are the same";
    if (op.bytes <= 0) return at.str() + "bytes must be positive";
    if (op.phase < 0) return at.str() + "phase must be non-negative";
    if (static_cast<std::size_t>(op.phase) >= ops.size()) {
      at << "phase " << op.phase << " must be below the op count (" << ops.size() << ")";
      return at.str();
    }
    if (op.compute < 0) return at.str() + "compute must be non-negative";
    for (const std::int32_t d : op.deps) {
      if (d < 0 || static_cast<std::size_t>(d) >= i)
        return at.str() + "dependency must reference an earlier op";
    }
  }
  return "";
}

WorkloadSpec build_incast(const WorkloadParams& params) {
  IBSIM_ASSERT(params.ranks >= 2, "incast needs at least 2 ranks");
  WorkloadSpec spec;
  spec.name = "incast";
  spec.ranks = params.ranks;
  const std::int32_t senders = params.ranks - 1;
  std::vector<std::int32_t> prev;
  for (std::int32_t iter = 0; iter < params.iterations; ++iter) {
    std::vector<std::int32_t> round;
    round.reserve(static_cast<std::size_t>(senders));
    for (std::int32_t s = 1; s < params.ranks; ++s) {
      WorkloadOp op;
      op.src_rank = s;
      op.dst_rank = 0;
      op.bytes = params.message_bytes;
      op.phase = iter;
      if (iter > 0) chain_iteration(&op, prev, params.compute);
      round.push_back(static_cast<std::int32_t>(spec.ops.size()));
      spec.ops.push_back(std::move(op));
    }
    prev = std::move(round);
  }
  return spec;
}

WorkloadSpec build_ring_allreduce(const WorkloadParams& params) {
  IBSIM_ASSERT(params.ranks >= 2, "ring allreduce needs at least 2 ranks");
  const std::int32_t R = params.ranks;
  const std::int32_t steps = 2 * (R - 1);
  const std::int64_t chunk = std::max<std::int64_t>(1, params.message_bytes / R);
  WorkloadSpec spec;
  spec.name = "ring_allreduce";
  spec.ranks = R;
  // Op id layout: ((iter * steps) + step) * R + rank.
  const auto id_of = [R, steps](std::int32_t iter, std::int32_t step, std::int32_t rank) {
    return (iter * steps + step) * R + rank;
  };
  for (std::int32_t iter = 0; iter < params.iterations; ++iter) {
    for (std::int32_t step = 0; step < steps; ++step) {
      for (std::int32_t r = 0; r < R; ++r) {
        WorkloadOp op;
        op.src_rank = r;
        op.dst_rank = (r + 1) % R;
        op.bytes = chunk;
        op.phase = iter * steps + step;
        const std::int32_t left = (r - 1 + R) % R;
        if (step > 0) {
          // Rank r forwards chunk `step` only after it finished its own
          // previous send and received the chunk from its left neighbour.
          op.deps = {id_of(iter, step - 1, r), id_of(iter, step - 1, left)};
        } else if (iter > 0) {
          op.deps = {id_of(iter - 1, steps - 1, r), id_of(iter - 1, steps - 1, left)};
          op.compute = params.compute;
        }
        spec.ops.push_back(std::move(op));
      }
    }
  }
  return spec;
}

WorkloadSpec build_tree_allreduce(const WorkloadParams& params) {
  IBSIM_ASSERT(params.ranks >= 2, "tree allreduce needs at least 2 ranks");
  const std::int32_t R = params.ranks;
  std::int32_t levels = 0;
  while ((std::int32_t{1} << levels) < R) ++levels;
  WorkloadSpec spec;
  spec.name = "tree_allreduce";
  spec.ranks = R;
  // `delivered_to[r]` is the op that last handed the (partial or full)
  // result to rank r — the natural dependency of r's next send.
  std::vector<std::int32_t> delivered_to(static_cast<std::size_t>(R), -1);
  for (std::int32_t iter = 0; iter < params.iterations; ++iter) {
    std::vector<std::vector<std::int32_t>> received(static_cast<std::size_t>(R));
    // Reduce: at level l, rank i (i % 2^(l+1) == 2^l) sends to i - 2^l.
    for (std::int32_t level = 0; level < levels; ++level) {
      const std::int32_t half = std::int32_t{1} << level;
      for (std::int32_t i = half; i < R; i += 2 * half) {
        WorkloadOp op;
        op.src_rank = i;
        op.dst_rank = i - half;
        op.bytes = params.message_bytes;
        op.phase = iter * 2 * levels + level;
        // Wait for every child contribution already reduced into i, and
        // (on later iterations) for i's copy of the previous result.
        op.deps = received[static_cast<std::size_t>(i)];
        if (iter > 0 && delivered_to[static_cast<std::size_t>(i)] >= 0) {
          op.deps.push_back(delivered_to[static_cast<std::size_t>(i)]);
          op.compute = params.compute;
        }
        const auto id = static_cast<std::int32_t>(spec.ops.size());
        received[static_cast<std::size_t>(i - half)].push_back(id);
        spec.ops.push_back(std::move(op));
      }
    }
    // Broadcast mirrors the reduce: parent i - 2^l forwards down to i.
    for (std::int32_t level = levels - 1; level >= 0; --level) {
      const std::int32_t half = std::int32_t{1} << level;
      for (std::int32_t i = half; i < R; i += 2 * half) {
        const std::int32_t parent = i - half;
        WorkloadOp op;
        op.src_rank = parent;
        op.dst_rank = i;
        op.bytes = params.message_bytes;
        op.phase = iter * 2 * levels + levels + (levels - 1 - level);
        // The parent forwards once it holds the full reduction: either
        // the broadcast op that reached it, or (for the root) all the
        // reduce sends it absorbed.
        if (delivered_to[static_cast<std::size_t>(parent)] >= 0 && parent != 0) {
          op.deps = {delivered_to[static_cast<std::size_t>(parent)]};
        } else {
          op.deps = received[static_cast<std::size_t>(parent)];
        }
        const auto id = static_cast<std::int32_t>(spec.ops.size());
        delivered_to[static_cast<std::size_t>(i)] = id;
        spec.ops.push_back(std::move(op));
      }
    }
    // Ranks the broadcast never reaches (only the root) key the next
    // iteration off the reduce sends they received.
    if (!received[0].empty()) delivered_to[0] = received[0].back();
  }
  return spec;
}

WorkloadSpec build_all_to_all(const WorkloadParams& params) {
  IBSIM_ASSERT(params.ranks >= 2, "all-to-all needs at least 2 ranks");
  const std::int32_t R = params.ranks;
  WorkloadSpec spec;
  spec.name = "all_to_all";
  spec.ranks = R;
  // Op id layout: ((iter * (R-1)) + (shift-1)) * R + rank.
  const auto id_of = [R](std::int32_t iter, std::int32_t shift, std::int32_t rank) {
    return (iter * (R - 1) + (shift - 1)) * R + rank;
  };
  for (std::int32_t iter = 0; iter < params.iterations; ++iter) {
    for (std::int32_t shift = 1; shift < R; ++shift) {
      for (std::int32_t r = 0; r < R; ++r) {
        WorkloadOp op;
        op.src_rank = r;
        op.dst_rank = (r + shift) % R;
        op.bytes = params.message_bytes;
        op.phase = iter * (R - 1) + (shift - 1);
        if (shift > 1) {
          op.deps = {id_of(iter, shift - 1, r)};
        } else if (iter > 0) {
          op.deps = {id_of(iter - 1, R - 1, r)};
          op.compute = params.compute;
        }
        spec.ops.push_back(std::move(op));
      }
    }
  }
  return spec;
}

WorkloadSpec build_stencil(const WorkloadParams& params) {
  IBSIM_ASSERT(params.ranks >= 2, "stencil needs at least 2 ranks");
  const std::int32_t R = params.ranks;
  WorkloadSpec spec;
  spec.name = "stencil";
  spec.ranks = R;
  // Two ops per rank per iteration (right then left neighbour); with
  // R == 2 both land on the same peer, which is fine.
  const auto id_of = [R](std::int32_t iter, std::int32_t rank, std::int32_t dir) {
    return (iter * R + rank) * 2 + dir;
  };
  for (std::int32_t iter = 0; iter < params.iterations; ++iter) {
    for (std::int32_t r = 0; r < R; ++r) {
      for (std::int32_t dir = 0; dir < 2; ++dir) {
        WorkloadOp op;
        op.src_rank = r;
        op.dst_rank = dir == 0 ? (r + 1) % R : (r - 1 + R) % R;
        op.bytes = params.message_bytes;
        op.phase = iter;
        if (iter > 0) {
          // Rank r starts iteration k once it sent and received both
          // halos of iteration k-1.
          const std::int32_t right = (r + 1) % R;
          const std::int32_t left = (r - 1 + R) % R;
          op.deps = {id_of(iter - 1, r, 0), id_of(iter - 1, r, 1),
                     id_of(iter - 1, left, 0), id_of(iter - 1, right, 1)};
          std::sort(op.deps.begin(), op.deps.end());
          op.deps.erase(std::unique(op.deps.begin(), op.deps.end()), op.deps.end());
          op.compute = params.compute;
        }
        spec.ops.push_back(std::move(op));
      }
    }
  }
  return spec;
}

WorkloadSpec build_idle(const WorkloadParams& params) {
  WorkloadSpec spec;
  spec.name = "idle";
  spec.ranks = std::max<std::int32_t>(1, params.ranks);
  return spec;
}

namespace {

constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

/// Reads the whole of `tok` as a decimal integer in [lo, hi]. Returns ""
/// with `*out` set, or what is wrong in config_fields.cpp's words.
std::string read_int(const std::string& key, const std::string& tok, std::int64_t lo,
                     std::int64_t hi, std::int64_t* out) {
  const char* last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), last, *out);
  if (ptr != last || ec == std::errc::invalid_argument) {
    return "'" + key + "' needs an integer value";
  }
  if (ec != std::errc{} || *out < lo || *out > hi) {
    return "value " + tok + " out of range for '" + key + "' (" + std::to_string(lo) + ".." +
           std::to_string(hi) + ")";
  }
  return "";
}

std::string fail(int line_no, const std::string& what) {
  std::ostringstream out;
  out << "line " << line_no << ": " << what;
  return out.str();
}

}  // namespace

std::string parse_workload_text(const std::string& text, WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.name = "custom";
  bool ranks_seen = false;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream words(line);
    std::string word;
    std::vector<std::string> tokens;
    while (words >> word) tokens.push_back(word);
    if (tokens.empty()) continue;
    if (tokens[0] == "name") {
      if (tokens.size() != 2) return fail(line_no, "expected: name <identifier>");
      spec.name = tokens[1];
    } else if (tokens[0] == "ranks") {
      if (tokens.size() != 2) return fail(line_no, "expected: ranks <positive integer>");
      std::int64_t value = 0;
      if (std::string err = read_int("ranks", tokens[1], 1, kInt32Max, &value); !err.empty())
        return fail(line_no, err);
      spec.ranks = static_cast<std::int32_t>(value);
      ranks_seen = true;
    } else if (tokens[0] == "op") {
      if (!ranks_seen) return fail(line_no, "'ranks' must come before the first op");
      WorkloadOp op;
      bool src_seen = false;
      bool dst_seen = false;
      bool bytes_seen = false;
      for (std::size_t i = 1; i + 1 < tokens.size(); i += 2) {
        const std::string& key = tokens[i];
        const std::string& value = tokens[i + 1];
        std::int64_t num = 0;
        if (key == "after") {
          std::istringstream ids(value);
          std::string id_tok;
          while (std::getline(ids, id_tok, ',')) {
            const auto last_op = static_cast<std::int64_t>(spec.ops.size()) - 1;
            if (!read_int(key, id_tok, 0, last_op, &num).empty())
              return fail(line_no, "'after' must list earlier op numbers");
            op.deps.push_back(static_cast<std::int32_t>(num));
          }
          continue;
        }
        // The values each attribute's field can hold; validate() checks
        // the rest (src and dst below ranks, bytes positive).
        std::int64_t lo = 0;
        std::int64_t hi = kInt32Max;
        if (key == "bytes") {
          lo = std::numeric_limits<std::int64_t>::min();
          hi = std::numeric_limits<std::int64_t>::max();
        } else if (key == "phase") {
          hi = kInt32Max - 1;  // phase_count() is the largest phase plus one
        } else if (key == "compute_us") {
          hi = std::numeric_limits<core::Time>::max() / core::kMicrosecond;
        } else if (key != "src" && key != "dst") {
          return fail(line_no, "unknown op attribute '" + key + "'");
        }
        if (std::string err = read_int(key, value, lo, hi, &num); !err.empty())
          return fail(line_no, err);
        if (key == "src") {
          op.src_rank = static_cast<std::int32_t>(num);
          src_seen = true;
        } else if (key == "dst") {
          op.dst_rank = static_cast<std::int32_t>(num);
          dst_seen = true;
        } else if (key == "bytes") {
          op.bytes = num;
          bytes_seen = true;
        } else if (key == "phase") {
          op.phase = static_cast<std::int32_t>(num);
        } else {
          op.compute = num * core::kMicrosecond;
        }
      }
      if (tokens.size() % 2 == 0)
        return fail(line_no, "op attribute '" + tokens.back() + "' is missing a value");
      if (!src_seen || !dst_seen || !bytes_seen)
        return fail(line_no, "op needs at least src, dst and bytes");
      spec.ops.push_back(std::move(op));
    } else {
      return fail(line_no, "unknown directive '" + tokens[0] + "'");
    }
  }
  if (!ranks_seen) return "workload file never sets 'ranks'";
  const std::string invalid = spec.validate();
  if (!invalid.empty()) return invalid;
  *out = std::move(spec);
  return "";
}

std::string load_workload_file(const std::string& path, WorkloadSpec* out) {
  std::ifstream in(path);
  if (!in) return "cannot open workload file: " + path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_workload_text(buffer.str(), out);
}

}  // namespace ibsim::workload
