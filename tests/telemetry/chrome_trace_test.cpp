// Chrome trace export: write a trace, then re-read and parse the file
// with a small strict JSON parser to prove the output is well-formed and
// the expected event records are present.

#include "telemetry/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/telemetry.hpp"

namespace ibsim::telemetry {
namespace {

/// Minimal recursive-descent JSON well-formedness checker. Does not build
/// a document tree — it validates syntax and lets the tests assert on the
/// raw text separately.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\') { pos_ += 2; continue; }
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class ChromeTraceTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per case: ctest runs each case as its own process, in
  // parallel under -j, so a shared name lets one case's TearDown
  // delete another's output.
  std::string path_ = ::testing::TempDir() + "/chrome_trace_test_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                      ".json";
};

TEST_F(ChromeTraceTest, EmptyTelemetryProducesValidJson) {
  Telemetry telemetry{TelemetryOptions{}};  // no tracer at all
  ASSERT_TRUE(write_chrome_trace(path_, telemetry));
  const std::string text = slurp(path_);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
}

TEST_F(ChromeTraceTest, EveryEventKindRendersAsValidJson) {
  TelemetryOptions options;
  options.trace_categories = kAllCategories;
  Telemetry telemetry{options};
  telemetry.set_track_name(0, "switch 0");
  telemetry.set_track_name(5, "hca 5 (node 2)");

  Tracer* tracer = telemetry.tracer();
  ASSERT_NE(tracer, nullptr);
  tracer->record(Category::kCc, EventKind::kFecnMark, 1000, 0, 2, 0, 8192);
  tracer->record(Category::kCc, EventKind::kBecnSent, 2000, 5, 0, 1, 7);
  tracer->record(Category::kCc, EventKind::kBecnDelivered, 3000, 5, 0, 1, 3);
  tracer->record(Category::kCc, EventKind::kCctiSet, 3500, 5, -1, -1, 12, 3);
  tracer->record(Category::kCc, EventKind::kThrottleStart, 3500, 5, -1, -1, 0, 3);
  tracer->record(Category::kCc, EventKind::kThrottleEnd, 9000, 5, -1, -1, 0, 3);
  tracer->record(Category::kQueues, EventKind::kCongestionEnter, 800, 0, 2, 0, 70000);
  tracer->record(Category::kQueues, EventKind::kCongestionExit, 4000, 0, 2, 0, 60000);
  tracer->record(Category::kCredits, EventKind::kCreditStallStart, 1200, 0, 3, -1, 0);
  tracer->record(Category::kCredits, EventKind::kCreditStallEnd, 2200, 0, 3, -1, 1000);
  tracer->record(Category::kArb, EventKind::kArbGrant, 5000, 0, 2, 0, 2048, 1230);

  ASSERT_TRUE(write_chrome_trace(path_, telemetry));
  const std::string text = slurp(path_);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;

  // Track metadata and one record of each phase type made it out.
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("switch 0"), std::string::npos);
  EXPECT_NE(text.find("hca 5 (node 2)"), std::string::npos);
  EXPECT_NE(text.find("\"FECN mark\""), std::string::npos);
  EXPECT_NE(text.find("\"CNP sent\""), std::string::npos);
  EXPECT_NE(text.find("\"BECN delivered\""), std::string::npos);
  EXPECT_NE(text.find("\"ccti\""), std::string::npos);
  EXPECT_NE(text.find("\"congested\""), std::string::npos);
  EXPECT_NE(text.find("\"credit stall\""), std::string::npos);
  EXPECT_NE(text.find("\"pkt\""), std::string::npos);
  EXPECT_NE(text.find("\"dropped_events\":0"), std::string::npos);
}

TEST_F(ChromeTraceTest, DroppedEventsAreReported) {
  TelemetryOptions options;
  options.trace_categories = kAllCategories;
  options.ring_capacity = 2;
  Telemetry telemetry{options};
  for (int i = 0; i < 5; ++i) {
    telemetry.tracer()->record(Category::kCc, EventKind::kFecnMark, i, 0, 0, 0, 0);
  }
  ASSERT_TRUE(write_chrome_trace(path_, telemetry));
  const std::string text = slurp(path_);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"dropped_events\":3"), std::string::npos);
}

TEST_F(ChromeTraceTest, UnwritablePathFails) {
  Telemetry telemetry{TelemetryOptions{}};
  EXPECT_FALSE(write_chrome_trace("/nonexistent-dir/trace.json", telemetry));
}

}  // namespace
}  // namespace ibsim::telemetry
