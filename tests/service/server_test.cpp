#include "service/server.hpp"

#include "service/json.hpp"
#include "service/socket.hpp"
#include "store/result_store.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <filesystem>
#include <string>
#include <vector>

namespace ibsim::service {
namespace {

namespace fs = std::filesystem;

/// One protocol client: send a line, collect events until `final_event`.
class Client {
 public:
  /// A read that waits this long fails the roundtrip instead of hanging
  /// until ctest's timeout.
  static constexpr time_t kReadTimeoutSeconds = 60;

  explicit Client(const std::string& socket_path) {
    std::string error;
    ok_ = connect_unix(socket_path, &fd_, &error);
    EXPECT_TRUE(ok_) << error;
    if (!ok_) return;
    const timeval timeout{kReadTimeoutSeconds, 0};
    EXPECT_EQ(::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  }

  [[nodiscard]] bool ok() const { return ok_; }

  /// Returns every event received, last one being `final_event` (or
  /// "error"). Fails the test on disconnect or a read timeout.
  std::vector<Json> roundtrip(const std::string& request, const std::string& final_event) {
    std::vector<Json> events;
    EXPECT_TRUE(write_line(fd_.get(), request));
    std::string line;
    while (read_line(fd_.get(), &buffer_, &line)) {
      std::string error;
      events.push_back(Json::parse(line, &error));
      EXPECT_TRUE(error.empty()) << line;
      const Json* kind = events.back().find("event");
      EXPECT_NE(kind, nullptr) << line;
      if (kind == nullptr) return events;
      if (kind->as_string() == final_event || kind->as_string() == "error") return events;
    }
    ADD_FAILURE() << "no '" << final_event << "' event: the daemon closed the connection or "
                  << "sent nothing for " << kReadTimeoutSeconds << " s";
    return events;
  }

 private:
  Fd fd_;
  std::string buffer_;
  bool ok_ = false;
};

sim::SimConfig tiny_base() {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::SingleSwitch;
  config.single_switch_nodes = 6;
  config.sim_time = 200 * core::kMicrosecond;
  config.warmup = 0;
  config.scenario.n_hotspots = 1;
  return config;
}

constexpr const char* kSubmit =
    R"({"op":"submit","name":"t","axes":{"seed":[1,2]}})";

class SweepServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    socket_path_ =
        (fs::path(::testing::TempDir()) / (std::string("ibsim_srv_") + info->name() + ".sock"))
            .string();
    store_dir_ = (fs::path(::testing::TempDir()) /
                  (std::string("ibsim_srv_store_") + info->name()))
                     .string();
    fs::remove_all(store_dir_);

    SweepServer::Options options;
    options.socket_path = socket_path_;
    options.base_config = tiny_base();
    options.service.store_dir = store_dir_;
    options.service.threads = 2;
    server_ = std::make_unique<SweepServer>(std::move(options));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  void TearDown() override {
    server_->stop();
    server_.reset();
    fs::remove_all(store_dir_);
    store::StoreRegistry::instance().clear();
  }

  std::string socket_path_;
  std::string store_dir_;
  std::unique_ptr<SweepServer> server_;
};

TEST_F(SweepServerTest, PingPong) {
  Client client(socket_path_);
  ASSERT_TRUE(client.ok());
  const auto events = client.roundtrip(R"({"op":"ping"})", "pong");
  ASSERT_EQ(events.size(), 1u);
}

TEST_F(SweepServerTest, SubmitStreamsCellsThenServesWarmFromStore) {
  Client client(socket_path_);
  ASSERT_TRUE(client.ok());

  const auto cold = client.roundtrip(kSubmit, "done");
  // accepted + 2 cells + done.
  ASSERT_EQ(cold.size(), 4u);
  EXPECT_EQ(cold[0].find("event")->as_string(), "accepted");
  EXPECT_EQ(cold[0].find("cells")->as_int(), 2);
  for (std::size_t i = 1; i <= 2; ++i) {
    EXPECT_EQ(cold[i].find("event")->as_string(), "cell");
    EXPECT_FALSE(cold[i].find("cached")->as_bool());
    EXPECT_GT(cold[i].find("total_throughput_gbps")->as_double(), 0.0);
    EXPECT_EQ(cold[i].find("key")->as_string().size(), 64u);
  }
  EXPECT_EQ(cold[3].find("store_hits")->as_int(), 0);

  // Same sweep again — all store hits, byte-identical metric values.
  const auto warm = client.roundtrip(kSubmit, "done");
  ASSERT_EQ(warm.size(), 4u);
  for (std::size_t i = 1; i <= 2; ++i) {
    EXPECT_TRUE(warm[i].find("cached")->as_bool());
  }
  EXPECT_EQ(warm[3].find("store_hits")->as_int(), 2);
  // Match cells by key: completion order of the cold pass is arbitrary.
  for (std::size_t i = 1; i <= 2; ++i) {
    for (std::size_t j = 1; j <= 2; ++j) {
      if (cold[i].find("key")->as_string() != warm[j].find("key")->as_string()) continue;
      EXPECT_EQ(cold[i].find("total_throughput_gbps")->number_text(),
                warm[j].find("total_throughput_gbps")->number_text());
    }
  }
}

TEST_F(SweepServerTest, TwoClientsShareTheDaemon) {
  Client first(socket_path_);
  Client second(socket_path_);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  (void)first.roundtrip(kSubmit, "done");
  // The second client's identical sweep is served from the store the
  // first client's run populated.
  const auto events = second.roundtrip(kSubmit, "done");
  ASSERT_EQ(events.size(), 4u);
  EXPECT_TRUE(events[1].find("cached")->as_bool());
  EXPECT_TRUE(events[2].find("cached")->as_bool());

  const auto status = second.roundtrip(R"({"op":"status"})", "status");
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].find("jobs")->elements().size(), 2u);
}

TEST_F(SweepServerTest, DrainBlocksUntilIdle) {
  Client client(socket_path_);
  ASSERT_TRUE(client.ok());
  (void)client.roundtrip(kSubmit, "done");
  const auto events = client.roundtrip(R"({"op":"drain"})", "drained");
  ASSERT_EQ(events.size(), 1u);
}

TEST_F(SweepServerTest, ProtocolErrorsKeepConnectionOpen) {
  Client client(socket_path_);
  ASSERT_TRUE(client.ok());
  auto events = client.roundtrip("this is not json", "error");
  ASSERT_EQ(events.size(), 1u);
  events = client.roundtrip(R"({"op":"florble"})", "error");
  ASSERT_EQ(events.size(), 1u);
  // Bad config keys surface the config parser's diagnostic.
  events = client.roundtrip(R"({"op":"submit","name":"bad","base":{"hotspost":1}})", "error");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("message")->as_string().find("hotspost"), std::string::npos);
  // So does a cell that cannot be built, before it is accepted: 8
  // hotspots on 4 nodes.
  events = client.roundtrip(
      R"({"op":"submit","name":"bad","base":{"topology":"single","single_nodes":4,)"
      R"("hotspots":8,"sim_time_us":100}})",
      "error");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("message")->as_string().find("cell 'bad'"), std::string::npos);
  // A switch wider than 64 ports is refused the same way, not aborted on.
  events = client.roundtrip(
      R"({"op":"submit","name":"wide","base":{"topology":"single","single_nodes":65,)"
      R"("sim_time_us":10}})",
      "error");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("message")->as_string().find("at most 64 ports"), std::string::npos);
  // So is a lane count other than 1 or 2.
  events = client.roundtrip(
      R"({"op":"submit","name":"lanes","base":{"n_vls":3,"sim_time_us":10}})", "error");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("message")->as_string().find("n_vls must be 1"), std::string::npos);
  // A product of axes too large to expand (10^12 cells) is refused with
  // its count, not allocated.
  std::string axis = "[1";
  for (int v = 2; v <= 1000; ++v) {
    axis += ',';
    axis += std::to_string(v);
  }
  axis += "]";
  events = client.roundtrip(R"({"op":"submit","name":"huge","axes":{"seed":)" + axis +
                                R"(,"sim_time_us":)" + axis + R"(,"warmup_us":)" + axis +
                                R"(,"hotspots":)" + axis + "}}",
                            "error");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("message")->as_string().find("1000000000000 cells"),
            std::string::npos);
  // Still alive.
  events = client.roundtrip(R"({"op":"ping"})", "pong");
  ASSERT_EQ(events.size(), 1u);
}

TEST_F(SweepServerTest, ShutdownSaysBye) {
  Client client(socket_path_);
  ASSERT_TRUE(client.ok());
  const auto events = client.roundtrip(R"({"op":"shutdown"})", "bye");
  ASSERT_EQ(events.size(), 1u);
  server_->wait();  // returns immediately once shutdown was requested
}

}  // namespace
}  // namespace ibsim::service
