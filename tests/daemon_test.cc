// Tests for fixyd (src/daemon): the request/response protocol codecs,
// the CRC frame codec they travel in (shard/wire.h), byte-identity
// between daemon rank responses and the direct engine pipeline
// (including responses over the 1 MiB request cap), concurrent clients,
// admission control (queue overload and per-request deadlines),
// frame-corruption resilience (a seeded DocumentCorruptor-style sweep
// over truncation, CRC flips, bad type bytes, and oversized lengths),
// per-scene revalidation of resident datasets, the request-phase timers,
// stale-socket recovery, and graceful shutdown semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define FIXY_DAEMON_TEST_HAVE_SOCKETS 1
#endif

#include "common/file_util.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/proposal_io.h"
#include "core/ranker.h"
#include "io/fxb.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "io/scene_io.h"
#include "json/json.h"
#include "shard/wire.h"
#include "sim/generate.h"

namespace fixy::daemon {
namespace {

// ------------------------------------------------------------- protocol

TEST(DaemonProtocolTest, RequestRoundTrip) {
  Request request;
  request.id = 42;
  request.kind = RequestKind::kRank;
  request.data_dir = "/data/scenes";
  request.scene_index = 3;
  request.scene = "scene_003";
  request.apps = {"model-errors", "missing-obs"};
  request.top = 7;
  request.deadline_ms = 250;
  request.model_out = "/tmp/model.json";

  const Result<Request> round = RequestFromJson(RequestToJson(request));
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->id, request.id);
  EXPECT_EQ(round->kind, request.kind);
  EXPECT_EQ(round->data_dir, request.data_dir);
  EXPECT_EQ(round->scene_index, request.scene_index);
  EXPECT_EQ(round->scene, request.scene);
  EXPECT_EQ(round->apps, request.apps);
  EXPECT_EQ(round->top, request.top);
  EXPECT_EQ(round->deadline_ms, request.deadline_ms);
  EXPECT_EQ(round->model_out, request.model_out);
}

TEST(DaemonProtocolTest, ResponseRoundTripIncludingErrorStatus) {
  Response response;
  response.id = 9;
  response.status = Status::Unavailable("queue full");
  json::Object result;
  result["scenes"] = json::Value(static_cast<uint64_t>(12));
  response.result = json::Value(std::move(result));

  const Result<Response> round = ResponseFromJson(ResponseToJson(response));
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->id, response.id);
  EXPECT_EQ(round->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(round->status.message(), "queue full");
  EXPECT_EQ(round->result.AsObject().at("scenes").AsDouble(), 12.0);
}

TEST(DaemonProtocolTest, EveryRequestKindRoundTripsByName) {
  for (const RequestKind kind :
       {RequestKind::kRank, RequestKind::kRankDataset, RequestKind::kLearn,
        RequestKind::kStatus, RequestKind::kShutdown}) {
    const Result<RequestKind> round =
        RequestKindFromString(RequestKindToString(kind));
    ASSERT_TRUE(round.ok()) << round.status();
    EXPECT_EQ(*round, kind);
  }
  EXPECT_FALSE(RequestKindFromString("reboot").ok());
}

TEST(DaemonProtocolTest, RequestFromJsonRejectsHostileInput) {
  // Not an object.
  EXPECT_FALSE(RequestFromJson(json::Value(3.0)).ok());
  // Missing kind.
  EXPECT_FALSE(RequestFromJson(json::Value(json::Object{})).ok());
  // Unknown kind.
  json::Object bad_kind;
  bad_kind["kind"] = json::Value(std::string("explode"));
  EXPECT_FALSE(RequestFromJson(json::Value(std::move(bad_kind))).ok());
  // Wrong type for apps.
  json::Object bad_apps;
  bad_apps["kind"] = json::Value(std::string("status"));
  bad_apps["apps"] = json::Value(std::string("model-errors"));
  EXPECT_FALSE(RequestFromJson(json::Value(std::move(bad_apps))).ok());
  // A top beyond int range is rejected, naming the bound, instead of
  // wrapping: 2^32 used to become 0 (an empty worklist) and 2^31 negative.
  for (const int64_t top : {int64_t{4294967296}, int64_t{2147483648}}) {
    json::Object huge_top;
    huge_top["kind"] = json::Value(std::string("rank"));
    huge_top["top"] = json::Value(top);
    const Result<Request> parsed =
        RequestFromJson(json::Value(std::move(huge_top)));
    ASSERT_FALSE(parsed.ok()) << top;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("2147483647"),
              std::string::npos)
        << parsed.status();
  }
  json::Object max_top;
  max_top["kind"] = json::Value(std::string("rank"));
  max_top["top"] = json::Value(int64_t{2147483647});
  const Result<Request> at_bound =
      RequestFromJson(json::Value(std::move(max_top)));
  ASSERT_TRUE(at_bound.ok()) << at_bound.status();
  EXPECT_EQ(at_bound->top, 2147483647);
  // A number no int64_t holds, or a fraction, is rejected by name before
  // any cast: casting 1e300 or 1e19 to int64_t is undefined.
  const std::pair<const char*, double> not_int64[] = {
      {"top", 1e300}, {"id", 1e19}, {"scene_index", 2.5}};
  for (const auto& [key, number] : not_int64) {
    json::Object request;
    request["kind"] = json::Value(std::string("rank"));
    request[key] = json::Value(number);
    const Result<Request> parsed =
        RequestFromJson(json::Value(std::move(request)));
    ASSERT_FALSE(parsed.ok()) << key;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find(key), std::string::npos)
        << parsed.status();
  }
}

// ----------------------------------------------------------- wire codec

TEST(DaemonWireTest, FramesRoundTripThroughArbitraryChunking) {
  std::string stream;
  stream += shard::EncodeFrame(shard::FrameType::kRequest,
                               "{\"kind\": \"status\"}");
  stream += shard::EncodeFrame(shard::FrameType::kResponse, "");
  stream += shard::EncodeFrame(
      shard::FrameType::kError,
      shard::EncodeErrorPayload(Status::IoError("disk gone")));
  stream += shard::EncodeFrame(shard::FrameType::kResponse, "{\"id\": 7}");

  // Feed the stream one byte at a time — the harshest chunking a
  // non-blocking socket can produce.
  shard::FrameParser parser(kMaxRequestPayload);
  std::vector<shard::Frame> frames;
  for (const char byte : stream) {
    for (shard::Frame& frame : parser.Consume(std::string_view(&byte, 1))) {
      frames.push_back(std::move(frame));
    }
  }
  EXPECT_FALSE(parser.corrupt());
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, shard::FrameType::kRequest);
  EXPECT_EQ(frames[0].payload, "{\"kind\": \"status\"}");
  EXPECT_EQ(frames[1].type, shard::FrameType::kResponse);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_EQ(frames[2].type, shard::FrameType::kError);
  const Status error = shard::DecodeErrorPayload(frames[2].payload);
  EXPECT_EQ(error.code(), StatusCode::kIoError);
  EXPECT_EQ(error.message(), "disk gone");
  EXPECT_EQ(frames[3].type, shard::FrameType::kResponse);
  EXPECT_EQ(frames[3].payload, "{\"id\": 7}");
}

TEST(DaemonWireTest, CorruptionPoisonsTheStream) {
  std::string frame = shard::EncodeFrame(shard::FrameType::kRequest, "{}");
  frame[frame.size() - 1] ^= 0x01;  // break the CRC
  shard::FrameParser parser(kMaxRequestPayload);
  EXPECT_TRUE(parser.Consume(frame).empty());
  EXPECT_TRUE(parser.corrupt());
  // Nothing after the violation is ever surfaced.
  EXPECT_TRUE(
      parser.Consume(shard::EncodeFrame(shard::FrameType::kResponse, ""))
          .empty());

  // Type bytes 1-4 (the retired worker pipe's) are unknown.
  for (int type = 1; type <= 4; ++type) {
    std::string retired = shard::EncodeFrame(shard::FrameType::kResponse, "");
    retired[0] = static_cast<char>(type);
    shard::FrameParser fresh(UINT32_MAX);
    EXPECT_TRUE(fresh.Consume(retired).empty()) << "type " << type;
    EXPECT_TRUE(fresh.corrupt()) << "type " << type;
  }

  // The payload cap is the parser's own: the same frame over fixyd's
  // request cap poisons a capped parser and parses under a client's.
  const std::string big = shard::EncodeFrame(
      shard::FrameType::kResponse, std::string(kMaxRequestPayload + 1, 'x'));
  shard::FrameParser capped(kMaxRequestPayload);
  EXPECT_TRUE(capped.Consume(big).empty());
  EXPECT_TRUE(capped.corrupt());
  shard::FrameParser uncapped(UINT32_MAX);
  const std::vector<shard::Frame> frames = uncapped.Consume(big);
  EXPECT_FALSE(uncapped.corrupt());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload.size(), kMaxRequestPayload + 1);
}

#if defined(FIXY_DAEMON_TEST_HAVE_SOCKETS)

// -------------------------------------------------------------- fixture

// One dataset + learned model per suite; every test starts its own
// daemon on its own socket path. Reference proposal strings are computed
// with the direct engine pipeline (DirectorySceneSource, one thread) —
// the daemon's responses must match them byte for byte.
class DaemonTest : public ::testing::Test {
 protected:
  static constexpr size_t kScenes = 5;
  static constexpr int kTop = 10;

  static void SetUpTestSuite() {
    namespace fs = std::filesystem;
    base_dir_ = new std::string(
        (fs::temp_directory_path() /
         ("fixy_daemon_test_" + std::to_string(::getpid())))
            .string());
    fs::remove_all(*base_dir_);
    fs::create_directories(*base_dir_);
    data_dir_ = new std::string(*base_dir_ + "/data");
    train_dir_ = new std::string(*base_dir_ + "/train");
    model_path_ = new std::string(*base_dir_ + "/model.fxm");

    sim::SimProfile profile = sim::LyftLikeProfile();
    profile.world.duration_seconds = 2.0;
    profile.world.mean_object_count = 6.0;
    const sim::GeneratedDataset training =
        sim::GenerateDataset(profile, "daemon_train", 3, 571);
    Fixy trainer;
    ASSERT_TRUE(trainer.Learn(training.dataset).ok());
    ASSERT_TRUE(trainer.SaveModel(*model_path_).ok());
    ASSERT_TRUE(io::SaveDataset(training.dataset, *train_dir_).ok());

    const sim::GeneratedDataset ranking =
        sim::GenerateDataset(profile, "daemon_rank", kScenes, 229);
    ASSERT_TRUE(io::SaveDataset(ranking.dataset, *data_dir_).ok());
    scene0_name_ = new std::string(ranking.dataset.scenes.front().name());

    // Reference: the one-shot pipeline the CLI runs — every registered
    // application, one pass, per-scene top-k, pretty-printed proposal
    // documents.
    Fixy ranker;
    ASSERT_TRUE(ranker.LoadModel(*model_path_).ok());
    apps_ = new std::vector<std::string>(ranker.applications().names());
    auto source = io::DirectorySceneSource::Open(*data_dir_);
    ASSERT_TRUE(source.ok()) << source.status();
    BatchOptions batch;
    batch.num_threads = 1;
    const Result<MultiAppReport> report =
        ranker.RankDatasetStreaming(*source, *apps_, batch);
    ASSERT_TRUE(report.ok()) << report.status();
    expected_ = new std::map<std::string, std::string>();
    scene0_expected_ = new std::map<std::string, std::string>();
    for (size_t a = 0; a < report->apps.size(); ++a) {
      std::vector<ErrorProposal> all;
      for (const SceneOutcome& outcome : report->reports[a].outcomes) {
        ASSERT_TRUE(outcome.ok()) << outcome.status;
        const std::vector<ErrorProposal> top =
            TopK(outcome.proposals, static_cast<size_t>(kTop));
        all.insert(all.end(), top.begin(), top.end());
      }
      (*expected_)[report->apps[a]] =
          json::Write(ProposalsToJson(all), /*pretty=*/true);
      (*scene0_expected_)[report->apps[a]] = json::Write(
          ProposalsToJson(TopK(report->reports[a].outcomes.front().proposals,
                               static_cast<size_t>(kTop))),
          /*pretty=*/true);
    }
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*base_dir_);
    delete base_dir_;
    delete data_dir_;
    delete train_dir_;
    delete model_path_;
    delete scene0_name_;
    delete apps_;
    delete expected_;
    delete scene0_expected_;
    base_dir_ = data_dir_ = train_dir_ = model_path_ = scene0_name_ = nullptr;
    apps_ = nullptr;
    expected_ = scene0_expected_ = nullptr;
  }

  // A daemon running on its own thread. Stop() (or the destructor)
  // requests a drain and joins; tests that shut the daemon down through
  // the protocol just Join().
  class ServerRunner {
   public:
    explicit ServerRunner(ServerOptions options) {
      Result<std::unique_ptr<FixydServer>> created =
          FixydServer::Create(std::move(options));
      if (!created.ok()) {
        create_status_ = created.status();
        return;
      }
      server_ = std::move(*created);
      thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
    }
    ~ServerRunner() { Stop(); }

    bool ok() const { return server_ != nullptr; }
    const Status& create_status() const { return create_status_; }
    FixydServer& server() { return *server_; }

    void Stop() {
      if (!thread_.joinable()) return;
      server_->RequestStop();
      thread_.join();
    }
    void Join() {
      if (thread_.joinable()) thread_.join();
    }
    const Status& serve_status() const { return serve_status_; }

   private:
    Status create_status_;
    Status serve_status_;
    std::unique_ptr<FixydServer> server_;
    std::thread thread_;
  };

  std::string SocketPath(const std::string& tag) {
    return *base_dir_ + "/" + tag + ".sock";
  }

  static ServerOptions BaseOptions(const std::string& socket_path) {
    ServerOptions options;
    options.socket_path = socket_path;
    options.model_path = *model_path_;
    options.worker_threads = 2;
    options.rank_threads = 1;
    return options;
  }

  static Result<Response> Call(const std::string& socket_path,
                               const Request& request) {
    FIXY_ASSIGN_OR_RETURN(FixydClient client, FixydClient::Connect(socket_path));
    return client.Call(request);
  }

  static Request RankDatasetRequest() {
    Request request;
    request.kind = RequestKind::kRankDataset;
    request.data_dir = *data_dir_;
    request.top = kTop;
    return request;
  }

  static Request RankSceneRequest(const std::string& dir, int64_t index) {
    Request request;
    request.kind = RequestKind::kRank;
    request.data_dir = dir;
    request.scene_index = index;
    request.top = kTop;
    return request;
  }

  // The daemon's metrics snapshot, read through a status request.
  static Result<json::Value> StatusMetrics(const std::string& socket_path) {
    Request request;
    request.kind = RequestKind::kStatus;
    FIXY_ASSIGN_OR_RETURN(const Response response, Call(socket_path, request));
    FIXY_RETURN_IF_ERROR(response.status);
    return response.result.AsObject().at("metrics");
  }

  static std::string* base_dir_;
  static std::string* data_dir_;
  static std::string* train_dir_;
  static std::string* model_path_;
  static std::string* scene0_name_;
  static std::vector<std::string>* apps_;
  // app -> pretty proposal document, whole dataset / scene 0 only.
  static std::map<std::string, std::string>* expected_;
  static std::map<std::string, std::string>* scene0_expected_;
};

std::string* DaemonTest::base_dir_ = nullptr;
std::string* DaemonTest::data_dir_ = nullptr;
std::string* DaemonTest::train_dir_ = nullptr;
std::string* DaemonTest::model_path_ = nullptr;
std::string* DaemonTest::scene0_name_ = nullptr;
std::vector<std::string>* DaemonTest::apps_ = nullptr;
std::map<std::string, std::string>* DaemonTest::expected_ = nullptr;
std::map<std::string, std::string>* DaemonTest::scene0_expected_ = nullptr;

// ------------------------------------------------------------ responses

TEST_F(DaemonTest, StatusReportsModelAndApplications) {
  ServerRunner runner(BaseOptions(SocketPath("status")));
  ASSERT_TRUE(runner.ok()) << runner.create_status();

  Request request;
  request.kind = RequestKind::kStatus;
  const Result<Response> response = Call(runner.server().socket_path(), request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  const json::Object& result = response->result.AsObject();
  EXPECT_TRUE(result.at("model_loaded").AsBool());
  EXPECT_GT(result.at("pid").AsDouble(), 0.0);
  std::vector<std::string> reported;
  for (const json::Value& app : result.at("apps").AsArray()) {
    reported.push_back(app.AsString());
  }
  EXPECT_EQ(reported, *apps_);
  // The metrics snapshot carries the stable daemon.* schema.
  const json::Object& metrics = result.at("metrics").AsObject();
  const json::Object& counters = metrics.at("counters").AsObject();
  EXPECT_TRUE(counters.count("daemon.requests"));
  EXPECT_TRUE(counters.count("daemon.rejected"));
}

TEST_F(DaemonTest, RankDatasetMatchesDirectEngineByteForByte) {
  ServerRunner runner(BaseOptions(SocketPath("rank_dataset")));
  ASSERT_TRUE(runner.ok()) << runner.create_status();

  const Result<Response> response =
      Call(runner.server().socket_path(), RankDatasetRequest());
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  const json::Object& result = response->result.AsObject();
  EXPECT_EQ(result.at("scenes").AsDouble(), static_cast<double>(kScenes));
  const json::Object& proposals = result.at("proposals").AsObject();
  ASSERT_EQ(proposals.size(), expected_->size());
  for (const auto& [app, text] : *expected_) {
    ASSERT_TRUE(proposals.count(app)) << app;
    EXPECT_EQ(proposals.at(app).AsString(), text)
        << "daemon proposals for " << app
        << " differ from the direct engine pipeline";
  }
}

// Responses carry whole worklists and are not held to the 1 MiB request
// cap: an untruncated rank-dataset over 16 full-size scenes reaches
// the client intact, each app's string byte-identical to what
// SaveProposals writes in process.
TEST_F(DaemonTest, RankDatasetResponseOverOneMebibyteReachesTheClient) {
  const std::string big_dir = *base_dir_ + "/big";
  const sim::GeneratedDataset big = sim::GenerateDataset(
      sim::LyftLikeProfile(), "daemon_big", 16, 7);
  ASSERT_TRUE(io::SaveDataset(big.dataset, big_dir).ok());
  constexpr int kUntruncated = 1000000;

  Fixy ranker;
  ASSERT_TRUE(ranker.LoadModel(*model_path_).ok());
  auto source = io::DirectorySceneSource::Open(big_dir);
  ASSERT_TRUE(source.ok()) << source.status();
  const Result<MultiAppReport> report =
      ranker.RankDatasetStreaming(*source, *apps_);
  ASSERT_TRUE(report.ok()) << report.status();
  std::map<std::string, std::string> expected;
  size_t expected_bytes = 0;
  for (size_t a = 0; a < report->apps.size(); ++a) {
    std::vector<ErrorProposal> all;
    for (const SceneOutcome& outcome : report->reports[a].outcomes) {
      ASSERT_TRUE(outcome.ok()) << outcome.status;
      const std::vector<ErrorProposal> top =
          TopK(outcome.proposals, static_cast<size_t>(kUntruncated));
      all.insert(all.end(), top.begin(), top.end());
    }
    const std::string path = big_dir + "/expected.json";
    ASSERT_TRUE(SaveProposals(all, path).ok());
    std::string& text = expected[report->apps[a]];
    ASSERT_TRUE(ReadFileInto(path, &text).ok());
    expected_bytes += text.size();
  }
  ASSERT_GT(expected_bytes, size_t{kMaxRequestPayload})
      << "the dataset no longer produces a response over the request cap";

  ServerRunner runner(BaseOptions(SocketPath("rank_big")));
  ASSERT_TRUE(runner.ok()) << runner.create_status();
  Request request;
  request.kind = RequestKind::kRankDataset;
  request.data_dir = big_dir;
  request.top = kUntruncated;
  const Result<Response> response =
      Call(runner.server().socket_path(), request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  const json::Object& proposals =
      response->result.AsObject().at("proposals").AsObject();
  ASSERT_EQ(proposals.size(), expected.size());
  for (const auto& [app, text] : expected) {
    ASSERT_TRUE(proposals.count(app)) << app;
    EXPECT_EQ(proposals.at(app).AsString(), text)
        << "daemon proposals for " << app << " differ from SaveProposals";
  }
}

// fixyd shares `fixy_cli rank`'s source policy: a dataset.fxb rejected at
// open (a bad magic) falls back to the JSON files instead of failing the
// request, and the answer is what SaveProposals writes in process.
TEST_F(DaemonTest, RankFallsBackToJsonOnBadMagicCache) {
  namespace fs = std::filesystem;
  const std::string dir = *base_dir_ + "/bad_magic";
  fs::copy(*data_dir_, dir, fs::copy_options::recursive);
  // Junk longer than the 40-byte header, so the magic check rejects it.
  std::ofstream(io::FxbCachePath(dir), std::ios::binary)
      << std::string(256, 'x');
  ASSERT_EQ(io::OpenFreshCache(dir).status().code(),
            StatusCode::kInvalidArgument);

  Fixy ranker;
  ASSERT_TRUE(ranker.LoadModel(*model_path_).ok());
  auto source = io::DirectorySceneSource::Open(dir);
  ASSERT_TRUE(source.ok()) << source.status();
  const Result<Scene> scene = source->DecodeScene(0);
  ASSERT_TRUE(scene.ok()) << scene.status();
  const Result<MultiAppReport> report = ranker.RankScene(*scene, *apps_);
  ASSERT_TRUE(report.ok()) << report.status();
  std::map<std::string, std::string> expected;
  for (size_t a = 0; a < report->apps.size(); ++a) {
    const SceneOutcome& outcome = report->reports[a].outcomes.front();
    ASSERT_TRUE(outcome.ok()) << outcome.status;
    const std::string path = dir + "/expected.json";
    ASSERT_TRUE(SaveProposals(
                    TopK(outcome.proposals, static_cast<size_t>(kTop)), path)
                    .ok());
    ASSERT_TRUE(ReadFileInto(path, &expected[report->apps[a]]).ok());
  }

  ServerRunner runner(BaseOptions(SocketPath("bad_magic")));
  ASSERT_TRUE(runner.ok()) << runner.create_status();
  Request request;
  request.kind = RequestKind::kRank;
  request.data_dir = dir;
  request.scene_index = 0;
  request.top = kTop;
  const Result<Response> response =
      Call(runner.server().socket_path(), request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  const json::Object& proposals =
      response->result.AsObject().at("proposals").AsObject();
  ASSERT_EQ(proposals.size(), expected.size());
  for (const auto& [app, text] : expected) {
    ASSERT_TRUE(proposals.count(app)) << app;
    EXPECT_EQ(proposals.at(app).AsString(), text)
        << "daemon proposals for " << app << " differ from SaveProposals";
  }
}

TEST_F(DaemonTest, RankSceneByIndexAndByNameAgree) {
  ServerRunner runner(BaseOptions(SocketPath("rank_scene")));
  ASSERT_TRUE(runner.ok()) << runner.create_status();
  const std::string& socket = runner.server().socket_path();

  Request by_index;
  by_index.kind = RequestKind::kRank;
  by_index.data_dir = *data_dir_;
  by_index.scene_index = 0;
  by_index.top = kTop;
  const Result<Response> indexed = Call(socket, by_index);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  ASSERT_TRUE(indexed->status.ok()) << indexed->status;

  Request by_name;
  by_name.kind = RequestKind::kRank;
  by_name.data_dir = *data_dir_;
  by_name.scene = *scene0_name_;
  by_name.top = kTop;
  const Result<Response> named = Call(socket, by_name);
  ASSERT_TRUE(named.ok()) << named.status();
  ASSERT_TRUE(named->status.ok()) << named->status;

  const json::Object& a = indexed->result.AsObject().at("proposals").AsObject();
  const json::Object& b = named->result.AsObject().at("proposals").AsObject();
  for (const auto& [app, text] : *scene0_expected_) {
    ASSERT_TRUE(a.count(app)) << app;
    ASSERT_TRUE(b.count(app)) << app;
    EXPECT_EQ(a.at(app).AsString(), text) << app;
    EXPECT_EQ(b.at(app).AsString(), text) << app;
  }

  // Out-of-range index and unknown name are request-level errors, not
  // connection failures.
  Request bad = by_index;
  bad.scene_index = 99;
  const Result<Response> out_of_range = Call(socket, bad);
  ASSERT_TRUE(out_of_range.ok()) << out_of_range.status();
  EXPECT_FALSE(out_of_range->status.ok());
  Request missing = by_name;
  missing.scene = "no_such_scene";
  const Result<Response> unknown = Call(socket, missing);
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_FALSE(unknown->status.ok());
}

// A one-scene request checks only the manifest and its own scene file.
// An edit to scene 1 leaves scene 0's answer resident (no reopen, no
// cache refresh); the next request for scene 1 picks the edit up through
// the full pass; a manifest edit reopens on the next request for any
// scene.
TEST_F(DaemonTest, OneSceneRequestRevalidatesOnlyItsOwnSources) {
  namespace fs = std::filesystem;
  const std::string dir = *base_dir_ + "/per_scene";
  fs::copy(*data_dir_, dir, fs::copy_options::recursive);
  // With a cache, a stale scene goes through the refresh path.
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());
  const Result<std::vector<std::string>> files =
      io::ReadManifestSceneFiles(dir);
  ASSERT_TRUE(files.ok()) << files.status();
  ASSERT_EQ(files->size(), kScenes);

  ServerRunner runner(BaseOptions(SocketPath("per_scene")));
  ASSERT_TRUE(runner.ok()) << runner.create_status();
  const std::string& socket = runner.server().socket_path();
  const auto rank = [&](int64_t index) -> Result<std::string> {
    FIXY_ASSIGN_OR_RETURN(const Response response,
                          Call(socket, RankSceneRequest(dir, index)));
    FIXY_RETURN_IF_ERROR(response.status);
    return json::Write(response.result);
  };
  const auto counter = [&](const std::string& name) -> double {
    const Result<json::Value> metrics = StatusMetrics(socket);
    if (!metrics.ok()) {
      ADD_FAILURE() << metrics.status();
      return -1.0;
    }
    return metrics->AsObject().at("counters").AsObject().at(name).AsDouble();
  };

  const Result<std::string> scene0 = rank(0);
  ASSERT_TRUE(scene0.ok()) << scene0.status();
  const Result<std::string> scene1 = rank(1);
  ASSERT_TRUE(scene1.ok()) << scene1.status();

  // Rewrite scene 1 with its first half only, so its ranking changes.
  const std::string scene1_path = dir + "/" + (*files)[1];
  Result<Scene> edited = io::LoadScene(scene1_path);
  ASSERT_TRUE(edited.ok()) << edited.status();
  edited->frames().resize(edited->frame_count() / 2);
  ASSERT_TRUE(io::SaveScene(*edited, scene1_path).ok());

  const Result<std::string> scene0_again = rank(0);
  ASSERT_TRUE(scene0_again.ok()) << scene0_again.status();
  EXPECT_EQ(*scene0_again, *scene0);
  EXPECT_EQ(counter("daemon.dataset_reopens"), 0.0);
  EXPECT_EQ(counter("daemon.cache_refreshes"), 0.0);

  Fixy ranker;
  ASSERT_TRUE(ranker.LoadModel(*model_path_).ok());
  const Result<Scene> reloaded = io::LoadScene(scene1_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  const Result<MultiAppReport> report = ranker.RankScene(*reloaded, *apps_);
  ASSERT_TRUE(report.ok()) << report.status();
  const Result<Response> edited_response =
      Call(socket, RankSceneRequest(dir, 1));
  ASSERT_TRUE(edited_response.ok()) << edited_response.status();
  ASSERT_TRUE(edited_response->status.ok()) << edited_response->status;
  EXPECT_NE(json::Write(edited_response->result), *scene1)
      << "the edit did not change scene 1's ranking";
  const json::Object& proposals =
      edited_response->result.AsObject().at("proposals").AsObject();
  ASSERT_EQ(proposals.size(), report->apps.size());
  for (size_t a = 0; a < report->apps.size(); ++a) {
    const SceneOutcome& outcome = report->reports[a].outcomes.front();
    ASSERT_TRUE(outcome.ok()) << outcome.status;
    EXPECT_EQ(proposals.at(report->apps[a]).AsString(),
              json::Write(ProposalsToJson(TopK(outcome.proposals,
                                               static_cast<size_t>(kTop))),
                          /*pretty=*/true))
        << report->apps[a];
  }
  EXPECT_EQ(counter("daemon.dataset_reopens"), 1.0);
  EXPECT_EQ(counter("daemon.cache_refreshes"), 1.0);

  // Drop the last scene from the manifest: every request sees that.
  const std::string manifest_path = dir + "/manifest.json";
  std::string manifest_text;
  ASSERT_TRUE(ReadFileInto(manifest_path, &manifest_text).ok());
  Result<json::Value> manifest = json::Parse(manifest_text);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  manifest->AsObject().at("scenes").AsArray().pop_back();
  ASSERT_TRUE(WriteFileAtomic(manifest_path,
                                  {json::Write(*manifest, /*pretty=*/true)})
                  .ok());
  const Result<std::string> scene0_reopened = rank(0);
  ASSERT_TRUE(scene0_reopened.ok()) << scene0_reopened.status();
  EXPECT_EQ(*scene0_reopened, *scene0);
  EXPECT_EQ(counter("daemon.dataset_reopens"), 2.0);
  EXPECT_EQ(rank(static_cast<int64_t>(kScenes - 1)).status().code(),
            StatusCode::kOutOfRange);
  Request dropped = RankSceneRequest(dir, -1);
  dropped.scene = files->back().substr(0, files->back().find(".fixy.json"));
  const Result<Response> by_name = Call(socket, dropped);
  ASSERT_TRUE(by_name.ok()) << by_name.status();
  EXPECT_EQ(by_name->status.code(), StatusCode::kNotFound)
      << by_name->status;
}

// `status` times where a request went: every daemon.phase.* timer is in
// the schema, and a one-scene rank spends time in the rank phase.
TEST_F(DaemonTest, StatusReportsEveryRequestPhase) {
  ServerRunner runner(BaseOptions(SocketPath("phases")));
  ASSERT_TRUE(runner.ok()) << runner.create_status();
  const std::string& socket = runner.server().socket_path();
  const Result<Response> ranked = Call(socket, RankSceneRequest(*data_dir_, 0));
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_TRUE(ranked->status.ok()) << ranked->status;

  const Result<json::Value> metrics = StatusMetrics(socket);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const json::Object& timers = metrics->AsObject().at("timers_ms").AsObject();
  for (const char* phase :
       {"parse", "acquire", "decode", "rank", "encode", "write"}) {
    ASSERT_TRUE(timers.count(std::string("daemon.phase.") + phase)) << phase;
  }
  EXPECT_GT(timers.at("daemon.phase.rank").AsDouble(), 0.0);
}

TEST_F(DaemonTest, UnlearnedDaemonRejectsRankUntilLearnSucceeds) {
  ServerOptions options = BaseOptions(SocketPath("learn"));
  options.model_path.clear();  // start unlearned
  ServerRunner runner(options);
  ASSERT_TRUE(runner.ok()) << runner.create_status();
  const std::string& socket = runner.server().socket_path();

  const Result<Response> early = Call(socket, RankDatasetRequest());
  ASSERT_TRUE(early.ok()) << early.status();
  EXPECT_EQ(early->status.code(), StatusCode::kFailedPrecondition);

  Request learn;
  learn.kind = RequestKind::kLearn;
  learn.data_dir = *train_dir_;
  learn.model_out = *base_dir_ + "/relearned.fxm";
  const Result<Response> learned = Call(socket, learn);
  ASSERT_TRUE(learned.ok()) << learned.status();
  ASSERT_TRUE(learned->status.ok()) << learned->status;
  EXPECT_TRUE(std::filesystem::exists(learn.model_out));

  // The train/rank datasets differ, so only byte-compare against a
  // direct engine run is meaningful with the same model; here the
  // contract is simply: rank now succeeds.
  const Result<Response> ranked = Call(socket, RankDatasetRequest());
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  EXPECT_TRUE(ranked->status.ok()) << ranked->status;
}

// ---------------------------------------------------------- concurrency

TEST_F(DaemonTest, EightConcurrentClientsGetByteIdenticalResponses) {
  ServerOptions options = BaseOptions(SocketPath("concurrent"));
  options.worker_threads = 4;
  ServerRunner runner(options);
  ASSERT_TRUE(runner.ok()) << runner.create_status();
  const std::string socket = runner.server().socket_path();

  constexpr int kClients = 8;
  constexpr int kRoundsPerClient = 3;
  const Result<std::vector<std::string>> files =
      io::ReadManifestSceneFiles(*data_dir_);
  ASSERT_TRUE(files.ok()) << files.status();
  const std::string scene0_path = *data_dir_ + "/" + files->front();
  std::atomic<int> failures{0};
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<FixydClient> client = FixydClient::Connect(socket);
      if (!client.ok()) {
        errors[c] = client.status().ToString();
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRoundsPerClient; ++round) {
        // Mixed workload: every client interleaves cheap status probes,
        // full rank-dataset requests and one-scene ranks of scene 0 (by
        // index or by name). Client 0 also touches scene 0's file, so
        // reopens race with the one-scene fast path's unlocked reads.
        Request status_request;
        status_request.kind = RequestKind::kStatus;
        const Result<Response> status = client->Call(status_request);
        if (!status.ok() || !status->status.ok()) {
          errors[c] = "status: " +
                      (status.ok() ? status->status : status.status()).ToString();
          failures.fetch_add(1);
          return;
        }
        const Result<Response> ranked = client->Call(RankDatasetRequest());
        if (!ranked.ok() || !ranked->status.ok()) {
          errors[c] = "rank: " +
                      (ranked.ok() ? ranked->status : ranked.status()).ToString();
          failures.fetch_add(1);
          return;
        }
        const json::Object& proposals =
            ranked->result.AsObject().at("proposals").AsObject();
        for (const auto& [app, text] : *expected_) {
          if (!proposals.count(app) ||
              proposals.at(app).AsString() != text) {
            errors[c] = "client " + std::to_string(c) +
                        " got non-identical proposals for " + app;
            failures.fetch_add(1);
            return;
          }
        }
        if (c == 0) {
          std::error_code ec;
          std::filesystem::last_write_time(
              scene0_path, std::filesystem::file_time_type::clock::now(), ec);
        }
        Request one_scene = RankSceneRequest(*data_dir_, 0);
        if (c % 2 == 1) {
          one_scene.scene_index = -1;
          one_scene.scene = *scene0_name_;
        }
        const Result<Response> scene = client->Call(one_scene);
        if (!scene.ok() || !scene->status.ok()) {
          errors[c] = "rank scene 0: " +
                      (scene.ok() ? scene->status : scene.status()).ToString();
          failures.fetch_add(1);
          return;
        }
        const json::Object& scene_proposals =
            scene->result.AsObject().at("proposals").AsObject();
        for (const auto& [app, text] : *scene0_expected_) {
          if (!scene_proposals.count(app) ||
              scene_proposals.at(app).AsString() != text) {
            errors[c] = "client " + std::to_string(c) +
                        " got non-identical scene 0 proposals for " + app;
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  for (const std::string& error : errors) {
    EXPECT_TRUE(error.empty()) << error;
  }
}

// ----------------------------------------------------- admission control

TEST_F(DaemonTest, OverloadRejectsWithUnavailable) {
  ServerOptions options = BaseOptions(SocketPath("overload"));
  options.worker_threads = 1;
  options.max_queue_depth = 1;
  options.test_delay_ms = 300;  // every admitted request holds its slot
  ServerRunner runner(options);
  ASSERT_TRUE(runner.ok()) << runner.create_status();
  const std::string socket = runner.server().socket_path();

  // First request is admitted and sleeps in its worker; while it holds
  // the only slot, a second request must be rejected immediately.
  Result<FixydClient> slow = FixydClient::Connect(socket);
  ASSERT_TRUE(slow.ok()) << slow.status();
  Request status_request;
  status_request.kind = RequestKind::kStatus;
  std::thread occupant([&] {
    const Result<Response> response = slow->Call(status_request);
    EXPECT_TRUE(response.ok() && response->status.ok());
  });
  // Give the first request time to be admitted.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const Result<Response> rejected = Call(socket, status_request);
  occupant.join();
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->status.code(), StatusCode::kUnavailable)
      << rejected->status;
}

TEST_F(DaemonTest, DeadlineExceededInQueueRejects) {
  ServerOptions options = BaseOptions(SocketPath("deadline"));
  options.worker_threads = 1;
  options.test_delay_ms = 120;  // queue wait exceeds any small deadline
  ServerRunner runner(options);
  ASSERT_TRUE(runner.ok()) << runner.create_status();

  Request request;
  request.kind = RequestKind::kStatus;
  request.deadline_ms = 10;
  const Result<Response> response =
      Call(runner.server().socket_path(), request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status.code(), StatusCode::kUnavailable)
      << response->status;

  // Without a deadline the same slow daemon answers fine.
  request.deadline_ms = 0;
  const Result<Response> patient =
      Call(runner.server().socket_path(), request);
  ASSERT_TRUE(patient.ok()) << patient.status();
  EXPECT_TRUE(patient->status.ok()) << patient->status;
}

// ------------------------------------------------------ frame corruption

// Corrupted request frames must never wedge or kill the daemon: framing
// errors are answered with a kError frame (when the stream still admits
// a write) and the connection dropped, after which a fresh client gets
// normal service.
TEST_F(DaemonTest, CorruptFramesAreRejectedAndTheDaemonStaysHealthy) {
  ServerRunner runner(BaseOptions(SocketPath("corrupt")));
  ASSERT_TRUE(runner.ok()) << runner.create_status();
  const std::string socket = runner.server().socket_path();

  Request probe;
  probe.kind = RequestKind::kStatus;
  const std::string valid = EncodeRequestFrame(probe);
  std::mt19937 rng(20260808);

  const auto expect_healthy = [&](const std::string& after) {
    const Result<Response> response = Call(socket, probe);
    ASSERT_TRUE(response.ok()) << after << ": " << response.status();
    EXPECT_TRUE(response->status.ok()) << after << ": " << response->status;
  };

  // Truncation at seeded cut points: the parser just waits for more
  // bytes; closing mid-frame must not disturb the daemon.
  for (int round = 0; round < 4; ++round) {
    std::uniform_int_distribution<size_t> cut(1, valid.size() - 1);
    const size_t point = cut(rng);
    Result<FixydClient> client = FixydClient::Connect(socket);
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->SendRaw(valid.substr(0, point)).ok());
    // Connection dropped by the client going away mid-frame.
    expect_healthy("truncation at " + std::to_string(point));
  }

  // Seeded single-bit flips across the whole frame — CRC body flips are
  // detected by the checksum, header flips by the type/length checks.
  for (int round = 0; round < 6; ++round) {
    std::uniform_int_distribution<size_t> position(0, valid.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    std::string flipped = valid;
    flipped[position(rng)] ^= static_cast<char>(1 << bit(rng));
    Result<FixydClient> client = FixydClient::Connect(socket);
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->SendRaw(flipped).ok());
    // Either the daemon detected corruption (kError then close) or the
    // flip landed in the JSON payload with a fixed-up CRC impossible —
    // any CRC-breaking flip must produce a kError frame.
    const Result<shard::Frame> frame = client->ReadFrame(5000);
    if (frame.ok()) {
      EXPECT_EQ(frame->type, shard::FrameType::kError);
    }
    expect_healthy("bit flip round " + std::to_string(round));
  }

  // A bad type byte poisons the parser: kError, then the stream dies.
  // Type 2 was a worker-pipe heartbeat and is now just as unknown.
  for (const int type : {0x7f, 2}) {
    std::string bad_type = valid;
    bad_type[0] = static_cast<char>(type);
    Result<FixydClient> client = FixydClient::Connect(socket);
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->SendRaw(bad_type).ok());
    const Result<shard::Frame> frame = client->ReadFrame(5000);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, shard::FrameType::kError);
    expect_healthy("bad type byte " + std::to_string(type));
  }

  // An oversized length field is rejected before any allocation.
  {
    std::string oversized;
    oversized.push_back(static_cast<char>(shard::FrameType::kRequest));
    const uint32_t huge = (1u << 20) + 1;
    for (int b = 0; b < 4; ++b) {
      oversized.push_back(static_cast<char>((huge >> (8 * b)) & 0xff));
    }
    // The parser only examines a header once a full frame-overhead's
    // worth of bytes is buffered; pad with a (never-checked) CRC.
    oversized.append(4, '\0');
    Result<FixydClient> client = FixydClient::Connect(socket);
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->SendRaw(oversized).ok());
    const Result<shard::Frame> frame = client->ReadFrame(5000);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, shard::FrameType::kError);
    expect_healthy("oversized length");
  }

  // A well-formed frame of a non-request type gets a kError answer but
  // keeps the connection usable (the byte stream itself is intact).
  {
    Result<FixydClient> client = FixydClient::Connect(socket);
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(
        client->SendRaw(shard::EncodeFrame(shard::FrameType::kResponse, "{}"))
            .ok());
    const Result<shard::Frame> frame = client->ReadFrame(5000);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, shard::FrameType::kError);
    const Result<Response> follow_up = client->Call(probe);
    ASSERT_TRUE(follow_up.ok()) << follow_up.status();
    EXPECT_TRUE(follow_up->status.ok()) << follow_up->status;
  }

  // Unparseable JSON inside a correctly framed request.
  {
    Result<FixydClient> client = FixydClient::Connect(socket);
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client
                    ->SendRaw(shard::EncodeFrame(shard::FrameType::kRequest,
                                                 "{not json"))
                    .ok());
    const Result<shard::Frame> frame = client->ReadFrame(5000);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, shard::FrameType::kError);
    expect_healthy("unparseable JSON");
  }
}

// ------------------------------------------------------ socket lifecycle

TEST_F(DaemonTest, StaleSocketIsReplacedAndLiveSocketRefused) {
  const std::string path = SocketPath("stale");
  {
    // A stale regular file where the socket should go — the leftover of
    // a crashed daemon — is detected (connect fails) and replaced.
    std::ofstream stale(path);
    stale << "stale";
  }
  ServerRunner first(BaseOptions(path));
  ASSERT_TRUE(first.ok()) << first.create_status();

  // A second daemon on the same path must refuse: something is serving.
  Result<std::unique_ptr<FixydServer>> second =
      FixydServer::Create(BaseOptions(path));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists)
      << second.status();

  first.Stop();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(DaemonTest, CreateRejectsThreadCountsAboveTheCeiling) {
  const std::string path = SocketPath("ceiling");
  ServerOptions workers = BaseOptions(path);
  workers.worker_threads = kMaxThreads + 1;
  const Result<std::unique_ptr<FixydServer>> too_many_workers =
      FixydServer::Create(std::move(workers));
  ASSERT_FALSE(too_many_workers.ok());
  EXPECT_EQ(too_many_workers.status().code(), StatusCode::kInvalidArgument);

  ServerOptions rank = BaseOptions(path);
  rank.rank_threads = kMaxThreads + 1;
  const Result<std::unique_ptr<FixydServer>> too_many_rank =
      FixydServer::Create(std::move(rank));
  ASSERT_FALSE(too_many_rank.ok());
  EXPECT_EQ(too_many_rank.status().code(), StatusCode::kInvalidArgument);
  // Rejected before binding: no socket file was left behind.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(DaemonTest, ShutdownRequestDrainsAndUnlinksSocket) {
  ServerRunner runner(BaseOptions(SocketPath("shutdown")));
  ASSERT_TRUE(runner.ok()) << runner.create_status();
  const std::string socket = runner.server().socket_path();

  Request shutdown;
  shutdown.kind = RequestKind::kShutdown;
  const Result<Response> response = Call(socket, shutdown);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;

  runner.Join();  // Serve() must return on its own
  EXPECT_TRUE(runner.serve_status().ok()) << runner.serve_status();
  EXPECT_FALSE(std::filesystem::exists(socket));

  // Connecting after shutdown fails — nothing is listening.
  EXPECT_FALSE(FixydClient::Connect(socket).ok());
}

#endif  // FIXY_DAEMON_TEST_HAVE_SOCKETS

}  // namespace
}  // namespace fixy::daemon
