// Tests for src/core/proposal_io: the written proposal-list document,
// checked field by field after a trip through JSON text.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/proposal_io.h"

namespace fixy {
namespace {

ErrorProposal MakeProposal(int i) {
  ErrorProposal p;
  p.scene_name = "scene_" + std::to_string(i % 3);
  p.kind = static_cast<ProposalKind>(i % 3);
  p.track_id = static_cast<TrackId>(100 + i);
  p.frame_index = 10 + i;
  p.first_frame = 5 + i;
  p.last_frame = 20 + i;
  p.object_class = static_cast<ObjectClass>(i % kNumObjectClasses);
  p.score = -0.1 * i;
  p.model_confidence = 0.05 * (i % 20);
  p.box = geom::Box3d({1.5 * i, -0.5 * i, 0.9}, 4.0 + 0.1 * i, 1.9, 1.7,
                      0.01 * i);
  return p;
}

// The written document, parsed back from its pretty-printed text.
json::Value WrittenDocument(const std::vector<ErrorProposal>& proposals) {
  const Result<json::Value> parsed =
      json::Parse(json::Write(ProposalsToJson(proposals), /*pretty=*/true));
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed.ok() ? *parsed : json::Value();
}

TEST(ProposalIoTest, RoundTripPreservesEverything) {
  std::vector<ErrorProposal> original;
  for (int i = 0; i < 12; ++i) original.push_back(MakeProposal(i));
  const json::Value doc = WrittenDocument(original);
  const json::Value* items = doc.Find("proposals");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->AsArray().size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    const ErrorProposal& a = original[i];
    const json::Value& b = items->AsArray()[i];
    EXPECT_EQ(*b.GetString("scene"), a.scene_name);
    EXPECT_EQ(*b.GetString("kind"), ProposalKindToString(a.kind));
    EXPECT_EQ(*b.GetInt64("track_id"), static_cast<int64_t>(a.track_id));
    EXPECT_EQ(*b.GetInt64("frame"), a.frame_index);
    EXPECT_EQ(*b.GetInt64("first_frame"), a.first_frame);
    EXPECT_EQ(*b.GetInt64("last_frame"), a.last_frame);
    EXPECT_EQ(*b.GetString("class"), ObjectClassToString(a.object_class));
    // Doubles survive the text exactly (17 significant digits).
    EXPECT_EQ(*b.GetDouble("score"), a.score);
    EXPECT_EQ(*b.GetDouble("model_confidence"), a.model_confidence);
    const json::Value* box = b.Find("box");
    ASSERT_NE(box, nullptr);
    EXPECT_EQ(*box->GetDouble("cx"), a.box.center.x);
    EXPECT_EQ(*box->GetDouble("cy"), a.box.center.y);
    EXPECT_EQ(*box->GetDouble("cz"), a.box.center.z);
    EXPECT_EQ(*box->GetDouble("l"), a.box.length);
    EXPECT_EQ(*box->GetDouble("w"), a.box.width);
    EXPECT_EQ(*box->GetDouble("h"), a.box.height);
    EXPECT_EQ(*box->GetDouble("yaw"), a.box.yaw);
  }
}

TEST(ProposalIoTest, EmptyListRoundTrips) {
  const json::Value doc = WrittenDocument({});
  EXPECT_EQ(*doc.GetString("format"), "fixy-proposals");
  EXPECT_EQ(*doc.GetInt64("version"), 1);
  const json::Value* items = doc.Find("proposals");
  ASSERT_NE(items, nullptr);
  ASSERT_TRUE(items->is_array());
  EXPECT_TRUE(items->AsArray().empty());
}

TEST(ProposalIoTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fixy_proposals.json")
          .string();
  std::vector<ErrorProposal> original = {MakeProposal(1), MakeProposal(2)};
  ASSERT_TRUE(SaveProposals(original, path).ok());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string saved((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(saved, json::Write(ProposalsToJson(original), /*pretty=*/true));
  std::filesystem::remove(path);
}

TEST(ProposalIoTest, SaveIntoMissingDirectoryFails) {
  EXPECT_EQ(SaveProposals({MakeProposal(0)}, "/nonexistent/p.json").code(),
            StatusCode::kIoError);
}

TEST(ProposalIoTest, OrderIsPreserved) {
  std::vector<ErrorProposal> original;
  for (int i = 0; i < 5; ++i) {
    ErrorProposal p = MakeProposal(i);
    p.score = 1.0 - 0.2 * i;  // descending
    original.push_back(std::move(p));
  }
  const json::Value doc = WrittenDocument(original);
  const json::Array& items = doc.Find("proposals")->AsArray();
  ASSERT_EQ(items.size(), original.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(*items[i].GetInt64("track_id"),
              static_cast<int64_t>(original[i].track_id));
    EXPECT_EQ(*items[i].GetDouble("score"), original[i].score);
  }
}

}  // namespace
}  // namespace fixy
