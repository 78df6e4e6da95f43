#include "core/proposal_io.h"

#include "common/file_util.h"

namespace fixy {

namespace {

constexpr const char* kMarker = "fixy-proposals";
constexpr int kVersion = 1;

}  // namespace

json::Value ProposalsToJson(const std::vector<ErrorProposal>& proposals) {
  json::Array items;
  items.reserve(proposals.size());
  for (const ErrorProposal& p : proposals) {
    json::Object box;
    box["cx"] = p.box.center.x;
    box["cy"] = p.box.center.y;
    box["cz"] = p.box.center.z;
    box["l"] = p.box.length;
    box["w"] = p.box.width;
    box["h"] = p.box.height;
    box["yaw"] = p.box.yaw;

    json::Object item;
    item["scene"] = p.scene_name;
    item["kind"] = ProposalKindToString(p.kind);
    item["track_id"] = static_cast<uint64_t>(p.track_id);
    item["frame"] = p.frame_index;
    item["first_frame"] = p.first_frame;
    item["last_frame"] = p.last_frame;
    item["class"] = ObjectClassToString(p.object_class);
    item["score"] = p.score;
    item["model_confidence"] = p.model_confidence;
    item["box"] = std::move(box);
    items.push_back(std::move(item));
  }
  json::Object doc;
  doc["format"] = kMarker;
  doc["version"] = kVersion;
  doc["proposals"] = std::move(items);
  return doc;
}

Status SaveProposals(const std::vector<ErrorProposal>& proposals,
                     const std::string& path) {
  return WriteFileAtomic(
      path, {json::Write(ProposalsToJson(proposals), /*pretty=*/true)});
}

}  // namespace fixy
