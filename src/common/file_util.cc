#include "common/file_util.h"

#include <filesystem>
#include <fstream>
#include <system_error>

namespace fixy {

Status ReadFileInto(const std::string& path, std::string* out) {
  // One stat-sized read instead of streambuf extraction: resize to the
  // file's length and read it in a single call, reusing the caller's
  // buffer capacity across files.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot determine size of: " + path);
  out->resize(static_cast<size_t>(size));
  if (size > 0) {
    in.seekg(0);
    in.read(out->data(), size);
    if (!in || in.gcount() != size) {
      return Status::IoError("read failed: " + path);
    }
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::string_view>& parts) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for writing: " + tmp);
    for (const std::string_view part : parts) {
      out.write(part.data(), static_cast<std::streamsize>(part.size()));
    }
    out.flush();
    if (!out) return Status::IoError("write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IoError("cannot rename " + tmp + " to " + path + ": " +
                           ec.message());
  }
  return Status::Ok();
}

}  // namespace fixy
