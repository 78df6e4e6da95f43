#include "io/mapped_file.h"

#include <utility>

#include "common/file_util.h"
#include "common/macros.h"

#if defined(__unix__) || defined(__APPLE__)
#define FIXY_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace fixy::io {

void (*MappedFile::pre_map_hook_for_test)(const std::string& path) = nullptr;

MappedFile::~MappedFile() { Release(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : mapping_(std::exchange(other.mapping_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      buffer_(std::move(other.buffer_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Release();
    mapping_ = std::exchange(other.mapping_, nullptr);
    size_ = std::exchange(other.size_, 0);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

void MappedFile::Release() {
#if FIXY_HAVE_MMAP
  if (mapping_ != nullptr) {
    ::munmap(mapping_, size_);
  }
#endif
  mapping_ = nullptr;
  size_ = 0;
  buffer_.clear();
}

Result<MappedFile> MappedFile::Open(const std::string& path,
                                    bool force_buffered) {
  MappedFile file;
#if FIXY_HAVE_MMAP
  if (!force_buffered) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::IoError("cannot open for reading: " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return Status::IoError("cannot stat: " + path);
    }
    // mmap of an empty file is invalid; the empty buffer fallback is
    // already correct for it.
    if (st.st_size > 0) {
      if (pre_map_hook_for_test != nullptr) pre_map_hook_for_test(path);
      void* mapping = ::mmap(nullptr, static_cast<size_t>(st.st_size),
                             PROT_READ, MAP_PRIVATE, fd, 0);
      if (mapping != MAP_FAILED) {
        // Re-check the size through the still-open fd: a concurrent
        // truncation between the stat and the mmap leaves the tail of
        // the mapping past EOF, where the first page touch is SIGBUS,
        // not a readable zero. Growth is harmless — the first st_size
        // bytes still exist.
        struct stat st2;
        if (::fstat(fd, &st2) != 0 || st2.st_size < st.st_size) {
          ::munmap(mapping, static_cast<size_t>(st.st_size));
          ::close(fd);
          return Status::IoError("file truncated while mapping: " + path);
        }
        ::close(fd);
        file.mapping_ = mapping;
        file.size_ = static_cast<size_t>(st.st_size);
        return file;
      }
    } else {
      ::close(fd);
      return file;  // empty file: empty view, not mapped
    }
    ::close(fd);
    // fall through to the buffered read on mmap failure
  }
#else
  (void)force_buffered;
#endif
  FIXY_RETURN_IF_ERROR(ReadFileInto(path, &file.buffer_));
  return file;
}

}  // namespace fixy::io
