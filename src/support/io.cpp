#include "support/io.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "support/check.h"
#include "support/fault.h"
#include "support/json.h"

namespace xcv::support {

namespace {

std::string FaultPoint(const char* prefix, const char* suffix) {
  std::string point = prefix;
  point += '.';
  point += suffix;
  return point;
}

#ifndef _WIN32

void WriteAll(int fd, const char* data, std::size_t size,
              const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      XCV_CHECK_MSG(false, "write to '" << path << "' failed");
    }
    written += static_cast<std::size_t>(n);
  }
}

void FsyncDirectoryOf(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;  // best-effort: some filesystems refuse dir opens
  ::fsync(dfd);
  ::close(dfd);
}

#endif  // !_WIN32

}  // namespace

void AtomicWriteFile(const std::string& path, std::string_view data,
                     const char* fault_prefix) {
  const std::string tmp = path + ".tmp";
  bool tear = false;
  std::size_t size = data.size();
  if (fault_prefix != nullptr &&
      fault::MaybeShortWrite(FaultPoint(fault_prefix, "short-write").c_str())) {
    // Torn write: persist only a prefix, make it visible, then die — the
    // simulation of a rename that became durable before its data did.
    tear = true;
    size /= 2;
  }
#ifndef _WIN32
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  XCV_CHECK_MSG(fd >= 0, "cannot open '" << tmp << "' for writing");
  WriteAll(fd, data.data(), size, tmp);
  if (!tear) XCV_CHECK_MSG(::fsync(fd) == 0, "fsync '" << tmp << "' failed");
  ::close(fd);
#else
  {
    std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
    XCV_CHECK_MSG(os.good(), "cannot open '" << tmp << "' for writing");
    os.write(data.data(), static_cast<std::streamsize>(size));
    XCV_CHECK_MSG(os.good(), "write to '" << tmp << "' failed");
  }
#endif
  if (fault_prefix != nullptr)
    fault::MaybeCrash(FaultPoint(fault_prefix, "crash-before-rename").c_str());
  XCV_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                "rename '" << tmp << "' -> '" << path << "' failed");
  if (tear) fault::CrashNow();
#ifndef _WIN32
  FsyncDirectoryOf(path);
#endif
}

bool ReadFileToString(const std::string& path, std::string* out,
                      const char* fault_prefix) {
  if (fault_prefix != nullptr &&
      fault::MaybeEio(FaultPoint(fault_prefix, "eio").c_str()))
    return false;
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  std::string text;
  if (is.seekg(0, std::ios::end)) {
    // One read into a buffer sized from the file: documents run to
    // megabytes, and a stream copy would hold the text twice.
    const std::streamoff size = is.tellg();
    if (size < 0 || !is.seekg(0)) return false;
    text.resize(static_cast<std::size_t>(size));
    if (!is.read(text.data(), size)) return false;
  } else {
    // A stream that cannot seek (a pipe) is read as it comes.
    is.clear();
    text.assign(std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>());
    if (is.bad()) return false;
  }
  *out = std::move(text);
  return true;
}

void TouchFile(const std::string& path) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return;
  ::futimens(fd, nullptr);
  ::close(fd);
#else
  std::ofstream os(path, std::ios::trunc);
  os << 'x';
#endif
}

// ---- Document checksums -----------------------------------------------------

std::uint64_t HashBytes(std::string_view text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

namespace {

constexpr const char kChecksumField[] = "\"checksum\": \"";

std::string HexChecksum(std::uint64_t h) {
  std::string hex;
  json::AppendHex64(hex, h);
  return hex;
}

}  // namespace

std::string AddDocumentChecksum(std::string json) {
  const std::size_t version = json.find("\"version\": ");
  if (version == std::string::npos) return json;
  const std::size_t eol = json.find('\n', version);
  if (eol == std::string::npos) return json;
  const std::string line =
      "  " + std::string(kChecksumField) + HexChecksum(HashBytes(json)) +
      "\",\n";
  json.insert(eol + 1, line);
  return json;
}

ChecksumStatus VerifyDocumentChecksum(const std::string& text) {
  const std::size_t field = text.find(kChecksumField);
  if (field == std::string::npos) return ChecksumStatus::kAbsent;
  const std::size_t hex = field + sizeof(kChecksumField) - 1;
  if (hex + 16 > text.size()) return ChecksumStatus::kMismatch;
  const std::string_view view(text);
  // Hash around the whole checksum line, from the start of its line through
  // the trailing newline (when present), in place: FNV-1a chains, so the two
  // spans hash as their concatenation would.
  std::size_t line_start = view.rfind('\n', field);
  line_start = line_start == std::string_view::npos ? 0 : line_start + 1;
  std::size_t line_end = view.find('\n', field);
  line_end = line_end == std::string_view::npos ? view.size() : line_end + 1;
  const std::uint64_t h =
      HashBytes(view.substr(line_end), HashBytes(view.substr(0, line_start)));
  return HexChecksum(h) == view.substr(hex, 16) ? ChecksumStatus::kOk
                                                : ChecksumStatus::kMismatch;
}

}  // namespace xcv::support
