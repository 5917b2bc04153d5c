#include "io/sealed.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/crc32.hpp"

namespace iba::io::sealed {

namespace {

[[noreturn]] void fail(const std::string& context, const std::string& what) {
  throw std::runtime_error(context + ": " + what);
}

/// Parses `line` as `<magic> <version>` and then `fields.size()` more
/// decimals, each after exactly one space.
void parse_header(std::string_view line, std::string_view magic,
                  std::uint32_t version, const std::string& context,
                  std::span<std::uint64_t> fields) {
  const auto bad = [&] {
    fail(context, "bad header '" + std::string(line) + "'");
  };
  if (!line.starts_with(std::string(magic) + ' ')) bad();
  const char* end = line.data() + line.size();
  std::uint32_t found = 0;
  const auto parsed =
      std::from_chars(line.data() + magic.size() + 1, end, found);
  if (parsed.ec != std::errc()) bad();
  if (found != version) {
    fail(context, "unsupported version " + std::to_string(found) +
                      " (expected " + std::to_string(version) + ")");
  }
  const char* at = parsed.ptr;
  for (std::uint64_t& field : fields) {
    if (at == end || *at != ' ') bad();
    const auto [next, ec] = std::from_chars(at + 1, end, field);
    if (ec != std::errc()) bad();
    at = next;
  }
  if (at != end) bad();
}

}  // namespace

std::uint32_t commit_header(const std::string& path, std::string_view magic,
                            std::uint32_t version, std::string_view body,
                            const std::string& context) {
  return commit_header(path, magic, version, std::span(&body, 1), context);
}

std::uint32_t commit_header(const std::string& path, std::string_view magic,
                            std::uint32_t version,
                            std::span<const std::string_view> body,
                            const std::string& context) {
  std::uint32_t crc = 0;
  std::size_t size = 0;
  for (const std::string_view piece : body) {
    crc = common::crc32_update(crc, piece);
    size += piece.size();
  }
  const std::string header = std::string(magic) + ' ' +
                             std::to_string(version) + ' ' +
                             std::to_string(crc) + ' ' +
                             std::to_string(size) + '\n';
  std::vector<std::string_view> pieces;
  pieces.reserve(body.size() + 1);
  pieces.push_back(header);
  pieces.insert(pieces.end(), body.begin(), body.end());
  commit(path, pieces, context);
  return crc;
}

std::string load_header(const std::string& path, std::string_view magic,
                        std::uint32_t version, const std::string& context) {
  std::string file = read_file(path, context);
  const std::size_t eol = file.find('\n');
  if (eol == std::string::npos) fail(context, "truncated header");
  std::uint64_t crc_and_length[2] = {};
  parse_header(std::string_view(file).substr(0, eol), magic, version, context,
               crc_and_length);
  const std::size_t body_size = file.size() - eol - 1;
  if (body_size != crc_and_length[1]) {
    fail(context, "body length mismatch: header says " +
                      std::to_string(crc_and_length[1]) + " bytes, file has " +
                      std::to_string(body_size));
  }
  file.erase(0, eol + 1);
  if (common::crc32(file) != crc_and_length[0]) {
    fail(context, "CRC mismatch (corrupt file)");
  }
  return file;
}

void read_key(std::istream& in, std::string_view key,
              const std::string& context) {
  std::string word, eq;
  if (!(in >> word >> eq) || word != key || eq != "=") {
    fail(context, "expected '" + std::string(key) + " =', got '" + word +
                      " " + eq + "'");
  }
}

std::uint64_t read_u64(std::istream& in, std::string_view key,
                       const std::string& context, std::uint64_t max) {
  std::uint64_t value = 0;
  if (!(in >> value)) {
    fail(context, "truncated/invalid field: " + std::string(key));
  }
  if (value > max) fail(context, std::string(key) + " out of range");
  return value;
}

std::uint64_t read_field(std::istream& in, std::string_view key,
                         const std::string& context, std::uint64_t max) {
  read_key(in, key, context);
  return read_u64(in, key, context, max);
}

std::string seal_trailer(std::string_view magic, std::uint32_t version,
                         std::string_view body) {
  std::string text = std::string(magic) + ' ' + std::to_string(version) + '\n';
  text += body;
  text += "crc32 = " + common::crc32_hex(common::crc32(text)) + '\n';
  return text;
}

void verify_trailer(std::string_view text, std::string_view magic,
                    std::uint32_t version, const std::string& context) {
  const std::size_t eol = text.find('\n');
  if (eol == std::string_view::npos) fail(context, "truncated: no header line");
  parse_header(text.substr(0, eol), magic, version, context, {});
  constexpr std::string_view kPrefix = "crc32 = ";
  constexpr std::size_t kTrailerLen = kPrefix.size() + 8 + 1;
  if (text.size() < eol + 1 + kTrailerLen || text.back() != '\n') {
    fail(context, "truncated: missing crc trailer");
  }
  const std::size_t at = text.size() - kTrailerLen;
  if (text.substr(at, kPrefix.size()) != kPrefix || text[at - 1] != '\n') {
    fail(context, "malformed crc trailer");
  }
  const std::string_view stated = text.substr(at + kPrefix.size(), 8);
  const std::string actual =
      common::crc32_hex(common::crc32(text.substr(0, at)));
  if (stated != actual) {
    fail(context, "crc mismatch: stated " + std::string(stated) +
                      ", computed " + actual);
  }
}

const FileOps& FileOps::posix() {
  static const FileOps ops{
      [](const char* path) {
        return ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
      },
      [](int fd, const char* data, std::size_t size) -> std::ptrdiff_t {
        return ::write(fd, data, size);
      },
      [](int fd) { return ::fsync(fd); },
      [](int fd) { return ::close(fd); },
      [](const char* from, const char* to) { return ::rename(from, to); },
      [](const char* dir) {
        const int fd = ::open(dir, O_RDONLY | O_DIRECTORY | O_CLOEXEC);
        if (fd < 0) return -1;
        // EINVAL: this filesystem cannot sync a directory; nothing to do.
        const int rc = ::fsync(fd) == 0 || errno == EINVAL ? 0 : -1;
        const int err = errno;
        ::close(fd);
        errno = err;
        return rc;
      }};
  return ops;
}

void commit(const std::string& path, std::span<const std::string_view> pieces,
            const std::string& context, const FileOps& ops) {
  const std::string tmp = path + ".tmp";
  const char* failed = nullptr;
  int err = 0;
  const auto check = [&](bool ok, const char* step) {
    if (!ok && failed == nullptr) {
      failed = step;
      err = errno;
    }
  };
  const int fd = ops.open(tmp.c_str());
  check(fd >= 0, "open");
  for (std::string_view piece : pieces) {
    while (failed == nullptr && !piece.empty()) {
      const std::ptrdiff_t n = ops.write(fd, piece.data(), piece.size());
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) errno = EIO;
      check(n > 0, "write");
      if (n > 0) piece.remove_prefix(static_cast<std::size_t>(n));
    }
  }
  if (failed == nullptr) check(ops.fsync(fd) == 0, "fsync");
  if (fd >= 0) check(ops.close(fd) == 0, "close");
  if (failed == nullptr) {
    check(ops.rename(tmp.c_str(), path.c_str()) == 0, "rename");
  }
  if (failed == nullptr) {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "."
                            : slash == 0              ? "/"
                                                      : path.substr(0, slash);
    if (ops.sync_dir(dir.c_str()) == 0) return;
    failed = "directory fsync";
    err = errno;
  } else {
    ::unlink(tmp.c_str());
  }
  throw std::runtime_error(context + ": " + failed + " failed committing " +
                           path + ": " + std::strerror(err));
}

void commit(const std::string& path, std::string_view text,
            const std::string& context) {
  commit(path, std::span<const std::string_view>(&text, 1), context);
}

std::string read_file(const std::string& path, const std::string& context) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(context, "cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

}  // namespace iba::io::sealed
