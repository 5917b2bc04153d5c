// Sealed files: the one envelope codec and the one atomic commit behind
// every file format the library writes (docs/ROBUSTNESS.md). Both
// envelopes bind the bytes with a CRC-32, so bit flips, truncation and
// trailing bytes are rejected before any field is parsed:
//
//  * header  `<magic> <version> <crc32> <len>\n<body>` — every file of a
//    checkpoint generation (sim/generation.hpp): checkpoint, `.progress`
//    and `.record` sidecars, dist shard and the manifest that commits
//    them. The header leads, so a multi-MB body is committed without a
//    copy.
//  * trailer `<magic> <version>\n<body>crc32 = <8 hex>\n` — artifact and
//    postmortem bundle; the CRC covers every byte before the trailer.
//
// Errors are std::runtime_error prefixed with the caller's `context`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <span>
#include <string>
#include <string_view>

namespace iba::io::sealed {

/// Commits `body` under a header envelope; returns the body's CRC-32.
std::uint32_t commit_header(const std::string& path, std::string_view magic,
                            std::uint32_t version, std::string_view body,
                            const std::string& context);
/// The same, for a body kept as consecutive pieces (no concatenation).
std::uint32_t commit_header(const std::string& path, std::string_view magic,
                            std::uint32_t version,
                            std::span<const std::string_view> body,
                            const std::string& context);

/// Reads a header envelope of `magic` at exactly `version` and returns
/// its body. Names the damage: bad header, unsupported version, body
/// length mismatch (truncation, trailing bytes) or CRC mismatch.
[[nodiscard]] std::string load_header(const std::string& path,
                                      std::string_view magic,
                                      std::uint32_t version,
                                      const std::string& context);

/// Readers of `key = <u64>` body lines (manifest, dist shard): read_key
/// consumes `key =`, read_u64 a decimal at most `max`, read_field both.
/// They throw std::runtime_error prefixed with `context` naming the key.
void read_key(std::istream& in, std::string_view key,
              const std::string& context);
std::uint64_t read_u64(std::istream& in, std::string_view key,
                       const std::string& context,
                       std::uint64_t max = ~std::uint64_t{0});
std::uint64_t read_field(std::istream& in, std::string_view key,
                         const std::string& context,
                         std::uint64_t max = ~std::uint64_t{0});

/// The trailer envelope around `body`.
[[nodiscard]] std::string seal_trailer(std::string_view magic,
                                       std::uint32_t version,
                                       std::string_view body);

/// Verifies a trailer envelope of `magic` at exactly `version`.
void verify_trailer(std::string_view text, std::string_view magic,
                    std::uint32_t version, const std::string& context);

/// The system calls of commit(), one per step, each returning -1 with
/// errno set on failure. Only tests replace posix(), to inject ENOSPC,
/// EIO or short writes.
struct FileOps {
  std::function<int(const char* path)> open;  ///< create/truncate, write
  std::function<std::ptrdiff_t(int fd, const char* data, std::size_t size)>
      write;
  std::function<int(int fd)> fsync;
  std::function<int(int fd)> close;
  std::function<int(const char* from, const char* to)> rename;
  std::function<int(const char* dir)> sync_dir;  ///< open, fsync, close

  [[nodiscard]] static const FileOps& posix();
};

/// Crash-safe replace of `path` by the concatenated `pieces`: write
/// `<path>.tmp` (retrying short writes), fsync, close, rename over
/// `path`, fsync the directory so the rename survives a power loss.
/// Throws naming `context`, `path` and the failed step. Up to and
/// including the rename, a failure removes the `.tmp` and leaves `path`
/// as it was; a kill leaves only a stale `.tmp`, which no loader reads
/// and the next commit truncates. A failed directory fsync is reported
/// after the rename.
void commit(const std::string& path, std::span<const std::string_view> pieces,
            const std::string& context,
            const FileOps& ops = FileOps::posix());
void commit(const std::string& path, std::string_view text,
            const std::string& context);

/// The whole file at `path`.
[[nodiscard]] std::string read_file(const std::string& path,
                                    const std::string& context);

}  // namespace iba::io::sealed
