// io::sealed: both envelope shapes, and the atomic commit's failure
// paths driven through the FileOps seam — ENOSPC, EIO and short writes
// at every step, plus a process killed just before the rename.
#include "io/sealed.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/crc32.hpp"

namespace iba::io::sealed {
namespace {

class SealedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("iba_io_sealed_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  /// Every file in the test directory, by name.
  [[nodiscard]] std::vector<std::string> listing() const {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  }

  std::filesystem::path dir_;
};

/// Expects `call` to throw a std::runtime_error whose message carries
/// every one of `parts`.
template <typename Call>
void expect_error(Call call, const std::vector<std::string>& parts) {
  try {
    call();
    ADD_FAILURE() << "no error";
  } catch (const std::runtime_error& e) {
    for (const std::string& part : parts) {
      EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
          << "'" << part << "' missing from: " << e.what();
    }
  }
}

TEST_F(SealedTest, HeaderEnvelopeRoundTripsAndNamesDamage) {
  const std::string file = path("h");
  const std::string body = "alpha = 1\nend\n";
  EXPECT_EQ(commit_header(file, "iba-test", 4, body, "test"),
            common::crc32(body));
  const std::string text = read_file(file, "test");
  EXPECT_EQ(text, "iba-test 4 " + std::to_string(common::crc32(body)) +
                      " 14\n" + body);
  EXPECT_EQ(load_header(file, "iba-test", 4, "test"), body);

  const auto load = [&](const std::string& bytes, std::string_view magic,
                        std::uint32_t version) {
    const std::string mutant = path("mutant");
    commit(mutant, bytes, "setup");
    (void)load_header(mutant, magic, version, "ctx");
  };
  expect_error([&] { load(text, "iba-other", 4); }, {"ctx: bad header"});
  expect_error([&] { load(text, "iba-test", 5); },
               {"unsupported version 4 (expected 5)"});
  expect_error([&] { load(text + "x", "iba-test", 4); },
               {"body length mismatch"});
  std::string flipped = text;
  flipped.back() = '\r';
  expect_error([&] { load(flipped, "iba-test", 4); }, {"CRC mismatch"});
  // Exactly four single-space-separated tokens.
  for (const char* header : {"iba-test 4 1 0 9\n", "iba-test 4  1 0\n",
                             "iba-test 4 1 0 \n", "iba-test 4 +1 0\n"}) {
    expect_error([&] { load(header, "iba-test", 4); }, {"bad header"});
  }
  expect_error([&] { (void)load_header(path("missing"), "m", 1, "ctx"); },
               {"ctx: cannot open", "missing"});
}

TEST_F(SealedTest, TrailerEnvelopeRoundTripsAndNamesDamage) {
  const std::string text = seal_trailer("iba-test", 2, "a = 1\nend\n");
  const std::string head = "iba-test 2\na = 1\nend\n";
  EXPECT_EQ(text,
            head + "crc32 = " + common::crc32_hex(common::crc32(head)) + "\n");
  EXPECT_NO_THROW(verify_trailer(text, "iba-test", 2, "ctx"));
  EXPECT_NO_THROW(verify_trailer(seal_trailer("m", 1, ""), "m", 1, "ctx"));

  expect_error([&] { verify_trailer(text, "iba-test", 3, "ctx"); },
               {"ctx: unsupported version 2 (expected 3)"});
  expect_error([&] { verify_trailer(text + "\n", "iba-test", 2, "ctx"); },
               {"malformed crc trailer"});
  expect_error(
      [&] { verify_trailer(text.substr(0, text.size() - 1), "iba-test", 2,
                           "ctx"); },
      {"missing crc trailer"});
  std::string forged = text;
  forged[forged.size() - 2] = forged[forged.size() - 2] == '0' ? '1' : '0';
  expect_error([&] { verify_trailer(forged, "iba-test", 2, "ctx"); },
               {"crc mismatch"});
}

// -- commit failure paths ---------------------------------------------

enum class Step { kOpen, kWrite, kFsync, kClose, kRename, kSyncDir };

/// posix() with `step` failing with `err` (the real descriptor is still
/// closed when close "fails", so nothing leaks).
FileOps failing_at(Step step, int err) {
  FileOps ops = FileOps::posix();
  const auto fail = [err] {
    errno = err;
    return -1;
  };
  switch (step) {
    case Step::kOpen:
      ops.open = [fail](const char*) { return fail(); };
      break;
    case Step::kWrite:
      ops.write = [fail](int, const char*, std::size_t) -> std::ptrdiff_t {
        return fail();
      };
      break;
    case Step::kFsync:
      ops.fsync = [fail](int) { return fail(); };
      break;
    case Step::kClose:
      ops.close = [fail](int fd) {
        ::close(fd);
        return fail();
      };
      break;
    case Step::kRename:
      ops.rename = [fail](const char*, const char*) { return fail(); };
      break;
    case Step::kSyncDir:
      ops.sync_dir = [fail](const char*) { return fail(); };
      break;
  }
  return ops;
}

void commit_text(const std::string& file, const std::string& text,
                 const FileOps& ops) {
  const std::string_view view = text;
  const std::string_view pieces[] = {view.substr(0, 5), view.substr(5)};
  commit(file, pieces, "unit context", ops);
}

TEST_F(SealedTest, EveryCommitStepFailsCleanly) {
  const struct {
    Step step;
    const char* name;
  } steps[] = {{Step::kOpen, "open"},     {Step::kWrite, "write"},
               {Step::kFsync, "fsync"},   {Step::kClose, "close"},
               {Step::kRename, "rename"}, {Step::kSyncDir, "directory fsync"}};
  const std::string file = path("target");
  const std::string before = "previous generation\n";
  const std::string after = "next generation, longer than before\n";
  for (const auto& s : steps) {
    for (const int err : {ENOSPC, EIO}) {
      SCOPED_TRACE(std::string(s.name) + " / " + std::strerror(err));
      commit(file, before, "setup");
      expect_error([&] { commit_text(file, after, failing_at(s.step, err)); },
                   {"unit context", file, s.name, std::strerror(err)});
      // Up to the rename the previous bytes survive untouched. A failed
      // directory fsync comes after the rename: the complete new file is
      // in place and the caller learns its entry may not be durable.
      EXPECT_EQ(read_file(file, "check"),
                s.step == Step::kSyncDir ? after : before);
      EXPECT_EQ(listing(), std::vector<std::string>{"target"});
    }
  }
}

TEST_F(SealedTest, ShortWritesAreRetried) {
  FileOps ops = FileOps::posix();
  int calls = 0;
  ops.write = [&calls](int fd, const char* data, std::size_t size) {
    ++calls;
    return static_cast<std::ptrdiff_t>(::write(fd, data, size < 3 ? size : 3));
  };
  const std::string file = path("dribble");
  const std::string text = "written three bytes at a time\n";
  commit_text(file, text, ops);
  EXPECT_EQ(read_file(file, "check"), text);
  EXPECT_GT(calls, 10);
  EXPECT_EQ(listing(), std::vector<std::string>{"dribble"});
}

TEST_F(SealedTest, ShortWriteThenFullDiskLeavesThePreviousFile) {
  const std::string file = path("full");
  commit(file, "old\n", "setup");
  FileOps ops = FileOps::posix();
  bool wrote = false;
  ops.write = [&wrote](int fd, const char* data,
                       std::size_t size) -> std::ptrdiff_t {
    if (wrote) {
      errno = ENOSPC;
      return -1;
    }
    wrote = true;
    return ::write(fd, data, size / 2);
  };
  expect_error([&] { commit_text(file, "a longer new body\n", ops); },
               {"write", file, std::strerror(ENOSPC)});
  EXPECT_EQ(read_file(file, "check"), "old\n");
  EXPECT_EQ(listing(), std::vector<std::string>{"full"});
}

TEST_F(SealedTest, KillBeforeRenameLeavesOnlyAStaleTmp) {
  const std::string file = path("ckpt");
  commit_header(file, "iba-test", 1, "old\n", "setup");

  // A child process dies the instant before its rename.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    FileOps ops = FileOps::posix();
    ops.rename = [](const char*, const char*) -> int { ::_exit(0); };
    try {
      commit_text(file, "torn-by-a-kill\n", ops);
    } catch (...) {
    }
    ::_exit(1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // The stale tmp is the only trace; loaders read `path` alone.
  EXPECT_EQ(read_file(file + ".tmp", "check"), "torn-by-a-kill\n");
  EXPECT_EQ(load_header(file, "iba-test", 1, "load"), "old\n");
  // The next commit truncates and replaces it.
  commit_header(file, "iba-test", 1, "new\n", "retry");
  EXPECT_EQ(load_header(file, "iba-test", 1, "load"), "new\n");
  EXPECT_EQ(listing(), std::vector<std::string>{"ckpt"});
}

}  // namespace
}  // namespace iba::io::sealed
