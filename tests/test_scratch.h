#ifndef KGFD_TESTS_TEST_SCRATCH_H_
#define KGFD_TESTS_TEST_SCRATCH_H_

// Per-test scratch paths. ctest runs every gtest case as its own process,
// in parallel under `ctest -j`, and two build trees may run their suites on
// one machine at once; a fixed name under ::testing::TempDir() lets those
// processes read each other's half-written files. Every test file takes its
// scratch paths from here (the tempdir_lint ctest enforces it).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace kgfd {

/// TempDir()/kgfd_<suite>.<test>_<pid>_<stem>: unique per running test
/// process. Outside a test body (a static fixture built before any test
/// runs) the suite and test parts read "global".
inline std::string ScratchPath(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : "global";
  // Parameterized suites and tests carry '/' in their names.
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  return dir + "kgfd_" + name + "_" + std::to_string(::getpid()) + "_" + stem;
}

/// A fresh, empty ScratchPath(stem) directory, removed with everything in
/// it on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& stem = "dir")
      : path_(ScratchPath(stem)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  /// `name` inside the directory.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace kgfd

#endif  // KGFD_TESTS_TEST_SCRATCH_H_
