// Per-test scratch directory: unique per test case and per process, so
// concurrent runs (ctest -j, parallel invocations of one binary) never
// share a file. Created empty on construction, removed on destruction.
// Construct it inside a test body or a fixture, where gtest's current test
// is set.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace crpm {

class CaseDir {
 public:
  CaseDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string("crpm_test.") + info->test_suite_name() +
                       "." + info->name() + "." + std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~CaseDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  CaseDir(const CaseDir&) = delete;
  CaseDir& operator=(const CaseDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace crpm
