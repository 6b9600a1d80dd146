#pragma once

// Per-test files under the temp directory. A path names the process and the
// running test, so concurrent copies of a suite (or of one test) never write
// each other's files, and the file is removed when the test ends.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "util/strings.hpp"

namespace fs2::tests {

/// A path in the temp directory for the running test; the file, if anything
/// wrote one, is removed when the object dies.
class TempFile {
 public:
  /// `name` tells one test's files apart ("campaign", "trace.json").
  explicit TempFile(const std::string& name) : path_(path_for(name)) {}
  /// A file holding `text`.
  TempFile(const std::string& name, const std::string& text) : TempFile(name) {
    std::ofstream(path_) << text;
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  ~TempFile() {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  const std::string& path() const { return path_; }

 private:
  static std::string path_for(const std::string& name) {
    const ::testing::TestInfo& test = *::testing::UnitTest::GetInstance()->current_test_info();
    std::string file = strings::format("fs2_%d_%s.%s.%s", static_cast<int>(::getpid()),
                                       test.test_suite_name(), test.name(), name.c_str());
    // Value-parameterized tests carry '/' in their names.
    std::replace(file.begin(), file.end(), '/', '_');
    return (std::filesystem::temp_directory_path() / file).string();
  }

  std::string path_;
};

/// A campaign file holding `text`.
class TempCampaign : public TempFile {
 public:
  explicit TempCampaign(const std::string& text) : TempFile("campaign", text) {}
};

}  // namespace fs2::tests
