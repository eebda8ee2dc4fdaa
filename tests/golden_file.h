// Checked-in golden artifacts under tests/golden/: the path, the reader,
// and the RB_UPDATE_GOLDEN regeneration switch every golden test shares.
//
// To regenerate after an intentional behavior change, rerun the failing
// test with RB_UPDATE_GOLDEN=1 set; it rewrites its artifact and skips.

#ifndef TESTS_GOLDEN_FILE_H_
#define TESTS_GOLDEN_FILE_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/json.h"

#ifndef RB_TEST_GOLDEN_DIR
#error "RB_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace rubberband {

inline std::string GoldenPath(const std::string& name) {
  return std::string(RB_TEST_GOLDEN_DIR) + "/" + name;
}

inline std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

inline bool UpdateGoldens() { return std::getenv("RB_UPDATE_GOLDEN") != nullptr; }

// Compares `actual` with the JSON golden `golden_name` schema-aware: both
// sides are parsed and compared by value, so member order and formatting
// churn cannot fail it while a changed number will. A mismatch reports the
// raw strings so the diff is visible. Under RB_UPDATE_GOLDEN the golden is
// rewritten instead and the calling helper returns early (GTEST_SKIP).
inline void CompareAgainstGolden(const std::string& actual, const std::string& golden_name) {
  const std::string path = GoldenPath(golden_name);
  if (UpdateGoldens()) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to update " << path;
    GTEST_SKIP() << "updated " << path;
  }
  const std::string golden = ReadFileOrEmpty(path);
  ASSERT_FALSE(golden.empty()) << path << " is missing; regenerate with RB_UPDATE_GOLDEN=1";
  if (JsonValue::Parse(actual) != JsonValue::Parse(golden)) {
    EXPECT_EQ(actual, golden) << golden_name
                              << " drifted from its golden; if intentional, regenerate with "
                                 "RB_UPDATE_GOLDEN=1";
  }
}

}  // namespace rubberband

#endif  // TESTS_GOLDEN_FILE_H_
