/**
 * @file
 * Shared golden-snapshot comparison for the snapshot suites
 * (tests/core/test_golden_reports.cc, tests/dse/test_pareto_engine.cc,
 * tests/bench/test_paper_outputs.cc). Snapshots live in tests/golden/;
 * regenerate them — only when an *intentional* model change lands —
 * with:
 *
 *   MADMAX_REGEN_GOLDEN=1 ./test_golden_reports
 *   MADMAX_REGEN_GOLDEN=1 ./test_pareto_engine
 *   MADMAX_REGEN_GOLDEN=1 ./test_paper_outputs
 *
 * CI's golden-drift step runs exactly that and `git diff
 * --exit-code`s the result, so silent report drift cannot land even
 * if a golden test is skipped or filtered out.
 */

#ifndef MADMAX_TESTS_GOLDEN_CHECK_HH
#define MADMAX_TESTS_GOLDEN_CHECK_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace madmax::testing
{

inline std::string
goldenDir()
{
    return std::string(MADMAX_CONFIG_DIR) + "/../tests/golden";
}

/** Compare @p got against the checked-in golden file, or rewrite the
 *  file when MADMAX_REGEN_GOLDEN is set. */
inline void
checkGolden(const std::string &file, const std::string &got)
{
    const std::string path = goldenDir() + "/" + file;
    if (std::getenv("MADMAX_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with MADMAX_REGEN_GOLDEN=1)";
    std::ostringstream want;
    want << in.rdbuf();
    // EXPECT_EQ on multi-MB strings prints unusable diffs; locate the
    // first differing line instead.
    if (got == want.str()) {
        SUCCEED();
        return;
    }
    std::istringstream gotLines(got), wantLines(want.str());
    std::string g, w;
    int line = 1;
    while (std::getline(gotLines, g) && std::getline(wantLines, w)) {
        ASSERT_EQ(g, w) << file << ": first divergence at line " << line;
        ++line;
    }
    FAIL() << file << ": dumps differ in length (" << got.size()
           << " vs " << want.str().size() << " bytes)";
}

} // namespace madmax::testing

#endif // MADMAX_TESTS_GOLDEN_CHECK_HH
