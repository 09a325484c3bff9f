/**
 * @file
 * Pins the paper reproduction (bench/paper.hh): each figure's printed
 * output against tests/golden/paper/<name>.txt, and madmax_paper's
 * no-argument output against those goldens in kFigures order, and the
 * Fig. 1 table against its historical snapshot. After an intentional
 * model change, regenerate with
 *
 *   MADMAX_REGEN_GOLDEN=1 ./test_paper_outputs
 *
 * and name the rows that moved in CHANGES.md.
 */

#include <cstdio>
#include <iterator>
#include <sys/wait.h>

#include "golden_check.hh"
#include "paper.hh"

using namespace madmax;
using madmax::testing::checkGolden;
using madmax::testing::goldenDir;

namespace
{

class PaperOutput : public ::testing::TestWithParam<size_t>
{
};

TEST_P(PaperOutput, MatchesGolden)
{
    const paper::Figure &fig = paper::kFigures[GetParam()];
    std::ostringstream out;
    fig.print(out);
    checkGolden(std::string("paper/") + fig.name + ".txt", out.str());
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PaperOutput,
    ::testing::Range<size_t>(0, std::size(paper::kFigures)),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return std::string(paper::kFigures[info.param].name);
    });

// The Fig. 1 table (everything fig01 prints after its banner) must
// stay byte-identical to the historical per-instance explorer sweep,
// captured before the figure moved onto the ParetoEngine. This
// snapshot holds the table alone, so banner edits leave it untouched.
TEST(ParetoGolden, Fig01FrontierTableIsByteIdentical)
{
    std::ostringstream out;
    paper::fig01(out);
    const std::string text = out.str();
    const size_t table = text.find("\n+");
    ASSERT_NE(table, std::string::npos) << "fig01 printed no table";
    checkGolden("fig01_pareto_frontier.txt", text.substr(table + 1));
}

TEST(PaperBinary, NoNamesPrintsEveryGoldenInTableOrder)
{
    if (std::getenv("MADMAX_REGEN_GOLDEN") != nullptr)
        GTEST_SKIP() << "the goldens are being rewritten";
    std::string want;
    for (const paper::Figure &fig : paper::kFigures) {
        std::ifstream in(goldenDir() + "/paper/" + fig.name + ".txt");
        ASSERT_TRUE(in.good()) << "missing golden for " << fig.name;
        std::ostringstream golden;
        golden << in.rdbuf();
        want += golden.str();
    }
    FILE *pipe = popen(MADMAX_PAPER_BIN, "r");
    ASSERT_NE(pipe, nullptr);
    std::string got;
    char buf[4096];
    for (size_t n; (n = fread(buf, 1, sizeof buf, pipe)) > 0;)
        got.append(buf, n);
    const int status = pclose(pipe);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_TRUE(got == want) << "madmax_paper printed " << got.size()
                             << " bytes, the goldens hold "
                             << want.size();
}

} // namespace
