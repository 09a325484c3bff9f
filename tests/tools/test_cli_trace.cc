/**
 * @file
 * `madmax_cli evaluate --trace` end to end: the binary writes a Chrome
 * trace that parses as JSON and reaches the iteration-end barrier. The
 * barrier itself has zero duration, which the trace writer skips
 * (ChromeTrace.SkipsZeroDurationEvents), so its time is what is
 * checked: the latest event end equals the reported iteration time.
 * Built only with the CLI (MADMAX_BUILD_TOOLS), so the sanitizer jobs
 * run the CLI's trace path too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#include "config/json.hh"

namespace madmax
{

namespace
{

/** Run @p command, returning its stdout and setting @p status. */
std::string
capture(const std::string &command, int &status)
{
    std::string out;
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) {
        status = -1;
        return out;
    }
    char buf[4096];
    for (size_t n; (n = fread(buf, 1, sizeof buf, pipe)) > 0;)
        out.append(buf, n);
    status = pclose(pipe);
    return out;
}

/** The shipped system configs DLRM-A's optimal plan is traced on. */
struct TraceCase
{
    const char *name;
    const char *system;
};
constexpr TraceCase kCases[] = {{"Flat", "system_zionex.json"},
                                {"Topology", "system_zionex_topo.json"}};

class CliTrace : public ::testing::TestWithParam<size_t>
{
};

TEST_P(CliTrace, WritesJsonReachingTheIterationEndBarrier)
{
    const std::string configs = MADMAX_CONFIG_DIR;
    const std::string trace = ::testing::TempDir() + "madmax_cli_trace_" +
        std::to_string(getpid()) + ".json";
    int status = 0;
    const std::string stdoutText = capture(
        std::string(MADMAX_CLI_BIN) + " evaluate --model " + configs +
            "/model_dlrm_a.json --system " + configs + "/" +
            kCases[GetParam()].system +
            " --task " + configs + "/task_pretrain_optimal.json --trace " +
            trace + " --json",
        status);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << stdoutText;
    const double iterationUs =
        JsonValue::parse(stdoutText).at("iteration_seconds").asDouble() *
        1e6;

    JsonValue doc = JsonValue::parseFile(trace);
    std::remove(trace.c_str());
    const JsonValue::Array &events = doc.at("traceEvents").asArray();
    ASSERT_FALSE(events.empty());
    double lastEnd = 0.0;
    for (const JsonValue &ev : events) {
        lastEnd = std::max(lastEnd, ev.at("ts").asDouble() +
                                        ev.at("dur").asDouble());
    }
    // ts and dur are printed to 0.001 us.
    EXPECT_NEAR(lastEnd, iterationUs, 0.002);
}

INSTANTIATE_TEST_SUITE_P(
    Systems, CliTrace, ::testing::Range<size_t>(0, std::size(kCases)),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return std::string(kCases[info.param].name);
    });

} // namespace

} // namespace madmax
