#include <gtest/gtest.h>

#include "util/logging.hh"
#include "util/stats.hh"

namespace madmax
{

TEST(Stats, Mean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({5.0}), 5.0);
    EXPECT_THROW(mean({}), InternalError);
}

TEST(Logging, FatalAndPanicThrowDistinctTypes)
{
    EXPECT_THROW(fatal("user error"), ConfigError);
    EXPECT_THROW(panic("bug"), InternalError);
    try {
        fatal("the message");
    } catch (const ConfigError &e) {
        EXPECT_STREQ(e.what(), "the message");
    }
}

} // namespace madmax
