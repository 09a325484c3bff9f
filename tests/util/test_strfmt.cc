#include <gtest/gtest.h>

#include "util/strfmt.hh"

namespace madmax
{

TEST(Strfmt, BasicFormatting)
{
    EXPECT_EQ(strfmt("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
    EXPECT_EQ(strfmt("%.2f", 3.14159), "3.14");
    EXPECT_EQ(strfmt("%s", "hello"), "hello");
    EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(Strfmt, LongStringsExpandBuffer)
{
    std::string big(5000, 'x');
    EXPECT_EQ(strfmt("%s", big.c_str()).size(), 5000u);
}

TEST(Strfmt, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512.00 B");
    EXPECT_EQ(formatBytes(1024), "1.00 KiB");
    EXPECT_EQ(formatBytes(40.0 * 1024 * 1024 * 1024), "40.00 GiB");
    EXPECT_EQ(formatBytes(1.5 * 1024 * 1024), "1.50 MiB");
}

TEST(Strfmt, FormatTimeAdaptiveUnits)
{
    EXPECT_EQ(formatTime(0.0653), "65.300 ms");
    EXPECT_EQ(formatTime(2.5), "2.500 s");
    EXPECT_EQ(formatTime(90.0), "1.50 min");
    EXPECT_EQ(formatTime(7200.0), "2.00 hr");
    EXPECT_EQ(formatTime(1814400.0), "21.00 days");
    EXPECT_EQ(formatTime(5e-6), "5.000 us");
    EXPECT_EQ(formatTime(5e-9), "5.000 ns");
}

TEST(Strfmt, FormatCount)
{
    EXPECT_EQ(formatCount(793e9), "793.00B");
    EXPECT_EQ(formatCount(638e6), "638.00M");
    EXPECT_EQ(formatCount(1.8e12), "1.80T");
    EXPECT_EQ(formatCount(42), "42");
}

TEST(Strfmt, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.7546), "75.46%");
    EXPECT_EQ(formatPercent(1.0), "100.00%");
}

} // namespace madmax
