#include <gtest/gtest.h>

#include "trace/trace_event.hh"

namespace madmax
{

TEST(TraceEvent, Names)
{
    EXPECT_EQ(toString(StreamKind::Compute), "compute");
    EXPECT_EQ(toString(StreamKind::Communication), "communication");
    EXPECT_EQ(toString(EventCategory::EmbeddingLookup), "EmbLookup");
    EXPECT_EQ(toString(EventCategory::Gemm), "GEMM");
    EXPECT_EQ(toString(EventCategory::All2All), "All2All");
    EXPECT_EQ(toString(EventCategory::Memcpy), "Memcpy");
}

} // namespace madmax
