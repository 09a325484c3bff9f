#include "trace/chrome_trace.hh"

#include <algorithm>

#include "util/strfmt.hh"

namespace madmax
{

namespace
{

/** Escape a string for embedding in a JSON literal. */
std::string
jsonEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size() + 8);
    for (char c : in) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

} // namespace

void
writeChromeTrace(const Timeline &timeline, std::ostream &os)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const ScheduledEvent &se : timeline.events) {
        if (se.event.duration <= 0.0)
            continue;
        if (!first)
            os << ",";
        first = false;
        // tid 0 = compute stream, tid 1 = communication stream.
        int tid = se.event.stream == StreamKind::Compute ? 0 : 1;
        // Collective events carry the algorithm the cost model chose;
        // compute events carry none.
        std::string algo;
        if (se.event.algo != CollAlgo::None) {
            algo = strfmt(",\"algo\":\"%s\"",
                          toString(se.event.algo).c_str());
        }
        os << strfmt(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
            "\"args\":{\"layer\":%d,\"phase\":\"%s\",\"blocking\":%s%s}}",
            jsonEscape(se.event.name).c_str(),
            toString(se.event.category).c_str(),
            se.start * 1e6, (se.finish - se.start) * 1e6, tid,
            se.event.layerIdx, se.event.backward ? "bwd" : "fwd",
            se.event.blocking ? "true" : "false", algo.c_str());
    }
    os << "],\"displayTimeUnit\":\"ms\"}";
}

std::string
asciiStreams(const Timeline &timeline, int width)
{
    if (timeline.makespan <= 0.0 || width <= 0)
        return {};

    auto render = [&](StreamKind kind) {
        std::string lane(static_cast<size_t>(width), '.');
        for (const ScheduledEvent &se : timeline.events) {
            if (se.event.stream != kind || se.event.duration <= 0.0)
                continue;
            int lo = static_cast<int>(se.start / timeline.makespan * width);
            int hi = static_cast<int>(se.finish / timeline.makespan * width);
            lo = std::clamp(lo, 0, width - 1);
            hi = std::clamp(hi, lo + 1, width);
            char fill = '#';
            if (kind == StreamKind::Communication)
                fill = se.event.blocking ? '=' : '-';
            for (int i = lo; i < hi; ++i)
                lane[static_cast<size_t>(i)] = fill;
            // Tag the block with the start of its name if it fits.
            const std::string &nm = se.event.name;
            for (int i = 0; i < hi - lo - 1 &&
                     i < static_cast<int>(nm.size()); ++i) {
                lane[static_cast<size_t>(lo + i)] = nm[static_cast<size_t>(i)];
            }
        }
        return lane;
    };

    std::string out;
    out += "compute | " + render(StreamKind::Compute) + "\n";
    out += "comm    | " + render(StreamKind::Communication) + "\n";
    out += strfmt("          0%*s%s\n", width - 1, "",
                  formatTime(timeline.makespan).c_str());
    return out;
}

} // namespace madmax
