/**
 * @file
 * Export a scheduled Timeline as a Chrome Trace Event Format JSON
 * document (loadable in chrome://tracing or Perfetto) so users can
 * inspect generated compute/communication streams visually, as in the
 * paper's Figs. 6 and 9.
 */

#ifndef MADMAX_TRACE_CHROME_TRACE_HH
#define MADMAX_TRACE_CHROME_TRACE_HH

#include <ostream>
#include <string>

#include "trace/trace_event.hh"

namespace madmax
{

/** Serialize @p timeline as Chrome Trace Event JSON to @p os. */
void writeChromeTrace(const Timeline &timeline, std::ostream &os);

/**
 * Render an ASCII swimlane view of the two streams (the Fig. 6-style
 * visualization benches print). Each column is makespan/width seconds.
 */
std::string asciiStreams(const Timeline &timeline, int width = 72);

} // namespace madmax

#endif // MADMAX_TRACE_CHROME_TRACE_HH
