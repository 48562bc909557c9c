/**
 * @file
 * Chrome-trace (chrome://tracing, Perfetto) export of a profiled run.
 *
 * Serializes a lowered plan and its scheduled timeline — the per-kernel
 * detail a ProfileResult does not keep; callers schedule the plan the
 * profile priced (`runtime::cachedPlan`) — as a Trace Event Format JSON
 * document: one complete ("X") event per kernel occurrence, with real
 * scheduler timestamps, pipeline stages as process-level lanes and
 * hardware streams as thread lanes, so a simulated inference timeline
 * can be inspected with the same tooling PyTorch Profiler traces are
 * viewed in (paper Section III uses exactly that workflow on real
 * hardware). Compute/copy overlap shows up as concurrent slices on
 * the two stream lanes.
 */

#ifndef MMGEN_PROFILER_CHROME_TRACE_HH
#define MMGEN_PROFILER_CHROME_TRACE_HH

#include <ostream>
#include <string>

#include "exec/plan.hh"
#include "exec/schedule.hh"

namespace mmgen::profiler {

/** Options for trace serialization. */
struct ChromeTraceOptions
{
    /**
     * Draw at most this many timeline instances of a folded repeat (a
     * 50-step denoising loop folded into one node is drawn as
     * min(repeat, maxRepeatInstances) back-to-back slices of the real
     * per-iteration duration). When instances are elided the drawn
     * slices are labeled, e.g. "conv2d [x50, showing 3]", so a folded
     * tail is never mistaken for idle time.
     */
    std::int64_t maxRepeatInstances = 3;
};

/**
 * Write a lowered plan and its scheduled timeline as Trace Event
 * Format JSON. The timeline must have been produced from this plan.
 */
void writeChromeTrace(std::ostream& out,
                      const exec::ExecutionPlan& plan,
                      const exec::Timeline& timeline,
                      const ChromeTraceOptions& options =
                          ChromeTraceOptions());

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string& s);

} // namespace mmgen::profiler

#endif // MMGEN_PROFILER_CHROME_TRACE_HH
