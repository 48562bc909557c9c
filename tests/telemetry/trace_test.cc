/**
 * @file
 * Tests for the trace sink: track interning, span/instant recording
 * invariants, sort-key overrides, exec-timeline merging with PlanNode
 * provenance, and the Chrome Trace Event export structure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>

#include "models/stable_diffusion.hh"
#include "profiler/engine.hh"
#include "telemetry/export.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"

namespace mmgen::telemetry {
namespace {

std::string
labelValue(const Labels& labels, const std::string& key)
{
    for (const auto& [k, v] : labels.items())
        if (k == key)
            return v;
    return "";
}

std::size_t
countOccurrences(const std::string& haystack, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(TraceSink, InternsTracksByProcessThreadPair)
{
    TraceSink sink;
    const int a = sink.track("serving", "lifecycle");
    const int b = sink.track("serving", "gpu 0");
    const int c = sink.track("serving", "lifecycle");
    EXPECT_EQ(a, c);
    EXPECT_NE(a, b);
    ASSERT_EQ(sink.tracks().size(), 2u);
    EXPECT_EQ(sink.tracks()[0].process, "serving");
    EXPECT_EQ(sink.tracks()[0].thread, "lifecycle");
    // Default sort keys follow registration order, 1-based.
    EXPECT_EQ(sink.tracks()[0].processSort, 1);
    EXPECT_EQ(sink.tracks()[1].processSort, 2);
}

TEST(TraceSink, RecordsSpansAndInstantsInInsertionOrder)
{
    TraceSink sink;
    const int t = sink.track("serving", "gpu 0");
    EXPECT_TRUE(sink.empty());
    sink.complete(t, "batch", 10.0, 2.5, "dispatch",
                  Labels{{"size", "4"}});
    sink.instant(t, "admit", 12.0, "lifecycle");
    EXPECT_FALSE(sink.empty());
    ASSERT_EQ(sink.events().size(), 2u);
    const TraceEvent& span = sink.events()[0];
    EXPECT_EQ(span.phase, TraceEvent::Phase::Complete);
    EXPECT_EQ(span.name, "batch");
    EXPECT_EQ(span.startSeconds, 10.0);
    EXPECT_EQ(span.durationSeconds, 2.5);
    EXPECT_EQ(span.args.str(), "size=4");
    EXPECT_EQ(sink.events()[1].phase, TraceEvent::Phase::Instant);
}

TEST(TraceSink, RejectsMalformedSpans)
{
    TraceSink sink;
    const int t = sink.track("p", "t");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(sink.complete(t, "neg", 0.0, -1.0), FatalError);
    EXPECT_THROW(sink.complete(t, "nan", nan, 1.0), FatalError);
    EXPECT_THROW(sink.instant(t, "nan", nan), FatalError);
    // Zero-duration spans are fine (instant-sized work).
    EXPECT_NO_THROW(sink.complete(t, "zero", 5.0, 0.0));
}

TEST(TraceSink, SetTrackSortOverridesExportKeys)
{
    TraceSink sink;
    const int t = sink.track("exec", "stream 0");
    sink.setTrackSort(t, 7, 3);
    EXPECT_EQ(sink.tracks()[0].processSort, 7);
    EXPECT_EQ(sink.tracks()[0].threadSort, 3);
}

TEST(ChromeExport, GroupsTracksSharingAProcessUnderOnePid)
{
    TraceSink sink;
    const int life = sink.track("serving", "lifecycle");
    const int gpu = sink.track("serving", "gpu 0");
    const int other = sink.track("chaos", "events");
    sink.complete(gpu, "batch", 1.0, 2.0);
    sink.instant(life, "admit", 1.5);
    sink.instant(other, "kill", 3.0);
    std::ostringstream out;
    writeChromeTrace(out, sink);
    const std::string text = out.str();
    // One process_name metadata entry per distinct process.
    EXPECT_EQ(countOccurrences(text, "\"process_name\""), 2u);
    // Both serving lanes share the smallest processSort in the group.
    EXPECT_NE(text.find("\"name\":\"serving\""), std::string::npos);
    EXPECT_EQ(countOccurrences(text, "\"pid\":1"), 8u)
        << "2 process metas, 2x2 thread metas, and both serving "
        << "events share pid 1:\n"
        << text;
    // Complete spans export as ph:X with dur; instants as ph:i.
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"X\""), 1u);
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"i\""), 2u);
    EXPECT_NE(text.find("\"dur\":"), std::string::npos);
    // Timestamps are microseconds: 1 s -> 1000000.000.
    EXPECT_NE(text.find("\"ts\":1000000.000"), std::string::npos);
}

TEST(ChromeExport, EscapesEventNamesAndArgs)
{
    TraceSink sink;
    const int t = sink.track("p", "t");
    sink.instant(t, "say \"hi\"\n", 0.0, "",
                 Labels{{"k", "v\\w"}});
    std::ostringstream out;
    writeChromeTrace(out, sink);
    EXPECT_NE(out.str().find("say \\\"hi\\\"\\n"), std::string::npos);
    EXPECT_NE(out.str().find("v\\\\w"), std::string::npos);
}

/** A lowered plan and its scheduled timeline. */
struct ScheduledPlan
{
    std::shared_ptr<const exec::ExecutionPlan> plan;
    exec::Timeline timeline;
};

/** Shared fixture: Stable Diffusion's plan, scheduled. */
const ScheduledPlan&
profiledStableDiffusion()
{
    static const ScheduledPlan res = [] {
        const profiler::ProfileOptions opts;
        auto plan = std::make_shared<const exec::ExecutionPlan>(
            profiler::Profiler(opts).lower(
                models::buildStableDiffusion()));
        exec::Timeline timeline =
            exec::TimelineScheduler(opts.gpu, opts.schedule)
                .schedule(*plan);
        return ScheduledPlan{std::move(plan), std::move(timeline)};
    }();
    return res;
}

TEST(AppendTimeline, AddsStageLanesWithProvenance)
{
    const ScheduledPlan& res = profiledStableDiffusion();
    ASSERT_NE(res.plan, nullptr);
    TraceSink sink;
    appendTimeline(sink, *res.plan, res.timeline);
    ASSERT_FALSE(sink.events().empty());
    // Every track is a "stage: NAME" process with a stream thread.
    for (const TraceTrack& t : sink.tracks()) {
        EXPECT_EQ(t.process.rfind("stage: ", 0), 0u) << t.process;
        EXPECT_EQ(t.thread.rfind("stream ", 0), 0u) << t.thread;
    }
    // Spans carry PlanNode provenance in their args and have
    // non-negative durations in ascending per-lane time.
    for (const TraceEvent& ev : sink.events()) {
        EXPECT_EQ(ev.phase, TraceEvent::Phase::Complete);
        EXPECT_GE(ev.durationSeconds, 0.0);
        EXPECT_FALSE(labelValue(ev.args, "scope").empty());
        EXPECT_FALSE(labelValue(ev.args, "repeat").empty());
    }
}

TEST(AppendTimeline, FoldedRepeatsAreElidedWithAnnotation)
{
    const ScheduledPlan& res = profiledStableDiffusion();
    TraceSink sink;
    appendTimeline(sink, *res.plan, res.timeline,
                   /*maxRepeatInstances=*/2);
    // Diffusion denoising repeats far more than twice, so at least
    // one span must be flagged as showing a truncated expansion.
    bool sawElision = false;
    for (const TraceEvent& ev : sink.events())
        sawElision = sawElision ||
                     ev.name.find(", showing 2]") != std::string::npos;
    EXPECT_TRUE(sawElision);
    EXPECT_THROW(
        appendTimeline(sink, *res.plan, res.timeline, 0),
        FatalError);
}

TEST(AppendTimeline, ExecLanesSortBelowExistingServingTracks)
{
    const ScheduledPlan& res = profiledStableDiffusion();
    TraceSink sink;
    const int serving = sink.track("serving", "lifecycle");
    sink.setTrackSort(serving, 4, 1);
    appendTimeline(sink, *res.plan, res.timeline);
    for (std::size_t i = 1; i < sink.tracks().size(); ++i)
        EXPECT_GT(sink.tracks()[i].processSort, 4);
}

TEST(AppendTimeline, TimeOffsetShiftsEverySpan)
{
    const ScheduledPlan& res = profiledStableDiffusion();
    TraceSink base, shifted;
    appendTimeline(base, *res.plan, res.timeline);
    appendTimeline(shifted, *res.plan, res.timeline, 3, 100.0);
    ASSERT_EQ(base.events().size(), shifted.events().size());
    for (std::size_t i = 0; i < base.events().size(); ++i)
        EXPECT_DOUBLE_EQ(shifted.events()[i].startSeconds,
                         base.events()[i].startSeconds + 100.0);
}

TEST(AppendTimeline, ExportIsDeterministic)
{
    const ScheduledPlan& res = profiledStableDiffusion();
    std::ostringstream a, b;
    {
        TraceSink sink;
        appendTimeline(sink, *res.plan, res.timeline);
        writeChromeTrace(a, sink);
    }
    {
        TraceSink sink;
        appendTimeline(sink, *res.plan, res.timeline);
        writeChromeTrace(b, sink);
    }
    EXPECT_EQ(a.str(), b.str());
    EXPECT_FALSE(a.str().empty());
}

} // namespace
} // namespace mmgen::telemetry
