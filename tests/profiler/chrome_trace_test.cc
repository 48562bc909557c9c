/**
 * @file
 * Tests for the Chrome-trace exporter: golden document structure,
 * per-lane metadata, monotone scheduler timestamps, folded-repeat
 * labeling, and JSON escaping edge cases.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "profiler/chrome_trace.hh"
#include "profiler/engine.hh"
#include "util/logging.hh"

namespace mmgen::profiler {
namespace {

/** A lowered plan and its scheduled timeline: what the exporter draws. */
struct Traced
{
    exec::ExecutionPlan plan;
    exec::Timeline timeline;
};

Traced
trace(const graph::Pipeline& p, const ProfileOptions& opts)
{
    Traced t{Profiler(opts).lower(p), {}};
    t.timeline =
        exec::TimelineScheduler(opts.gpu, opts.schedule).schedule(t.plan);
    return t;
}

/** Write `t` as a Chrome trace, returning the JSON document. */
std::string
traceJson(const Traced& t,
          const ChromeTraceOptions& options = ChromeTraceOptions())
{
    std::ostringstream oss;
    writeChromeTrace(oss, t.plan, t.timeline, options);
    return oss.str();
}

Traced
smallTrace()
{
    graph::Pipeline p;
    p.name = "toy";
    graph::Stage s;
    s.name = "stage_a";
    s.iterations = 5;
    s.emit = [](graph::GraphBuilder& b, std::int64_t) {
        b.conv2d(TensorDesc({1, 8, 16, 16}, DType::F16), 8);
        b.attention(graph::AttentionKind::SelfSpatial, 1, 2, 64, 64,
                    16);
    };
    p.stages.push_back(std::move(s));
    return trace(p, ProfileOptions());
}

/** A trace whose plan streams weights onto the copy lane. */
Traced
overlappedTrace()
{
    graph::Pipeline p;
    p.name = "streamer";
    graph::Stage s;
    s.name = "mlp";
    s.iterations = 2;
    s.emit = [](graph::GraphBuilder& b, std::int64_t) {
        // 4096x4096 f16 weights: 32 MiB of memory-bound traffic.
        b.linear(TensorDesc({1, 1, 4096}, DType::F16), 4096);
        b.linear(TensorDesc({1, 1, 4096}, DType::F16), 4096);
    };
    p.stages.push_back(std::move(s));
    ProfileOptions opts;
    opts.lowering.splitWeightStreams = true;
    opts.schedule.streams = 2;
    return trace(p, opts);
}

std::size_t
countOccurrences(const std::string& s, const std::string& needle)
{
    std::size_t n = 0, pos = 0;
    while ((pos = s.find(needle, pos)) != std::string::npos) {
        ++n;
        pos += needle.size();
    }
    return n;
}

/** All "ts" values in emission order. */
std::vector<double>
timestamps(const std::string& json)
{
    std::vector<double> out;
    std::size_t pos = 0;
    while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
        pos += 5;
        out.push_back(std::stod(json.substr(pos)));
    }
    return out;
}

TEST(JsonEscape, HandlesSpecials)
{
    EXPECT_EQ(jsonEscape(""), "");
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
    EXPECT_EQ(jsonEscape(std::string(1, '\x02')), "\\u0002");
    // Last control char below the printable range...
    EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
    // ...and the first printable char passes through untouched.
    EXPECT_EQ(jsonEscape(" "), " ");
    EXPECT_EQ(jsonEscape("mix\"ed\\and\nplain"),
              "mix\\\"ed\\\\and\\nplain");
}

TEST(ChromeTrace, RejectsForeignTimeline)
{
    // A timeline scheduled from another plan has the wrong events.
    const Traced small = smallTrace();
    const Traced other = overlappedTrace();
    std::ostringstream oss;
    EXPECT_THROW(writeChromeTrace(oss, small.plan, other.timeline),
                 FatalError);
}

TEST(ChromeTrace, EmitsWellFormedEvents)
{
    const std::string json = traceJson(smallTrace());

    // Structural sanity: balanced-ish JSON with the expected keys.
    EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\""), 0u);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Events carry kernel labels, lowercase kernel-class categories,
    // and the op's scope.
    EXPECT_NE(json.find("\"name\":\"conv2d"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"flash_fused"), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"conv\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"gemm\""), std::string::npos);
    // Stage lane metadata (process) and stream lane metadata (thread).
    EXPECT_NE(json.find("\"name\":\"process_name\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"stage_a\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"thread_name\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"stream 0 (compute)\""),
              std::string::npos);
    // Braces balance.
    std::int64_t depth = 0;
    bool in_string = false;
    char prev = 0;
    for (char c : json) {
        if (c == '"' && prev != '\\')
            in_string = !in_string;
        if (!in_string) {
            depth += c == '{';
            depth -= c == '}';
        }
        prev = c;
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(ChromeTrace, GoldenEventStructure)
{
    const std::string json = traceJson(smallTrace());

    // One stage lane, one stream lane, and 2 nodes x min(5, 3 default)
    // repeat instances.
    EXPECT_EQ(countOccurrences(json, "\"name\":\"process_name\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"thread_name\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 6u);
    // Every complete event sits on the stage's pid and stream 0's tid.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\",\"pid\":1,\"tid\":1"),
              6u);
    // Both folded nodes advertise the elision.
    EXPECT_EQ(countOccurrences(json, " [x5, showing 3]\""), 6u);

    // Scheduler timestamps are monotone: the serial schedule emits
    // back-to-back slices in program order.
    const std::vector<double> ts = timestamps(json);
    ASSERT_EQ(ts.size(), 6u);
    EXPECT_EQ(ts.front(), 0.0);
    for (std::size_t i = 1; i < ts.size(); ++i)
        EXPECT_GE(ts[i], ts[i - 1]) << "event " << i;
}

TEST(ChromeTrace, RepeatInstancesCapped)
{
    const Traced small = smallTrace(); // ops repeat 5x
    ChromeTraceOptions one;
    one.maxRepeatInstances = 1;
    const std::string capped = traceJson(small, one);
    ChromeTraceOptions many;
    many.maxRepeatInstances = 100;
    const std::string expanded = traceJson(small, many);

    EXPECT_EQ(countOccurrences(capped, "\"ph\":\"X\""), 2u);
    // 2 ops x 5 repeats, nothing elided, so no folded labels.
    EXPECT_EQ(countOccurrences(expanded, "\"ph\":\"X\""), 10u);
    EXPECT_EQ(countOccurrences(expanded, "showing"), 0u);

    // The capped document labels the fold on every drawn slice.
    EXPECT_NE(capped.find("\"conv2d [x5, showing 1]\""),
              std::string::npos);
    EXPECT_NE(capped.find("\"flash_fused [x5, showing 1]\""),
              std::string::npos);

    ChromeTraceOptions zero;
    zero.maxRepeatInstances = 0;
    EXPECT_THROW(traceJson(small, zero), FatalError);
}

TEST(ChromeTrace, OverlappedScheduleShowsBothStreamLanes)
{
    const Traced overlapped = overlappedTrace();
    ASSERT_TRUE(overlapped.plan.hasWeightStreams);
    const std::string json = traceJson(overlapped);

    EXPECT_NE(json.find("\"name\":\"stream 0 (compute)\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"stream 1 (copy)\""),
              std::string::npos);
    EXPECT_NE(json.find("weight_stream"), std::string::npos);
    EXPECT_NE(json.find("\"lane\":\"copy\""), std::string::npos);
    EXPECT_NE(json.find("\"lane\":\"compute\""), std::string::npos);
}

} // namespace
} // namespace mmgen::profiler
