#include "chrome_trace.hh"

#include <algorithm>
#include <cstdio>
#include <set>

#include "util/json.hh"
#include "util/logging.hh"

namespace mmgen::profiler {

std::string
jsonEscape(const std::string& s)
{
    // Kept as a named entry point for existing callers; the escaping
    // itself lives in the shared json utility.
    return json::escape(s);
}

void
writeChromeTrace(std::ostream& out, const exec::ExecutionPlan& plan,
                 const exec::Timeline& timeline,
                 const ChromeTraceOptions& options)
{
    MMGEN_CHECK(timeline.eventCount() == plan.nodes.size(),
                "timeline has " << timeline.eventCount()
                                << " events for a plan of "
                                << plan.nodes.size() << " nodes");
    MMGEN_CHECK(options.maxRepeatInstances >= 1,
                "need at least one repeat instance");

    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string& json) {
        if (!first)
            out << ",";
        first = false;
        out << "\n" << json;
    };

    // Process metadata: one lane per stage that scheduled any work,
    // pid = stage index + 1 so lanes sort in pipeline order.
    std::set<std::size_t> used_stages;
    for (const exec::PlanNode& node : plan.nodes)
        used_stages.insert(plan.opInfo(node.opIndex).stageIndex);
    for (const std::size_t si : used_stages) {
        const std::string& stage = plan.stageNames[si];
        emit("{\"ph\":\"M\",\"pid\":" + std::to_string(si + 1) +
             ",\"name\":\"process_name\",\"args\":{\"name\":\"" +
             jsonEscape(stage.empty() ? plan.model : stage) +
             "\"}}");
    }

    // Thread metadata: one lane per (stage, stream) in use,
    // tid = stream + 1.
    std::set<std::pair<std::size_t, int>> used_lanes;
    for (std::size_t i = 0; i < timeline.eventCount(); ++i)
        used_lanes.emplace(plan.opInfo(plan.nodes[i].opIndex).stageIndex,
                           static_cast<int>(timeline.eventStream[i]));
    for (const auto& [si, stream] : used_lanes) {
        const exec::Lane lane = stream == 0 ? exec::Lane::Compute
                                            : exec::Lane::Copy;
        emit("{\"ph\":\"M\",\"pid\":" + std::to_string(si + 1) +
             ",\"tid\":" + std::to_string(stream + 1) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"stream " +
             std::to_string(stream) + " (" + exec::laneName(lane) +
             ")\"}}");
    }

    // Complete events at the scheduler's timestamps. A folded repeat
    // draws min(repeat, maxRepeatInstances) slices of the real
    // per-iteration duration; elided iterations are flagged in the
    // slice name instead of silently shortening the lane.
    for (std::size_t i = 0; i < timeline.eventCount(); ++i) {
        const exec::TimelineEvent ev = timeline.event(i);
        const exec::KernelInfo& kernel = plan.kernel(i);
        const exec::OpInfo& op = plan.opInfo(plan.nodes[i].opIndex);
        const int pid = static_cast<int>(op.stageIndex) + 1;
        const int tid = ev.stream + 1;
        const std::int64_t instances = std::min<std::int64_t>(
            kernel.repeat, options.maxRepeatInstances);
        const double per_instance_us =
            ev.durationSeconds() * 1e6 /
            static_cast<double>(kernel.repeat);

        std::string name(plan.str(kernel.label));
        if (instances < kernel.repeat) {
            name += " [x" + std::to_string(kernel.repeat) +
                    ", showing " + std::to_string(instances) + "]";
        }

        double ts = ev.startSeconds * 1e6;
        for (std::int64_t k = 0; k < instances; ++k) {
            char buf[512];
            std::snprintf(
                buf, sizeof(buf),
                "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                "\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"%s\","
                "\"args\":{\"scope\":\"%s\",\"lane\":\"%s\","
                "\"flops\":%.3e,\"hbm_bytes\":%.3e,"
                "\"repeat\":%lld}}",
                pid, tid, ts, per_instance_us,
                jsonEscape(name).c_str(),
                jsonEscape(kernels::kernelClassName(kernel.klass))
                    .c_str(),
                jsonEscape(std::string(plan.str(op.scope))).c_str(),
                exec::laneName(kernel.lane).c_str(), kernel.flops,
                kernel.hbmBytes,
                static_cast<long long>(kernel.repeat));
            emit(buf);
            ts += per_instance_us;
        }
    }
    out << "\n]}\n";
}

} // namespace mmgen::profiler
