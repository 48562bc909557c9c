#include "telemetry/trace.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "kernels/kernel_cost.hh"
#include "util/logging.hh"

namespace mmgen::telemetry {

int
TraceSink::track(const std::string& process, const std::string& thread)
{
    auto key = std::make_pair(process, thread);
    auto it = trackIds_.find(key);
    if (it != trackIds_.end())
        return it->second;
    int id = static_cast<int>(tracks_.size());
    TraceTrack t;
    t.process = process;
    t.thread = thread;
    // Default sort keys follow registration order; stable because the
    // simulators register tracks deterministically.
    t.processSort = id + 1;
    t.threadSort = id + 1;
    tracks_.push_back(std::move(t));
    trackIds_.emplace(std::move(key), id);
    return id;
}

void
TraceSink::complete(int track, const std::string& name,
                    double startSeconds, double durationSeconds,
                    const std::string& category, Labels args)
{
    MMGEN_ASSERT(track >= 0 &&
                     track < static_cast<int>(tracks_.size()),
                 "unknown trace track " << track);
    MMGEN_CHECK(!std::isnan(startSeconds) && !std::isnan(durationSeconds)
                    && durationSeconds >= 0.0,
                "bad span [" << startSeconds << ", +" << durationSeconds
                             << ") for '" << name << "'");
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::Complete;
    ev.track = track;
    ev.name = name;
    ev.category = category;
    ev.startSeconds = startSeconds;
    ev.durationSeconds = durationSeconds;
    ev.args = std::move(args);
    events_.push_back(std::move(ev));
}

void
TraceSink::instant(int track, const std::string& name, double tSeconds,
                   const std::string& category, Labels args)
{
    MMGEN_ASSERT(track >= 0 &&
                     track < static_cast<int>(tracks_.size()),
                 "unknown trace track " << track);
    MMGEN_CHECK(!std::isnan(tSeconds),
                "instant '" << name << "' at NaN");
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::Instant;
    ev.track = track;
    ev.name = name;
    ev.category = category;
    ev.startSeconds = tSeconds;
    ev.args = std::move(args);
    events_.push_back(std::move(ev));
}

void
TraceSink::setTrackSort(int track, int processSort, int threadSort)
{
    MMGEN_ASSERT(track >= 0 &&
                     track < static_cast<int>(tracks_.size()),
                 "unknown trace track " << track);
    tracks_[static_cast<std::size_t>(track)].processSort = processSort;
    tracks_[static_cast<std::size_t>(track)].threadSort = threadSort;
}

void
appendTimeline(TraceSink& sink, const exec::ExecutionPlan& plan,
               const exec::Timeline& timeline,
               std::int64_t maxRepeatInstances, double timeOffsetSeconds)
{
    MMGEN_CHECK(timeline.eventCount() == plan.nodes.size(),
                "timeline has " << timeline.eventCount()
                                << " events for a plan of "
                                << plan.nodes.size() << " nodes");
    MMGEN_CHECK(maxRepeatInstances >= 1,
                "need at least one repeat instance");

    // Offset exec pid sort keys past any serving tracks already in
    // the sink so the kernel timeline groups below the serving lanes.
    int pid_base = 0;
    for (const TraceTrack& t : sink.tracks())
        pid_base = std::max(pid_base, t.processSort);

    // One track per (stage, stream) that scheduled work, mirroring
    // profiler::writeChromeTrace's lane layout.
    std::map<std::pair<std::size_t, int>, int> lanes;
    for (std::size_t i = 0; i < timeline.eventCount(); ++i) {
        const int stream = static_cast<int>(timeline.eventStream[i]);
        const std::size_t si =
            plan.opInfo(plan.nodes[i].opIndex).stageIndex;
        auto key = std::make_pair(si, stream);
        if (lanes.count(key))
            continue;
        const std::string& stage = plan.stageNames[si];
        const exec::Lane lane = stream == 0 ? exec::Lane::Compute
                                            : exec::Lane::Copy;
        int id = sink.track(
            "stage: " + (stage.empty() ? plan.model : stage),
            "stream " + std::to_string(stream) + " (" +
                exec::laneName(lane) + ")");
        // Rewrite sort keys so exported pids follow pipeline order
        // and tids follow stream ids, matching the profiler trace.
        sink.setTrackSort(id, pid_base + static_cast<int>(si) + 1,
                          stream + 1);
        lanes.emplace(key, id);
    }

    for (std::size_t i = 0; i < timeline.eventCount(); ++i) {
        const exec::TimelineEvent ev = timeline.event(i);
        const exec::KernelInfo& kernel = plan.kernel(i);
        const exec::OpInfo& op = plan.opInfo(plan.nodes[i].opIndex);
        const int track =
            lanes.at({op.stageIndex, ev.stream});
        const std::int64_t instances =
            std::min<std::int64_t>(kernel.repeat, maxRepeatInstances);
        const double per_instance =
            ev.durationSeconds() / static_cast<double>(kernel.repeat);

        std::string name(plan.str(kernel.label));
        if (instances < kernel.repeat) {
            name += " [x" + std::to_string(kernel.repeat) + ", showing " +
                    std::to_string(instances) + "]";
        }

        Labels args;
        args.set("scope", std::string(plan.str(op.scope)));
        args.set("lane", exec::laneName(kernel.lane));
        args.set("repeat", std::to_string(kernel.repeat));

        double ts = ev.startSeconds + timeOffsetSeconds;
        for (std::int64_t k = 0; k < instances; ++k) {
            sink.complete(track, name, ts, per_instance,
                          kernels::kernelClassName(kernel.klass), args);
            ts += per_instance;
        }
    }
}

} // namespace mmgen::telemetry
