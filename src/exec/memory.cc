#include "memory.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace mmgen::exec {

namespace {

/** One endpoint of a scheduled live interval. */
struct SweepEvent
{
    double time = 0.0;
    /** +bytes at interval start, -bytes at interval end. */
    double delta = 0.0;
    /** Index into Liveness::buffers (tie-break + live tracking). */
    std::size_t buffer = 0;
    bool isAlloc = false;
};

/**
 * Deterministic sweep order: by time; allocations before frees at
 * equal time (closed intervals — a buffer freed at t and one
 * allocated at t coexist); buffer index last so ties are stable.
 */
bool
sweepBefore(const SweepEvent& a, const SweepEvent& b)
{
    if (a.time != b.time)
        return a.time < b.time;
    if (a.isAlloc != b.isAlloc)
        return a.isAlloc; // allocs first
    return a.buffer < b.buffer;
}

} // namespace

MemoryProfile
analyzeMemory(const ExecutionPlan& plan, const Timeline& timeline)
{
    MMGEN_CHECK(timeline.eventCount() == plan.nodes.size(),
                "timeline has " << timeline.eventCount()
                                << " events for a plan of "
                                << plan.nodes.size() << " nodes");
    const Liveness lv = deriveLiveness(plan);

    MemoryProfile profile;
    profile.weightBytes = lv.weightBytes;
    profile.bufferCount = lv.buffers.size();

    // No-reuse upper bound: weights plus every buffer of one
    // inference, allocated distinct and never freed.
    profile.noReuseBytes = lv.weightBytes;
    for (const LiveBuffer& b : lv.buffers)
        profile.noReuseBytes += b.bytes;

    // ---- program-order sweep (node-index time axis) ------------------
    //
    // Closed intervals: a buffer [d, u] is live at every node k with
    // d <= k <= u, so allocations apply before the residency at k is
    // recorded and frees apply after.
    const std::size_t num_nodes = plan.nodes.size();
    std::vector<double> alloc_at(num_nodes, 0.0);
    std::vector<double> free_after(num_nodes, 0.0);
    for (const LiveBuffer& b : lv.buffers) {
        alloc_at[b.defNode] += b.bytes;
        free_after[b.lastUseNode] += b.bytes;
    }
    profile.stageResidency.reserve(plan.stageNames.size());
    for (const std::string& name : plan.stageNames)
        profile.stageResidency.push_back({name, 0.0});

    double cur = lv.weightBytes;
    profile.programPeakBytes = lv.weightBytes;
    for (std::size_t k = 0; k < num_nodes; ++k) {
        cur += alloc_at[k];
        profile.programPeakBytes =
            std::max(profile.programPeakBytes, cur);
        const std::size_t stage =
            plan.opInfo(plan.nodes[k].opIndex).stageIndex;
        StageResidency& sr = profile.stageResidency[stage];
        sr.peakBytes = std::max(sr.peakBytes, cur);
        cur -= free_after[k];
    }

    // ---- scheduled-order sweep (sim-time axis) -----------------------
    std::vector<SweepEvent> events;
    events.reserve(lv.buffers.size() * 2);
    for (std::size_t bi = 0; bi < lv.buffers.size(); ++bi) {
        const LiveBuffer& b = lv.buffers[bi];
        events.push_back({timeline.eventStart[b.defNode], b.bytes, bi,
                          true});
        events.push_back({timeline.eventEnd[b.lastUseNode], -b.bytes,
                          bi, false});
    }
    std::sort(events.begin(), events.end(), sweepBefore);

    profile.scheduledPeakBytes = lv.weightBytes;
    profile.scheduledPeakSeconds = 0.0;
    cur = lv.weightBytes;
    std::size_t peak_event = events.size();
    for (std::size_t ei = 0; ei < events.size(); ++ei) {
        cur += events[ei].delta;
        if (cur > profile.scheduledPeakBytes) {
            profile.scheduledPeakBytes = cur;
            profile.scheduledPeakSeconds = events[ei].time;
            peak_event = ei;
        }
    }

    // Replay to the peak event to collect the buffers forming it.
    if (peak_event < events.size()) {
        std::vector<bool> live(lv.buffers.size(), false);
        for (std::size_t ei = 0; ei <= peak_event; ++ei)
            live[events[ei].buffer] = events[ei].isAlloc;
        for (std::size_t bi = 0; bi < lv.buffers.size(); ++bi) {
            if (live[bi])
                profile.peakNodes.push_back(lv.buffers[bi].defNode);
        }
        std::sort(profile.peakNodes.begin(), profile.peakNodes.end());
        profile.peakNodes.erase(std::unique(profile.peakNodes.begin(),
                                            profile.peakNodes.end()),
                                profile.peakNodes.end());
    }
    return profile;
}

FeasibilityReport
analyzeFeasibility(const graph::Pipeline& pipeline,
                   const hw::GpuSpec& gpu,
                   graph::AttentionBackend backend)
{
    const kernels::CostModel model(gpu, backend);
    const ExecutionPlan plan = lowerPipeline(pipeline, model);
    const Timeline timeline = TimelineScheduler(gpu).schedule(plan);

    FeasibilityReport rep;
    rep.profile = analyzeMemory(plan, timeline);
    rep.weightBytes = rep.profile.weightBytes;
    rep.dynamicBytes =
        rep.profile.scheduledPeakBytes - rep.profile.weightBytes;
    rep.capacityBytes = gpu.hbmBytes;

    const double headroom = gpu.hbmBytes - rep.weightBytes;
    if (rep.weightBytes + rep.dynamicBytes > gpu.hbmBytes) {
        rep.maxBatch = 0; // not even one request fits
    } else if (rep.dynamicBytes <= 0.0) {
        rep.maxBatch = kUnboundedBatch;
    } else {
        const double fit = std::floor(headroom / rep.dynamicBytes);
        rep.maxBatch = std::min<std::int64_t>(
            kUnboundedBatch, static_cast<std::int64_t>(fit));
    }
    return rep;
}

std::int64_t
maxFeasibleBatch(const graph::Pipeline& pipeline, const hw::GpuSpec& gpu,
                 graph::AttentionBackend backend)
{
    return analyzeFeasibility(pipeline, gpu, backend).maxBatch;
}

} // namespace mmgen::exec
