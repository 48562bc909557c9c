#include "engine.hh"

#include <algorithm>

#include "util/logging.hh"
#include "verify/memory.hh"
#include "verify/timeline.hh"
#include "verify/verify.hh"

namespace mmgen::profiler {

double
ProfileResult::attentionSeconds() const
{
    return breakdown.categorySeconds(graph::OpCategory::Attention);
}

double
ProfileResult::modelArithmeticIntensity() const
{
    MMGEN_CHECK(weightBytesRead > 0.0,
                "pipeline streamed no weight bytes");
    return totalFlops / weightBytesRead;
}

Profiler::Profiler(ProfileOptions options)
    : opts(std::move(options))
{}

exec::ExecutionPlan
Profiler::lower(const graph::Pipeline& pipeline) const
{
    const kernels::CostModel model(opts.gpu, opts.backend,
                                   opts.efficiency);
    return exec::lowerPipeline(pipeline, model, opts.lowering);
}

ProfileResult
Profiler::profile(const graph::Pipeline& pipeline) const
{
    return profileWithPlan(pipeline,
                           std::make_shared<const exec::ExecutionPlan>(
                               lower(pipeline)));
}

ProfileResult
Profiler::profileWithPlan(
    const graph::Pipeline& pipeline,
    std::shared_ptr<const exec::ExecutionPlan> plan) const
{
    if (verify::runtimeChecksEnabled())
        verify::verifyPipelineOrThrow(pipeline);

    const exec::TimelineScheduler scheduler(opts.gpu, opts.schedule);
    exec::Timeline timeline = scheduler.schedule(*plan);

    ProfileResult result;
    result.model = pipeline.name;
    result.backend = opts.backend;
    result.params = plan->totalParams;
    result.totalSeconds = timeline.makespan;
    result.launchOverheadSeconds = timeline.launchOverheadSeconds;

    const std::size_t num_stages = plan->stageNames.size();
    std::vector<double> stage_seconds(num_stages, 0.0);
    std::vector<BreakdownReport> stage_breakdowns(num_stages);

    const auto record_cap =
        static_cast<std::size_t>(std::max<std::int64_t>(
            opts.maxOpRecords, 0));
    if (opts.keepOpRecords)
        result.records.reserve(
            std::min(plan->ops.size(), record_cap));

    for (std::size_t oi = 0; oi < plan->ops.size(); ++oi) {
        const exec::PlanOp& row = plan->ops[oi];
        const exec::OpInfo& op = plan->opInfo(row);
        const double r = static_cast<double>(op.repeat);

        double flops = 0.0;
        double bytes = 0.0;
        std::int64_t launches = 0;
        for (std::size_t n = row.firstNode;
             n < row.firstNode + op.nodeCount; ++n) {
            const exec::KernelInfo& kernel = plan->kernel(n);
            flops += kernel.flops;
            bytes += kernel.hbmBytes;
            launches += kernel.launches;
            result.kernelClassSeconds[kernel.klass] +=
                timeline.nodeSeconds[n];
        }

        // Only kept records carry their scope/stage strings; the
        // aggregates below read kind, category and the numbers.
        const bool keep =
            opts.keepOpRecords && result.records.size() < record_cap;
        OpRecord rec;
        rec.kind = op.kind;
        rec.category = op.category;
        if (keep) {
            rec.scope = std::string(plan->str(op.scope));
            rec.stage = plan->stageNames[op.stageIndex];
        }
        rec.seconds = timeline.opSeconds[oi];
        rec.flops = flops * r;
        rec.hbmBytes = bytes * r;
        rec.launches = launches * op.repeat;
        rec.repeat = op.repeat;

        if (op.kind == graph::OpKind::Attention) {
            rec.seqLen = op.seqQ;
            rec.seqKv = op.seqKv;
            rec.attnKind = op.attnKind;
            result.attention.add(op.attnKind, rec.seconds, rec.flops,
                                 op.repeat);
            // The Fig. 7/8 sequence-length series tracks the attended
            // length of self-attention calls; cross-attention always
            // attends the fixed encoded prompt.
            if (op.attnKind != graph::AttentionKind::CrossText) {
                result.seqLens.record(
                    op.seqKv, static_cast<std::uint64_t>(op.repeat));
            }
        }

        result.breakdown.add(rec);
        stage_breakdowns[op.stageIndex].add(rec);
        stage_seconds[op.stageIndex] += rec.seconds;
        result.totalFlops += rec.flops;
        result.totalHbmBytes += rec.hbmBytes;
        result.totalLaunches += rec.launches;
        result.weightBytesRead +=
            static_cast<double>(op.paramCount) *
            static_cast<double>(dtypeBytes(op.dtype)) * r;

        if (keep)
            result.records.push_back(std::move(rec));
        else if (opts.keepOpRecords)
            result.recordsTruncated = true;
    }

    for (std::size_t si = 0; si < num_stages; ++si) {
        result.stageSeconds.emplace_back(plan->stageNames[si],
                                         stage_seconds[si]);
        result.stageBreakdowns.emplace_back(
            plan->stageNames[si], std::move(stage_breakdowns[si]));
    }

    if (verify::runtimeChecksEnabled()) {
        verify::DiagnosticReport physics;
        const verify::PhysicsContext ctx{result.model, ""};
        verify::checkTimeline(*plan, timeline, ctx, physics);
        // Memory pass: dataflow integrity and byte conservation are
        // hard errors; capacity is a warning here because the profiler
        // legitimately simulates models on GPUs they do not fit (the
        // latency numbers stay valid — only serving admission cares).
        verify::checkPlanDataflow(*plan, ctx, physics);
        if (!physics.fired(verify::rules::DanglingDefUse)) {
            const exec::MemoryProfile mem =
                exec::analyzeMemory(*plan, timeline);
            verify::checkMemoryProfile(*plan, mem, opts.gpu, ctx,
                                       physics,
                                       verify::Severity::Warn);
        }
        // The aggregate roofline check only speaks about serialized
        // time; an overlapped schedule legitimately moves bytes on two
        // streams at once, so it runs for seed-equivalent runs only.
        if (opts.schedule.isDefault() &&
            !opts.lowering.splitWeightStreams) {
            verify::checkObservation(
                verify::SimObservation{result.model + " total",
                                       result.totalFlops,
                                       result.totalHbmBytes,
                                       result.totalSeconds,
                                       pipeline.dtype},
                opts.gpu, physics);
        }
        verify::throwOnErrors(physics);
    }

    if (opts.keepOpRecords) {
        result.plan = std::move(plan);
        result.timeline = std::move(timeline);
    }
    return result;
}

} // namespace mmgen::profiler
