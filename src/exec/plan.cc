#include "plan.hh"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "hw/roofline.hh"
#include "util/logging.hh"

namespace mmgen::exec {

std::string
laneName(Lane lane)
{
    return lane == Lane::Compute ? "compute" : "copy";
}

std::int64_t
ExecutionPlan::totalLaunches() const
{
    std::int64_t total = 0;
    for (const PlanNode& node : nodes) {
        const KernelInfo& k = kernel(node);
        total += static_cast<std::int64_t>(k.launches) * k.repeat;
    }
    return total;
}

StrRef
ExecutionPlan::intern(std::string_view s)
{
    StrRef ref;
    ref.offset = static_cast<std::uint32_t>(strArena.size());
    ref.size = static_cast<std::uint32_t>(s.size());
    strArena.insert(strArena.end(), s.begin(), s.end());
    return ref;
}

namespace {

/**
 * True when the kernel stays memory-bound under the roofline, so
 * peeling its weight traffic onto the copy lane can only shorten (or
 * at worst preserve) the compute-lane critical path.
 */
bool
worthStreaming(const hw::GpuSpec& gpu, const kernels::SubKernelCost& part,
               DType dtype, const LoweringOptions& options)
{
    if (!options.splitWeightStreams)
        return false;
    if (part.weightBytes <
            static_cast<double>(options.minStreamedWeightBytes) ||
        part.weightBytes >= part.hbmBytes)
        return false;
    hw::TimeEstimateInputs in;
    in.flops = part.flops;
    in.hbmBytes = part.hbmBytes;
    in.computeEfficiency = part.computeEff;
    in.memoryEfficiency = part.memEff;
    in.launches = part.launches;
    in.dtype = dtype;
    const hw::TimeEstimate est = hw::estimateTime(gpu, in);
    return est.memorySeconds >= est.computeSeconds;
}

/**
 * The kernel of `cost` whose weight traffic lowering peels into a
 * weight-stream node (the first one worth streaming), or null.
 */
const kernels::SubKernelCost*
streamedPart(const hw::GpuSpec& gpu, const kernels::OpCost& cost,
             DType dtype, const LoweringOptions& options)
{
    for (const auto& part : cost.parts) {
        if (worthStreaming(gpu, part, dtype, options))
            return &part;
    }
    return nullptr;
}

/**
 * Lowering state for one pipeline: the plan under construction, its
 * string-intern index, the lane chains' last nodes, and two trace
 * buffers that swap every decode step, so the previous step's ops stay
 * available as the replay reference.
 */
class LoweringContext
{
  public:
    explicit LoweringContext(const LoweringOptions& options)
        : opts(options)
    {
        MMGEN_CHECK(opts.minStreamedWeightBytes >= 0,
                    "minStreamedWeightBytes must be non-negative");
    }

    /** Lower `pipeline` once, moving the finished plan out. */
    ExecutionPlan lower(const graph::Pipeline& pipeline,
                        const kernels::CostModel& model) &&;

  private:
    struct StrHash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    StrRef
    intern(std::string_view s)
    {
        if (const auto it = interned_.find(s); it != interned_.end())
            return it->second;
        const StrRef ref = plan_.intern(s);
        interned_.emplace(std::string(s), ref);
        return ref;
    }

    void reserve(const graph::Pipeline& pipeline,
                 const kernels::CostModel& model);
    void lowerTrace(std::size_t stage_index, std::int64_t repeat,
                    const kernels::CostModel& model);
    void lowerOp(const graph::Op& op, std::size_t stage_index,
                 std::int64_t repeat, const kernels::CostModel& model);
    void replayOp(std::size_t src);
    std::uint32_t addKernel(const KernelInfo& kernel,
                            const hw::GpuSpec& gpu);
    std::int32_t appendNode(std::uint32_t kernel,
                            std::int32_t weight_dep);

    const LoweringOptions& opts;
    ExecutionPlan plan_;
    /** The step being lowered. */
    graph::Trace trace_;
    /** The previous step of the same stage (empty at a stage start). */
    graph::Trace prev_;
    /** Plan index of prev_'s first op. */
    std::size_t prevFirstOp_ = 0;
    std::unordered_map<std::string, StrRef, StrHash, std::equal_to<>>
        interned_;
    std::string scratch_;
    std::int32_t lastComputeNode_ = -1;
    std::int32_t lastCopyNode_ = -1;
};

/**
 * Size the plan arrays once, from each stage's iteration-0 extent
 * times the iterations lowering traces, so a long decode plan is
 * written into its final buffers instead of regrowing them. The record
 * tables get iteration 0's records plus, per later step, the records
 * of the ops iteration 1 changes against iteration 0 (the ops a step
 * cannot replay). Only pipelines with a per-iteration-shape stage are
 * sized: the others lower to a few thousand nodes, where the count
 * pass (one more trace and cost of every op) would cost more than the
 * regrowth it saves.
 */
void
LoweringContext::reserve(const graph::Pipeline& pipeline,
                         const kernels::CostModel& model)
{
    if (std::none_of(pipeline.stages.begin(), pipeline.stages.end(),
                     [](const graph::Stage& s) {
                         return s.perIterationShapes;
                     }))
        return;
    // Per op: one op row and record, one node row and kernel record
    // per kernel plus a weight-stream node where one is split off, and
    // at most one chain dep per node plus the weight-stream dep.
    std::size_t ops = 0;
    std::size_t nodes = 0;
    std::size_t deps = 0;
    std::size_t op_records = 0;
    std::size_t kernel_records = 0;
    const auto kernelCount = [&](const graph::Op& op) {
        const kernels::OpCost cost = model.cost(op);
        const std::size_t streams =
            streamedPart(model.gpu(), cost, op.dtype, opts) ? 1 : 0;
        return std::pair(cost.parts.size() + streams, streams);
    };
    for (std::size_t si = 0; si < pipeline.stages.size(); ++si) {
        const graph::Stage& stage = pipeline.stages[si];
        if (stage.iterations <= 0)
            continue;
        const auto traced = static_cast<std::size_t>(
            stage.perIterationShapes ? stage.iterations : 1);
        pipeline.traceStage(si, 0, trace_);
        ops += trace_.size() * traced;
        op_records += trace_.size();
        for (const auto& op : trace_.ops()) {
            const auto [k, streams] = kernelCount(op);
            nodes += k * traced;
            deps += (k + streams) * traced;
            kernel_records += k;
        }
        if (traced < 2)
            continue;
        pipeline.traceStage(si, 1, prev_);
        const auto first = trace_.ops();
        const auto next = prev_.ops();
        for (std::size_t i = 0; i < next.size(); ++i) {
            if (i < first.size() && next[i] == first[i])
                continue;
            op_records += traced - 1;
            kernel_records += kernelCount(next[i]).first * (traced - 1);
        }
    }
    plan_.ops.reserve(ops);
    plan_.nodes.reserve(nodes);
    plan_.depPool.reserve(deps);
    plan_.opInfos.reserve(op_records);
    plan_.kernelInfos.reserve(kernel_records);
    plan_.costs.seconds.reserve(kernel_records);
    plan_.costs.execSeconds.reserve(kernel_records);
    plan_.costs.overheadSeconds.reserve(kernel_records);
}

/**
 * Store one kernel record and its roofline cost row (the scheduler's
 * arithmetic); returns the record's index.
 */
std::uint32_t
LoweringContext::addKernel(const KernelInfo& kernel,
                           const hw::GpuSpec& gpu)
{
    ExecutionPlan& plan = plan_;
    hw::TimeEstimateInputs in;
    in.flops = kernel.flops;
    in.hbmBytes = kernel.hbmBytes;
    in.computeEfficiency = kernel.computeEff;
    in.memoryEfficiency = kernel.memEff;
    in.launches = kernel.launches;
    in.dtype = kernel.dtype;
    const hw::TimeEstimate est = hw::estimateTime(gpu, in);
    plan.costs.seconds.push_back(est.seconds);
    plan.costs.execSeconds.push_back(
        std::max(est.computeSeconds, est.memorySeconds));
    plan.costs.overheadSeconds.push_back(est.overheadSeconds);
    plan.kernelInfos.push_back(kernel);
    return static_cast<std::uint32_t>(plan.kernelInfos.size() - 1);
}

/**
 * Append a node row of kernel record `kernel` to the op being lowered,
 * wiring its deps by the lane-chain rules: a weight-stream node
 * follows the previous copy-lane node; a compute node follows the
 * previous compute node and, when `weight_dep` is a node (an op's
 * first kernel after its weight-stream node), that too.
 */
std::int32_t
LoweringContext::appendNode(std::uint32_t kernel, std::int32_t weight_dep)
{
    ExecutionPlan& plan = plan_;
    const auto self = static_cast<std::int32_t>(plan.nodes.size());
    PlanNode node;
    node.kernel = kernel;
    node.opIndex = static_cast<std::uint32_t>(plan.ops.size());
    node.depOffset = static_cast<std::uint32_t>(plan.depPool.size());
    const auto dep = [&](std::int32_t d) {
        plan.depPool.push_back(d);
        ++node.depCount;
    };
    if (plan.kernelInfos[kernel].weightStream) {
        if (lastCopyNode_ >= 0)
            dep(lastCopyNode_);
        lastCopyNode_ = self;
        plan.hasWeightStreams = true;
    } else {
        if (lastComputeNode_ >= 0)
            dep(lastComputeNode_);
        if (weight_dep >= 0)
            dep(weight_dep);
        lastComputeNode_ = self;
    }
    plan.nodes.push_back(node);
    return self;
}

/** Cost and lower one op from scratch, storing new records. */
void
LoweringContext::lowerOp(const graph::Op& op, std::size_t stage_index,
                         std::int64_t repeat,
                         const kernels::CostModel& model)
{
    ExecutionPlan& plan = plan_;
    const kernels::OpCost cost = model.cost(op);

    OpInfo info;
    info.stageIndex = stage_index;
    info.kind = op.kind;
    info.category = graph::opCategory(op);
    info.scope = intern(op.scope);
    info.dtype = op.dtype;
    info.repeat = repeat;
    info.paramCount = graph::opParamCount(op);
    if (op.kind == graph::OpKind::Attention) {
        const auto& a = op.as<graph::AttentionAttrs>();
        info.seqQ = a.seqQ;
        info.seqKv = a.seqKv;
        info.attnKind = a.kind;
    }
    const kernels::OpMemoryDemand dem = model.memoryDemand(op);
    info.inputBytes = dem.inputBytes;
    info.outputBytes = dem.outputBytes;
    info.weightResidentBytes = dem.weightResidentBytes;
    info.weightReadBytes = dem.weightReadBytes;
    info.workspaceBytes = dem.workspaceBytes;
    PlanOp row;
    row.info = static_cast<std::uint32_t>(plan.opInfos.size());
    row.firstNode = static_cast<std::uint32_t>(plan.nodes.size());

    // A weight-stream node precedes the kernel that consumes it so
    // node order remains a valid serial execution order. Every
    // weight-carrying op lowers to one kernel, so at most one stream.
    const kernels::SubKernelCost* streamed =
        streamedPart(model.gpu(), cost, op.dtype, opts);
    std::int32_t weight_dep = -1;
    if (streamed) {
        KernelInfo w;
        w.klass = kernels::KernelClass::Memory;
        scratch_.assign(streamed->label);
        scratch_ += ".weight_stream";
        w.label = intern(scratch_);
        w.lane = Lane::Copy;
        w.weightStream = true;
        w.flops = 0.0;
        w.hbmBytes = streamed->weightBytes;
        // The streamed traffic was issued by the original kernel's
        // launch; the copy lane adds no host-side launches.
        w.launches = 0;
        w.computeEff = 1.0;
        w.memEff = streamed->memEff;
        w.repeat = repeat;
        w.dtype = op.dtype;
        weight_dep = appendNode(addKernel(w, model.gpu()), -1);
    }

    for (const auto& part : cost.parts) {
        KernelInfo k;
        k.klass = part.klass;
        k.label = intern(part.label);
        k.lane = Lane::Compute;
        k.flops = part.flops;
        k.hbmBytes = streamed ? part.hbmBytes - part.weightBytes
                              : part.hbmBytes;
        k.launches = part.launches;
        k.computeEff = part.computeEff;
        k.memEff = part.memEff;
        k.repeat = repeat;
        k.dtype = op.dtype;
        appendNode(addKernel(k, model.gpu()), weight_dep);
        weight_dep = -1;
    }

    info.nodeCount =
        static_cast<std::uint32_t>(plan.nodes.size() - row.firstNode);
    plan.opInfos.push_back(info);
    plan.ops.push_back(row);
}

/**
 * Lower an op equal to plan op `src` of the previous step: an equal op
 * lowers to identical records, so append rows that point at `src`'s op
 * and kernel records, with fresh op index, node range and dep windows.
 */
void
LoweringContext::replayOp(std::size_t src)
{
    ExecutionPlan& plan = plan_;
    const PlanOp from = plan.ops[src];
    const std::uint32_t count = plan.opInfos[from.info].nodeCount;
    PlanOp row;
    row.info = from.info;
    row.firstNode = static_cast<std::uint32_t>(plan.nodes.size());
    std::int32_t weight_dep = -1;
    for (std::uint32_t p = 0; p < count; ++p) {
        const std::uint32_t kernel = plan.nodes[from.firstNode + p].kernel;
        if (plan.kernelInfos[kernel].weightStream) {
            weight_dep = appendNode(kernel, -1);
        } else {
            appendNode(kernel, weight_dep);
            weight_dep = -1;
        }
    }
    plan.ops.push_back(row);
}

/**
 * Lower trace_, replaying every op equal to prev_'s op at the same
 * position and lowering the rest from scratch.
 */
void
LoweringContext::lowerTrace(std::size_t stage_index, std::int64_t repeat,
                            const kernels::CostModel& model)
{
    const std::size_t first_op = plan_.ops.size();
    const auto ops = trace_.ops();
    const auto prev = prev_.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (i < prev.size() && ops[i] == prev[i])
            replayOp(prevFirstOp_ + i);
        else
            lowerOp(ops[i], stage_index, repeat, model);
    }
    prevFirstOp_ = first_op;
}

ExecutionPlan
LoweringContext::lower(const graph::Pipeline& pipeline,
                       const kernels::CostModel& model) &&
{
    plan_.model = pipeline.name;
    plan_.backend = model.backend();
    plan_.dtype = pipeline.dtype;
    plan_.totalParams = pipeline.totalParams();
    plan_.costs.gpuKey = model.gpu().fingerprint();
    reserve(pipeline, model);

    for (std::size_t si = 0; si < pipeline.stages.size(); ++si) {
        const graph::Stage& stage = pipeline.stages[si];
        plan_.stageNames.push_back(stage.name);
        prev_.clear();
        if (stage.perIterationShapes) {
            for (std::int64_t it = 0; it < stage.iterations; ++it) {
                pipeline.traceStage(si, it, trace_);
                lowerTrace(si, 1, model);
                std::swap(trace_, prev_);
            }
        } else {
            pipeline.traceStage(si, 0, trace_);
            lowerTrace(si, stage.iterations, model);
        }
    }
    return std::move(plan_);
}

} // namespace

ExecutionPlan
lowerPipeline(const graph::Pipeline& pipeline,
              const kernels::CostModel& model,
              const LoweringOptions& options)
{
    return LoweringContext(options).lower(pipeline, model);
}

} // namespace mmgen::exec
