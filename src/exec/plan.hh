/**
 * @file
 * ExecutionPlan: the kernel-level lowered IR of one pipeline inference.
 *
 * Lowering is the first half of the profiler split (the second half is
 * the event-timeline scheduler in exec/schedule.hh). A Pipeline is
 * traced stage by stage exactly as the profiler always has — folded
 * stages once with a repeat count, per-iteration-shape stages every
 * iteration — and each graph op is lowered through the CostModel into
 * its device kernels. The plan keeps one PlanNode per SubKernelCost,
 * carrying stage/op provenance, explicit dependencies, and a lane
 * assignment (compute vs. memcpy/weight-stream), so a scheduler can
 * play the same work onto a GPU under different concurrency models
 * without re-tracing anything.
 *
 * Storage is split into per-instance rows and shared records. `ops`
 * and `nodes` hold one row per op instance and one per schedulable
 * kernel, and a row is only indices: an op row names its shared
 * `OpInfo` record and its first node; a node row names its shared
 * `KernelInfo` record, its op and its dependency window. Everything
 * else about an op or kernel (kind, scope, label, flops, bytes,
 * efficiencies, repeat, memory demand) lives in the records, and the
 * roofline cost table (`NodeCostTable`, keyed by the GPU it was
 * costed for) has one row per kernel record, so a scheduler on the
 * same GPU replays the exact same `hw::estimateTime` outputs without
 * re-deriving them. A decode step that repeats the previous step's op
 * appends only rows pointing at that op's records instead of copying
 * them, so a decode plan holds far fewer records than rows.
 *
 * Variable-size payloads live in per-plan pools: labels and scopes
 * are interned `StrRef`s into one character arena, dependency lists
 * are [offset, count) windows into one shared `std::int32_t` pool.
 * The plan owns no per-node heap blocks, so copying it is a handful
 * of vector copies and the scheduler's inner loop touches only
 * contiguous memory. Readers resolve rows through `opInfo()` and
 * `kernel()`.
 */

#ifndef MMGEN_EXEC_PLAN_HH
#define MMGEN_EXEC_PLAN_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/op.hh"
#include "graph/pipeline.hh"
#include "kernels/cost_model.hh"

namespace mmgen::exec {

/** Hardware lane a plan node is assigned to. */
enum class Lane : std::uint8_t {
    /** The default execution lane all traced kernels run on. */
    Compute,
    /** The memcpy/weight-stream lane (async copies, prefetches). */
    Copy,
};

/** Human-readable lane name ("compute" / "copy"). */
std::string laneName(Lane lane);

/** Knobs for lowering a pipeline into an ExecutionPlan. */
struct LoweringOptions
{
    /**
     * Peel weight traffic out of memory-bound kernels into synthetic
     * weight-stream nodes on the Copy lane, so a multi-stream
     * scheduler can prefetch weights under earlier compute. Off by
     * default: the default plan lowers to exactly the kernels the
     * seed profiler costed.
     */
    bool splitWeightStreams = false;

    /**
     * Minimum weight bytes a kernel must read before its weight
     * traffic is worth a separate stream node. Tiny weights (norm
     * affines, biases folded into their kernels) stay fused.
     */
    std::int64_t minStreamedWeightBytes = 1 << 20;
};

/**
 * Reference to an interned string in ExecutionPlan::strArena.
 * Resolve with ExecutionPlan::str(); a default-constructed ref is the
 * empty string.
 */
struct StrRef
{
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
};

/**
 * Shared record of one lowered graph-level op: everything about the op
 * except its position in the plan. Op rows of equal ops (a decode step
 * repeating the previous step's op) point at one record.
 */
struct OpInfo
{
    /** Index of the owning stage in the pipeline. */
    std::size_t stageIndex = 0;
    graph::OpKind kind = graph::OpKind::Elementwise;
    graph::OpCategory category = graph::OpCategory::Elementwise;
    /** Dotted module path, e.g. "unet.down0.attn.self" (interned). */
    StrRef scope;
    DType dtype = DType::F16;
    /** Folded execution count (stage iterations for folded stages). */
    std::int64_t repeat = 1;
    /** Trainable parameters this op instance owns. */
    std::int64_t paramCount = 0;

    /** Attention metadata (attention ops only, else -1 / defaults). */
    std::int64_t seqQ = -1;
    std::int64_t seqKv = -1;
    graph::AttentionKind attnKind = graph::AttentionKind::SelfSpatial;

    // -- per-instance memory demand (kernels::OpMemoryDemand, captured
    //    at lowering so liveness analysis needs only the plan) --

    /** Activation operand bytes the op reads. */
    double inputBytes = 0.0;
    /** Activation result bytes the op writes. */
    double outputBytes = 0.0;
    /** Parameter bytes resident while the model is loaded. */
    double weightResidentBytes = 0.0;
    /** Parameter traffic floor (gathered rows for embeddings). */
    double weightReadBytes = 0.0;
    /** Transient scratch live only across this op's own kernels. */
    double workspaceBytes = 0.0;

    /** Nodes every op row of this record owns. */
    std::uint32_t nodeCount = 0;
};

/**
 * Shared record of one lowered device kernel: everything about the
 * kernel except its position and dependencies. Node rows of equal
 * kernels point at one record.
 */
struct KernelInfo
{
    kernels::KernelClass klass = kernels::KernelClass::Elementwise;
    /** Kernel label from the cost model, e.g. "flash_fused" (interned). */
    StrRef label;
    Lane lane = Lane::Compute;
    /** True for synthetic weight-prefetch nodes created by splitting. */
    bool weightStream = false;

    double flops = 0.0;
    double hbmBytes = 0.0;
    /** Device launches per executed iteration. */
    int launches = 1;
    double computeEff = 1.0;
    double memEff = 1.0;
    /** Folded execution count (copied from the owning op). */
    std::int64_t repeat = 1;
    DType dtype = DType::F16;
};

/**
 * One graph-level operator instance in the plan: a row of indices. Its
 * nodes point at consecutive kernel records, in node order, so the
 * op's cost rows are one contiguous run of the cost table.
 */
struct PlanOp
{
    /** The op's shared record (resolve with ExecutionPlan::opInfo()). */
    std::uint32_t info = 0;
    /** Nodes [firstNode, firstNode + nodeCount) belong to this op. */
    std::uint32_t firstNode = 0;
};

/**
 * One device kernel instance: the schedulable unit of the plan, a row
 * of indices.
 *
 * Dependency edges always point at lower node indices, so a single
 * forward pass can schedule or analyse the plan. A node's implicit
 * program-order position is its index; its dependency window (resolve
 * with ExecutionPlan::deps()) carries only the true ordering
 * constraints: previous kernel of the same op, the program-order
 * predecessor on the compute chain, and the weight-stream node an
 * op's first kernel consumes.
 */
struct PlanNode
{
    /** The kernel's shared record (resolve with ExecutionPlan::kernel()). */
    std::uint32_t kernel = 0;
    /** Index of the owning PlanOp. */
    std::uint32_t opIndex = 0;
    /** Window [depOffset, depOffset + depCount) into the dep pool. */
    std::uint32_t depOffset = 0;
    std::uint32_t depCount = 0;
};

/**
 * Per-kernel roofline estimates captured at lowering.
 *
 * The table stores the exact `hw::estimateTime` outputs for the GPU
 * the plan was lowered against (`gpuKey` = that GpuSpec's
 * fingerprint), one row per kernel record (ExecutionPlan::kernelInfos,
 * indexed by PlanNode::kernel). A scheduler whose GPU fingerprint
 * matches replays these doubles verbatim — bit-identical to calling
 * the roofline per node — and one whose GPU differs ignores the table
 * and recomputes it, once per kernel record.
 */
struct NodeCostTable
{
    std::uint64_t gpuKey = 0;

    /** Full per-iteration kernel time (max(c, m) + overhead). */
    std::vector<double> seconds;
    /** Execution-only time: max(computeSeconds, memorySeconds). */
    std::vector<double> execSeconds;
    /** Host launch overhead per iteration. */
    std::vector<double> overheadSeconds;

    /** True when the table covers `kernels` records costed under `key`. */
    bool
    matches(std::uint64_t key, std::size_t kernels) const
    {
        return gpuKey == key && seconds.size() == kernels;
    }

    void
    clear()
    {
        gpuKey = 0;
        seconds.clear();
        execSeconds.clear();
        overheadSeconds.clear();
    }
};

/**
 * A lowered pipeline: every kernel of one full inference, in program
 * order, with provenance and dependencies.
 */
struct ExecutionPlan
{
    std::string model;
    graph::AttentionBackend backend = graph::AttentionBackend::Flash;
    DType dtype = DType::F16;

    /** Stage names in pipeline order (indexed by OpInfo::stageIndex). */
    std::vector<std::string> stageNames;

    /** Graph-level op rows in execution order. */
    std::vector<PlanOp> ops;

    /** Device kernel rows in program order (grouped per op). */
    std::vector<PlanNode> nodes;

    /** Shared op records (PlanOp::info targets). */
    std::vector<OpInfo> opInfos;

    /** Shared kernel records (PlanNode::kernel targets). */
    std::vector<KernelInfo> kernelInfos;

    /** Interned label/scope characters (StrRef targets). */
    std::vector<char> strArena;

    /** Flat dependency pool (PlanNode dep windows point here). */
    std::vector<std::int32_t> depPool;

    /** Roofline estimates per kernel record for the lowering GPU. */
    NodeCostTable costs;

    /** Trainable parameters of the whole pipeline. */
    std::int64_t totalParams = 0;

    /** True when lowering created any Copy-lane weight-stream node. */
    bool hasWeightStreams = false;

    /** Total device launches across the plan (repeats applied). */
    std::int64_t totalLaunches() const;

    /** Resolve an interned string. */
    std::string_view
    str(StrRef ref) const
    {
        return {strArena.data() + ref.offset, ref.size};
    }

    /** Shared record of one op row. */
    const OpInfo& opInfo(const PlanOp& op) const
    {
        return opInfos[op.info];
    }

    /** Shared record of op `oi`. */
    const OpInfo& opInfo(std::size_t oi) const
    {
        return opInfo(ops[oi]);
    }

    /** Shared record of one node row. */
    const KernelInfo& kernel(const PlanNode& node) const
    {
        return kernelInfos[node.kernel];
    }

    /** Shared record of node `n`. */
    const KernelInfo& kernel(std::size_t n) const
    {
        return kernel(nodes[n]);
    }

    /** Label of node `n`. */
    std::string_view nodeLabel(std::size_t n) const
    {
        return str(kernel(n).label);
    }

    /** Scope of op `oi`. */
    std::string_view opScope(std::size_t oi) const
    {
        return str(opInfo(oi).scope);
    }

    /** Dependency window of one node. */
    std::span<const std::int32_t>
    deps(const PlanNode& node) const
    {
        return {depPool.data() + node.depOffset, node.depCount};
    }

    /** Dependency window of node `n`. */
    std::span<const std::int32_t> deps(std::size_t n) const
    {
        return deps(nodes[n]);
    }

    /** Intern a string into the arena (no deduplication). */
    StrRef intern(std::string_view s);
};

/**
 * Lower a pipeline through a cost model into an ExecutionPlan.
 *
 * Stage traversal matches the profiler contract exactly: stages with
 * shape-invariant iterations are traced once and folded into repeat
 * counts; per-iteration-shape stages are traced every iteration. Each
 * step of such a stage is lowered against the previous one: an op
 * equal (graph::Op::operator==) to the previous step's op at the same
 * position lowers to identical records, so its op and node rows point
 * at the previous step's records instead of costing new ones. When a
 * pipeline has such a stage, the plan arrays are sized once, up
 * front, from a count pass over every stage's iterations 0 and 1.
 * Time and allocation are linear in the number of traced ops (decode
 * steps).
 */
ExecutionPlan lowerPipeline(const graph::Pipeline& pipeline,
                            const kernels::CostModel& model,
                            const LoweringOptions& options =
                                LoweringOptions());

} // namespace mmgen::exec

#endif // MMGEN_EXEC_PLAN_HH
