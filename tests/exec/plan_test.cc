/**
 * @file
 * Tests for pipeline lowering: plan structure, op/stage provenance,
 * dependency edges, lane assignment and weight-stream splitting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "exec/plan.hh"
#include "graph/builder.hh"
#include "hw/gpu_spec.hh"
#include "models/llama.hh"
#include "models/model_suite.hh"
#include "models/parti.hh"
#include "util/logging.hh"

namespace mmgen::exec {
namespace {

using graph::AttentionBackend;
using graph::GraphBuilder;
using graph::Pipeline;
using graph::Stage;

kernels::CostModel
costModel(AttentionBackend backend = AttentionBackend::Flash)
{
    return kernels::CostModel(hw::GpuSpec::a100_80gb(), backend);
}

Pipeline
toyPipeline(std::int64_t steps)
{
    Pipeline p;
    p.name = "toy";
    Stage s;
    s.name = "unet";
    s.iterations = steps;
    s.emit = [](GraphBuilder& b, std::int64_t) {
        b.conv2d(TensorDesc({1, 8, 16, 16}, DType::F16), 8);
        b.attention(graph::AttentionKind::SelfSpatial, 1, 2, 256, 256,
                    16);
    };
    p.stages.push_back(std::move(s));
    return p;
}

/** One stage of two big memory-bound linears (32 MiB f16 weights). */
Pipeline
mlpPipeline()
{
    Pipeline p;
    p.name = "mlp";
    Stage s;
    s.name = "ffn";
    s.iterations = 3;
    s.emit = [](GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({1, 1, 4096}, DType::F16), 4096);
        b.linear(TensorDesc({1, 1, 4096}, DType::F16), 4096);
    };
    p.stages.push_back(std::move(s));
    return p;
}

TEST(LowerPipeline, FoldedStageKeepsProvenance)
{
    const kernels::CostModel model = costModel();
    const ExecutionPlan plan = lowerPipeline(toyPipeline(5), model);

    EXPECT_EQ(plan.model, "toy");
    EXPECT_EQ(plan.backend, AttentionBackend::Flash);
    ASSERT_EQ(plan.stageNames.size(), 1u);
    EXPECT_EQ(plan.stageNames[0], "unet");

    // Flash lowers attention to one fused kernel: 2 ops, 2 nodes.
    ASSERT_EQ(plan.ops.size(), 2u);
    ASSERT_EQ(plan.nodes.size(), 2u);
    EXPECT_FALSE(plan.hasWeightStreams);

    const OpInfo& conv = plan.opInfo(0);
    EXPECT_EQ(conv.kind, graph::OpKind::Conv2D);
    EXPECT_EQ(conv.stageIndex, 0u);
    EXPECT_EQ(conv.repeat, 5);
    EXPECT_GT(conv.paramCount, 0);
    EXPECT_EQ(plan.ops[0].firstNode, 0u);
    EXPECT_EQ(conv.nodeCount, 1u);

    const OpInfo& attn = plan.opInfo(1);
    EXPECT_EQ(attn.kind, graph::OpKind::Attention);
    EXPECT_EQ(attn.seqQ, 256);
    EXPECT_EQ(attn.seqKv, 256);
    EXPECT_EQ(attn.attnKind, graph::AttentionKind::SelfSpatial);
    EXPECT_EQ(plan.ops[1].firstNode, 1u);
    EXPECT_EQ(attn.nodeCount, 1u);

    EXPECT_EQ(plan.nodeLabel(0), "conv2d");
    EXPECT_EQ(plan.nodeLabel(1), "flash_fused");
    for (const KernelInfo& node : plan.kernelInfos) {
        EXPECT_EQ(node.lane, Lane::Compute);
        EXPECT_FALSE(node.weightStream);
        EXPECT_EQ(node.repeat, 5);
        EXPECT_GT(node.flops, 0.0);
        EXPECT_GT(node.hbmBytes, 0.0);
    }
    // Program-order chain: the first node has no predecessor, each
    // later one depends on the previous compute node.
    EXPECT_TRUE(plan.deps(0).empty());
    ASSERT_EQ(plan.deps(1).size(), 1u);
    EXPECT_EQ(plan.deps(1)[0], 0);
}

TEST(LowerPipeline, BaselineAttentionLowersToKernelChain)
{
    const kernels::CostModel model =
        costModel(AttentionBackend::Baseline);
    const ExecutionPlan plan = lowerPipeline(toyPipeline(1), model);

    ASSERT_EQ(plan.ops.size(), 2u);
    const PlanOp& attn = plan.ops[1];
    // qk_gemm, scale, softmax, av_gemm (no causal mask here).
    ASSERT_EQ(plan.opInfo(attn).nodeCount, 4u);
    EXPECT_EQ(plan.nodeLabel(attn.firstNode), "qk_gemm");
    EXPECT_EQ(plan.nodeLabel(attn.firstNode + 3), "av_gemm");
    // The chain is dependency-linked node to node.
    for (std::size_t n = attn.firstNode + 1; n < attn.firstNode + 4;
         ++n) {
        ASSERT_EQ(plan.deps(n).size(), 1u);
        EXPECT_EQ(plan.deps(n)[0], static_cast<std::int32_t>(n) - 1);
    }
}

TEST(LowerPipeline, PerIterationStagesTraceEveryStep)
{
    Pipeline p;
    p.name = "ar";
    Stage s;
    s.name = "decode";
    s.iterations = 4;
    s.perIterationShapes = true;
    s.emit = [](GraphBuilder& b, std::int64_t iter) {
        b.attention(graph::AttentionKind::CausalSelf, 1, 2, 1, iter + 1,
                    16);
    };
    p.stages.push_back(std::move(s));
    const ExecutionPlan plan = lowerPipeline(p, costModel());

    ASSERT_EQ(plan.ops.size(), 4u);
    for (std::size_t oi = 0; oi < plan.ops.size(); ++oi) {
        EXPECT_EQ(plan.opInfo(oi).repeat, 1);
        EXPECT_EQ(plan.opInfo(oi).seqKv,
                  static_cast<std::int64_t>(oi) + 1);
    }
}

TEST(LowerPipeline, DepsAlwaysPointBackward)
{
    LoweringOptions split;
    split.splitWeightStreams = true;
    for (const ExecutionPlan& plan :
         {lowerPipeline(models::buildModel(models::ModelId::
                                               StableDiffusion),
                        costModel()),
          lowerPipeline(mlpPipeline(), costModel(), split)}) {
        for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
            for (const std::int32_t dep : plan.deps(n)) {
                EXPECT_GE(dep, 0);
                EXPECT_LT(static_cast<std::size_t>(dep), n);
            }
        }
        // Node ownership partitions [0, nodes) in order.
        std::size_t next = 0;
        for (const PlanOp& op : plan.ops) {
            EXPECT_EQ(op.firstNode, next);
            EXPECT_GE(plan.opInfo(op).nodeCount, 1u);
            next += plan.opInfo(op).nodeCount;
        }
        EXPECT_EQ(next, plan.nodes.size());
    }
}

TEST(LowerPipeline, WeightSplittingPeelsCopyNodes)
{
    const kernels::CostModel model = costModel();
    const ExecutionPlan plain = lowerPipeline(mlpPipeline(), model);
    LoweringOptions split;
    split.splitWeightStreams = true;
    const ExecutionPlan streamed =
        lowerPipeline(mlpPipeline(), model, split);

    ASSERT_EQ(plain.ops.size(), 2u);
    EXPECT_FALSE(plain.hasWeightStreams);
    EXPECT_TRUE(streamed.hasWeightStreams);
    ASSERT_EQ(streamed.ops.size(), 2u);
    // Each linear gains one weight-stream node ahead of its kernel.
    ASSERT_EQ(streamed.nodes.size(), plain.nodes.size() + 2);

    for (std::size_t oi = 0; oi < streamed.ops.size(); ++oi) {
        const PlanOp& op = streamed.ops[oi];
        ASSERT_EQ(streamed.opInfo(op).nodeCount, 2u);
        const KernelInfo& w = streamed.kernel(op.firstNode);
        const KernelInfo& k = streamed.kernel(op.firstNode + 1);
        EXPECT_TRUE(w.weightStream);
        EXPECT_EQ(w.lane, Lane::Copy);
        EXPECT_EQ(w.klass, kernels::KernelClass::Memory);
        EXPECT_EQ(streamed.str(w.label), "linear.weight_stream");
        EXPECT_EQ(w.flops, 0.0);
        EXPECT_EQ(w.launches, 0);
        EXPECT_GT(w.hbmBytes, static_cast<double>(1 << 20));

        EXPECT_FALSE(k.weightStream);
        EXPECT_EQ(k.lane, Lane::Compute);
        // The compute kernel depends on its weight prefetch, and
        // traffic is conserved: split bytes sum to the fused bytes.
        const auto k_deps = streamed.deps(op.firstNode + 1);
        EXPECT_NE(std::find(k_deps.begin(), k_deps.end(),
                            static_cast<std::int32_t>(op.firstNode)),
                  k_deps.end());
        const KernelInfo& fused = plain.kernel(plain.ops[oi].firstNode);
        EXPECT_DOUBLE_EQ(w.hbmBytes + k.hbmBytes, fused.hbmBytes);
        EXPECT_DOUBLE_EQ(k.flops, fused.flops);
        EXPECT_EQ(k.launches, fused.launches);
    }
    // The two copy nodes serialize against each other on their lane.
    const auto second_w_deps =
        streamed.deps(streamed.ops[1].firstNode);
    ASSERT_EQ(second_w_deps.size(), 1u);
    EXPECT_EQ(second_w_deps[0],
              static_cast<std::int32_t>(streamed.ops[0].firstNode));
    // Splitting adds no device launches.
    EXPECT_EQ(streamed.totalLaunches(), plain.totalLaunches());
}

TEST(LowerPipeline, SplitThresholdKeepsSmallWeightsFused)
{
    LoweringOptions split;
    split.splitWeightStreams = true;
    split.minStreamedWeightBytes = 1LL << 40; // nothing qualifies
    const ExecutionPlan plan =
        lowerPipeline(mlpPipeline(), costModel(), split);
    EXPECT_FALSE(plan.hasWeightStreams);
    for (const KernelInfo& node : plan.kernelInfos)
        EXPECT_FALSE(node.weightStream);
}

TEST(LowerPipeline, ComputeBoundWeightsStayFused)
{
    // A large-batch linear is compute-bound: streaming its weights
    // cannot shorten the critical path, so lowering leaves it alone.
    Pipeline p;
    p.name = "dense";
    Stage s;
    s.name = "s";
    s.iterations = 1;
    s.emit = [](GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({64, 4096, 4096}, DType::F16), 4096);
    };
    p.stages.push_back(std::move(s));
    LoweringOptions split;
    split.splitWeightStreams = true;
    const ExecutionPlan plan = lowerPipeline(p, costModel(), split);
    EXPECT_FALSE(plan.hasWeightStreams);
}

TEST(LowerPipeline, TotalLaunchesAppliesRepeats)
{
    const ExecutionPlan one = lowerPipeline(toyPipeline(1), costModel());
    const ExecutionPlan ten = lowerPipeline(toyPipeline(10), costModel());
    EXPECT_GT(one.totalLaunches(), 0);
    EXPECT_EQ(ten.totalLaunches(), 10 * one.totalLaunches());
}

/**
 * `p` with every per-iteration-shape stage unrolled into one
 * single-iteration shape-invariant stage per step. Such stages are
 * lowered on their own and never replay, so their plan is the
 * from-scratch oracle for step-replay lowering.
 */
Pipeline
unrolled(const Pipeline& p)
{
    Pipeline out = p;
    out.stages.clear();
    for (const Stage& stage : p.stages) {
        if (!stage.perIterationShapes) {
            out.stages.push_back(stage);
            continue;
        }
        for (std::int64_t it = 0; it < stage.iterations; ++it) {
            Stage step = stage;
            step.iterations = 1;
            step.perIterationShapes = false;
            // Count the stage's weights once, at its last step, as
            // Pipeline::totalParams does.
            step.reusesWeights =
                stage.reusesWeights || it + 1 < stage.iterations;
            step.emit = [emit = stage.emit, it](GraphBuilder& b,
                                                std::int64_t) {
                emit(b, it);
            };
            out.stages.push_back(std::move(step));
        }
    }
    return out;
}

/** Bitwise double equality (the plan contract is exact doubles). */
void
expectSameBits(double a, double b, const std::string& what)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b))
        << what << ": " << a << " vs " << b;
}

/**
 * Resolved plan equality: each op's record (except stageIndex, which
 * the unrolled oracle numbers differently) and node range, and each
 * node's op, kernel record, cost row and deps resolved through
 * plan.deps(). Record indices are not compared: a replayed plan shares
 * records the oracle stores once per row.
 */
void
expectSamePlan(const ExecutionPlan& got, const ExecutionPlan& want)
{
    ASSERT_EQ(got.ops.size(), want.ops.size());
    ASSERT_EQ(got.nodes.size(), want.nodes.size());
    EXPECT_EQ(got.hasWeightStreams, want.hasWeightStreams);
    EXPECT_EQ(got.totalParams, want.totalParams);
    for (std::size_t i = 0; i < got.ops.size(); ++i) {
        const OpInfo& a = got.opInfo(i);
        const OpInfo& b = want.opInfo(i);
        const std::string at = "op " + std::to_string(i);
        ASSERT_EQ(a.kind, b.kind) << at;
        EXPECT_EQ(a.category, b.category) << at;
        EXPECT_EQ(got.opScope(i), want.opScope(i)) << at;
        EXPECT_EQ(a.dtype, b.dtype) << at;
        EXPECT_EQ(a.repeat, b.repeat) << at;
        EXPECT_EQ(a.paramCount, b.paramCount) << at;
        EXPECT_EQ(a.seqQ, b.seqQ) << at;
        EXPECT_EQ(a.seqKv, b.seqKv) << at;
        EXPECT_EQ(a.attnKind, b.attnKind) << at;
        expectSameBits(a.inputBytes, b.inputBytes, at);
        expectSameBits(a.outputBytes, b.outputBytes, at);
        expectSameBits(a.weightResidentBytes, b.weightResidentBytes, at);
        expectSameBits(a.weightReadBytes, b.weightReadBytes, at);
        expectSameBits(a.workspaceBytes, b.workspaceBytes, at);
        ASSERT_EQ(got.ops[i].firstNode, want.ops[i].firstNode) << at;
        ASSERT_EQ(a.nodeCount, b.nodeCount) << at;
    }
    ASSERT_TRUE(
        got.costs.matches(want.costs.gpuKey, got.kernelInfos.size()));
    ASSERT_TRUE(
        want.costs.matches(got.costs.gpuKey, want.kernelInfos.size()));
    for (std::size_t n = 0; n < got.nodes.size(); ++n) {
        const KernelInfo& a = got.kernel(n);
        const KernelInfo& b = want.kernel(n);
        const std::string at = "node " + std::to_string(n);
        ASSERT_EQ(got.nodes[n].opIndex, want.nodes[n].opIndex) << at;
        EXPECT_EQ(a.klass, b.klass) << at;
        EXPECT_EQ(got.nodeLabel(n), want.nodeLabel(n)) << at;
        EXPECT_EQ(a.lane, b.lane) << at;
        EXPECT_EQ(a.weightStream, b.weightStream) << at;
        expectSameBits(a.flops, b.flops, at);
        expectSameBits(a.hbmBytes, b.hbmBytes, at);
        EXPECT_EQ(a.launches, b.launches) << at;
        expectSameBits(a.computeEff, b.computeEff, at);
        expectSameBits(a.memEff, b.memEff, at);
        EXPECT_EQ(a.repeat, b.repeat) << at;
        EXPECT_EQ(a.dtype, b.dtype) << at;
        const auto da = got.deps(n);
        const auto db = want.deps(n);
        ASSERT_TRUE(std::equal(da.begin(), da.end(), db.begin(), db.end()))
            << at;
        const std::uint32_t ka = got.nodes[n].kernel;
        const std::uint32_t kb = want.nodes[n].kernel;
        expectSameBits(got.costs.seconds[ka], want.costs.seconds[kb], at);
        expectSameBits(got.costs.execSeconds[ka],
                       want.costs.execSeconds[kb], at);
        expectSameBits(got.costs.overheadSeconds[ka],
                       want.costs.overheadSeconds[kb], at);
    }
}

void
expectReplayMatchesUnrolled(const Pipeline& p,
                            const kernels::CostModel& model,
                            const LoweringOptions& options = {})
{
    const ExecutionPlan oracle = lowerPipeline(unrolled(p), model, options);
    // The oracle shares nothing: one record per row.
    EXPECT_EQ(oracle.opInfos.size(), oracle.ops.size());
    EXPECT_EQ(oracle.kernelInfos.size(), oracle.nodes.size());
    expectSamePlan(lowerPipeline(p, model, options), oracle);
}

TEST(StepReplay, SyntheticDecodeMatchesUnrolledSteps)
{
    Pipeline p;
    p.name = "synthetic_ar";
    Stage decode;
    decode.name = "decode";
    decode.iterations = 7;
    decode.perIterationShapes = true;
    decode.emit = [](GraphBuilder& b, std::int64_t iter) {
        const TensorDesc x({1, 1, 4096}, DType::F16);
        // Memory-bound 32 MiB weights: split into weight-stream nodes.
        b.linear(x, 4096);
        // Step-dependent attention: seqKv grows every step.
        b.attention(graph::AttentionKind::CausalSelf, 1, 32, 1,
                    64 + iter, 128);
        // Emitted on some steps only, so later positions shift.
        if (iter % 3 == 1)
            b.gelu(x);
        b.linear(x, 4096);
        b.layerNorm(x);
    };
    p.stages.push_back(std::move(decode));
    Stage tail;
    tail.name = "head";
    tail.iterations = 3;
    tail.emit = [](GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({1, 1, 4096}, DType::F16), 4096);
    };
    p.stages.push_back(std::move(tail));

    LoweringOptions split;
    split.splitWeightStreams = true;
    for (const AttentionBackend backend :
         {AttentionBackend::Flash, AttentionBackend::Baseline}) {
        const kernels::CostModel model = costModel(backend);
        ASSERT_TRUE(lowerPipeline(p, model, split).hasWeightStreams);
        expectReplayMatchesUnrolled(p, model, split);
        expectReplayMatchesUnrolled(p, model);
    }
}

/** Decode-shaped models at test size (Parti grid 8, LLaMA 64 tokens). */
std::vector<Pipeline>
decodeModels()
{
    models::PartiConfig parti;
    parti.imageGrid = 8;
    models::LlamaConfig llama;
    llama.decodeTokens = 64;
    return {models::buildParti(parti), models::buildLlama(llama)};
}

TEST(StepReplay, PartiAndLlamaMatchUnrolledSteps)
{
    for (const Pipeline& p : decodeModels()) {
        for (const AttentionBackend backend :
             {AttentionBackend::Flash, AttentionBackend::Baseline}) {
            SCOPED_TRACE(p.name + "/" +
                         graph::attentionBackendName(backend));
            expectReplayMatchesUnrolled(p, costModel(backend));
        }
    }
}

/**
 * Records a from-scratch lowering of `p` must store: one op record per
 * op no step can replay (every op of a shape-invariant stage and of a
 * stage's first step, and each later step's op that differs from the
 * previous step's op at its position), and one kernel record per node
 * of those ops (node counts read from `plan`).
 */
std::pair<std::size_t, std::size_t>
fromScratchRecords(const Pipeline& p, const ExecutionPlan& plan)
{
    std::size_t op_records = 0;
    std::size_t kernel_records = 0;
    std::size_t oi = 0;
    for (std::size_t si = 0; si < p.stages.size(); ++si) {
        const Stage& stage = p.stages[si];
        const std::int64_t steps =
            stage.perIterationShapes ? stage.iterations : 1;
        graph::Trace prev;
        for (std::int64_t it = 0; it < steps; ++it) {
            const graph::Trace step = p.traceStage(si, it);
            for (std::size_t i = 0; i < step.size(); ++i, ++oi) {
                if (i < prev.size() && step.ops()[i] == prev.ops()[i])
                    continue;
                ++op_records;
                kernel_records += plan.opInfo(oi).nodeCount;
            }
            prev = step;
        }
    }
    EXPECT_EQ(oi, plan.ops.size());
    return {op_records, kernel_records};
}

TEST(StepReplay, RecordsOnlyWhatAStepChanges)
{
    for (const Pipeline& p : decodeModels()) {
        for (const AttentionBackend backend :
             {AttentionBackend::Flash, AttentionBackend::Baseline}) {
            SCOPED_TRACE(p.name + "/" +
                         graph::attentionBackendName(backend));
            const ExecutionPlan plan = lowerPipeline(p, costModel(backend));
            const auto [op_records, kernel_records] =
                fromScratchRecords(p, plan);
            EXPECT_EQ(plan.opInfos.size(), op_records);
            EXPECT_EQ(plan.kernelInfos.size(), kernel_records);
            EXPECT_EQ(plan.costs.seconds.size(), kernel_records);
            // Replay shares most records: a decode step changes only a
            // few of its ops.
            EXPECT_LT(4 * plan.opInfos.size(), plan.ops.size());
            EXPECT_LT(2 * plan.kernelInfos.size(), plan.nodes.size());
        }
    }
}

TEST(Lane, Names)
{
    EXPECT_EQ(laneName(Lane::Compute), "compute");
    EXPECT_EQ(laneName(Lane::Copy), "copy");
}

} // namespace
} // namespace mmgen::exec
