/**
 * @file
 * Tests for pipelines and traces: stage tracing, parameter counting,
 * and traces reused across stages.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/pipeline.hh"
#include "models/llama.hh"
#include "serving/latency_surface.hh"
#include "util/logging.hh"

namespace mmgen::graph {
namespace {

Pipeline
twoStagePipeline()
{
    Pipeline p;
    p.name = "toy";
    p.klass = ModelClass::DiffusionLatent;

    Stage enc;
    enc.name = "encoder";
    enc.iterations = 1;
    enc.emit = [](GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({1, 8, 16}, DType::F16), 32);
    };
    p.stages.push_back(std::move(enc));

    Stage loop;
    loop.name = "loop";
    loop.iterations = 10;
    loop.perIterationShapes = true;
    loop.emit = [](GraphBuilder& b, std::int64_t iter) {
        // Shape depends on the iteration (KV growth).
        b.attention(AttentionKind::CausalSelf, 1, 4, 1, iter + 1, 16);
    };
    p.stages.push_back(std::move(loop));
    return p;
}

TEST(Pipeline, TraceStageScopesUnderStageName)
{
    const Pipeline p = twoStagePipeline();
    const Trace t = p.traceStage(0, 0);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.ops()[0].scope, "encoder");
}

TEST(Pipeline, TraceStageHonorsIteration)
{
    const Pipeline p = twoStagePipeline();
    const Trace t = p.traceStage(1, 7);
    const auto& a = t.ops()[0].as<AttentionAttrs>();
    EXPECT_EQ(a.seqKv, 8);
}

TEST(Pipeline, TraceStageValidates)
{
    const Pipeline p = twoStagePipeline();
    EXPECT_THROW(p.traceStage(2, 0), FatalError);
    EXPECT_THROW(p.traceStage(1, 10), FatalError);
    EXPECT_THROW(p.traceStage(1, -1), FatalError);
}

TEST(Pipeline, TotalParamsCountsEachStageOnce)
{
    const Pipeline p = twoStagePipeline();
    // encoder: 16*32 weights + 32 bias; the attention loop is
    // weightless.
    EXPECT_EQ(p.totalParams(), 16 * 32 + 32);
}

TEST(Pipeline, WeightSharingStagesNotDoubleCounted)
{
    Pipeline p;
    p.name = "shared";
    for (int i = 0; i < 2; ++i) {
        Stage s;
        s.name = i == 0 ? "prefill" : "decode";
        s.iterations = 1;
        s.reusesWeights = i == 1; // same weights as the first stage
        s.emit = [](GraphBuilder& b, std::int64_t) {
            b.linear(TensorDesc({1, 4}, DType::F16), 4, false);
        };
        p.stages.push_back(std::move(s));
    }
    EXPECT_EQ(p.totalParams(), 16);
}

TEST(Pipeline, DtypePropagatesToTracedOps)
{
    Pipeline p = twoStagePipeline();
    p.dtype = DType::I8;
    const Trace t = p.traceStage(0, 0);
    EXPECT_EQ(t.ops()[0].dtype, DType::I8);
}

TEST(ModelClass, Predicates)
{
    EXPECT_TRUE(isDiffusionClass(ModelClass::DiffusionPixel));
    EXPECT_TRUE(isDiffusionClass(ModelClass::DiffusionLatent));
    EXPECT_TRUE(isDiffusionClass(ModelClass::DiffusionTTV));
    EXPECT_FALSE(isDiffusionClass(ModelClass::TransformerTTI));
    EXPECT_TRUE(isVideoClass(ModelClass::DiffusionTTV));
    EXPECT_TRUE(isVideoClass(ModelClass::TransformerTTV));
    EXPECT_FALSE(isVideoClass(ModelClass::LLM));
    EXPECT_EQ(modelClassName(ModelClass::DiffusionLatent),
              "Diffusion (Latent)");
}

TEST(Trace, ClearAndAccumulate)
{
    Trace t;
    EXPECT_TRUE(t.empty());
    GraphBuilder b(t);
    b.linear(TensorDesc({1, 4}, DType::F16), 4, false);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.totalParams(), 16);
    t.clear();
    EXPECT_TRUE(t.empty());
}

/** The op stream of a trace as per-op structural hashes. */
std::vector<std::uint64_t>
opStream(const Trace& t)
{
    std::vector<std::uint64_t> out;
    for (const Op& op : t.ops())
        out.push_back(opFingerprint(op));
    return out;
}

TEST(Pipeline, TraceIntoReusedBufferMatchesFreshTrace)
{
    Pipeline p;
    p.name = "growing";
    Stage loop;
    loop.name = "loop";
    loop.iterations = 6;
    loop.perIterationShapes = true;
    // Iteration i emits i + 1 ops, so a buffer last filled by a later
    // iteration holds more ops than the one traced into it.
    loop.emit = [](GraphBuilder& b, std::int64_t iter) {
        for (std::int64_t l = 0; l <= iter; ++l) {
            auto s = b.scope("layer" + std::to_string(l));
            b.attention(AttentionKind::CausalSelf, 1, 4, 1, iter + 1, 16);
        }
    };
    p.stages.push_back(std::move(loop));

    Trace buffer;
    for (const std::int64_t iter : {5, 2, 0, 4, 1}) {
        p.traceStage(0, iter, buffer);
        const Trace fresh = p.traceStage(0, iter);
        EXPECT_EQ(buffer.size(), static_cast<std::size_t>(iter + 1));
        EXPECT_EQ(opStream(buffer), opStream(fresh)) << "iter " << iter;
    }
}

TEST(Pipeline, TraceIntoReusedBufferMatchesFreshTraceLlamaDecode)
{
    models::LlamaConfig cfg;
    cfg.layers = 2;
    cfg.promptLen = 16;
    cfg.decodeTokens = 8;
    const Pipeline p = models::buildLlama(cfg);
    std::size_t decode = p.stages.size();
    for (std::size_t si = 0; si < p.stages.size(); ++si)
        if (p.stages[si].perIterationShapes)
            decode = si;
    ASSERT_LT(decode, p.stages.size());

    Trace buffer;
    p.traceStage(0, 0, buffer); // the buffer first holds another stage
    ASSERT_GT(buffer.size(), 0u);
    // Later steps first: each step is traced over a longer-KV one.
    for (std::int64_t iter = cfg.decodeTokens - 1; iter >= 0; --iter) {
        p.traceStage(decode, iter, buffer);
        EXPECT_EQ(opStream(buffer), opStream(p.traceStage(decode, iter)))
            << "iter " << iter;
    }
}

/** `got` equals a fresh trace: size, ops, params and per-op hashes. */
void
expectSameTrace(const Trace& got, const Trace& want,
                const std::string& what)
{
    EXPECT_EQ(got.size(), want.size()) << what;
    EXPECT_TRUE(std::equal(got.ops().begin(), got.ops().end(),
                           want.ops().begin(), want.ops().end()))
        << what;
    EXPECT_EQ(got.totalParams(), want.totalParams()) << what;
    EXPECT_EQ(opStream(got), opStream(want)) << what;
}

TEST(Trace, ReusedSlotsMatchFreshTraces)
{
    Pipeline p;
    p.name = "slots";
    Stage wide;
    wide.name = "a_stage_name_longer_than_any_small_string_buffer";
    wide.iterations = 1;
    wide.emit = [](GraphBuilder& b, std::int64_t) {
        const TensorDesc x({1, 16, 64}, DType::F16);
        for (int l = 0; l < 6; ++l) {
            auto s = b.scope("layer" + std::to_string(l));
            b.layerNorm(x);
            b.linear(x, 64);
            b.attention(AttentionKind::SelfSpatial, 1, 4, 16, 16, 16);
            b.activation(x, "a_label_longer_than_a_small_string", 3.0);
        }
    };
    Stage narrow;
    narrow.name = "n";
    narrow.iterations = 1;
    narrow.emit = [](GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({1, 8}, DType::F16), 8, false);
        b.softmax(TensorDesc({1, 8}, DType::F16));
    };
    // Other op kinds, appended verbatim with repeat > 1.
    Stage folded;
    folded.name = "folded";
    folded.iterations = 1;
    folded.emit = [](GraphBuilder& b, std::int64_t) {
        Op conv;
        conv.kind = OpKind::Conv2D;
        conv.scope = "folded.conv";
        conv.attrs = ConvAttrs{1, 8, 8, 16, 16};
        conv.repeat = 3;
        b.appendOp(conv);
        Op up;
        up.kind = OpKind::Upsample;
        up.scope = "f";
        up.attrs = ResampleAttrs{64, 256};
        up.dtype = DType::F32;
        up.repeat = 5;
        b.appendOp(up);
    };
    p.stages = {wide, narrow, folded};
    // Batch-scaled: its emitter appends the rewritten ops through
    // appendOp, repeats kept.
    const Pipeline scaled = serving::scaledPipeline(p, 2, 1.0);

    Trace buffer;
    // Long, shorter, other kinds with repeats, then the long and
    // short stages again over slots the repeated ops last held.
    const std::pair<const Pipeline*, std::size_t> order[] = {
        {&p, 0}, {&p, 1}, {&scaled, 2}, {&p, 0}, {&scaled, 1}, {&p, 2}};
    for (const auto& [pipe, si] : order) {
        pipe->traceStage(si, 0, buffer);
        expectSameTrace(buffer, pipe->traceStage(si, 0),
                        pipe->name + "/" + pipe->stages[si].name);
    }
    EXPECT_EQ(buffer.ops()[0].repeat, 3);
}

} // namespace
} // namespace mmgen::graph
