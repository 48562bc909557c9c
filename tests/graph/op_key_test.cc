/**
 * @file
 * Op equality and opFingerprint must key on the same fields.
 *
 * `Op::operator==` decides when lowering may replay the previous decode
 * step's records for an op, and opFingerprint is the per-op term of the
 * `ProfileCache` key. Perturbing any single field of an op (kind,
 * scope, dtype, repeat, or any attribute field) must make the ops
 * unequal *and* change the fingerprint. The field-count checks below
 * fail when a struct gains a field this test does not perturb, which
 * is exactly the field `hashAttrs` would be likely to miss.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/op.hh"
#include "graph/pipeline.hh"

namespace mmgen::graph {
namespace {

/** Converts to any member type: probes aggregate initializability. */
struct AnyField
{
    template <typename T>
    operator T() const;
};

/** Number of fields of aggregate `T` (its brace-init arity). */
template <typename T, typename... Fields>
consteval std::size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

template <typename A>
using Perturbations =
    std::vector<std::pair<std::string, std::function<void(A&)>>>;

/**
 * Perturb each listed field of `attrs` in turn and require that the
 * list covers every field of `A`.
 */
template <typename A>
void
expectEveryFieldKeyed(OpKind kind, const A& attrs,
                      const Perturbations<A>& perturbations)
{
    EXPECT_EQ(perturbations.size(), fieldCount<A>())
        << "a field of this attrs struct is not perturbed below";
    Op base;
    base.kind = kind;
    base.scope = "model.block";
    base.attrs = attrs;
    const Op same = base;
    EXPECT_TRUE(same == base);
    EXPECT_EQ(opFingerprint(same), opFingerprint(base));
    for (const auto& [field, perturb] : perturbations) {
        Op changed = base;
        perturb(std::get<A>(changed.attrs));
        EXPECT_FALSE(changed == base) << field;
        EXPECT_NE(opFingerprint(changed), opFingerprint(base)) << field;
    }
}

TEST(OpKey, OpFieldsAreKeyed)
{
    const Perturbations<Op> perturbations = {
        {"kind", [](Op& o) { o.kind = OpKind::Conv3D; }},
        {"scope", [](Op& o) { o.scope += ".x"; }},
        {"attrs", [](Op& o) { std::get<ConvAttrs>(o.attrs).batch = 2; }},
        {"dtype", [](Op& o) { o.dtype = DType::F32; }},
        {"repeat", [](Op& o) { o.repeat = 2; }},
    };
    EXPECT_EQ(perturbations.size(), fieldCount<Op>());
    Op base;
    base.kind = OpKind::Conv2D;
    base.scope = "unet.conv";
    base.attrs = ConvAttrs{};
    for (const auto& [field, perturb] : perturbations) {
        Op changed = base;
        perturb(changed);
        EXPECT_FALSE(changed == base) << field;
        EXPECT_NE(opFingerprint(changed), opFingerprint(base)) << field;
    }
}

TEST(OpKey, ConvAttrsFieldsAreKeyed)
{
    expectEveryFieldKeyed<ConvAttrs>(
        OpKind::Conv2D, ConvAttrs{},
        {{"batch", [](ConvAttrs& a) { ++a.batch; }},
         {"inChannels", [](ConvAttrs& a) { ++a.inChannels; }},
         {"outChannels", [](ConvAttrs& a) { ++a.outChannels; }},
         {"inH", [](ConvAttrs& a) { ++a.inH; }},
         {"inW", [](ConvAttrs& a) { ++a.inW; }},
         {"inD", [](ConvAttrs& a) { ++a.inD; }},
         {"kernelH", [](ConvAttrs& a) { ++a.kernelH; }},
         {"kernelW", [](ConvAttrs& a) { ++a.kernelW; }},
         {"kernelD", [](ConvAttrs& a) { ++a.kernelD; }},
         {"strideH", [](ConvAttrs& a) { ++a.strideH; }},
         {"strideW", [](ConvAttrs& a) { ++a.strideW; }},
         {"groups", [](ConvAttrs& a) { ++a.groups; }},
         {"hasBias", [](ConvAttrs& a) { a.hasBias = !a.hasBias; }}});
}

TEST(OpKey, LinearAttrsFieldsAreKeyed)
{
    expectEveryFieldKeyed<LinearAttrs>(
        OpKind::Linear, LinearAttrs{},
        {{"rows", [](LinearAttrs& a) { ++a.rows; }},
         {"inFeatures", [](LinearAttrs& a) { ++a.inFeatures; }},
         {"outFeatures", [](LinearAttrs& a) { ++a.outFeatures; }},
         {"hasBias", [](LinearAttrs& a) { a.hasBias = !a.hasBias; }}});
}

TEST(OpKey, MatmulAttrsFieldsAreKeyed)
{
    expectEveryFieldKeyed<MatmulAttrs>(
        OpKind::Matmul, MatmulAttrs{},
        {{"batch", [](MatmulAttrs& a) { ++a.batch; }},
         {"m", [](MatmulAttrs& a) { ++a.m; }},
         {"n", [](MatmulAttrs& a) { ++a.n; }},
         {"k", [](MatmulAttrs& a) { ++a.k; }}});
}

TEST(OpKey, AttentionAttrsFieldsAreKeyed)
{
    expectEveryFieldKeyed<AttentionAttrs>(
        OpKind::Attention, AttentionAttrs{},
        {{"kind",
          [](AttentionAttrs& a) { a.kind = AttentionKind::Temporal; }},
         {"batch", [](AttentionAttrs& a) { ++a.batch; }},
         {"heads", [](AttentionAttrs& a) { ++a.heads; }},
         {"seqQ", [](AttentionAttrs& a) { ++a.seqQ; }},
         {"seqKv", [](AttentionAttrs& a) { ++a.seqKv; }},
         {"headDim", [](AttentionAttrs& a) { ++a.headDim; }},
         {"causal", [](AttentionAttrs& a) { a.causal = !a.causal; }},
         {"seqStrideElems", [](AttentionAttrs& a) { ++a.seqStrideElems; }},
         {"featureStrideElems",
          [](AttentionAttrs& a) { ++a.featureStrideElems; }}});
}

TEST(OpKey, NormAttrsFieldsAreKeyed)
{
    expectEveryFieldKeyed<NormAttrs>(
        OpKind::GroupNorm, NormAttrs{},
        {{"numel", [](NormAttrs& a) { ++a.numel; }},
         {"channels", [](NormAttrs& a) { ++a.channels; }},
         {"groups", [](NormAttrs& a) { ++a.groups; }}});
}

TEST(OpKey, SoftmaxAttrsFieldsAreKeyed)
{
    expectEveryFieldKeyed<SoftmaxAttrs>(
        OpKind::Softmax, SoftmaxAttrs{},
        {{"rows", [](SoftmaxAttrs& a) { ++a.rows; }},
         {"cols", [](SoftmaxAttrs& a) { ++a.cols; }}});
}

TEST(OpKey, ElemAttrsFieldsAreKeyed)
{
    expectEveryFieldKeyed<ElemAttrs>(
        OpKind::Elementwise, ElemAttrs{},
        {{"numel", [](ElemAttrs& a) { ++a.numel; }},
         {"arity", [](ElemAttrs& a) { ++a.arity; }},
         {"flopsPerElement", [](ElemAttrs& a) { a.flopsPerElement *= 2; }},
         {"label", [](ElemAttrs& a) { a.label = "silu"; }}});
}

TEST(OpKey, ElemFlopsCompareBitwise)
{
    // Bitwise equality is stricter than the hash, which folds -0.0
    // into 0.0: replay may only reuse records that cost the same bits.
    ElemAttrs pos;
    pos.flopsPerElement = 0.0;
    ElemAttrs neg = pos;
    neg.flopsPerElement = -0.0;
    EXPECT_FALSE(pos == neg);
    ElemAttrs nan = pos;
    nan.flopsPerElement = std::nan("");
    EXPECT_TRUE(nan == ElemAttrs(nan));
}

TEST(OpKey, EmbeddingAttrsFieldsAreKeyed)
{
    expectEveryFieldKeyed<EmbeddingAttrs>(
        OpKind::Embedding, EmbeddingAttrs{},
        {{"tokens", [](EmbeddingAttrs& a) { ++a.tokens; }},
         {"dim", [](EmbeddingAttrs& a) { ++a.dim; }},
         {"vocab", [](EmbeddingAttrs& a) { ++a.vocab; }}});
}

TEST(OpKey, ResampleAttrsFieldsAreKeyed)
{
    expectEveryFieldKeyed<ResampleAttrs>(
        OpKind::Upsample, ResampleAttrs{},
        {{"numelIn", [](ResampleAttrs& a) { ++a.numelIn; }},
         {"numelOut", [](ResampleAttrs& a) { ++a.numelOut; }}});
}

TEST(OpKey, CopyAttrsFieldsAreKeyed)
{
    expectEveryFieldKeyed<CopyAttrs>(
        OpKind::Copy, CopyAttrs{},
        {{"bytes", [](CopyAttrs& a) { ++a.bytes; }}});
}

TEST(OpKey, AttrsAlternativeIsKeyed)
{
    // Same kind, scope, dtype, repeat and field words, but different
    // attrs structs: unequal ops must not share a fingerprint.
    Op softmax;
    softmax.kind = OpKind::Softmax;
    softmax.scope = "model.block";
    softmax.attrs = SoftmaxAttrs{2, 3};
    Op resample = softmax;
    resample.attrs = ResampleAttrs{2, 3};
    EXPECT_FALSE(softmax == resample);
    EXPECT_NE(opFingerprint(softmax), opFingerprint(resample));
}

} // namespace
} // namespace mmgen::graph
