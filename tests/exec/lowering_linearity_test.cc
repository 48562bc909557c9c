/**
 * @file
 * Lowering cost must grow linearly with autoregressive decode steps.
 *
 * This binary replaces the global operator new/delete to count the
 * bytes allocated while `Profiler::lower` runs. Byte counts are
 * deterministic (same inputs, same growth policy), so the gates below
 * hold on any machine: doubling LLaMA's decode tokens, or quadrupling
 * Parti's decode steps, must scale allocation by at most ~1.15x the
 * step ratio. A per-step exact `reserve` on a growing plan vector,
 * which recopies the whole plan every step, is quadratic and fails.
 *
 * It also counts the allocations of 256 KiB or more, a threshold below
 * every plan array of the smaller Parti plan (its dep pool is ~340 KiB):
 * lowering sizes the plan arrays once, so a longer decode must not add
 * any. A plan array that regrows geometrically adds about two per
 * fourfold decode.
 *
 * Finally it pins the absolute bytes of a long Parti decode against
 * the figure of a lowering that copied every step's records.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>

#include "models/llama.hh"
#include "models/parti.hh"
#include "profiler/engine.hh"

namespace {

constexpr std::size_t kLargeAlloc = std::size_t{1} << 18;

std::atomic<bool> counting{false};
std::atomic<std::size_t> bytesAllocated{0};
std::atomic<std::size_t> largeAllocations{0};

void*
countedAlloc(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed)) {
        bytesAllocated.fetch_add(size, std::memory_order_relaxed);
        if (size >= kLargeAlloc)
            largeAllocations.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mmgen::exec {
namespace {

struct LoweringCost
{
    std::size_t bytes = 0;
    std::size_t ops = 0;
    /** Allocations of at least kLargeAlloc bytes. */
    std::size_t large = 0;
};

/** Bytes allocated by lowering `pipeline` (the plan's size too). */
LoweringCost
lowerCounted(const graph::Pipeline& pipeline,
             graph::AttentionBackend backend =
                 graph::AttentionBackend::Flash)
{
    profiler::ProfileOptions options;
    options.backend = backend;
    const profiler::Profiler profiler(options);
    bytesAllocated = 0;
    largeAllocations = 0;
    counting = true;
    ExecutionPlan plan = profiler.lower(pipeline);
    counting = false;
    return {bytesAllocated.load(), plan.ops.size(),
            largeAllocations.load()};
}

/**
 * Lower `small` and `large` (which has `stepRatio` times the decode
 * steps) and gate the allocation ratio at `bound`.
 */
void
expectLinear(const graph::Pipeline& small, const graph::Pipeline& large,
             double stepRatio, double bound)
{
    const LoweringCost a = lowerCounted(small);
    const LoweringCost b = lowerCounted(large);
    ASSERT_GT(a.bytes, 0u);
    const double opRatio =
        static_cast<double>(b.ops) / static_cast<double>(a.ops);
    const double byteRatio =
        static_cast<double>(b.bytes) / static_cast<double>(a.bytes);
    std::cout << small.name << ": ops x" << opRatio << ", bytes x"
              << byteRatio << " (" << a.bytes << " -> " << b.bytes
              << ")\n";
    // The larger pipeline really does carry about `stepRatio` times
    // the decode work, so the byte gate below is not vacuous.
    EXPECT_GT(opRatio, 0.75 * stepRatio);
    EXPECT_LE(opRatio, stepRatio);
    EXPECT_LE(byteRatio, bound)
        << "lowering allocation grew superlinearly in decode steps";
}

TEST(LoweringLinearity, LlamaDoubleDecodeTokensAtMostDoublesBytes)
{
    models::LlamaConfig small;
    small.decodeTokens = 128;
    models::LlamaConfig large = small;
    large.decodeTokens = 256;
    expectLinear(models::buildLlama(small), models::buildLlama(large),
                 2.0, 2.3);
}

TEST(LoweringLinearity, PartiFourfoldDecodeStepsAtMostQuadruplesBytes)
{
    models::PartiConfig small;
    small.imageGrid = 8;
    models::PartiConfig large = small;
    large.imageGrid = 16;
    expectLinear(models::buildParti(small), models::buildParti(large),
                 4.0, 4.6);
}

TEST(LoweringLinearity, PartiLongerDecodeAddsNoLargeAllocations)
{
    models::PartiConfig small;
    small.imageGrid = 8;
    models::PartiConfig large = small;
    large.imageGrid = 16;
    const LoweringCost a = lowerCounted(models::buildParti(small));
    const LoweringCost b = lowerCounted(models::buildParti(large));
    std::cout << "Parti: allocations >= 256 KiB " << a.large << " -> "
              << b.large << "\n";
    ASSERT_GT(a.large, 0u);
    EXPECT_LE(b.large, a.large)
        << "a plan array regrew instead of being sized once";
}

TEST(LoweringLinearity, PartiDecodeStepsShareRecords)
{
    // Bytes this counter saw lowering Parti grid 16 with a lowering
    // that wrote a full op record per op and a kernel record plus cost
    // row per node on every decode step. A replayed step appends only
    // index rows pointing at the previous step's records and traces
    // into reused op slots, which must at least halve the bytes.
    const struct
    {
        graph::AttentionBackend backend;
        std::size_t copiedRecordBytes;
    } cases[] = {{graph::AttentionBackend::Flash, 115'467'348},
                 {graph::AttentionBackend::Baseline, 140'683'830}};
    models::PartiConfig config;
    config.imageGrid = 16;
    const graph::Pipeline parti = models::buildParti(config);
    for (const auto& c : cases) {
        const LoweringCost cost = lowerCounted(parti, c.backend);
        std::cout << "Parti grid 16 "
                  << graph::attentionBackendName(c.backend) << ": "
                  << cost.bytes << " bytes (per-step records: "
                  << c.copiedRecordBytes << ")\n";
        EXPECT_LE(cost.bytes, c.copiedRecordBytes / 2)
            << graph::attentionBackendName(c.backend);
    }
}

} // namespace
} // namespace mmgen::exec
