/**
 * @file
 * Per-operator profile records and aggregate reports.
 *
 * The simulated counterpart of the paper's profiling framework
 * (Section III, "Tools"): operator records carry the module scope the
 * forward hooks would have annotated, and reports aggregate kernel
 * time into the operator categories of Fig. 6.
 */

#ifndef MMGEN_PROFILER_RECORD_HH
#define MMGEN_PROFILER_RECORD_HH

#include <array>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "exec/plan.hh"
#include "exec/schedule.hh"
#include "graph/op.hh"
#include "util/stats.hh"

namespace mmgen::profiler {

/**
 * One profiled operator instance (aggregated over its repeats). The
 * scope and stage view into the plan the record was built from.
 */
struct OpRecord
{
    graph::OpKind kind = graph::OpKind::Elementwise;
    graph::OpCategory category = graph::OpCategory::Elementwise;
    std::string_view scope;
    std::string_view stage;
    /** Total simulated time including repeats, seconds. */
    double seconds = 0.0;
    double flops = 0.0;
    double hbmBytes = 0.0;
    std::int64_t launches = 0;
    std::int64_t repeat = 1;
    /** Query sequence length (attention ops only, else -1). */
    std::int64_t seqLen = -1;
    /** Attended (key/value) sequence length (attention ops only). */
    std::int64_t seqKv = -1;
    /** Attention flavour (attention ops only). */
    graph::AttentionKind attnKind = graph::AttentionKind::SelfSpatial;
};

/**
 * The record of op `oi` of `plan`, timed by `timeline` (which must
 * have been scheduled from `plan`): the per-op detail the profiler
 * aggregates, read back on demand instead of stored in its result.
 */
OpRecord opRecord(const exec::ExecutionPlan& plan,
                  const exec::Timeline& timeline, std::size_t oi);

/** Execution-time totals per operator category (paper Fig. 6). */
class BreakdownReport
{
  public:
    /** Accumulate one record. */
    void add(const OpRecord& record);

    /** Merge another report into this one. */
    void merge(const BreakdownReport& other);

    double totalSeconds() const { return total; }

    /** Seconds attributed to a category. */
    double categorySeconds(graph::OpCategory c) const;

    /** Fraction of total time in a category (0 when total is 0). */
    double categoryFraction(graph::OpCategory c) const;

    /**
     * Raw per-category seconds, indexed by OpCategory (disk-cache
     * serde only — report consumers use categorySeconds()).
     */
    const std::array<double, 7>& rawCategories() const
    {
        return perCategory;
    }

    /** Rebuild from serialized raw state (disk-cache serde only). */
    static BreakdownReport fromRaw(const std::array<double, 7>& per,
                                   double total_seconds);

  private:
    std::array<double, 7> perCategory{};
    double total = 0.0;
};

/** Per-attention-kind time/FLOP accumulation (paper Fig. 11). */
struct AttentionKindStats
{
    struct Entry
    {
        double seconds = 0.0;
        double flops = 0.0;
        std::int64_t calls = 0;
    };

    std::map<graph::AttentionKind, Entry> byKind;

    void add(graph::AttentionKind kind, double seconds, double flops,
             std::int64_t calls);

    Entry entryFor(graph::AttentionKind kind) const;
};

/**
 * Sequence length of every attention call in execution order
 * (paper Fig. 7) plus the weighted frequency distribution over the
 * whole inference (paper Fig. 8).
 */
class SequenceLengthTrace
{
  public:
    /**
     * Record one attention call.
     *
     * @param seq_len  query sequence length
     * @param weight   how many times the call executes (iteration
     *                 folding), applied to the histogram only
     */
    void record(std::int64_t seq_len, std::uint64_t weight = 1);

    /** Per-call series (one entry per distinct traced call). */
    const std::vector<std::int64_t>& series() const { return series_; }

    /** Weighted distribution over the course of inference. */
    const ValueHistogram& histogram() const { return hist; }

    /** Max / min sequence length of the series (0 when empty). */
    std::int64_t maxSeqLen() const;
    std::int64_t minSeqLen() const;

    /** Rebuild from serialized raw state (disk-cache serde only). */
    static SequenceLengthTrace fromRaw(std::vector<std::int64_t> series,
                                       ValueHistogram histogram);

  private:
    std::vector<std::int64_t> series_;
    ValueHistogram hist;
};

} // namespace mmgen::profiler

#endif // MMGEN_PROFILER_RECORD_HH
