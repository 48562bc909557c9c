/**
 * @file
 * mmgen command-line interface.
 *
 * Two tables declare the whole front end: `kCommands` (each
 * subcommand's positional arguments, help line and handler) and
 * `kFlags` (each flag once, with its help, the subcommands whose code
 * reads it, and its setter into `Options`). The parser is a lookup
 * into `kFlags` that rejects a flag the subcommand does not read, and
 * `mmgen` with no arguments renders both tables as its usage text.
 */

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analytics/inference_footprint.hh"
#include "core/lint.hh"
#include "exec/memory.hh"
#include "core/reports.hh"
#include "core/suite.hh"
#include "core/taxonomy.hh"
#include "models/stable_diffusion.hh"
#include "profiler/chrome_trace.hh"
#include "runtime/disk_cache.hh"
#include "runtime/profile_cache.hh"
#include "runtime/runtime_metrics.hh"
#include "runtime/thread_pool.hh"
#include "serving/cluster.hh"
#include "serving/latency_surface.hh"
#include "serving/simulator.hh"
#include "workload/workload.hh"
#include "telemetry/consistency.hh"
#include "telemetry/export.hh"
#include "telemetry/telemetry.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace {

using namespace mmgen;

models::ModelId
parseModel(const std::string& name)
{
    for (models::ModelId id : models::allModels()) {
        if (models::modelName(id) == name)
            return id;
    }
    MMGEN_CHECK(false, "unknown model '" << name
                                         << "'; see `mmgen list`");
}

/** Everything the flags set; `kFlags` says which subcommand reads what. */
struct Options
{
    hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    graph::AttentionBackend backend = graph::AttentionBackend::Flash;
    std::vector<std::string> positional;

    std::string traceFile;
    exec::ScheduleOptions schedule;
    exec::LoweringOptions lowering;

    bool lintAll = false;
    bool lintJson = false;
    bool lintRules = false;
    bool lintPhysics = true;
    bool lintProbes = true;
    bool lintMemory = true;
    std::vector<std::string> suppressRules;

    bool memoryAnalysis = false;

    serving::ServingConfig serving;
    serving::ResilienceConfig resilience;
    std::int64_t degradeThreshold = 0;
    double degradeStepsKept = 0.5;
    std::string mixName;
    bool continuous = false;
    bool useSurface = false;

    int replicas = 0;
    serving::RouterPolicy router = serving::RouterPolicy::LeastLoaded;
    std::string chaosName;
    double hedgeDelay = 0.0;
    double hedgeQuantile = 0.0;
    serving::CircuitBreakerPolicy breaker;
    std::int64_t ckptInterval = 0;
    double ckptCost = 0.0;
    serving::ProbeModel probe;
    int domainSize = 1;

    /**
     * Persistent profile cache under MMGEN_CACHE_DIR /
     * $XDG_CACHE_HOME/mmgen / ~/.cache/mmgen. On by default so warm
     * reruns load results instead of re-simulating; --no-disk-cache
     * opts out (results are bit-identical either way).
     */
    bool diskCache = true;

    std::string metricsOut;
    std::string promOut;
    std::string traceOut;
    double sampleInterval = 0.0;

    bool
    wantsTelemetry() const
    {
        return !metricsOut.empty() || !promOut.empty() ||
               !traceOut.empty() || sampleInterval > 0.0;
    }
};

/** The profiler configuration the profile/schedule flags select. */
profiler::ProfileOptions
profileOptions(const Options& opts)
{
    profiler::ProfileOptions popts;
    popts.gpu = opts.gpu;
    popts.backend = opts.backend;
    popts.lowering = opts.lowering;
    popts.schedule = opts.schedule;
    return popts;
}

/** A lowered plan and its scheduled timeline: per-kernel detail. */
struct ScheduledPlan
{
    std::shared_ptr<const exec::ExecutionPlan> plan;
    exec::Timeline timeline;
};

/**
 * The plan `runtime::cachedProfile` priced under `popts`, scheduled
 * again: a plan-cache hit after the profile lowered it.
 */
ScheduledPlan
scheduledPlan(const graph::Pipeline& pipeline,
              const profiler::ProfileOptions& popts)
{
    std::shared_ptr<const exec::ExecutionPlan> plan =
        runtime::cachedPlan(pipeline, popts);
    exec::Timeline timeline =
        exec::TimelineScheduler(popts.gpu, popts.schedule).schedule(*plan);
    return {std::move(plan), std::move(timeline)};
}

/** The models `--model X` or `--all` selects for `cmd`. */
std::vector<models::ModelId>
selectModels(const Options& opts, const char* cmd)
{
    if (opts.lintAll) {
        MMGEN_CHECK(opts.positional.empty(),
                    "--all and --model are mutually exclusive");
        return models::allModels();
    }
    MMGEN_CHECK(opts.positional.size() == 1,
                cmd << " needs --model <name> or --all");
    return {parseModel(opts.positional[0])};
}

std::ofstream
openOutput(const std::string& path)
{
    std::ofstream out(path);
    MMGEN_CHECK(static_cast<bool>(out), "cannot open " << path);
    return out;
}

/** Write the requested metric / trace artifacts, logging each path. */
void
writeTelemetryOutputs(const Options& opts,
                      const telemetry::MetricsRegistry& registry,
                      const telemetry::TraceSink& sink)
{
    if (!opts.metricsOut.empty()) {
        std::ofstream out = openOutput(opts.metricsOut);
        telemetry::writeMetricsJsonLines(out, registry);
        std::cout << "wrote " << registry.size() << " metrics to "
                  << opts.metricsOut << "\n";
    }
    if (!opts.promOut.empty()) {
        std::ofstream out = openOutput(opts.promOut);
        telemetry::writePrometheus(out, registry);
        std::cout << "wrote Prometheus metrics to " << opts.promOut
                  << "\n";
    }
    if (!opts.traceOut.empty()) {
        std::ofstream out = openOutput(opts.traceOut);
        telemetry::writeChromeTrace(out, sink);
        std::cout << "wrote " << sink.events().size()
                  << " trace events to " << opts.traceOut << "\n";
    }
}

/**
 * The telemetry sinks of one `serve` run and the tail both engines
 * share: merge the exec timeline into the serving trace, write the
 * requested artifacts, and check the sampled series (rule P009).
 */
struct ServeTelemetry
{
    const Options& opts;
    telemetry::MetricsRegistry registry;
    telemetry::TraceSink sink;
    telemetry::Telemetry tel{&registry, &sink, opts.sampleInterval};

    explicit ServeTelemetry(const Options& o) : opts(o) {}
    ServeTelemetry(const ServeTelemetry&) = delete;

    /** The hook to hand the engine: null unless an output is asked. */
    telemetry::Telemetry*
    hook()
    {
        return opts.wantsTelemetry() ? &tel : nullptr;
    }

    /** Returns the exit code: 1 when the series check finds errors. */
    int
    finish(const graph::Pipeline& pipeline,
           const serving::ServingReport& r, int totalGpus)
    {
        if (!opts.wantsTelemetry())
            return 0;
        // `serve` takes no backend or schedule flags, so this is the
        // Flash, default-schedule profile that priced the run.
        if (!opts.traceOut.empty()) {
            const profiler::ProfileOptions popts = profileOptions(opts);
            runtime::cachedProfile(pipeline, popts);
            const ScheduledPlan s = scheduledPlan(pipeline, popts);
            telemetry::appendTimeline(sink, *s.plan, s.timeline);
        }
        writeTelemetryOutputs(opts, registry, sink);
        if (opts.sampleInterval <= 0.0)
            return 0;
        telemetry::SeriesExpectations expect;
        expect.horizonSeconds = opts.serving.horizonSeconds;
        expect.totalGpus = totalGpus;
        expect.arrived = r.arrived;
        expect.shed = r.shed;
        expect.inHorizonCompleted = r.completed - r.drainCompleted;
        expect.retries = r.retries;
        expect.hedgesIssued = r.hedgesIssued;
        const verify::DiagnosticReport check =
            telemetry::checkSeriesConsistency(registry, expect);
        if (!check.diagnostics().empty())
            std::cout << "\n" << check.render();
        return check.hasErrors() ? 1 : 0;
    }
};

int
cmdList(const Options&)
{
    std::cout << "models:\n";
    for (models::ModelId id : models::allModels()) {
        const graph::Pipeline p = models::buildModel(id);
        std::cout << "  " << padRight(models::modelName(id), 18)
                  << padRight(graph::modelClassName(p.klass), 22)
                  << formatCount(double(p.totalParams()))
                  << " params\n";
    }
    std::cout << "gpus: a100 (A100-SXM4-80GB), v100 (V100-SXM2-32GB), "
                 "h100 (H100-SXM5-80GB)\n";
    std::cout << "backends: baseline, flash, flash_decode\n";
    return 0;
}

int
cmdProfile(const Options& opts)
{
    const graph::Pipeline pipeline =
        models::buildModel(parseModel(opts.positional[0]));
    const profiler::ProfileOptions popts = profileOptions(opts);
    const profiler::ProfileResult res =
        *runtime::cachedProfile(pipeline, popts);
    // The Chrome-trace exporters draw the plan the profile priced.
    const ScheduledPlan detail =
        opts.traceFile.empty() && opts.traceOut.empty()
            ? ScheduledPlan{}
            : scheduledPlan(pipeline, popts);
    std::cout << "GPU: " << opts.gpu.name << "\n\n";
    std::cout << core::profileSummary(res);
    if (!opts.traceFile.empty()) {
        std::ofstream out = openOutput(opts.traceFile);
        profiler::writeChromeTrace(out, *detail.plan, detail.timeline);
        std::cout << "\nwrote timeline ("
                  << detail.timeline.eventCount() << " events) to "
                  << opts.traceFile << "\n";
    }
    if (opts.wantsTelemetry()) {
        telemetry::MetricsRegistry registry;
        telemetry::TraceSink sink;
        const telemetry::Labels labels{
            {"model", res.model},
            {"gpu", opts.gpu.name},
            {"backend",
             graph::attentionBackendName(opts.backend)}};
        registry.gauge("profile.total_seconds", labels)
            .set(res.totalSeconds);
        registry.gauge("profile.total_flops", labels)
            .set(res.totalFlops);
        registry.gauge("profile.total_hbm_bytes", labels)
            .set(res.totalHbmBytes);
        registry.gauge("profile.launch_overhead_seconds", labels)
            .set(res.launchOverheadSeconds);
        registry
            .counter("profile.kernel_launches", labels)
            .add(res.totalLaunches);
        runtime::publishRuntimeMetrics(registry);
        if (!opts.traceOut.empty())
            telemetry::appendTimeline(sink, *detail.plan,
                                      detail.timeline);
        writeTelemetryOutputs(opts, registry, sink);
    }
    return 0;
}

int
cmdHotspots(const Options& opts)
{
    const graph::Pipeline pipeline =
        models::buildModel(parseModel(opts.positional[0]));
    const profiler::ProfileOptions popts = profileOptions(opts);
    const profiler::ProfileResult res =
        *runtime::cachedProfile(pipeline, popts);
    const ScheduledPlan s = scheduledPlan(pipeline, popts);
    std::cout << res.model << " on " << opts.gpu.name << " ["
              << graph::attentionBackendName(opts.backend)
              << "], total " << formatTime(res.totalSeconds) << "\n\n";
    std::cout << core::hotspotTable(*s.plan, s.timeline, 15).render();
    return 0;
}

int
cmdSuite(const Options& opts)
{
    core::CharacterizationSuite suite(opts.gpu);
    const std::vector<core::ModelRunResult> results =
        suite.runAll(models::allModels());
    std::cout << "GPU: " << opts.gpu.name << "\n\n";
    std::cout << core::flashSpeedupTable(results).render() << "\n";
    std::cout << core::attentionSpeedupTable(results).render() << "\n";
    std::cout << core::rooflineTable(results, opts.gpu).render();
    return 0;
}

int
cmdTaxonomy(const Options& opts)
{
    core::CharacterizationSuite suite(opts.gpu);
    const std::vector<core::ModelRunResult> results =
        suite.runAll(models::allModels());
    std::cout
        << core::taxonomyTable(core::buildTaxonomy(results)).render();
    return 0;
}

int
cmdFootprint(const Options& opts)
{
    TextTable table({"Model", "Weights", "KV cache",
                     "Peak activation", "Total", "Fits " +
                         opts.gpu.name});
    for (models::ModelId id : models::allModels()) {
        const graph::Pipeline p = models::buildModel(id);
        const analytics::InferenceFootprint fp =
            analytics::estimateFootprint(p, opts.backend);
        table.addRow({p.name, formatBytes(fp.weightBytes),
                      formatBytes(fp.kvCacheBytes),
                      formatBytes(fp.peakActivationBytes),
                      formatBytes(fp.totalBytes()),
                      fp.fits(opts.gpu) ? "yes" : "NO"});
    }
    std::cout << table.render();
    return 0;
}

int
cmdServeCluster(const Options& opts, const graph::Pipeline& pipeline,
                const serving::LatencyModel& latency,
                const serving::ResilienceConfig& res)
{
    serving::ClusterConfig cc;
    cc.arrivalRate = opts.serving.arrivalRate;
    cc.maxBatch = opts.serving.maxBatch;
    cc.horizonSeconds = opts.serving.horizonSeconds;
    cc.seed = opts.serving.seed;
    if (!opts.mixName.empty())
        cc.workload = workload::namedWorkloadMix(opts.mixName);
    cc.resilience = res;
    cc.router = opts.router;
    cc.breaker = opts.breaker;
    cc.probe = opts.probe;

    const int numReplicas = std::max(1, opts.replicas);
    MMGEN_CHECK(opts.domainSize >= 1,
                "--domain-size must be >= 1, got "
                    << opts.domainSize);
    cc.replicas.clear();
    for (int r = 0; r < numReplicas; ++r)
        cc.replicas.push_back(serving::ReplicaSpec{
            latency, opts.serving.numGpus, r / opts.domainSize});

    if (opts.hedgeDelay > 0.0)
        cc.hedge.delaySeconds = opts.hedgeDelay;
    else if (opts.hedgeQuantile > 0.0)
        cc.hedge.delaySeconds = serving::hedgeDelayForQuantile(
            latency, cc.maxBatch, opts.hedgeQuantile);
    if (opts.ckptInterval > 0)
        cc.checkpoint = serving::checkpointFromPipeline(
            pipeline, opts.ckptInterval, opts.ckptCost);
    if (!opts.chaosName.empty())
        cc.chaos = serving::namedChaosScenario(
            opts.chaosName, numReplicas, cc.horizonSeconds);

    ServeTelemetry tel(opts);
    const serving::ClusterReport r =
        serving::simulateCluster(cc, tel.hook());

    std::cout << pipeline.name << " on " << numReplicas
              << " replica(s) x " << opts.serving.numGpus << " "
              << opts.gpu.name << " ["
              << serving::routerPolicyName(cc.router)
              << " router, chaos: " << cc.chaos.name
              << "] (batch-1 latency "
              << formatTime(latency.baseSeconds) << ")\n\n";

    const serving::ServingReport& s = r.serving;
    TextTable table({"Metric", "Value"});
    table.addRow({"offered load", formatFixed(s.offeredLoad, 2)});
    table.addRow({"mean availability",
                  formatPercent(s.meanAvailability)});
    table.addRow({"arrived / completed",
                  std::to_string(s.arrived) + " / " +
                      std::to_string(s.completed)});
    table.addRow({"goodput", formatFixed(s.goodput, 2) + " req/s"});
    table.addRow(
        {"p50 / p95 / p99 latency",
         formatTime(s.p50Latency) + " / " + formatTime(s.p95Latency) +
             " / " + formatTime(s.p99Latency)});
    table.addRow({"shed / expired / dropped",
                  std::to_string(s.shed) + " / " +
                      std::to_string(s.expired) + " / " +
                      std::to_string(s.dropped)});
    table.addRow({"retries", std::to_string(s.retries)});
    table.addRow({"hedges issued / won / cancelled",
                  std::to_string(s.hedgesIssued) + " / " +
                      std::to_string(s.hedgesWon) + " / " +
                      std::to_string(s.hedgesCancelled)});
    table.addRow({"hedge waste",
                  formatTime(s.hedgeWastedSeconds) + " GPU"});
    table.addRow({"breaker opens / closes",
                  std::to_string(s.breakerOpens) + " / " +
                      std::to_string(s.breakerCloses)});
    table.addRow({"checkpoints / resumes",
                  std::to_string(s.checkpointsTaken) + " / " +
                      std::to_string(s.resumes)});
    table.addRow({"checkpoint overhead",
                  formatTime(s.checkpointOverheadSeconds) + " GPU"});
    table.addRow({"wasted / restored GPU-seconds",
                  formatFixed(s.wastedGpuSeconds, 1) + " / " +
                      formatFixed(s.restoredGpuSeconds, 1)});
    table.addRow({"backlog", std::to_string(s.backlog)});
    std::cout << table.render() << "\n";

    TextTable reps({"Replica", "Domain", "Batches", "Completed",
                    "Aborted", "Breaker opens", "Busy",
                    "Availability"});
    for (std::size_t i = 0; i < r.replicas.size(); ++i) {
        const serving::ReplicaStats& rs = r.replicas[i];
        reps.addRow({std::to_string(i),
                     std::to_string(cc.replicas[i].domain),
                     std::to_string(rs.dispatchedBatches),
                     std::to_string(rs.completedRequests),
                     std::to_string(rs.abortedBatches),
                     std::to_string(rs.breakerOpens),
                     formatTime(rs.busySeconds),
                     formatPercent(rs.availability)});
    }
    std::cout << reps.render();
    return tel.finish(pipeline, s, cc.totalGpus());
}

int
cmdServe(const Options& opts)
{
    const models::ModelId id = parseModel(opts.positional[0]);
    const graph::Pipeline pipeline = models::buildModel(id);
    const serving::LatencyModel latency =
        serving::profileLatencyModel(pipeline, opts.gpu);

    serving::ResilienceConfig res = opts.resilience;
    if (opts.degradeThreshold > 0) {
        // For Stable Diffusion the degraded variant is profiled for
        // real (fewer denoising steps); for other models the kept
        // fraction approximates the service scale, since generator
        // iterations dominate and scale linearly with steps.
        if (id == models::ModelId::StableDiffusion) {
            models::StableDiffusionConfig cheap;
            cheap.denoiseSteps = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       static_cast<double>(cheap.denoiseSteps) *
                       opts.degradeStepsKept));
            res.degradation = serving::degradationFromPipelines(
                pipeline, models::buildStableDiffusion(cheap),
                opts.gpu, 1.0 - opts.degradeStepsKept);
        } else {
            res.degradation.serviceScale = opts.degradeStepsKept;
            res.degradation.qualityCost =
                1.0 - opts.degradeStepsKept;
        }
        res.degradation.queueThreshold = opts.degradeThreshold;
    }

    MMGEN_CHECK(opts.replicas >= 0, "--replicas must be >= 0, got "
                                        << opts.replicas);
    if (opts.replicas > 0 || !opts.chaosName.empty()) {
        MMGEN_CHECK(!opts.continuous && !opts.useSurface,
                    "--continuous/--surface are single-pool only; "
                    "drop --replicas/--chaos");
        return cmdServeCluster(opts, pipeline, latency, res);
    }

    serving::ServingConfig scfg = opts.serving;
    if (!opts.mixName.empty())
        scfg.workload = workload::namedWorkloadMix(opts.mixName);
    scfg.continuousBatching = opts.continuous;

    // Exec-derived pricing: profile the scaled pipeline at a
    // power-of-two batch grid up to --batch, and at a size grid
    // covering the mix's heavy tail when one is configured. Without
    // --surface/--continuous the linear model prices every batch.
    serving::BatchLatencySurface surface;
    if (opts.continuous || opts.useSurface) {
        std::vector<int> batches;
        for (int b = 1; b < scfg.maxBatch; b *= 2)
            batches.push_back(b);
        batches.push_back(scfg.maxBatch);
        std::vector<double> sizes = {1.0};
        if (scfg.workload.enabled() && !scfg.workload.isPlainPoisson())
            sizes = {0.5, 1.0, 2.0, 4.0};
        surface = serving::profileLatencySurface(
            pipeline, opts.gpu, exec::ScheduleOptions(), batches, sizes);
        std::cout << "latency surface: " << batches.size() << "x"
                  << sizes.size() << " grid, "
                  << surface.iterations
                  << " iterations per request\n";
    } else {
        scfg.validate();
        surface = serving::BatchLatencySurface::fromLatencyModel(
            latency, scfg.maxBatch);
    }
    ServeTelemetry tel(opts);
    const serving::ServingReport r =
        serving::simulateServing(scfg, surface, res, tel.hook());

    std::cout << pipeline.name << " on " << opts.serving.numGpus
              << "x " << opts.gpu.name << " (batch-1 latency "
              << formatTime(latency.baseSeconds) << ")\n\n";
    TextTable table({"Metric", "Value"});
    table.addRow({"offered load", formatFixed(r.offeredLoad, 2)});
    table.addRow({"mean availability",
                  formatPercent(r.meanAvailability)});
    table.addRow({"arrived", std::to_string(r.arrived)});
    table.addRow({"completed", std::to_string(r.completed)});
    table.addRow({"throughput",
                  formatFixed(r.throughput, 2) + " req/s"});
    table.addRow({"goodput", formatFixed(r.goodput, 2) + " req/s"});
    table.addRow(
        {"p50 / p95 / p99 latency",
         formatTime(r.p50Latency) + " / " + formatTime(r.p95Latency) +
             " / " + formatTime(r.p99Latency)});
    table.addRow({"mean batch", formatFixed(r.meanBatch, 2)});
    if (scfg.workload.enabled())
        table.addRow({"mean request size",
                      formatFixed(r.meanRequestSize, 2)});
    if (scfg.continuousBatching)
        table.addRow({"iterations dispatched",
                      std::to_string(r.iterationsDispatched)});
    table.addRow({"GPU utilization",
                  formatPercent(r.gpuUtilization)});
    table.addRow({"deadline miss rate",
                  formatPercent(r.deadlineMissRate)});
    table.addRow({"retries", std::to_string(r.retries)});
    table.addRow({"shed / expired / dropped",
                  std::to_string(r.shed) + " / " +
                      std::to_string(r.expired) + " / " +
                      std::to_string(r.dropped)});
    table.addRow({"degraded", formatPercent(r.degradedFraction)});
    table.addRow({"backlog", std::to_string(r.backlog)});
    table.addRow({"drain completions",
                  std::to_string(r.drainCompleted)});
    table.addRow({"lost GPU-seconds",
                  formatFixed(r.lostGpuSeconds, 1)});
    std::cout << table.render();
    return tel.finish(pipeline, r, opts.serving.numGpus);
}

int
cmdStats(const Options& opts)
{
    // Exercise the parallel harness + memo cache with a real
    // workload: the full both-backend suite, run twice so repeated
    // profiles show up as cache hits.
    core::CharacterizationSuite suite(opts.gpu);
    suite.runAll(models::allModels());
    suite.runAll(models::allModels());
    std::cout << "runtime counters after two suite runs on "
              << opts.gpu.name << ":\n\n"
              << runtime::runtimeStatsTable();
    if (opts.wantsTelemetry()) {
        telemetry::MetricsRegistry registry;
        telemetry::TraceSink sink;
        runtime::publishRuntimeMetrics(registry);
        writeTelemetryOutputs(opts, registry, sink);
    }
    return 0;
}

int
cmdAnalyze(const Options& opts)
{
    MMGEN_CHECK(opts.memoryAnalysis,
                "analyze needs --memory (the only analysis so far)");
    const std::vector<models::ModelId> targets =
        selectModels(opts, "analyze");

    bool all_feasible = true;
    json::Writer w(std::cout);
    if (opts.lintJson)
        w.beginArray();
    for (models::ModelId id : targets) {
        const graph::Pipeline pipeline = models::buildModel(id);
        const exec::FeasibilityReport rep =
            exec::analyzeFeasibility(pipeline, opts.gpu, opts.backend);
        const exec::MemoryProfile& mp = rep.profile;
        const bool feasible = rep.maxBatch >= 1;
        all_feasible = all_feasible && feasible;
        if (opts.lintJson) {
            w.beginObject()
                .field("model", pipeline.name)
                .field("gpu", opts.gpu.name)
                .field("backend",
                       graph::attentionBackendName(opts.backend))
                .field("weight_bytes", mp.weightBytes)
                .field("program_peak_bytes", mp.programPeakBytes)
                .field("scheduled_peak_bytes", mp.scheduledPeakBytes)
                .field("scheduled_peak_seconds",
                       mp.scheduledPeakSeconds)
                .field("no_reuse_bytes", mp.noReuseBytes)
                .field("reuse_savings_bytes", mp.reuseSavingsBytes())
                .field("dynamic_bytes", rep.dynamicBytes)
                .field("capacity_bytes", rep.capacityBytes)
                .field("max_feasible_batch", rep.maxBatch)
                .field("feasible", feasible);
            w.key("stage_residency").beginArray();
            for (const exec::StageResidency& sr : mp.stageResidency) {
                w.beginObject()
                    .field("stage", sr.stage)
                    .field("peak_bytes", sr.peakBytes)
                    .endObject();
            }
            w.endArray().endObject();
            continue;
        }
        std::cout << "== " << pipeline.name << " on " << opts.gpu.name
                  << " (" << graph::attentionBackendName(opts.backend)
                  << ") ==\n"
                  << "  weights          "
                  << formatBytes(mp.weightBytes) << "\n"
                  << "  program peak     "
                  << formatBytes(mp.programPeakBytes)
                  << "  (interval-reuse lower bound)\n"
                  << "  scheduled peak   "
                  << formatBytes(mp.scheduledPeakBytes) << "  at "
                  << formatTime(mp.scheduledPeakSeconds) << "\n"
                  << "  no-reuse bound   "
                  << formatBytes(mp.noReuseBytes)
                  << "  (reuse saves "
                  << formatBytes(mp.reuseSavingsBytes()) << ")\n"
                  << "  dynamic / req    "
                  << formatBytes(rep.dynamicBytes) << "\n"
                  << "  max batch        ";
        if (rep.maxBatch >= exec::kUnboundedBatch)
            std::cout << "unbounded";
        else
            std::cout << rep.maxBatch;
        std::cout << (feasible ? "" : "  (DOES NOT FIT)") << "\n";
        TextTable table({"Stage", "Peak residency"});
        for (const exec::StageResidency& sr : mp.stageResidency)
            table.addRow({sr.stage, formatBytes(sr.peakBytes)});
        std::cout << table.render() << "\n";
    }
    if (opts.lintJson) {
        w.endArray();
        std::cout << "\n";
    }
    return all_feasible ? 0 : 1;
}

int
cmdLint(const Options& opts)
{
    if (opts.lintRules) {
        TextTable table({"Rule", "Severity", "Family", "Invariant"});
        for (const verify::RuleInfo& r : verify::allRules())
            table.addRow({r.id, verify::severityName(r.severity),
                          r.family, r.summary});
        std::cout << table.render();
        return 0;
    }

    core::LintOptions lopts;
    lopts.gpu = opts.gpu;
    lopts.physics = opts.lintPhysics;
    lopts.probes = opts.lintProbes;
    lopts.memory = opts.lintMemory;
    lopts.suppressRules = opts.suppressRules;

    const std::vector<models::ModelId> targets =
        selectModels(opts, "lint");
    if (!opts.lintJson) {
        for (models::ModelId id : targets)
            std::cout << "linting " << models::modelName(id) << "...\n";
    }
    // `lintAll` lints the zoo on the thread pool (--jobs) and merges
    // the reports in model order, as a serial loop would.
    const verify::DiagnosticReport report =
        opts.lintAll ? core::lintAll(lopts)
                     : core::lintModel(targets[0], lopts);
    if (opts.lintJson)
        std::cout << report.toJson() << "\n";
    else
        std::cout << report.render();
    return report.hasErrors() ? 1 : 0;
}

int
cmdTrace(const Options& opts)
{
    const graph::Pipeline pipeline =
        models::buildModel(parseModel(opts.positional[0]));
    const profiler::ProfileOptions popts = profileOptions(opts);
    // The cached profile runs the runtime verifier on a miss.
    runtime::cachedProfile(pipeline, popts);
    const ScheduledPlan s = scheduledPlan(pipeline, popts);
    std::ofstream out = openOutput(opts.positional[1]);
    profiler::writeChromeTrace(out, *s.plan, s.timeline);
    std::cout << "wrote " << s.timeline.eventCount()
              << " timeline events to " << opts.positional[1] << "\n";
    return 0;
}

/** One bit per subcommand; a flag's `commands` is a set of them. */
enum : unsigned {
    kList = 1u << 0,
    kProfile = 1u << 1,
    kHotspots = 1u << 2,
    kSuite = 1u << 3,
    kTaxonomy = 1u << 4,
    kFootprint = 1u << 5,
    kTrace = 1u << 6,
    kServe = 1u << 7,
    kStats = 1u << 8,
    kLint = 1u << 9,
    kAnalyze = 1u << 10,
};

struct Command
{
    unsigned bit;
    const char* name;
    /** Positional synopsis; its arity is [minArgs, maxArgs]. */
    const char* args;
    std::size_t minArgs;
    std::size_t maxArgs;
    const char* help;
    int (*run)(const Options&);
};

const Command kCommands[] = {
    {kList, "list", "", 0, 0, "models and GPU presets", cmdList},
    {kProfile, "profile", "<model>", 1, 1, "one-model breakdown",
     cmdProfile},
    {kHotspots, "hotspots", "<model>", 1, 1,
     "top operator sites by time", cmdHotspots},
    {kSuite, "suite", "", 0, 0, "both-backend suite run (Table II)",
     cmdSuite},
    {kTaxonomy, "taxonomy", "", 0, 0, "Table I labels", cmdTaxonomy},
    {kFootprint, "footprint", "", 0, 0, "peak-memory report",
     cmdFootprint},
    {kTrace, "trace", "<model> <out.json>", 2, 2,
     "Chrome trace export", cmdTrace},
    {kServe, "serve", "<model>", 1, 1, "fault-tolerant serving sim",
     cmdServe},
    {kStats, "stats", "", 0, 0,
     "run the suite twice, print cache / pool counters", cmdStats},
    {kLint, "lint", "[<model>]", 0, 1, "graph & physics verifier",
     cmdLint},
    {kAnalyze, "analyze", "[<model>]", 0, 1,
     "memory-liveness analysis & admission bound", cmdAnalyze},
};

struct Value;

struct Flag
{
    const char* name;
    /** Placeholder of the flag's value; null for a switch. */
    const char* value;
    const char* help;
    /** The subcommands whose code reads what `set` writes. */
    unsigned commands;
    void (*set)(Options&, const Value&);
};

/** A flag's argument as typed, parsed on demand by its setter. */
struct Value
{
    const Flag& flag;
    const std::string& text;

    /** The value as a `T`; all of it must parse, and fit in a `T`. */
    template <typename T>
    T
    as() const
    {
        T v{};
        const char* end = text.data() + text.size();
        const auto [stop, ec] = std::from_chars(text.data(), end, v);
        MMGEN_CHECK(!text.empty() && ec == std::errc() && stop == end,
                    flag.name << " needs a number, got '" << text << "'");
        return v;
    }

    /** The choice named `text`; the names are the flag's placeholder. */
    template <typename T>
    T
    choice(std::initializer_list<std::pair<const char*, T>> choices) const
    {
        for (const auto& [name, v] : choices) {
            if (text == name)
                return v;
        }
        MMGEN_CHECK(false, flag.name << " takes " << flag.value
                                     << ", got '" << text << "'");
    }
};

constexpr unsigned kProfiling = kProfile | kHotspots | kTrace;

const Flag kFlags[] = {
    {"--gpu", "a100|v100|h100", "simulated device (default a100)",
     kProfiling | kSuite | kTaxonomy | kFootprint | kServe | kStats |
         kLint | kAnalyze,
     [](Options& o, const Value& v) {
         o.gpu = v.choice<hw::GpuSpec>({{"a100", hw::GpuSpec::a100_80gb()},
                                        {"v100", hw::GpuSpec::v100_32gb()},
                                        {"h100", hw::GpuSpec::h100_80gb()}});
     }},
    {"--backend", "baseline|flash|flash_decode",
     "attention backend (default flash)", kProfiling | kFootprint | kAnalyze,
     [](Options& o, const Value& v) {
         using graph::AttentionBackend;
         o.backend = v.choice<AttentionBackend>(
             {{"baseline", AttentionBackend::Baseline},
              {"flash", AttentionBackend::Flash},
              {"flash_decode", AttentionBackend::FlashDecode}});
     }},
    {"--jobs", "N", "pool size (default MMGEN_JOBS, else all cores)",
     kProfile | kSuite | kTaxonomy | kStats | kLint,
     [](Options&, const Value& v) {
         const int jobs = v.as<int>();
         MMGEN_CHECK(jobs >= 1, "--jobs must be >= 1, got " << jobs);
         runtime::ThreadPool::setGlobalJobs(jobs);
     }},
    {"--no-disk-cache", nullptr, "skip the disk cache (MMGEN_CACHE_DIR)",
     kProfiling | kSuite | kTaxonomy | kServe | kStats | kLint,
     [](Options& o, const Value&) { o.diskCache = false; }},
    {"--trace", "FILE", "also write the timeline as a Chrome trace", kProfile,
     [](Options& o, const Value& v) { o.traceFile = v.text; }},
    {"--streams", "N", "hardware streams (default 1; 2 overlaps copies)",
     kProfiling,
     [](Options& o, const Value& v) { o.schedule.streams = v.as<int>(); }},
    {"--launch-depth", "N", "host launch-queue depth (default 0 = sync)",
     kProfiling,
     [](Options& o, const Value& v) {
         o.schedule.launchQueueDepth = v.as<int>();
     }},
    {"--graph-launch", nullptr, "amortize repeated launches as a CUDA graph",
     kProfiling,
     [](Options& o, const Value&) { o.schedule.graphLaunch = true; }},
    {"--graph-replay-frac", "F",
     "overhead share a graph replay pays (default 0)", kProfiling,
     [](Options& o, const Value& v) {
         o.schedule.graphReplayOverheadFraction = v.as<double>();
     }},
    {"--stream-weights", nullptr,
     "put memory-bound weight loads on the copy stream", kProfiling,
     [](Options& o, const Value&) { o.lowering.splitWeightStreams = true; }},
    {"--metrics-out", "FILE", "JSON-lines metrics dump",
     kProfile | kServe | kStats,
     [](Options& o, const Value& v) { o.metricsOut = v.text; }},
    {"--prom-out", "FILE", "Prometheus text metrics",
     kProfile | kServe | kStats,
     [](Options& o, const Value& v) { o.promOut = v.text; }},
    {"--trace-out", "FILE", "Chrome trace of spans and exec timeline",
     kProfile | kServe | kStats,
     [](Options& o, const Value& v) { o.traceOut = v.text; }},
    {"--sample-interval", "S", "sample serving state every S sim-seconds",
     kServe,
     [](Options& o, const Value& v) {
         o.sampleInterval = v.as<double>();
         MMGEN_CHECK(o.sampleInterval > 0.0,
                     "--sample-interval must be > 0, got "
                         << o.sampleInterval);
     }},
    {"--rate", "R", "mean arrival rate, requests/s", kServe,
     [](Options& o, const Value& v) {
         o.serving.arrivalRate = v.as<double>();
     }},
    {"--gpus", "N", "GPUs in the pool (per replica in a cluster)", kServe,
     [](Options& o, const Value& v) { o.serving.numGpus = v.as<int>(); }},
    {"--batch", "B", "largest batch", kServe,
     [](Options& o, const Value& v) { o.serving.maxBatch = v.as<int>(); }},
    {"--horizon", "S", "simulated seconds of arrivals", kServe,
     [](Options& o, const Value& v) {
         o.serving.horizonSeconds = v.as<double>();
     }},
    {"--seed", "S", "arrival and fault seed", kServe,
     [](Options& o, const Value& v) {
         o.serving.seed = v.as<std::uint64_t>();
     }},
    {"--mix", "poisson|interactive|bursty|diurnal|production",
     "client workload mix", kServe,
     [](Options& o, const Value& v) { o.mixName = v.text; }},
    {"--continuous", nullptr, "continuous batching (priced off the surface)",
     kServe, [](Options& o, const Value&) { o.continuous = true; }},
    {"--surface", nullptr, "price batches off the exec-profiled surface",
     kServe, [](Options& o, const Value&) { o.useSurface = true; }},
    {"--mtbf", "S", "per-GPU mean time between failures", kServe,
     [](Options& o, const Value& v) {
         o.resilience.faults.failureMtbfSeconds = v.as<double>();
     }},
    {"--mttr", "S", "per-GPU mean time to repair", kServe,
     [](Options& o, const Value& v) {
         o.resilience.faults.failureMttrSeconds = v.as<double>();
     }},
    {"--preempt-mtbf", "S", "mean time between preemptions", kServe,
     [](Options& o, const Value& v) {
         o.resilience.faults.preemptionMtbfSeconds = v.as<double>();
     }},
    {"--preempt-mean", "S", "mean preemption length", kServe,
     [](Options& o, const Value& v) {
         o.resilience.faults.preemptionMeanSeconds = v.as<double>();
     }},
    {"--straggler-frac", "F", "fraction of straggling GPUs", kServe,
     [](Options& o, const Value& v) {
         o.resilience.faults.stragglerFraction = v.as<double>();
     }},
    {"--straggler-slowdown", "X", "straggler service slowdown", kServe,
     [](Options& o, const Value& v) {
         o.resilience.faults.stragglerSlowdown = v.as<double>();
     }},
    {"--deadline", "S", "request SLO", kServe,
     [](Options& o, const Value& v) {
         o.resilience.deadline.deadlineSeconds = v.as<double>();
     }},
    {"--timeout", "S", "batch abort timeout", kServe,
     [](Options& o, const Value& v) {
         o.resilience.deadline.batchTimeoutSeconds = v.as<double>();
     }},
    {"--retries", "N", "retry budget per request", kServe,
     [](Options& o, const Value& v) {
         o.resilience.retry.maxRetries = v.as<int>();
     }},
    {"--max-queue", "N", "admission queue limit", kServe,
     [](Options& o, const Value& v) {
         o.resilience.admission.maxQueueLength = v.as<std::int64_t>();
     }},
    {"--degrade-threshold", "N", "queue depth to degrade at", kServe,
     [](Options& o, const Value& v) {
         o.degradeThreshold = v.as<std::int64_t>();
     }},
    {"--degrade-steps", "F", "fraction of denoise steps kept when degraded",
     kServe,
     [](Options& o, const Value& v) { o.degradeStepsKept = v.as<double>(); }},
    {"--replicas", "N", "replica pools behind a router (cluster sim)", kServe,
     [](Options& o, const Value& v) { o.replicas = v.as<int>(); }},
    {"--router", "round-robin|least-loaded|domain-aware",
     "cluster routing policy", kServe,
     [](Options& o, const Value& v) {
         using serving::RouterPolicy;
         o.router = v.choice<RouterPolicy>(
             {{"round-robin", RouterPolicy::RoundRobin},
              {"least-loaded", RouterPolicy::LeastLoaded},
              {"domain-aware", RouterPolicy::FailureDomainAware}});
     }},
    {"--chaos",
     "none|kill-replica|kill-replica-at-zero|rolling-kill|"
     "degrade-domain|straggle-gpu",
     "cluster chaos scenario", kServe,
     [](Options& o, const Value& v) { o.chaosName = v.text; }},
    {"--hedge-delay", "S", "hedge a request after S seconds", kServe,
     [](Options& o, const Value& v) { o.hedgeDelay = v.as<double>(); }},
    {"--hedge-quantile", "Q", "hedge after the Q-quantile batch service time",
     kServe,
     [](Options& o, const Value& v) { o.hedgeQuantile = v.as<double>(); }},
    {"--breaker-threshold", "N", "failures that open a replica breaker",
     kServe,
     [](Options& o, const Value& v) {
         o.breaker.failureThreshold = v.as<int>();
     }},
    {"--breaker-open", "S", "open duration before a probe", kServe,
     [](Options& o, const Value& v) {
         o.breaker.openSeconds = v.as<double>();
     }},
    {"--ckpt-interval", "N", "checkpoint every N dominant-stage iterations",
     kServe,
     [](Options& o, const Value& v) {
         o.ckptInterval = v.as<std::int64_t>();
     }},
    {"--ckpt-cost", "S", "GPU-seconds per checkpoint", kServe,
     [](Options& o, const Value& v) { o.ckptCost = v.as<double>(); }},
    {"--probe-interval", "S", "health-probe period", kServe,
     [](Options& o, const Value& v) {
         o.probe.intervalSeconds = v.as<double>();
     }},
    {"--domain-size", "N", "replicas per failure domain (default 1)", kServe,
     [](Options& o, const Value& v) { o.domainSize = v.as<int>(); }},
    {"--domain-mtbf", "S", "mean time between rack outages", kServe,
     [](Options& o, const Value& v) {
         o.resilience.faults.domainMtbfSeconds = v.as<double>();
     }},
    {"--domain-mttr", "S", "mean rack outage length", kServe,
     [](Options& o, const Value& v) {
         o.resilience.faults.domainMttrSeconds = v.as<double>();
     }},
    {"--model", "X", "one model (instead of the whole zoo)", kLint | kAnalyze,
     [](Options& o, const Value& v) { o.positional.push_back(v.text); }},
    {"--all", nullptr, "every model of the zoo", kLint | kAnalyze,
     [](Options& o, const Value&) { o.lintAll = true; }},
    {"--json", nullptr, "machine-readable output", kLint | kAnalyze,
     [](Options& o, const Value&) { o.lintJson = true; }},
    {"--rules", nullptr, "list the rule registry", kLint,
     [](Options& o, const Value&) { o.lintRules = true; }},
    {"--no-physics", nullptr, "skip the physics rules", kLint,
     [](Options& o, const Value&) { o.lintPhysics = false; }},
    {"--no-probes", nullptr, "skip the scaling probes", kLint,
     [](Options& o, const Value&) { o.lintProbes = false; }},
    {"--no-memory", nullptr, "skip the memory-liveness pass (S013/P010/P011)",
     kLint, [](Options& o, const Value&) { o.lintMemory = false; }},
    {"--suppress", "RULE", "drop one rule's findings (repeatable)", kLint,
     [](Options& o, const Value& v) { o.suppressRules.push_back(v.text); }},
    {"--memory", nullptr, "peak residency, reuse bounds, max batch", kAnalyze,
     [](Options& o, const Value&) { o.memoryAnalysis = true; }},
};

const Flag*
findFlag(const std::string& name)
{
    for (const Flag& f : kFlags) {
        if (name == f.name)
            return &f;
    }
    return nullptr;
}

/** Print both tables; each flag once, under the commands it serves. */
int
usage()
{
    auto entry = [](const std::string& lhs, const char* help) {
        std::cerr << "  " << padRight(lhs, 28)
                  << (lhs.size() < 28 ? "" : "\n" + std::string(30, ' '))
                  << help << "\n";
    };
    std::cerr << "usage: mmgen <command> [args] [options]\n\ncommands:\n";
    for (const Command& c : kCommands)
        entry(std::string(c.name) + " " + c.args, c.help);
    unsigned group = 0;
    for (const Flag& f : kFlags) {
        if (f.commands != group) {
            group = f.commands;
            std::cerr << "\noptions of";
            for (const Command& c : kCommands) {
                if (group & c.bit)
                    std::cerr << " " << c.name;
            }
            std::cerr << ":\n";
        }
        entry(f.value ? std::string(f.name) + " " + f.value : f.name,
              f.help);
    }
    return 2;
}

Options
parseOptions(const Command& cmd, int argc, char** argv)
{
    Options opts;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            opts.positional.push_back(arg);
            continue;
        }
        const Flag* flag = findFlag(arg);
        MMGEN_CHECK(flag != nullptr, "unknown option " << arg);
        MMGEN_CHECK(flag->commands & cmd.bit,
                    cmd.name << " does not take " << arg
                             << " (`mmgen` lists each command's flags)");
        std::string value;
        if (flag->value != nullptr) {
            MMGEN_CHECK(i + 1 < argc, arg << " needs a value");
            value = argv[++i];
        }
        flag->set(opts, Value{*flag, value});
    }
    MMGEN_CHECK(opts.positional.size() >= cmd.minArgs &&
                    opts.positional.size() <= cmd.maxArgs,
                cmd.name << " takes "
                         << (*cmd.args ? cmd.args : "no arguments"));
    return opts;
}

} // namespace

int
main(int argc, char** argv)
{
    const Command* cmd = nullptr;
    for (const Command& c : kCommands) {
        if (argc >= 2 && std::string(argv[1]) == c.name)
            cmd = &c;
    }
    if (cmd == nullptr) {
        if (argc >= 2)
            std::cerr << "unknown command '" << argv[1] << "'\n";
        return usage();
    }
    try {
        const Options opts = parseOptions(*cmd, argc, argv);
        // Only the commands that read the profile cache open its disk
        // tier (which creates the cache directory).
        if (opts.diskCache &&
            (findFlag("--no-disk-cache")->commands & cmd->bit)) {
            auto disk = std::make_shared<runtime::DiskProfileCache>();
            if (disk->enabled())
                runtime::ProfileCache::global().attachDiskCache(
                    std::move(disk));
        }
        return cmd->run(opts);
    } catch (const mmgen::FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const mmgen::PanicError& e) {
        std::cerr << "internal error: " << e.what() << "\n";
        return 70;
    }
}
