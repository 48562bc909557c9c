/**
 * @file
 * The serving event loop. One function simulates every serving run:
 * `simulateCluster` hands it a cluster configuration, and
 * `simulateServing` hands it a one-replica pool priced by a latency
 * surface (optionally with continuous batching). Admission, retries,
 * faults, degradation, memory admission and telemetry therefore have
 * exactly one implementation.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "serving/cluster.hh"
#include "serving/faults.hh"
#include "serving/latency_surface.hh"
#include "serving/telemetry_hooks.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace mmgen::serving {

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

// Probe-jitter stream base; faults.cc owns 0x0001'0000..0x0004'0000.
constexpr std::uint64_t kProbeStream = 0x0005'0000;

/**
 * Prices one replica's batches: from the pool's latency surface
 * (clamped at the edge of its size grid), or through the replica's
 * `LatencyModel` (`ReplicaSpec::batchSeconds`, linear in size).
 */
struct ServicePricer
{
    const BatchLatencySurface* surface = nullptr;
    const ReplicaSpec* replica = nullptr;

    /**
     * Seconds for a batch of `batch` members, the largest of size
     * `maxSize`, on a GPU running `slowdown` times slower than normal.
     */
    double
    batchSeconds(int batch, double maxSize, double slowdown) const
    {
        if (surface != nullptr)
            return surface->batchSeconds(batch, maxSize) * slowdown;
        return replica->batchSeconds(batch, maxSize, slowdown);
    }

    /**
     * Size bucket of a request: the index of the smallest size-grid
     * node covering it (last node for off-grid giants). Continuous
     * batching only co-schedules same-bucket members, so a
     * heavy-tailed request can never drag a batch of small ones at
     * its padded shape. Linear models and unit-size surfaces have a
     * single bucket, which disables the restriction.
     */
    std::size_t
    sizeBucket(double size) const
    {
        if (surface == nullptr)
            return 0;
        const std::vector<double>& grid = surface->sizeGrid;
        std::size_t i = 0;
        while (i + 1 < grid.size() && grid[i] < size)
            ++i;
        return i;
    }
};

/**
 * A `simulateServing` run: one replica priced by `surface`. It keeps
 * the single-pool contract that predates the cluster: GPUs fall into
 * fault domains as `g / domainSize`, lost progress is not booked as
 * wasted GPU-seconds, and telemetry has no replica dimension.
 */
struct PoolRun
{
    const BatchLatencySurface& surface;
    /** Admit and retire members at iteration boundaries. */
    bool continuous = false;
};

/** One dispatchable copy of a logical request (primary or hedge). */
struct Copy
{
    std::int64_t id = 0;
    double arrival = 0.0;
    int attempts = 0;
    bool hedge = false;
    /** Continuous batching: served at least one degraded iteration. */
    bool degraded = false;
    /** Work multiple relative to the profiled base request. */
    double size = 1.0;
    /** Dispatch priority of the owning class (lower = first). */
    int priority = 0;
};

/** Cross-copy state of one logical request, indexed by arrival id. */
struct ReqMeta
{
    double arrival = 0.0;
    bool done = false;
    bool hedged = false;
    bool primaryInFlight = false;
    int primaryReplica = -1;
    int liveCopies = 0;
    /** Durable checkpointed progress, iterations. */
    std::int64_t doneIters = 0;
    /** When the hedge timer fired (trace span start; telemetry only). */
    double hedgedAt = 0.0;
    /** Work multiple (copied into every copy, hedges included). */
    double size = 1.0;
    /** Dispatch priority of the owning class (lower = first). */
    int priority = 0;
};

/** One batch occupying a GPU. */
struct InFlightBatch
{
    double start = 0.0;
    /** Resolution time: completion, or abort when `timedOut`. */
    double finish = 0.0;
    /** Full service time including checkpoint-write overhead. */
    double plannedService = 0.0;
    /** Service time excluding checkpoint-write overhead. */
    double workService = 0.0;
    /** Iterations the longest member still needed at dispatch. */
    std::int64_t maxRemIters = 0;
    /** Checkpoints this run writes if it completes. */
    std::int64_t ckpts = 0;
    bool degraded = false;
    bool timedOut = false;
    int replica = 0;
    /**
     * Members. Greedy batches hold them to completion; a continuous
     * batch admits and retires them at iteration boundaries.
     */
    std::vector<Copy> copies;
    /**
     * Iterations each member still needs: at dispatch under
     * checkpointing, counting down per iteration under continuous
     * batching.
     */
    std::vector<std::int64_t> remIters;
};

/** Completion-queue entry; `epoch` lazily invalidates killed work. */
struct FinishEvent
{
    double time;
    int gpu;
    std::uint64_t epoch;

    bool
    operator>(const FinishEvent& other) const
    {
        return time > other.time;
    }
};

/** Retry-queue entry; `seq` keeps ties deterministic. */
struct RetryEvent
{
    double ready;
    std::uint64_t seq;
    Copy copy;

    bool
    operator>(const RetryEvent& other) const
    {
        return ready != other.ready ? ready > other.ready
                                    : seq > other.seq;
    }
};

/** Hedge timer: fire a backup copy if the primary is still running. */
struct HedgeEvent
{
    double time;
    std::uint64_t seq;
    std::int64_t id;

    bool
    operator>(const HedgeEvent& other) const
    {
        return time != other.time ? time > other.time : seq > other.seq;
    }
};

/** GPU up/down edge from the fault plan (chaos kills folded in). */
struct Transition
{
    double time;
    int gpu;
    bool down;
};

/** Scripted slowdown window on one GPU (chaos degrade/straggle). */
struct SlowWindow
{
    double start = 0.0;
    double end = 0.0;
    double factor = 1.0;
};

enum class BreakerState
{
    Closed,
    Open,
    HalfOpen,
};

/**
 * Run the event loop. `pool` is null for a cluster run, where every
 * replica prices through its own `LatencyModel`.
 */
ClusterReport
runEngine(const ClusterConfig& cfg, const PoolRun* pool,
          const telemetry::Telemetry* tele)
{
    cfg.validate();

    // Telemetry handles. Null means off; every use below is guarded
    // so the disabled path is the exact pre-telemetry code path.
    telemetry::MetricsRegistry* metrics =
        tele != nullptr ? tele->metrics : nullptr;
    telemetry::TraceSink* trace =
        tele != nullptr && tele->wantsTrace() ? tele->trace : nullptr;
    const bool sampling = tele != nullptr && tele->wantsSampling();

    const double horizon = cfg.horizonSeconds;
    const DeadlinePolicy& deadline = cfg.resilience.deadline;
    const CheckpointPolicy& ckpt = cfg.checkpoint;
    const int numReplicas = static_cast<int>(cfg.replicas.size());
    const int numGpus = cfg.totalGpus();
    const bool breakerOn = cfg.breaker.enabled();
    const bool hedgeOn = cfg.hedge.enabled() && numReplicas > 1;
    const bool ckptOn = ckpt.enabled();
    const bool clusterView = pool == nullptr;
    const bool continuous = pool != nullptr && pool->continuous;
    MMGEN_CHECK(!continuous || (numReplicas == 1 && !breakerOn &&
                                !hedgeOn && !ckptOn),
                "continuous batching runs one replica without "
                "breakers, hedging or checkpoints");
    // Probes only exist when someone consumes their output: router
    // health matters with > 1 replica, breaker transitions need the
    // probe clock. A bare single pool adds no events at all.
    const bool probesOn = numReplicas > 1 || breakerOn;

    std::vector<ServicePricer> pricers(
        static_cast<std::size_t>(numReplicas));
    for (int r = 0; r < numReplicas; ++r) {
        ServicePricer& p = pricers[static_cast<std::size_t>(r)];
        if (pool != nullptr)
            p.surface = &pool->surface;
        else
            p.replica = &cfg.replicas[static_cast<std::size_t>(r)];
    }
    // Join/leave granularity for continuous batching.
    const std::int64_t total_iters =
        pool != nullptr ? pool->surface.iterations : 1;

    // Global GPU indexing: replica r owns [gpuBase[r], gpuBase[r] +
    // numGpus_r), so the fault plan, chaos targets, and the event loop
    // all speak one flat index space.
    std::vector<int> gpuBase(static_cast<std::size_t>(numReplicas), 0);
    std::vector<int> repOf(static_cast<std::size_t>(numGpus), 0);
    std::vector<int> domainOf(static_cast<std::size_t>(numGpus), 0);
    {
        int g = 0;
        for (int r = 0; r < numReplicas; ++r) {
            gpuBase[static_cast<std::size_t>(r)] = g;
            for (int k = 0; k < cfg.replicas[static_cast<std::size_t>(r)]
                                    .numGpus;
                 ++k, ++g) {
                repOf[static_cast<std::size_t>(g)] = r;
                domainOf[static_cast<std::size_t>(g)] =
                    cfg.replicas[static_cast<std::size_t>(r)].domain;
            }
        }
    }

    // Arrivals come from the workload generator. The legacy default
    // (no mix configured) draws gaps from the unsplit Rng(seed)
    // stream, while faults, chaos, and probe jitter draw from split
    // streams, so no resilience feature can perturb the arrival
    // sequence.
    workload::ArrivalGenerator arrivals(cfg.seed, cfg.arrivalRate,
                                        cfg.workload);
    FleetFaultPlan plan =
        clusterView ? planFaults(cfg.resilience.faults, domainOf,
                                 horizon, cfg.seed)
                    : planFaults(cfg.resilience.faults, numGpus, horizon,
                                 cfg.seed);

    // Compile the chaos scenario into the same structures the fault
    // plan uses: kills become outage windows on every member GPU (so
    // availability accounting sees them), degrades/stragglers become
    // timed slowdown windows applied at dispatch.
    std::vector<std::vector<SlowWindow>> slowWindows(
        static_cast<std::size_t>(numGpus));
    {
        std::vector<std::vector<Outage>> extra(
            static_cast<std::size_t>(numGpus));
        for (const ChaosEvent& ev : cfg.chaos.events) {
            const double end = ev.durationSeconds > 0.0
                                   ? ev.atSeconds + ev.durationSeconds
                                   : horizon;
            if (end <= ev.atSeconds)
                continue;
            switch (ev.kind) {
            case ChaosEventKind::KillReplica: {
                const std::size_t r =
                    static_cast<std::size_t>(ev.target);
                const int base = gpuBase[r];
                for (int k = 0; k < cfg.replicas[r].numGpus; ++k)
                    extra[static_cast<std::size_t>(base + k)].push_back(
                        {ev.atSeconds, end, OutageKind::Failure});
                break;
            }
            case ChaosEventKind::DegradeDomain:
                for (int g = 0; g < numGpus; ++g) {
                    if (domainOf[static_cast<std::size_t>(g)] ==
                        ev.target)
                        slowWindows[static_cast<std::size_t>(g)]
                            .push_back(
                                {ev.atSeconds, end, ev.factor});
                }
                break;
            case ChaosEventKind::StraggleGpu:
                slowWindows[static_cast<std::size_t>(ev.target)]
                    .push_back({ev.atSeconds, end, ev.factor});
                break;
            }
        }
        for (int g = 0; g < numGpus; ++g) {
            const std::size_t gi = static_cast<std::size_t>(g);
            if (extra[gi].empty())
                continue;
            std::vector<Outage> merged = plan.gpus[gi].outages;
            merged.insert(merged.end(), extra[gi].begin(),
                          extra[gi].end());
            plan.gpus[gi].outages = mergeOutages(std::move(merged));
        }
    }

    ClusterReport cluster;
    ServingReport& report = cluster.serving;
    report.meanAvailability = plan.meanAvailability(horizon);
    cluster.domainAvailability = plan.domainAvailability(horizon);
    cluster.replicas.resize(static_cast<std::size_t>(numReplicas));

    // Memory-aware batch ceiling: the static liveness bound (when the
    // admission policy carries one) clamps how large a batch may be
    // dispatched; a bound of zero means not even one request fits and
    // every arrival is shed below. Unset reproduces cfg.maxBatch.
    const int effective_max_batch =
        cfg.resilience.admission.hasMemoryBound()
            ? static_cast<int>(std::min<std::int64_t>(
                  cfg.maxBatch,
                  cfg.resilience.admission.memoryFeasibleBatch))
            : cfg.maxBatch;
    report.effectiveMaxBatch = effective_max_batch;
    // The infeasible case rates a batch of one; everything is shed.
    const int rate_batch = std::max(effective_max_batch, 1);

    // Offered load versus full-batch fleet capacity.
    double capacity = 0.0;
    for (int r = 0; r < numReplicas; ++r) {
        const std::size_t ri = static_cast<std::size_t>(r);
        const double batch_rate =
            static_cast<double>(rate_batch) /
            pricers[ri].batchSeconds(rate_batch, 1.0, 1.0);
        capacity += batch_rate *
                    static_cast<double>(cfg.replicas[ri].numGpus);
    }
    report.offeredLoad = cfg.arrivalRate / capacity;

    // Flatten the fault plan into a time-sorted edge list.
    std::vector<Transition> transitions;
    for (int g = 0; g < numGpus; ++g) {
        for (const Outage& o :
             plan.gpus[static_cast<std::size_t>(g)].outages) {
            transitions.push_back({o.start, g, true});
            transitions.push_back({o.end, g, false});
        }
    }
    std::sort(transitions.begin(), transitions.end(),
              [](const Transition& a, const Transition& b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  if (a.gpu != b.gpu)
                      return a.gpu < b.gpu;
                  return a.down < b.down; // up-edge before down-edge
              });

    // Trace lanes: per-GPU lanes for batch/outage spans, shared lanes
    // for lifecycle, breaker-transition, and hedge events.
    std::vector<int> gpu_track;
    int lifecycle_track = -1;
    int breaker_track = -1;
    int hedge_track = -1;
    if (trace != nullptr) {
        lifecycle_track = trace->track("serving", "lifecycle");
        if (clusterView) {
            breaker_track = trace->track("serving", "breakers");
            hedge_track = trace->track("serving", "hedges");
        }
        for (int g = 0; g < numGpus; ++g) {
            std::string lane = "gpu " + std::to_string(g);
            if (clusterView)
                lane += " (replica " +
                        std::to_string(
                            repOf[static_cast<std::size_t>(g)]) +
                        ")";
            gpu_track.push_back(trace->track("serving", lane));
        }
        // Outage spans (faults + chaos kills) from the merged plan.
        for (int g = 0; g < numGpus; ++g) {
            for (const Outage& o :
                 plan.gpus[static_cast<std::size_t>(g)].outages) {
                trace->complete(gpu_track[static_cast<std::size_t>(g)],
                                "outage", o.start, o.end - o.start,
                                "fault");
            }
        }
    }

    // Per-replica label sets for sampled series and counters.
    std::vector<telemetry::Labels> repLabels;
    if (metrics != nullptr && clusterView) {
        for (int r = 0; r < numReplicas; ++r) {
            repLabels.push_back(
                telemetry::Labels{{"replica", std::to_string(r)}});
        }
    }

    const std::size_t ngpu = static_cast<std::size_t>(numGpus);
    const std::size_t nrep = static_cast<std::size_t>(numReplicas);
    std::vector<std::deque<Copy>> queues(nrep);
    std::vector<std::optional<InFlightBatch>> inflight(ngpu);
    std::vector<bool> gpu_down(ngpu, false);
    std::vector<std::uint64_t> epoch(ngpu, 0);
    int inflight_gpus = 0;

    // Router / breaker / probe state, all per replica.
    std::vector<bool> knownUp(nrep, true);
    std::vector<BreakerState> bstate(nrep, BreakerState::Closed);
    std::vector<int> consecFailures(nrep, 0);
    std::vector<int> halfOpenSucc(nrep, 0);
    std::vector<double> openedAt(nrep, 0.0);
    std::vector<int> repBatches(nrep, 0);
    std::vector<std::int64_t> repQueuedPlusFlight(nrep, 0);
    std::uint64_t rrCounter = 0;

    std::vector<double> probeNext(nrep, kNever);
    if (probesOn) {
        for (int r = 0; r < numReplicas; ++r) {
            Rng pr = Rng::stream(
                cfg.seed,
                kProbeStream + static_cast<std::uint64_t>(r));
            probeNext[static_cast<std::size_t>(r)] = pr.uniform(
                0.0, cfg.probe.jitterFraction *
                         cfg.probe.intervalSeconds);
        }
    }

    std::priority_queue<FinishEvent, std::vector<FinishEvent>,
                        std::greater<FinishEvent>>
        finishes;
    std::priority_queue<RetryEvent, std::vector<RetryEvent>,
                        std::greater<RetryEvent>>
        retries;
    std::priority_queue<HedgeEvent, std::vector<HedgeEvent>,
                        std::greater<HedgeEvent>>
        hedges;
    std::uint64_t retry_seq = 0;
    std::uint64_t hedge_seq = 0;

    std::vector<ReqMeta> meta;
    std::vector<double> latencies;
    std::vector<double> batch_sizes;
    double busy_in_horizon = 0.0;
    std::int64_t goodput_count = 0;
    std::int64_t deadline_misses = 0;

    workload::Arrival pending = arrivals.next();
    double next_arrival = pending.time;
    double size_sum = 0.0;
    std::int64_t size_count = 0;

    // Priority-ordered queueing only engages for mixes with more than
    // one priority level; the insert in `enqueue` then degenerates to
    // push_back, so uniform-priority (and legacy) order is untouched.
    const bool priority_mix =
        cfg.workload.enabled() && !cfg.workload.uniformPriority();

    // Busy-time bookkeeping: the in-horizon share feeds utilization,
    // the post-horizon share is reported as drain work.
    auto account_busy = [&](double start, double end, int replica) {
        busy_in_horizon += std::max(0.0, std::min(end, horizon) - start);
        report.drainGpuSeconds +=
            std::max(0.0, end - std::max(start, horizon));
        cluster.replicas[static_cast<std::size_t>(replica)]
            .busySeconds += end - start;
    };

    auto slowdownAt = [&](int g, double now) {
        const std::size_t gi = static_cast<std::size_t>(g);
        double s = plan.gpus[gi].slowdown;
        for (const SlowWindow& w : slowWindows[gi]) {
            if (now >= w.start && now < w.end)
                s *= w.factor;
        }
        return s;
    };

    // A half-open replica may receive work only while completely
    // idle: one trial request probes it, further traffic waits for
    // the verdict. Without this trickle the breaker could never
    // observe the successes it needs to close.
    auto halfOpenIdle = [&](std::size_t ri) {
        return bstate[ri] == BreakerState::HalfOpen &&
               repBatches[ri] == 0 && queues[ri].empty();
    };

    // Route one copy to a replica. Preference tiers: healthy replicas
    // (closed breaker, or an idle half-open one taking its trial),
    // then any non-open breaker, then anything — the policy picks
    // within the best non-empty tier. Deterministic: no RNG, ties to
    // the lowest index (or the round-robin cursor).
    auto route = [&](int exclude) {
        if (numReplicas == 1)
            return exclude == 0 ? -1 : 0; // every tier holds replica 0
        std::vector<int> cand;
        for (int tier = 0; tier < 3 && cand.empty(); ++tier) {
            for (int r = 0; r < numReplicas; ++r) {
                if (r == exclude)
                    continue;
                const std::size_t ri = static_cast<std::size_t>(r);
                if (tier == 0 &&
                    (!knownUp[ri] ||
                     (breakerOn &&
                      bstate[ri] != BreakerState::Closed &&
                      !halfOpenIdle(ri))))
                    continue;
                if (tier == 1 &&
                    (!knownUp[ri] ||
                     (breakerOn && bstate[ri] == BreakerState::Open)))
                    continue;
                cand.push_back(r);
            }
        }
        if (cand.empty())
            return -1;
        switch (cfg.router) {
        case RouterPolicy::RoundRobin:
            return cand[static_cast<std::size_t>(
                rrCounter++ % cand.size())];
        case RouterPolicy::LeastLoaded:
            break;
        case RouterPolicy::FailureDomainAware: {
            // Deprioritize replicas sharing a failure domain with a
            // known-down or breaker-tripped replica.
            std::vector<int> clean;
            for (int r : cand) {
                bool suspect = false;
                for (int o = 0; o < numReplicas; ++o) {
                    const std::size_t oi = static_cast<std::size_t>(o);
                    if (cfg.replicas[oi].domain !=
                        cfg.replicas[static_cast<std::size_t>(r)]
                            .domain)
                        continue;
                    if (!knownUp[oi] ||
                        (breakerOn &&
                         bstate[oi] != BreakerState::Closed)) {
                        suspect = true;
                        break;
                    }
                }
                if (!suspect)
                    clean.push_back(r);
            }
            if (!clean.empty())
                cand = std::move(clean);
            break;
        }
        }
        int best = cand.front();
        for (int r : cand) {
            if (repQueuedPlusFlight[static_cast<std::size_t>(r)] <
                repQueuedPlusFlight[static_cast<std::size_t>(best)])
                best = r;
        }
        return best;
    };

    auto enqueue = [&](int replica, const Copy& copy) {
        std::deque<Copy>& q =
            queues[static_cast<std::size_t>(replica)];
        if (!priority_mix) {
            q.push_back(copy);
        } else {
            // Stable insert: after every queued copy of equal-or-more
            // urgent priority, before the first strictly less urgent.
            auto it = q.end();
            while (it != q.begin() &&
                   std::prev(it)->priority > copy.priority)
                --it;
            q.insert(it, copy);
        }
        ++repQueuedPlusFlight[static_cast<std::size_t>(replica)];
    };

    auto totalQueued = [&] {
        std::int64_t n = 0;
        for (const std::deque<Copy>& q : queues)
            n += static_cast<std::int64_t>(q.size());
        return n;
    };

    // Requeue a faulted/timed-out copy with backoff, or drop it.
    auto retry_or_drop = [&](Copy copy, double now) {
        ReqMeta& m = meta[static_cast<std::size_t>(copy.id)];
        if (copy.attempts >= cfg.resilience.retry.maxRetries) {
            --m.liveCopies;
            if (!m.done && m.liveCopies == 0) {
                ++report.dropped;
                if (trace != nullptr)
                    trace->instant(lifecycle_track, "drop", now,
                                   "lifecycle");
            }
            return;
        }
        ++copy.attempts;
        ++report.retries;
        const double ready =
            now + cfg.resilience.retry.backoffSeconds(copy.attempts);
        if (trace != nullptr)
            trace->instant(lifecycle_track, "retry", now, "lifecycle");
        retries.push({ready, retry_seq++, copy});
    };

    // Drop the head of a replica's queue: its deadline already passed,
    // so serving it would be wasted work.
    auto expire_front = [&](std::size_t ri, double now) {
        std::deque<Copy>& queue = queues[ri];
        ReqMeta& m = meta[static_cast<std::size_t>(queue.front().id)];
        --m.liveCopies;
        if (m.liveCopies == 0) {
            ++report.expired;
            if (trace != nullptr)
                trace->instant(lifecycle_track, "expire", now,
                               "lifecycle");
        } else {
            ++report.hedgesCancelled;
        }
        --repQueuedPlusFlight[ri];
        queue.pop_front();
    };

    // Book one member's completion at `finish`. False when its twin
    // already answered, so its share of the batch was duplicate work.
    auto complete = [&](const Copy& copy, double finish,
                        std::size_t ri) {
        ReqMeta& m = meta[static_cast<std::size_t>(copy.id)];
        if (!copy.hedge)
            m.primaryInFlight = false;
        --m.liveCopies;
        if (m.done)
            return false;
        m.done = true;
        if (copy.hedge)
            ++report.hedgesWon;
        if (trace != nullptr && m.hedged) {
            // Hedge span: from the hedge timer firing to whichever
            // copy answered first.
            telemetry::Labels args;
            args.set("won", copy.hedge ? "hedge" : "primary");
            trace->complete(hedge_track, "hedged request", m.hedgedAt,
                            finish - m.hedgedAt, "hedge", args);
        }
        const double lat = finish - copy.arrival;
        latencies.push_back(lat);
        ++report.completed;
        ++cluster.replicas[ri].completedRequests;
        if (finish > horizon)
            ++report.drainCompleted;
        const bool in_deadline =
            !deadline.hasDeadline() || lat <= deadline.deadlineSeconds;
        if (!in_deadline)
            ++deadline_misses;
        if (finish <= horizon && in_deadline)
            ++goodput_count;
        return true;
    };

    // Trace span of one batch (or continuous iteration) on its GPU.
    auto batch_span = [&](std::size_t gi, const char* kind,
                          const InFlightBatch& fl, double end,
                          std::string_view outcome) {
        telemetry::Labels args;
        args.set("batch", std::to_string(fl.copies.size()));
        if (clusterView)
            args.set("replica", std::to_string(fl.replica));
        args.set("outcome", std::string(outcome));
        if (fl.degraded && outcome != "killed")
            args.set("degraded", "1");
        trace->complete(gpu_track[gi],
                        kind + std::to_string(fl.copies.size()),
                        fl.start, end - fl.start, "batch", args);
    };

    // Free a GPU whose batch resolved or died.
    auto release_gpu = [&](std::size_t gi) {
        const std::size_t ri = static_cast<std::size_t>(repOf[gi]);
        inflight[gi].reset();
        ++epoch[gi];
        --inflight_gpus;
        --repBatches[ri];
    };

    // Trip the breaker: stop routing to the replica and push its
    // queued work through the router toward healthy peers.
    auto openBreaker = [&](int r, double now) {
        const std::size_t ri = static_cast<std::size_t>(r);
        bstate[ri] = BreakerState::Open;
        openedAt[ri] = now;
        consecFailures[ri] = 0;
        halfOpenSucc[ri] = 0;
        ++report.breakerOpens;
        ++cluster.replicas[ri].breakerOpens;
        if (trace != nullptr) {
            telemetry::Labels args;
            args.set("replica", std::to_string(r));
            trace->instant(breaker_track, "breaker_open", now,
                           "breaker", args);
        }
        if (numReplicas > 1) {
            std::deque<Copy> moved;
            moved.swap(queues[ri]);
            repQueuedPlusFlight[ri] -=
                static_cast<std::int64_t>(moved.size());
            for (const Copy& c : moved) {
                if (meta[static_cast<std::size_t>(c.id)].done) {
                    ++report.hedgesCancelled;
                    --meta[static_cast<std::size_t>(c.id)].liveCopies;
                    continue;
                }
                const int target = route(r);
                enqueue(target >= 0 ? target : r, c);
            }
        }
    };

    auto noteBatchFailure = [&](int r, double now) {
        if (!breakerOn)
            return;
        const std::size_t ri = static_cast<std::size_t>(r);
        if (bstate[ri] == BreakerState::HalfOpen) {
            openBreaker(r, now);
            return;
        }
        ++consecFailures[ri];
        if (bstate[ri] == BreakerState::Closed &&
            consecFailures[ri] >= cfg.breaker.failureThreshold)
            openBreaker(r, now);
    };

    auto noteBatchSuccess = [&](int r, double now) {
        if (!breakerOn)
            return;
        const std::size_t ri = static_cast<std::size_t>(r);
        consecFailures[ri] = 0;
        if (bstate[ri] == BreakerState::HalfOpen) {
            ++halfOpenSucc[ri];
            if (halfOpenSucc[ri] >= cfg.breaker.halfOpenSuccesses) {
                bstate[ri] = BreakerState::Closed;
                halfOpenSucc[ri] = 0;
                ++report.breakerCloses;
                if (trace != nullptr) {
                    telemetry::Labels args;
                    args.set("replica", std::to_string(r));
                    trace->instant(breaker_track, "breaker_close", now,
                                   "breaker", args);
                }
            }
        }
    };

    // Resolve every member copy of a killed batch: salvage any
    // checkpointed progress, book the destroyed GPU-seconds, and put
    // live copies back through the retry policy.
    auto failMembers = [&](InFlightBatch& fl, double now) {
        const double elapsed = now - fl.start;
        const double b = static_cast<double>(fl.copies.size());
        if (ckptOn && fl.plannedService > 0.0) {
            const double q = std::min(elapsed / fl.plannedService, 1.0);
            const std::int64_t advMax = static_cast<std::int64_t>(
                q * static_cast<double>(fl.maxRemIters));
            const std::int64_t taken =
                advMax / ckpt.intervalIterations;
            report.checkpointsTaken += taken;
            report.checkpointOverheadSeconds +=
                static_cast<double>(taken) * ckpt.costSeconds;
        }
        for (std::size_t i = 0; i < fl.copies.size(); ++i) {
            Copy& copy = fl.copies[i];
            ReqMeta& m = meta[static_cast<std::size_t>(copy.id)];
            if (!copy.hedge)
                m.primaryInFlight = false;
            const double share = elapsed / b;
            if (m.done) {
                // Duplicate of an already-answered request: all its
                // progress is hedge waste, nothing retries.
                report.hedgeWastedSeconds += share;
                --m.liveCopies;
                continue;
            }
            double salvage = 0.0;
            if (ckptOn && fl.plannedService > 0.0) {
                const double q =
                    std::min(elapsed / fl.plannedService, 1.0);
                const std::int64_t rem = fl.remIters[i];
                const std::int64_t adv = static_cast<std::int64_t>(
                    q * static_cast<double>(rem));
                const std::int64_t ck =
                    (adv / ckpt.intervalIterations) *
                    ckpt.intervalIterations;
                if (ck > 0) {
                    // The run resumed from iteration iterations - rem.
                    m.doneIters = std::max(
                        m.doneIters, ckpt.iterations - rem + ck);
                    salvage = (static_cast<double>(ck) /
                               static_cast<double>(rem)) *
                              (fl.workService / b);
                }
            }
            // The single-pool report predates wasted-work accounting.
            if (clusterView) {
                report.wastedGpuSeconds += share - salvage;
                report.restoredGpuSeconds += salvage;
            }
            retry_or_drop(copy, now);
        }
    };

    // A batch died before finishing (fault hit or batch timeout).
    auto abort_batch = [&](std::size_t gi, double now) {
        const int r = repOf[gi];
        const std::size_t ri = static_cast<std::size_t>(r);
        InFlightBatch fl = std::move(*inflight[gi]);
        release_gpu(gi);
        account_busy(fl.start, now, r);
        report.lostGpuSeconds += now - fl.start;
        failMembers(fl, now);
        repQueuedPlusFlight[ri] -=
            static_cast<std::int64_t>(fl.copies.size());
        ++cluster.replicas[ri].abortedBatches;
        noteBatchFailure(r, now);
    };

    // Put a formed batch on a free GPU of replica `ri`.
    auto occupy_gpu = [&](std::size_t gi, std::size_t ri,
                          InFlightBatch&& fl) {
        inflight[gi] = std::move(fl);
        ++inflight_gpus;
        ++repBatches[ri];
        ++cluster.replicas[ri].dispatchedBatches;
    };

    // Greedy batching: take up to a full batch off the queue head and
    // hold every member on the GPU until the whole batch finishes.
    auto launch_greedy = [&](int r, int g, double now) {
        const std::size_t ri = static_cast<std::size_t>(r);
        const std::size_t gi = static_cast<std::size_t>(g);
        std::deque<Copy>& queue = queues[ri];
        const bool degrade =
            cfg.resilience.degradation.enabled() &&
            static_cast<std::int64_t>(queue.size()) >=
                cfg.resilience.degradation.queueThreshold;
        const int batch = static_cast<int>(std::min<std::size_t>(
            queue.size(), static_cast<std::size_t>(effective_max_batch)));
        // Padded-batch pricing: the batch runs at its largest
        // member's shape.
        double max_size = 1.0;
        for (int i = 0; i < batch; ++i)
            max_size = std::max(max_size,
                                queue[static_cast<std::size_t>(i)].size);
        double service =
            pricers[ri].batchSeconds(batch, max_size, slowdownAt(g, now));
        if (degrade)
            service *= cfg.resilience.degradation.serviceScale;
        InFlightBatch fl;
        fl.replica = r;
        fl.start = now;
        fl.degraded = degrade;
        if (ckptOn) {
            // Resume from the last checkpoint: the batch only runs the
            // longest member's remaining iterations, plus the cost of
            // the checkpoints it will write.
            for (int i = 0; i < batch; ++i) {
                const Copy& c = queue[static_cast<std::size_t>(i)];
                const std::int64_t rem =
                    ckpt.iterations -
                    meta[static_cast<std::size_t>(c.id)].doneIters;
                fl.remIters.push_back(rem);
                fl.maxRemIters = std::max(fl.maxRemIters, rem);
            }
            service *= static_cast<double>(fl.maxRemIters) /
                       static_cast<double>(ckpt.iterations);
            fl.workService = service;
            fl.ckpts = fl.maxRemIters / ckpt.intervalIterations;
            service += static_cast<double>(fl.ckpts) * ckpt.costSeconds;
        } else {
            fl.workService = service;
        }
        fl.plannedService = service;
        if (deadline.hasTimeout() &&
            service > deadline.batchTimeoutSeconds) {
            fl.timedOut = true;
            fl.finish = now + deadline.batchTimeoutSeconds;
        } else {
            fl.finish = now + service;
        }
        for (int i = 0; i < batch; ++i) {
            Copy copy = queue.front();
            queue.pop_front();
            ReqMeta& m = meta[static_cast<std::size_t>(copy.id)];
            if (ckptOn && m.doneIters > 0)
                ++report.resumes;
            if (!copy.hedge) {
                m.primaryInFlight = true;
                m.primaryReplica = r;
                if (hedgeOn && !m.hedged)
                    hedges.push({now + cfg.hedge.delaySeconds,
                                 hedge_seq++, copy.id});
            }
            fl.copies.push_back(copy);
        }
        batch_sizes.push_back(static_cast<double>(batch));
        finishes.push({fl.finish, g, ++epoch[gi]});
        occupy_gpu(gi, ri, std::move(fl));
    };

    // -- continuous batching: the batch is a set of members advancing
    //    one pipeline iteration at a time; requests join and retire at
    //    iteration boundaries (validate -> batch -> schedule ->
    //    execute, at the granularity the pricing surface exposes) --

    // Price and launch the next iteration of a (non-empty) batch.
    auto start_iteration = [&](int g, double now) {
        const std::size_t gi = static_cast<std::size_t>(g);
        InFlightBatch& fl = *inflight[gi];
        const std::size_t ri = static_cast<std::size_t>(fl.replica);
        const int batch = static_cast<int>(fl.copies.size());
        double max_size = 1.0;
        for (const Copy& c : fl.copies)
            max_size = std::max(max_size, c.size);
        const bool degrade =
            cfg.resilience.degradation.enabled() &&
            static_cast<std::int64_t>(queues[ri].size()) >=
                cfg.resilience.degradation.queueThreshold;
        double iter_s = pricers[ri].batchSeconds(batch, max_size, 1.0) /
                        static_cast<double>(total_iters) *
                        slowdownAt(g, now);
        if (degrade)
            iter_s *= cfg.resilience.degradation.serviceScale;
        fl.start = now;
        fl.degraded = degrade;
        if (deadline.hasTimeout() &&
            iter_s > deadline.batchTimeoutSeconds) {
            fl.timedOut = true;
            fl.finish = now + deadline.batchTimeoutSeconds;
        } else {
            fl.timedOut = false;
            fl.finish = now + iter_s;
        }
        batch_sizes.push_back(static_cast<double>(batch));
        ++report.iterationsDispatched;
        finishes.push({fl.finish, g, ++epoch[gi]});
    };

    // Fill a batch from the queue at an iteration boundary, lazily
    // expiring requests whose deadline already passed. Admission is
    // size-bucketed: an empty batch takes its bucket from the first
    // (highest-priority) queued request, and only same-bucket
    // requests may join — padded-batch pricing runs a batch at its
    // largest member's shape, so mixing buckets would drag every
    // small member at the big one's cost for the rest of its
    // residency (the convoy that makes naive continuous batching
    // lose to greedy under heavy-tailed sizes). Refill never jumps
    // past an incompatible queue head either: serving later,
    // lower-ranked compatible requests first would let a GPU lock
    // into one bucket while higher-priority work starves (greedy
    // re-dispatches from the head after every batch; continuous must
    // not be worse). Instead the batch stops admitting, drains over
    // its remaining iterations, and the freed GPU re-buckets to the
    // head — no worse a wait than greedy's full-batch turnaround.
    auto admit_members = [&](InFlightBatch& fl, double now) {
        const std::size_t ri = static_cast<std::size_t>(fl.replica);
        const ServicePricer& pricer = pricers[ri];
        std::deque<Copy>& queue = queues[ri];
        bool has_bucket = !fl.copies.empty();
        std::size_t bucket =
            has_bucket ? pricer.sizeBucket(fl.copies.front().size) : 0;
        while (static_cast<int>(fl.copies.size()) <
                   effective_max_batch &&
               !queue.empty()) {
            if (deadline.hasDeadline() &&
                queue.front().arrival + deadline.deadlineSeconds <=
                    now) {
                expire_front(ri, now);
                continue;
            }
            const std::size_t b = pricer.sizeBucket(queue.front().size);
            if (has_bucket && b != bucket)
                break; // incompatible head: drain, don't queue-jump
            has_bucket = true;
            bucket = b;
            fl.copies.push_back(queue.front());
            fl.copies.back().degraded = false;
            fl.remIters.push_back(total_iters);
            queue.pop_front();
        }
    };

    auto launch_continuous = [&](int r, int g, double now) {
        InFlightBatch fl;
        fl.replica = r;
        admit_members(fl, now);
        if (fl.copies.empty())
            return false; // everything queued had expired
        occupy_gpu(static_cast<std::size_t>(g),
                   static_cast<std::size_t>(r), std::move(fl));
        start_iteration(g, now);
        return true;
    };

    // Retire/advance one continuous batch at its iteration boundary.
    auto finish_iteration = [&](const FinishEvent& ev) {
        const std::size_t gi = static_cast<std::size_t>(ev.gpu);
        InFlightBatch& fl = *inflight[gi];
        const int r = fl.replica;
        const std::size_t ri = static_cast<std::size_t>(r);
        if (trace != nullptr)
            batch_span(gi, "iter b=", fl, ev.time,
                       fl.timedOut ? "timeout" : "ok");
        if (fl.timedOut) {
            abort_batch(gi, ev.time);
            return;
        }
        account_busy(fl.start, fl.finish, r);
        // Retire finished members in place, keeping the survivors'
        // order: the front member sets the batch's size bucket.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < fl.copies.size(); ++i) {
            Copy& c = fl.copies[i];
            c.degraded = c.degraded || fl.degraded;
            if (--fl.remIters[i] > 0) {
                if (kept != i) {
                    fl.copies[kept] = c;
                    fl.remIters[kept] = fl.remIters[i];
                }
                ++kept;
                continue;
            }
            complete(c, fl.finish, ri);
            if (c.degraded)
                ++report.degraded;
            --repQueuedPlusFlight[ri];
        }
        fl.copies.resize(kept);
        fl.remIters.resize(kept);
        admit_members(fl, ev.time);
        if (fl.copies.empty())
            release_gpu(gi);
        else
            start_iteration(ev.gpu, ev.time);
    };

    auto dispatch = [&](double now) {
        if (effective_max_batch == 0)
            return; // memory-infeasible: nothing may be scheduled
        for (int r = 0; r < numReplicas; ++r) {
            const std::size_t ri = static_cast<std::size_t>(r);
            if (breakerOn && bstate[ri] == BreakerState::Open)
                continue;
            std::deque<Copy>& queue = queues[ri];
            const ReplicaSpec& rep = cfg.replicas[ri];
            while (true) {
                // Drop cancelled duplicates: their twin already
                // answered, serving them is pure waste.
                if (hedgeOn) {
                    for (std::size_t k = 0; k < queue.size();) {
                        if (meta[static_cast<std::size_t>(
                                     queue[k].id)]
                                .done) {
                            ++report.hedgesCancelled;
                            --meta[static_cast<std::size_t>(
                                       queue[k].id)]
                                  .liveCopies;
                            --repQueuedPlusFlight[ri];
                            queue.erase(queue.begin() +
                                        static_cast<std::ptrdiff_t>(k));
                        } else {
                            ++k;
                        }
                    }
                }
                if (queue.empty())
                    break;
                // Greedy expires before looking for a GPU; continuous
                // admission expires as it fills a freed GPU.
                if (!continuous && deadline.hasDeadline()) {
                    while (!queue.empty() &&
                           queue.front().arrival +
                                   deadline.deadlineSeconds <=
                               now)
                        expire_front(ri, now);
                    if (queue.empty())
                        break;
                }
                // A half-open breaker admits one trial batch at a time.
                if (breakerOn &&
                    bstate[ri] == BreakerState::HalfOpen &&
                    repBatches[ri] > 0)
                    break;
                int free_gpu = -1;
                for (int k = 0; k < rep.numGpus; ++k) {
                    const int g = gpuBase[ri] + k;
                    const std::size_t gi = static_cast<std::size_t>(g);
                    if (!inflight[gi].has_value() && !gpu_down[gi]) {
                        free_gpu = g;
                        break;
                    }
                }
                if (free_gpu < 0)
                    break;
                if (!continuous)
                    launch_greedy(r, free_gpu, now);
                else if (!launch_continuous(r, free_gpu, now))
                    break;
            }
        }
    };

    // Periodic state sampling: an extra event source with the lowest
    // tie priority, so a sample at time t observes the state *after*
    // every simulation event at t. Sample k lands at exactly
    // k * interval (no floating-point accumulation drift); the final
    // sample is clamped onto the horizon, then the source goes quiet.
    const double sample_interval =
        sampling ? tele->sampleIntervalSeconds : 0.0;
    std::int64_t sample_idx = sampling ? 1 : -1;
    auto sample_time = [&]() -> double {
        if (sample_idx < 0)
            return kNever;
        const double t =
            sample_interval * static_cast<double>(sample_idx);
        return std::min(t, horizon);
    };
    auto take_sample = [&](double t) {
        telemetry::MetricsRegistry& m = *metrics;
        m.series("serving.queue_depth")
            .record(t, static_cast<double>(totalQueued()));
        m.series("serving.in_flight_gpus")
            .record(t, static_cast<double>(inflight_gpus));
        m.series("serving.retry_backlog")
            .record(t, static_cast<double>(retries.size()));
        m.series("serving.arrived_total")
            .record(t, static_cast<double>(report.arrived));
        m.series("serving.completed_total")
            .record(t, static_cast<double>(report.completed));
        m.series("serving.shed_total")
            .record(t, static_cast<double>(report.shed));
        m.series("serving.retries_total")
            .record(t, static_cast<double>(report.retries));
        if (clusterView) {
            m.series("serving.hedges_issued_total")
                .record(t, static_cast<double>(report.hedgesIssued));
        }
        for (std::size_t ri = 0; ri < repLabels.size(); ++ri) {
            const telemetry::Labels& lbl = repLabels[ri];
            m.series("serving.replica.queue_depth", lbl)
                .record(t, static_cast<double>(queues[ri].size()));
            m.series("serving.replica.in_flight_batches", lbl)
                .record(t, static_cast<double>(repBatches[ri]));
            double state = 0.0;
            if (bstate[ri] == BreakerState::Open)
                state = 1.0;
            else if (bstate[ri] == BreakerState::HalfOpen)
                state = 2.0;
            m.series("serving.replica.breaker_state", lbl)
                .record(t, state);
            // Utilization so far: resolved busy-seconds plus the
            // elapsed share of still-running batches (their busy time
            // is only booked at resolution).
            double busy = cluster.replicas[ri].busySeconds;
            for (int k = 0; k < cfg.replicas[ri].numGpus; ++k) {
                const std::size_t gi = static_cast<std::size_t>(
                    gpuBase[ri] + k);
                if (inflight[gi].has_value())
                    busy += std::max(0.0, t - inflight[gi]->start);
            }
            m.series("serving.replica.utilization", lbl)
                .record(t, busy / (t * static_cast<double>(
                                           cfg.replicas[ri].numGpus)));
        }
        if (t >= horizon)
            sample_idx = -1; // final sample taken; source goes quiet
        else
            ++sample_idx;
    };
    double next_sample = sample_time();

    std::size_t ti = 0;
    while (true) {
        // Drop stale finish events (their batch was killed).
        while (!finishes.empty()) {
            const FinishEvent& top = finishes.top();
            const std::size_t gi = static_cast<std::size_t>(top.gpu);
            if (inflight[gi].has_value() && epoch[gi] == top.epoch)
                break;
            finishes.pop();
        }
        // kNever: with no pending completion, an arrival gap jumping
        // past the horizon must still break in the arrival branch,
        // never fall through to pop an empty completion queue.
        const double next_finish =
            finishes.empty() ? kNever : finishes.top().time;
        const double next_fault =
            ti < transitions.size() ? transitions[ti].time : kNever;
        const double next_retry =
            retries.empty() ? kNever : retries.top().ready;
        const double next_hedge =
            hedges.empty() ? kNever : hedges.top().time;
        double next_probe = kNever;
        int probe_replica = -1;
        if (probesOn) {
            for (int r = 0; r < numReplicas; ++r) {
                const double t = probeNext[static_cast<std::size_t>(r)];
                if (t <= horizon && t < next_probe) {
                    next_probe = t;
                    probe_replica = r;
                }
            }
        }
        // next_sample joins next_other so a pending sample before a
        // post-horizon arrival still fires; every older event source
        // keeps tie priority over sampling.
        const double next_other =
            std::min({next_finish, next_fault, next_retry, next_probe,
                      next_hedge, next_sample});

        if (next_arrival <= next_other) {
            if (next_arrival > horizon)
                break;
            // Arrival event.
            const double now = next_arrival;
            ++report.arrived;
            if (effective_max_batch == 0) {
                // Not even a batch of one fits the GPU: admitting the
                // request could only ever OOM, so it is shed with a
                // memory rejection rather than queued.
                ++report.shed;
                ++report.memoryShed;
                if (trace != nullptr)
                    trace->instant(lifecycle_track, "shed_memory", now,
                                   "lifecycle");
            } else if (cfg.resilience.admission.enabled() &&
                       totalQueued() >=
                           cfg.resilience.admission.maxQueueLength) {
                ++report.shed;
                if (trace != nullptr)
                    trace->instant(lifecycle_track, "shed", now,
                                   "lifecycle");
            } else {
                const std::int64_t id =
                    static_cast<std::int64_t>(meta.size());
                ReqMeta& m = meta.emplace_back();
                m.arrival = now;
                m.liveCopies = 1;
                m.size = pending.sizeScale;
                m.priority = pending.priority;
                Copy copy;
                copy.id = id;
                copy.arrival = now;
                copy.size = m.size;
                copy.priority = m.priority;
                enqueue(route(-1), copy);
                size_sum += m.size;
                ++size_count;
                if (trace != nullptr)
                    trace->instant(lifecycle_track, "admit", now,
                                   "lifecycle");
            }
            pending = arrivals.next();
            next_arrival = pending.time;
            dispatch(now);
        } else if (next_fault <=
                   std::min({next_finish, next_retry, next_probe,
                             next_hedge, next_sample})) {
            // GPU availability edge.
            const Transition tr = transitions[ti++];
            const std::size_t gi = static_cast<std::size_t>(tr.gpu);
            if (tr.down) {
                gpu_down[gi] = true;
                if (inflight[gi].has_value()) {
                    if (trace != nullptr)
                        batch_span(gi, "batch b=", *inflight[gi],
                                   tr.time, "killed");
                    abort_batch(gi, tr.time);
                }
            } else {
                gpu_down[gi] = false;
                dispatch(tr.time);
            }
        } else if (next_probe <=
                   std::min({next_finish, next_retry, next_hedge,
                             next_sample})) {
            // Health probe: refresh router knowledge, advance due
            // breakers from open to half-open.
            const double now = next_probe;
            const std::size_t ri =
                static_cast<std::size_t>(probe_replica);
            bool anyUp = false;
            for (int k = 0; k < cfg.replicas[ri].numGpus; ++k) {
                if (!gpu_down[static_cast<std::size_t>(
                        gpuBase[ri] + k)]) {
                    anyUp = true;
                    break;
                }
            }
            knownUp[ri] = anyUp;
            probeNext[ri] += cfg.probe.intervalSeconds;
            if (breakerOn && bstate[ri] == BreakerState::Open &&
                now >= openedAt[ri] + cfg.breaker.openSeconds) {
                bstate[ri] = BreakerState::HalfOpen;
                halfOpenSucc[ri] = 0;
                if (trace != nullptr) {
                    telemetry::Labels args;
                    args.set("replica",
                             std::to_string(probe_replica));
                    trace->instant(breaker_track, "breaker_half_open",
                                   now, "breaker", args);
                }
                dispatch(now);
            }
        } else if (next_hedge <= std::min({next_finish, next_retry,
                                           next_sample})) {
            // Hedge timer: the primary has run long enough — issue a
            // backup copy on a different replica.
            const HedgeEvent ev = hedges.top();
            hedges.pop();
            ReqMeta& m = meta[static_cast<std::size_t>(ev.id)];
            if (!m.done && !m.hedged && m.primaryInFlight) {
                const int target = route(m.primaryReplica);
                if (target >= 0 && target != m.primaryReplica) {
                    m.hedged = true;
                    m.hedgedAt = ev.time;
                    ++m.liveCopies;
                    ++report.hedgesIssued;
                    if (trace != nullptr) {
                        telemetry::Labels args;
                        args.set("target", std::to_string(target));
                        trace->instant(hedge_track, "hedge_issue",
                                       ev.time, "hedge", args);
                    }
                    Copy copy;
                    copy.id = ev.id;
                    copy.arrival = m.arrival;
                    copy.hedge = true;
                    copy.size = m.size;
                    copy.priority = m.priority;
                    enqueue(target, copy);
                    dispatch(ev.time);
                }
            }
        } else if (next_retry <=
                   std::min(next_finish, next_sample)) {
            // Backed-off copies re-enter a queue via the router.
            const double now = next_retry;
            while (!retries.empty() && retries.top().ready <= now) {
                const Copy copy = retries.top().copy;
                retries.pop();
                enqueue(route(-1), copy);
            }
            dispatch(now);
        } else if (next_sample < next_finish) {
            // Periodic telemetry sample; completions win ties so the
            // sample sees post-event state at its own timestamp.
            take_sample(next_sample);
            next_sample = sample_time();
        } else {
            // Completion event (may run past the horizon to drain).
            const FinishEvent ev = finishes.top();
            finishes.pop();
            const std::size_t gi = static_cast<std::size_t>(ev.gpu);
            if (continuous) {
                finish_iteration(ev);
            } else if (inflight[gi]->timedOut) {
                if (trace != nullptr)
                    batch_span(gi, "batch b=", *inflight[gi], ev.time,
                               "timeout");
                abort_batch(gi, ev.time);
            } else {
                const int r = repOf[gi];
                const std::size_t ri = static_cast<std::size_t>(r);
                InFlightBatch fl = std::move(*inflight[gi]);
                release_gpu(gi);
                repQueuedPlusFlight[ri] -=
                    static_cast<std::int64_t>(fl.copies.size());
                if (trace != nullptr)
                    batch_span(gi, "batch b=", fl, ev.time, "ok");
                account_busy(fl.start, fl.finish, r);
                if (ckptOn) {
                    report.checkpointsTaken += fl.ckpts;
                    report.checkpointOverheadSeconds +=
                        static_cast<double>(fl.ckpts) *
                        ckpt.costSeconds;
                }
                if (fl.degraded)
                    report.degraded += static_cast<std::int64_t>(
                        fl.copies.size());
                const double b = static_cast<double>(fl.copies.size());
                for (const Copy& copy : fl.copies) {
                    if (!complete(copy, fl.finish, ri))
                        report.hedgeWastedSeconds +=
                            (fl.finish - fl.start) / b;
                }
                noteBatchSuccess(r, ev.time);
            }
            if (ev.time > horizon && totalQueued() == 0 &&
                inflight_gpus == 0 && retries.empty()) {
                break;
            }
            dispatch(ev.time);
        }
    }

    for (const std::deque<Copy>& q : queues) {
        for (const Copy& c : q) {
            if (!meta[static_cast<std::size_t>(c.id)].done)
                ++report.backlog;
        }
    }
    for (std::size_t gi = 0; gi < ngpu; ++gi) {
        if (!inflight[gi].has_value())
            continue;
        for (const Copy& c : inflight[gi]->copies) {
            if (!meta[static_cast<std::size_t>(c.id)].done)
                ++report.backlog;
        }
        // Batches cut off by the end of the run still occupied their
        // GPU inside the horizon.
        account_busy(inflight[gi]->start,
                     std::min(inflight[gi]->finish, horizon),
                     repOf[gi]);
    }
    while (!retries.empty()) {
        if (!meta[static_cast<std::size_t>(retries.top().copy.id)]
                 .done)
            ++report.backlog;
        retries.pop();
    }

    if (!latencies.empty()) {
        const Summary s = summarize(latencies);
        report.meanLatency = s.mean;
        report.p50Latency = percentile(latencies, 50.0);
        report.p95Latency = percentile(latencies, 95.0);
        report.p99Latency = percentile(latencies, 99.0);
    }
    if (!batch_sizes.empty()) {
        report.meanBatch = summarize(batch_sizes).mean;
        report.maxBatchDispatched = static_cast<std::int64_t>(
            *std::max_element(batch_sizes.begin(), batch_sizes.end()));
    }
    if (size_count > 0)
        report.meanRequestSize =
            size_sum / static_cast<double>(size_count);
    report.throughput =
        static_cast<double>(report.completed - report.drainCompleted) /
        horizon;
    report.goodput = static_cast<double>(goodput_count) / horizon;
    report.gpuUtilization =
        busy_in_horizon / (horizon * static_cast<double>(numGpus));
    if (report.completed > 0) {
        report.deadlineMissRate =
            static_cast<double>(deadline_misses) /
            static_cast<double>(report.completed);
        report.degradedFraction =
            static_cast<double>(report.degraded) /
            static_cast<double>(report.completed);
    }
    if (report.arrived > 0) {
        report.shedFraction = static_cast<double>(report.shed) /
                              static_cast<double>(report.arrived);
    }

    for (int r = 0; r < numReplicas; ++r) {
        const std::size_t ri = static_cast<std::size_t>(r);
        double sum = 0.0;
        for (int k = 0; k < cfg.replicas[ri].numGpus; ++k)
            sum += plan.gpus[static_cast<std::size_t>(gpuBase[ri] + k)]
                       .availability(horizon);
        cluster.replicas[ri].availability =
            sum / static_cast<double>(cfg.replicas[ri].numGpus);
    }

    if (metrics != nullptr) {
        publishServingMetrics(*metrics, report, latencies,
                              batch_sizes);
        for (std::size_t ri = 0; ri < repLabels.size(); ++ri) {
            const telemetry::Labels& lbl = repLabels[ri];
            const ReplicaStats& stats = cluster.replicas[ri];
            metrics->counter("serving.replica.dispatched_batches", lbl)
                .add(stats.dispatchedBatches);
            metrics->counter("serving.replica.completed_requests", lbl)
                .add(stats.completedRequests);
            metrics->counter("serving.replica.aborted_batches", lbl)
                .add(stats.abortedBatches);
            metrics->counter("serving.replica.breaker_opens", lbl)
                .add(stats.breakerOpens);
            metrics->gauge("serving.replica.busy_seconds", lbl)
                .set(stats.busySeconds);
            metrics->gauge("serving.replica.availability", lbl)
                .set(stats.availability);
        }
        if (clusterView) {
            for (std::size_t d = 0;
                 d < cluster.domainAvailability.size(); ++d) {
                metrics
                    ->gauge("serving.domain.availability",
                            telemetry::Labels{
                                {"domain", std::to_string(d)}})
                    .set(cluster.domainAvailability[d]);
            }
        }
    }

    return cluster;
}

} // namespace

ServingReport
simulateServing(const ServingConfig& cfg,
                const BatchLatencySurface& surface,
                const ResilienceConfig& resilience,
                const telemetry::Telemetry* telemetry)
{
    surface.validate();
    cfg.validate();
    // The replica's model goes unused: a pool run prices by `surface`.
    ClusterConfig pool = singlePoolCluster(cfg, LatencyModel{});
    pool.resilience = resilience;
    const PoolRun run{surface, cfg.continuousBatching};
    return runEngine(pool, &run, telemetry).serving;
}

ClusterReport
simulateCluster(const ClusterConfig& cfg,
                const telemetry::Telemetry* telemetry)
{
    return runEngine(cfg, nullptr, telemetry);
}

} // namespace mmgen::serving
