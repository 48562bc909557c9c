/**
 * @file
 * Runtime-layer observability: publish the global ProfileCache and
 * ThreadPool counters into a telemetry::MetricsRegistry, and render
 * them as the `mmgen stats` summary table.
 *
 * Cache counters (hits / misses / evictions) are schedule-independent
 * thanks to the single-flight cache, so they land in deterministic
 * exports safely. Steal counts depend on thread timing and are
 * surfaced for tuning only — keep them out of any artifact that must
 * be byte-identical across `--jobs` values.
 */

#ifndef MMGEN_RUNTIME_RUNTIME_METRICS_HH
#define MMGEN_RUNTIME_RUNTIME_METRICS_HH

#include <string>

#include "runtime/profile_cache.hh"
#include "runtime/thread_pool.hh"
#include "telemetry/metrics.hh"

namespace mmgen::runtime {

/**
 * Record cache-effectiveness counters into `registry`:
 * `runtime.profile_cache.{hits,misses,evictions,entries}` counters,
 * the `runtime.profile_cache.hit_rate` gauge, and the disk-tier
 * `runtime.profile_cache.disk_{hits,misses,writes,corrupt}` counters
 * (zero when no disk tier is attached).
 */
void publishProfileCacheMetrics(telemetry::MetricsRegistry& registry,
                                const ProfileCacheStats& stats);

/**
 * Record lowered-plan cache counters into `registry`:
 * `runtime.plan_cache.{hits,misses,evictions,entries}` counters plus
 * the `runtime.plan_cache.hit_rate` gauge.
 */
void publishPlanCacheMetrics(telemetry::MetricsRegistry& registry,
                             const SingleFlightStats& stats);

/**
 * Record pool scheduling counters into `registry`:
 * `runtime.pool.{tasks_executed,loops_run,indices_executed}` counters
 * plus the `runtime.pool.threads` gauge. The timing-dependent
 * `PoolStats::tasksStolen` is left out, so the export is
 * deterministic.
 */
void publishPoolMetrics(telemetry::MetricsRegistry& registry,
                        const PoolStats& stats, int threads);

/** Both of the above, reading the process-global cache and pool. */
void publishRuntimeMetrics(telemetry::MetricsRegistry& registry);

/**
 * Human-readable run summary of the global cache + pool counters —
 * the body of `mmgen stats`.
 */
std::string runtimeStatsTable();

} // namespace mmgen::runtime

#endif // MMGEN_RUNTIME_RUNTIME_METRICS_HH
