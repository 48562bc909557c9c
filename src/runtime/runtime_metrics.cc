#include "runtime/runtime_metrics.hh"

#include <sstream>

#include "util/format.hh"
#include "util/table.hh"

namespace mmgen::runtime {

void
publishProfileCacheMetrics(telemetry::MetricsRegistry& registry,
                           const ProfileCacheStats& stats)
{
    registry.counter("runtime.profile_cache.hits").add(stats.hits);
    registry.counter("runtime.profile_cache.misses")
        .add(stats.misses);
    registry.counter("runtime.profile_cache.evictions")
        .add(stats.evictions);
    registry.counter("runtime.profile_cache.entries")
        .add(stats.entries);
    registry.gauge("runtime.profile_cache.hit_rate")
        .set(stats.hitRate());
    registry.counter("runtime.profile_cache.disk_hits")
        .add(stats.diskHits);
    registry.counter("runtime.profile_cache.disk_misses")
        .add(stats.diskMisses);
    registry.counter("runtime.profile_cache.disk_writes")
        .add(stats.diskWrites);
    registry.counter("runtime.profile_cache.disk_corrupt")
        .add(stats.diskCorrupt);
}

void
publishPoolMetrics(telemetry::MetricsRegistry& registry,
                   const PoolStats& stats, int threads)
{
    registry.counter("runtime.pool.tasks_executed")
        .add(stats.tasksExecuted);
    registry.counter("runtime.pool.loops_run").add(stats.loopsRun);
    registry.counter("runtime.pool.indices_executed")
        .add(stats.indicesExecuted);
    registry.gauge("runtime.pool.threads")
        .set(static_cast<double>(threads));
}

void
publishPlanCacheMetrics(telemetry::MetricsRegistry& registry,
                        const SingleFlightStats& stats)
{
    registry.counter("runtime.plan_cache.hits").add(stats.hits);
    registry.counter("runtime.plan_cache.misses").add(stats.misses);
    registry.counter("runtime.plan_cache.evictions")
        .add(stats.evictions);
    registry.counter("runtime.plan_cache.entries").add(stats.entries);
    registry.gauge("runtime.plan_cache.hit_rate")
        .set(stats.hitRate());
}

void
publishRuntimeMetrics(telemetry::MetricsRegistry& registry)
{
    publishProfileCacheMetrics(registry,
                               ProfileCache::global().stats());
    publishPlanCacheMetrics(registry, planCacheStats());
    ThreadPool& pool = ThreadPool::global();
    publishPoolMetrics(registry, pool.stats(), pool.threads());
}

std::string
runtimeStatsTable()
{
    const ProfileCacheStats cache = ProfileCache::global().stats();
    ThreadPool& pool = ThreadPool::global();
    const PoolStats ps = pool.stats();

    TextTable table({"Counter", "Value"});
    table.addRow({"pool threads", std::to_string(pool.threads())});
    table.addRow({"pool tasks executed",
                  std::to_string(ps.tasksExecuted)});
    table.addRow({"pool parallel loops",
                  std::to_string(ps.loopsRun)});
    table.addRow({"pool indices executed",
                  std::to_string(ps.indicesExecuted)});
    table.addRow({"profile-cache lookups",
                  std::to_string(cache.lookups())});
    table.addRow({"profile-cache hits", std::to_string(cache.hits)});
    table.addRow({"profile-cache misses",
                  std::to_string(cache.misses)});
    table.addRow({"profile-cache evictions",
                  std::to_string(cache.evictions)});
    table.addRow({"profile-cache entries",
                  std::to_string(cache.entries)});
    table.addRow({"profile-cache hit rate",
                  formatPercent(cache.hitRate())});
    table.addRow({"profile-cache disk hits",
                  std::to_string(cache.diskHits)});
    table.addRow({"profile-cache disk misses",
                  std::to_string(cache.diskMisses)});
    table.addRow({"profile-cache disk writes",
                  std::to_string(cache.diskWrites)});
    table.addRow({"profile-cache disk corrupt",
                  std::to_string(cache.diskCorrupt)});

    const SingleFlightStats plans = planCacheStats();
    table.addRow({"plan-cache lookups",
                  std::to_string(plans.lookups())});
    table.addRow({"plan-cache hits", std::to_string(plans.hits)});
    table.addRow({"plan-cache misses", std::to_string(plans.misses)});
    table.addRow({"plan-cache entries",
                  std::to_string(plans.entries)});
    table.addRow({"plan-cache hit rate",
                  formatPercent(plans.hitRate())});

    std::ostringstream out;
    out << table.render();
    return out.str();
}

} // namespace mmgen::runtime
