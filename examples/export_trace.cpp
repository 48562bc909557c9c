/**
 * @file
 * Export a simulated inference timeline as a Chrome/Perfetto trace.
 *
 * Profiles Stable Diffusion, schedules the plan the profile priced,
 * and writes its per-kernel timeline to sd_trace.json, viewable at chrome://tracing or ui.perfetto.dev —
 * the same workflow the paper uses with PyTorch Profiler on real
 * hardware (Section III, "Tools").
 */

#include <fstream>
#include <iostream>

#include "models/stable_diffusion.hh"
#include "profiler/chrome_trace.hh"
#include "runtime/profile_cache.hh"
#include "util/format.hh"

int
main(int argc, char** argv)
{
    using namespace mmgen;

    const std::string path = argc > 1 ? argv[1] : "sd_trace.json";

    profiler::ProfileOptions opts;
    opts.backend = graph::AttentionBackend::Flash;
    const graph::Pipeline pipeline = models::buildStableDiffusion();
    const profiler::ProfileResult res =
        *runtime::cachedProfile(pipeline, opts);
    // The aggregates come from the profile; the per-kernel timeline
    // from the plan it priced, scheduled again.
    const auto plan = runtime::cachedPlan(pipeline, opts);
    const exec::Timeline timeline =
        exec::TimelineScheduler(opts.gpu, opts.schedule).schedule(*plan);

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }
    profiler::writeChromeTrace(out, *plan, timeline);
    std::cout << "Wrote " << plan->ops.size()
              << " operator records covering "
              << formatTime(res.totalSeconds)
              << " of simulated inference to " << path << "\n";
    std::cout << "Open chrome://tracing or https://ui.perfetto.dev and "
                 "load the file.\n";
    return 0;
}
