#include "thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "util/logging.hh"

namespace mmgen::runtime {

namespace {

/** Set while the current thread is inside a pool worker loop. */
thread_local bool inside_worker = false;

/**
 * One index-space loop shared between the caller and the workers.
 * Indices self-schedule from `next`; `done` counts completions so the
 * caller can wait for the stragglers it did not claim itself.
 */
struct IndexJob
{
    std::int64_t n = 0;
    const std::function<void(std::int64_t)>* fn = nullptr;
    std::atomic<std::int64_t> next{0};
    std::atomic<std::int64_t> done{0};

    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;
    std::int64_t errorIndex = 0;

    /** Claim and run indices until the cursor runs dry. */
    void
    run()
    {
        for (;;) {
            const std::int64_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                (*fn)(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mu);
                if (!error || i < errorIndex) {
                    error = std::current_exception();
                    errorIndex = i;
                }
            }
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                n) {
                const std::lock_guard<std::mutex> lock(mu);
                cv.notify_all();
            }
        }
    }
};

} // namespace

ThreadPool::ThreadPool(int threads)
{
    MMGEN_CHECK(threads >= 1, "thread pool needs >= 1 thread, got "
                                  << threads);
    numThreads = threads;
    // One lane per extra execution context; a 1-thread pool is purely
    // inline and spawns nothing.
    const int spawned = threads - 1;
    lanes.reserve(static_cast<std::size_t>(spawned));
    for (int i = 0; i < spawned; ++i)
        lanes.push_back(std::make_unique<Lane>());
    workers.reserve(static_cast<std::size_t>(spawned));
    for (int i = 0; i < spawned; ++i)
        workers.emplace_back(
            [this, i] { workerLoop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool()
{
    {
        const std::lock_guard<std::mutex> lock(sleepMu);
        stopping = true;
    }
    sleepCv.notify_all();
    for (std::thread& w : workers)
        w.join();
}

void
ThreadPool::submit(Task task)
{
    MMGEN_CHECK(static_cast<bool>(task), "cannot submit empty task");
    // Counted on submission: every submitted task runs exactly once,
    // and a forEach helper may still be queued when its loop returns.
    statTasksExecuted.fetch_add(1, std::memory_order_relaxed);
    if (workers.empty()) {
        // Inline pool: run immediately on the caller.
        task();
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(sleepMu);
        Lane& lane = *lanes[nextLane];
        nextLane = (nextLane + 1) % lanes.size();
        const std::lock_guard<std::mutex> laneLock(lane.mu);
        lane.tasks.push_back(std::move(task));
        ++pending;
    }
    sleepCv.notify_one();
}

bool
ThreadPool::tryPop(std::size_t lane_idx, Task& out)
{
    Lane& lane = *lanes[lane_idx];
    const std::lock_guard<std::mutex> lock(lane.mu);
    if (lane.tasks.empty())
        return false;
    out = std::move(lane.tasks.front());
    lane.tasks.pop_front();
    return true;
}

bool
ThreadPool::trySteal(std::size_t self, Task& out)
{
    for (std::size_t k = 1; k < lanes.size(); ++k) {
        const std::size_t victim = (self + k) % lanes.size();
        Lane& lane = *lanes[victim];
        const std::lock_guard<std::mutex> lock(lane.mu);
        if (lane.tasks.empty())
            continue;
        out = std::move(lane.tasks.back());
        lane.tasks.pop_back();
        statTasksStolen.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    inside_worker = true;
    for (;;) {
        Task task;
        if (tryPop(self, task) || trySteal(self, task)) {
            {
                const std::lock_guard<std::mutex> lock(sleepMu);
                --pending;
            }
            task();
            continue;
        }
        std::unique_lock<std::mutex> lock(sleepMu);
        if (stopping && pending == 0)
            return;
        sleepCv.wait(lock,
                     [this] { return stopping || pending > 0; });
        if (stopping && pending == 0)
            return;
    }
}

bool
ThreadPool::onWorkerThread()
{
    return inside_worker;
}

PoolStats
ThreadPool::stats() const
{
    PoolStats s;
    s.tasksExecuted =
        statTasksExecuted.load(std::memory_order_relaxed);
    s.tasksStolen = statTasksStolen.load(std::memory_order_relaxed);
    s.loopsRun = statLoopsRun.load(std::memory_order_relaxed);
    s.indicesExecuted =
        statIndicesExecuted.load(std::memory_order_relaxed);
    return s;
}

void
ThreadPool::forEach(std::int64_t n,
                    const std::function<void(std::int64_t)>& fn)
{
    if (n <= 0)
        return;
    statLoopsRun.fetch_add(1, std::memory_order_relaxed);
    statIndicesExecuted.fetch_add(n, std::memory_order_relaxed);
    // Serial pool, single item, or a nested call from inside a worker
    // (which must not block on its own pool): run inline. Results are
    // identical by construction — every path executes fn(i) for each
    // index exactly once.
    if (numThreads <= 1 || n == 1 || onWorkerThread()) {
        for (std::int64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    const auto job = std::make_shared<IndexJob>();
    job->n = n;
    job->fn = &fn;
    const std::int64_t helpers = std::min<std::int64_t>(
        static_cast<std::int64_t>(workers.size()), n - 1);
    for (std::int64_t h = 0; h < helpers; ++h)
        submit([job] { job->run(); });
    job->run(); // the caller claims indices too

    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] {
        return job->done.load(std::memory_order_acquire) == job->n;
    });
    if (job->error)
        std::rethrow_exception(job->error);
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;   // guarded by g_pool_mu
int g_requested_jobs = 0;             // guarded by g_pool_mu; 0 = auto

} // namespace

int
ThreadPool::resolveJobs(int requested)
{
    int jobs = requested;
    if (jobs <= 0) {
        if (const char* env = std::getenv("MMGEN_JOBS")) {
            try {
                jobs = std::stoi(env);
            } catch (const std::logic_error&) {
                jobs = 0;
            }
            MMGEN_CHECK(jobs >= 1,
                        "MMGEN_JOBS must be a positive integer, got '"
                            << env << "'");
        }
    }
    if (jobs <= 0)
        jobs = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(jobs, 1, 256);
}

ThreadPool&
ThreadPool::global()
{
    const std::lock_guard<std::mutex> lock(g_pool_mu);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(
            resolveJobs(g_requested_jobs));
    return *g_pool;
}

void
ThreadPool::setGlobalJobs(int jobs)
{
    MMGEN_CHECK(jobs >= 0, "--jobs must be >= 0 (0 = auto), got "
                               << jobs);
    const std::lock_guard<std::mutex> lock(g_pool_mu);
    g_requested_jobs = jobs;
    if (g_pool && g_pool->threads() != resolveJobs(jobs))
        g_pool.reset(); // rebuilt lazily at the next global() call
}

} // namespace mmgen::runtime
