/**
 * @file
 * Work-stealing thread pool with a deterministic parallel-for.
 *
 * The characterization sweeps profile the same model zoo under dozens
 * of (backend, image size, serving rate) configurations; every point
 * is independent, so the harness runs them data-parallel. Two
 * properties are non-negotiable for this repo (see
 * `docs/architecture.md`, "Determinism is non-negotiable"):
 *
 * 1. **Bit-identical output at any thread count.** `forEach(n, fn)`
 *    executes `fn(i)` for every index exactly once and callers store
 *    results by index, so nothing depends on completion order. Any
 *    stochastic task must derive its generator from the task index
 *    (`Rng::stream(seed, i)` — see `parallel.hh`'s
 *    `parallelMapSeeded`), never from a shared stream.
 * 2. **Jobs = 1 means inline.** A one-thread pool spawns no workers
 *    and runs everything on the calling thread, so the serial path is
 *    exactly the pre-runtime harness.
 *
 * Scheduling: each worker owns a deque; `submit` distributes tasks
 * round-robin, owners pop LIFO from the front, and idle workers steal
 * FIFO from the back of a victim's deque. Index loops additionally
 * self-schedule from a shared atomic cursor (stealing at granularity
 * one), and the submitting thread helps execute, so a loop can never
 * deadlock waiting for a saturated pool.
 */

#ifndef MMGEN_RUNTIME_THREAD_POOL_HH
#define MMGEN_RUNTIME_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mmgen::runtime {

/**
 * Scheduling counters accumulated over a pool's lifetime. Totals for
 * work done (`tasksExecuted`, `indicesExecuted`, `loopsRun`) are
 * schedule-independent: each is counted when the work is handed to
 * the pool, so a read right after `forEach` returns is exact even
 * while one of its helper tasks is still queued. `tasksStolen`
 * depends on thread timing and is kept for debugging only — never
 * fold it into a deterministic artifact (the `mmgen stats` table and
 * the runtime metrics export leave it out).
 */
struct PoolStats
{
    /**
     * Tasks submitted (plain submits + forEach helpers), counted on
     * submission; each runs exactly once.
     */
    std::int64_t tasksExecuted = 0;
    /** Tasks claimed from another lane's deque. */
    std::int64_t tasksStolen = 0;
    /** forEach calls that ran at least one index. */
    std::int64_t loopsRun = 0;
    /** Total indices executed across every forEach. */
    std::int64_t indicesExecuted = 0;
};

/**
 * Fixed-size work-stealing pool.
 */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** Create a pool of `threads` (>= 1) execution lanes. */
    explicit ThreadPool(int threads);

    /** Joins all workers; outstanding tasks finish first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Execution lanes, counting the helping caller (>= 1). */
    int threads() const { return numThreads; }

    /** Enqueue one fire-and-forget task. */
    void submit(Task task);

    /**
     * Run `fn(0) ... fn(n-1)`, each exactly once, and block until all
     * complete. The calling thread helps execute. If any invocation
     * throws, the exception of the *lowest* throwing index is
     * rethrown after every index has run, so failure behaviour is
     * deterministic too. Nested calls from inside a worker run the
     * whole loop inline.
     */
    void forEach(std::int64_t n,
                 const std::function<void(std::int64_t)>& fn);

    /** Snapshot of the scheduling counters (see PoolStats). */
    PoolStats stats() const;

    /** True when called from one of this process's pool workers. */
    static bool onWorkerThread();

    /**
     * The process-wide pool, created on first use with
     * `resolveJobs(0)` lanes (i.e. `MMGEN_JOBS` or hardware
     * concurrency).
     */
    static ThreadPool& global();

    /**
     * Set the global pool size (0 = auto). If the pool already exists
     * at a different size it is torn down and rebuilt; callers must
     * not invoke this while parallel work is in flight.
     */
    static void setGlobalJobs(int jobs);

    /**
     * Resolve a requested job count: a positive request wins, else
     * the `MMGEN_JOBS` environment variable, else
     * `std::thread::hardware_concurrency()`, clamped to [1, 256].
     */
    static int resolveJobs(int requested);

  private:
    /** One worker's deque; owner pops front, thieves take the back. */
    struct Lane
    {
        std::mutex mu;
        std::deque<Task> tasks;
    };

    void workerLoop(std::size_t self);
    bool tryPop(std::size_t lane, Task& out);
    bool trySteal(std::size_t self, Task& out);

    int numThreads = 1;
    std::vector<std::unique_ptr<Lane>> lanes;
    std::vector<std::thread> workers;

    std::atomic<std::int64_t> statTasksExecuted{0};
    std::atomic<std::int64_t> statTasksStolen{0};
    std::atomic<std::int64_t> statLoopsRun{0};
    std::atomic<std::int64_t> statIndicesExecuted{0};

    std::mutex sleepMu;
    std::condition_variable sleepCv;
    /** Queued-but-unclaimed task count (under sleepMu for the cv). */
    std::int64_t pending = 0;
    bool stopping = false;
    /** Round-robin cursor for submit (under sleepMu). */
    std::size_t nextLane = 0;
};

} // namespace mmgen::runtime

#endif // MMGEN_RUNTIME_THREAD_POOL_HH
