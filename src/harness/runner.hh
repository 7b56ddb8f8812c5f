/**
 * @file
 * Multi-threaded experiment runner.
 *
 * Each (workload, config) cell of a sweep is an independent Gpu
 * instance, so the runner executes cells on a fixed-size pool of
 * std::threads. The pool has one feeding mode: submit() enqueues a
 * task on a persistent work-stealing queue and drain() waits until
 * every submitted task has finished. Idle workers steal the next
 * task the moment they finish their current one, so a straggler
 * never gates tasks submitted after it — the foundation of the DSE
 * engine's cell-level pipeline, where later candidates' cells run
 * while an earlier slow cell is still simulating. Callers that need
 * a specific task's output synchronize on their own completion
 * flags.
 *
 * run() and runTasks() are submit-then-drain wrappers for a fixed
 * task set. Every task writes a preassigned slot, so results come
 * back in sweep order and bit-identical for any job count — the
 * property the golden determinism tests (`--jobs 1` vs `--jobs 2`)
 * check. Given a baseline configuration, run() also simulates each
 * distinct workload's baseline as one more pool task and normalizes
 * every row against it.
 */

#ifndef LTRF_HARNESS_RUNNER_HH
#define LTRF_HARNESS_RUNNER_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/result_set.hh"
#include "harness/sweep.hh"

namespace ltrf::harness
{

class ExperimentRunner
{
  public:
    /**
     * @param jobs worker thread count; 0 picks the hardware
     *             concurrency, 1 runs inline without spawning.
     */
    explicit ExperimentRunner(int jobs = 0);

    /** Joins the streaming pool after finishing submitted work. */
    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    /**
     * Execute every cell of @p cells (in parallel up to the job
     * count) and collect results in cell order. If @p baseline is
     * non-null, each distinct workload is also simulated once under
     * that configuration (with the seed of its first cell) and every
     * row is normalized against its workload's baseline IPC.
     */
    ResultSet run(const std::vector<SweepCell> &cells,
                  const SimConfig *baseline = nullptr);

    /**
     * Run independent @p tasks on the pool and wait for them. For
     * harness work that is not a simulate() cell (compiler/trace
     * analyses); tasks must write their outputs to preassigned slots
     * so results are deterministic regardless of the job count.
     */
    void runTasks(const std::vector<std::function<void()>> &tasks);

    /**
     * Enqueue @p task on the streaming pool and return immediately.
     * The pool's workers (spawned lazily on the first submit) pull
     * tasks in submission order, but completion order is whatever
     * the hardware gives — the task must publish its output through
     * its own synchronization. With 1 job the task runs inline
     * before submit() returns, which keeps single-threaded runs
     * deterministic and debuggable.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void drain();

    int jobs() const { return num_jobs; }

    /**
     * Pool observability: the deepest the shared queue ever got, and
     * the most tasks ever queued + running at once. Both stay 0 with
     * 1 job, where submit() runs each task inline.
     */
    std::size_t queueHighWater();
    std::size_t inFlightHighWater();

  private:
    void workerLoop();

    int num_jobs;

    // Pool state. The queue is deliberately simple: one
    // mutex-guarded deque all workers steal from. Simulation cells
    // run for milliseconds to seconds, so queue contention is noise,
    // and a single queue keeps submission order = start order, which
    // makes the pipeline's admission-order commits easy to reason
    // about.
    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex pool_mu;
    std::condition_variable work_ready;
    std::condition_variable pool_idle;
    std::size_t in_flight = 0;    ///< queued + running tasks
    bool stopping = false;
    std::size_t queue_hwm = 0;    ///< max queue depth observed
    std::size_t in_flight_hwm = 0;///< max in_flight observed
};

} // namespace ltrf::harness

#endif // LTRF_HARNESS_RUNNER_HH
