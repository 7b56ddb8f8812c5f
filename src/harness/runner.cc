#include "harness/runner.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "sim/gpu.hh"
#include "workloads/workload.hh"

namespace ltrf::harness
{

namespace
{

int
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

} // namespace

ExperimentRunner::ExperimentRunner(int jobs)
    : num_jobs(jobs > 0 ? jobs : defaultJobs())
{
}

ExperimentRunner::~ExperimentRunner()
{
    if (workers.empty())
        return;
    drain();
    {
        std::lock_guard<std::mutex> lk(pool_mu);
        stopping = true;
    }
    work_ready.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
ExperimentRunner::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(pool_mu);
            work_ready.wait(lk,
                            [&] { return stopping || !queue.empty(); });
            if (queue.empty())
                return;    // stopping with nothing left to steal
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lk(pool_mu);
            in_flight--;
            if (in_flight == 0)
                pool_idle.notify_all();
        }
    }
}

void
ExperimentRunner::submit(std::function<void()> task)
{
    // Inline with one job: single-threaded runs stay synchronous (a
    // task is finished when submit() returns), which is also what
    // makes `--jobs 1` the reference ordering the determinism guard
    // compares against.
    if (num_jobs <= 1) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lk(pool_mu);
        queue.push_back(std::move(task));
        in_flight++;
        queue_hwm = std::max(queue_hwm, queue.size());
        in_flight_hwm = std::max(in_flight_hwm, in_flight);
        // Lazy spawn under the lock: concurrent first submits must
        // not both see an empty pool (the new workers just block on
        // pool_mu until it is released below).
        if (workers.empty()) {
            workers.reserve(static_cast<std::size_t>(num_jobs));
            for (int t = 0; t < num_jobs; t++)
                workers.emplace_back([this] { workerLoop(); });
        }
    }
    work_ready.notify_one();
}

std::size_t
ExperimentRunner::queueHighWater()
{
    std::lock_guard<std::mutex> lk(pool_mu);
    return queue_hwm;
}

std::size_t
ExperimentRunner::inFlightHighWater()
{
    std::lock_guard<std::mutex> lk(pool_mu);
    return in_flight_hwm;
}

void
ExperimentRunner::drain()
{
    if (num_jobs <= 1)
        return;    // submit() already ran everything inline
    std::unique_lock<std::mutex> lk(pool_mu);
    pool_idle.wait(lk, [&] { return in_flight == 0; });
}

void
ExperimentRunner::runTasks(const std::vector<std::function<void()>> &tasks)
{
    for (const auto &t : tasks)
        submit(t);
    drain();
}

ResultSet
ExperimentRunner::run(const std::vector<SweepCell> &cells,
                      const SimConfig *baseline)
{
    // One baseline slot per distinct workload, submitted ahead of the
    // cells so the normalizing runs overlap with cell work.
    std::map<std::string, double> baseline_ipc;
    if (baseline) {
        for (const SweepCell &c : cells) {
            auto [it, fresh] = baseline_ipc.emplace(c.workload, 0.0);
            if (fresh)
                submit([baseline, &c, slot = &it->second] {
                    const Workload &w = WorkloadSuite::byName(c.workload);
                    *slot = simulate(*baseline, w.kernel, c.seed).ipc;
                });
        }
    }

    std::vector<SimResult> results(cells.size());
    for (std::size_t i = 0; i < cells.size(); i++)
        submit([&cells, &results, i] {
            const SweepCell &c = cells[i];
            const Workload &w = WorkloadSuite::byName(c.workload);
            results[i] = simulate(c.config, w.kernel, c.seed);
        });
    drain();

    ResultSet rs;
    for (std::size_t i = 0; i < cells.size(); i++) {
        ResultRow row;
        row.cell = cells[i];
        row.result = std::move(results[i]);
        if (baseline)
            row.baseline_ipc = baseline_ipc.at(cells[i].workload);
        rs.add(std::move(row));
    }
    return rs;
}

} // namespace ltrf::harness
