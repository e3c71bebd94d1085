/**
 * @file
 * The end-to-end benchmark: workloads, set-up, the closed client
 * loops, the answer check, and the metrics they report.
 *
 * Every answer is produced through the library's public calls only —
 * makePaperInput, makeWorkload/Workload::process, a freshly built
 * Scheduler driven by run(), or a job submitted to one long-lived
 * ExecutorService — by one client thread that blocks in run() or
 * JobHandle::wait(). Each answer's full distance vector is compared
 * with an oracle computed once during set-up, outside the clock.
 *
 * An untraced run (Options::trace false) measures the end-to-end
 * metrics with no metrics registry, no decorator and
 * RunOptions::recordBreakdown off. A traced run measures the per-layer
 * metrics: it interleaves plain, registry-only and fully traced
 * answers (see trace.h), then times reference designs on the same
 * sources. README.md in this directory gives the rationale.
 */

#ifndef HDCPS_E2E_BENCH_BENCH_H_
#define HDCPS_E2E_BENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algos/workload.h"
#include "graph/graph.h"

namespace e2e {

/** One workload's fixed shape; only the sources vary with the seed. */
struct WorkloadSpec
{
    const char *name;
    const char *kernel; ///< "sssp" or "bfs"
    const char *input;  ///< makePaperInput name
    unsigned scale;
    bool service;       ///< answers are ExecutorService jobs
};

/** The benchmark's workloads, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadSpec> &workloadSpecs();

/** The named workload, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** One query source with its oracle answer. */
struct Source
{
    hdcps::NodeId node = 0;
    std::vector<uint64_t> oracle; ///< sequential distances
    uint64_t seqTasks = 0;        ///< sequential tasks (work ratio base)
};

/** Everything set-up produces. Answers' workloads point into `graph`,
 *  so an Inputs object never moves. */
struct Inputs
{
    hdcps::Graph graph;
    std::vector<Source> sources;
    double genS = 0.0;             ///< graph generation time
    std::vector<double> oracleMs;  ///< every oracle run, kept or not
};

/**
 * Generate the graph (fixed seed: one map, many queries) and draw
 * `numSources` sources from `seed`, keeping a source only when it
 * reaches at least half the graph. Each kept source gets its oracle
 * distances and sequential task count.
 */
std::unique_ptr<Inputs> makeInputs(const WorkloadSpec &spec, uint64_t seed,
                                   size_t numSources);

/**
 * The answer check: true iff every node's label in `workload` (an
 * SSSP or BFS workload) equals `oracle`. On a mismatch, *whyNot
 * (optional) names the first differing node.
 */
bool labelsMatch(const hdcps::Workload &workload,
                 const std::vector<uint64_t> &oracle,
                 std::string *whyNot = nullptr);

/** Answers checked and answers that failed their check. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    count(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** Benchmark settings (the command line of hdcps_e2e). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;  ///< measured window
    bool trace = false;
    std::string traceOut;   ///< span file for a traced run ("" = none)
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Report
{
    Tally tally;
    std::vector<Metric> metrics;
    std::vector<std::string> notes; ///< context lines printed first

    bool correct() const { return tally.attempted > 0 && tally.failed == 0; }
};

/** Names and units of the untraced run's metrics, in report order. */
const std::vector<Metric> &endToEndMetrics();

/** Names and units of the traced run's metrics, in report order. */
const std::vector<Metric> &perLayerMetrics();

/** Run one workload as `options` says. */
Report runBenchmark(const Options &options);

} // namespace e2e

#endif // HDCPS_E2E_BENCH_BENCH_H_
