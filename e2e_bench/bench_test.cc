/**
 * @file
 * The benchmark's own C++ tests: the answer check (a wrong distance
 * vector must count as failed) and set-up determinism. Metric names,
 * units and a smoke pass of every workload are checked through run.py
 * by test_bench.py.
 *
 *   e2e_bench_test          # exits non-zero on the first failed check
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "algos/relaxation.h"
#include "bench.h"
#include "core/hdcps.h"
#include "runtime/executor.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                     \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::cerr << __FILE__ << ":" << __LINE__                     \
                      << ": expected " #cond "\n";                       \
            ++failures;                                                  \
        }                                                                \
    } while (0)

/** A correct answer passes; a wrong vector, or a wrong oracle, fails
 *  and is counted as failed. */
void
testWrongDistancesFail()
{
    const e2e::WorkloadSpec spec{"tiny", "sssp", "usa", 1, false};
    auto in = e2e::makeInputs(spec, 7, 2);
    e2e::Source &src = in->sources[0];
    auto work = hdcps::makeWorkload(spec.kernel, in->graph, src.node);
    hdcps::Workload &w = *work;

    auto solve = [&](const hdcps::ProcessFn &process) {
        w.reset();
        hdcps::HdCpsScheduler sched(2, hdcps::HdCpsScheduler::configSw());
        hdcps::RunOptions options;
        options.numThreads = 2;
        return hdcps::run(sched, w.initialTasks(), process, options);
    };

    e2e::Tally tally;
    EXPECT(solve(hdcps::workloadProcessFn(w)).ok());
    bool ok = e2e::labelsMatch(w, src.oracle);
    EXPECT(ok);
    tally.count(ok);

    // A design that loses every task of one node leaves its subtree
    // with wrong labels.
    const hdcps::NodeId lost = src.node;
    auto lossy = [&w, lost](unsigned, const hdcps::Task &task,
                            std::vector<hdcps::Task> &children) {
        w.process(task, children);
        if (task.node == lost)
            children.clear();
    };
    EXPECT(solve(lossy).ok());
    std::string why;
    ok = e2e::labelsMatch(w, src.oracle, &why);
    EXPECT(!ok);
    EXPECT(why.find("expected") != std::string::npos);
    tally.count(ok);

    // A right answer against a wrong oracle fails too.
    EXPECT(solve(hdcps::workloadProcessFn(w)).ok());
    std::vector<uint64_t> wrong = src.oracle;
    wrong.back() += 1;
    ok = e2e::labelsMatch(w, wrong);
    EXPECT(!ok);
    tally.count(ok);
    wrong.pop_back();
    EXPECT(!e2e::labelsMatch(w, wrong));

    EXPECT(tally.attempted == 3);
    EXPECT(tally.failed == 2);
    e2e::Report report;
    report.tally = tally;
    EXPECT(!report.correct());
}

void
testInputsFollowSeed()
{
    const e2e::WorkloadSpec spec{"tiny", "bfs", "cage", 1, false};
    auto a = e2e::makeInputs(spec, 3, 4);
    auto b = e2e::makeInputs(spec, 3, 4);
    auto c = e2e::makeInputs(spec, 4, 4);
    EXPECT(a->sources.size() == 4);
    std::vector<hdcps::NodeId> na, nb, nc;
    for (size_t i = 0; i < 4; ++i) {
        na.push_back(a->sources[i].node);
        nb.push_back(b->sources[i].node);
        nc.push_back(c->sources[i].node);
        size_t reached = 0;
        for (uint64_t d : a->sources[i].oracle)
            reached += d != hdcps::unreachableDist;
        EXPECT(2 * reached >= a->graph.numNodes());
        EXPECT(a->sources[i].seqTasks > 0);
    }
    EXPECT(na == nb);
    EXPECT(na != nc);
}

} // namespace

int
main()
{
    testWrongDistancesFail();
    testInputsFollowSeed();
    if (failures) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "e2e_bench_test: all checks passed\n";
    return 0;
}
