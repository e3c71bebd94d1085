#include "runtime/executor.h"

#include "runtime/executor_service.h"
#include "support/fault.h"

namespace hdcps {

RunResult
run(Scheduler &sched, const std::vector<Task> &initial,
    const ProcessFn &process, const RunOptions &options)
{
    ServiceOptions serviceOptions;
    static_cast<RunOptions &>(serviceOptions) = options;
    ExecutorService service(sched, serviceOptions);

    JobSpec spec;
    spec.name = "run";
    spec.initial = initial;
    spec.process = [&process](unsigned tid, const Task &task,
                              std::vector<Task> &children) {
        // Fault drill: stand-in for a ProcessFn that throws.
        if (faultFires(faultsite::ExecProcessThrow)) {
            throw FaultInjectedError(
                "injected ProcessFn failure (exec.process.throw)");
        }
        process(tid, task, children);
    };
    JobHandle job = service.submit(std::move(spec));
    // Shutting down right away runs the job to its end, and the workers
    // leave as soon as it is done instead of going to sleep first.
    service.shutdown();
    return job.report();
}

} // namespace hdcps
