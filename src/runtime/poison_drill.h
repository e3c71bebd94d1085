/**
 * @file
 * The `svc.task.poison` drill as a ProcessFn decorator, so the service
 * itself carries no drill state: tests, the soak and hdcps_cli job
 * streams wrap their jobs, and the service sees an ordinary throwing
 * task that retries, then fails its job or dead-letters.
 */

#ifndef HDCPS_RUNTIME_POISON_DRILL_H_
#define HDCPS_RUNTIME_POISON_DRILL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "runtime/executor.h"
#include "support/fault.h"

namespace hdcps {

/**
 * Wrap one job's ProcessFn. Only pristine first incarnations (raw
 * attempt word 0: first try and demote stamp 0) consult the site, so
 * which tasks are poisoned under a fixed seed does not depend on retry
 * or demotion interleaving. A fire marks the task's (node, data) key
 * in this wrapper; every attempt of a marked task then throws
 * FaultInjectedError instead of running `inner`.
 */
inline ProcessFn
withPoisonDrill(ProcessFn inner)
{
    struct Marks
    {
        /** Per-task skip until the first mark; the release store
         *  pairs with the acquire load so a retry popped on another
         *  worker sees its key. */
        std::atomic<bool> any{false};
        std::mutex mutex;
        std::unordered_set<uint64_t> keys;
    };
    auto marks = std::make_shared<Marks>();
    return [inner = std::move(inner), marks](unsigned tid,
                                             const Task &task,
                                             std::vector<Task> &children) {
        const uint64_t key = (uint64_t(task.node) << 32) | task.data;
        if (task.attempt == 0 && faultFires(faultsite::SvcTaskPoison)) {
            std::lock_guard<std::mutex> lock(marks->mutex);
            marks->keys.insert(key);
            marks->any.store(true, std::memory_order_release);
        }
        if (marks->any.load(std::memory_order_acquire)) {
            std::lock_guard<std::mutex> lock(marks->mutex);
            if (marks->keys.count(key) != 0) {
                throw FaultInjectedError(
                    "injected poison task (svc.task.poison)");
            }
        }
        inner(tid, task, children);
    };
}

} // namespace hdcps

#endif // HDCPS_RUNTIME_POISON_DRILL_H_
