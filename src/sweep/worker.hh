/**
 * @file
 * Sweep work-server worker process (`sdv_sweep --worker`): connects to
 * the daemon's socket, announces itself, and executes UnitRequest
 * frames until the connection closes. A unit is decoded, its plan,
 * program and snapshot set are looked up (memoized per worker), and it
 * runs through captureSnapshots() or runUnit() (src/sweep/unit.hh) —
 * the functions the in-process executor calls, so served and serial
 * sweeps cannot drift apart.
 */

#ifndef SDV_SWEEP_WORKER_HH
#define SDV_SWEEP_WORKER_HH

#include <string>

#include <sys/types.h>

namespace sdv {
namespace sweep {

/** Run the worker loop against the daemon at @p socketPath.
 *  @return process exit code (0 on orderly shutdown). */
int workerMain(const std::string &socketPath);

/** fork+exec @p exe as `--worker --socket @p socketPath`.
 *  fork+exec (not plain fork): the server is threaded by the time it
 *  spawns replacements, and a forked child could inherit a held
 *  malloc lock — exec resets the world. @return child pid, or -1. */
pid_t spawnWorkerProcess(const std::string &exe,
                         const std::string &socketPath);

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_WORKER_HH
