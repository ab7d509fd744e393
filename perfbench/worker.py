"""One `subsel` CLI job in a fresh interpreter, as a user's command runs.

Usage: python3 worker.py SRC_DIR TRACE(0|1) CLI_ARGS...

Imports `subsel.cli` from SRC_DIR, prints the line "ready", then runs
`subsel.cli.main(CLI_ARGS)` in the current directory, with one pass of
`calibrate.calibrate()` right before the job and one right after it, each
in a forked child.  Its last line of output is one JSON object: exit code,
the CPU time of the process up to "ready" (interpreter start and import),
the CPU time and wall time of the job after import, the CPU times of the
two calibration passes, peak resident memory of the process and, with
TRACE 1, the per-layer figures of `tracer.Tracer`.  The calibration and
the tracer come after "ready" and before the job's clocks start, so
neither set-up time nor job time includes them.
"""

import json
import os
import resource
import sys
import time
import traceback


def _calibrate_apart() -> float:
    """CPU time of one `calibrate.calibrate()` pass, run in a forked child.

    Next to the job, on the same CPU: passes timed in the benchmark's own
    process tracked the job's speed far worse (correlation 0.1-0.4 against
    0.6-0.8).  In a child, so that the pass's large temporary arrays leave
    this process's allocator and peak resident memory as the job alone
    would (run in this process, they raised the peak by up to 9 MB).
    """
    from calibrate import calibrate

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            os.write(write_fd, repr(calibrate()).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd) as fh:
            return float(fh.read())
    finally:
        os.waitpid(pid, 0)


def main() -> None:
    src_dir, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src_dir)
    import subsel.cli

    setup_s = time.process_time()
    print("ready", flush=True)
    calibration_s = [_calibrate_apart()]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer.install()
    error = None
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        code = subsel.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # reported to the benchmark, which counts the job as failed
        code, error = -1, traceback.format_exc()
    job_s = time.process_time() - cpu_start
    job_wall_s = time.perf_counter() - start
    calibration_s.append(_calibrate_apart())
    result = {
        "code": code,
        "error": error,
        "setup_s": setup_s,
        "job_s": job_s,
        "job_wall_s": job_wall_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.layer_metrics() if tracer else None,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
