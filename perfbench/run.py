"""Benchmark of `subsel` selection jobs, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's inputs from the seed (see workloads.py), then runs its
`subsel` CLI job closed-loop, one job at a time, each in a fresh process
(worker.py), until S seconds have passed and at least three jobs ran.
Every job's artifacts are checked, and must hash the same as the first
job's.  The last line of output is one JSON object:

    {"correct": ..., "attempted": jobs, "failed": jobs, "metrics": {...}}

With --trace 0 the metrics are the `end_to_end` ones of BENCHMARK.json:
the medians over the run's jobs of `job_s` (a job's time after import),
`setup_s` (a fresh interpreter starting and importing `subsel.cli`) and
`peak_rss_mb` (of the job's process), and the design-quality figures of
the workload, which repeat exactly for a seed.

`job_s` and `setup_s` are CPU times of the job's process, in seconds at a
fixed reference speed of the machine.  The job runs on one thread (BLAS is
pinned to one), so on an idle machine its CPU time is its wall time; unlike
wall time, CPU time leaves out the time the process waits for a CPU while
other work runs, on this guest or, as steal time, on the host.  Each job's
CPU times are multiplied by CALIBRATION_REF_S over the mean CPU time of two
passes of a fixed loop (calibrate.py) that the worker runs right before
the job and right after it.  The host is shared and its speed drifts by up to
a factor of two over minutes; the scaled times cancel that drift and still
move in proportion to the work the program does.  The unscaled medians are
printed too, as `job_s.cpu`, `job_s.wall`, `setup_s.cpu`, `setup_s.wall`
and `calibration_s`.

With --trace 1, untraced and traced jobs alternate; the metrics are the
`per_layer` ones, medians over the traced jobs (wall times, not scaled),
plus `trace.overhead_s`, the median scaled traced job time minus the
median scaled untraced one.  Lines before the last one give the
environment, the input files and each metric with its sample count and
spread.

BLAS is pinned to one thread in every process.  The program's `--threads`
option is never passed: it is validated but changes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
# Pinned before numpy is first imported, here and in every worker process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from calibrate import CALIBRATION_REF_S  # noqa: E402  (after the BLAS pin)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_JOBS = 3
START_LIMIT_S = 120.0  # no job starts later than this after the run began
END_LIMIT_S = 170.0  # a job still running at this time is killed, so a run ends within 180 s
COUNT_SUFFIXES = ("calls", "rows", "newton_iters", "unconverged", "failed", "steps", "iters")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _artifacts(out: Path) -> dict[str, tuple[int, str]]:
    return {
        str(p.relative_to(out)): (p.stat().st_size, _sha256(p))
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
    }


class Runner:
    """Runs one workload's job repeatedly in fresh worker processes and checks each."""

    def __init__(self, job, work: Path, deadline: float):
        self.job = job
        self.work = work
        self.deadline = deadline
        self.out = work / "out"
        self.reference: dict | None = None
        self.reference_counts: dict | None = None
        self.quality: dict | None = None

    def run(self, trace: bool) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), "1" if trace else "0", *self.job.argv]
        started = time.perf_counter()
        # A session of its own, so that killing it also kills a calibration
        # pass the worker may have forked.
        proc = subprocess.Popen(
            cmd, cwd=self.work, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            ready = proc.stdout.readline()
            setup_wall_s = time.perf_counter() - started
            stdout, stderr = proc.communicate(timeout=max(0.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return {"problems": ["job still running at the end of the run's time"], "trace": trace}
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        lines = stdout.strip().splitlines()
        if ready.strip() != "ready" or proc.returncode != 0 or not lines:
            return {"problems": [f"worker exit {proc.returncode}: {stderr.strip()[-2000:]}"],
                    "trace": trace}
        result = json.loads(lines[-1])
        result.update(setup_wall_s=setup_wall_s, trace=trace, problems=[])
        if result["code"] != 0:
            result["problems"].append(f"exit code {result['code']}: {result['error'] or stderr.strip()}")
            return result
        self._check(result)
        return result

    def _check(self, result: dict) -> None:
        problems = result["problems"]
        try:
            problems += self.job.check(self.out)
            if self.quality is None and not problems:
                self.quality = self.job.quality(self.out)
        except (OSError, KeyError, ValueError, TypeError, IndexError, ArithmeticError) as exc:
            problems.append(f"output check raised {type(exc).__name__}: {exc}")
        artifacts = _artifacts(self.out)
        result["out_bytes"] = sum(size for size, _ in artifacts.values())
        if self.reference is None:
            self.reference = artifacts
        elif artifacts != self.reference:
            changed = sorted(set(artifacts.items()) ^ set(self.reference.items()))
            problems.append(f"artifacts differ from the first job: {[name for name, _ in changed]}")
        if result["layers"] is not None:
            counts = {k: v for k, v in result["layers"].items() if k.rsplit(".", 1)[1] in COUNT_SUFFIXES}
            if self.reference_counts is None:
                self.reference_counts = counts
            elif counts != self.reference_counts:
                problems.append("per-layer counts differ between traced jobs")


def _scaled(result: dict, key: str) -> float:
    """A CPU time of `result`'s job in seconds at the reference speed (calibrate.py)."""
    return result[key] * CALIBRATION_REF_S / statistics.fmean(result["calibration_s"])


def _samples(ok: list[dict], quality: dict | None) -> dict[str, list[float]]:
    """Every metric's values over the jobs that passed their checks."""
    plain = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    samples: dict[str, list[float]] = {}
    if plain:
        for key, wall_key in (("job_s", "job_wall_s"), ("setup_s", "setup_wall_s")):
            samples[key] = [_scaled(r, key) for r in plain]
            samples[key + ".cpu"] = [r[key] for r in plain]
            samples[key + ".wall"] = [r[wall_key] for r in plain]
        samples["calibration_s"] = [c for r in plain for c in r["calibration_s"]]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
    if quality is not None:
        samples.update({k: [v] for k, v in quality.items()})
    if traced:
        for key in traced[0]["layers"]:
            samples[key] = [r["layers"][key] for r in traced]
        samples["cli.out_bytes"] = [r["out_bytes"] for r in traced]
        if plain:
            samples["trace.overhead_s"] = [
                statistics.median(_scaled(r, "job_s") for r in traced) - statistics.median(samples["job_s"])
            ]
    return samples


def _summary(name: str, values: list[float], unit: str) -> str:
    return (f"{name:44s} {statistics.median(values):14.6g} {unit:10s} median of {len(values)}"
            f" (min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None) -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subsel" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no subsel package under {SRC}; run from a full checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        started = time.perf_counter()
        job = WORKLOADS[args.workload](args.seed, work)
        env = _environment(args.seed)
        env["generate_s"] = time.perf_counter() - started
        env["inputs"] = {
            str(p.relative_to(work)): {"bytes": p.stat().st_size, "sha256": _sha256(p)}
            for p in job.inputs
        }
        print(json.dumps({"workload": args.workload, "argv": job.argv, "environment": env}))

        runner = Runner(job, work, process_start + END_LIMIT_S)
        results = []
        measure_start = time.perf_counter()
        while True:
            trace = bool(args.trace) and len(results) % 2 == 1
            results.append(runner.run(trace))
            now = time.perf_counter()
            enough = len(results) >= (2 * MIN_JOBS if args.trace else MIN_JOBS)
            if (now - measure_start >= args.seconds and enough) or now - process_start > START_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = [r for r in results if r["problems"]]
    for r in failed:
        print(f"job failed: {r['problems']}", file=sys.stderr)
    samples = _samples([r for r in results if not r["problems"]], runner.quality)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in samples:
            values = samples[m["name"]]
            print(_summary(m["name"], values, m["unit"]))
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    if not args.trace:
        for name in ("job_s.cpu", "job_s.wall", "setup_s.cpu", "setup_s.wall", "calibration_s"):
            if name in samples:
                print(_summary(name, samples[name], "s"))
    print(f"{'fail_ratio':44s} {len(failed) / len(results):14.6g} {'ratio':10s}"
          f" {len(failed)} of {len(results)} jobs failed")
    correct = not failed and len(metrics) == len(wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
