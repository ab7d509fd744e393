"""Spans around the public functions of each `subsel` layer, from outside the package.

`Tracer.install()` wraps each function in TARGETS and puts the wrapper into
every loaded `subsel` module that holds the original under any name.  That
patches each name where its caller looks it up: `select_sequential` binds
`fit_logistic` with `from .estimation import fit_logistic`, so replacing
`estimation.fit_logistic` alone would record nothing.  Matching by object
identity keeps the tracer working when a refactor moves an import.

A span records its name, start, end and parent span.  Spans stay in memory;
`layer_metrics()` folds them into the per-layer figures the benchmark
reports.  A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _load_csv_counts(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    return {"rows": result.n_rows, "bytes": os.path.getsize(path)}


def _fit_counts(args, kwargs, result):
    return {"newton_iters": result.iterations, "unconverged": int(not result.converged)}


# (module, function or "Class.method", span name, counter of the call's result)
TARGETS = [
    ("subsel.ingest_sim", "load_csv", "ingest_sim.load_csv", _load_csv_counts),
    ("subsel.ingest_sim", "write_csv", "ingest_sim.write_csv", None),
    ("subsel.model_core", "model_matrix", "model_core.model_matrix",
     lambda a, k, r: {"rows": r.shape[0]}),
    ("subsel.estimation", "fit_logistic", "estimation.fit_logistic", _fit_counts),
    ("subsel.estimation", "fit_ols", "estimation.fit_ols", None),
    ("subsel.select_sequential", "run_sequential", "select_sequential.run_sequential",
     lambda a, k, r: {"steps": len(r[1].steps)}),
    ("subsel.select_robust", "run_wiens", "select_robust.run_wiens",
     lambda a, k, r: {"iters": len(r[1].steps)}),
    ("subsel.criteria", "RobustContext.from_grid", "criteria.RobustContext.from_grid", None),
    ("subsel.select_iboss", "run_iboss", "select_iboss.run_iboss", None),
    ("subsel.select_iboss", "iboss_det_bound", "select_iboss.iboss_det_bound", None),
    ("subsel.repro", "repro_example1", "repro", None),
    ("subsel.repro", "repro_example2", "repro", None),
    ("subsel.repro", "repro_example3", "repro", None),
    ("subsel.cli", "main", "cli", None),
]


class Tracer:
    """Records one span per call of a wrapped function, nested by call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "subsel"]
        for module_name, attr, span_name, counter in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                klass = getattr(owner, cls_name)
                wrapped = tracer.wrap(span_name, getattr(klass, method), counter)
                setattr(klass, method, staticmethod(wrapped))
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(span_name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        return tracer

    def wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.duration
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of every span recorded so far.

        Times are totals over calls; `run_sequential.self_s` is its time
        minus the basis and fit calls it made.
        """
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        failed = defaultdict(int)
        counts = defaultdict(int)
        for span in self.spans:
            calls[span.name] += 1
            total[span.name] += span.duration
            self_time[span.name] += span.self_s
            failed[span.name] += span.failed
            for key, value in span.counts.items():
                counts[f"{span.name}.{key}"] += value

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        load_s = total["ingest_sim.load_csv"]
        mm_s, mm_rows = total["model_core.model_matrix"], counts["model_core.model_matrix.rows"]
        lg, ols = "estimation.fit_logistic", "estimation.fit_ols"
        newton = counts[f"{lg}.newton_iters"]
        unconverged = counts[f"{lg}.unconverged"]
        fits = calls[lg] + calls[ols]
        fit_failed = failed[lg] + failed[ols]
        seq = "select_sequential.run_sequential"
        steps = counts[f"{seq}.steps"]
        wiens = "select_robust.run_wiens"
        iters = counts[f"{wiens}.iters"]
        return {
            "ingest_sim.load_csv.s": load_s,
            "ingest_sim.load_csv.rows": counts["ingest_sim.load_csv.rows"],
            "ingest_sim.load_csv.mb_per_s": per(counts["ingest_sim.load_csv.bytes"] / 1e6, load_s),
            "ingest_sim.write_csv.s": total["ingest_sim.write_csv"],
            "model_core.model_matrix.calls": calls["model_core.model_matrix"],
            "model_core.model_matrix.rows": mm_rows,
            "model_core.model_matrix.s": mm_s,
            "model_core.model_matrix.us_per_row": per(mm_s, mm_rows, 1e6),
            "estimation.fit_logistic.calls": calls[lg],
            "estimation.fit_logistic.s": total[lg],
            "estimation.fit_logistic.newton_iters": newton,
            "estimation.fit_logistic.iters_per_call": per(newton, calls[lg] - failed[lg]),
            "estimation.fit_logistic.unconverged": unconverged,
            "estimation.fit_ols.calls": calls[ols],
            "estimation.fit_ols.s": total[ols],
            "estimation.fit.failed": fit_failed,
            # a refit is useful when it returned a converged fit; no refits wastes nothing
            "estimation.fit.ok_ratio": per(fits - fit_failed - unconverged, fits) if fits else 1.0,
            f"{seq}.s": total[seq],
            f"{seq}.self_s": self_time[seq],
            f"{seq}.steps": steps,
            f"{seq}.self_ms_per_step": per(self_time[seq], steps, 1e3),
            f"{wiens}.s": total[wiens],
            f"{wiens}.iters": iters,
            f"{wiens}.ms_per_iter": per(total[wiens], iters, 1e3),
            "criteria.RobustContext.from_grid.s": total["criteria.RobustContext.from_grid"],
            "select_iboss.run_iboss.s": total["select_iboss.run_iboss"],
            "select_iboss.iboss_det_bound.s": total["select_iboss.iboss_det_bound"],
            "repro.self_s": self_time["repro"],
            "cli.self_s": self_time["cli"],
        }
