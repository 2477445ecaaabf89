"""Spans around the benchmark's calls into sascone's public functions.

The workloads make every timed library call through a namespace built
by `api()`. Untraced, its attributes are the library functions themselves;
traced, each is wrapped so that every call records a span named
``<module>.<function>``. Spans are recorded at the benchmark's own call
sites, so they never nest: a layer span's self time is its duration, and
an operation's self time is its duration minus its layer spans.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter
from types import SimpleNamespace

# (module, attribute) of every sascone call the workloads make.
PUBLIC_CALLS = (
    ("core", "validate_join"),
    ("core", "ReebRay"),
    ("classifier", "positivity_range"),
    ("classifier", "classify_ray"),
    ("quotient", "quotient_data"),
    ("quotient", "orb_fano_predicate"),
    ("quotient", "orb_c1_report"),
    ("profile", "profile_params_from_ray"),
    ("profile", "solve_k"),
    ("profile", "build_profile"),
    ("emit", "emit_json"),
    ("emit", "emit_csv"),
    ("goldens", "replay_tables"),
    ("cli", "main"),
)

OP = "op"


class Tracer:
    """Spans kept in memory as flat arrays until the run ends.

    Each span has a name, a start, an end, and the operation it belongs
    to: the index of the enclosing operation span, or -1 for probe calls
    made outside any operation.
    """

    def __init__(self) -> None:
        self.names = [OP]
        self._ids = {OP: 0}
        self.name = array("i")
        self.owner = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.ops = 0

    def _record(self, idx: int, t0: float, t1: float) -> None:
        self.name.append(idx)
        self.owner.append(self.current)
        self.start.append(t0)
        self.end.append(t1)

    def wrap(self, span: str, fn):
        idx = self._ids.setdefault(span, len(self.names))
        if idx == len(self.names):
            self.names.append(span)
        record = self._record

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record(idx, t0, perf_counter())

        return traced

    def begin_op(self) -> float:
        self.current = self.ops
        self.ops += 1
        return perf_counter()

    def end_op(self, t0: float) -> None:
        self._record(0, t0, perf_counter())
        self.current = -1

    def summary(self) -> tuple[dict[str, tuple[int, float]], float, float]:
        """Calls and total seconds per layer span, total operation time,
        and the part of it covered by layer spans."""
        per: dict[str, list] = {}
        op_time = covered = 0.0
        for idx, owner, t0, t1 in zip(self.name, self.owner, self.start, self.end):
            d = t1 - t0
            if idx == 0:
                op_time += d
                continue
            if owner >= 0:
                covered += d
            acc = per.setdefault(self.names[idx], [0, 0.0])
            acc[0] += 1
            acc[1] += d
        return {k: (n, t) for k, (n, t) in per.items()}, op_time, covered


def api(tracer: Tracer | None = None, local: dict | None = None) -> SimpleNamespace:
    """Namespace of the library calls, traced when a tracer is given.

    `local` maps attribute names to ``(span, function)`` pairs for calls
    the benchmark makes itself, such as running the CLI in a child.
    """
    calls = {}
    for module, attr in PUBLIC_CALLS:
        calls[attr] = (f"{module}.{attr}", getattr(importlib.import_module(f"sascone.{module}"), attr))
    calls.update(local or {})
    if tracer is None:
        return SimpleNamespace(**{attr: fn for attr, (_, fn) in calls.items()})
    return SimpleNamespace(**{attr: tracer.wrap(span, fn) for attr, (span, fn) in calls.items()})
