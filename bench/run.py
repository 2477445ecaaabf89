"""Layered benchmark of sascone.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
One client runs the workload's operations in a closed loop, one at a
time, with at most one child process alive. Every output is checked
against an independent answer (see reference.py). Failures are counted
and the run goes on.

With ``--trace 0`` the run draws a fixed-size set of inputs from the
seed and times it in rounds for S seconds, untraced; each input keeps
its fastest round (see `measure`). It reports the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` it times a smaller set for 0.4*S
untraced, then the same set for 0.4*S with a span around every library
call, and reports the per-layer metrics; layers the workload never
calls are measured by short traced runs of the workloads that call them.

The last line of stdout is the result object; the line before it holds
the run's details (environment, failure reasons, sample counts).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import spans as tracing
import workloads as wls

ROOT = wls.ROOT
SRC = os.path.join(ROOT, "src")
SETUP_SLOTS = 8
SETUP_ROUNDS = 3
MAX_PROBE_INPUTS = 2000
SETTLE_SECONDS = 0.25
CALIBRATION_LOOP = 5000
LOCAL_CALLS = {"run_cli": ("cli.process", wls.run_cli)}
# Traced seconds for the layers a workload never calls, per home workload.
MINI_SECONDS = {"classify-corpus": 0.3, "ray-to-metric": 0.5, "cli": 1.2}

# Span name -> (per-layer metric, seconds-to-unit factor); values are means per call.
SPAN_METRICS = {
    "core.validate_join": ("core.validate_join.us", 1e6),
    "core.ReebRay": ("core.ReebRay.us", 1e6),
    "classifier.positivity_range": ("classifier.positivity_range.us", 1e6),
    "classifier.classify_ray": ("classifier.classify_ray.us", 1e6),
    "quotient.quotient_data": ("quotient.quotient_data.us", 1e6),
    "quotient.orb_fano_predicate": ("quotient.orb_fano_predicate.us", 1e6),
    "quotient.orb_c1_report": ("quotient.orb_c1_report.us", 1e6),
    "profile.profile_params_from_ray": ("profile.profile_params_from_ray.us", 1e6),
    "profile.solve_k": ("profile.solve_k.ms", 1e3),
    "profile.build_profile": ("profile.build_profile.ms", 1e3),
    "emit.emit_json": ("emit.emit_json.ms", 1e3),
    "emit.emit_csv": ("emit.emit_csv.ms", 1e3),
    "goldens.replay_tables": ("goldens.replay_tables.ms", 1e3),
    "cli.main": ("cli.main.ms", 1e3),
    "cli.process": ("cli.process_ms", 1e3),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ measurement


def calibrate() -> float:
    """Best of two timings of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i
        best = min(best, perf_counter() - t0)
    return best


def shared_cpus() -> list[int]:
    """The CPUs this process may run on, when it has a choice of them."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    return cpus if len(cpus) > 1 else []


def settle(cpus: list[int]) -> None:
    """Pin this process (and the children it starts) to its fastest CPU now.

    The CPUs are shared with other tenants and each slows down on its
    own for seconds at a time; the calibration loop finds the CPU that
    currently runs it fastest.
    """
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = calibrate()
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def draw_units(wl, stream, seconds: float) -> list[list]:
    """A phase's inputs: `wl.per_second` units per second of the phase,
    rounded to whole blocks. The count follows from the phase's length
    alone, so a faster program gets more rounds, never other inputs."""
    blocks = max(1, round(wl.per_second * seconds / wl.block))
    return [[next(stream) for _ in range(wl.unit)] for _ in range(blocks * wl.block)]


def run_unit(op, L, xs: list, tracer: tracing.Tracer | None) -> tuple[list, float]:
    """Run one unit of operations; return their outputs and its seconds."""
    outs = []
    t0 = perf_counter()
    for x in xs:
        t_op = tracer.begin_op() if tracer else 0.0
        try:
            outs.append(op(L, x))
        except Exception as exc:  # counted as a failed operation; the run goes on
            outs.append(exc)
        if tracer:
            tracer.end_op(t_op)
    return outs, perf_counter() - t0


def measure(wl, L, units: list[list], seconds: float = 0.0,
            tracer: tracing.Tracer | None = None) -> wls.Tally:
    """Time and check every unit once, then time them again in further
    rounds until `seconds` have passed; each unit keeps its fastest time.

    The machine is shared: a busy neighbour slows the same code by up
    to half for seconds at a time. Rounds give each unit several chances
    at a quiet CPU without changing which inputs are measured, and a
    multi-round phase moves to the CPU that is fastest at the moment
    every SETTLE_SECONDS.
    """
    op, check = wl.op, wl.check
    tally = wls.Tally(wl.unit)
    best = [0.0] * len(units)
    done = [0] * len(units)
    cpus = shared_cpus() if seconds else []
    deadline = perf_counter() + seconds
    settled = -SETTLE_SECONDS

    def settle_if_due() -> None:
        nonlocal settled
        if cpus and perf_counter() - settled >= SETTLE_SECONDS:
            settle(cpus)
            settled = perf_counter()

    for i, xs in enumerate(units):
        settle_if_due()
        outs, best[i] = run_unit(op, L, xs, tracer)
        for x, out in zip(xs, outs):
            tally.attempted += 1
            if len(tally.inputs) < MAX_PROBE_INPUTS:
                tally.inputs.append(x)
            if isinstance(out, Exception):
                tally.fail(f"raised {type(out).__name__}", wrong=False)
                continue
            done[i] += 1
            failure = check(x, out, tally)
            if failure:
                tally.fail(failure[1], wrong=failure[0])
    tally.rounds = 1
    while perf_counter() < deadline:
        for i, xs in enumerate(units):
            if perf_counter() >= deadline:
                break
            settle_if_due()
            best[i] = min(best[i], run_unit(op, L, xs, tracer)[1])
        else:
            tally.rounds += 1
    if cpus:
        os.sched_setaffinity(0, cpus)
    tally.units = list(zip(best, done))
    tally.completed = sum(done)
    tally.busy = sum(best)
    return tally


def setup_round(workload: str, best: list[float]) -> None:
    """One fresh-interpreter set-up per slot; each slot keeps its fastest.

    Like the operations, set-up is timed in rounds, so that a slow
    stretch of the shared machine does not move the median of the slots.
    """
    cpus = shared_cpus()
    for i, seconds in enumerate(best):
        if cpus:
            settle(cpus)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workload],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
        )
        best[i] = min(seconds, float(proc.stdout.split()[-1]))
    if cpus:
        os.sched_setaffinity(0, cpus)


def setup_probe(workload: str) -> float:
    t0 = perf_counter()
    import sascone

    wls.WORKLOADS[workload].warm_up(sascone)
    return perf_counter() - t0


def end_to_end(tally: wls.Tally, setup: list[float]) -> dict[str, float]:
    if tally.unit > 1:
        lat = [dt * 1e3 / tally.unit for dt, _ in tally.units]
    else:
        lat = [dt * 1e3 for dt, completed in tally.units if completed]
    cuts = statistics.quantiles(lat, n=100, method="inclusive") if len(lat) > 1 else lat * 99
    return {
        "ops_per_s": tally.completed / tally.busy,
        "op_ms_p50": cuts[49],
        "op_ms_p90": cuts[89],
        "ok_share": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": statistics.median(setup),
    }


# ---------------------------------------------------------------- tracing


def traced_phase(sc, wl, units: list[list], seconds: float = 0.0) -> tuple[tracing.Tracer, wls.Tally]:
    """Traced rounds over `units`, then the workload's probe calls."""
    tracer = tracing.Tracer()
    L = tracing.api(tracer, LOCAL_CALLS)
    tally = measure(wl, L, units, seconds, tracer)
    probe = getattr(wl, "probe", None)
    if probe:
        probe(sc, L, tally)
    return tracer, tally


def layer_metrics(tracer: tracing.Tracer, tally: wls.Tally) -> dict[str, float]:
    per, _, _ = tracer.summary()
    out = {SPAN_METRICS[span][0]: total / calls * SPAN_METRICS[span][1]
           for span, (calls, total) in per.items()}
    counts = tally.counts
    if "profile.build_profile" in per:
        built = counts["profile.built"]
        out["profile.builds"] = tally.attempted
        out["profile.bracket_failures"] = tally.reasons["raised BracketFailureError"]
        out["profile.cert_failures"] = counts["profile.cert_failures"]
        out["profile.grid_points"] = counts["profile.grid_points"]
        out["profile.solve_iterations"] = counts["profile.solve_iterations.sum"] / max(built, 1)
        out["profile.solve_iterations.sum"] = counts["profile.solve_iterations.sum"]
        out["profile.solve_iterations.max"] = tally.maxima.get("profile.solve_iterations.max", 0)
        if "profile.solve_k" in per and built:
            sample = out["profile.build_profile.ms"] - out["profile.solve_k.ms"]
            out["profile.sample_certify.ms"] = sample
            out["profile.sample.us_per_point"] = sample * 1e3 * built / counts["profile.grid_points"]
    if "emit.emit_csv" in per:
        out["emit.bytes"] = counts["emit.bytes"]
        out["emit.calls"] = counts["emit.calls"]
    if "classifier.classify_ray" in per:
        out["classifier.verdicts"] = counts["classifier.verdicts"]
        out["classifier.positive_share"] = counts["classifier.positive"] / counts["classifier.verdicts"]
    if "cli.process" in per:
        out["cli.calls"] = counts["cli.calls"]
    return out


def cli_probes(sc, seed: int) -> tuple[dict[str, float], int]:
    """Interpreter start, import, in-process `main`, and the golden replay.

    Returns the metrics and the number of wrong answers seen.
    """

    def child_ms(code: str) -> float:
        runs = []
        for _ in range(5):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, timeout=60,
                           env=dict(os.environ, PYTHONPATH=SRC))
            runs.append((perf_counter() - t0) * 1e3)
        return statistics.median(runs)

    interpreter = child_ms("pass")
    out = {"cli.interpreter_ms": interpreter, "cli.import_ms": child_ms("import sascone.cli") - interpreter}
    tracer = tracing.Tracer()
    L = tracing.api(tracer)
    cli = wls.Cli(sc, seed)
    tally = wls.Tally()
    for call in cli.cycle():
        if call.stdin is not None:  # --config reads the child's stdin; skipped in-process
            continue
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = L.main(call.argv)
        proc = subprocess.CompletedProcess(call.argv, code, stdout.getvalue(), stderr.getvalue())
        failure = cli.check(call, proc, tally)
        if failure:
            tally.wrong_probe(failure[1])
    for _ in range(3):
        if not all(o.ok for o in L.replay_tables()):
            tally.wrong_probe("replay_tables reports a failed golden check")
    per, _, _ = tracer.summary()
    for span in ("cli.main", "goldens.replay_tables"):
        calls, total = per[span]
        out[SPAN_METRICS[span][0]] = total / calls * SPAN_METRICS[span][1]
    return out, tally.wrong


# -------------------------------------------------------------------- run


def environment() -> dict:
    def loadavg():
        try:
            with open("/proc/loadavg", encoding="ascii") as fh:
                return [float(v) for v in fh.read().split()[:3]]
        except OSError:
            return None

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg": loadavg(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result, details)."""
    import sascone as sc

    spec = load_spec()
    env_start = environment()
    # One set-up round runs before the measurement and the others after it.
    setup = [float("inf")] * SETUP_SLOTS
    if not trace:
        setup_round(workload, setup)
    wl = wls.WORKLOADS[workload](sc, seed)
    stream = wl.stream()
    L = tracing.api(local=LOCAL_CALLS)
    warm = measure(wl, L, draw_units(wl, stream, min(1.0, 0.05 * seconds)))
    details: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                     "operation": wl.__doc__.split("\n")[0]}
    if not trace:
        tally = measure(wl, L, draw_units(wl, stream, seconds), seconds)
        for _ in range(SETUP_ROUNDS - 1):
            setup_round(workload, setup)
        wrong = warm.wrong + tally.wrong
        metrics = end_to_end(tally, setup)
        phases = [tally]
        details["rounds"] = tally.rounds
        details["setup_runs_s"] = setup
        wanted = spec["end_to_end"]
    else:
        units = draw_units(wl, stream, 0.4 * seconds)
        base = measure(wl, L, units, 0.4 * seconds)
        tracer, main = traced_phase(sc, wl, units, 0.4 * seconds)
        sources = [layer_metrics(tracer, main)]
        wrong = warm.wrong + base.wrong + main.wrong
        for other in ("classify-corpus", "ray-to-metric", "cli"):
            if other == workload:
                continue
            mini = wls.WORKLOADS[other](sc, seed)
            t, tl = traced_phase(sc, mini, draw_units(mini, mini.stream(), MINI_SECONDS[other]))
            sources.append(layer_metrics(t, tl))
            wrong += tl.wrong
        cli_metrics, cli_wrong = cli_probes(sc, seed)
        sources.append(cli_metrics)
        wrong += cli_wrong
        metrics = {}
        for src in sources:
            for name, value in src.items():
                metrics.setdefault(name, value)
        _, op_time, covered = tracer.summary()
        phases = [base, main]
        metrics["trace.coverage"] = covered / op_time
        metrics["trace.overhead"] = main.busy / base.busy - 1.0
        metrics["trace.ops"] = main.attempted
        metrics["failed_share"] = (base.failed + main.failed) / (base.attempted + main.attempted)
        wanted = spec["per_layer"]
    attempted = sum(t.attempted for t in phases)
    failed = sum(t.failed for t in phases)
    reasons: dict = {}
    for t in phases:
        for reason, n in t.reasons.items():
            reasons[reason] = reasons.get(reason, 0) + n
    details.update({
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "wrong": wrong, "failure_reasons": reasons,
        "units": sum(len(t.units) for t in phases),
        "latency_samples": sum(d > 0 for t in phases for _, d in t.units),
        "env_start": env_start, "loadavg_end": environment()["loadavg"],
    })
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", choices=sorted(wls.WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sascone", "__init__.py")):
        print(f"bench: no sascone sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        print(setup_probe(args.setup_probe))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
