"""The benchmark's workloads: seeded inputs, one operation, its checker.

Every workload offers the same interface:

* ``stream()`` yields operation inputs forever, all drawn from the seed;
* ``op(L, x)`` runs one operation through the library namespace `L`
  (see `spans.api`) and returns its output;
* ``check(x, out, tally)`` compares the output with an independent
  answer. It returns None when the output is right, or ``(wrong, reason)``
  when the operation failed; ``wrong`` is true for a wrong answer or an
  unexpected exit code, false for a certificate that did not pass;
* ``warm_up(sc)`` is the one-off first call that the set-up time covers;
* ``unit`` is how many operations are timed together;
* ``per_second`` is how many units a phase measures per second of its
  length, in whole ``block``s, a block being the period over which the
  stream's mix of inputs repeats.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import reference as ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CSV_HEADER = ("z", "F", "Theta", "ricci_h", "ricci_v")
QUOTIENT_FIELDS = ("s", "n", "m", "m1", "m2")


class Tally:
    """Outcome counts of one measured phase."""

    def __init__(self, unit: int = 1) -> None:
        self.unit = unit
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.wrong = 0
        self.busy = 0.0
        self.rounds = 0
        # (seconds, completed operations) per timed unit
        self.units: list[tuple[float, int]] = []
        self.inputs: list = []
        self.reasons: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def fail(self, reason: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.reasons[reason] += 1

    def wrong_probe(self, reason: str) -> None:
        """A wrong answer from a probe call made outside any operation."""
        self.wrong += 1
        self.reasons[reason] += 1

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)


def _coprime(a: int, b: int) -> bool:
    return gcd(a, b) == 1


def corpus_joins() -> list[tuple[int, int, int, int]]:
    """(l1, l2, w1, w2) of the criterion-3 corpus: l up to 10, w up to 12."""
    return [
        (l1, l2, w1, w2)
        for l1 in range(1, 11)
        for l2 in range(1, 11)
        if _coprime(l1, l2)
        for w1 in range(1, 13)
        for w2 in range(1, w1 + 1)
        if _coprime(w1, w2) and _coprime(l2, l1 * w1 * w2)
    ]


# ---------------------------------------------------------------- classify


class ClassifyCorpus:
    """Seeded (join, ray) pairs from the criterion-3 acceptance corpus."""

    name = "classify-corpus"
    unit = 256
    per_second = 8
    block = 1

    def __init__(self, sc, seed: int) -> None:
        bases = (
            sc.BaseManifold.riemann_surface(2),
            sc.BaseManifold(dim_c=2, c1_coeff=1, label="b1"),
            sc.BaseManifold.projective_space(1),
            sc.BaseManifold.projective_space(2),
            sc.BaseManifold.projective_space(3),
        )
        self.joins = [j + (base,) for j in corpus_joins() for base in bases]
        self.rays = [(v1, v2) for v1 in range(1, 51) for v2 in range(1, 51) if _coprime(v1, v2)]
        self.rng = random.Random(seed)
        self.product_case = sc.ProductCaseError
        self.positive = sc.TypeVerdict.POSITIVE

    def stream(self):
        choice = self.rng.choice
        while True:
            yield choice(self.joins) + choice(self.rays)

    def op(self, L, x):
        l1, l2, w1, w2, base, v1, v2 = x
        join = L.validate_join(l1, l2, w1, w2, base)
        ray = L.ReebRay(v1, v2)
        L.positivity_range(join)
        verdict = L.classify_ray(join, ray)
        pred = L.orb_fano_predicate(join, ray)
        try:
            data = L.quotient_data(join, ray)
        except self.product_case:
            data = None
        return verdict, pred, data

    def check(self, x, out, tally: Tally):
        l1, l2, w1, w2, base, v1, v2 = x
        verdict, pred, data = out
        tally.counts["classifier.verdicts"] += 1
        tally.counts["classifier.positive"] += verdict is self.positive
        if pred != ref.predicate(base.c1_coeff, l1, l2, w1, w2, v1, v2):
            return True, "orb_fano_predicate differs from the integer inequality"
        if (verdict is self.positive) != pred:
            return True, "classify_ray verdict differs from orb_fano_predicate"
        if (None if data is None else tuple(data)) != ref.quotient(l1, l2, w1, w2, v1, v2):
            return True, "quotient_data differs from the ramification formulas"
        return None

    def probe(self, sc, L, tally: Tally) -> None:
        """Time orb_c1_report, which no operation calls, on the phase's inputs."""
        for l1, l2, w1, w2, base, v1, v2 in tally.inputs:
            if (v1, v2) == (w1, w2):
                continue
            report = L.orb_c1_report(sc.validate_join(l1, l2, w1, w2, base), sc.ReebRay(v1, v2))
            if report.positive != ref.predicate(base.c1_coeff, l1, l2, w1, w2, v1, v2):
                tally.wrong_probe("orb_c1_report differs from the integer inequality")

    @staticmethod
    def warm_up(sc) -> None:
        join = sc.validate_join(4, 1, 1, 1, sc.BaseManifold.projective_space(1))
        ray = sc.ReebRay(3, 2)
        sc.classify_ray(join, ray)
        sc.orb_fano_predicate(join, ray)
        sc.quotient_data(join, ray)


# ----------------------------------------------------------------- profile


def check_profile(profile, grid: int, tally: Tally):
    """Certificate, root and quadrature checks shared by the profile workloads."""
    rep = profile.report
    p = profile.params
    tally.counts["profile.solve_iterations.sum"] += rep.root.iterations
    tally.peak("profile.solve_iterations.max", rep.root.iterations)
    tally.counts["profile.grid_points"] += grid
    tally.counts["profile.built"] += 1
    if not rep.all_ok:
        tally.counts["profile.cert_failures"] += 1
        return False, "certificate all_ok is false"
    if rep.root.residual > rep.root.tolerance:
        return True, "root residual above its tolerance"
    s = profile.samples
    if len(s) != grid or s[0].z != -1.0 or s[-1].z != 1.0:
        return True, "samples do not cover [-1, 1] at the requested grid"
    mismatch = ref.profile_mismatch(profile.k_root, s[grid // 2].f, p.m1, p.m2, p.r, p.d_n)
    if mismatch:
        return True, mismatch
    return None


def solve_probe(sc, L, params: list) -> None:
    """Time solve_k, which build_profile calls internally, on the builds' parameters."""
    for p in params:
        try:
            L.solve_k(p)
        except sc.SasconeError:
            pass


class ProfileFine:
    """`build_profile` at grid 10001 on criterion-4 parameter draws.

    Build time depends strongly on d_n and on |k*|, so a plain random
    sample makes the latency percentiles swing from seed to seed. The
    stream therefore serves (d_n, |k*| band) cells in a weighted round
    robin with the cells' probabilities under the criterion-4
    distribution, and draws the parameters within each cell at random.
    """

    name = "profile-fine"
    unit = 1
    per_second = 2
    block = 1
    grid = 10_001
    # Draws per (d_n, band of |k*| by reference.K_BAND_EDGES) among 20000
    # criterion-4 draws, classified with reference.k_band.
    CELL_WEIGHTS = (
        (441, 109, 319, 212, 204, 2740),
        (208, 207, 220, 212, 212, 2884),
        (168, 190, 203, 161, 171, 3125),
        (140, 144, 171, 167, 153, 3225),
        (128, 134, 121, 142, 129, 3360),
    )

    def __init__(self, sc, seed: int) -> None:
        self.rng = random.Random(seed)
        self.params = sc.ProfileParams

    def _draw(self) -> tuple:
        rng = self.rng
        m1 = rng.randint(1, 9)
        m2 = rng.randint(1, 9)
        d_n = rng.randint(0, 4)
        sign = rng.choice((1, -1))
        r = sign * rng.uniform(0.05, 0.95)
        n = sign * rng.randint(1, 12)
        return m1, m2, d_n, r, n, rng.randint(1, 4)

    def stream(self):
        cells = [(d, b) for d, row in enumerate(self.CELL_WEIGHTS) for b in range(len(row))]
        share = [self.CELL_WEIGHTS[d][b] for d, b in cells]
        total = sum(share)
        served = [0] * len(cells)
        waiting: dict[tuple, list] = {c: [] for c in cells}
        step = 0
        while True:
            step += 1
            j = max(range(len(cells)), key=lambda i: share[i] * step / total - served[i])
            served[j] += 1
            while not waiting[cells[j]]:
                m1, m2, d_n, r, n, fano = draw = self._draw()
                waiting[(d_n, ref.k_band(m1, m2, r, d_n))].append(draw)
            m1, m2, d_n, r, n, fano = waiting[cells[j]].pop(0)
            yield self.params(m1=m1, m2=m2, d_n=d_n, r=r, n=n, fano_index=fano)

    def op(self, L, params):
        return L.build_profile(params, grid_size=self.grid)

    def check(self, params, profile, tally: Tally):
        return check_profile(profile, self.grid, tally)

    def probe(self, sc, L, tally: Tally) -> None:
        solve_probe(sc, L, tally.inputs)

    @staticmethod
    def warm_up(sc) -> None:
        sc.build_profile(sc.ProfileParams(m1=3, m2=2, d_n=1, r=-0.5, n=-4, fano_index=2), grid_size=3)


class RayToMetric:
    """The `metric-from-ray` path in-process at grid 201.

    Each block of 24 rays holds 8 per golden family. The interval family
    (4,1,1,1)/CP1 gets 8 ratios, one per log-spaced stratum of (1/2, 2).
    The half-line families (1,1,7,1)/CP1 and (1,1,12,1)/CP2 get 6 ratios
    from log strata between their lower bound and 100, and 2 far rays
    from [100, 1000) and [1000, 10^4]. Far rays are thus 4 of every 24.
    """

    name = "ray-to-metric"
    unit = 1
    per_second = 40
    block = 24
    grid = 201
    FAMILIES = (((4, 1, 1, 1), 1, 0.5, 2.0), ((1, 1, 7, 1), 1, 5.0, 100.0), ((1, 1, 12, 1), 2, 9.0, 100.0))
    FAR = ((100.0, 1000.0), (1000.0, 10_000.0))

    def __init__(self, sc, seed: int) -> None:
        self.rng = random.Random(seed)
        self.bases = {p: sc.BaseManifold.projective_space(p) for p in (1, 2)}

    def _ray(self, join: tuple, p: int, lo: float, hi: float, max_v2: int) -> tuple[int, int]:
        l1, l2, w1, w2 = join
        while True:
            x = math.exp(self.rng.uniform(math.log(lo), math.log(hi)))
            v2 = self.rng.randint(1, max_v2)
            v1 = max(1, round(x * v2))
            g = gcd(v1, v2)
            v1, v2 = v1 // g, v2 // g
            if (v1, v2) != (w1, w2) and ref.predicate(p + 1, l1, l2, w1, w2, v1, v2):
                return v1, v2

    def _block(self) -> list:
        block = []
        for join, p, lo, hi in self.FAMILIES:
            strata = 6 if hi == 100.0 else 8
            edges = [lo * (hi / lo) ** (i / strata) for i in range(strata + 1)]
            for a, b in zip(edges, edges[1:]):
                block.append((join, p) + self._ray(join, p, a, b, 40))
            if hi == 100.0:
                for a, b in self.FAR:
                    block.append((join, p) + self._ray(join, p, a, b, 3))
        self.rng.shuffle(block)
        return block

    def stream(self):
        while True:
            yield from ((j, self.bases[p], v1, v2) for j, p, v1, v2 in self._block())

    def op(self, L, x):
        (l1, l2, w1, w2), base, v1, v2 = x
        join = L.validate_join(l1, l2, w1, w2, base)
        ray = L.ReebRay(v1, v2)
        params, data = L.profile_params_from_ray(join, ray)
        profile = L.build_profile(params, grid_size=self.grid)
        csv = L.emit_csv(CSV_HEADER, ((s.z, s.f, s.theta, s.ricci_h, s.ricci_v) for s in profile.samples))
        record = {
            "join": {"l1": l1, "l2": l2, "w1": w1, "w2": w2, "base": base.label},
            "ray": {"v1": v1, "v2": v2},
            "quotient": data,
            "params": params,
            "k_root": profile.k_root,
            "report": profile.report,
        }
        return profile, data, csv, L.emit_json(record)

    def check(self, x, out, tally: Tally):
        (l1, l2, w1, w2), base, v1, v2 = x
        profile, data, csv, text = out
        tally.counts["emit.bytes"] += len(csv) + len(text)
        tally.counts["emit.calls"] += 2
        if tuple(data) != ref.quotient(l1, l2, w1, w2, v1, v2):
            return True, "quotient data differs from the ramification formulas"
        failure = check_profile(profile, self.grid, tally)
        if failure:
            return failure
        if not csv.startswith(",".join(CSV_HEADER) + "\n") or csv.count("\n") != self.grid + 1:
            return True, "CSV does not hold a header and one row per grid point"
        if json.loads(text)["quotient"] != dict(zip(QUOTIENT_FIELDS, data)):
            return True, "JSON report does not round-trip the quotient data"
        return None

    def probe(self, sc, L, tally: Tally) -> None:
        solve_probe(sc, L, [
            sc.profile_params_from_ray(sc.validate_join(*join, base), sc.ReebRay(v1, v2))[0]
            for join, base, v1, v2 in tally.inputs
        ])

    @staticmethod
    def warm_up(sc) -> None:
        from sascone import emit

        join = sc.validate_join(4, 1, 1, 1, sc.BaseManifold.projective_space(1))
        params, data = sc.profile_params_from_ray(join, sc.ReebRay(3, 2))
        profile = sc.build_profile(params, grid_size=3)
        emit.emit_csv(CSV_HEADER, [(s.z, s.f, s.theta, s.ricci_h, s.ricci_v) for s in profile.samples])
        emit.emit_json({"report": profile.report})


# --------------------------------------------------------------------- cli


README_RANGE = (["range", "--l1", "4", "--l2", "1", "--w1", "1", "--w2", "1", "--format", "text"],
                "1/2 < v1/v2 < 2\n")
README_CLASSIFY = ({"command": "classify", "l1": 2, "l2": 1, "w1": 3, "w2": 1, "v1": 3, "v2": 1,
                    "format": "text"}, "positive: ratio 3, range 2 < v1/v2\n")


class Call:
    """One CLI invocation with its expected exit code and output check."""

    __slots__ = ("command", "argv", "stdin", "code", "expect")

    def __init__(self, argv: list[str], expect, stdin: str | None = None, code: int = 0) -> None:
        self.command = argv[0]
        self.argv = argv
        self.stdin = stdin
        self.code = code
        self.expect = expect

    def __repr__(self) -> str:
        return f"Call({' '.join(self.argv)})"


def run_cli(call: Call) -> subprocess.CompletedProcess:
    """Run `python -m sascone` in a child on the checkout's sources."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "sascone", *call.argv], input=call.stdin,
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)


def _join_argv(j: tuple) -> list[str]:
    l1, l2, w1, w2, p = j
    return ["--l1", str(l1), "--l2", str(l2), "--w1", str(w1), "--w2", str(w2), "--base", f"cp{p}"]


def _json_field(text: str, *path):
    value = json.loads(text)
    for key in path:
        value = value[key]
    return value


def _report_ok(report: dict) -> bool:
    """The certificate's all_ok verdict, from the fields the CLI emits."""
    r = report["report"]
    endpoints = (max(r["endpoint_f_lo"], r["endpoint_f_hi"]) <= 1e-10
                 and max(r["fprime_lo_residual"], r["fprime_hi_residual"]) <= 1e-10)
    coeffs = not r["box_ok"] or (r["horizontal_positive"] and r["vertical_positive"])
    return (endpoints and r["interior_positive"] and r["g_monotone"] and coeffs
            and r["root"]["residual"] <= r["root"]["tolerance"])


class Cli:
    """`python -m sascone` in sequential children over a fixed command mix.

    One cycle runs range (the README example), classify, quotient,
    invariants, bouquet, metric-from-ray --grid 201, replay-tables and
    one --config batch, in that order; all but range take seeded arguments.
    """

    name = "cli"
    unit = 1
    per_second = 0.64
    block = 8

    def __init__(self, sc, seed: int) -> None:
        self.rng = random.Random(seed)
        self.joins = [j + (p,) for j in corpus_joins() for p in (1, 2)]
        self.near = RayToMetric(sc, seed + 1)
        self.checks = len(sc.default_checks())

    def _join_ray(self, avoid_w: bool = False) -> tuple:
        while True:
            j = self.rng.choice(self.joins)
            v1, v2 = self.rng.randint(1, 50), self.rng.randint(1, 50)
            if _coprime(v1, v2) and not (avoid_w and (v1, v2) == (j[2], j[3])):
                return j, v1, v2

    def _classify(self) -> Call:
        j, v1, v2 = self._join_ray()
        verdict = "positive" if ref.predicate(j[4] + 1, *j[:4], v1, v2) else "indefinite"
        text = f"{verdict}: ratio {Fraction(v1, v2)}, range {ref.range_text(*j[:4], j[4] + 1)}\n"
        return Call(["classify", *_join_argv(j), "--v1", str(v1), "--v2", str(v2), "--format", "text"],
                    lambda out, err: out == text)

    def _quotient(self) -> Call:
        j, v1, v2 = self._join_ray(avoid_w=True)
        want = dict(zip(QUOTIENT_FIELDS, ref.quotient(*j[:4], v1, v2)))
        fano = ref.predicate(j[4] + 1, *j[:4], v1, v2)
        return Call(["quotient", *_join_argv(j), "--v1", str(v1), "--v2", str(v2)],
                    lambda out, err: _json_field(out, "quotient") == want
                    and _json_field(out, "orb_fano") == fano)

    def _invariants(self) -> Call:
        j = self.rng.choice(self.joins)
        l1, l2, w1, w2, p = j
        coeff = l2 * (p + 1) - l1 * (w1 + w2)
        want = {"torsion_order": w1 * w2 * l1 * l1, "c1_gamma_coeff": coeff,
                "spin": coeff % 2 == 0, "b_invariant": l1 * w2}
        return Call(["invariants", *_join_argv(j)],
                    lambda out, err: {k: _json_field(out, k) for k in want} == want)

    def _bouquet(self) -> Call:
        k, l = self.rng.randint(1, 40), self.rng.randint(1, 20)
        want = ref.bouquet_partition(k, l)
        return Call(["bouquet", "--k", str(k), "--l", str(l)],
                    lambda out, err: _json_field(out, "level_sets") == want)

    def _metric(self) -> Call:
        (l1, l2, w1, w2), base, v1, v2 = next(x for x in self.near.stream() if x[2] < 100 * x[3])
        want = dict(zip(QUOTIENT_FIELDS, ref.quotient(l1, l2, w1, w2, v1, v2)))
        argv = ["metric-from-ray", *_join_argv((l1, l2, w1, w2, base.dim_c)),
                "--v1", str(v1), "--v2", str(v2), "--grid", "201"]

        def expect(out: str, err: str) -> bool:
            report = json.loads(err)
            return (out.startswith(",".join(CSV_HEADER) + "\n") and out.count("\n") == 202
                    and report["quotient"] == want and _report_ok(report))

        return Call(argv, expect)

    def _replay(self) -> Call:
        n = self.checks
        return Call(["replay-tables"],
                    lambda out, err: "FAIL" not in out and out.endswith(f"\n{n}/{n} checks passed\n"))

    def _batch(self) -> Call:
        j = self.rng.choice(self.joins)
        qj, v1, v2 = self._join_ray(avoid_w=True)
        keys = ("l1", "l2", "w1", "w2")
        entries = [
            README_CLASSIFY[0],
            {"command": "range", **dict(zip(keys, j[:4])), "base": f"cp{j[4]}", "format": "text"},
            {"command": "quotient", **dict(zip(keys, qj[:4])), "base": f"cp{qj[4]}", "v1": v1, "v2": v2},
        ]
        want = [README_CLASSIFY[1], ref.range_text(*j[:4], j[4] + 1) + "\n",
                dict(zip(QUOTIENT_FIELDS, ref.quotient(*qj[:4], v1, v2)))]

        def expect(out: str, err: str) -> bool:
            got = json.loads(out)
            return ([e["exit_code"] for e in got] == [0, 0, 0]
                    and [got[0]["stdout"], got[1]["stdout"], _json_field(got[2]["stdout"], "quotient")] == want)

        return Call(["--config", "/dev/stdin"], expect, stdin=json.dumps({"commands": entries}))

    def cycle(self) -> list[Call]:
        readme = Call(README_RANGE[0], lambda out, err: out == README_RANGE[1])
        return [readme, self._classify(), self._quotient(), self._invariants(), self._bouquet(),
                self._metric(), self._replay(), self._batch()]

    def stream(self):
        while True:
            yield from self.cycle()

    def op(self, L, call: Call):
        return L.run_cli(call)

    def check(self, call: Call, proc, tally: Tally):
        tally.counts["cli.calls"] += 1
        if proc.returncode != call.code:
            return True, f"{call.command} exited {proc.returncode}, expected {call.code}"
        try:
            ok = call.expect(proc.stdout, proc.stderr)
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        if not ok:
            return True, f"{call.command} output differs from the expected answer"
        return None

    @staticmethod
    def warm_up(sc) -> None:
        import sascone.cli

        sascone.cli.build_parser()


WORKLOADS = {w.name: w for w in (ClassifyCorpus, ProfileFine, RayToMetric, Cli)}
