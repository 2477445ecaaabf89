"""Command-line front end.

Every command is a thin composition of library operations; no math lives
here. A command's parser is built the first time a call or a `--config`
entry runs it. A call and a `--config` entry take one path: parse, `_run`
the handler, which returns its record or text, then write it, a record as
JSON. stdout gets the answer; stderr gets a metric profile's report or a
failed call's JSON error record. Output is deterministic (see `emit`).
Exit codes: 0 success, 2 input validation error, 3 mathematical
precondition failure, 4 golden replay mismatch, 5 metric profile whose
certificate failed (the profile and its report are still written).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from typing import TYPE_CHECKING, Any, NamedTuple

from . import __version__
from .errors import (EXIT_CERTIFICATE, EXIT_MISMATCH, EXIT_OK, EXIT_VALIDATION, BaseMismatchError,
                     InvalidParameterError, OddTotalError, SasconeError, exit_code_for)

if TYPE_CHECKING:  # each handler imports the library modules it runs
    from collections.abc import Callable
    from fractions import Fraction

    from .core import JoinParams
    from .profile import ProfileParams


class CommandResult(NamedTuple):
    """A command's output streams, each text or a record that `_run` writes as JSON."""

    stdout: Any = ""
    stderr: Any = ""
    code: int = EXIT_OK


def _fraction(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # argparse words a ValueError by this function's name
        raise argparse.ArgumentTypeError(f"cannot parse rational {text!r}") from exc


class _LazyParser:
    """Stands in for a subcommand's parser until its first attribute read, by argparse or a
    caller, which makes it the `ArgumentParser` of its keywords, options and handler."""

    def __init__(self, handler: Callable, add_options: Callable, **kwargs: Any) -> None:
        self._pending = handler, add_options, kwargs

    def __getattr__(self, name: str) -> Any:
        handler, add_options, kwargs = self.__dict__.pop("_pending")
        self.__class__ = argparse.ArgumentParser  # from here on it is that parser
        argparse.ArgumentParser.__init__(self, **kwargs)
        add_options(self)
        self.set_defaults(handler=handler)
        return getattr(self, name)


def _join_options(p: argparse.ArgumentParser) -> None:
    for name in ("--l1", "--l2", "--w1", "--w2"):
        p.add_argument(name, type=int, required=True)
    p.add_argument("--base", default="cp1", help="cp<p>, sigma<g>, or custom:<dim_c>:<c1>")


def _ray_options(p: argparse.ArgumentParser) -> None:
    _join_options(p)  # every command that takes a ray takes its join, whose options come first
    for name in ("--v1", "--v2"):
        p.add_argument(name, type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sascone",
        description="Positivity in the w-Sasaki cone of weighted 3-sphere joins.",
    )
    parser.add_argument("--version", action="version", version=f"sascone {__version__}")
    parser.add_argument("--config", help="JSON file with a batch of commands to run")
    parser.set_defaults(handler=lambda args: _run_config(args, parser))  # a call with no command
    sub = parser.add_subparsers(dest="command", parser_class=_LazyParser)
    sub.add_parser("invariants", help="topological/contact invariants of a join",
                   handler=_cmd_invariants, add_options=_join_options)
    sub.add_parser("quotient", help="quasi-regular quotient data of a ray",
                   handler=_cmd_quotient, add_options=_ray_options)

    def classify(p: argparse.ArgumentParser) -> None:
        _ray_options(p)
        p.add_argument("--near", type=_fraction, default=None, metavar="A/B",
                       help="flag the verdict when the ray is within this distance of a range boundary")
        p.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_parser("classify", help="positive vs indefinite for a ray", handler=_cmd_classify,
                   add_options=classify)

    def range_(p: argparse.ArgumentParser) -> None:
        _join_options(p)
        p.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_parser("range", help="exact positivity range of the w-cone", handler=_cmd_range,
                   add_options=range_)

    def bouquet(p: argparse.ArgumentParser) -> None:
        for name in ("--l1", "--l2", "--w1", "--w2"):
            p.add_argument(name, type=int)
        p.add_argument("--base", default="cp1")
        p.add_argument("--k", type=int)
        p.add_argument("--l", type=int)
    sub.add_parser("bouquet", help="bouquet labels (join flags) or level sets (--k/--l)",
                   handler=_cmd_bouquet, add_options=bouquet)

    def metric(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m1", type=int, required=True)
        p.add_argument("--m2", type=int, required=True)
        p.add_argument("--r", type=float, required=True)
        p.add_argument("--dN", "--d-n", type=int, required=True, dest="d_n")
        p.add_argument("--fano-index", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--out", choices=("csv", "json"), default="csv")
    sub.add_parser("metric", help="build and certify an admissible profile", handler=_cmd_metric,
                   add_options=metric)

    def metric_from_ray(p: argparse.ArgumentParser) -> None:
        _ray_options(p)
        p.add_argument("--r", type=float, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--out", choices=("csv", "json"), default="csv")
    sub.add_parser("metric-from-ray", help="compose quotient data with the profile construction",
                   handler=_cmd_metric_from_ray, add_options=metric_from_ray)

    def h1(p: argparse.ArgumentParser) -> None:
        p.add_argument("--s", type=float, required=True, help="total transverse scalar curvature")
        p.add_argument("--volume", type=float, required=True)
        p.add_argument("--n-half", type=int, required=True, help="n for dimension 2n+1")
    sub.add_parser("h1", help="signed Einstein-Hilbert value from supplied totals", handler=_cmd_h1,
                   add_options=h1)

    def replay_tables(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_parser("replay-tables", help="recompute the built-in golden tables", handler=_cmd_replay,
                   add_options=replay_tables)

    return parser


def _parse_join(args: argparse.Namespace) -> tuple[JoinParams, list[str]]:
    from .core import parse_base, validate_join

    base = parse_base(args.base)
    join = validate_join(args.l1, args.l2, args.w1, args.w2, base)
    notes = []
    if (join.w1, join.w2) != (args.w1, args.w2):
        notes.append(f"weights swapped to (w1, w2) = ({join.w1}, {join.w2})")
    return join, notes


def _cmd_invariants(args: argparse.Namespace) -> dict:
    from .topology import (_require_projective_base, b_invariant_wcone, bouquet_label,
                           c1_gamma_coeff_sphere_join, spin_check, torsion_order)

    join, notes = _parse_join(args)
    base = join.base
    record: dict = {"join": join, "notes": notes}
    record["torsion_order"] = torsion_order(join)
    record["torsion_caveat"] = base.dim_c == 1
    try:
        record["c1_gamma_coeff"] = c1_gamma_coeff_sphere_join(base.dim_c, join)
        record["spin"] = spin_check(base.dim_c, join)
    except BaseMismatchError:
        record["c1_gamma_coeff"] = None
        record["spin"] = None
        notes.append("c1 coefficient and spin need a projective-space base")
    record["bouquet"] = None
    try:
        _require_projective_base(1, join)
        record["bouquet"] = bouquet_label(join)
    except BaseMismatchError:
        notes.append("bouquet labels not applicable for this base")
    except OddTotalError:
        notes.append("bouquet labels undefined: l1*(w1+w2) is odd")
    if base.is_fano:
        record["b_invariant"] = b_invariant_wcone(join)
    else:
        record["b_invariant"] = None
        notes.append("B invariant needs a Fano base")
    return record


def _cmd_quotient(args: argparse.Namespace) -> dict:
    from .core import ReebRay
    from .quotient import orb_c1_report, quotient_data

    join, notes = _parse_join(args)
    ray = ReebRay(args.v1, args.v2)
    data = quotient_data(join, ray)
    report = orb_c1_report(join, ray, data)
    return {"join": join, "ray": ray, "quotient": data, "orb_fano": report.positive, "orb_c1": report,
            "notes": notes}


def _cmd_classify(args: argparse.Namespace) -> dict | str:
    from .classifier import classify_ray, positivity_range
    from .core import ReebRay

    if args.near is not None and args.near < 0:
        raise InvalidParameterError(f"--near must be nonnegative, got {args.near}")
    join, notes = _parse_join(args)
    ray = ReebRay(args.v1, args.v2)
    rng = positivity_range(join)
    verdict = classify_ray(join, ray)
    distance = rng.distance_to_boundary(ray.ratio)
    near = None
    if args.near is not None:
        near = distance is not None and distance <= args.near
    if distance is not None and distance == 0:
        notes.append("ray lies exactly on a range boundary; boundaries classify as indefinite")
    if args.format == "text":
        return f"{verdict.value}: ratio {ray.ratio}, range {rng.as_text()}\n"
    return {"verdict": verdict, "range": rng, "ratio": ray.ratio, "distance_to_boundary": distance,
            "near_boundary": near, "notes": notes}


def _cmd_range(args: argparse.Namespace) -> dict | str:
    from .classifier import positivity_range, whole_cone_rules

    join, notes = _parse_join(args)
    rng = positivity_range(join)
    if args.format == "text":
        return rng.as_text() + "\n"
    record: dict = {"range": rng, "notes": notes}
    with contextlib.suppress(BaseMismatchError):  # the rules need a projective-space base
        record["whole_cone"] = whole_cone_rules(join)
    return record


def _cmd_bouquet(args: argparse.Namespace) -> dict:
    from .topology import _require_projective_base, bouquet_label, bouquet_level_set, bouquet_partition

    join_flags = [args.l1, args.l2, args.w1, args.w2]
    if args.k is not None or args.l is not None:
        if args.k is None or args.l is None or any(v is not None for v in join_flags):
            raise InvalidParameterError("give either --k and --l, or the four join flags")
        partition = bouquet_partition(args.k, args.l)
        return {"k": args.k, "l": args.l, "level_sets": partition}
    if any(v is None for v in join_flags):
        raise InvalidParameterError("give either --k and --l, or the four join flags")
    join, notes = _parse_join(args)
    try:
        _require_projective_base(1, join)
    except BaseMismatchError:
        return {"applicable": False, "reason": "bouquet labels not applicable", "notes": notes}
    label = bouquet_label(join)
    return {"applicable": True, "label": label, "level_set": bouquet_level_set(label.k, label.l, label.i),
            "notes": notes}


def _profile_result(
    params: ProfileParams, args: argparse.Namespace, extra_report: dict | None = None
) -> CommandResult:
    from .emit import emit_csv
    from .profile import DEFAULT_GRID, build_profile

    grid = DEFAULT_GRID if args.grid is None else args.grid
    profile = build_profile(params, grid_size=grid)
    report: dict = {"params": profile.params, "k_root": profile.k_root, "report": profile.report}
    if extra_report:
        report.update(extra_report)
    code = EXIT_OK if profile.report.all_ok else EXIT_CERTIFICATE
    if args.out == "json":
        return CommandResult({**report, "samples": profile.samples}, report, code)
    csv = emit_csv(("z", "F", "Theta", "ricci_h", "ricci_v"), zip(*profile.columns))
    return CommandResult(csv, report, code)


def _cmd_metric(args: argparse.Namespace) -> CommandResult:
    from .profile import ProfileParams

    params = ProfileParams(
        m1=args.m1, m2=args.m2, d_n=args.d_n, r=args.r, n=args.n, fano_index=args.fano_index
    )
    return _profile_result(params, args)


def _cmd_metric_from_ray(args: argparse.Namespace) -> CommandResult:
    from .core import ReebRay
    from .profile import profile_params_from_ray

    join, notes = _parse_join(args)
    ray = ReebRay(args.v1, args.v2)
    params, data = profile_params_from_ray(join, ray, r=args.r)
    return _profile_result(params, args, {"join": join, "ray": ray, "quotient": data, "notes": notes})


def _cmd_h1(args: argparse.Namespace) -> dict:
    from .classifier import h1_signed

    return {"h1_signed": h1_signed(args.s, args.volume, args.n_half)}


def _cmd_replay(args: argparse.Namespace) -> CommandResult:
    from .goldens import default_checks, replay_tables

    outcomes = replay_tables(default_checks())
    failures = [o for o in outcomes if not o.ok]
    code = EXIT_OK if not failures else EXIT_MISMATCH
    if args.format == "json":
        record = {
            "checks": [
                {"id": o.check.check_id, "op": o.check.op, "args": o.check.args,
                 "expected": o.check.expected, "got": o.got, "ok": o.ok}
                for o in outcomes
            ],
            "passed": len(outcomes) - len(failures),
            "failed": len(failures),
        }
        return CommandResult(record, code=code)
    lines = []
    for o in outcomes:
        if o.ok:
            lines.append(f"PASS {o.check.check_id}")
        else:
            lines.append(f"FAIL {o.check.check_id} expected={o.check.expected!r} got={o.got!r}")
    lines.append(f"{len(outcomes) - len(failures)}/{len(outcomes)} checks passed")
    return CommandResult("\n".join(lines) + "\n", code=code)


def _entry_to_argv(entry: dict) -> list[str]:
    """argv for one config entry; each key becomes its option, "--" + key with "_" as "-".

    A key whose value is null is left out, so its option takes its default."""
    if not isinstance(entry, dict) or "command" not in entry:
        raise InvalidParameterError(f"config entry {entry!r} is not an object with a 'command' key")
    argv = [str(entry["command"])]
    for key, value in entry.items():
        if key != "command" and value is not None:
            argv += ["--" + str(key).replace("_", "-"), str(value)]
    return argv


def _run_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    """The top parser's handler: usage when no command is named, else the `--config` batch."""
    if args.config is None:
        return CommandResult(stderr=parser.format_usage(), code=EXIT_VALIDATION)
    import json

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # missing or unreadable file, malformed JSON
        raise InvalidParameterError(f"cannot read config {args.config!r}: {exc}") from exc
    entries = payload.get("commands") if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise InvalidParameterError("config must be a list of commands or {'commands': [...]}")
    results = []
    worst = EXIT_OK
    for entry in entries:
        argv = _entry_to_argv(entry)
        usage = io.StringIO()
        try:
            # help and version actions print to stdout, which holds only the batch's JSON
            with contextlib.redirect_stderr(usage), contextlib.redirect_stdout(io.StringIO()):
                ns = parser.parse_args(argv)
                if ns.command is None:  # an entry such as "--config=other.json" names no command
                    parser.error("a batch entry must name a command")
        except SystemExit as exc:  # argparse rejected the entry's flags, or printed and exited
            # its last line is the reason; the usage above it wraps to the terminal
            reason = usage.getvalue().strip().rpartition("\n")[2]
            res = CommandResult(stderr=reason or "help and version are not run in a batch",
                                code=int(exc.code or 2))
        else:
            res = _run(ns)
        results.append({"command": entry.get("command"), "exit_code": res.code,
                        "stdout": res.stdout, "stderr": res.stderr})
        worst = max(worst, res.code)
    return CommandResult(results, code=worst)


def _run(args: argparse.Namespace) -> CommandResult:
    """Run the command `args` names, with its records written as JSON and its error as a record."""
    try:
        result = args.handler(args)
    except SasconeError as exc:
        result = CommandResult(stderr={"error": {"type": type(exc).__name__, "message": str(exc)}},
                               code=exit_code_for(exc))
    if not isinstance(result, CommandResult):
        result = CommandResult(result)
    if isinstance(result.stdout, str) and isinstance(result.stderr, str):
        return result  # text output loads no `emit`
    from .emit import emit_json
    return CommandResult(*(o if isinstance(o, str) else emit_json(o) for o in result[:2]), result.code)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None and args.command is not None:
        parser.error(f"argument --config: not allowed with the command {args.command!r}")
    result = _run(args)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    return result.code


if __name__ == "__main__":
    raise SystemExit(main())
