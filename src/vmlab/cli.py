"""Command-line front end.

    vmlab norm        --scenario PATH|PRESET [--restarts N]
    vmlab converge    {martingale|basis|rn} --scenario ... [--levels L] [--family F]
    vmlab daugavet    --scenario ... [--sweep 4,64,1024] [--sign -1]
    vmlab identity    --scenario ... [--lam 1.0]
    vmlab series-gap  --scenario ... [--sign -1] [--samples 64]
    vmlab report      --scenario ...          run the scenario's own experiment
    vmlab preset      NAME [--out PATH]       dump a builtin scenario as JSON

Common flags: --scenario (path or preset name), --out, --format {json,csv};
--seed, --exact-cutoff, --tolerance only where the kind takes them (all on
report).  Every flag given goes into the experiment section before the one
build, and ``harness.run`` takes only the scenario, so the report's echoed
scenario reruns it.  Exit codes: 0 success; 1 validation,
parse, usage or write error, or a report error section (such as a
floating-point overflow); 2 capacity error (recorded in the report).
Any report error section is also named on stderr: ``error: TYPE: MESSAGE``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ParseError, ValidationError
from .harness import EXPERIMENTS, PRESETS, build_scenario, emit, read_scenario, run


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as parse errors do; 2 is kept for capacity errors.

    Subparsers are built from the same class, so they inherit this.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # an unknown flag is an error of the subcommand that was given it
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _atom_counts(text: str) -> list:
    """The --sweep value; harness validation judges the counts themselves."""
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _add_common(parser: argparse.ArgumentParser, *kinds: str):
    """The flags every subcommand has, and each setting one of ``kinds`` takes."""
    parser.add_argument("--scenario", required=True, help="scenario file or preset name")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", default="json", choices=("json", "csv"))
    for key, type_ in (("seed", int), ("exact_cutoff", int), ("tolerance", float)):
        if any(key in EXPERIMENTS[kind][1] for kind in kinds):
            parser.add_argument("--" + key.replace("_", "-"), dest=key, type=type_, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vmlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="norm table for every scenario function")
    _add_common(p, "norm")
    p.add_argument("--restarts", type=int, default=None)

    p = sub.add_parser("converge", help="net convergence diagnostics")
    p.add_argument("net", choices=("martingale", "basis", "rn"))
    _add_common(p, "martingale", "basis", "rn_net")
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--family", choices=("coordinate", "expectation"), default=None)

    p = sub.add_parser("daugavet", help="rank-one Daugavet defect sweep")
    _add_common(p, "daugavet")
    p.add_argument("--sweep", type=_atom_counts, default=None, help="comma-separated atom counts")
    p.add_argument("--sign", type=int, choices=(-1, 1), default=None)

    p = sub.add_parser("identity", help="combined-norm density identity check")
    _add_common(p, "identity")
    p.add_argument(
        "--lambda",
        "--lam",
        dest="lambda",
        type=float,
        default=None,
        help="coefficient of the second map",
    )

    p = sub.add_parser("series-gap", help="distance of the map to a partial operator sum")
    _add_common(p, "series_gap")
    p.add_argument("--sign", type=int, choices=(-1, 1), default=None)
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("report", help="run the experiment stored in the scenario")
    _add_common(p, *EXPERIMENTS)

    p = sub.add_parser("preset", help="dump a builtin scenario as JSON")
    p.add_argument("name", choices=sorted(PRESETS))
    p.add_argument("--out", default=None)
    return parser


def _experiment(args, raw: dict) -> dict:
    """The experiment section a run records, every flag given copied in.

    ``report`` keeps the scenario's section; another subcommand replaces it,
    keeping those of the file's ``seed``, ``exact_cutoff`` and ``tolerance``
    that the new kind takes.  Harness validation rejects flags the kind does
    not take.
    """
    exp = raw.get("experiment")
    exp = exp if isinstance(exp, dict) else {}
    if args.command != "report":
        kind = args.command.replace("-", "_")
        if kind == "converge":
            kind = "rn_net" if args.net == "rn" else args.net
        kept = {"seed", "exact_cutoff", "tolerance"} & EXPERIMENTS[kind][1].keys()
        exp = {**{k: v for k, v in exp.items() if k in kept}, "kind": kind}
    keys = {key for _, params in EXPERIMENTS.values() for key in params}
    return {**exp, **{k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            emit(PRESETS[args.name], "json", args.out)
            return 0
        raw = PRESETS.get(args.scenario) or read_scenario(args.scenario)
        if isinstance(raw, dict):
            raw = {**raw, "experiment": _experiment(args, raw)}
        report = run(build_scenario(raw))
        emit(report, args.format, args.out)
        if error := report.get("error"):
            print(f"error: {error['type']}: {error['message']}", file=sys.stderr)
            return 2 if error["type"] == "CapacityExceeded" else 1
        return 0
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
