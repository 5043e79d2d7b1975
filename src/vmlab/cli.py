"""Command-line front end.

    vmlab norm        --scenario PATH|PRESET [--restarts N]
    vmlab converge    {martingale|basis|rn} --scenario ... [--levels L] [--family F]
    vmlab daugavet    --scenario ... [--sweep 4,64,1024] [--sign -1]
    vmlab identity    --scenario ... [--lam 1.0]
    vmlab series-gap  --scenario ... [--sign -1] [--samples 64]
    vmlab report      --scenario ...          run the scenario's own experiment
    vmlab preset      NAME [--out PATH]       dump a builtin scenario as JSON

Common flags: --scenario (path or preset name), --out, --format {json,csv}.
A subcommand has the ``_FLAGS`` of the settings its kinds read in
``EXPERIMENTS``, and keeps the file's experiment section when its kind (and
rn_net family) is the file's; else of it only the seed, exact_cutoff and
tolerance its kind takes, report's flags.  Every flag given goes into the
experiment section before the one build, and ``harness.run`` takes only the
scenario, so the report's echoed scenario reruns it.  Exit codes: 0 success;
1 validation, parse, usage or write error, or a report error section (such as
a floating-point overflow); 2 capacity error (recorded in the report).  Any
report error section is also named on stderr: ``error: TYPE: MESSAGE``.
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


# each setting's flag, a subcommand listing those its kinds read in this order
_FLAGS = {
    ("--seed",): dict(type=int),
    ("--exact-cutoff",): dict(type=int),
    ("--tolerance",): dict(type=float),
    ("--restarts",): dict(type=int),
    ("--levels",): dict(type=int),
    ("--family",): dict(choices=("coordinate", "expectation")),
    ("--sweep",): dict(type=_atom_counts, help="comma-separated atom counts"),
    ("--sign",): dict(type=int, choices=(-1, 1)),
    ("--lambda", "--lam"): dict(type=float, help="coefficient of the second map"),
    ("--samples",): dict(type=int),
}
_KEPT = {"seed", "exact_cutoff", "tolerance"}  # what a subcommand keeps from the file: report's flags

_SUBCOMMANDS = {  # name: help, the kinds it runs (report: any)
    "norm": ("norm table for every scenario function", ("norm",)),
    "converge": ("net convergence diagnostics", ("martingale", "basis", "rn_net")),
    "daugavet": ("rank-one Daugavet defect sweep", ("daugavet",)),
    "identity": ("combined-norm density identity check", ("identity",)),
    "series-gap": ("distance of the map to a partial operator sum", ("series_gap",)),
    "report": ("run the experiment stored in the scenario", ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vmlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, kinds) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if name == "converge":
            p.add_argument("net", choices=("martingale", "basis", "rn"))
        p.add_argument("--scenario", required=True, help="scenario file or preset name")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default="json", choices=("json", "csv"))
        settings = set().union(*(EXPERIMENTS[kind][1] for kind in kinds)) if kinds else _KEPT
        for flags, options in _FLAGS.items():
            if flags[0][2:].replace("-", "_") in settings:
                p.add_argument(*flags, default=None, **options)

    p = sub.add_parser("preset", help="dump a builtin scenario as JSON")
    p.add_argument("name", choices=sorted(PRESETS))
    p.add_argument("--out", default=None)
    return parser


def _experiment(args, raw: dict) -> dict:
    """The experiment section a run records, every flag given copied in.

    ``report``, and a subcommand of the scenario's own kind and rn_net family,
    keep the scenario's section; a subcommand of another replaces it, keeping
    those of the file's ``seed``, ``exact_cutoff`` and ``tolerance`` that the
    new kind takes.  Harness validation rejects flags the kind does not take.
    """
    exp = raw.get("experiment")
    exp = exp if isinstance(exp, dict) else {}
    if args.command != "report":
        kind = args.command.replace("-", "_")
        if kind == "converge":
            kind = "rn_net" if args.net == "rn" else args.net
        defaults = EXPERIMENTS[kind][1]
        switched = getattr(args, "family", None) not in (None, exp.get("family", defaults.get("family")))
        if exp.get("kind") != kind or switched:  # of rn_net, the family is part of the kind
            kept = _KEPT & defaults.keys()
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
