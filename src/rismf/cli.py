"""Command line front end.

Subcommands: ``single-user`` (downlink NMSE/SE sweep), ``multi-user``
(uplink NMSE-vs-K sweep), ``overhead`` (minimal pilot counts), ``verify``
(acceptance property suite). A sweep's ``--config`` is a JSON experiment
spec; ``overhead --config`` reads only its ``dims``, checked as a downlink
sweep's. Exit codes: 0 success, 1 invalid spec or usage, 2 I/O error, 3 a
criterion that FAILs or XPASSes (an expected failure that passed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter

import numpy as np

from .experiments import (
    ExperimentSpec,
    _SNR_GRID_DB,
    _sweep_dims,
    aggregate_nmse,
    overhead_table,
    run_sweep,
    write_results,
)

_DEFAULT_DIMS = dict(n_bs=32, m_ris=50)


class _Parser(argparse.ArgumentParser):
    # usage errors are "invalid spec" (1), not I/O (2)
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_spec(scenario: str) -> ExperimentSpec:
    if scenario == "single_user_downlink":
        return ExperimentSpec(
            scenario=scenario,
            dims=_DEFAULT_DIMS,
            snr_grid_db=list(_SNR_GRID_DB),
            k_grid=[400],
            estimators=("MF_AM", "LR"),
            n_trials=200,
        )
    return ExperimentSpec(
        scenario=scenario,
        dims={**_DEFAULT_DIMS, "q_users": 5, "t_symbols": 5},
        snr_grid_db=[10.0],
        k_grid=[50, 100, 200, 400],
        n_trials=200,
    )


def _read_config(path: str) -> dict:
    """The JSON object stored at ``path``; anything else is an invalid spec."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object, not {type(raw).__name__}")
    return raw


def _load_spec(args, scenario: str) -> ExperimentSpec:
    if args.config is None:
        spec = _default_spec(scenario)
    else:
        raw = _read_config(args.config)
        raw.setdefault("scenario", scenario)
        if raw["scenario"] != scenario:
            raise ValueError(
                f"config scenario {raw['scenario']!r} does not match subcommand"
            )
        spec = ExperimentSpec.from_dict(raw)
    overrides = {"master_seed": args.seed, "n_trials": args.trials}
    return dataclasses.replace(spec, **{k: v for k, v in overrides.items() if v is not None})


def _print_summary(records):
    feasible = [r for r in records if r.nmse is not None]
    skipped = len(records) - len(feasible)
    print(f"{len(records)} records ({skipped} infeasible)")
    cells = sorted({(r.estimator, r.snr_db, r.k) for r in feasible})
    for estimator, snr_db, k in cells:
        cell = [r for r in feasible if (r.estimator, r.snr_db, r.k) == (estimator, snr_db, k)]
        # no per-trial mean: it is not finite under the scalar fade
        print(f"  {estimator:6s} snr {snr_db:+6.1f} dB  K {k:5d}  "
              f"aggregate NMSE {aggregate_nmse(cell):.4e}  "
              f"median NMSE {np.median([r.nmse for r in cell]):.4e}  ({len(cell)} trials)")


def _cmd_sweep(args, scenario: str) -> int:
    spec = _load_spec(args, scenario)
    records = run_sweep(spec, n_threads=args.threads)
    out = args.out or f"{scenario}.{args.format}"
    write_results(records, out, format=args.format, spec=spec)
    _print_summary(records)
    print(f"wrote {out}")
    return 0


def _cmd_overhead(args) -> int:
    if args.config is None:
        dims = _DEFAULT_DIMS
    else:
        raw = _read_config(args.config)
        if "dims" not in raw:
            raise ValueError(f"config {args.config} has no 'dims' key")
        dims = raw["dims"]
    table = overhead_table(_sweep_dims("single_user_downlink", dims))
    if args.format == "json":
        body = json.dumps(table, indent=1) + "\n"
    else:
        rows = [f"{name},{pilots}" for name, pilots in table.items()]
        body = "estimator,min_pilots\n" + "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(body)
        print(f"wrote {args.out}")
    else:
        print(body, end="")
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import select_criteria

    tally = Counter()  # statuses in order of first appearance
    for criterion in select_criteria(args.criteria):
        result = criterion.run()
        print(result.line)
        tally[result.status] += 1
    total = sum(tally.values())
    if tally["PASS"] == total:
        print(f"all {total} criteria passed")
    else:
        counts = ", ".join(f"{count} {status}" for status, count in tally.items())
        print(f"{total} criteria: {counts}")
    return 3 if tally["FAIL"] or tally["XPASS"] else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="rismf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON experiment spec")
        p.add_argument("--out", help="output path (default <scenario>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--trials", type=int, help="trials-per-cell override")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted; cells run in order")

    add_common(sub.add_parser("single-user", help="downlink estimation sweep"))
    add_common(sub.add_parser("multi-user", help="uplink multi-user sweep"))

    overhead = sub.add_parser("overhead", help="minimal pilot overhead table")
    overhead.add_argument("--config", help="JSON with a dims object")
    overhead.add_argument("--out", help="output path (default: stdout)")
    overhead.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = sub.add_parser("verify", help="run the acceptance property suite")
    verify.add_argument("criteria", nargs="*", help="criterion names (default: all)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "single-user":
            return _cmd_sweep(args, "single_user_downlink")
        if args.command == "multi-user":
            return _cmd_sweep(args, "multi_user_uplink")
        if args.command == "overhead":
            return _cmd_overhead(args)
        return _cmd_verify(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
