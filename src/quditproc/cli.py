"""Command-line interface: run scenario sweeps and describe catalog operators.

Exit codes: 0 success, 1 a report row failed its tolerance, 2 config error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .harness import (
    MAX_TRIALS,
    ConfigError,
    _load_json,
    describe_operator,
    load_bundled_config,
    load_config_file,
    parse_config,
    report_csv,
    report_json,
    run_scenario,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2

BUNDLED_CONFIGS = ("paper-claims",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditproc",
        description="Simulate a probabilistic programmable qudit processor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config and write a report")
    run_p.add_argument(
        "--config",
        required=True,
        help="path to a JSON config file, or a bundled name (e.g. 'paper-claims')",
    )
    run_p.add_argument("--out", help="write the report here instead of stdout")
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.add_argument("--seed", type=int, help="override the config's seed (u64)")
    run_p.add_argument(
        "--trials", type=int, help=f"override every scenario's trial count, 1 to MAX_TRIALS = {MAX_TRIALS}"
    )

    desc_p = sub.add_parser(
        "describe",
        help="print an operator's matrix, coefficient table and predicted probabilities",
    )
    desc_p.add_argument("name", help="catalog operator name, or 'inline' with --param matrix=...")
    desc_p.add_argument("--dim", type=int, help="qudit dimension (required unless implied)")
    desc_p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="operator parameter; VALUE (or @FILE, read from FILE) is JSON, so a string is quoted",
    )
    desc_p.add_argument("--out", help="write the description here instead of stdout")
    return parser


def _parse_params(pairs) -> dict:
    """Each --param KEY=VALUE as params[KEY], VALUE read as JSON; a VALUE of @FILE is read from FILE."""
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--param needs KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        if key in params:
            raise ConfigError(f"--param {key} is given twice")
        what = f"--param {key}"
        if raw.startswith("@"):
            what = f"--param {key} file {raw[1:]!r}"
            try:
                with open(raw[1:], "r", encoding="utf-8") as fh:
                    raw = fh.read()
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read --param {key} file: {exc}") from exc
        params[key] = _load_json(raw, what)
    return params


@contextlib.contextmanager
def _output(out_path: str | None):
    """The stream the output goes to: stdout, or the --out file opened on entry.

    An --out file that cannot be opened or written is a ConfigError.
    """
    if out_path is None:
        yield sys.stdout
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write --out file: {exc}") from exc


def _row_line(row) -> str:
    """A row's progress line on stderr, the only place its wall time is shown."""
    fid = "-" if row.min_oracle_fidelity is None else format(row.min_oracle_fidelity, ".12g")
    return (
        f"[{'ok' if row.passed else 'FAIL'}] {row.id}: p={row.simulated_probability_mean:.12g} "
        f"dev={row.max_probability_deviation:.3g} fid={fid} ({row.wall_time_ms:.1f} ms)"
    )


def _cmd_run(args) -> int:
    load = load_bundled_config if args.config in BUNDLED_CONFIGS else load_config_file
    doc = load(args.config)
    # A config error leaves no --out file, and an unwritable one fails before any scenario runs.
    seed, scenarios = parse_config(doc, args.seed, args.trials)
    config_name = doc.get("name", args.config)
    with _output(args.out) as out:
        rows = []
        for index, scn in enumerate(scenarios):
            row = run_scenario(scn, seed, index)
            print(_row_line(row), file=sys.stderr)
            rows.append(row)
        out.write(report_json(rows, seed, config_name) if args.format == "json" else report_csv(rows))
    failures = [r for r in rows if not r.passed]
    if failures:
        print(f"{len(failures)} scenario(s) failed:", file=sys.stderr)
        for row in failures:
            print(
                f"  {row.id}: simulated {row.simulated_probability_mean!r}, "
                f"max deviation {row.max_probability_deviation!r}, "
                f"tolerance {row.tolerance!r}",
                file=sys.stderr,
            )
        return EXIT_ASSERTION
    return EXIT_OK


def _cmd_describe(args) -> int:
    doc = describe_operator(args.name, args.dim, _parse_params(args.param))
    with _output(args.out) as out:
        out.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_describe(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
