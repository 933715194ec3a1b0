"""Command-line interface: run scenario sweeps and describe catalog operators.

Exit codes: 0 success, 1 a report row failed its tolerance, 2 config error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .harness import (
    ConfigError,
    describe_operator,
    load_bundled_config,
    load_config_file,
    parse_config,
    report_csv,
    report_json,
    run_config,
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
    run_p.add_argument("--trials", type=int, help="override every scenario's trial count")

    desc_p = sub.add_parser(
        "describe",
        help="print an operator's matrix, coefficient table and predicted probabilities",
    )
    desc_p.add_argument("name", help="catalog operator name, or 'inline' with --matrix")
    desc_p.add_argument("--dim", type=int, help="qudit dimension (required unless implied)")
    desc_p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="operator parameter; VALUE parsed as JSON, falling back to a string",
    )
    desc_p.add_argument("--matrix", help="inline matrix as JSON [[..,[re,im],..],..] or @file")
    desc_p.add_argument("--out", help="write the description here instead of stdout")
    return parser


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--param needs KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except (ValueError, RecursionError):
            params[key] = raw
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


def _cmd_run(args) -> int:
    if args.config in BUNDLED_CONFIGS:
        doc = load_bundled_config(args.config)
        config_name = args.config
    else:
        doc = load_config_file(args.config)
        config_name = doc.get("name", args.config)
    # A config error leaves no --out file, and an unwritable one fails before any scenario runs.
    parse_config(doc, args.seed, args.trials)
    with _output(args.out) as out:
        seed, rows = run_config(doc, args.seed, args.trials, log=sys.stderr)
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
    params = _parse_params(args.param)
    if args.matrix is not None:
        raw = args.matrix
        if raw.startswith("@"):
            try:
                with open(raw[1:], "r", encoding="utf-8") as fh:
                    raw = fh.read()
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read matrix file: {exc}") from exc
        try:
            params["matrix"] = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"--matrix is not valid JSON: {exc}") from exc
    doc = describe_operator(args.name, args.dim, params)
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
