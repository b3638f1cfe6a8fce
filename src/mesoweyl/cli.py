"""Command-line front end: regenerate figure data, run verification suites.

Exit codes: 0 success, 1 failed verification, 2 invalid config or an
output location that cannot be written, 3 non-convergent truncation,
4 output consists of singular points only.

Environment: MESOWEYL_OUT overrides the output directory (and nothing else).
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, experiments
from .exceptions import DIM_CAP, TruncationError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_ALL_SINGULAR = 4


# the names of verify.SUITES, kept here so that parsing a command line never
# imports the oracle and scipy with it; a test holds the two lists equal
VERIFY_SUITES = ("autocorr", "flux-stats", "squid", "twomode", "weyl-oracle")


class ConfigError(ValueError):
    pass


# rows joined per write: the file text is never held whole
CSV_BLOCK_ROWS = 4096


def write_csv(path: str, columns, rows) -> None:
    """Comma-separated, header row, LF endings, shortest-roundtrip floats.

    rows is a float table of shape (n_rows, len(columns)); each cell reads as
    ``repr(float(cell))``.  Each column is formatted once per distinct value,
    keyed on its bits, so -0.0 stays apart from 0.0, and each text carries
    the separator that follows it ("," or, in the last column, "\n").  A
    block of rows is gathered into one (rows, columns) table of those texts
    and written as one join.
    """
    rows = np.asarray(rows, dtype=float)
    texts, codes = [], []
    for j, col in enumerate(rows.T):
        bits, inverse = np.unique(col.view(np.uint64), return_inverse=True)
        end = "\n" if j == len(columns) - 1 else ","
        texts.append(np.array([repr(v) + end for v in bits.view(float).tolist()], dtype=object))
        codes.append(inverse)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(0, len(rows), CSV_BLOCK_ROWS):
            cells = np.empty((min(CSV_BLOCK_ROWS, len(rows) - i), len(texts)), dtype=object)
            for j, (text, code) in enumerate(zip(texts, codes)):
                cells[:, j] = text[code[i:i + CSV_BLOCK_ROWS]]
            fh.write("".join(cells.ravel().tolist()))


def write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict) or "experiment" not in config:
        raise ConfigError("config must be a JSON object with an 'experiment' key")
    unknown = set(config) - {"experiment", "params", "out_dir"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if not isinstance(config.get("params", {}), dict):
        raise ConfigError("'params' must be an object")
    return config


def _cmd_run(args) -> int:
    if args.config:
        try:
            config = load_config(args.config)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG
    elif args.experiment:
        config = {"experiment": args.experiment, "params": {}}
    else:
        print("error: give an experiment name or --config PATH", file=sys.stderr)
        return EXIT_BAD_CONFIG

    name = config["experiment"]
    out_dir = os.environ.get("MESOWEYL_OUT") or args.out or config.get("out_dir") or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        result = experiments.run_experiment(name, config.get("params", {}), args.dim_cap)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    if len(result.rows) and result.n_singular >= len(result.rows):
        print("error: every requested point is singular", file=sys.stderr)
        return EXIT_ALL_SINGULAR

    csv_path = os.path.join(out_dir, f"{name}.csv")
    manifest = dict(result.manifest)
    manifest.update(
        {
            "version": __version__,
            "columns": result.columns,
            "n_rows": len(result.rows),
            "n_singular": result.n_singular,
        }
    )
    try:
        write_csv(csv_path, result.columns, result.rows)
        write_manifest(os.path.join(out_dir, f"{name}.manifest.json"), manifest)
    except OSError as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    print(f"wrote {csv_path} ({len(result.rows)} rows, {result.n_singular} singular)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify

    try:
        report = verify.run_suite(args.suite, args.dim_cap)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def _cmd_list(args) -> int:
    for name in sorted(experiments.EXPERIMENTS, key=_fig_key):
        exp = experiments.EXPERIMENTS[name]
        print(f"{name:8s} {exp.description}")
    return EXIT_OK


def _fig_key(name: str):
    return int(name.replace("fig", ""))


def _dim_cap(text: str) -> int:
    cap = int(text)
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {cap}")
    return cap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mesoweyl",
        description="figure-data regeneration and oracle verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and write CSV + manifest")
    p_run.add_argument("experiment", nargs="?", help="experiment name (see list-experiments)")
    p_run.add_argument("--config", help="JSON config path")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--dim-cap", type=_dim_cap, default=DIM_CAP, help="Fock truncation cap")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="run an oracle-equivalence suite")
    p_ver.add_argument("suite", choices=VERIFY_SUITES)
    p_ver.add_argument("--dim-cap", type=_dim_cap, default=DIM_CAP, help="Fock truncation cap")
    p_ver.set_defaults(func=_cmd_verify)

    p_list = sub.add_parser("list-experiments", help="list shipped experiments")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
