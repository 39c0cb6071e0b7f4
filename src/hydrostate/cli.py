"""Command-line entry point: solve, estimate, bounds, gen, train, classify.

Every subcommand is a pure function of its input files, flags and seed, and
prints a stable-ordered JSON (or CSV) report, so repeated invocations are
byte-identical. Option precedence is flags > config file > defaults; the
config file is named by --config or the HYDROSTATE_CONFIG environment
variable.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import report_io
from .errors import HydrostateError, ValidationError
from .errorlimits import sensitivity_bound, uncertainty_vector
from .estimator import DEFAULT_OMEGA, DEFAULT_TOL_X, estimate_state
from .fuzzy import DEFAULT_GAMMA, DEFAULT_THETA, ClassifierModel
from .fuzzy import classify as classify_pattern, train as train_model
from .hydraulics import DEFAULT_MAX_ITER, DEFAULT_TOL_R, solve_steady_state
from .scenarios import generate

CONFIG_ENV = "HYDROSTATE_CONFIG"


@dataclass
class RunConfig:
    """The options a flag or the config file may set, with their defaults."""

    tol_r: float = DEFAULT_TOL_R
    tol_x: float = DEFAULT_TOL_X
    max_iter: int = DEFAULT_MAX_ITER
    omega: float = DEFAULT_OMEGA
    theta: float = DEFAULT_THETA
    gamma: float = DEFAULT_GAMMA
    seed: int | None = None
    format: str = "json"

    def validate(self) -> str | None:
        if not self.tol_r > 0 or not self.tol_x > 0:
            return "tolerances must be > 0"
        if self.max_iter < 1:
            return "max-iter must be >= 1"
        if not 0 < self.omega <= 1.5:
            return "omega must be in (0, 1.5]"
        if not 0 < self.theta <= 1:
            return "theta must be in (0, 1]"
        if not 0 < self.gamma < math.inf:
            return "gamma must be a finite number > 0"
        if self.seed is not None and self.seed < 0:
            return "seed must be >= 0"
        if self.format not in ("json", "csv"):
            return "format must be 'json' or 'csv'"
        return None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-r", type=float, default=None, help="residual tolerance")
    common.add_argument("--tol-x", type=float, default=None, help="step tolerance")
    common.add_argument("--max-iter", type=int, default=None, help="iteration budget")
    common.add_argument("--omega", type=float, default=None, help="relaxation factor in (0, 1.5]")
    common.add_argument("--theta", type=float, default=None, help="maximum cell side length")
    common.add_argument("--gamma", type=float, default=None, help="membership ramp slope")
    common.add_argument("--seed", type=int, default=None, help="seed override")
    common.add_argument("--format", choices=["json", "csv"], default=None, help="report format")
    common.add_argument("--out", default=None, help="output file (default: stdout)")
    common.add_argument("--config", default=None, help="config file (overrides $HYDROSTATE_CONFIG)")

    parser = argparse.ArgumentParser(
        prog="hydrostate",
        description="Pipe-network state estimation, interval error limits and anomaly classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("solve", parents=[common], help="steady-state solve of a network file")
    p.add_argument("network")

    p = sub.add_parser("estimate", parents=[common], help="weighted least-squares state estimate")
    p.add_argument("network")
    p.add_argument("measurements")

    p = sub.add_parser("bounds", parents=[common], help="interval error limits around the estimate")
    p.add_argument("network")
    p.add_argument("measurements")

    p = sub.add_parser("gen", parents=[common], help="generate labeled patterns from a scenario spec")
    p.add_argument("network")
    p.add_argument("spec")

    p = sub.add_parser("train", parents=[common], help="train a cell classifier from labeled patterns")
    p.add_argument("patterns")

    p = sub.add_parser("classify", parents=[common], help="classify patterns with a trained model")
    p.add_argument("model")
    p.add_argument("patterns")

    return parser


def _resolve_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    config_path = args.config or os.environ.get(CONFIG_ENV)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_values, dict):
            parser.error(f"config file {config_path} must hold a JSON object")

    merged = {}
    for f in fields(RunConfig):
        key = f.name
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
        elif key in file_values:
            value = file_values[key]
            # A JSON integer may stand for a float; a boolean stands for neither.
            expected = (int, float) if f.type is float else f.type
            if isinstance(value, bool) or not isinstance(value, expected):
                name = getattr(f.type, "__name__", f.type)
                parser.error(
                    f"config file {config_path}: {key} must be {name}, got {json.dumps(value)}"
                )
            merged[key] = value
    cfg = RunConfig(**merged)
    problem = cfg.validate()
    if problem:
        parser.error(problem)
    return cfg


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_state(args, cfg: RunConfig, net, report, norm: str) -> None:
    """The report of a solve or an estimate: its state, iterations,
    convergence and the final residual norm named `norm`."""
    doc = report_io.state_doc(net, report.state)
    doc["iterations"] = report.iterations
    doc[norm] = getattr(report, norm)
    doc["converged"] = report.converged
    text = report_io.state_csv(doc) if cfg.format == "csv" else report_io.dumps(doc)
    _emit(text, args.out)


def _decode_and_estimate(args, cfg: RunConfig):
    """The network, the measurements and the estimate from them."""
    net = report_io.decode_network(_read(args.network))
    meas = report_io.decode_measurement_set(_read(args.measurements), net)
    report = estimate_state(
        net, meas, tol_x=cfg.tol_x, max_iter=cfg.max_iter, omega=cfg.omega
    )
    return net, meas, report


def _cmd_solve(args, cfg: RunConfig) -> None:
    net = report_io.decode_network(_read(args.network))
    report = solve_steady_state(net, tol_r=cfg.tol_r, max_iter=cfg.max_iter)
    _emit_state(args, cfg, net, report, "residual_norm")


def _cmd_estimate(args, cfg: RunConfig) -> None:
    net, _, report = _decode_and_estimate(args, cfg)
    _emit_state(args, cfg, net, report, "weighted_residual_norm")


def _cmd_bounds(args, cfg: RunConfig) -> None:
    net, meas, report = _decode_and_estimate(args, cfg)
    interval = sensitivity_bound(net, meas, report.state, uncertainty_vector(net, meas))
    if cfg.format == "csv":
        text = report_io.interval_csv(net, interval)
    else:
        text = report_io.encode_interval_state(net, interval)
    _emit(text, args.out)


def _cmd_gen(args, cfg: RunConfig) -> None:
    net = report_io.decode_network(_read(args.network))
    spec = report_io.decode_scenario_spec(_read(args.spec))
    if cfg.seed is not None:
        spec = replace(spec, seed=cfg.seed)
    patterns, manifest = generate(net, spec)
    out = args.out or "patterns.json"
    _emit(report_io.encode_patterns(patterns, manifest), out)
    summary = {
        "classes": manifest["classes"],
        "failures": len(manifest["failures"]),
        "out": out,
        "patterns": len(patterns),
    }
    text = report_io.gen_csv(manifest) if cfg.format == "csv" else report_io.dumps(summary)
    sys.stdout.write(text)


def _cmd_train(args, cfg: RunConfig) -> None:
    entries, manifest = report_io.decode_patterns(_read(args.patterns))
    if not entries:
        raise HydrostateError("pattern file holds no patterns")
    if any(label is None for _, label in entries):
        raise HydrostateError("training requires a label on every pattern")

    model = ClassifierModel.create(entries[0][0].n_dims, theta=cfg.theta, gamma=cfg.gamma)
    if manifest and "normalization" in manifest:
        ranges = report_io.decode_ranges(manifest["normalization"], "/manifest/normalization")
        try:
            model = replace(model, normalization=ranges)
        except ValidationError as exc:
            raise exc.within("/manifest") from exc
    model = train_model(model, entries)

    out = args.out or "model.json"
    _emit(report_io.encode_model(model), out)
    summary = {
        "cells": len(model.cells),
        "labels": list(model.labels),
        "out": out,
        "theta": model.theta,
    }
    text = report_io.train_csv(model) if cfg.format == "csv" else report_io.dumps(summary)
    sys.stdout.write(text)


def _cmd_classify(args, cfg: RunConfig) -> None:
    model = report_io.decode_model(_read(args.model))
    entries, _ = report_io.decode_patterns(_read(args.patterns), model.n_dims)
    results = [asdict(classify_pattern(model, pattern)) for pattern, _ in entries]
    if cfg.format == "csv":
        text = report_io.classify_csv(results)
    else:
        text = report_io.dumps({"results": results})
    _emit(text, args.out)


_COMMANDS = {
    "solve": _cmd_solve,
    "estimate": _cmd_estimate,
    "bounds": _cmd_bounds,
    "gen": _cmd_gen,
    "train": _cmd_train,
    "classify": _cmd_classify,
}


def main(argv=None) -> int:
    """Run one subcommand, from `argv` or else `sys.argv[1:]`; returns the
    process exit status.

    0 on success, 1 on domain errors (with a JSON error object on stdout),
    2 on usage errors (argparse reports those itself). Floating-point
    warnings are silenced: the stages check their own results, so a failure
    report is the JSON object alone.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _resolve_config(parser, args)
    try:
        with np.errstate(all="ignore"):
            _COMMANDS[args.command](args, cfg)
    except HydrostateError as exc:
        sys.stdout.write(
            report_io.dumps({"error": type(exc).__name__, "detail": str(exc)})
        )
        return 1
    except OSError as exc:
        sys.stdout.write(report_io.dumps({"error": "FileError", "detail": str(exc)}))
        return 1
    return 0
