"""Command line driver: config ingestion, reproducible runs, artifacts.

One JSON document configures everything.  Top-level keys are `seed`, `out`,
`jobs` plus the per-command blocks `model`, `kernel`, `spde`, `study`;
unknown keys anywhere are an error.  Each run writes

    <out>/<name>/<timestamp>/raw.csv      bare header + rows, %.17g floats
    <out>/<name>/<timestamp>/report.json  verdict, checks, fitted slopes
    <out>/<name>/<timestamp>/config.json  the resolved configuration

report.json embeds the seed, the code version, the resolved config, and the
sha256 of raw.csv, so the directory is self-describing.  `cmd_study` times
the study runner itself and prints the wall-clock time to stdout only; the
runners and their reports carry no timing.  Identical (config, seed) must
give identical artifact bytes no matter how many worker processes ran, so
the parallelism degree is likewise kept out of the resolved config.

Exit codes: 0 success, 2 study verdict fail, 1 configuration/runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .fields import DensityField, sobolev_norm, weighted_field_values
from .particles import (ConfigurationError, ModelParams, TimeStepError,
                        chaos_distance, simulate_coupled)
from .spde import DivergenceError, SpdeConfig, solve_spde, total_mass
from .studies import STUDY_REGISTRY, config_from_dict, potential_from_config
from .torus import ResolutionError, TorusGeometry, make_kernel

TOP_LEVEL_KEYS = {"seed", "out", "jobs", "model", "kernel", "spde", "study"}
MODEL_EXTRA_KEYS = {"potential", "n_replicas", "n_snapshots"}


class CliError(Exception):
    """Configuration or usage error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# serialization helpers


def _sanitize(obj):
    """Make a config/report tree JSON-safe (numpy scalars, inf, tuples)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def rows_to_csv(rows: list[dict]) -> bytes:
    """Header plus rows; columns in first-appearance order, %.17g floats."""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col, "")
            if isinstance(v, (bool, np.bool_)):
                cells.append("1" if v else "0")
            elif isinstance(v, (float, np.floating)):
                cells.append(f"{float(v):.17g}")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def write_artifacts(out_root: Path, name: str, rows: list[dict],
                    report: dict, resolved_config: dict) -> Path:
    raw = rows_to_csv(rows)
    report = dict(report)
    report["code_version"] = __version__
    report["raw_csv_sha256"] = hashlib.sha256(raw).hexdigest()
    report["resolved_config"] = _sanitize(resolved_config)

    base = out_root / name
    base.mkdir(parents=True, exist_ok=True)
    while True:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
        run_dir = base / stamp
        try:
            run_dir.mkdir()
            break
        except FileExistsError:
            continue
    (run_dir / "raw.csv").write_bytes(raw)
    (run_dir / "report.json").write_text(
        json.dumps(_sanitize(report), indent=2, sort_keys=True) + "\n")
    (run_dir / "config.json").write_text(
        json.dumps(_sanitize(resolved_config), indent=2, sort_keys=True) + "\n")
    return run_dir


# ---------------------------------------------------------------------------
# config ingestion


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError("config must be a JSON object")
    unknown = set(data) - TOP_LEVEL_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    return data


def _strict_block(block: dict, allowed: set, what: str) -> dict:
    if not isinstance(block, dict):
        raise CliError(f"{what} block must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise CliError(f"unknown {what} keys: {sorted(unknown)}")
    return block


def model_from_block(block: dict):
    names = {f.name for f in dataclasses.fields(ModelParams)}
    block = _strict_block(block, names | MODEL_EXTRA_KEYS, "model")
    try:
        w = potential_from_config(block.get("potential", "cos"))
        params = config_from_dict(ModelParams, {k: v for k, v in block.items() if k in names})
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad model config: {exc}") from exc
    n_replicas = block.get("n_replicas", 16)
    n_snapshots = block.get("n_snapshots", 10)
    if not all(type(n) is int and n >= 1 for n in (n_replicas, n_snapshots)):
        raise CliError("n_replicas and n_snapshots must be positive integers")
    return params, w, n_replicas, n_snapshots


def kernel_from_block(block: dict):
    block = _strict_block(block, {"epsilon", "n_grid", "oversample"}, "kernel")
    if "epsilon" not in block:
        raise CliError("kernel block needs an epsilon")
    try:
        eps = float(block["epsilon"])
        if "n_grid" in block:
            geometry = TorusGeometry(int(block["n_grid"]))
            geometry.require_admissible(eps)
        else:
            geometry = TorusGeometry.for_epsilon(eps, int(block.get("oversample", 0)))
        return make_kernel(eps, geometry)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad kernel config: {exc}") from exc


def spde_from_block(block: dict):
    names = {f.name for f in dataclasses.fields(SpdeConfig)}
    block = _strict_block(block, names | {"potential"}, "spde")
    kwargs = {k: v for k, v in block.items() if k in names}
    if kwargs.get("n_particles") == "inf":
        kwargs["n_particles"] = math.inf
    try:
        w = potential_from_config(block.get("potential", "cos"))
        cfg = config_from_dict(SpdeConfig, kwargs)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad spde config: {exc}") from exc
    return cfg, w


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(config: dict, seed: int, out_root: Path, jobs: int) -> int:
    params, w, n_replicas, n_snapshots = model_from_block(config.get("model", {}))
    kern = kernel_from_block(config["kernel"]) if "kernel" in config else None
    snap_times = np.linspace(0.0, params.t_horizon, n_snapshots + 1)
    traj = simulate_coupled(params, w, n_replicas=n_replicas,
                            snapshot_times=snap_times, seed=seed)
    dist = chaos_distance(traj)

    rows = []
    for s, t in enumerate(traj.times):
        row = {
            "t": float(t),
            "chaos_distance": float(dist[s]),
            "kinetic_interacting": float(0.5 * (traj.p_int[s] ** 2).mean()),
            "kinetic_meanfield": float(0.5 * (traj.p_mf[s] ** 2).mean()),
        }
        if kern is not None:
            rho = weighted_field_values(traj.q_int[s], np.ones_like(traj.q_int[s]),
                                        kern, kern.geometry)
            norms = [sobolev_norm(DensityField(kern.geometry, v), k=1) for v in rho]
            row["h1_rho_mean"] = float(np.mean(norms))
        rows.append(row)

    resolved = dataclasses.asdict(params)
    resolved.update({"potential": config.get("model", {}).get("potential", "cos"),
                     "n_replicas": n_replicas, "n_snapshots": n_snapshots,
                     "seed": seed})
    report = {"command": "simulate", "verdict": "pass",
              "checks": {"completed": True}, "seed": seed,
              "details": {"sup_chaos_distance": float(dist.max())}}
    run_dir = write_artifacts(out_root, "simulate", rows, report, resolved)
    print(f"simulate: {n_replicas} replicas of {params.n_particles} particles, "
          f"sup coupling distance {dist.max():.6g}")
    print(f"artifacts: {run_dir}")
    return 0


def cmd_spde(config: dict, seed: int, out_root: Path, jobs: int) -> int:
    if "spde" not in config:
        raise CliError("spde command needs an spde block")
    cfg, w = spde_from_block(config["spde"])
    traj = solve_spde(cfg, w, seed=seed)
    rows = [{"t": float(t), "h1_norm": float(n), "min_rho": float(m)}
            for t, n, m in zip(traj.step_times, traj.norm_path, traj.min_rho_path)]
    status = {"stopped": traj.status.stopped, "reason": traj.status.reason,
              "time": traj.status.time}
    report = {"command": "spde", "verdict": "pass",
              "checks": {"completed": True}, "seed": seed,
              "details": {"status": status,
                          "final_mass": total_mass(traj.final),
                          "final_norm": float(traj.norm_path[-1])}}
    resolved = dataclasses.asdict(cfg)
    resolved["potential"] = config["spde"].get("potential", "cos")
    resolved["seed"] = seed
    run_dir = write_artifacts(out_root, "spde", rows, report, resolved)
    stop_note = (f"stopped at t = {traj.status.time:.6g} ({traj.status.reason})"
                 if traj.status.stopped else "ran to the horizon")
    print(f"spde: {stop_note}, final norm {traj.norm_path[-1]:.6g}")
    print(f"artifacts: {run_dir}")
    return 0


def cmd_study(name: str, config: dict, seed: int, out_root: Path, jobs: int) -> int:
    if name not in STUDY_REGISTRY:
        raise CliError(f"unknown study {name!r}; choose from "
                       f"{', '.join(sorted(STUDY_REGISTRY))}")
    block = dict(config.get("study", {}))
    block_name = block.pop("name", None)
    if block_name is not None and block_name != name:
        raise CliError(f"study block names {block_name!r} but the command "
                       f"asked for {name!r}")
    cfg_cls, runner = STUDY_REGISTRY[name]
    try:
        study_cfg = config_from_dict(cfg_cls, block)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad study config: {exc}") from exc

    t0 = time.perf_counter()
    report = runner(study_cfg, seed=seed, jobs=jobs)
    runtime = time.perf_counter() - t0
    resolved = dataclasses.asdict(study_cfg)
    resolved["seed"] = seed
    run_dir = write_artifacts(out_root, name, report.raw_table, report.to_dict(), resolved)
    print(f"study {name}: verdict {report.verdict} ({runtime:.1f} s)")
    for check, ok in report.checks.items():
        if not ok:
            print(f"  failed check: {check}")
    print(f"artifacts: {run_dir}")
    return 0 if report.verdict == "pass" else 2


def cmd_report(out_root: Path) -> int:
    paths = sorted(out_root.glob("*/*/report.json"))
    entries = []
    for p in paths:
        try:
            data = json.loads(p.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if "verdict" in data:
            entries.append((p.parent.parent.name, p.parent.name, data["verdict"]))
    if not entries:
        print("no studies found", file=sys.stderr)
        return 1
    any_fail = False
    for name, stamp, verdict in entries:
        print(f"{name} {stamp} {verdict}")
        any_fail = any_fail or verdict == "fail"
    n_fail = sum(1 for _, _, v in entries if v == "fail")
    print(f"{len(entries)} runs, {n_fail} failing")
    return 2 if any_fail else 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="dklab", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["simulate", "spde", "study", "report"])
    parser.add_argument("name", nargs="?", default=None,
                        help="study name (study command only)")
    parser.add_argument("--config", default=None, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed, overrides the config")
    parser.add_argument("--out", default=None, help="output root directory")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for study cells")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "study" and args.name is None:
            raise CliError("study command needs a study name")
        if args.command != "study" and args.name is not None:
            raise CliError(f"unexpected positional argument {args.name!r}")

        config = load_config(args.config) if args.config else {}
        if args.command != "report" and not args.config:
            raise CliError("this command needs --config")

        seed = args.seed if args.seed is not None else config.get("seed", 0)
        # type(), not isinstance: JSON's true and false load as bools, which are ints
        if type(seed) is not int or not 0 <= seed < 2 ** 64:
            raise CliError("seed must be an unsigned 64-bit integer")
        out_root = Path(args.out if args.out is not None
                        else config.get("out", "runs"))
        jobs = args.jobs if args.jobs is not None else config.get("jobs", 1)
        if type(jobs) is not int or jobs < 1:
            raise CliError("jobs must be a positive integer")

        if args.command == "simulate":
            return cmd_simulate(config, seed, out_root, jobs)
        if args.command == "spde":
            return cmd_spde(config, seed, out_root, jobs)
        if args.command == "study":
            return cmd_study(args.name, config, seed, out_root, jobs)
        return cmd_report(out_root)
    except (CliError, ConfigurationError, ResolutionError, DivergenceError,
            TimeStepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
