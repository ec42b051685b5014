"""Span tracing of dklab's layers from outside the package.

`Tracer.install()` wraps the public functions of each layer module (plus the
private particle step and the study helpers the studies call by name) and
rebinds every module attribute and registry entry that refers to the
original object, so a name imported with `from .x import f` is traced in the
importing module too.  Every call records one span (name, start, end, parent)
in flat arrays kept in memory; `summarise()` turns them into the per-layer
metrics and `save()` writes them out once the run is over.

Self time of a span is its duration minus the durations of its direct
children.  The code is single-threaded, so children never overlap each other
and always lie inside their parent.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(x) -> int:
    return int(np.size(x))


def _steps(params) -> tuple[int, int]:
    burn = int(round(params.burn_in / params.dt))
    main = int(round(params.t_horizon / params.dt))
    return burn, main


def _coupled_steps(args, kwargs, out):
    params = args[0]
    burn, main = _steps(params)
    # the burn-in moves one branch, the main loop moves both
    return params.n_particles * kwargs["n_replicas"] * (burn + 2 * main)


def _interacting_steps(args, kwargs, out):
    params = args[0]
    burn, main = _steps(params)
    return params.n_particles * kwargs["n_replicas"] * (burn + main)


def _spde_steps(args, kwargs, out):
    return len(out.step_times) - 1


def _spde_frozen_steps(args, kwargs, out):
    if not out.status.stopped:
        return 0
    return len(out.step_times) - 1 - int(round(out.status.time / out.config.dt))


def _artifact_bytes(args, kwargs, out):
    return sum(p.stat().st_size for p in out.iterdir())


# (module, attribute path, {work counter: fn(args, kwargs, result)})
TARGETS = (
    ("torus", "von_mises_eval", {"points": lambda a, k, out: _size(out)}),
    ("potential", "mean_w1_at",
     {"terms": lambda a, k, out: a[0].k_max * (_size(a[1]) + _size(a[2]))}),
    ("fields", "weighted_field_values",
     {"pairs": lambda a, k, out: _size(a[0]) * _arg(a, k, 3, "geometry").n_grid}),
    ("fields", "interaction_decomposition", {"particles": lambda a, k, out: _size(a[0])}),
    ("fields", "empirical_field", {"particles": lambda a, k, out: _size(a[0])}),
    ("fields", "sobolev_norm", {"points": lambda a, k, out: _size(a[0].values)}),
    ("particles", "simulate_coupled", {"particle_steps": _coupled_steps}),
    ("particles", "simulate_interacting", {"particle_steps": _interacting_steps}),
    ("particles", "pairwise_force", {"particles": lambda a, k, out: _size(a[0])}),
    ("particles", "_advance", {"particle_steps": lambda a, k, out: _size(a[0])}),
    ("particles", "VfpForceTable.force_at", {"points": lambda a, k, out: _size(a[2])}),
    ("particles", "build_force_table", {"steps": lambda a, k, out: int(a[4])}),
    ("vfp", "VfpSolver.step", {"cells": lambda a, k, out: _size(a[0].density.values)}),
    ("spde", "solve_spde", {"steps": _spde_steps, "frozen_steps": _spde_frozen_steps}),
    ("spde", "step_mild", {}),
    ("spde", "nonlinear_drift", {}),
    ("spde", "q_wiener_increment", {"points": lambda a, k, out: _size(out)}),
    ("spde", "SpectralState.norm_h1", {}),
    ("spde", "SpectralState.min_rho", {}),
    ("cli", "write_artifacts", {"bytes": _artifact_bytes}),
)

# study runners and the helpers they call by module-global name; only their
# calls and self time are reported
STUDY_TARGETS = (
    "run_chaos_study", "_chaos_cell",
    "run_interaction_study", "_interaction_cell", "_moment_cell",
    "run_covariance_study", "_covariance_cell",
    "run_small_noise_study", "_small_noise_ladder", "_sup_deviation",
)

ROOT = "cli.main"
LAYER_MODULES = ("torus", "potential", "fields", "particles", "vfp", "spde",
                 "studies", "cli")

# ROADMAP open item 1 layer table: (metric, ROADMAP figure in seconds, size)
ROADMAP_ROWS = (
    ("roadmap.direct_field_sum_s", 2.62, "direct field sum, eps=0.025, N=64000, grid 1024"),
    ("roadmap.pairwise_force_s", 0.19, "pairwise force, 4x390625 particles"),
    ("roadmap.particle_step_s", 3.05e-3, "particle step, R=16, N=2048"),
    ("roadmap.spde_step_s", 185e-6, "SPDE step with monitors, n_grid=128"),
    ("roadmap.q_wiener_increment_s", None, "Q-Wiener increment, n_grid=128"),
    ("roadmap.vfp_step_s", None, "VFP step, 64x96 cells"),
)

DERIVED = (
    ("fields.ns_per_pair", "ns"),
    ("fields.largest_call_ns_per_pair", "ns"),
    ("particles.ns_per_particle_step", "ns"),
    ("spde.useful_step_frac", "frac"),
    ("spde.step_mild_share", "frac"),
)

TRACE_METRICS = (
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def span_names() -> list[str]:
    names = [ROOT]
    names += [f"{mod}.{attr}" for mod, attr, _ in TARGETS]
    names += [f"studies.{fn}" for fn in STUDY_TARGETS]
    return names


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for mod, attr, work in TARGETS:
        name = f"{mod}.{attr}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
        for counter in work:
            units[f"{name}.{counter}"] = "count"
    for fn in STUDY_TARGETS:
        units[f"studies.{fn}.calls"] = "count"
        units[f"studies.{fn}.self_s"] = "s"
    units[f"{ROOT}.self_s"] = "s"
    units.update(DERIVED)
    for metric, _fig, _size in ROADMAP_ROWS:
        units[metric] = "s"
    units.update(TRACE_METRICS)
    return units


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = span_names()
        self._index = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.span_work = array("d")  # each span's first work count
        self.work: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, work: dict | None = None):
        nid = self._index[name]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        span_work, stack = self.span_work, self._stack
        counters = [(f"{name}.{c}", f) for c, f in (work or {}).items()]
        totals = self.work
        for key, _f in counters:
            totals[key] = 0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            span_work.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            for i, (key, f) in enumerate(counters):
                amount = f(args, kwargs, out)
                totals[key] += amount
                if i == 0:
                    span_work[sid] = amount
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _rebind(self, original, wrapped, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def install(self, package: str = "dklab"):
        """Wrap every target; returns the traced stand-in for `cli.main`."""
        modules = [importlib.import_module(f"{package}.{m}") for m in LAYER_MODULES]
        modules.append(importlib.import_module(package))
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod, attr, work in TARGETS:
            owner = by_name[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(original, f"{mod}.{attr}", work))
            else:
                original = getattr(owner, attr)
                self._rebind(original, self.wrap(original, f"{mod}.{attr}", work), modules)
        studies = by_name["studies"]
        registry = studies.STUDY_REGISTRY
        for fn in STUDY_TARGETS:
            original = getattr(studies, fn)
            wrapped = self.wrap(original, f"studies.{fn}")
            self._rebind(original, wrapped, modules)
            for key, (cfg_cls, runner) in list(registry.items()):
                if runner is original:
                    self._undo.append((registry, key, (cfg_cls, runner)))
                    registry[key] = (cfg_cls, wrapped)
        return self.wrap(by_name["cli"].main, ROOT)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def arrays(self):
        """(name_id, parent, start, end, self_s, work) as numpy arrays."""
        nid = np.array(self.name_id, dtype=np.int64)
        par = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        dur = end - start
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        return nid, par, start, end, dur - child, np.array(self.span_work, dtype=float)

    def save(self, path) -> None:
        nid, par, start, end, _self, work = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=par,
                 start=start, end=end, work=work)

    def summarise(self) -> dict[str, float]:
        """Per-layer metrics, less the wall times the parent process adds."""
        nid, _par, start, end, self_s, work = self.arrays()
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=end - start, minlength=n)
        own = np.bincount(nid, weights=self_s, minlength=n)
        stat = {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for name, (c, tot, slf) in stat.items():
            if name == ROOT:
                out[f"{name}.self_s"] = slf
            elif name.startswith("studies."):
                out[f"{name}.calls"] = c
                out[f"{name}.self_s"] = slf
            else:
                out[f"{name}.calls"] = c
                out[f"{name}.self_s"] = slf
                out[f"{name}.total_s"] = tot
        out.update(self.work)
        # the direct-sum cost at the run's largest field size, where the
        # ROADMAP row sits, apart from the cheaper small-grid calls
        wfv = nid == self._index["fields.weighted_field_values"]
        largest = wfv & (work == work[wfv].max()) if wfv.any() else wfv
        out["fields.largest_call_ns_per_pair"] = 1e9 * _ratio(
            float((end - start)[largest].sum()), float(work[largest].sum()))
        out.update(derived(out))
        out["trace.spans"] = len(nid)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derived(m: dict) -> dict[str, float]:
    """Ratios and the ROADMAP-row figures from the raw per-layer metrics.

    Rows whose ROADMAP size differs from what the workload runs are scaled
    linearly in the layer's own work count, which is how those layers cost.
    """
    wfv = "fields.weighted_field_values"
    adv = "particles._advance"
    ns_step = 1e9 * _ratio(m[f"{adv}.total_s"], m[f"{adv}.particle_steps"])
    force_per_particle = _ratio(m["particles.pairwise_force.total_s"],
                                m["particles.pairwise_force.particles"])
    steps = m["spde.solve_spde.steps"]
    return {
        "fields.ns_per_pair": 1e9 * _ratio(m[f"{wfv}.total_s"], m[f"{wfv}.pairs"]),
        "particles.ns_per_particle_step": ns_step,
        "spde.useful_step_frac": _ratio(steps - m["spde.solve_spde.frozen_steps"], steps),
        "spde.step_mild_share": _ratio(m["spde.step_mild.total_s"],
                                       m["spde.solve_spde.total_s"]),
        "roadmap.direct_field_sum_s": m["fields.largest_call_ns_per_pair"] * 1e-9 * 64000 * 1024,
        "roadmap.pairwise_force_s": force_per_particle * 4 * 390625,
        "roadmap.particle_step_s": ns_step * 1e-9 * 16 * 2048,
        "roadmap.spde_step_s": _ratio(m["spde.solve_spde.total_s"], steps),
        "roadmap.q_wiener_increment_s": _ratio(m["spde.q_wiener_increment.total_s"],
                                               m["spde.q_wiener_increment.calls"]),
        "roadmap.vfp_step_s": _ratio(m["vfp.VfpSolver.step.total_s"],
                                     m["vfp.VfpSolver.step.calls"]),
    }


def roadmap_table(metrics: dict) -> list[dict]:
    """ROADMAP item 1 rows next to the metric that now measures each."""
    rows = []
    for metric, figure, size in ROADMAP_ROWS:
        value = metrics.get(metric, 0.0)
        rows.append({"row": size, "metric": metric,
                     "roadmap_s": figure, "measured_s": value if value else None})
    return rows

