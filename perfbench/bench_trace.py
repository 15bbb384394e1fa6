"""Per-layer tracing from outside the program: wrappers, spans and counters.

``Tracer.install`` replaces the public functions of each eprgeo module, and
the Christoffel and metric methods of each spacetime class, with wrappers
that record a span (name, start, end, parent span, item id) and exact
counts.  A function is replaced under every eprgeo module attribute bound to
it, so module-local bindings made by ``from .x import f`` are traced too.
``Tracer.uninstall`` restores the originals.  Spans stay in memory until
``write_spans`` is called at the end of the run.

A layer's self time is the summed duration of its spans minus the time
covered by their child spans.
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import sys
from time import perf_counter

import numpy as np

import eprgeo

# layer (the eprgeo module of that name) -> its traced functions; the
# spacetime layer is traced through the methods of the spacetime classes
LAYERS = {
    "geodesic": ("integrate_geodesic", "solve_bvp"),
    "frames": ("frame_field", "spin_connection"),
    "transport": (
        "polygon_spinor_transport",
        "spinor_propagator",
        "world_propagator",
        "frame_propagator",
        "transport_tetrad",
    ),
    "lorentz": ("expm2", "lift_so13", "ordered_product", "su2_polar"),
    "pipeline": (
        "pair_transport",
        "rest_conjugation_factors",
        "boosted_tetrad",
        "matched_axis",
        "spin_relative_rotation",
    ),
    "spin": ("correlation", "chsh", "fidelity", "pair_state"),
    "decoherence": ("sample_bundle", "averaged_state", "fidelity_with_error", "degraded_correlation"),
    "precession": (
        "integrate_orbit",
        "rest_frame_holonomy_angle",
        "spinor_holonomy_angle",
        "geodetic_angle_exact",
    ),
    "scenario": ("parse_scenario", "run_scenario"),
    "report": ("emit_report",),
}
SPACETIME_METHODS = ("metric", "christoffel")
ITEM_SPAN = "bench.item"
LAYER_NAMES = ("spacetime",) + tuple(LAYERS) + ("bench",)


def _points(x, tail: int) -> int:
    """Number of points in a batch whose trailing `tail` axes form one point."""
    return int(np.prod(np.shape(x)[:-tail], dtype=np.int64))


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.counters: dict[str, int] = {}
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            state = before(args) if before else None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                after(args, result, state)
            return result

        return traced

    def run_item(self, item_id: int, fn, *args):
        """Call fn(*args) under a root span for one benchmark item."""
        self.item = item_id
        try:
            return self._wrap(ITEM_SPAN, fn)(*args)
        finally:
            self.item = -1

    # -- counting hooks ----------------------------------------------------

    def _hooks(self, name: str):
        c = self.count
        if name in ("spacetime.metric", "spacetime.christoffel", "frames.frame_field", "frames.spin_connection"):
            key = name.split(".")[1]

            def after(args, result, state):
                c(f"{key}_points", _points(args[1], 1))

            return None, after
        if name == "geodesic.integrate_geodesic":

            def after(args, result, state):
                c("steps", result.meta.get("n_steps", 0))
                c("rejected_steps", result.meta.get("n_rejected", 0))
                c("samples", result.n_samples)

            return None, after
        if name == "geodesic.solve_bvp":

            def after(args, result, state):
                _, shot = result
                c("shoots_converged", shot.converged)
                c("newton_iterations", shot.iterations)

            return None, after
        if name == "transport.polygon_spinor_transport":

            def after(args, result, state):
                xs = args[1]
                paths = _points(xs, 2)
                c("polygon_paths", paths)
                c("polygon_chords", paths * (np.shape(xs)[-2] - 1))
                if np.ndim(xs) > 2:
                    c("bundle_path_transports", paths)

            return None, after
        if name in ("transport.spinor_propagator", "transport.world_propagator"):
            # a call that adds nothing to the segment cache was served from it

            def before(args):
                return len(args[0].cache)

            def after(args, result, state):
                c("propagator_cache_hits", len(args[0].cache) == state)

            return before, after
        if name == "lorentz.expm2":

            def after(args, result, state):
                c("expm2_matrices", _points(args[0], 2))

            return None, after
        if name == "decoherence.sample_bundle":

            def after(args, result, state):
                c("paths_sampled", result.n_paths)
                c("resample_rounds", result.meta.get("resample_rounds", 0))

            return None, after
        return None, None

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = eprgeo.__name__ + "."
        return [m for n, m in sorted(sys.modules.items()) if m is eprgeo or n.startswith(prefix)]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for layer, names in LAYERS.items():
            home = sys.modules[f"{eprgeo.__name__}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original, *self._hooks(f"{layer}.{fname}"))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        base = eprgeo.spacetime.Spacetime
        for cls in vars(eprgeo.spacetime).values():
            if isinstance(cls, type) and issubclass(cls, base) and cls is not base:
                for meth in SPACETIME_METHODS:
                    if meth in vars(cls):
                        original = vars(cls)[meth]
                        name = f"spacetime.{meth}"
                        self._patches.append((cls, meth, original))
                        setattr(cls, meth, self._wrap(name, original, *self._hooks(name)))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def write_spans(self, path) -> None:
        """Write the spans as gzip'd columnar JSON with a name table."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "item": [s[4] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return float(num) / float(den) if den else 0.0


def _children(spans: list[list], name: str, parent_name: str) -> int:
    """Number of `name` spans whose parent span is a `parent_name` span."""
    return sum(1 for n, _, _, p, _ in spans if n == name and p >= 0 and spans[p][0] == parent_name)


def layer_metrics(tracer: Tracer, untraced_wall: float, traced_wall: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (value, unit) of one traced pass."""
    st = tracer.self_times()
    c = tracer.counters.get
    calls = collections.Counter(s[0] for s in tracer.spans)

    def t(*names: str) -> float:
        return float(sum(st.get(n, 0.0) for n in names))

    under_shoot = _children(tracer.spans, "geodesic.integrate_geodesic", "geodesic.solve_bvp")
    rhs_evals = _children(tracer.spans, "spacetime.christoffel", "geodesic.integrate_geodesic")
    steps, rejected, samples = c("steps", 0), c("rejected_steps", 0), c("samples", 0)
    m = {
        "spacetime.christoffel_s": (t("spacetime.christoffel"), "s"),
        "spacetime.christoffel_calls": (calls["spacetime.christoffel"], "count"),
        "spacetime.christoffel_points": (c("christoffel_points", 0), "count"),
        "spacetime.metric_s": (t("spacetime.metric"), "s"),
        "spacetime.metric_points": (c("metric_points", 0), "count"),
        "geodesic.integrate_s": (t("geodesic.integrate_geodesic"), "s"),
        "geodesic.integrate_calls": (calls["geodesic.integrate_geodesic"], "count"),
        "geodesic.rhs_evals": (rhs_evals, "count"),
        "geodesic.steps": (steps, "count"),
        "geodesic.rejected_steps": (rejected, "count"),
        "geodesic.accept_ratio": (_ratio(steps, steps + rejected), "ratio"),
        "geodesic.samples": (samples, "count"),
        "geodesic.steps_per_sample": (_ratio(steps, samples), "ratio"),
        "geodesic.shoot_s": (t("geodesic.solve_bvp"), "s"),
        "geodesic.shoots": (calls["geodesic.solve_bvp"], "count"),
        # trial integrations: every integration inside solve_bvp except the
        # final re-integration of a converged shot
        "geodesic.shoot_trials": (under_shoot - c("shoots_converged", 0), "count"),
        "geodesic.newton_iterations": (c("newton_iterations", 0), "count"),
        "geodesic.shoot_converged_ratio": (_ratio(c("shoots_converged", 0), calls["geodesic.solve_bvp"]), "ratio"),
        "frames.spin_connection_s": (t("frames.spin_connection"), "s"),
        "frames.spin_connection_points": (c("spin_connection_points", 0), "count"),
        "frames.frame_field_s": (t("frames.frame_field"), "s"),
        "frames.frame_field_points": (c("frame_field_points", 0), "count"),
        "transport.polygon_s": (t("transport.polygon_spinor_transport"), "s"),
        "transport.polygon_paths": (c("polygon_paths", 0), "count"),
        "transport.polygon_chords": (c("polygon_chords", 0), "count"),
        "transport.spinor_propagator_s": (t("transport.spinor_propagator"), "s"),
        "transport.world_propagator_s": (t("transport.world_propagator"), "s"),
        "transport.propagator_cache_hit_ratio": (
            _ratio(
                c("propagator_cache_hits", 0),
                calls["transport.spinor_propagator"] + calls["transport.world_propagator"],
            ),
            "ratio",
        ),
        "lorentz.expm2_s": (t("lorentz.expm2"), "s"),
        "lorentz.expm2_matrices": (c("expm2_matrices", 0), "count"),
        "lorentz.ordered_product_s": (t("lorentz.ordered_product"), "s"),
        "lorentz.su2_polar_s": (t("lorentz.su2_polar"), "s"),
        "pipeline.pair_transport_s": (t("pipeline.pair_transport"), "s"),
        "pipeline.pair_transport_calls": (calls["pipeline.pair_transport"], "count"),
        "spin.correlation_s": (t("spin.correlation"), "s"),
        "decoherence.sample_bundle_s": (t("decoherence.sample_bundle"), "s"),
        "decoherence.paths_sampled": (c("paths_sampled", 0), "count"),
        "decoherence.resample_rounds": (c("resample_rounds", 0), "count"),
        "decoherence.channel_s": (t("decoherence.averaged_state", "decoherence.fidelity_with_error"), "s"),
        "decoherence.transports_per_path": (
            _ratio(c("bundle_path_transports", 0), c("paths_sampled", 0)),
            "ratio",
        ),
        "precession.orbit_s": (t("precession.integrate_orbit"), "s"),
        "precession.holonomy_s": (
            t("precession.rest_frame_holonomy_angle", "precession.spinor_holonomy_angle"),
            "s",
        ),
        "scenario.parse_s": (t("scenario.parse_scenario"), "s"),
        "scenario.run_s": (t("scenario.run_scenario"), "s"),
        "report.emit_s": (t("report.emit_report"), "s"),
        "trace.overhead_ratio": (_ratio(traced_wall, untraced_wall) - 1.0, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    total = sum(st.values())
    for layer in LAYER_NAMES:
        own = sum(v for name, v in st.items() if name.split(".")[0] == layer)
        m[f"share.{layer}"] = (_ratio(own, total), "ratio")
    return {k: (float(v), unit) for k, (v, unit) in m.items()}
