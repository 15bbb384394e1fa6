"""Seeded workload generators, item runners and per-item correctness checks.

Every input is generated from the workload seed; eprgeo receives only the
generated scenario texts (``pairs``, ``dephasing``) or orbit radii
(``orbits``).  Items are grouped into rounds.  A round is the unit the timed
loop checks the clock after, and it is built so that its total work hardly
depends on the seed:

* ``pairs``: one item per template (spacetime, gauge, decay velocity); for
  each template, the parameters that set the cost (leg proper times, decay
  radius, field strength) follow low-discrepancy sequences over the rounds,
  from a seeded offset, so any run covers their ranges evenly;
* ``dephasing``: one item; every template has the same nominal work, paths
  x sigma values x polygon chords;
* ``orbits``: three orbits, r, 10 and 20 - r, whose summed sample counts
  are nearly constant.  The middle orbit is the median item, so the median
  latency does not hang on where the seeded radii fall.

Items call eprgeo through the package attributes at call time
(``eprgeo.run_scenario``, not a local binding), so the traced run's
wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

import eprgeo
from eprgeo.frames import frame_field

# low-discrepancy strides for the cost-setting parameters, independent
# over the rationals so their sequences do not correlate
_STRIDES = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, math.sqrt(7.0) - 2.0)

# nominal rounds per second at the seed code; only sizes the input pool and
# the traced run, never a measured figure
ROUNDS_PER_S = {"pairs": 0.45, "dephasing": 0.65, "orbits": 0.14}

# (kind, gauge, decay velocity given)
PAIRS_TEMPLATES = (
    ("minkowski", "static", False),
    ("schwarzschild", "static", True),
    ("weak-field", "static", False),
    ("schwarzschild", "boosted-static", False),
    ("weak-field", "boosted-static", True),
    ("minkowski", "boosted-static", True),
)

# (kind, mode, n_paths, n_sigma, leg proper time); n_paths * n_sigma *
# chords is about 10,000 for every template, chords = tau / 0.02
DEPHASING_TEMPLATES = (
    ("schwarzschild", "coherent", 100, 2, 1.0),
    ("schwarzschild", "incoherent", 100, 3, 0.66),
    ("minkowski", "coherent", 100, 2, 1.0),
    ("schwarzschild", "incoherent", 250, 2, 0.4),
    ("schwarzschild", "coherent", 150, 3, 0.44),
    ("minkowski", "incoherent", 200, 2, 0.5),
)

# Two inputs avoid known eprgeo defects, so that no item fails:
# * pairs items tighten the integrator tol from 1e-10 to 1e-12.  A trial
#   integration of solve_bvp can trip the 1e-9 norm-drift check; solve_bvp
#   treats that IntegrationError like a chart exit and the line search
#   stalls.  At 1e-10: 6 of 108 weak-field items over seeds 1-3, and a
#   Schwarzschild one on seed 6; at 1e-11 still 1 item of 3,240 over seeds
#   1-30 (seed 20, item 100).  1e-12 costs about 8 % more time than 1e-11;
# * flat dephasing controls list sigma = 0 last.  With sigma = 0 first, the
#   monotonicity flag of scenario._run_decoherence compares fidelities that
#   are 1 to round-off with a margin of 0 (both standard errors are 0), and
#   flags 1.0000000000000002 after 1.0 (1 of 80 flat items over seeds 1-40).
PAIRS_TOL = 1.0e-12

ORBIT_R_MIN, ORBIT_R_MAX = 8.0, 12.0
GEODETIC_TOL = 1.0e-4
FIDELITY_TOL = 1.0e-8


@dataclass(frozen=True)
class Item:
    """One unit of work: a scenario text, or an orbit radius."""

    workload: str
    index: int
    text: Optional[str] = None
    radius: Optional[float] = None
    flat: bool = False

    @property
    def key(self) -> str:
        return self.text if self.text is not None else repr(self.radius)


def _f(x: float) -> str:
    return repr(float(x))


def _vec(v) -> str:
    return ", ".join(_f(x) for x in v)


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _static_velocity(st, event: np.ndarray, w: np.ndarray) -> np.ndarray:
    """World 4-velocity with static-frame spatial velocity w at the event."""
    n = frame_field(st, event)
    return n @ np.concatenate(([math.sqrt(1.0 + float(w @ w))], w))


def _spread(rng: np.random.Generator, lo: float, hi: float, u: float | None) -> float:
    """lo + (hi - lo) u, or a uniform draw when u is None."""
    return lo + (hi - lo) * u if u is not None else rng.uniform(lo, hi)


def _decay_event(kind: str, rng: np.random.Generator, u_radius: float | None = None) -> np.ndarray:
    if kind == "schwarzschild":
        r = _spread(rng, 12.0, 20.0, u_radius)
        return np.array([0.0, r, math.pi / 2 + rng.uniform(-0.3, 0.3), rng.uniform(-math.pi, math.pi)])
    if kind == "weak-field":
        direction = _unit(rng)
        return np.concatenate(([0.0], direction * _spread(rng, 2.0, 6.0, u_radius)))
    return np.concatenate(([0.0], rng.uniform(-5.0, 5.0, 3)))


def _spacetime(kind: str, rng: np.random.Generator, u_epsilon: float | None = None):
    """The [spacetime] section body for a kind, and the spacetime it builds."""
    if kind == "schwarzschild":
        section, params = "kind = schwarzschild\nmass = 1.0", {"M": 1.0}
    elif kind == "weak-field":
        eps = _spread(rng, 0.01, 0.05, u_epsilon)
        section, params = f"kind = weak-field\nepsilon = {_f(eps)}", {"epsilon": eps}
    else:
        section, params = "kind = minkowski", {}
    return section, eprgeo.make_spacetime(kind.replace("-", "_"), params)


def _directions(rng: np.random.Generator, count: int) -> str:
    return " ; ".join(_vec(_unit(rng)) for _ in range(count))


def _pairs_item(seed: int, k: int, j: int, offsets: np.ndarray, tiny: bool) -> Item:
    """Template j of round k."""
    i = k * len(PAIRS_TEMPLATES) + j
    rng = np.random.default_rng([seed, 1, i])
    kind, gauge, with_velocity = PAIRS_TEMPLATES[j]
    # the leg lengths, the decay radius and the field strength set the cost
    # (and, in the weak field, whether shooting stalls), so they follow the
    # low-discrepancy sequences
    u = [(offsets[j, m] + k * stride) % 1.0 for m, stride in enumerate(_STRIDES)]
    lo, hi = (0.5, 1.0) if tiny else (2.0, 8.0)
    tau1 = lo + (hi - lo) * u[0]
    tau2 = lo + (hi - lo) * u[1]

    section, st = _spacetime(kind, rng, u[3])
    event = _decay_event(kind, rng, u[2])
    u1 = _static_velocity(st, event, _unit(rng) * rng.uniform(0.2, 0.6))
    u2 = _static_velocity(st, event, _unit(rng) * rng.uniform(0.2, 0.6))
    # detector 2 is shot to the endpoint of a seeded forward leg, so a
    # solution exists
    leg = eprgeo.integrate_geodesic(st, eprgeo.Event(event), u2, tau2, tol=1.0e-12, n_samples=2)
    target = leg.events[-1]
    tau_hint = tau2 * rng.uniform(0.9, 1.1)

    lines = [
        f"# perfbench pairs item {i} (seed {seed})",
        "[spacetime]",
        section,
        "[decay]",
        f"event = {_vec(event)}",
    ]
    if with_velocity:
        u0 = _static_velocity(st, event, _unit(rng) * rng.uniform(0.1, 0.4))
        lines.append(f"velocity = {_vec(u0)}")
    lines += [
        "[detector1]",
        f"tangent = {_vec(u1)}",
        f"tau = {_f(tau1)}",
        "[detector2]",
        f"target = {_vec(target)}",
        f"tau_hint = {_f(tau_hint)}",
        "[measurements]",
        f"directions1 = {_directions(rng, int(rng.integers(1, 4)))}",
        f"directions2 = {_directions(rng, int(rng.integers(1, 3)))}",
        "[numerics]",
        f"gauge = {gauge}",
        f"tol = {_f(PAIRS_TOL)}",
    ]
    return Item("pairs", i, text="\n".join(lines) + "\n", flat=(kind == "minkowski"))


def _dephasing_item(seed: int, i: int, tiny: bool) -> Item:
    rng = np.random.default_rng([seed, 2, i])
    kind, mode, n_paths, n_sigma, tau = DEPHASING_TEMPLATES[i % len(DEPHASING_TEMPLATES)]
    if tiny:
        n_paths = 8
    section, st = _spacetime(kind, rng)
    event = _decay_event(kind, rng)
    # both legs keep the template's proper time, so every item has the
    # template's polygon chord count
    legs = [_static_velocity(st, event, _unit(rng) * rng.uniform(0.2, 0.6)) for _ in range(2)]
    sigmas = [0.0, tau * rng.uniform(0.1, 0.25), tau * rng.uniform(0.35, 0.6)][:n_sigma]
    if kind == "minkowski":
        # flat templates have two sigma values; with sigma = 0 last, eprgeo
        # compares neither fidelity with the one before it (see the note
        # above PAIRS_TOL), and check() holds both to 1
        sigmas = sigmas[1:] + sigmas[:1]
    lines = [
        f"# perfbench dephasing item {i} (seed {seed})",
        "[spacetime]",
        section,
        "[decay]",
        f"event = {_vec(event)}",
    ]
    for k, u in enumerate(legs, start=1):
        lines += [f"[detector{k}]", f"tangent = {_vec(u)}", f"tau = {_f(tau)}"]
    lines += [
        "[measurements]",
        f"directions1 = {_directions(rng, 1)}",
        "[decoherence]",
        f"sigma = {_vec(sigmas)}",
        f"n_paths = {n_paths}",
        f"mode = {mode}",
        f"seed = {int(rng.integers(0, 2**31 - 1))}",
    ]
    return Item("dephasing", i, text="\n".join(lines) + "\n", flat=(kind == "minkowski"))


def generate(workload: str, seed: int, n_rounds: int, tiny: bool = False) -> list[list[Item]]:
    """The first n_rounds rounds of the workload's input stream for a seed."""
    if workload == "pairs":
        offsets = np.random.default_rng([seed, 0]).uniform(size=(len(PAIRS_TEMPLATES), len(_STRIDES)))
        return [
            [_pairs_item(seed, k, j, offsets, tiny) for j in range(len(PAIRS_TEMPLATES))]
            for k in range(n_rounds)
        ]
    if workload == "dephasing":
        return [[_dephasing_item(seed, k, tiny)] for k in range(n_rounds)]
    if workload == "orbits":
        offset = float(np.random.default_rng([seed, 3]).uniform())
        lo, hi = (5.0, 6.0) if tiny else (ORBIT_R_MIN, ORBIT_R_MAX)
        rounds = []
        for k in range(n_rounds):
            r = lo + 0.5 * (hi - lo) * ((offset + k * _STRIDES[0]) % 1.0)
            radii = (r, 0.5 * (lo + hi), lo + hi - r)
            rounds.append([Item("orbits", 3 * k + m, radius=x) for m, x in enumerate(radii)])
        return rounds
    raise ValueError(f"unknown workload {workload!r}")


def validate(rounds: list[list[Item]]) -> None:
    """Parse every generated scenario text; a text that fails raises."""
    for rnd in rounds:
        for item in rnd:
            if item.text is not None:
                eprgeo.parse_scenario(item.text)


def run_item(item: Item) -> str:
    """Run one item through eprgeo's public API; returns the CSV report."""
    if item.text is not None:
        sc = eprgeo.parse_scenario(item.text)
        report = eprgeo.run_scenario(sc)
        return eprgeo.emit_report(report, "csv")
    return _run_orbit(item.radius)


def _run_orbit(r: float) -> str:
    st = eprgeo.make_spacetime("schwarzschild", {"M": 1.0})
    seg = eprgeo.integrate_orbit(st, r)
    vector_angle, _ = eprgeo.rest_frame_holonomy_angle(seg)
    spinor_angle = eprgeo.spinor_holonomy_angle(seg)
    exact = eprgeo.geodetic_angle_exact(st, r)
    ident = f"circular orbit r={r!r} M=1.0"
    sha = hashlib.sha256(ident.encode("utf-8")).hexdigest()
    report = eprgeo.Report(scenario_id=sha[:12], scenario_sha256=sha, tool_version=eprgeo.__version__)
    report.add("orbit_radius", float(r))
    report.add("orbit_samples", int(seg.n_samples))
    report.add("geodetic_angle_exact", float(exact))
    report.add("geodetic_angle_vector_route", float(vector_angle))
    report.add("geodetic_angle_spinor_route", float(spinor_angle))
    return eprgeo.emit_report(report, "csv")


def check(item: Item, csv_text: str) -> list[tuple[str, str]]:
    """What is wrong with one item's report, as (kind, message) pairs.

    kind "failed": the program reported a failure itself, as a failure row
    (a leg could not be built) or a tolerance flag other than ok.
    kind "wrong": an independent check disagrees with the output.  Dephasing
    fidelity must be 1 within FIDELITY_TOL at sigma = 0, and at every sigma
    on flat controls; both orbit routes must be within GEODETIC_TOL of the
    closed-form angle.  An empty list means the item passed.
    """
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != list(eprgeo.report.CSV_COLUMNS):
        return [("wrong", "report has no CSV header")]
    found = []
    values: dict[tuple[str, str], str] = {}
    broken = False  # a leg could not be built, so later rows are missing
    for _, quantity, a_index, _, value, flag in rows[1:]:
        if quantity == "failure":
            broken = True
            found.append(("failed", value))
        elif flag and flag != "ok":
            found.append(("failed", f"{quantity}[{a_index}] = {value} flagged {flag}"))
        values[(quantity, a_index)] = value
    if item.workload == "dephasing" and not broken:
        sigmas = {a: float(v) for (q, a), v in values.items() if q == "decoherence_sigma"}
        fids = {a: float(v) for (q, a), v in values.items() if q == "decoherence_fidelity"}
        if not fids or set(fids) != set(sigmas):
            found.append(("wrong", "report lacks fidelity rows"))
        for a, fid in fids.items():
            if (item.flat or sigmas.get(a) == 0.0) and abs(fid - 1.0) > FIDELITY_TOL:
                found.append(("wrong", f"fidelity {fid!r} at sigma {sigmas.get(a)!r} is not 1"))
    if item.workload == "orbits":
        try:
            exact = float(values[("geodetic_angle_exact", "")])
            for route in ("vector", "spinor"):
                angle = float(values[(f"geodetic_angle_{route}_route", "")])
                if abs(angle - exact) > GEODETIC_TOL:
                    found.append(("wrong", f"{route} route angle {angle!r} vs closed form {exact!r}"))
        except KeyError as exc:
            found.append(("wrong", f"report lacks {exc}"))
    return found
