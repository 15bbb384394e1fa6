"""Scenario files: parsing, validation, and the end-to-end run.

A scenario is a line-oriented text file with ``[section]`` headers and
``key = value`` entries.  ``#`` starts a comment.  Vector values are
comma-separated reals; lists of vectors are semicolon-separated.  Sections:

``[spacetime]``
    ``kind`` (minkowski | schwarzschild | weak-field) plus the model
    parameters (``mass``, ``epsilon``, ``softening``).
``[decay]``
    ``event`` (4 coordinates) and optional ``velocity`` (4 world
    components of the source 4-velocity; default: static observer).
``[detector1]`` / ``[detector2]``
    Either an initial-value leg (``tangent`` 4-vector and ``tau``) or a
    boundary-value leg (``target`` event, optional ``tau_hint``).
``[measurements]``
    ``directions1`` / ``directions2``: lists of spatial unit vectors in
    the respective detector frames.
``[decoherence]`` (optional)
    ``sigma`` list, ``n_paths``, ``mode`` (coherent | incoherent), ``seed``.
``[numerics]`` (optional)
    ``gauge``, ``tol``, ``bvp_tol``, ``sample_step``.  The gauge cancels in
    both transport routes; it picks only the decay tetrad behind
    ``diag_ortho_drift``.
``[output]`` (optional)
    ``format`` (table | csv) and ``path``.

Every number must be finite; the spacetime's class checks its parameters
(``spacetime.make_spacetime``); the decay event and any ``target`` must lie
in its chart; ``tangent`` and ``velocity`` must be timelike and
future-directed at the decay event; ``geodesic.MAX_LEG_SAMPLES`` caps the
samples of an initial-value leg and of a ``tau_hint``, and ``MAX_PATHS`` the
paths of a bundle.  Problems raise ConfigurationError with the line number
(on the command line: one ``error:`` line, exit code 1).  The parsed
Scenario keeps the Spacetime it was validated against, and ``run_scenario``
turns it into a Report on that same object; leg failures (chart exit, no
endpoint solution) are recorded in the report rather than raised.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import decoherence as deco
from .errors import ConfigurationError, DomainError, IntegrationError, UsageError
from .geodesic import (
    DEFAULT_BVP_TOL,
    DEFAULT_SAMPLE_STEP,
    DEFAULT_TOL,
    MAX_LEG_SAMPLES,
    GeodesicSegment,
    chord,
    integrate_geodesic,
    samples_for,
    solve_bvp,
)
from .frames import GAUGES
from .lorentz import rotation_axis_angle
from .pipeline import PairResult, matched_axis, pair_transport, spin_relative_rotation
from .report import FLAG_FAIL, FLAG_OK, Report
from .spacetime import Event, Spacetime, make_spacetime, metric_at, require_event
from .spin import CANONICAL_CHSH_DIRECTIONS, chsh_value, correlation_matrix, direction_vector

TOOL_VERSION = "0.1.0"

# Round-off allowance of the fidelity monotonicity flag.  Flat or otherwise
# trivial channels give standard errors of 0 or ~1e-17, so the 2-sigma margin
# all but vanishes, while fidelities of 1 still differ in the last ulp
# between sigmas (1.0, then 1.0000000000000002).
MONOTONE_ROUNDOFF = 16.0 * np.finfo(float).eps

# Cap on memory and run time: paths per bundle (geodesic.MAX_LEG_SAMPLES caps legs).
MAX_PATHS = 10_000


@dataclass
class DetectorSpec:
    """One leg: either integrate out (ivp) or shoot to a target (bvp)."""

    mode: str
    tangent: Optional[np.ndarray] = None
    tau: Optional[float] = None
    target: Optional[np.ndarray] = None
    tau_hint: Optional[float] = None


@dataclass
class DecoherenceSpec:
    sigmas: list[float]
    n_paths: int = 200
    mode: str = "coherent"
    seed: int = 0


@dataclass
class Scenario:
    """Validated contents of a scenario file."""

    text: str
    spacetime: Spacetime
    decay_event: np.ndarray
    decay_velocity: Optional[np.ndarray]
    detector1: DetectorSpec
    detector2: DetectorSpec
    directions1: list[np.ndarray] = field(default_factory=lambda: [np.array([0.0, 0.0, 1.0])])
    directions2: list[np.ndarray] = field(default_factory=lambda: [np.array([0.0, 0.0, 1.0])])
    decoherence: Optional[DecoherenceSpec] = None
    gauge: str = "static"
    tol: float = DEFAULT_TOL
    bvp_tol: float = DEFAULT_BVP_TOL
    sample_step: float = DEFAULT_SAMPLE_STEP
    out_format: str = "table"
    out_path: Optional[str] = None

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()

    @property
    def scenario_id(self) -> str:
        return self.sha256[:12]


def _err(line: int, message: str) -> ConfigurationError:
    return ConfigurationError(f"line {line}: {message}")


def _number(raw: str, line: int, key: str, kind: type = float):
    """The one number parser, used by every numeric key: finite values only."""
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise _err(line, f"{key}: expected {noun}, got {raw!r}") from None
    if isinstance(value, float) and not np.isfinite(value):
        raise _err(line, f"{key}: expected a finite number, got {raw!r}")
    return value


def _list(raw: str, line: int, key: str, parse=_number, sep: str = ",") -> list:
    items = [p for p in (s.strip() for s in raw.split(sep)) if p]
    if not items:
        raise _err(line, f"{key}: expected at least one value")
    return [parse(p, line, key) for p in items]


def _vector(raw: str, line: int, key: str, size: int = 4) -> np.ndarray:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != size:
        raise _err(line, f"{key}: expected {size} comma-separated values, got {len(parts)}")
    return np.array([_number(p, line, key) for p in parts], dtype=float)


def _directions(raw: str, line: int, key: str) -> list[np.ndarray]:
    """Semicolon-separated spatial directions, normalized to unit length."""
    vectors = _list(raw, line, key, partial(_vector, size=3), ";")
    with np.errstate(over="ignore"):
        norms = [float(np.linalg.norm(v)) for v in vectors]
    if min(norms) < 1e-12:
        raise _err(line, f"{key}: zero direction vector")
    if max(norms) == np.inf:
        raise _err(line, f"{key}: direction vector too long to normalize")
    return [v / n for v, n in zip(vectors, norms)]


def _lower(raw: str, line: int, key: str) -> str:
    return raw.lower()


def _checked(parse, ok, message: str):
    """Wrap a parser with a range check that fails with ``message``."""
    def parse_checked(raw: str, line: int, key: str):
        value = parse(raw, line, key)
        if not ok(value):
            raise _err(line, f"{message}, got {raw!r}")
        return value

    return parse_checked


_LEG = {
    "tangent": _vector,
    "tau": _checked(_number, lambda t: t >= 0, "tau must be nonnegative"),
    "target": _vector,
    "tau_hint": _checked(_number, lambda t: t > 0, "tau_hint must be positive"),
}

# section -> key -> parse(raw, line, key).  Optional-section keys name the
# fields they fill (``sigma`` fills ``sigmas``, ``[output]`` the ``out_*``).
_SCHEMA = {
    "spacetime": {
        "kind": lambda raw, line, key: raw.lower().replace("-", "_"),
        "mass": _number,
        "epsilon": _number,
        "softening": _number,
    },
    "decay": {"event": _vector, "velocity": _vector},
    "detector1": _LEG,
    "detector2": _LEG,
    "measurements": {"directions1": _directions, "directions2": _directions},
    "decoherence": {
        "sigma": _checked(_list, lambda s: min(s) >= 0, "sigma values must be nonnegative"),
        "n_paths": _checked(
            partial(_number, kind=int),
            lambda n: 1 <= n <= MAX_PATHS,
            f"n_paths must be at least 1 and at most {MAX_PATHS}",
        ),
        "mode": _checked(_lower, lambda m: m in deco.MODES, "mode must be coherent or incoherent"),
        "seed": _checked(partial(_number, kind=int), lambda s: s >= 0, "seed must be nonnegative"),
    },
    "numerics": {
        "gauge": _checked(_lower, lambda g: g in GAUGES, f"gauge must be one of {GAUGES}"),
        "tol": _checked(_number, lambda v: 0 < v <= 1e-2, "tol must be in (0, 1e-2]"),
        "bvp_tol": _checked(_number, lambda v: 0 < v <= 1e-2, "bvp_tol must be in (0, 1e-2]"),
        "sample_step": _checked(_number, lambda h: 0 < h <= 1.0, "sample_step must be in (0, 1]"),
    },
    "output": {
        "format": _checked(_lower, lambda f: f in ("table", "csv"), "format must be table or csv"),
        "path": lambda raw, line, key: raw,
    },
}


def _split_sections(text: str) -> dict[str, dict[str, tuple]]:
    """Split the text into sections of parsed (value, line) entries."""
    sections: dict[str, dict[str, tuple]] = {}
    current: Optional[str] = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                raise _err(lineno, f"unknown section [{name}]")
            if name in sections:
                raise _err(lineno, f"duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise _err(lineno, f"expected 'key = value', got {line!r}")
        if current is None:
            raise _err(lineno, "entry before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _SCHEMA[current]:
            raise _err(lineno, f"unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise _err(lineno, f"duplicate key {key!r} in [{current}]")
        if not value:
            raise _err(lineno, f"empty value for {key!r}")
        sections[current][key] = (_SCHEMA[current][key](value, lineno, key), lineno)
    return sections


def _values(entries: dict) -> dict:
    return {key: value for key, (value, _) in entries.items()}


def _require_future_timelike(g: np.ndarray, u: np.ndarray, line: int, key: str) -> None:
    """Reject a 4-vector that is not timelike and future-directed under g."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float((g * u) @ u)
    if not (-np.inf < norm < 0.0 and u[0] > 0.0):
        raise _err(line, f"{key} must be timelike and future-directed, got g(u, u) = {norm}")


def _parse_detector(
    name: str, entries: dict, st: Spacetime, origin: Event, g: np.ndarray
) -> DetectorSpec:
    has_ivp = "tangent" in entries or "tau" in entries
    has_bvp = "target" in entries or "tau_hint" in entries
    first_line = min(line for _, line in entries.values()) if entries else 0
    if has_ivp and has_bvp:
        raise _err(first_line, f"[{name}]: give either tangent/tau or target, not both")
    if has_ivp:
        if "tangent" not in entries or "tau" not in entries:
            raise _err(first_line, f"[{name}]: tangent and tau are both required")
        _require_future_timelike(g, *entries["tangent"], "tangent")
        return DetectorSpec(mode="ivp", **_values(entries))
    if has_bvp:
        if "target" not in entries:
            raise _err(first_line, f"[{name}]: target is required for a boundary-value leg")
        target, line = entries["target"]
        try:
            require_event(st, Event(target))
        except DomainError as exc:
            raise _err(line, f"[{name}]: target outside chart domain: {exc}") from None
        try:
            chord(st, origin, Event(target))
        except UsageError as exc:
            raise _err(line, f"[{name}]: {exc}") from None
        return DetectorSpec(mode="bvp", **_values(entries))
    raise ConfigurationError(f"[{name}]: missing leg definition (tangent/tau or target)")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text.

    Raises ConfigurationError with a line number on any malformed,
    non-finite, out-of-range or inconsistent entry.
    """
    sections = _split_sections(text)
    for required in ("spacetime", "decay", "detector1", "detector2"):
        if required not in sections:
            raise ConfigurationError(f"missing required section [{required}]")
    for name, key in (("spacetime", "kind"), ("decay", "event"), ("decoherence", "sigma")):
        if name in sections and key not in sections[name]:
            raise ConfigurationError(f"[{name}]: missing {key!r}")

    params = {("M" if k == "mass" else k): v for k, v in _values(sections["spacetime"]).items()}
    try:
        st = make_spacetime(params.pop("kind"), params)
    except ConfigurationError as exc:
        raise _err(sections["spacetime"]["kind"][1], f"[spacetime]: {exc}") from None

    decay = sections["decay"]
    decay_event, line = decay["event"]
    origin = Event(decay_event)
    try:
        g = metric_at(st, origin)
    except DomainError as exc:
        raise _err(line, f"decay event outside chart domain: {exc}") from None
    if "velocity" in decay:
        _require_future_timelike(g, *decay["velocity"], "velocity")

    d = _values(sections.get("decoherence", {}))
    decoherence = DecoherenceSpec(sigmas=d.pop("sigma"), **d) if d else None

    sc = Scenario(
        text=text,
        spacetime=st,
        decay_event=decay_event,
        decay_velocity=_values(decay).get("velocity"),
        detector1=_parse_detector("detector1", sections["detector1"], st, origin, g),
        detector2=_parse_detector("detector2", sections["detector2"], st, origin, g),
        decoherence=decoherence,
        **_values(sections.get("measurements", {})),
        **_values(sections.get("numerics", {})),
        **{f"out_{k}": v for k, v in _values(sections.get("output", {})).items()},
    )
    for name, det in (("detector1", sc.detector1), ("detector2", sc.detector2)):
        key = "tau" if det.mode == "ivp" else "tau_hint"
        tau = getattr(det, key)
        if tau is not None and tau / sc.sample_step > MAX_LEG_SAMPLES - 1:
            cap = f"over {MAX_LEG_SAMPLES} samples per leg"
            raise _err(sections[name][key][1], f"{key} / sample_step: {cap}")
    return sc


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file; non-UTF-8 text raises ConfigurationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"scenario is not UTF-8 text: {exc}") from None
    return parse_scenario(text)


def _build_leg(sc: Scenario, st: Spacetime, origin: Event, det: DetectorSpec, label: str, report: Report):
    """Integrate or shoot one leg.  Returns the segment or None on failure."""
    if det.mode == "ivp":
        n_samples = samples_for(det.tau, sc.sample_step)
        try:
            seg = integrate_geodesic(
                st, origin, det.tangent, det.tau, tol=sc.tol, n_samples=n_samples
            )
        except (DomainError, IntegrationError) as exc:
            report.fail(f"{label}: integration failed: {exc}")
            return None
        _add_leg_rows(report, label, seg)
        return seg
    seg, shot = solve_bvp(
        st,
        origin,
        Event(det.target),
        tau_hint=det.tau_hint,
        tol=sc.bvp_tol,
        sample_step=sc.sample_step,
        integration_tol=sc.tol,
    )
    report.add(f"{label}_endpoint_residual", float(shot.residual))
    report.add(f"{label}_shooting_iterations", int(shot.iterations))
    report.add(f"{label}_line_search_halvings", int(shot.halvings))
    report.add(f"{label}_trial_integrations", int(shot.trials))
    report.add(f"{label}_jacobian_rebuilds", int(shot.jacobian_rebuilds))
    report.add(f"{label}_trial_rhs_evals", int(shot.trial_rhs_evals))
    if seg is None:
        # a spacelike or null chord does not rule out a timelike geodesic in a
        # curved chart, so it is reported with the failure, not rejected
        _, interval = chord(st, origin, Event(det.target))
        why = ""
        if interval >= 0.0:
            why = (
                " (the chord to the target is not timelike at the decay event:"
                f" g(dx, dx) = {interval:.3g})"
            )
        report.fail(f"{label}: no timelike geodesic found: {shot.message}{why}")
        return None
    _add_leg_rows(report, label, seg)
    return seg


def _add_leg_rows(report: Report, label: str, seg: GeodesicSegment) -> None:
    report.add(f"{label}_proper_time", float(seg.proper_time))
    report.add(f"{label}_integrator_steps", int(seg.meta["n_steps"]))
    report.add(f"{label}_rejected_steps", int(seg.meta["n_rejected"]))
    report.add(f"{label}_rhs_evals", int(seg.meta["n_rhs"]))


def run_scenario(sc: Scenario) -> Report:
    """Execute a scenario end to end and assemble its report.

    Geodesic failures (chart exit, shooting non-convergence) and any other
    DomainError are recorded as failure rows; the report is still returned
    so partial diagnostics reach the caller.
    """
    report = Report(
        scenario_id=sc.scenario_id,
        scenario_sha256=sc.sha256,
        tool_version=TOOL_VERSION,
    )
    try:
        _fill_report(sc, report)
    except DomainError as exc:
        report.fail(f"run stopped: {exc}")
    return report


def _fill_report(sc: Scenario, report: Report) -> None:
    st = sc.spacetime
    origin = Event(sc.decay_event)

    seg1 = _build_leg(sc, st, origin, sc.detector1, "geodesic1", report)
    seg2 = _build_leg(sc, st, origin, sc.detector2, "geodesic2", report)
    if seg1 is None or seg2 is None:
        return

    result = pair_transport(seg1, seg2, decay_velocity=sc.decay_velocity)

    # Frame-matching rotation between the two detector frames, by both routes.
    axis, angle = rotation_axis_angle(result.relative_rotation)
    report.add("rotation_angle", float(angle))
    for k in range(3):
        report.add("rotation_axis", float(axis[k]), a_index=k)
    spin_rot = spin_relative_rotation(result)
    _, spin_angle = rotation_axis_angle(spin_rot)
    report.add("rotation_angle_spin_route", float(spin_angle))
    route_gap = float(np.max(np.abs(spin_rot - result.relative_rotation)))
    report.add(
        "diag_route_agreement",
        route_gap,
        flag=FLAG_OK if route_gap <= 1e-6 else FLAG_FAIL,
    )

    # Correlations for every requested direction pair, then the matched
    # image of each first-detector direction, and the CHSH values.  One
    # correlation matrix serves them all, and each axis is validated once
    # (matched_axis checks the direction it maps for itself).
    k = correlation_matrix(result.state)
    v1 = [direction_vector(a, "1") for a in sc.directions1]
    v2 = np.array([direction_vector(b, "2") for b in sc.directions2])
    # a @ K row by row, as correlation() computes (a @ K) @ b: a 2-D v1 @ K
    # sums in another order and moves the last digits of E
    table = np.array([va @ k for va in v1]) @ v2.T
    for i, row in enumerate(table.tolist()):
        for j, e in enumerate(row):
            report.add("E", e, a_index=i, b_index=j)

    def matched(a):
        return direction_vector(matched_axis(result, a), "2")

    for i, (a, va) in enumerate(zip(sc.directions1, v1)):
        e_matched = float(va @ k @ matched(a))
        report.add(
            "E_matched",
            e_matched,
            a_index=i,
            b_index=i,
            flag=FLAG_OK if abs(e_matched + 1.0) <= 1e-6 else FLAG_FAIL,
        )

    za, xa, da, ea = CANONICAL_CHSH_DIRECTIONS
    vz, vx = direction_vector(za, "1"), direction_vector(xa, "1")
    s_matched = chsh_value(k, vz, vx, matched(da), matched(ea))
    report.add(
        "chsh_matched",
        s_matched,
        flag=FLAG_OK if abs(s_matched + 2.0 * np.sqrt(2.0)) <= 1e-6 else FLAG_FAIL,
    )
    report.add("chsh_canonical", chsh_value(k, vz, vx, direction_vector(da, "2"), direction_vector(ea, "2")))

    # Diagnostics: conservation of the tangent norm along each leg and
    # orthonormality of a transported detector frame.
    drift = 0.0
    for seg in (seg1, seg2):
        if not seg.zero_length:
            drift = max(drift, seg.meta["norm_drift"])
    report.add("diag_norm_drift", drift, flag=FLAG_OK if drift <= 1e-8 else FLAG_FAIL)
    ortho = result.ortho_drift(sc.gauge)
    report.add("diag_ortho_drift", ortho, flag=FLAG_OK if ortho <= 1e-8 else FLAG_FAIL)

    if sc.decoherence is not None:
        _run_decoherence(sc, result, report)


class _SigmaFailure(Exception):
    """A sigma of the decoherence sweep failed; its text is the failure row."""


def _averaged_group(result: PairResult, group: list, mode: str):
    """(sigma, resample rounds, ChannelAverage) of each (sigma, b1, b2) of a group.

    A DomainError from the group's channel is traced to its first failing
    sigma by averaging one bundle pair at a time, so the sigmas before it
    still yield.
    """
    try:
        avgs = deco.averaged_states(result, [g[1] for g in group], [g[2] for g in group], mode)
    except DomainError:
        avgs = [None] * len(group)
    for (sigma, b1, b2), avg in zip(group, avgs):
        if avg is None:
            try:
                avg = deco.averaged_state(result, b1, b2, mode)
            except DomainError as exc:
                raise _SigmaFailure(f"decoherence: sigma={sigma}: {exc}") from None
        yield sigma, b1.meta["resample_rounds"] + b2.meta["resample_rounds"], avg


def _averaged_sweep(result: PairResult, dspec: DecoherenceSpec):
    """(sigma, resample rounds, ChannelAverage) of each sigma, in sigma order.

    Bundles are drawn in sigma order and averaged in groups whose stacked
    rows per leg, the base polygon's included, fit in one transport chunk; a
    larger bundle forms a group of its own, and a zero-width bundle adds no
    rows.  A group is yielded in full before the next is drawn, so a sweep
    holds no more paths than its largest group.  The first sigma that fails
    raises _SigmaFailure after every sigma before it has been yielded.
    """
    seg1, seg2 = result.segment1, result.segment2
    group, rows = [], 1
    for k, sigma in enumerate(dspec.sigmas):
        extra = dspec.n_paths if sigma != 0.0 else 0
        if rows > 1 and rows + extra > deco._CHUNK:
            yield from _averaged_group(result, group, dspec.mode)
            group, rows = [], 1
        try:
            b1 = deco.sample_bundle(seg1, sigma, dspec.n_paths, seed=dspec.seed + 2 * k)
            b2 = deco.sample_bundle(seg2, sigma, dspec.n_paths, seed=dspec.seed + 2 * k + 1)
        except DomainError as exc:
            yield from _averaged_group(result, group, dspec.mode)
            raise _SigmaFailure(f"decoherence: sigma={sigma}: {exc}") from None
        group.append((sigma, b1, b2))
        rows += extra
    yield from _averaged_group(result, group, dspec.mode)


def _run_decoherence(sc: Scenario, result: PairResult, report: Report) -> None:
    dspec = sc.decoherence
    seg1, seg2 = result.segment1, result.segment2
    if seg1.zero_length or seg2.zero_length:
        report.fail("decoherence: both legs must have nonzero proper length")
        return
    a_ideal = sc.directions1[0]
    b_ideal = matched_axis(result, a_ideal)
    prev = None
    try:
        for k, (sigma, rounds, avg) in enumerate(_averaged_sweep(result, dspec)):
            fid, se = deco.fidelity_with_error(avg)
            e_deg = float(deco.degraded_correlation(avg, a_ideal, b_ideal))
            flag = ""
            if sigma == 0.0:
                flag = FLAG_OK if abs(fid - 1.0) <= 1e-8 else FLAG_FAIL
            elif prev is not None:
                margin = 2.0 * (se + prev[1]) + MONOTONE_ROUNDOFF
                flag = FLAG_OK if fid <= prev[0] + margin else FLAG_FAIL
            report.add("decoherence_sigma", float(sigma), a_index=k)
            report.add("decoherence_fidelity", float(fid), a_index=k, flag=flag)
            report.add("decoherence_fidelity_se", float(se), a_index=k)
            report.add("decoherence_E_matched", e_deg, a_index=k)
            report.add("decoherence_resample_rounds", int(rounds), a_index=k)
            prev = (fid, se)
    except _SigmaFailure as exc:
        report.fail(str(exc))
