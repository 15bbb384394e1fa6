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
    ``gauge``, ``tol``, ``bvp_tol``, ``sample_step``.
``[output]`` (optional)
    ``format`` (table | csv) and ``path``.

Parse and validation problems raise ConfigurationError with the offending
line number.  ``run_scenario`` turns a parsed scenario into a Report; leg
failures (chart exit, no endpoint solution) are recorded in the report
rather than raised.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import decoherence as deco
from .errors import ConfigurationError, DomainError, IntegrationError
from .geodesic import (
    DEFAULT_SAMPLE_STEP,
    DEFAULT_TOL,
    integrate_geodesic,
    samples_for,
    solve_bvp,
)
from .frames import GAUGES
from .lorentz import rotation_axis_angle
from .pipeline import matched_axis, pair_transport, spin_relative_rotation
from .report import FLAG_FAIL, FLAG_OK, Report
from .spacetime import Event, Spacetime, make_spacetime, require_event
from .spin import CANONICAL_CHSH_DIRECTIONS, chsh, correlation
from .transport import transport_tetrad, gauge_tetrad

TOOL_VERSION = "0.1.0"

# Round-off allowance of the fidelity monotonicity flag.  Flat or otherwise
# trivial channels give standard errors of 0 or ~1e-17, so the 2-sigma margin
# all but vanishes, while fidelities of 1 still differ in the last ulp
# between sigmas (1.0, then 1.0000000000000002).
MONOTONE_ROUNDOFF = 16.0 * np.finfo(float).eps

_SECTIONS = (
    "spacetime",
    "decay",
    "detector1",
    "detector2",
    "measurements",
    "decoherence",
    "numerics",
    "output",
)

_KEYS = {
    "spacetime": {"kind", "mass", "epsilon", "softening"},
    "decay": {"event", "velocity"},
    "detector1": {"tangent", "tau", "target", "tau_hint"},
    "detector2": {"tangent", "tau", "target", "tau_hint"},
    "measurements": {"directions1", "directions2"},
    "decoherence": {"sigma", "n_paths", "mode", "seed"},
    "numerics": {"gauge", "tol", "bvp_tol", "sample_step"},
    "output": {"format", "path"},
}


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
    spacetime_kind: str
    spacetime_params: dict
    decay_event: np.ndarray
    decay_velocity: Optional[np.ndarray]
    detector1: DetectorSpec
    detector2: DetectorSpec
    directions1: list[np.ndarray] = field(default_factory=list)
    directions2: list[np.ndarray] = field(default_factory=list)
    decoherence: Optional[DecoherenceSpec] = None
    gauge: str = "static"
    tol: float = DEFAULT_TOL
    bvp_tol: float = 1e-9
    sample_step: float = DEFAULT_SAMPLE_STEP
    out_format: str = "table"
    out_path: Optional[str] = None

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()

    @property
    def scenario_id(self) -> str:
        return self.sha256[:12]

    def build_spacetime(self) -> Spacetime:
        return make_spacetime(self.spacetime_kind, self.spacetime_params)


def _err(line: int, message: str) -> ConfigurationError:
    return ConfigurationError(f"line {line}: {message}")


def _parse_float(raw: str, line: int, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _err(line, f"{key}: expected a number, got {raw!r}") from None


def _parse_int(raw: str, line: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _err(line, f"{key}: expected an integer, got {raw!r}") from None


def _parse_vector(raw: str, line: int, key: str, size: int) -> np.ndarray:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != size:
        raise _err(line, f"{key}: expected {size} comma-separated values, got {len(parts)}")
    return np.array([_parse_float(p, line, key) for p in parts], dtype=float)


def _parse_vector_list(raw: str, line: int, key: str, size: int) -> list[np.ndarray]:
    groups = [g for g in (s.strip() for s in raw.split(";")) if g]
    if not groups:
        raise _err(line, f"{key}: expected at least one vector")
    return [_parse_vector(g, line, key, size) for g in groups]


def _parse_float_list(raw: str, line: int, key: str) -> list[float]:
    parts = [p for p in (s.strip() for s in raw.split(",")) if p]
    if not parts:
        raise _err(line, f"{key}: expected at least one value")
    return [_parse_float(p, line, key) for p in parts]


def _split_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: Optional[str] = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
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
        if key not in _KEYS[current]:
            raise _err(lineno, f"unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise _err(lineno, f"duplicate key {key!r} in [{current}]")
        if not value:
            raise _err(lineno, f"empty value for {key!r}")
        sections[current][key] = (value, lineno)
    return sections


def _parse_detector(name: str, entries: dict[str, tuple[str, int]]) -> DetectorSpec:
    has_ivp = "tangent" in entries or "tau" in entries
    has_bvp = "target" in entries or "tau_hint" in entries
    first_line = min(line for _, line in entries.values()) if entries else 0
    if has_ivp and has_bvp:
        raise _err(first_line, f"[{name}]: give either tangent/tau or target, not both")
    if has_ivp:
        if "tangent" not in entries or "tau" not in entries:
            raise _err(first_line, f"[{name}]: tangent and tau are both required")
        raw, line = entries["tangent"]
        tangent = _parse_vector(raw, line, "tangent", 4)
        raw, line = entries["tau"]
        tau = _parse_float(raw, line, "tau")
        if tau < 0:
            raise _err(line, "tau must be nonnegative")
        return DetectorSpec(mode="ivp", tangent=tangent, tau=tau)
    if has_bvp:
        if "target" not in entries:
            raise _err(first_line, f"[{name}]: target is required for a boundary-value leg")
        raw, line = entries["target"]
        target = _parse_vector(raw, line, "target", 4)
        hint = None
        if "tau_hint" in entries:
            raw, line = entries["tau_hint"]
            hint = _parse_float(raw, line, "tau_hint")
            if hint <= 0:
                raise _err(line, "tau_hint must be positive")
        return DetectorSpec(mode="bvp", target=target, tau_hint=hint)
    raise ConfigurationError(f"[{name}]: missing leg definition (tangent/tau or target)")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text.

    Raises ConfigurationError with a line number on any malformed or
    inconsistent entry.
    """
    sections = _split_sections(text)
    for required in ("spacetime", "decay", "detector1", "detector2"):
        if required not in sections:
            raise ConfigurationError(f"missing required section [{required}]")

    st_entries = sections["spacetime"]
    if "kind" not in st_entries:
        raise ConfigurationError("[spacetime]: missing 'kind'")
    kind_raw, kind_line = st_entries["kind"]
    kind = kind_raw.lower().replace("-", "_")
    params: dict = {}
    if "mass" in st_entries:
        raw, line = st_entries["mass"]
        params["M"] = _parse_float(raw, line, "mass")
    if "epsilon" in st_entries:
        raw, line = st_entries["epsilon"]
        params["epsilon"] = _parse_float(raw, line, "epsilon")
    if "softening" in st_entries:
        raw, line = st_entries["softening"]
        params["softening"] = _parse_float(raw, line, "softening")
    try:
        st = make_spacetime(kind, params)
    except ConfigurationError as exc:
        raise _err(kind_line, f"[spacetime]: {exc}") from None

    decay_entries = sections["decay"]
    if "event" not in decay_entries:
        raise ConfigurationError("[decay]: missing 'event'")
    raw, line = decay_entries["event"]
    decay_event = _parse_vector(raw, line, "event", 4)
    try:
        require_event(st, Event(decay_event))
    except DomainError as exc:
        raise _err(line, f"decay event outside chart domain: {exc}") from None
    decay_velocity = None
    if "velocity" in decay_entries:
        raw, line = decay_entries["velocity"]
        decay_velocity = _parse_vector(raw, line, "velocity", 4)

    det1 = _parse_detector("detector1", sections["detector1"])
    det2 = _parse_detector("detector2", sections["detector2"])
    for name, det in (("detector1", det1), ("detector2", det2)):
        if det.mode == "bvp":
            try:
                require_event(st, Event(det.target))
            except DomainError as exc:
                raise ConfigurationError(f"[{name}]: target outside chart domain: {exc}") from None

    directions1 = [np.array([0.0, 0.0, 1.0])]
    directions2 = [np.array([0.0, 0.0, 1.0])]
    if "measurements" in sections:
        m = sections["measurements"]
        if "directions1" in m:
            raw, line = m["directions1"]
            directions1 = _parse_vector_list(raw, line, "directions1", 3)
        if "directions2" in m:
            raw, line = m["directions2"]
            directions2 = _parse_vector_list(raw, line, "directions2", 3)
        for key, vecs in (("directions1", directions1), ("directions2", directions2)):
            for v in vecs:
                norm = float(np.linalg.norm(v))
                if norm < 1e-12:
                    _, line = m[key]
                    raise _err(line, f"{key}: zero direction vector")
        directions1 = [v / np.linalg.norm(v) for v in directions1]
        directions2 = [v / np.linalg.norm(v) for v in directions2]

    decoherence = None
    if "decoherence" in sections:
        d = sections["decoherence"]
        if "sigma" not in d:
            raise ConfigurationError("[decoherence]: missing 'sigma'")
        raw, line = d["sigma"]
        sigmas = _parse_float_list(raw, line, "sigma")
        if any(s < 0 for s in sigmas):
            raise _err(line, "sigma values must be nonnegative")
        dspec = DecoherenceSpec(sigmas=sigmas)
        if "n_paths" in d:
            raw, line = d["n_paths"]
            dspec.n_paths = _parse_int(raw, line, "n_paths")
            if dspec.n_paths < 1:
                raise _err(line, "n_paths must be at least 1")
        if "mode" in d:
            raw, line = d["mode"]
            dspec.mode = raw.lower()
            if dspec.mode not in ("coherent", "incoherent"):
                raise _err(line, f"mode must be coherent or incoherent, got {raw!r}")
        if "seed" in d:
            raw, line = d["seed"]
            dspec.seed = _parse_int(raw, line, "seed")
        decoherence = dspec

    gauge = "static"
    tol = DEFAULT_TOL
    bvp_tol = 1e-9
    sample_step = DEFAULT_SAMPLE_STEP
    if "numerics" in sections:
        n = sections["numerics"]
        if "gauge" in n:
            raw, line = n["gauge"]
            gauge = raw.lower()
            if gauge not in GAUGES:
                raise _err(line, f"gauge must be one of {GAUGES}, got {raw!r}")
        if "tol" in n:
            raw, line = n["tol"]
            tol = _parse_float(raw, line, "tol")
            if not 0 < tol <= 1e-2:
                raise _err(line, "tol must be in (0, 1e-2]")
        if "bvp_tol" in n:
            raw, line = n["bvp_tol"]
            bvp_tol = _parse_float(raw, line, "bvp_tol")
            if not 0 < bvp_tol <= 1e-2:
                raise _err(line, "bvp_tol must be in (0, 1e-2]")
        if "sample_step" in n:
            raw, line = n["sample_step"]
            sample_step = _parse_float(raw, line, "sample_step")
            if not 0 < sample_step <= 1.0:
                raise _err(line, "sample_step must be in (0, 1]")

    out_format = "table"
    out_path = None
    if "output" in sections:
        o = sections["output"]
        if "format" in o:
            raw, line = o["format"]
            out_format = raw.lower()
            if out_format not in ("table", "csv"):
                raise _err(line, f"format must be table or csv, got {raw!r}")
        if "path" in o:
            out_path, _ = o["path"]

    return Scenario(
        text=text,
        spacetime_kind=kind,
        spacetime_params=params,
        decay_event=decay_event,
        decay_velocity=decay_velocity,
        detector1=det1,
        detector2=det2,
        directions1=directions1,
        directions2=directions2,
        decoherence=decoherence,
        gauge=gauge,
        tol=tol,
        bvp_tol=bvp_tol,
        sample_step=sample_step,
        out_format=out_format,
        out_path=out_path,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


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
        report.add(f"{label}_proper_time", float(seg.proper_time))
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
    if seg is None:
        report.fail(f"{label}: no timelike geodesic found: {shot.message}")
        return None
    report.add(f"{label}_proper_time", float(seg.proper_time))
    return seg


def run_scenario(sc: Scenario) -> Report:
    """Execute a scenario end to end and assemble its report.

    Geodesic failures (chart exit, shooting non-convergence) are recorded
    as failure rows; the report is still returned so partial diagnostics
    reach the caller.
    """
    report = Report(
        scenario_id=sc.scenario_id,
        scenario_sha256=sc.sha256,
        tool_version=TOOL_VERSION,
    )
    st = sc.build_spacetime()
    origin = Event(sc.decay_event)

    seg1 = _build_leg(sc, st, origin, sc.detector1, "geodesic1", report)
    seg2 = _build_leg(sc, st, origin, sc.detector2, "geodesic2", report)
    if seg1 is None or seg2 is None:
        return report

    result = pair_transport(
        seg1, seg2, gauge=sc.gauge, decay_velocity=sc.decay_velocity
    )

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
    # image of each first-detector direction.
    state = result.state
    for i, a in enumerate(sc.directions1):
        for j, b in enumerate(sc.directions2):
            report.add("E", float(correlation(state, a, b)), a_index=i, b_index=j)
    for i, a in enumerate(sc.directions1):
        b_star = matched_axis(result, a)
        e_matched = float(correlation(state, a, b_star))
        report.add(
            "E_matched",
            e_matched,
            a_index=i,
            b_index=i,
            flag=FLAG_OK if abs(e_matched + 1.0) <= 1e-6 else FLAG_FAIL,
        )

    za, xa, da, ea = CANONICAL_CHSH_DIRECTIONS
    s_matched = float(
        chsh(
            state,
            za,
            xa,
            matched_axis(result, da),
            matched_axis(result, ea),
        )
    )
    report.add(
        "chsh_matched",
        s_matched,
        flag=FLAG_OK if abs(s_matched + 2.0 * np.sqrt(2.0)) <= 1e-6 else FLAG_FAIL,
    )
    report.add("chsh_canonical", float(chsh(state, za, xa, da, ea)))

    # Diagnostics: conservation of the tangent norm along each leg and
    # orthonormality of a transported detector frame.
    drift = 0.0
    for seg in (seg1, seg2):
        if seg.zero_length:
            continue
        norms = np.einsum(
            "ki,kij,kj->k", seg.tangents, st.metric(seg.events), seg.tangents
        )
        drift = max(drift, float(np.max(np.abs(norms + 1.0))))
    report.add("diag_norm_drift", drift, flag=FLAG_OK if drift <= 1e-8 else FLAG_FAIL)
    ortho = 0.0
    for seg in (seg1, seg2):
        if seg.zero_length:
            continue
        moved = transport_tetrad(seg, gauge_tetrad(st, seg.start, sc.gauge))
        ortho = max(ortho, float(moved.defect(st)))
    report.add("diag_ortho_drift", ortho, flag=FLAG_OK if ortho <= 1e-8 else FLAG_FAIL)

    if sc.decoherence is not None:
        _run_decoherence(sc, result, seg1, seg2, report)
    return report


def _run_decoherence(sc: Scenario, result, seg1, seg2, report: Report) -> None:
    dspec = sc.decoherence
    if seg1.zero_length or seg2.zero_length:
        report.fail("decoherence: both legs must have nonzero proper length")
        return
    a_ideal = sc.directions1[0]
    b_ideal = matched_axis(result, a_ideal)
    prev = None
    for k, sigma in enumerate(dspec.sigmas):
        try:
            b1 = deco.sample_bundle(
                seg1, sigma, dspec.n_paths, seed=dspec.seed + 2 * k, mode=dspec.mode
            )
            b2 = deco.sample_bundle(
                seg2, sigma, dspec.n_paths, seed=dspec.seed + 2 * k + 1, mode=dspec.mode
            )
        except DomainError as exc:
            report.fail(f"decoherence: sigma={sigma}: {exc}")
            return
        avg = deco.averaged_state(b1, b2, sc.gauge, decay_velocity=sc.decay_velocity)
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
        prev = (fid, se)
