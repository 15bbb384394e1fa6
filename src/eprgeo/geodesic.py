"""Timelike geodesics: grid-locked adaptive integration and two-point shooting.

The integrator is an embedded Dormand-Prince 5(4) pair marching the 8-dim
state (x, dx/dtau) between the nodes of a fixed uniform proper-time grid, so
callers always get samples at exactly the grid times regardless of how the
adaptive substeps fall.  Leaving the chart is not an error of the integrator
but of the trajectory: the step is halved toward the boundary and a
DomainExitError carrying the last valid sample is raised.

The boundary-value problem (geodesic from O to a given target event) is
solved by damped Newton shooting on four unknowns: the spatial velocity of
the launch direction in the static frame at O, w = sinh(chi) * direction,
plus the total proper time.  This parameterization is unconstrained and
stays well conditioned near purely radial or purely tangential launches,
where angle coordinates would degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainExitError, IntegrationError, UsageError
from .frames import frame_field, inverse_frame
from .spacetime import Event, Spacetime, Tangent, metric_at, require_event, same_event

DEFAULT_SAMPLE_STEP = 0.02
DEFAULT_TOL = 1.0e-10

# Cap on memory and run time: samples_for(tau, sample_step) per sampled leg.
MAX_LEG_SAMPLES = 100_000

# Dormand-Prince 5(4) coefficients; last row of A equals the 5th-order
# weights, so the 7th stage is the first stage of the next step (FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4


@dataclass
class GeodesicSegment:
    """A sampled geodesic: events and tangents on a uniform proper-time grid.

    tau runs from 0 at the start of the segment; events[k] and tangents[k]
    are the position and 4-velocity at tau[k].  ``forward`` records whether
    the segment still carries its original orientation (reverse() flips it).
    ``cache`` holds per-segment transport data and is never compared.
    """

    spacetime: Spacetime
    tau: np.ndarray
    events: np.ndarray
    tangents: np.ndarray
    forward: bool = True
    meta: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_samples(self) -> int:
        return self.tau.shape[0]

    @property
    def proper_time(self) -> float:
        return float(self.tau[-1] - self.tau[0])

    @property
    def zero_length(self) -> bool:
        return self.n_samples == 1 or self.proper_time == 0.0

    def event_at(self, k: int) -> Event:
        return Event(self.events[k])

    def tangent_at(self, k: int) -> Tangent:
        e = self.event_at(k)
        return Tangent(self.tangents[k], e)

    @property
    def start(self) -> Event:
        return self.event_at(0)

    @property
    def end(self) -> Event:
        return self.event_at(-1)

    @property
    def start_tangent(self) -> Tangent:
        return self.tangent_at(0)

    @property
    def end_tangent(self) -> Tangent:
        return self.tangent_at(-1)


def point_segment(st: Spacetime, event: Event, u: np.ndarray | None = None) -> GeodesicSegment:
    """A zero-length segment at one event (transport along it is trivial)."""
    require_event(st, event)
    if u is None:
        u = frame_field(st, event.coords)[:, 0]
    u = np.asarray(u, dtype=float)
    return GeodesicSegment(
        st,
        np.zeros(1),
        event.coords[None, :].copy(),
        u[None, :].copy(),
        meta={"zero_length": True},
    )


def samples_for(tau: float, step: float = DEFAULT_SAMPLE_STEP) -> int:
    """Sample count for a segment of length tau at roughly the given spacing."""
    return max(1, int(np.ceil(abs(tau) / step))) + 1


def _deriv(st: Spacetime, y: np.ndarray) -> np.ndarray:
    gam = st.christoffel(y[:4])
    out = np.empty(8)
    out[:4] = y[4:]
    out[4:] = -np.einsum("lmn,m,n->l", gam, y[4:], y[4:])
    return out


def integrate_geodesic(
    st: Spacetime,
    start: Event | Tangent,
    u0: np.ndarray | None = None,
    tau_end: float = 0.0,
    *,
    tol: float = DEFAULT_TOL,
    n_samples: int | None = None,
    adaptive: bool = True,
    normalize: bool = True,
    allow_past: bool = False,
) -> GeodesicSegment:
    """Integrate the geodesic from a start event and 4-velocity.

    ``start`` may be a Tangent (bundling event and velocity) or an Event with
    ``u0`` given separately.  Samples are returned at exactly the uniform
    grid times; with ``adaptive`` the local error per substep is controlled
    at rtol=tol, atol=tol/100, otherwise one 5th-order step is taken per
    grid interval (useful for convergence studies).  The 4-velocity norm is
    checked across all samples afterwards; drift beyond max(10 tol, 1e-9)
    raises IntegrationError.
    """
    if isinstance(start, Tangent):
        event0, u0 = start.event, start.components
    else:
        event0 = start
        if u0 is None:
            raise UsageError("u0 is required when start is an Event")
    require_event(st, event0)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (4,):
        raise UsageError(f"4-velocity must have shape (4,), got {u0.shape}")

    q = float(u0 @ st.metric(event0.coords) @ u0)
    if not q < 0.0:
        raise UsageError("initial 4-velocity must be timelike")
    if u0[0] <= 0.0 and not allow_past:
        raise UsageError(
            "initial 4-velocity must be future-directed (or pass allow_past=True)"
        )
    u0 = u0 / np.sqrt(-q) if normalize else u0
    norm0 = -1.0 if normalize else q

    tau_end = float(tau_end)
    if tau_end == 0.0:
        return point_segment(st, event0, u0)
    if tau_end < 0.0 and not allow_past:
        raise UsageError("tau_end < 0 requires allow_past=True")
    sgn = 1.0 if tau_end > 0.0 else -1.0
    span = abs(tau_end)

    if n_samples is None:
        n_samples = samples_for(span)
    if n_samples < 2:
        raise UsageError("n_samples must be at least 2")
    nodes = np.linspace(0.0, span, n_samples)

    rtol, atol = tol, tol * 1.0e-2
    h_min = 1.0e-12 * max(1.0, span)
    ys = np.empty((n_samples, 8))
    ys[0, :4] = event0.coords
    ys[0, 4:] = u0

    y = ys[0].copy()
    with np.errstate(all="ignore"):
        k1 = sgn * _deriv(st, y)
    h = nodes[1] - nodes[0]
    t = 0.0
    n_steps = n_rejected = 0
    stages = np.empty((7, 8))

    for i in range(n_samples - 1):
        t_node = nodes[i + 1]
        while t_node - t > 1.0e-14 * span:
            if not adaptive:
                h = t_node - t
            h = min(h, t_node - t)
            if h < h_min and h < t_node - t:
                raise IntegrationError(f"step size underflow at tau={sgn * t:.6g}")
            stages[0] = k1
            ok = True
            with np.errstate(all="ignore"):
                for j in range(1, 7):
                    yj = y + (sgn * h) * (np.asarray(_DP_A[j]) @ stages[:j])
                    stages[j] = sgn * _deriv(st, yj)
                y_new = y + (sgn * h) * (_DP_B5 @ stages)
                err = (sgn * h) * (_DP_E @ stages)
            if not np.all(np.isfinite(y_new)):
                ok = False
            elif not bool(st.in_chart(y_new[:4])):
                # not a numerical failure: creep toward the chart boundary
                if adaptive and h > 4.0 * h_min:
                    h *= 0.5
                    n_rejected += 1
                    continue
                raise DomainExitError(
                    f"trajectory leaves the chart of {st.name} near tau={sgn * t:.6g}",
                    tau=sgn * t,
                    coords=y[:4].copy(),
                    velocity=y[4:].copy(),
                )
            if adaptive:
                scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
                with np.errstate(all="ignore"):
                    enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
                if not ok or not np.isfinite(enorm) or enorm > 1.0:
                    h *= max(0.2, 0.9 * (enorm + 1.0e-16) ** -0.2) if np.isfinite(enorm) else 0.5
                    n_rejected += 1
                    continue
                grow = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm**-0.2))
            else:
                if not ok:
                    raise IntegrationError(f"non-finite state at tau={sgn * t:.6g}")
                grow = 1.0
            t += h
            y = y_new
            k1 = stages[6]
            h *= grow
            n_steps += 1
        t = t_node
        ys[i + 1] = y

    seg = GeodesicSegment(
        st,
        sgn * nodes,
        ys[:, :4].copy(),
        ys[:, 4:].copy(),
        meta={
            "tol": tol,
            "adaptive": adaptive,
            "n_steps": n_steps,
            "n_rejected": n_rejected,
        },
    )
    g = st.metric(seg.events)
    norms = np.einsum("km,kmn,kn->k", seg.tangents, g, seg.tangents)
    drift = float(np.max(np.abs(norms - norm0)))
    seg.meta["norm_drift"] = drift
    if adaptive and drift > max(10.0 * tol, 1.0e-9):
        raise IntegrationError(f"4-velocity norm drifted by {drift:.3e}; tighten tol")
    return seg


def reverse(seg: GeodesicSegment) -> GeodesicSegment:
    """The same worldline traversed the other way (tangents negated).

    reverse(reverse(seg)) reproduces the original samples exactly.
    """
    return GeodesicSegment(
        seg.spacetime,
        seg.tau[-1] - seg.tau[::-1],
        seg.events[::-1].copy(),
        -seg.tangents[::-1],
        forward=not seg.forward,
        meta=dict(seg.meta),
    )


@dataclass
class ShootingReport:
    """Outcome of solve_bvp.  Non-convergence is reported here, not raised.

    residual is the Euclidean chart-coordinate distance from the endpoint to
    the target (periodic axes wrapped).  frame_velocity is the shooting
    unknown w, the spatial velocity in the static frame at the origin.
    """

    converged: bool
    residual: float
    iterations: int
    initial_tangent: Optional[Tangent]
    frame_velocity: np.ndarray
    proper_time: float
    message: str = ""


def _wrap_residual(st: Spacetime, delta: np.ndarray) -> np.ndarray:
    for axis, period in st.periodic_axes.items():
        delta[axis] = (delta[axis] + period / 2.0) % period - period / 2.0
    return delta


def solve_bvp(
    st: Spacetime,
    origin: Event,
    target: Event,
    *,
    tau_hint: float | None = None,
    frame_velocity_guess: np.ndarray | None = None,
    tol: float = 1.0e-9,
    max_iter: int = 50,
    sample_step: float = DEFAULT_SAMPLE_STEP,
    integration_tol: float = DEFAULT_TOL,
) -> tuple[Optional[GeodesicSegment], ShootingReport]:
    """Find the timelike geodesic from origin to target by shooting.

    Newton iterates on (w, tau): w is the spatial 4-velocity in the static
    frame at the origin and tau the total proper time.  Trial trajectories
    are integrated endpoint-only; the converged one is re-integrated on the
    full sample grid, or reported not converged if that grid would exceed
    MAX_LEG_SAMPLES.  Angular residuals are wrapped on periodic axes.
    Returns (segment, report); the segment is None when not converged.
    """
    require_event(st, origin)
    require_event(st, target)

    if same_event(origin, target, tol=1.0e-12):
        seg = point_segment(st, origin)
        report = ShootingReport(
            True, 0.0, 0, seg.start_tangent, np.zeros(3), 0.0, "coincident endpoints"
        )
        return seg, report

    n0 = frame_field(st, origin.coords)
    g0 = metric_at(st, origin)
    dx = _wrap_residual(st, target.coords - origin.coords)

    if tau_hint is None:
        q = -float(dx @ g0 @ dx)
        tau_hint = float(np.sqrt(q)) if q > 1.0e-8 else float(np.linalg.norm(dx))
        tau_hint = max(tau_hint, 1.0e-3)
    if frame_velocity_guess is None:
        uf = inverse_frame(n0, g0) @ (dx / tau_hint)
        w0 = uf[1:]
    else:
        w0 = np.asarray(frame_velocity_guess, dtype=float)

    p = np.empty(4)
    p[:3] = w0
    p[3] = tau_hint

    def endpoint(param: np.ndarray) -> np.ndarray | None:
        if param[3] < 1.0e-8:
            return None
        w = param[:3]
        uf = np.empty(4)
        uf[0] = np.sqrt(1.0 + w @ w)
        uf[1:] = w
        u0 = n0 @ uf
        try:
            trial = integrate_geodesic(
                st,
                origin,
                u0,
                param[3],
                tol=integration_tol,
                n_samples=2,
                normalize=False,
            )
        except (DomainExitError, IntegrationError):
            return None
        return trial.events[-1]

    def residual(param: np.ndarray) -> np.ndarray | None:
        e = endpoint(param)
        if e is None:
            return None
        return _wrap_residual(st, e - target.coords)

    r = residual(p)
    shrink = 0
    while r is None and shrink < 6:
        p[3] *= 0.5
        r = residual(p)
        shrink += 1
    if r is None:
        report = ShootingReport(
            False, np.inf, 0, None, p[:3].copy(), p[3], "initial trajectory leaves the chart"
        )
        return None, report

    message = "did not converge in max_iter iterations"
    for it in range(1, max_iter + 1):
        if float(np.linalg.norm(r)) < tol:
            if samples_for(p[3], sample_step) > MAX_LEG_SAMPLES:
                message = f"proper time {p[3]:.6g} needs over {MAX_LEG_SAMPLES} samples per leg"
                return None, ShootingReport(
                    False, float(np.linalg.norm(r)), it - 1, None, p[:3].copy(), float(p[3]), message
                )
            seg = integrate_geodesic(
                st,
                origin,
                n0 @ np.concatenate([[np.sqrt(1.0 + p[:3] @ p[:3])], p[:3]]),
                p[3],
                tol=integration_tol,
                n_samples=samples_for(p[3], sample_step),
            )
            final = _wrap_residual(st, seg.events[-1] - target.coords)
            report = ShootingReport(
                True,
                float(np.linalg.norm(final)),
                it - 1,
                seg.start_tangent,
                p[:3].copy(),
                float(p[3]),
            )
            return seg, report

        jac = np.empty((4, 4))
        bad = False
        for j in range(4):
            step = 1.0e-6 * max(1.0, abs(p[j]))
            pj = p.copy()
            pj[j] += step
            rj = residual(pj)
            if rj is None:
                pj[j] = p[j] - step
                rj = residual(pj)
                step = -step
                if rj is None:
                    bad = True
                    break
            jac[:, j] = (rj - r) / step
        if bad:
            message = "Jacobian evaluation left the chart"
            break

        try:
            d = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(jac, -r, rcond=None)[0]

        r2 = float(r @ r)
        improved = False
        for k in range(9):
            p_try = p + d * (0.5**k)
            if p_try[3] < 1.0e-8:
                continue
            r_try = residual(p_try)
            if r_try is not None and float(r_try @ r_try) < r2:
                p, r = p_try, r_try
                improved = True
                break
        if not improved:
            message = "line search stalled"
            break

    report = ShootingReport(
        False, float(np.linalg.norm(r)), max_iter, None, p[:3].copy(), float(p[3]), message
    )
    return None, report
