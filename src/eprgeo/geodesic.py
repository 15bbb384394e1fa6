"""Timelike geodesics: integration with dense output, and shooting.

The integrator is an embedded Dormand-Prince 5(4) pair marching the 8-dim
state (x, dx/dtau) toward the future.  The error estimate alone sets the
step; the nodes of the uniform proper-time grid that a step passes are
filled from the pair's continuous extension, so callers get samples at
exactly the grid times however the steps fall.  The estimate controls the
5th-order step end, and the nodes inside a step come from a 4th-order
interpolant, so a grid with interior nodes is marched at min(tol,
DENSE_TOL); a two-node grid is marched at tol.  Leaving the chart is not an
error of the integrator but of the trajectory: the step is halved toward
the boundary and a DomainExitError carrying the last valid sample is raised.

The step is unrolled on Python floats, because on an 8-component state
NumPy's per-call overhead costs more than the arithmetic, and written out
per component on local floats, because a comprehension's per-element
overhead costs more again: every component of every stage repeats the
Butcher coefficients as literals in one order and grouping.  The error norm
is a root mean square of eight floats and the chart test is the spacetime's
one-point ``contains``.  An accepted step that passes nodes only records its
start and stages, as flat floats, and the passed nodes are filled after the
loop through the coefficient matrix _DENSE_P: a step that passes at least
_OWN_FILL_NODES nodes over its own contiguous range of nodes, the shorter
steps in one NumPy pass that gathers each node's step coefficients, the
cheaper form for each (they cross near 150 nodes per step).  A pairs leg
passes 10 to 15 nodes per step and is filled in the gathered pass; an
r = 10 orbit passes all but 152 of its 8,313 nodes in three steps of 624
nodes or more, which skip the 2 MB gather.  That loop is the private core
``_march``; ``integrate_geodesic`` wraps it with input validation, the
sample grid and the 4-velocity norm check, and the shooting's trial shots
call the core directly on the two-node grid [0, tau].

The boundary-value problem (geodesic from O to a given target event) is
solved by shooting on four unknowns: the spatial velocity of the launch
direction in the static frame at O, w = sinh(chi) * direction, plus the
total proper time.  This parameterization is unconstrained and stays well
conditioned near purely radial or purely tangential launches, where angle
coordinates would degenerate.  The Newton iteration is Broyden's (Math.
Comp. 19 (1965) 577): the Jacobian starts as that of the straight chord
x(tau) ~ O + tau launch(w) and takes a rank-one update after every accepted
step, so a step usually costs one trial shot.  A full step that does not
lower the residual rebuilds the Jacobian by finite differences, and only
then is the step damped by a line search.  The Newton is inexact (Dembo,
Eisenstat & Steihaug, SIAM J. Numer. Anal. 19 (1982) 400): a full-step
trial is marched at a tolerance tied to the residual it serves, loose while
|r| is large, and only the last iterates, the finite differences and the
line search pay for the full integration tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainExitError, IntegrationError, UsageError
from .frames import frame_field, gram_schmidt_frame, inverse_frame
from .spacetime import Event, Spacetime, metric_at, require_event, same_event

DEFAULT_SAMPLE_STEP = 0.02
DEFAULT_TOL = 1.0e-10

# Default endpoint tolerance of solve_bvp (a scenario's bvp_tol).
DEFAULT_BVP_TOL = 1.0e-9

# Cap on memory and run time: samples_for(tau, sample_step) per sampled leg.
MAX_LEG_SAMPLES = 100_000

# Newton updates solve_bvp attempts before reporting non-convergence.
MAX_SHOOTING_ITERATIONS = 50

# Inexact Newton: a full-step trial from an iterate with residual r is marched
# at max(integration_tol, min(TRIAL_TOL_CAP, TRIAL_TOL_RATIO |r|)), the first
# shot at max(integration_tol, TRIAL_TOL_CAP).  An endpoint error 1e-4 times
# smaller than |r| changes no Newton decision.
TRIAL_TOL_CAP = 1.0e-6
TRIAL_TOL_RATIO = 1.0e-4

# Loosest tolerance a grid with interior nodes is marched at.  The error
# estimate controls the 5th-order step end only; the nodes between come from
# the 4th-order interpolant.  Marched at the default tol, the nodes of a
# weak-field leg from the softened core drift in 4-velocity norm by 1.25e-9,
# past max(10 tol, 1e-9); at 1e-13 the worst drift over the 324 perfbench
# pairs texts of seeds 1-3 is 2.6e-13.
DENSE_TOL = 1.0e-13

# The Dormand-Prince continuous extension (Hairer, Norsett & Wanner, Solving
# ODEs I, II.6): y(t + theta h) = y + h sum_ij _DENSE_P[i, j] theta^(j+1) k_i
# over the stages k1, k3, ..., k7 (the second stage's weight is zero), a
# 4th-order interpolant whose weights at theta = 1 are the 5th-order ones.
_DENSE_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


@dataclass
class GeodesicSegment:
    """A sampled geodesic: events and tangents on a uniform proper-time grid.

    tau runs from 0 at the start of the segment; events[k] and tangents[k]
    are the position and 4-velocity at tau[k].  ``cache`` holds per-segment
    transport data and is never compared.
    """

    spacetime: Spacetime
    tau: np.ndarray
    events: np.ndarray
    tangents: np.ndarray
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

    @property
    def start(self) -> Event:
        return Event(self.events[0])

    @property
    def end(self) -> Event:
        return Event(self.events[-1])


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
        meta={"n_steps": 0, "n_rejected": 0, "n_rhs": 0},
    )


def samples_for(tau: float, step: float = DEFAULT_SAMPLE_STEP) -> int:
    """Sample count for a segment of length tau at roughly the given spacing."""
    return max(1, int(np.ceil(abs(tau) / step))) + 1


def integrate_geodesic(
    st: Spacetime,
    event0: Event,
    u0: np.ndarray,
    tau_end: float,
    *,
    tol: float = DEFAULT_TOL,
    n_samples: int | None = None,
) -> GeodesicSegment:
    """Integrate the geodesic from event0 with 4-velocity u0 for proper time tau_end.

    u0 must be timelike and future-directed (u0[0] > 0), tau_end >= 0 and
    tol > 0: the integrator only runs toward the future.  u0 is normalized to
    g(u0, u0) = -1.  Samples are returned at exactly the uniform grid times.
    The error estimate alone sets the step, and the nodes inside a step are
    interpolated by the 4th-order continuous extension (the last sample is
    the endpoint of the last step).  The local error per step is controlled
    at rtol=tol, atol=tol/100 when n_samples == 2, so the endpoint error
    falls with tol at the 5th-order rate; with interior nodes the leg is
    marched at min(tol, DENSE_TOL) (see ``_march``).  The 4-velocity norm
    is checked across all samples afterwards, interpolated ones included;
    drift beyond max(10 tol, 1e-9) raises IntegrationError.
    """
    require_event(st, event0)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (4,):
        raise UsageError(f"4-velocity must have shape (4,), got {u0.shape}")

    q = float((st.metric(event0.coords) * u0) @ u0)
    if not q < 0.0:
        raise UsageError("initial 4-velocity must be timelike")
    if u0[0] <= 0.0:
        raise UsageError("initial 4-velocity must be future-directed")
    u0 = u0 / np.sqrt(-q)

    tau_end = float(tau_end)
    if not 0.0 <= tau_end < math.inf:
        raise UsageError(f"tau_end must be finite and >= 0, got {tau_end}")
    if not tol > 0.0:
        raise UsageError(f"tol must be positive, got {tol}")
    if tau_end == 0.0:
        return point_segment(st, event0, u0)

    if n_samples is None:
        n_samples = samples_for(tau_end)
    if n_samples < 2:
        raise UsageError("n_samples must be at least 2")
    nodes = np.linspace(0.0, tau_end, n_samples)
    ys = np.empty((n_samples, 8))
    ys[0, :4] = event0.coords
    ys[0, 4:] = u0
    n_steps, n_rejected, n_rhs = _march(st, ys, nodes, float(tol))

    seg = GeodesicSegment(
        st,
        nodes,
        ys[:, :4].copy(),
        ys[:, 4:].copy(),
        meta={"n_steps": n_steps, "n_rejected": n_rejected, "n_rhs": n_rhs},
    )
    q = st.metric(seg.events) * seg.tangents * seg.tangents
    # np.sum's order over the four components, without a reduction's set-up cost
    norms = ((q[..., 0] + q[..., 1]) + q[..., 2]) + q[..., 3]
    drift = float(np.max(np.abs(norms + 1.0)))
    seg.meta["norm_drift"] = drift
    if drift > max(10.0 * tol, 1.0e-9):
        raise IntegrationError(f"4-velocity norm drifted by {drift:.3e}; tighten tol")
    return seg


def _march(st: Spacetime, ys: np.ndarray, grid: np.ndarray, tol: float) -> tuple[int, int, int]:
    """March the state in ys[0] over grid, filling ys[k] at proper time grid[k].

    grid is the node array, increasing from 0.0; the step control bisects
    it and the dense fill reads the node times from it.  tol must be
    positive and the start state finite, inside the chart.  The local error
    per step is controlled at rtol=tol, atol=tol/100 on the two-node grid
    [0, tau] and at min(tol, DENSE_TOL) on a grid with interior nodes;
    nothing else limits the step.  ys[1:] is complete only once _march
    returns: the interior nodes are filled after the loop by _dense_fill,
    a long step over its own node range and the short ones in one gathered
    pass, so after a raise they are not.  Returns (steps, rejected steps,
    RHS evaluations).  Raises IntegrationError on step underflow and
    DomainExitError where the trajectory leaves the chart, either with
    those counts so far as its ``counts``.

    The step is written out per component: y0..y7 is the state, kj_c
    component c of stage j and yn0..yn7 the step's end.  Each component
    repeats the coefficient literals in the order and grouping of the
    stage's list-comprehension form, kept in the tests as the oracle, so
    every float is the same IEEE result.  The squared error ratios are added
    by sum(), not by a written-out chain of +: from Python 3.12 on, sum() of
    floats is compensated, and a chain would round differently.
    """
    n_samples = len(grid)
    tau_end = float(grid[-1])
    if n_samples > 2:
        tol = min(tol, DENSE_TOL)
    rtol, atol = tol, tol * 1.0e-2
    h_min = 1.0e-12 * max(1.0, tau_end)
    at_node = 1.0e-14 * tau_end

    rhs = st.geodesic_rhs
    contains = st.contains
    isfinite = math.isfinite
    y = ys[0].tolist()
    k1 = rhs(y)
    h = float(grid[1])
    t = 0.0
    i = 1  # next node to fill
    n_steps = n_rejected = 0
    n_rhs = 1
    passed = []  # (t, h, first node, end node) per step that passes nodes
    states = []  # the same steps' y, k1, k3, ..., k7: 56 floats each

    while i < n_samples:
        h_limit = tau_end - t
        if h < h_min and h < h_limit:
            raise IntegrationError(f"step size underflow at tau={t:.6g}", (n_steps, n_rejected, n_rhs))
        h = min(h, h_limit)
        # one Dormand-Prince 5(4) step; the last stage row equals the
        # 5th-order weights, so k7 is the next step's k1 (FSAL), and the
        # equation is autonomous, so the nodes c_i never enter
        y0, y1, y2, y3, y4, y5, y6, y7 = y
        k1_0, k1_1, k1_2, k1_3, k1_4, k1_5, k1_6, k1_7 = k1
        try:
            n_rhs += 1
            k2_0, k2_1, k2_2, k2_3, k2_4, k2_5, k2_6, k2_7 = rhs((
                y0 + h * (1 / 5 * k1_0),
                y1 + h * (1 / 5 * k1_1),
                y2 + h * (1 / 5 * k1_2),
                y3 + h * (1 / 5 * k1_3),
                y4 + h * (1 / 5 * k1_4),
                y5 + h * (1 / 5 * k1_5),
                y6 + h * (1 / 5 * k1_6),
                y7 + h * (1 / 5 * k1_7),
            ))
            n_rhs += 1
            k3 = rhs((
                y0 + h * (3 / 40 * k1_0 + 9 / 40 * k2_0),
                y1 + h * (3 / 40 * k1_1 + 9 / 40 * k2_1),
                y2 + h * (3 / 40 * k1_2 + 9 / 40 * k2_2),
                y3 + h * (3 / 40 * k1_3 + 9 / 40 * k2_3),
                y4 + h * (3 / 40 * k1_4 + 9 / 40 * k2_4),
                y5 + h * (3 / 40 * k1_5 + 9 / 40 * k2_5),
                y6 + h * (3 / 40 * k1_6 + 9 / 40 * k2_6),
                y7 + h * (3 / 40 * k1_7 + 9 / 40 * k2_7),
            ))
            k3_0, k3_1, k3_2, k3_3, k3_4, k3_5, k3_6, k3_7 = k3
            n_rhs += 1
            k4 = rhs((
                y0 + h * (44 / 45 * k1_0 - 56 / 15 * k2_0 + 32 / 9 * k3_0),
                y1 + h * (44 / 45 * k1_1 - 56 / 15 * k2_1 + 32 / 9 * k3_1),
                y2 + h * (44 / 45 * k1_2 - 56 / 15 * k2_2 + 32 / 9 * k3_2),
                y3 + h * (44 / 45 * k1_3 - 56 / 15 * k2_3 + 32 / 9 * k3_3),
                y4 + h * (44 / 45 * k1_4 - 56 / 15 * k2_4 + 32 / 9 * k3_4),
                y5 + h * (44 / 45 * k1_5 - 56 / 15 * k2_5 + 32 / 9 * k3_5),
                y6 + h * (44 / 45 * k1_6 - 56 / 15 * k2_6 + 32 / 9 * k3_6),
                y7 + h * (44 / 45 * k1_7 - 56 / 15 * k2_7 + 32 / 9 * k3_7),
            ))
            k4_0, k4_1, k4_2, k4_3, k4_4, k4_5, k4_6, k4_7 = k4
            n_rhs += 1
            k5 = rhs((
                y0 + h * (19372 / 6561 * k1_0 - 25360 / 2187 * k2_0 + 64448 / 6561 * k3_0
                          - 212 / 729 * k4_0),
                y1 + h * (19372 / 6561 * k1_1 - 25360 / 2187 * k2_1 + 64448 / 6561 * k3_1
                          - 212 / 729 * k4_1),
                y2 + h * (19372 / 6561 * k1_2 - 25360 / 2187 * k2_2 + 64448 / 6561 * k3_2
                          - 212 / 729 * k4_2),
                y3 + h * (19372 / 6561 * k1_3 - 25360 / 2187 * k2_3 + 64448 / 6561 * k3_3
                          - 212 / 729 * k4_3),
                y4 + h * (19372 / 6561 * k1_4 - 25360 / 2187 * k2_4 + 64448 / 6561 * k3_4
                          - 212 / 729 * k4_4),
                y5 + h * (19372 / 6561 * k1_5 - 25360 / 2187 * k2_5 + 64448 / 6561 * k3_5
                          - 212 / 729 * k4_5),
                y6 + h * (19372 / 6561 * k1_6 - 25360 / 2187 * k2_6 + 64448 / 6561 * k3_6
                          - 212 / 729 * k4_6),
                y7 + h * (19372 / 6561 * k1_7 - 25360 / 2187 * k2_7 + 64448 / 6561 * k3_7
                          - 212 / 729 * k4_7),
            ))
            k5_0, k5_1, k5_2, k5_3, k5_4, k5_5, k5_6, k5_7 = k5
            n_rhs += 1
            k6 = rhs((
                y0 + h * (9017 / 3168 * k1_0 - 355 / 33 * k2_0 + 46732 / 5247 * k3_0
                          + 49 / 176 * k4_0 - 5103 / 18656 * k5_0),
                y1 + h * (9017 / 3168 * k1_1 - 355 / 33 * k2_1 + 46732 / 5247 * k3_1
                          + 49 / 176 * k4_1 - 5103 / 18656 * k5_1),
                y2 + h * (9017 / 3168 * k1_2 - 355 / 33 * k2_2 + 46732 / 5247 * k3_2
                          + 49 / 176 * k4_2 - 5103 / 18656 * k5_2),
                y3 + h * (9017 / 3168 * k1_3 - 355 / 33 * k2_3 + 46732 / 5247 * k3_3
                          + 49 / 176 * k4_3 - 5103 / 18656 * k5_3),
                y4 + h * (9017 / 3168 * k1_4 - 355 / 33 * k2_4 + 46732 / 5247 * k3_4
                          + 49 / 176 * k4_4 - 5103 / 18656 * k5_4),
                y5 + h * (9017 / 3168 * k1_5 - 355 / 33 * k2_5 + 46732 / 5247 * k3_5
                          + 49 / 176 * k4_5 - 5103 / 18656 * k5_5),
                y6 + h * (9017 / 3168 * k1_6 - 355 / 33 * k2_6 + 46732 / 5247 * k3_6
                          + 49 / 176 * k4_6 - 5103 / 18656 * k5_6),
                y7 + h * (9017 / 3168 * k1_7 - 355 / 33 * k2_7 + 46732 / 5247 * k3_7
                          + 49 / 176 * k4_7 - 5103 / 18656 * k5_7),
            ))
            k6_0, k6_1, k6_2, k6_3, k6_4, k6_5, k6_6, k6_7 = k6
            yn0 = y0 + h * (35 / 384 * k1_0 + 500 / 1113 * k3_0 + 125 / 192 * k4_0
                            - 2187 / 6784 * k5_0 + 11 / 84 * k6_0)
            yn1 = y1 + h * (35 / 384 * k1_1 + 500 / 1113 * k3_1 + 125 / 192 * k4_1
                            - 2187 / 6784 * k5_1 + 11 / 84 * k6_1)
            yn2 = y2 + h * (35 / 384 * k1_2 + 500 / 1113 * k3_2 + 125 / 192 * k4_2
                            - 2187 / 6784 * k5_2 + 11 / 84 * k6_2)
            yn3 = y3 + h * (35 / 384 * k1_3 + 500 / 1113 * k3_3 + 125 / 192 * k4_3
                            - 2187 / 6784 * k5_3 + 11 / 84 * k6_3)
            yn4 = y4 + h * (35 / 384 * k1_4 + 500 / 1113 * k3_4 + 125 / 192 * k4_4
                            - 2187 / 6784 * k5_4 + 11 / 84 * k6_4)
            yn5 = y5 + h * (35 / 384 * k1_5 + 500 / 1113 * k3_5 + 125 / 192 * k4_5
                            - 2187 / 6784 * k5_5 + 11 / 84 * k6_5)
            yn6 = y6 + h * (35 / 384 * k1_6 + 500 / 1113 * k3_6 + 125 / 192 * k4_6
                            - 2187 / 6784 * k5_6 + 11 / 84 * k6_6)
            yn7 = y7 + h * (35 / 384 * k1_7 + 500 / 1113 * k3_7 + 125 / 192 * k4_7
                            - 2187 / 6784 * k5_7 + 11 / 84 * k6_7)
            y_new = (yn0, yn1, yn2, yn3, yn4, yn5, yn6, yn7)
            n_rhs += 1
            k7 = rhs(y_new)
            ok = all(map(isfinite, y_new))
        except (ArithmeticError, ValueError):
            # a stage state where the closed form is singular or non-finite:
            # reject the step as a non-finite one
            ok = False
        if ok and not contains(y_new[:4]):
            # not a numerical failure: creep toward the chart boundary
            if h > 4.0 * h_min:
                h *= 0.5
                n_rejected += 1
                continue
            raise DomainExitError(
                f"trajectory leaves the chart of {st.name} near tau={t:.6g}",
                tau=t,
                coords=np.array(y[:4]),
                velocity=np.array(y[4:]),
                counts=(n_steps, n_rejected, n_rhs),
            )
        enorm = math.inf
        if ok:
            # error of the embedded 4th-order solution, weights b5 - b4, per
            # component over atol + rtol max(|y|, |y_new|)
            k7_0, k7_1, k7_2, k7_3, k7_4, k7_5, k7_6, k7_7 = k7
            a, z = abs(y0), abs(yn0)
            s = atol + rtol * (a if a > z else z)
            e0 = h * (71 / 57600 * k1_0 - 71 / 16695 * k3_0 + 71 / 1920 * k4_0
                      - 17253 / 339200 * k5_0 + 22 / 525 * k6_0 - 1 / 40 * k7_0) / s
            a, z = abs(y1), abs(yn1)
            s = atol + rtol * (a if a > z else z)
            e1 = h * (71 / 57600 * k1_1 - 71 / 16695 * k3_1 + 71 / 1920 * k4_1
                      - 17253 / 339200 * k5_1 + 22 / 525 * k6_1 - 1 / 40 * k7_1) / s
            a, z = abs(y2), abs(yn2)
            s = atol + rtol * (a if a > z else z)
            e2 = h * (71 / 57600 * k1_2 - 71 / 16695 * k3_2 + 71 / 1920 * k4_2
                      - 17253 / 339200 * k5_2 + 22 / 525 * k6_2 - 1 / 40 * k7_2) / s
            a, z = abs(y3), abs(yn3)
            s = atol + rtol * (a if a > z else z)
            e3 = h * (71 / 57600 * k1_3 - 71 / 16695 * k3_3 + 71 / 1920 * k4_3
                      - 17253 / 339200 * k5_3 + 22 / 525 * k6_3 - 1 / 40 * k7_3) / s
            a, z = abs(y4), abs(yn4)
            s = atol + rtol * (a if a > z else z)
            e4 = h * (71 / 57600 * k1_4 - 71 / 16695 * k3_4 + 71 / 1920 * k4_4
                      - 17253 / 339200 * k5_4 + 22 / 525 * k6_4 - 1 / 40 * k7_4) / s
            a, z = abs(y5), abs(yn5)
            s = atol + rtol * (a if a > z else z)
            e5 = h * (71 / 57600 * k1_5 - 71 / 16695 * k3_5 + 71 / 1920 * k4_5
                      - 17253 / 339200 * k5_5 + 22 / 525 * k6_5 - 1 / 40 * k7_5) / s
            a, z = abs(y6), abs(yn6)
            s = atol + rtol * (a if a > z else z)
            e6 = h * (71 / 57600 * k1_6 - 71 / 16695 * k3_6 + 71 / 1920 * k4_6
                      - 17253 / 339200 * k5_6 + 22 / 525 * k6_6 - 1 / 40 * k7_6) / s
            a, z = abs(y7), abs(yn7)
            s = atol + rtol * (a if a > z else z)
            e7 = h * (71 / 57600 * k1_7 - 71 / 16695 * k3_7 + 71 / 1920 * k4_7
                      - 17253 / 339200 * k5_7 + 22 / 525 * k6_7 - 1 / 40 * k7_7) / s
            squares = (e0 * e0, e1 * e1, e2 * e2, e3 * e3, e4 * e4, e5 * e5, e6 * e6, e7 * e7)
            enorm = math.sqrt(sum(squares) / 8.0)
        if not enorm <= 1.0:
            h *= max(0.2, 0.9 * (enorm + 1.0e-16) ** -0.2) if isfinite(enorm) else 0.5
            n_rejected += 1
            continue
        grow = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm**-0.2))
        # record the nodes in (t, t + h) for the fill; one at the end gets y_new
        t_new = t + h
        end = bisect_left(grid, t_new - at_node, i)
        if end > i:
            passed.append((t, h, i, end))
            states += (*y, *k1, *k3, *k4, *k5, *k6, *k7)
            i = end
        if i < n_samples and grid[i] - t_new <= at_node:
            ys[i] = y_new
            t_new = float(grid[i])
            i += 1
        t = t_new
        y = y_new
        k1 = k7
        h *= grow
        n_steps += 1

    if passed:
        _dense_fill(ys, grid, passed, states)
    return n_steps, n_rejected, n_rhs


#: Steps that pass at least this many nodes are filled each over its own node
#: range, the rest in one gathered pass.  A step's own fill costs about 7 us
#: of NumPy calls whatever its size, and then 0.05 us a node; the gathered
#: pass costs 0.1 us a node, as it gathers each node's 32 coefficients.  On a
#: 2-CPU host the two cross at about 150 nodes per step (per step of 128
#: nodes 15.0 against 14.0 us, of 256 nodes 23.1 against 26.3 us).  On
#: pairs seed 1, 6 of 622 steps pass 128 nodes or more; an r = 10 orbit
#: passes 4, 24 and 124 nodes in its first steps and 8,153 in the three
#: after.
_OWN_FILL_NODES = 128

_POWERS = np.arange(1, 5)


def _dense_fill(ys: np.ndarray, grid: np.ndarray, passed: list, states: list) -> None:
    """Fill ys at the nodes that _march's recorded steps passed.

    passed holds (t, h, first node, end node) per step and states the same
    steps' y, k1, k3, ..., k7 as 56 floats each.  Node n of a step is
    y + sum_j theta^j c_j with theta = (grid[n] - t) / h and the step's
    c_j = h sum_i _DENSE_P[i, j] k_i.  A step of at least _OWN_FILL_NODES
    nodes is evaluated over its own contiguous range of ys against its four
    coefficient rows; the shorter steps share one pass that gathers each
    node's step.  Both forms give every node the same bits.
    """
    t0, h0, first, ends = map(np.array, zip(*passed))
    recorded = np.fromiter(states, float, len(states)).reshape(-1, 7, 8)
    stages = recorded[:, 1:].transpose(1, 0, 2)
    coeffs = h0[:, None, None] * np.einsum("ij,isc->sjc", _DENSE_P, stages)
    counts = ends - first
    own = counts >= _OWN_FILL_NODES
    if own.any():
        for s in np.flatnonzero(own):
            a, b = first[s], ends[s]
            theta = (grid[a:b] - t0[s]) / h0[s]
            np.add(recorded[s, 0], np.einsum("nj,jc->nc", theta[:, None] ** _POWERS, coeffs[s]), out=ys[a:b])
        short = ~own
        t0, h0, first, counts, coeffs, recorded = (v[short] for v in (t0, h0, first, counts, coeffs, recorded))
    if counts.size:
        # the n-th short-step node is grid[node[n]], inside step[n]
        step = np.repeat(np.arange(counts.size), counts)
        node = np.arange(step.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        theta = (grid[node] - t0[step]) / h0[step]
        ys[node] = recorded[step, 0] + np.einsum("nj,njc->nc", theta[:, None] ** _POWERS, coeffs[step])


@dataclass
class ShootingReport:
    """Outcome of solve_bvp.  Non-convergence is reported here, not raised.

    residual is the Euclidean chart-coordinate distance from the endpoint to
    the target (periodic axes wrapped); iterations counts the accepted Newton
    updates, halvings the times the line search halved a Newton step (8 for
    a search that stalled), trials the endpoint-only trial integrations the
    shooting started, jacobian_rebuilds the finite-difference Jacobians it
    built (four or more trials each), and trial_rhs_evals the right-hand-side
    evaluations of the trial marches, those that raised included.  A trial
    is marched at a tolerance tied to the residual (see ``solve_bvp``), so
    trial_rhs_evals, not trials, is the work.
    """

    converged: bool
    residual: float
    iterations: int
    proper_time: float
    message: str = ""
    halvings: int = 0
    trials: int = 0
    jacobian_rebuilds: int = 0
    trial_rhs_evals: int = 0


def _wrap_residual(st: Spacetime, delta: np.ndarray) -> np.ndarray:
    for axis, period in st.periodic_axes.items():
        delta[axis] = (delta[axis] + period / 2.0) % period - period / 2.0
    return delta


def chord(st: Spacetime, origin: Event, target: Event) -> tuple[np.ndarray, float]:
    """The coordinate separation dx from origin to target and g(dx, dx) there.

    dx is wrapped on periodic axes and g is the metric at origin.  Raises
    UsageError when g(dx, dx) overflows: no leg reaches so far a target.
    """
    g0 = metric_at(st, origin)
    with np.errstate(over="ignore", invalid="ignore"):
        dx = _wrap_residual(st, target.coords - origin.coords)
        interval = float((g0 * dx) @ dx)
    if not np.isfinite(interval):
        raise UsageError(f"target too far from {origin!r}: g(dx, dx) = {interval}")
    return dx, interval


def solve_bvp(
    st: Spacetime,
    origin: Event,
    target: Event,
    *,
    tau_hint: float | None = None,
    tol: float = DEFAULT_BVP_TOL,
    sample_step: float = DEFAULT_SAMPLE_STEP,
    integration_tol: float = DEFAULT_TOL,
) -> tuple[Optional[GeodesicSegment], ShootingReport]:
    """Find the timelike geodesic from origin to target by shooting.

    Newton iterates on (w, tau): w is the spatial 4-velocity in the static
    frame at the origin and tau the total proper time.  The Jacobian starts
    as the chord Jacobian of x(tau) ~ origin + tau launch(w), exact in
    Minkowski Cartesian coordinates, and every accepted step applies
    Broyden's rank-one update J += (dr - J dp) dp^T / (dp^T dp).  Such a J
    earns only its full step: when p + d does not lower |r|^2, J is rebuilt
    at p by finite differences and the step is halved up to 8 times until
    |r|^2 falls; a search that never lowers it stops the shooting ("line
    search stalled").  Trial trajectories are marched endpoint-only by the
    integrator's core, with no validation and no norm check, and judged by
    their endpoint alone; a trial whose tau is below 1e-8 or not finite, or
    whose launch is not finite, fails like one that leaves the chart.  The
    first shot is marched at max(integration_tol, 1e-6) and a full step from
    an iterate with residual r at max(integration_tol, min(1e-6, 1e-4 |r|)).
    When the full step fails, r is first re-marched at integration_tol
    unless it was marched there, since finite differences of step 1e-6
    cannot use a residual only 1e-6 accurate; the finite differences and the
    line search run at integration_tol.  A shot that hits the target to tol is
    re-integrated by ``integrate_geodesic`` on the full sample grid, where
    the drift check holds.
    If that segment's endpoint misses the target by tol or more, the miss is
    the endpoint-only integration error: its difference from the trial
    endpoint offsets every later trial residual and Newton goes on, within
    the same iteration budget.  So a converged report means the returned
    segment ends within tol of the target.  The shot is reported not
    converged if the full grid would exceed MAX_LEG_SAMPLES or the
    re-integration fails.  Angular residuals are wrapped on periodic axes.
    Returns (segment, report); the segment is None when not converged.
    Raises UsageError for a target too far out (see ``chord``) and for
    integration_tol <= 0.
    """
    require_event(st, origin)
    require_event(st, target)
    if not integration_tol > 0.0:
        raise UsageError(f"integration_tol must be positive, got {integration_tol}")

    if same_event(origin, target, tol=1.0e-12):
        return point_segment(st, origin), ShootingReport(True, 0.0, 0, 0.0, "coincident endpoints")

    g0 = metric_at(st, origin)
    n0 = gram_schmidt_frame(g0)
    dx, interval = chord(st, origin, target)

    if tau_hint is None:
        q = -interval
        tau_hint = float(np.sqrt(q)) if q > 1.0e-8 else float(np.linalg.norm(dx))
        tau_hint = max(tau_hint, 1.0e-3)

    p = np.empty(4)
    p[:3] = (inverse_frame(n0, g0) @ (dx / tau_hint))[1:]
    p[3] = tau_hint

    def launch(w: np.ndarray) -> np.ndarray:
        return n0 @ np.concatenate([[np.sqrt(1.0 + w @ w)], w])

    def newton_step(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(jac, -r, rcond=None)[0]

    # full-grid endpoint minus trial endpoint at the last re-integration
    offset = np.zeros(4)
    n_trials = n_updates = n_halvings = n_rebuilds = n_trial_rhs = 0
    integration_tol = float(integration_tol)

    def residual(param: np.ndarray, march_tol: float) -> np.ndarray | None:
        # a trial marches the unnormalized launch over the grid [0, tau]; one
        # whose tau or launch the integrator cannot take is a failed trial
        nonlocal n_trials, n_trial_rhs
        tau = float(param[3])
        if not 1.0e-8 <= tau < math.inf:
            return None
        ys = np.empty((2, 8))
        ys[0, :4] = origin.coords
        with np.errstate(over="ignore", invalid="ignore"):
            ys[0, 4:] = launch(param[:3])
        if not np.isfinite(ys[0, 4:]).all():
            return None
        n_trials += 1
        try:
            n_trial_rhs += _march(st, ys, np.array([0.0, tau]), march_tol)[2]
        except IntegrationError as exc:
            n_trial_rhs += exc.counts[2]
            return None
        return _wrap_residual(st, ys[1, :4] - target.coords) + offset

    def report(converged: bool, miss: np.ndarray, message: str = "") -> ShootingReport:
        return ShootingReport(
            converged, float(np.linalg.norm(miss)), n_updates, float(p[3]), message,
            n_halvings, n_trials, n_rebuilds, n_trial_rhs,
        )

    # the tolerance r was marched at
    r_tol = max(integration_tol, TRIAL_TOL_CAP)
    r = residual(p, r_tol)
    shrink = 0
    while r is None and shrink < 6:
        p[3] *= 0.5
        r = residual(p, r_tol)
        shrink += 1
    if r is None:
        return None, ShootingReport(
            False, np.inf, 0, p[3], "initial trajectory leaves the chart", trials=n_trials
        )

    # the chord Jacobian of x(tau) ~ origin + tau launch(w), exact in
    # Minkowski Cartesian coordinates
    w = p[:3]
    jac = np.empty((4, 4))
    jac[:, :3] = p[3] * (n0[:, 1:] + np.outer(n0[:, 0], w) / np.sqrt(1.0 + w @ w))
    jac[:, 3] = launch(w)

    message = f"did not converge in {MAX_SHOOTING_ITERATIONS} iterations"
    for _ in range(MAX_SHOOTING_ITERATIONS):
        if float(np.linalg.norm(r)) < tol:
            if samples_for(p[3], sample_step) > MAX_LEG_SAMPLES:
                return None, report(
                    False, r, f"proper time {p[3]:.6g} needs over {MAX_LEG_SAMPLES} samples per leg"
                )
            try:
                seg = integrate_geodesic(
                    st,
                    origin,
                    launch(p[:3]),
                    p[3],
                    tol=integration_tol,
                    n_samples=samples_for(p[3], sample_step),
                )
            except IntegrationError as exc:
                return None, report(False, r, f"re-integration of the converged shot failed: {exc}")
            final = _wrap_residual(st, seg.events[-1] - target.coords)
            if float(np.linalg.norm(final)) < tol:
                return seg, report(True, final)
            # the endpoint-only integration missed by this much: aim the trials off
            offset += final - r
            r = final

        # the current J earns only its full step, marched at a tolerance tied
        # to |r|; a step that does not lower |r|^2 rebuilds J at p by finite
        # differences for the damped search, all at integration_tol
        r2 = float(r @ r)
        p_try = p + newton_step(jac, r)
        try_tol = max(integration_tol, min(TRIAL_TOL_CAP, TRIAL_TOL_RATIO * math.sqrt(r2)))
        r_try = residual(p_try, try_tol)
        if r_try is None or not float(r_try @ r_try) < r2:
            try_tol = integration_tol
            if r_tol > integration_tol:
                # finite differences of step 1e-6 need r more accurate than 1e-6
                r_tight = residual(p, integration_tol)
                if r_tight is None:
                    message = "Jacobian evaluation left the chart"
                    break
                r, r_tol, r2 = r_tight, integration_tol, float(r_tight @ r_tight)
            n_rebuilds += 1
            for j in range(4):
                step = 1.0e-6 * max(1.0, abs(p[j]))
                pj = p.copy()
                pj[j] += step
                rj = residual(pj, integration_tol)
                if rj is None:
                    pj[j] = p[j] - step
                    rj = residual(pj, integration_tol)
                    step = -step
                    if rj is None:
                        break
                jac[:, j] = (rj - r) / step
            if rj is None:
                message = "Jacobian evaluation left the chart"
                break

            d = newton_step(jac, r)
            for k in range(9):
                n_halvings += k > 0
                p_try = p + d * (0.5**k)
                r_try = residual(p_try, integration_tol)
                if r_try is not None and float(r_try @ r_try) < r2:
                    break
            else:
                message = "line search stalled"
                break

        # Broyden's rank-one update carries J along the accepted step
        dp = p_try - p
        jac += np.outer(r_try - r - jac @ dp, dp) / (dp @ dp)
        p, r, r_tol = p_try, r_try, try_tol
        n_updates += 1

    return None, report(False, r, message)
