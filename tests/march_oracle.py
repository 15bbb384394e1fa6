"""The Dormand-Prince march with each stage as one list comprehension.

``geodesic._march`` writes the same step out per component on local floats,
with the same coefficient literals, order and grouping, and records the steps
for its dense fill in flat lists.  This is the comprehension form it was
written from, kept verbatim as the oracle of ``test_march_oracle.py``: the two
must agree bit for bit on every node, count and raise.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from eprgeo.errors import DomainExitError, IntegrationError
from eprgeo.geodesic import DENSE_TOL, _DENSE_P
from eprgeo.spacetime import Spacetime


def comprehension_march(st: Spacetime, ys: np.ndarray, grid: list, tol: float) -> tuple[int, int, int]:
    """March the state in ys[0] over grid, filling ys[k] at proper time grid[k].

    grid is an increasing list of floats from 0.0; tol must be positive and
    the start state finite, inside the chart.  The local error per step is
    controlled at rtol=tol, atol=tol/100 on the two-node grid [0, tau] and
    at min(tol, DENSE_TOL) on a grid with interior nodes; nothing else
    limits the step.  ys[1:] is complete only once _march returns: the
    interior nodes are filled after the loop, so after a raise they are not.
    Returns (steps, rejected steps, RHS evaluations).  Raises IntegrationError
    on step underflow and DomainExitError where the trajectory leaves the
    chart, either with those counts so far as its ``counts``.
    """
    n_samples = len(grid)
    tau_end = grid[-1]
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
    h = grid[1]
    t = 0.0
    i = 1  # next node to fill
    n_steps = n_rejected = 0
    n_rhs = 1
    passed = []  # (t, h, first node, end node, y, k1, k3, ..., k7) per step

    while i < n_samples:
        h_limit = tau_end - t
        if h < h_min and h < h_limit:
            raise IntegrationError(f"step size underflow at tau={t:.6g}", (n_steps, n_rejected, n_rhs))
        h = min(h, h_limit)
        # one Dormand-Prince 5(4) step; the last stage row equals the
        # 5th-order weights, so k7 is the next step's k1 (FSAL), and the
        # equation is autonomous, so the nodes c_i never enter
        try:
            n_rhs += 1
            k2 = rhs([a + h * (1 / 5 * b) for a, b in zip(y, k1)])
            n_rhs += 1
            k3 = rhs([a + h * (3 / 40 * b + 9 / 40 * c) for a, b, c in zip(y, k1, k2)])
            n_rhs += 1
            k4 = rhs([
                a + h * (44 / 45 * b - 56 / 15 * c + 32 / 9 * d)
                for a, b, c, d in zip(y, k1, k2, k3)
            ])
            n_rhs += 1
            k5 = rhs([
                a + h * (19372 / 6561 * b - 25360 / 2187 * c + 64448 / 6561 * d - 212 / 729 * e)
                for a, b, c, d, e in zip(y, k1, k2, k3, k4)
            ])
            n_rhs += 1
            k6 = rhs([
                a + h * (9017 / 3168 * b - 355 / 33 * c + 46732 / 5247 * d
                         + 49 / 176 * e - 5103 / 18656 * f)
                for a, b, c, d, e, f in zip(y, k1, k2, k3, k4, k5)
            ])
            y_new = [
                a + h * (35 / 384 * b + 500 / 1113 * d + 125 / 192 * e
                         - 2187 / 6784 * f + 11 / 84 * g)
                for a, b, d, e, f, g in zip(y, k1, k3, k4, k5, k6)
            ]
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
            # error of the embedded 4th-order solution, weights b5 - b4
            ratios = [
                h * (71 / 57600 * b - 71 / 16695 * d + 71 / 1920 * e
                     - 17253 / 339200 * f + 22 / 525 * g - 1 / 40 * k)
                / (atol + rtol * (a if a > z else z))
                for a, z, b, d, e, f, g, k in zip(
                    map(abs, y), map(abs, y_new), k1, k3, k4, k5, k6, k7
                )
            ]
            enorm = math.sqrt(sum([q * q for q in ratios]) / 8.0)
        if not enorm <= 1.0:
            h *= max(0.2, 0.9 * (enorm + 1.0e-16) ** -0.2) if isfinite(enorm) else 0.5
            n_rejected += 1
            continue
        grow = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm**-0.2))
        # record the nodes in (t, t + h) for the fill; one at the end gets y_new
        t_new = t + h
        end = bisect_left(grid, t_new - at_node, i)
        if end > i:
            passed.append((t, h, i, end, y, k1, k3, k4, k5, k6, k7))
            i = end
        if i < n_samples and grid[i] - t_new <= at_node:
            ys[i] = y_new
            t_new = grid[i]
            i += 1
        t = t_new
        y = y_new
        k1 = k7
        h *= grow
        n_steps += 1

    if passed:
        # the n-th passed node is grid[node[n]], inside recorded step step[n]
        t0, h0, first, ends, y0, *stages = map(np.array, zip(*passed))
        counts = ends - first
        step = np.repeat(np.arange(counts.size), counts)
        node = np.arange(step.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        theta = (np.asarray(grid)[node] - t0[step]) / h0[step]
        # per step, c_j = h sum_i _DENSE_P[i, j] k_i; y(t + theta h) = y + sum_j theta^j c_j
        coeffs = h0[:, None, None] * np.einsum("ij,isc->sjc", _DENSE_P, np.array(stages))
        powers = theta[:, None] ** np.arange(1, 5)
        ys[node] = y0[step] + np.einsum("nj,njc->nc", powers, coeffs[step])
    return n_steps, n_rejected, n_rhs
