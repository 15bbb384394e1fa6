"""Analytic spacetimes: metrics, Christoffel symbols, chart domains.

Geometric units G = c = 1 throughout; metric signature (-,+,+,+).

Each spacetime class checks its own parameters, so ``make_spacetime`` is a
lookup by name; ``require_event`` is the one chart check on an Event.

Evaluators are vectorized.  Every metric here is diagonal in its chart, so
coordinates of shape (..., 4) give the metric as its diagonal g_aa, also
of shape (..., 4), and Christoffel symbols of shape (..., 4, 4, 4), indexed
as ``gamma[..., lam, mu, nu] = Gamma^lam_{mu nu}``, and ``in_chart`` gives a
boolean mask over the leading axes.  No transport or integration path reads
``christoffel``: it is the oracle, checked against finite differences, that
the closed forms below are tested against.  ``connection_matrix(x, u)`` is
batched and gives W^l_s = -Gamma^l_ms u^m as (..., 4, 4) in closed form,
which is all the vector transport reads.  ``static_connection`` is batched
too, but gives the six static-frame connection coefficients already
contracted with a batch of chords, in closed form, which is all the spinor
transport reads; the two share no code.  Two exceptions serve the
integrator's step, which works on one state at a time: ``geodesic_rhs``
takes a state as a sequence of 8 Python floats and returns the closed-form
right-hand side as a tuple of floats, and ``contains`` is ``in_chart`` for
one point given as 4 floats.  At one point NumPy's per-call overhead costs
more than the arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError
from .lorentz import ETA_DIAG

#: excluded band around the polar axis of spherical charts, sin(theta) <= guard
AXIS_GUARD = 1.0e-6

#: excluded shell outside the Schwarzschild horizon, r <= 2M(1 + guard)
HORIZON_GUARD = 1.0e-3

#: radii at or beyond this are outside the Schwarzschild chart: r**2 in the
#: metric would overflow
MAX_RADIUS = math.sqrt(sys.float_info.max)

#: radii at or below this are outside the Schwarzschild chart: r**2 in the
#: geodesic equation would underflow (to 0 at r = 1e-200)
MIN_RADIUS = math.sqrt(sys.float_info.min)

#: weak-field softening range: a**2 and the potential's s**3 >= a**3 stay normal
MIN_SOFTENING = 1.0e-100
MAX_SOFTENING = 1.0e100


@dataclass(frozen=True, eq=False)
class Event:
    """A spacetime point given by its chart coordinates (x0, x1, x2, x3)."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (4,):
            raise UsageError(f"event coordinates must have shape (4,), got {c.shape}")
        object.__setattr__(self, "coords", c)

    def __repr__(self):
        return "Event(%s)" % np.array2string(self.coords, precision=6, separator=", ")


def same_event(a: Event, b: Event, tol: float) -> bool:
    """Whether two events' chart coordinates agree within tol."""
    return bool(np.max(np.abs(a.coords - b.coords)) <= tol)


class Spacetime:
    """Base class: an analytic chart with metric and Christoffel evaluators."""

    name = "abstract"

    #: parameter names the constructor accepts; others raise ConfigurationError
    allowed: tuple[str, ...] = ()

    #: coordinate axes that are periodic, as {axis: period}; used e.g. for
    #: wrapping boundary-value residuals in the azimuthal angle
    periodic_axes: dict[int, float] = {}

    def __init__(self, params: dict | None = None):
        self.params = dict(params or {})
        unknown = set(self.params) - set(self.allowed)
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) for {self.name}: {sorted(unknown)}; "
                f"allowed: {sorted(self.allowed)}"
            )

    def metric(self, x: np.ndarray) -> np.ndarray:
        """The metric components g_aa at points x (batched), shape x.shape.

        Every metric here is diagonal in its chart, so the four diagonal
        entries are the whole metric: g(u, v) = sum_a g_aa u^a v^a.
        """
        raise NotImplementedError

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def connection_matrix(self, x: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """W^l_s = -Gamma^l_ms u^m at points x for velocities u (batched).

        x and u broadcast over their leading axes; the result is
        (..., 4, 4), in closed form, with no Gamma array filled.  It goes
        into ``out`` if given, else into a new array.
        """
        raise NotImplementedError

    def static_connection(self, x: np.ndarray, dx: np.ndarray) -> tuple:
        """Static-frame connection along chords dx at points x (batched).

        The six strict-lower entries (k10, k20, k21, k30, k31, k32) of
        K = N^T g (Gamma.dx) N, where N = diag(|g_aa|^(-1/2)) is the static
        frame; each entry has the batch shape or is the scalar 0.0.  Raises
        DomainError where the static frame does not exist (a metric
        signature other than (-,+,+,+), or a non-finite metric).
        """
        raise NotImplementedError

    def geodesic_rhs(self, y: Sequence[float]) -> tuple[float, ...]:
        """The geodesic equation's right-hand side (u, -Gamma^l_mn(x) u^m u^n).

        y is one state (x, u) as a sequence of 8 Python floats; the result is
        a tuple of 8 floats.  Off the chart's domain the arithmetic may raise
        ArithmeticError or ValueError (a division by zero, a sine of
        infinity) instead of returning inf.
        """
        raise NotImplementedError

    def in_chart(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask of which coordinate tuples lie in the chart domain.

        The default is a global chart: every finite coordinate tuple.
        """
        f = np.isfinite(np.asarray(x, dtype=float))
        # np.all over the four coordinates, without a reduction's set-up cost
        return f[..., 0] & f[..., 1] & f[..., 2] & f[..., 3]

    def contains(self, x: Sequence[float]) -> bool:
        """Whether one point, given as 4 Python floats, lies in the chart domain.

        The same test as ``in_chart``, on floats, for the integrator's step.
        """
        return all(map(math.isfinite, x))

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{type(self).__name__}({ps})"


class Minkowski(Spacetime):
    """Flat spacetime in Cartesian coordinates (t, x, y, z)."""

    name = "minkowski"

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(ETA_DIAG, x.shape).copy()

    def christoffel(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (4, 4, 4))

    def connection_matrix(self, x, u, out=None):
        if out is None:
            return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(u))[:-1] + (4, 4))
        out.fill(0.0)
        return out

    def static_connection(self, x, dx):
        zero = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(dx))[:-1])
        return (zero,) * 6

    def geodesic_rhs(self, y):
        _, _, _, _, ut, u1, u2, u3 = y
        return (ut, u1, u2, u3, 0.0, 0.0, 0.0, 0.0)


class Schwarzschild(Spacetime):
    """Schwarzschild exterior in (t, r, theta, phi) coordinates.

    Parameter M, the mass, finite and >= 0.  The chart excludes
    r <= max(2M(1 + HORIZON_GUARD), MIN_RADIUS), radii r >= MAX_RADIUS where
    r**2 overflows, and a thin band around the polar axis where the
    spherical coordinates degenerate.  M = 0 is allowed and reduces to flat
    spacetime written in spherical coordinates.
    """

    name = "schwarzschild"
    allowed = ("M",)
    periodic_axes = {3: 2.0 * np.pi}

    def __init__(self, params=None):
        super().__init__(params)
        if "M" not in self.params:
            raise ConfigurationError("schwarzschild requires parameter M")
        M = self.mass = float(self.params["M"])
        if not math.isfinite(M) or M < 0.0:
            raise ConfigurationError(f"schwarzschild mass must be >= 0, got {M}")
        self.r_min = max(2.0 * M * (1.0 + HORIZON_GUARD), MIN_RADIUS)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        r = x[..., 1]
        th = x[..., 2]
        f = 1.0 - 2.0 * self.mass / r
        return np.stack([-f, 1.0 / f, r * r, (r * np.sin(th)) ** 2], axis=-1)

    def christoffel(self, x):
        x = np.asarray(x, dtype=float)
        M = self.mass
        r = x[..., 1]
        th = x[..., 2]
        f = 1.0 - 2.0 * M / r
        sin = np.sin(th)
        cos = np.cos(th)
        G = np.zeros(x.shape[:-1] + (4, 4, 4))
        G[..., 0, 0, 1] = G[..., 0, 1, 0] = M / (r * r * f)
        G[..., 1, 0, 0] = M * f / (r * r)
        G[..., 1, 1, 1] = -M / (r * r * f)
        G[..., 1, 2, 2] = -(r - 2.0 * M)
        G[..., 1, 3, 3] = -(r - 2.0 * M) * sin * sin
        G[..., 2, 1, 2] = G[..., 2, 2, 1] = 1.0 / r
        G[..., 2, 3, 3] = -sin * cos
        G[..., 3, 1, 3] = G[..., 3, 3, 1] = 1.0 / r
        G[..., 3, 2, 3] = G[..., 3, 3, 2] = cos / sin
        return G

    def connection_matrix(self, x, u, out=None):
        x = np.asarray(x, dtype=float)
        ut, ur, uth, uph = np.moveaxis(np.asarray(u, dtype=float), -1, 0)
        M = self.mass
        r = x[..., 1]
        th = x[..., 2]
        f = 1.0 - 2.0 * M / r
        sin = np.sin(th)
        cos = np.cos(th)
        # each entry is minus the Gamma above times the one or two u^m it
        # meets, multiplied straight into its slot of W
        g001 = M / (r * r * f)
        neg_g001 = -g001
        r_2m = r - 2.0 * M
        inv_r = 1.0 / r
        neg_inv_r = -inv_r
        cot = cos / sin
        if out is None:
            W = np.zeros(np.broadcast_shapes(x.shape, np.shape(u))[:-1] + (4, 4))
        else:
            W = out
            W.fill(0.0)
        np.multiply(neg_g001, ur, out=W[..., 0, 0])
        np.multiply(neg_g001, ut, out=W[..., 0, 1])
        np.multiply(-(M * f / (r * r)), ut, out=W[..., 1, 0])
        np.multiply(g001, ur, out=W[..., 1, 1])
        np.multiply(r_2m, uth, out=W[..., 1, 2])
        np.multiply(r_2m * sin * sin, uph, out=W[..., 1, 3])
        np.multiply(neg_inv_r, uth, out=W[..., 2, 1])
        np.multiply(neg_inv_r, ur, out=W[..., 2, 2])
        np.multiply(sin * cos, uph, out=W[..., 2, 3])
        np.multiply(neg_inv_r, uph, out=W[..., 3, 1])
        np.multiply(-cot, uph, out=W[..., 3, 2])
        w33 = W[..., 3, 3]
        np.multiply(inv_r, ur, out=w33)
        w33 += cot * uth
        np.negative(w33, out=w33)
        return W

    def static_connection(self, x, dx):
        x = np.asarray(x, dtype=float)
        dt, _, dth, dph = np.moveaxis(np.asarray(dx, dtype=float), -1, 0)
        r = x[..., 1]
        th = x[..., 2]
        f = 1.0 - 2.0 * self.mass / r
        sin = np.sin(th)
        # g_11 = 1/f is positive and finite wherever f > 0 is: a rounded
        # 1 - 2M/r that is positive is at least 2**-53
        r2 = r * r
        require_static_frame(f, r2, (r * sin) ** 2)
        sqrt_f = np.sqrt(f)
        # k10 = M/r^2 dt, k21 = sqrt(f) dth, k31 = sqrt(f) sin dph, k32 = cos dph
        return (self.mass / r2 * dt, 0.0, sqrt_f * dth, 0.0, sqrt_f * sin * dph, np.cos(th) * dph)

    def geodesic_rhs(self, y):
        _, r, th, _, ut, ur, uth, uph = y
        M = self.mass
        f = 1.0 - 2.0 * M / r
        sin, cos = math.sin(th), math.cos(th)
        m_r2 = M / (r * r)
        a_t = -2.0 * (m_r2 / f) * ut * ur
        a_r = m_r2 / f * ur * ur - m_r2 * f * ut * ut
        a_r += (r - 2.0 * M) * (uth * uth + sin * sin * uph * uph)
        a_th = sin * cos * uph * uph - 2.0 / r * ur * uth
        a_ph = -2.0 * (ur / r + cos / sin * uth) * uph
        return (ut, ur, uth, uph, a_t, a_r, a_th, a_ph)

    def in_chart(self, x):
        x = np.asarray(x, dtype=float)
        r = x[..., 1]
        th = x[..., 2]
        ok = super().in_chart(x) & (r > self.r_min) & (r < MAX_RADIUS)
        with np.errstate(invalid="ignore"):  # sin of a non-finite theta, excluded above
            return ok & (np.sin(th) > AXIS_GUARD)

    def contains(self, x):
        t, r, th, ph = x
        if not (math.isfinite(t) and math.isfinite(th) and math.isfinite(ph)):
            return False
        return self.r_min < r < MAX_RADIUS and math.sin(th) > AXIS_GUARD


class WeakField(Spacetime):
    """Linearized static potential on Cartesian coordinates (t, x, y, z).

    ds^2 = -(1 + 2 eps phi) dt^2 + (1 - 2 eps phi)(dx^2 + dy^2 + dz^2)

    with the softened point potential phi = -1/sqrt(x^2 + y^2 + z^2 + a^2).
    The softening a > 0 keeps the chart global and the metric smooth at the
    origin; the perturbation is linear in eps by construction.  Parameters:
    |epsilon| <= 0.1, softening in [MIN_SOFTENING, MAX_SOFTENING] (default 1).
    """

    name = "weak_field"
    allowed = ("epsilon", "softening")

    def __init__(self, params=None):
        super().__init__(params)
        if "epsilon" not in self.params:
            raise ConfigurationError("weak_field requires parameter epsilon")
        eps = self.epsilon = float(self.params["epsilon"])
        if not math.isfinite(eps) or abs(eps) > 0.1:
            raise ConfigurationError(
                f"weak_field perturbation must satisfy |epsilon| <= 0.1, got {eps}"
            )
        a = self.softening = float(self.params.get("softening", 1.0))
        if not MIN_SOFTENING <= a <= MAX_SOFTENING:
            raise ConfigurationError(
                f"softening must be in [{MIN_SOFTENING:g}, {MAX_SOFTENING:g}], got {a}"
            )
        if 2.0 * abs(eps) / a >= 0.5:
            raise ConfigurationError(
                "weak_field perturbation is not small everywhere: need 2|epsilon|/softening < 0.5"
            )

    def _potential(self, sp):
        # far out |x|^2 or s^3 overflows to inf, which gives the exact far-field
        # limit phi = 0, grad phi = 0
        with np.errstate(over="ignore"):
            q = sp * sp
            # np.sum's order over the three components, without its set-up cost
            s = np.sqrt(((q[..., 0] + q[..., 1]) + q[..., 2]) + self.softening**2)
            grad = sp / s[..., None] ** 3
        phi = -1.0 / s
        return phi, grad

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        phi, _ = self._potential(x[..., 1:])
        two_eps_phi = 2.0 * self.epsilon * phi
        B = 1.0 - two_eps_phi
        return np.stack([-(1.0 + two_eps_phi), B, B, B], axis=-1)

    def christoffel(self, x):
        x = np.asarray(x, dtype=float)
        phi, grad = self._potential(x[..., 1:])
        dP = self.epsilon * grad                      # gradient of eps*phi
        A = 1.0 + 2.0 * self.epsilon * phi
        B = 1.0 - 2.0 * self.epsilon * phi
        G = np.zeros(x.shape[:-1] + (4, 4, 4))
        G[..., 0, 0, 1:] = G[..., 0, 1:, 0] = dP / A[..., None]
        G[..., 1:, 0, 0] = dP / B[..., None]
        # Gamma^i_jk = -((delta_ik d_j + delta_ij d_k) - delta_jk d_i)(eps phi) / B
        d = np.eye(3)
        term = np.einsum("ik,...j->...ijk", d, dP) + np.einsum("ij,...k->...ijk", d, dP)
        term = term - np.einsum("jk,...i->...ijk", d, dP)
        G[..., 1:, 1:, 1:] = -term / B[..., None, None, None]
        return G

    def connection_matrix(self, x, u, out=None):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        phi, grad = self._potential(x[..., 1:])
        two_eps_phi = 2.0 * self.epsilon * phi
        A = (1.0 + two_eps_phi)[..., None]
        B = (1.0 - two_eps_phi)[..., None]
        d = self.epsilon * grad  # gradient of eps*phi
        ut, v = u[..., :1], u[..., 1:]
        dv = np.sum(d * v, axis=-1, keepdims=True)
        # W^0_0 = -(d.v)/A, W^0_i = -d_i u^t/A, W^i_0 = -d_i u^t/B,
        # W^i_j = (delta_ij (d.v) + v^i d_j - v^j d_i)/B
        W = np.empty(np.broadcast_shapes(x.shape, u.shape)[:-1] + (4, 4)) if out is None else out
        W[..., 0, :1] = -dv / A
        W[..., 0, 1:] = -(d / A) * ut
        W[..., 1:, 0] = -(d / B) * ut
        vd = v[..., :, None] * d[..., None, :]
        vd = vd - np.swapaxes(vd, -1, -2)
        vd[..., [0, 1, 2], [0, 1, 2]] = dv
        W[..., 1:, 1:] = vd / B[..., None]
        return W

    def static_connection(self, x, dx):
        x = np.asarray(x, dtype=float)
        dt, dx1, dx2, dx3 = np.moveaxis(np.asarray(dx, dtype=float), -1, 0)
        phi, grad = self._potential(x[..., 1:])
        two_eps_phi = 2.0 * self.epsilon * phi
        A = 1.0 + two_eps_phi
        B = 1.0 - two_eps_phi
        require_static_frame(A, B)
        d1, d2, d3 = np.moveaxis(self.epsilon * grad, -1, 0)  # gradient of eps*phi
        # k_i0 = d_i dt / sqrt(AB),  k_ij = (d_i dx^j - d_j dx^i) / B
        boost = dt / np.sqrt(A * B)
        return (
            d1 * boost,
            d2 * boost,
            (d2 * dx1 - d1 * dx2) / B,
            d3 * boost,
            (d3 * dx1 - d1 * dx3) / B,
            (d3 * dx2 - d2 * dx3) / B,
        )

    def geodesic_rhs(self, y):
        _, x1, x2, x3, ut, v1, v2, v3 = y
        eps = self.epsilon
        s = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3 + self.softening**2)
        s3 = s * s * s  # not s**3, which raises OverflowError on huge coordinates
        d1, d2, d3 = eps * (x1 / s3), eps * (x2 / s3), eps * (x3 / s3)  # gradient of eps*phi
        two_eps_phi = 2.0 * eps * (-1.0 / s)
        A = 1.0 + two_eps_phi
        B = 1.0 - two_eps_phi
        dv = d1 * v1 + d2 * v2 + d3 * v3
        uu = ut * ut + v1 * v1 + v2 * v2 + v3 * v3
        # a^0 = -2 (d.v) u^t / A,  a^i = (2 v^i (d.v) - d_i (u^t^2 + |v|^2)) / B
        a1 = (2.0 * dv * v1 - d1 * uu) / B
        a2 = (2.0 * dv * v2 - d2 * uu) / B
        a3 = (2.0 * dv * v3 - d3 * uu) / B
        return (ut, v1, v2, v3, -2.0 * dv * ut / A, a1, a2, a3)


def require_static_frame(*norms: np.ndarray) -> None:
    """Raise DomainError unless every given eta_aa g_aa is positive and finite.

    For a diagonal metric that is the condition for its static frame
    diag(|g_aa|^(-1/2)) to exist with signature (-,+,+,+).
    """
    if not all(np.all((n > 0.0) & (n < np.inf)) for n in norms):
        raise DomainError("metric signature is not (-,+,+,+) at a requested event")


_SPACETIMES = {cls.name: cls for cls in (Minkowski, Schwarzschild, WeakField)}


def make_spacetime(name: str, params: dict | None = None) -> Spacetime:
    """Build the spacetime named ``minkowski``, ``schwarzschild`` or ``weak_field``.

    A lookup of the class by its ``name``; the class's constructor checks
    params.  Raises ConfigurationError for an unknown name or invalid params.
    """
    if name not in _SPACETIMES:
        raise ConfigurationError(f"unknown spacetime {name!r}")
    return _SPACETIMES[name](params)


def require_event(st: Spacetime, e: Event) -> None:
    """Raise DomainError unless the event lies inside the chart domain."""
    if not st.in_chart(e.coords):
        raise DomainError(f"event outside the chart domain of {st!r}: {e.coords}")


def metric_at(st: Spacetime, e: Event) -> np.ndarray:
    """Metric components g_aa at an event, shape (4,).  Raises DomainError outside the chart."""
    require_event(st, e)
    return st.metric(e.coords)
