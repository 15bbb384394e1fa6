"""Analytic spacetimes: metrics, Christoffel symbols, chart domains.

Geometric units G = c = 1 throughout; metric signature (-,+,+,+).

Evaluators are vectorized: coordinates of shape (..., 4) give metrics of
shape (..., 4, 4) and Christoffel symbols of shape (..., 4, 4, 4), indexed
as ``gamma[..., lam, mu, nu] = Gamma^lam_{mu nu}``.  The one exception is
``geodesic_rhs``, the integrator's right-hand side at a single state: it
evaluates the closed-form acceleration on Python floats, because at one point
NumPy's per-call overhead costs more than the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])

#: excluded band around the polar axis of spherical charts, sin(theta) <= guard
AXIS_GUARD = 1.0e-6

#: excluded shell outside the Schwarzschild horizon, r <= 2M(1 + guard)
HORIZON_GUARD = 1.0e-3

#: largest weak-field softening a; a**2 and the potential's s**3 stay finite
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

    #: coordinate axes that are periodic, as {axis: period}; used e.g. for
    #: wrapping boundary-value residuals in the azimuthal angle
    periodic_axes: dict[int, float] = {}

    def __init__(self, params: dict):
        self.params = dict(params)

    def metric(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def geodesic_rhs(self, y: np.ndarray) -> np.ndarray:
        """The geodesic equation's right-hand side (u, -Gamma^l_mn(x) u^m u^n).

        y is one state (x, u) of shape (8,); so is the result.  Off the
        chart's domain the arithmetic may raise ArithmeticError or ValueError
        (a division by zero, a sine of infinity) instead of returning inf.
        """
        raise NotImplementedError

    def in_chart(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask of which coordinate tuples lie in the chart domain."""
        raise NotImplementedError

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{type(self).__name__}({ps})"


class Minkowski(Spacetime):
    """Flat spacetime in Cartesian coordinates (t, x, y, z)."""

    name = "minkowski"

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(ETA, x.shape[:-1] + (4, 4)).copy()

    def christoffel(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (4, 4, 4))

    def geodesic_rhs(self, y):
        out = np.zeros(8)
        out[:4] = y[4:]
        return out

    def in_chart(self, x):
        x = np.asarray(x, dtype=float)
        return np.all(np.isfinite(x), axis=-1)


class Schwarzschild(Spacetime):
    """Schwarzschild exterior in (t, r, theta, phi) coordinates.

    The chart excludes r <= 2M(1 + HORIZON_GUARD) and a thin band around the
    polar axis where the spherical coordinates degenerate.  M = 0 is allowed
    and reduces to flat spacetime written in spherical coordinates.
    """

    name = "schwarzschild"
    periodic_axes = {3: 2.0 * np.pi}

    def __init__(self, params):
        super().__init__(params)
        self.mass = float(params["M"])
        self.r_min = 2.0 * self.mass * (1.0 + HORIZON_GUARD)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        r = x[..., 1]
        th = x[..., 2]
        f = 1.0 - 2.0 * self.mass / r
        g = np.zeros(x.shape[:-1] + (4, 4))
        g[..., 0, 0] = -f
        g[..., 1, 1] = 1.0 / f
        g[..., 2, 2] = r * r
        g[..., 3, 3] = (r * np.sin(th)) ** 2
        return g

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

    def geodesic_rhs(self, y):
        _, r, th, _, ut, ur, uth, uph = y.tolist()
        M = self.mass
        f = 1.0 - 2.0 * M / r
        sin, cos = math.sin(th), math.cos(th)
        m_r2 = M / (r * r)
        a_t = -2.0 * (m_r2 / f) * ut * ur
        a_r = m_r2 / f * ur * ur - m_r2 * f * ut * ut
        a_r += (r - 2.0 * M) * (uth * uth + sin * sin * uph * uph)
        a_th = sin * cos * uph * uph - 2.0 / r * ur * uth
        a_ph = -2.0 * (ur / r + cos / sin * uth) * uph
        return np.array([ut, ur, uth, uph, a_t, a_r, a_th, a_ph])

    def in_chart(self, x):
        x = np.asarray(x, dtype=float)
        r = x[..., 1]
        th = x[..., 2]
        ok = np.all(np.isfinite(x), axis=-1)
        return ok & (r > self.r_min) & (r > 0.0) & (np.sin(th) > AXIS_GUARD)


class WeakField(Spacetime):
    """Linearized static potential on Cartesian coordinates (t, x, y, z).

    ds^2 = -(1 + 2 eps phi) dt^2 + (1 - 2 eps phi)(dx^2 + dy^2 + dz^2)

    with the softened point potential phi = -1/sqrt(x^2 + y^2 + z^2 + a^2).
    The softening a > 0 keeps the chart global and the metric smooth at the
    origin; the perturbation is linear in eps by construction.
    """

    name = "weak_field"

    def __init__(self, params):
        super().__init__(params)
        self.epsilon = float(params["epsilon"])
        self.softening = float(params.get("softening", 1.0))

    def _potential(self, sp):
        # far out |x|^2 or s^3 overflows to inf, which gives the exact far-field
        # limit phi = 0, grad phi = 0
        with np.errstate(over="ignore"):
            s = np.sqrt(np.sum(sp * sp, axis=-1) + self.softening**2)
            grad = sp / s[..., None] ** 3
        phi = -1.0 / s
        return phi, grad

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        phi, _ = self._potential(x[..., 1:])
        two_eps_phi = 2.0 * self.epsilon * phi
        g = np.zeros(x.shape[:-1] + (4, 4))
        g[..., 0, 0] = -(1.0 + two_eps_phi)
        for i in (1, 2, 3):
            g[..., i, i] = 1.0 - two_eps_phi
        return g

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

    def geodesic_rhs(self, y):
        _, x1, x2, x3, ut, v1, v2, v3 = y.tolist()
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
        return np.array([ut, v1, v2, v3, -2.0 * dv * ut / A, a1, a2, a3])

    def in_chart(self, x):
        x = np.asarray(x, dtype=float)
        return np.all(np.isfinite(x), axis=-1)


def _reject_unknown(params: dict, allowed: set, name: str):
    unknown = set(params) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s) for {name}: {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def make_spacetime(name: str, params: dict | None = None) -> Spacetime:
    """Build one of the named analytic spacetimes.

    Parameters
    ----------
    name : str
        One of ``minkowski``, ``schwarzschild``, ``weak_field``.
    params : dict, optional
        ``schwarzschild``: M (>= 0).
        ``weak_field``: epsilon (|eps| <= 0.1), softening (in (0, MAX_SOFTENING],
        default 1).

    Raises
    ------
    ConfigurationError
        For unknown names or invalid parameters.
    """
    params = dict(params or {})
    if name == "minkowski":
        _reject_unknown(params, set(), name)
        return Minkowski(params)
    if name == "schwarzschild":
        _reject_unknown(params, {"M"}, name)
        if "M" not in params:
            raise ConfigurationError("schwarzschild requires parameter M")
        M = float(params["M"])
        if not np.isfinite(M) or M < 0.0:
            raise ConfigurationError(f"schwarzschild mass must be >= 0, got {M}")
        return Schwarzschild(params)
    if name == "weak_field":
        _reject_unknown(params, {"epsilon", "softening"}, name)
        if "epsilon" not in params:
            raise ConfigurationError("weak_field requires parameter epsilon")
        eps = float(params["epsilon"])
        if not np.isfinite(eps) or abs(eps) > 0.1:
            raise ConfigurationError(
                f"weak_field perturbation must satisfy |epsilon| <= 0.1, got {eps}"
            )
        a = float(params.get("softening", 1.0))
        if not 0.0 < a <= MAX_SOFTENING:
            raise ConfigurationError(f"softening must be in (0, {MAX_SOFTENING:g}], got {a}")
        if 2.0 * abs(eps) / a >= 0.5:
            raise ConfigurationError(
                "weak_field perturbation is not small everywhere: need 2|epsilon|/softening < 0.5"
            )
        return WeakField(params)
    raise ConfigurationError(f"unknown spacetime {name!r}")


def require_event(st: Spacetime, e: Event) -> None:
    """Raise DomainError unless the event lies inside the chart domain."""
    _require_in_chart(st, e.coords)


def _require_in_chart(st: Spacetime, x: np.ndarray, what: str = "event"):
    if not np.all(st.in_chart(x)):
        raise DomainError(f"{what} outside the chart domain of {st!r}: {np.asarray(x)}")


def metric_at(st: Spacetime, e: Event) -> np.ndarray:
    """Metric components g_{mu nu} at an event.  Raises DomainError outside the chart."""
    _require_in_chart(st, e.coords)
    return st.metric(e.coords)
