"""Circular orbits and the geodetic precession they produce.

For a circular Schwarzschild orbit of areal radius r, a gyroscope carried
around one revolution lags the static frame by 2 pi (1 - sqrt(1 - 3M/r)).
This closed form is the independent yardstick for both transport routes: the
4x4 propagator (angle in the comoving rest frame) and the spin-1/2 transport
(angle from the conjugation-invariant trace).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .geodesic import GeodesicSegment, integrate_geodesic
from .lorentz import rotation_axis_angle, su2_rotation_angle
from .pipeline import _decay_frames, _end_frames, _leg_rotation, _leg_velocities
from .spacetime import Event, Spacetime
from .transport import spinor_propagator, world_propagator


def _orbit_mass(st: Spacetime, r: float) -> float:
    """The mass M of a spacetime with a timelike circular orbit at radius r."""
    m = getattr(st, "mass", None)
    if m is None:
        raise ConfigurationError("circular orbits need a schwarzschild spacetime")
    if not 0.0 < 3.0 * m < r:
        raise ConfigurationError(f"no timelike circular orbit at r={r} unless 0 < 3M < r (M={m})")
    return m


def circular_orbit_tangent(st: Spacetime, r: float) -> tuple[Event, np.ndarray]:
    """Equatorial circular-orbit start event and unit 4-velocity at radius r."""
    m = _orbit_mass(st, r)
    e0 = Event(np.array([0.0, r, np.pi / 2.0, 0.0]))
    omega = np.sqrt(m / r**3)
    ut = 1.0 / np.sqrt(1.0 - 3.0 * m / r)
    u0 = np.array([ut, 0.0, 0.0, omega * ut])
    return e0, u0


def orbit_period(st: Spacetime, r: float) -> float:
    """Proper time for one revolution of the circular orbit at radius r."""
    m = _orbit_mass(st, r)
    return 2.0 * np.pi * np.sqrt(r**3 / m) * np.sqrt(1.0 - 3.0 * m / r)


def geodetic_angle_exact(st: Spacetime, r: float) -> float:
    """Closed-form per-orbit geodetic angle 2 pi (1 - sqrt(1 - 3M/r))."""
    m = _orbit_mass(st, r)
    return 2.0 * np.pi * (1.0 - np.sqrt(1.0 - 3.0 * m / r))


def integrate_orbit(st: Spacetime, r: float, n_orbits: float = 1.0) -> GeodesicSegment:
    """Integrate the circular orbit for the given number of revolutions."""
    e0, u0 = circular_orbit_tangent(st, r)
    return integrate_geodesic(st, e0, u0, n_orbits * orbit_period(st, r))


def rest_frame_holonomy_angle(seg: GeodesicSegment) -> tuple[float, np.ndarray]:
    """(angle, axis) of the transport holonomy seen by the comoving observer.

    This is the rest-frame (Wigner) rotation between the static tetrads at
    the two ends, closed like a pair's leg (pipeline._close_pair); its angle
    is the precession.  Over a whole
    orbit the start and end velocities agree in static components, so a
    constant boost of both tetrads would only conjugate the rotation.
    """
    _, static, static_inverse, _ = _decay_frames(seg.spacetime, seg.start, None)
    end_inverse = _end_frames(seg)[0][1]
    w0, w1 = _leg_velocities(seg, static_inverse, end_inverse)
    axis, angle = rotation_axis_angle(_leg_rotation(world_propagator(seg), static, end_inverse, w0, w1))
    return angle, axis


def spinor_holonomy_angle(seg: GeodesicSegment) -> float:
    """Precession angle from the spin-1/2 route via |tr U| = 2 |cos(theta/2)|.

    The trace is similarity-invariant, so no rest-frame conjugation is
    needed; angles in [0, pi] only, which covers the geodetic range.
    """
    return su2_rotation_angle(spinor_propagator(seg))
