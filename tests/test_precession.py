"""Circular-orbit holonomy against the closed-form precession angle.

The oracle is the analytic angle 2 pi (1 - sqrt(1 - 3M/r)) per
revolution, which never touches the transport code.
"""

import numpy as np
import pytest

from conftest import gauge_frame
from eprgeo import (
    circular_orbit_tangent,
    geodetic_angle_exact,
    integrate_orbit,
    orbit_period,
    rest_frame_holonomy_angle,
    spinor_holonomy_angle,
)
from eprgeo.errors import ConfigurationError
from eprgeo.lorentz import rotation_axis_angle
from eprgeo.pipeline import rest_frame_rotation
from eprgeo.transport import Tetrad
from eprgeo import make_spacetime


def test_orbit_tangent_is_unit_timelike(schwarzschild):
    e0, u0 = circular_orbit_tangent(schwarzschild, 10.0)
    g = schwarzschild.metric(e0.coords)
    assert (g * u0) @ u0 == pytest.approx(-1.0, abs=1e-12)
    assert u0[1] == 0.0 and u0[2] == 0.0


def test_orbit_period_closed_form(schwarzschild):
    r = 10.0
    expected = 2 * np.pi * np.sqrt(r**3 / 1.0) * np.sqrt(1 - 3.0 / r)
    assert orbit_period(schwarzschild, r) == pytest.approx(expected, rel=1e-14)


def test_exact_angle_formula(schwarzschild):
    assert geodetic_angle_exact(schwarzschild, 10.0) == pytest.approx(
        2 * np.pi * (1 - np.sqrt(0.7)), rel=1e-15
    )


@pytest.mark.parametrize("r", [8.0, 10.0])
def test_vector_route_matches_exact(schwarzschild, r):
    seg = integrate_orbit(schwarzschild, r)
    angle, axis = rest_frame_holonomy_angle(seg)
    assert angle == pytest.approx(geodetic_angle_exact(schwarzschild, r), abs=1e-6)
    # precession axis is the orbital-plane normal
    assert abs(abs(axis[1]) - 1.0) < 1e-9


@pytest.mark.parametrize("r", [8.0, 10.0])
def test_spinor_route_matches_exact(schwarzschild, r):
    seg = integrate_orbit(schwarzschild, r)
    angle = spinor_holonomy_angle(seg)
    assert angle == pytest.approx(geodetic_angle_exact(schwarzschild, r), abs=1e-6)


def test_half_orbit_angle(schwarzschild):
    # Relative to the static frame the holonomy grows linearly with azimuth:
    # delta_phi * sqrt(1 - 3M/r).  The per-revolution deficit only appears
    # mod 2 pi once the orbit closes, so a half orbit shows pi * sqrt(0.7).
    half = integrate_orbit(schwarzschild, 10.0, n_orbits=0.5)
    a2, _ = rest_frame_holonomy_angle(half)
    assert a2 == pytest.approx(np.pi * np.sqrt(0.7), abs=1e-6)
    whole = integrate_orbit(schwarzschild, 10.0, n_orbits=1.0)
    a1, _ = rest_frame_holonomy_angle(whole)
    assert a2 == pytest.approx((2 * np.pi - a1) / 2, abs=1e-6)


def test_gauge_choice_does_not_change_angle(schwarzschild):
    """The rest-frame rotation between the static end tetrads and between
    the boosted-static ones has one angle over a whole orbit."""
    seg = integrate_orbit(schwarzschild, 10.0)

    def angle(gauge):
        start, end = (Tetrad(e, gauge_frame(schwarzschild, e.coords, gauge)) for e in (seg.start, seg.end))
        return rotation_axis_angle(rest_frame_rotation(seg, start, end))[1]

    a_static, a_boosted = angle("static"), angle("boosted-static")
    assert a_static == rest_frame_holonomy_angle(seg)[0]
    assert a_boosted == pytest.approx(a_static, abs=1e-9)


# every orbit helper shares one check of the spacetime and the radius
ORBIT_HELPERS = (circular_orbit_tangent, orbit_period, integrate_orbit, geodetic_angle_exact)


def test_orbit_inside_photon_sphere_rejected(schwarzschild):
    # at r = 2.5 the closed-form angle's sqrt(1 - 3M/r) would be nan
    for call in ORBIT_HELPERS:
        for r in (2.5, 2.9):
            with pytest.raises(ConfigurationError, match="no timelike circular orbit"):
                call(schwarzschild, r)


def test_requires_mass(minkowski):
    for call in ORBIT_HELPERS:
        with pytest.raises(ConfigurationError, match="schwarzschild"):
            call(minkowski, 10.0)


def test_massless_schwarzschild_has_no_circular_orbit():
    st = make_spacetime("schwarzschild", {"M": 0.0})
    for call in ORBIT_HELPERS:
        with pytest.raises(ConfigurationError, match="M=0.0"):
            call(st, 10.0)


def test_both_routes_evaluate_christoffel_once_per_node(monkeypatch):
    """The vector route evaluates W once per node, n points for an orbit of n
    samples (an even number of intervals), and no Gamma; the spinor route
    evaluates neither."""
    st = make_spacetime("schwarzschild", {"M": 1.0})
    seg = integrate_orbit(st, 10.0)
    points = {"christoffel": [], "connection_matrix": []}

    def counted(name):
        method = getattr(st, name)

        def count(x, *args, **out):
            points[name].append(int(np.prod(np.shape(x)[:-1])))
            return method(x, *args, **out)

        return count

    for name in points:
        monkeypatch.setattr(st, name, counted(name))
    rest_frame_holonomy_angle(seg)
    n = seg.n_samples
    assert n == 8313
    assert sum(points["connection_matrix"]) == n
    assert points["christoffel"] == []
    points["connection_matrix"].clear()
    spinor_holonomy_angle(seg)
    assert points == {"christoffel": [], "connection_matrix": []}
