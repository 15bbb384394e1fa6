"""
Matching measurement axes between separated detectors
=====================================================

A spin singlet decays at one event; the two particles ride geodesics to
detectors at different places.  Naively comparing "the same" direction at
both detectors washes out the anticorrelation, because the two frames
have rotated against each other along the way.  Transporting the frames
and correcting the second detector's axis restores E = -1 exactly, and
restores the CHSH combination to the quantum bound.
"""

import numpy as np

from eprgeo import (
    CANONICAL_CHSH_DIRECTIONS,
    Event,
    chsh,
    correlation,
    integrate_pair,
    make_spacetime,
    matched_axis,
    pair_transport,
)
from eprgeo.frames import frame_field
from eprgeo.geodesic import integrate_geodesic, samples_for
from eprgeo.lorentz import rotation_axis_angle

# --- flat control ----------------------------------------------------------
flat = make_spacetime("minkowski")
res = integrate_pair(
    flat,
    Event(np.zeros(4)),
    np.array([np.sqrt(1.49), 0.7, 0.0, 0.0]),
    np.array([np.sqrt(1.25), -0.5, 0.0, 0.0]),
    1.5,
    1.5,
)
a = np.array([0.0, 0.0, 1.0])
print("flat spacetime: no correction needed")
print(f"  E(z, z)        = {correlation(res.state, a, a):+.12f}")
print(f"  matched axis   = {np.round(matched_axis(res, a), 12)}")

# --- the same experiment at r = 12M ----------------------------------------
st = make_spacetime("schwarzschild", {"M": 1.0})
decay = np.array([0.0, 12.0, np.pi / 2, 0.0])
n0 = frame_field(st, decay)


def leg(w, tau):
    w = np.asarray(w, dtype=float)
    u = n0 @ np.concatenate(([np.sqrt(1.0 + w @ w)], w))
    return integrate_geodesic(st, Event(decay), u, tau, n_samples=samples_for(tau))


seg1 = leg([0.45, 0.0, -0.2], 2.4)
seg2 = leg([-0.35, 0.15, 0.3], 2.1)
res = pair_transport(seg1, seg2)

axis, angle = rotation_axis_angle(res.relative_rotation)
print("\nSchwarzschild pair, r = 12M decay")
print(f"  frame mismatch angle  {angle:.8f} rad")
print(f"  mismatch axis         {np.round(axis, 6)}")

b_star = matched_axis(res, a)
print(f"  E(z, z) uncorrected   {correlation(res.state, a, a):+.12f}")
print(f"  E(z, matched image)   {correlation(res.state, a, b_star):+.12f}")

za, xa, da, ea = CANONICAL_CHSH_DIRECTIONS
s_naive = chsh(res.state, za, xa, da, ea)
s_matched = chsh(res.state, za, xa, matched_axis(res, da), matched_axis(res, ea))
print(f"  CHSH uncorrected      {s_naive:+.12f}")
print(f"  CHSH matched          {s_matched:+.12f}   (bound -2 sqrt(2) = {-2 * np.sqrt(2):+.12f})")

# --- the bookkeeping gauge: a constant frame change never enters -------------
# The boosted-static gauge differs from the static one by a constant frame
# boost.  Both transport routes close every leg in static-tetrad components
# between rest frames that do not depend on it, so a constant gauge cancels
# exactly: no frame, transport or holonomy function takes a gauge, and only
# the scenario's diag_ortho_drift row reads it.  The real gauge test is
# test_spinor_route_is_covariant_under_a_local_gauge (tests/test_transport.py),
# where the frame varies from point to point and the spin connection itself
# must absorb it.
