"""
Geodetic precession from parallel transport
===========================================

Carry an orthonormal frame and a spin-half amplitude once around a
circular orbit and compare the rotation each one accumulates against the
closed-form per-orbit angle 2 pi (1 - sqrt(1 - 3M/r)).
"""

import numpy as np

from eprgeo import (
    geodetic_angle_exact,
    integrate_orbit,
    make_spacetime,
    rest_frame_holonomy_angle,
    spinor_holonomy_angle,
)

st = make_spacetime("schwarzschild", {"M": 1.0})

print("per-orbit precession angle, M = 1")
print(f"{'r':>6} {'exact':>12} {'frame route':>14} {'spin route':>14} {'worst error':>12}")
for r in (6.0, 8.0, 10.0, 15.0, 25.0):
    seg = integrate_orbit(st, r)
    exact = geodetic_angle_exact(st, r)
    a_vec, axis = rest_frame_holonomy_angle(seg)
    a_spin = spinor_holonomy_angle(seg)
    err = max(abs(a_vec - exact), abs(a_spin - exact))
    print(f"{r:6.1f} {exact:12.8f} {a_vec:14.8f} {a_spin:14.8f} {err:12.2e}")

# The rotation axis should be the orbital-plane normal: for an equatorial
# orbit that is the theta leg of the static frame.
seg = integrate_orbit(st, 10.0)
_, axis = rest_frame_holonomy_angle(seg)
print(f"\nrotation axis in the static frame  ({axis[0]:+.2e}, {axis[1]:+.5f}, {axis[2]:+.2e})")

# Away from a closed orbit the angle grows linearly with azimuth; the
# familiar per-orbit deficit is what is left of delta_phi sqrt(1 - 3M/r)
# once the turn closes, mod 2 pi.
half = integrate_orbit(st, 10.0, n_orbits=0.5)
a_half, _ = rest_frame_holonomy_angle(half)
print(f"half-orbit angle {a_half:.8f}  vs  pi sqrt(1 - 3M/r) = {np.pi * np.sqrt(0.7):.8f}")
