"""
Timelike geodesics around a Schwarzschild mass
==============================================

Integrate a circular orbit and a radial plunge, check the conserved
quantities the integrator is supposed to preserve, and show the endpoint
error following the tolerance at fifth order.
"""

import numpy as np

from eprgeo import (
    DomainExitError,
    Event,
    circular_orbit_tangent,
    integrate_geodesic,
    make_spacetime,
    orbit_period,
)
from eprgeo.frames import frame_field

st = make_spacetime("schwarzschild", {"M": 1.0})

# --- a circular orbit at r = 10M -------------------------------------------
# The tangent comes from the closed-form angular velocity; one revolution
# takes the closed-form proper time below.
e0, u0 = circular_orbit_tangent(st, 10.0)
tau_orbit = orbit_period(st, 10.0)
seg = integrate_geodesic(st, e0, u0, tau_orbit)
print("one revolution at r = 10M")
print(f"  proper time          {tau_orbit:.6f}")
print(f"  samples on the grid  {seg.n_samples}")
print(f"  radius drift         {np.max(np.abs(seg.events[:, 1] - 10.0)):.3e}")
print(f"  azimuth - 2 pi       {seg.events[-1, 3] - 2 * np.pi:+.3e}")

# Killing symmetries of the metric give two conserved numbers along any
# geodesic: the energy -g_tt u^t and angular momentum g_pp u^p.
g = st.metric(seg.events)
energy = -(g[:, 0] * seg.tangents[:, 0])
angmom = g[:, 3] * seg.tangents[:, 3]
print(f"  energy spread        {np.ptp(energy):.3e}")
print(f"  ang momentum spread  {np.ptp(angmom):.3e}")

# --- a plunge that leaves the chart ----------------------------------------
# Inward-pointing tangents eventually cross the horizon guard; the
# integrator reports where and when it had to stop.
n0 = frame_field(st, np.array([0.0, 6.0, np.pi / 2, 0.0]))
w = np.array([-2.0, 0.0, 0.0])
u_in = n0 @ np.concatenate(([np.sqrt(1.0 + w @ w)], w))
try:
    integrate_geodesic(st, Event(np.array([0.0, 6.0, np.pi / 2, 0.0])), u_in, 5.0)
except DomainExitError as exc:
    print("\nplunging leg exits the chart")
    print(f"  at proper time  {exc.tau:.6f}")
    print(f"  at radius       {exc.coords[1]:.6f}")

# --- convergence in tol ----------------------------------------------------
# The error estimate sets every step, so tol is the accuracy knob. On an
# endpoint-only grid (two samples) the endpoint error follows tol, and once
# the steps are many the count grows by about 10^(1/5) = 1.58 per decade of
# tol, the signature of a 5th-order method.
start = Event(np.array([0.0, 4.5, np.pi / 2, 0.0]))
n0 = frame_field(st, start.coords)
w = np.array([0.9, 0.0, 1.2])
u0 = n0 @ np.concatenate(([np.sqrt(1.0 + w @ w)], w))
ref = integrate_geodesic(st, start, u0, 3.0, tol=1e-13, n_samples=2).end.coords
print("\nendpoint error vs tol (reference tol = 1e-13)")
for tol in 10.0 ** np.arange(-6, -13, -1):
    end = integrate_geodesic(st, start, u0, 3.0, tol=tol, n_samples=2)
    err = np.max(np.abs(end.end.coords - ref))
    print(f"  tol = {tol:.0e}   err = {err:.3e}   steps = {end.meta['n_steps']:3d}")
