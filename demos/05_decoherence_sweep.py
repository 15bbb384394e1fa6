"""
Dephasing from a bundle of nearby paths
=======================================

Replace each particle's geodesic with a bundle of slightly perturbed
paths (Brownian bridges pinned to the endpoints) and average the
transported singlet over all path pairs.  The wider the bundle, the more
the per-path rotations disagree and the further the averaged state falls
from the ideal transported singlet.

Incoherent averaging mixes the density matrices of the path pairs;
coherent averaging superposes amplitudes weighted by their relative
action phases and renormalizes, so it stays pure and only the holonomy
spread moves it.

The channel degrades a transported pair: pair_transport fixes the decay
rest frame and the detector frames once, and averaged_state(pair, b1, b2,
mode) reads every path of the bundles drawn around that pair's legs in
those same frames.  The averaging mode is a property of the channel, not
of the paths: each sigma's bundle pair is drawn once and averaged both ways.
averaged_state returns the averaged state together with its per-path terms
(the SU(2) map times its action phase, or the 3x3 rotation), and
fidelity_with_error(avg) reads the fidelity and its block standard error
off that average.
"""

import numpy as np

from eprgeo import (
    Event,
    averaged_state,
    correlation_matrix,
    degraded_correlation,
    fidelity_with_error,
    integrate_geodesic,
    make_spacetime,
    pair_transport,
    sample_bundle,
)
from eprgeo.frames import frame_field
from eprgeo.geodesic import samples_for

st = make_spacetime("schwarzschild", {"M": 1.0})
decay = np.array([0.0, 12.0, np.pi / 2, 0.0])
n0 = frame_field(st, decay)


def leg(w, tau=3.0):
    w = np.asarray(w, dtype=float)
    u = n0 @ np.concatenate(([np.sqrt(1.0 + w @ w)], w))
    return integrate_geodesic(st, Event(decay), u, tau, n_samples=samples_for(tau))


seg1 = leg([0.4, 0.0, 0.0])
seg2 = leg([-0.3, 0.0, 0.3])
pair = pair_transport(seg1, seg2)

N_PATHS = 400
print(f"singlet fidelity vs bundle width ({N_PATHS} paths per leg)")
print(f"{'sigma':>7} {'incoherent F':>16} {'std err':>10} {'coherent F':>16}")
for k, sigma in enumerate((0.0, 0.4, 0.8, 1.6)):
    b1 = sample_bundle(seg1, sigma, N_PATHS, 100 + 2 * k)
    b2 = sample_bundle(seg2, sigma, N_PATHS, 101 + 2 * k)
    f_inc, se = fidelity_with_error(averaged_state(pair, b1, b2, "incoherent"))
    f_coh, _ = fidelity_with_error(averaged_state(pair, b1, b2, "coherent"))
    print(f"{sigma:7.2f} {f_inc:16.12f} {se:10.1e} {f_coh:16.12f}")

# The averaged state still anticorrelates along the matched axis, just
# not perfectly once the bundle has width.
print("\nmatched-axis correlation of the averaged state")
a = np.array([0.0, 0.0, 1.0])
for sigma in (0.0, 1.6):
    avg = averaged_state(
        pair,
        sample_bundle(seg1, sigma, N_PATHS, 100),
        sample_bundle(seg2, sigma, N_PATHS, 101),
        "incoherent",
    )
    m = correlation_matrix(avg.state)
    b = -(m.T @ a)
    b /= np.linalg.norm(b)
    print(f"  sigma = {sigma:4.2f}   E(a, b*) = {degraded_correlation(avg, a, b):+.12f}")

# Flat spacetime is the control: every polygon transport is the identity,
# so no bundle width can move the averaged state at all.
flat = make_spacetime("minkowski")
f1 = integrate_geodesic(
    flat, Event(np.zeros(4)), np.array([np.sqrt(1.16), 0.4, 0.0, 0.0]), 3.0,
    n_samples=samples_for(3.0),
)
f2 = integrate_geodesic(
    flat, Event(np.zeros(4)), np.array([np.sqrt(1.18), -0.3, 0.0, 0.3]), 3.0,
    n_samples=samples_for(3.0),
)
f, _ = fidelity_with_error(
    averaged_state(
        pair_transport(f1, f2),
        sample_bundle(f1, 1.6, N_PATHS, 100),
        sample_bundle(f2, 1.6, N_PATHS, 101),
        "incoherent",
    )
)
print(f"\nflat control at sigma = 1.6:  F = {f:.15f}")
