"""Acceptance gate: one numbered pass/fail line per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Each test computes its verdict, prints it, and only then
asserts, so a FAIL line always reaches the console before pytest stops.

The criteria, in the order printed:

1. flat-spacetime anticorrelation and CHSH at the quantum bound
2. geodetic precession per orbit against the closed form, both routes
3. spin-half transport projects onto the vector route (100 segments)
4. matched-axis anticorrelation and gauge independence (25 pair configs)
5. retraced transports compose to the identity (50 segments)
6. tangent-norm and tetrad-orthonormality conservation over the battery
7. weak-field frame rotation scales linearly in the potential strength
8. bundle-averaged fidelity: exact at zero width, monotone, flat control
9. repeated scenario runs emit byte-identical CSV reports
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import gauge_closed_pair
from eprgeo import (
    CANONICAL_CHSH_DIRECTIONS,
    Event,
    averaged_state,
    chsh,
    correlation,
    fidelity_with_error,
    geodetic_angle_exact,
    integrate_geodesic,
    integrate_orbit,
    integrate_pair,
    make_spacetime,
    matched_axis,
    pair_transport,
    rest_frame_holonomy_angle,
    sample_bundle,
    spinor_holonomy_angle,
)
from eprgeo.cli import main as cli_main
from eprgeo.frames import frame_field
from eprgeo.geodesic import samples_for
from eprgeo.lorentz import rotation_axis_angle
from eprgeo.pipeline import boosted_tetrad
from eprgeo.transport import spinor_propagator, transport_tetrad, world_propagator

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def verdict(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def random_direction(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_01_flat_anticorrelation_and_chsh(minkowski):
    u1 = np.array([np.sqrt(1.49), 0.7, 0.0, 0.0])
    u2 = np.array([np.sqrt(1.25), -0.5, 0.0, 0.0])
    res = integrate_pair(minkowski, Event(np.zeros(4)), u1, u2, 1.5, 1.5)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        a = random_direction(rng)
        e = correlation(res.state, a, matched_axis(res, a))
        worst = max(worst, abs(e + 1.0))
    za, xa, da, ea = CANONICAL_CHSH_DIRECTIONS
    s = chsh(res.state, za, xa, matched_axis(res, da), matched_axis(res, ea))
    s_err = abs(s + 2.0 * np.sqrt(2.0))
    ok = worst <= 1e-10 and s_err <= 1e-9
    assert verdict(
        1, ok, f"max |E+1| = {worst:.3e} over 20 directions, |S+2*sqrt(2)| = {s_err:.3e}"
    )


def test_02_geodetic_angle_both_routes(schwarzschild):
    seg = integrate_orbit(schwarzschild, 10.0)
    exact = geodetic_angle_exact(schwarzschild, 10.0)
    a_vec, _ = rest_frame_holonomy_angle(seg)
    a_spin = spinor_holonomy_angle(seg)
    dv, ds = abs(a_vec - exact), abs(a_spin - exact)
    ok = dv <= 1e-4 and ds <= 1e-4
    assert verdict(
        2, ok, f"per-orbit angle {exact:.6f}, vector route off {dv:.3e}, spin route off {ds:.3e}"
    )


def test_03_spin_route_projects_onto_vector_route(battery, double_cover_defect):
    worst = max(double_cover_defect(seg, "static") for seg in battery)
    ok = worst <= 1e-6
    assert verdict(3, ok, f"max |U sigma U^dag - R| = {worst:.3e} over {len(battery)} segments")


def test_04_matched_axis_and_gauge_independence(schwarzschild, static_tangent):
    """Two halves over 25 random Schwarzschild pair configurations.

    The E half (|E(a, b) + 1| at the matched axis) is a cross-route check:
    ``matched_axis`` is the vector route's parallel-transported image of a,
    and E comes from the spinor route's state, so |E + 1| is about half the
    squared gap between the routes.  The gauge half (E in the static
    against the boosted-static gauge) checks that the rest-frame
    bookkeeping does not depend on the gauge: the test closes each leg's
    transport the long way, K^-1 U K between the gauge-frame factors
    K^-1 pre and post K (``conftest.gauge_closed_pair``), against the
    pipeline's closing, which reads no gauge.  The constant lift cancels
    by conjugation, so this is not a test of the spin connection's
    covariance; the local-gauge oracle in test_transport is.
    """
    rng = np.random.default_rng(11)
    worst_e = 0.0
    worst_gap = 0.0
    for _ in range(25):
        coords = np.array(
            [0.0, rng.uniform(6.0, 20.0), rng.uniform(0.6, np.pi - 0.6), rng.uniform(-np.pi, np.pi)]
        )
        e0 = Event(coords)
        segs = []
        for _leg in range(2):
            u = static_tangent(schwarzschild, coords, rng.normal(scale=0.4, size=3))
            tau = rng.uniform(0.8, 2.5)
            segs.append(
                integrate_geodesic(schwarzschild, e0, u, tau, n_samples=samples_for(tau))
            )
        res_s = pair_transport(segs[0], segs[1])
        res_b = gauge_closed_pair(res_s, "boosted-static")
        for _d in range(5):
            a = random_direction(rng)
            b = matched_axis(res_s, a)
            e_s = correlation(res_s.state, a, b)
            e_b = correlation(res_b.state, a, b)
            worst_e = max(worst_e, abs(e_s + 1.0))
            worst_gap = max(worst_gap, abs(e_s - e_b))
    ok = worst_e <= 1e-6 and worst_gap <= 1e-6
    assert verdict(
        4, ok, f"max |E+1| = {worst_e:.3e}, max gauge gap = {worst_gap:.3e} over 25 configs"
    )


def test_05_retraced_transport_is_identity(battery, reversed_segment):
    worst_v = 0.0
    worst_s = 0.0
    eye2 = np.eye(2)
    eye4 = np.eye(4)
    for seg in battery[:50]:
        rev = reversed_segment(seg)
        worst_v = max(worst_v, np.max(np.abs(world_propagator(rev) @ world_propagator(seg) - eye4)))
        u = spinor_propagator(rev) @ spinor_propagator(seg)
        worst_s = max(worst_s, np.max(np.abs(u - eye2)))
    ok = worst_v <= 1e-8 and worst_s <= 1e-6
    assert verdict(
        5, ok, f"retrace defect: vector {worst_v:.3e} (<=1e-8), spinor {worst_s:.3e} (<=1e-6)"
    )


def test_06_conservation_diagnostics(schwarzschild, battery):
    drift = 0.0
    ortho = 0.0
    for seg in battery:
        norms = np.einsum(
            "ki,ki,ki->k", seg.tangents, schwarzschild.metric(seg.events), seg.tangents
        )
        drift = max(drift, float(np.max(np.abs(norms + 1.0))))
        moved = transport_tetrad(seg, boosted_tetrad(schwarzschild, seg.start))
        ortho = max(ortho, float(moved.defect(schwarzschild)))
    ok = drift <= 1e-8 and ortho <= 1e-8
    assert verdict(
        6, ok, f"norm drift {drift:.3e}, orthonormality drift {ortho:.3e} over the battery"
    )


def test_07_weak_field_linear_scaling():
    coords = np.array([0.0, 3.0, 1.0, -0.5])

    def angle(eps: float) -> float:
        st = make_spacetime("weak_field", {"epsilon": eps})
        n0 = frame_field(st, coords)
        w1 = np.array([0.5, 0.0, 0.0])
        w2 = np.array([-0.3, 0.45, 0.0])
        u1 = n0 @ np.concatenate(([np.sqrt(1.0 + w1 @ w1)], w1))
        u2 = n0 @ np.concatenate(([np.sqrt(1.0 + w2 @ w2)], w2))
        res = integrate_pair(st, Event(coords), u1, u2, 4.0, 4.0)
        _, ang = rotation_axis_angle(res.relative_rotation)
        return ang

    ratio = angle(0.02) / angle(0.01)
    ok = abs(ratio - 2.0) <= 0.04
    assert verdict(7, ok, f"rotation angle ratio at doubled potential = {ratio:.4f} (want 2 +- 2%)")


def test_08_dephasing_monotone_with_flat_control(schwarzschild, minkowski, static_tangent):
    decay = np.array([0.0, 12.0, np.pi / 2.0, 0.0])
    tau = 3.0
    sigmas = (0.0, 0.4, 0.8, 1.6)
    w1 = [0.4, 0.0, 0.0]
    w2 = [-0.3, 0.0, 0.3]

    def legs(st, origin):
        out = []
        for w in (w1, w2):
            u = static_tangent(st, origin, w)
            out.append(
                integrate_geodesic(st, Event(origin), u, tau, n_samples=samples_for(tau))
            )
        return out

    s1, s2 = legs(schwarzschild, decay)
    pair = pair_transport(s1, s2)
    results = []
    for k, sigma in enumerate(sigmas):
        b1 = sample_bundle(s1, sigma, 2000, 100 + 2 * k)
        b2 = sample_bundle(s2, sigma, 2000, 101 + 2 * k)
        results.append(fidelity_with_error(averaged_state(pair, b1, b2, "incoherent")))
    zero_err = abs(results[0][0] - 1.0)
    monotone = all(
        results[k + 1][0] <= results[k][0] + 2.0 * (results[k][1] + results[k + 1][1])
        for k in range(len(sigmas) - 1)
    )

    f1, f2 = legs(minkowski, np.zeros(4))
    flat_pair = pair_transport(f1, f2)
    flat_err = 0.0
    for k, sigma in enumerate(sigmas):
        b1 = sample_bundle(f1, sigma, 2000, 100 + 2 * k)
        b2 = sample_bundle(f2, sigma, 2000, 101 + 2 * k)
        f, _ = fidelity_with_error(averaged_state(flat_pair, b1, b2, "incoherent"))
        flat_err = max(flat_err, abs(f - 1.0))

    ok = zero_err <= 1e-8 and monotone and flat_err <= 1e-8
    fids = ", ".join(f"{f:.9f}" for f, _ in results)
    assert verdict(
        8,
        ok,
        f"F(sigma) = [{fids}], |F(0)-1| = {zero_err:.1e}, "
        f"monotone within error bars: {monotone}, flat control off by {flat_err:.1e}",
    )


def test_09_byte_identical_csv_reports(tmp_path):
    files = sorted(SCENARIO_DIR.glob("*.cfg"))
    assert files, f"no scenario files under {SCENARIO_DIR}"
    stable = True
    for cfg in files:
        blobs = []
        for run in (0, 1):
            out = tmp_path / f"{cfg.stem}.{run}.csv"
            code = cli_main(["run", str(cfg), "--format", "csv", "--out", str(out)])
            stable = stable and code == 0
            blobs.append(out.read_bytes())
        stable = stable and blobs[0] == blobs[1]
    assert verdict(9, stable, f"{len(files)} scenarios, two runs each, identical output bytes")
