"""The in-place array kernels against their out-of-place expression forms.

``kernel_oracle`` keeps the expression form of each kernel verbatim.  The
kernels must reproduce it bit for bit (``tobytes()``) on seeded inputs, and
every input is read-only, so a kernel that wrote into a caller's array
would raise here.  The bundle channel's broadcast closing, kron-free
singlet image and batched block fidelities sum in another order than their
oracles, so on the demo bundles they agree within 1e-14.
"""

from pathlib import Path

import numpy as np
import pytest

import kernel_oracle as oracle
from eprgeo import (
    Event,
    averaged_state,
    fidelity_with_error,
    integrate_geodesic,
    integrate_orbit,
    lorentz,
    make_spacetime,
    pair_transport,
    sample_bundle,
    transport,
)
from eprgeo.decoherence import ChannelAverage, _decimate
from eprgeo.errors import ConfigurationError
from eprgeo.frames import frame_field
from eprgeo.geodesic import samples_for
from eprgeo.lorentz import _SERIES_BOUND, _exp_traceless, _pairwise, _product_2x2, su2_polar
from eprgeo.precession import circular_orbit_tangent
from eprgeo.scenario import load_scenario
from eprgeo.spin import pair_state
from eprgeo.transport import _rk4_steps, polygon_spinor_transport, spinor_propagator

DEMOS = Path(__file__).parent.parent / "demos" / "scenarios"
# the initial-value demo pairs: Schwarzschild, weak-field and Minkowski legs
DEMO_PAIRS = ("decoherence_sweep", "weak_field_pair", "flat_singlet")
# every demo pair gets the bundles of the decoherence demo's sweep
SWEEP = load_scenario(str(DEMOS / "decoherence_sweep.cfg")).decoherence
ROUND_OFF = 1.0e-14


def frozen(*arrays):
    """The arrays, marked read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays if len(arrays) > 1 else arrays[0]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def complex_normal(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.fixture(scope="module")
def schwarzschild():
    return make_spacetime("schwarzschild", {"M": 1.0})


# ---------------------------------------------------------------------------
# RK4 stages


def test_batched_rk4_steps_match_the_oracle():
    rng = np.random.default_rng(11)
    w0, wm, w1 = frozen(*(0.3 * rng.standard_normal((257, 4, 4)) for _ in range(3)))
    for h in (1.0e-3, 0.05, 0.7):
        assert same_bits(_rk4_steps(w0, wm, w1, h), oracle.rk4_steps(w0, wm, w1, h))


def test_strided_rk4_steps_match_the_oracle(schwarzschild):
    """Stages as world_propagator passes them: every other row of one W array,
    over a full block and a part block, and the lone (4, 4) step."""
    rng = np.random.default_rng(12)
    n = 2 * 1500 + 1  # intervals: 1,500 paired steps and a lone last one
    x = np.column_stack([rng.uniform(0, 50, n + 2), rng.uniform(4, 30, n + 2),
                         rng.uniform(0.2, 2.9, n + 2), rng.uniform(0, 6, n + 2)])
    w = frozen(schwarzschild.connection_matrix(x, rng.standard_normal((n + 2, 4))))
    h = 0.02
    for a, b in ((0, 2048), (2048, 3000), (0, 2)):
        args = (w[a:b:2], w[a + 1 : b : 2], w[a + 2 : b + 1 : 2], 2.0 * h)
        assert same_bits(_rk4_steps(*args), oracle.rk4_steps(*args))
    lone = (w[n - 1], w[n + 1], w[n], h)
    assert lone[0].shape == (4, 4)
    assert same_bits(_rk4_steps(*lone), oracle.rk4_steps(*lone))


# ---------------------------------------------------------------------------
# the closed-form W


@pytest.mark.parametrize(
    "x_shape, u_shape",
    [((300, 4), (300, 4)), ((4,), (4,)), ((40, 1, 4), (1, 7, 4)), ((4,), (25, 4)), ((25, 4), (4,))],
    ids=["rows", "point", "outer", "x-point", "u-point"],
)
def test_connection_matrix_matches_the_oracle(schwarzschild, x_shape, u_shape):
    rng = np.random.default_rng(13)
    x = rng.uniform(size=x_shape) * [30.0, 40.0, 2.9, 6.0] + [0.0, 2.5, 0.12, 0.0]
    u = rng.standard_normal(u_shape)
    x, u = frozen(x, u)
    assert same_bits(schwarzschild.connection_matrix(x, u), oracle.schwarzschild_connection_matrix(1.0, x, u))


def test_connection_matrix_matches_the_oracle_on_an_orbit(schwarzschild):
    seg = integrate_orbit(schwarzschild, 10.0)
    x, u = frozen(seg.events.copy(), seg.tangents.copy())
    assert same_bits(schwarzschild.connection_matrix(x, u), oracle.schwarzschild_connection_matrix(1.0, x, u))


# ---------------------------------------------------------------------------
# chord exponentials and their products


def generators(rng, shape):
    """c3, b, d whose z = c3^2 + b d spans both sides of _SERIES_BOUND, with
    some exact zeros."""
    scale = 10.0 ** rng.uniform(-4.0, 0.5, shape)
    c3, b, d = (complex_normal(rng, shape, scale) for _ in range(3))
    c3.flat[::17] = b.flat[::17] = d.flat[::17] = 0.0
    z = np.abs(c3 * c3 + b * d)
    assert (z < _SERIES_BOUND).sum() > 10 and (z >= _SERIES_BOUND).sum() > 10
    return c3, b, d


@pytest.mark.parametrize("shape", [(400,), (60, 9)], ids=["chords", "chords-by-paths"])
def test_exp_traceless_matches_the_oracle(shape):
    c3, b, d = frozen(*generators(np.random.default_rng(14), shape))
    e = _exp_traceless(c3, b, d)
    assert same_bits(e, oracle.exp_traceless(c3, b, d))
    neg = frozen(-c3, -b, -d)
    e_neg = _exp_traceless(*neg)
    assert same_bits(e_neg, oracle.exp_traceless(*neg))
    # the reversed chord's factor is the exact adjugate [[s, -q], [-r, p]]
    # (equal values: a zero entry may change its sign)
    p, q, r, s = e.swapaxes(0, 1)
    assert np.array_equal(e_neg, np.stack([s, -q, -r, p], axis=1))


@pytest.mark.parametrize("rows", [1, 5, 250])
def test_product_2x2_matches_the_oracle(rows):
    rng = np.random.default_rng(15)
    a, b = frozen(complex_normal(rng, (33, 4, rows)), complex_normal(rng, (33, 4, rows)))
    assert same_bits(_product_2x2(a, b), oracle.product_2x2(a, b))
    # and through the pairwise tree of an ordered product
    f = frozen(_exp_traceless(*generators(rng, (77, rows))))
    assert same_bits(_pairwise(f, _product_2x2), _pairwise(f, oracle.product_2x2))


# ---------------------------------------------------------------------------
# whole propagators with every kernel swapped for its oracle


def oracle_kernels(monkeypatch, st):
    """Swap every kernel for its oracle; returns, per 2x2 kernel, the list
    of calls made since, each True when its output array is one the bundle
    transport keeps."""
    calls = {"exp": [], "product": []}

    def recording(kernel, record):
        def call(*args, out=None, **scratch):
            kept = transport._BUNDLE_WORK.arrays.values()
            record.append(out is not None and any(np.shares_memory(out, a) for a in kept))
            return kernel(*args, out=out, **scratch)

        return call

    monkeypatch.setattr(transport, "_rk4_steps", oracle.rk4_steps)
    monkeypatch.setattr(lorentz, "_exp_traceless", recording(oracle.exp_traceless, calls["exp"]))
    monkeypatch.setattr(lorentz, "_product_2x2", recording(oracle.product_2x2, calls["product"]))
    monkeypatch.setattr(st, "connection_matrix", lambda x, u: oracle.schwarzschild_connection_matrix(st.mass, x, u))
    return calls


def bundle_stack(seg, rows=40):
    """A stack of polygons around the segment's decimated knots, as the
    bundle channel transports them: rows x knots within one kept chunk."""
    knots = seg.events[_decimate(seg.n_samples)]
    shift = 1.0e-3 * np.random.default_rng(17).standard_normal((rows,) + knots.shape)
    shift[:, [0, -1]] = 0.0
    return frozen(knots + shift)


@pytest.mark.parametrize("n_samples", [2, 8, 8313], ids=["lone-step", "odd-intervals", "orbit"])
def test_propagators_match_the_oracle_kernels(schwarzschild, monkeypatch, n_samples):
    """Both single-leg propagators, and a bundle stack through the kept work
    arrays of polygon_spinor_transport, with every kernel swapped for its
    oracle.  The bundle stack must reach the patched 2x2 kernels with kept
    output arrays, the spinor propagator with new ones: one exponential call
    and one product call per tree round."""
    if n_samples == 8313:
        seg = integrate_orbit(schwarzschild, 10.0)
    else:
        seg = integrate_geodesic(schwarzschild, *circular_orbit_tangent(schwarzschild, 10.0), 3.0, n_samples=n_samples)
    assert seg.n_samples == n_samples
    xs = bundle_stack(seg)
    world, spinor = transport.world_propagator(seg), transport.spinor_propagator(seg)
    bundle = polygon_spinor_transport(schwarzschild, xs)
    seg.cache.clear()
    calls = oracle_kernels(monkeypatch, schwarzschild)
    assert same_bits(transport.world_propagator(seg), world)
    assert same_bits(transport.spinor_propagator(seg), spinor)
    rounds = int(np.ceil(np.log2(n_samples - 1)))
    assert calls == {"exp": [False], "product": [False] * rounds}
    del calls["exp"][:], calls["product"][:]
    assert same_bits(polygon_spinor_transport(schwarzschild, xs), bundle)
    rounds = int(np.ceil(np.log2(xs.shape[1] - 1)))
    assert calls == {"exp": [True], "product": [True] * rounds}


# ---------------------------------------------------------------------------
# the bundle channel on the demo pairs


@pytest.fixture(scope="module", params=DEMO_PAIRS)
def demo_pair(request):
    sc = load_scenario(str(DEMOS / f"{request.param}.cfg"))
    legs = [
        integrate_geodesic(
            sc.spacetime, Event(sc.decay_event), d.tangent, d.tau, tol=sc.tol, n_samples=samples_for(d.tau, sc.sample_step)
        )
        for d in (sc.detector1, sc.detector2)
    ]
    return pair_transport(*legs, decay_velocity=sc.decay_velocity)


@pytest.fixture(scope="module")
def demo_bundles(demo_pair):
    """(b1, b2) per sigma of the decoherence demo, around the pair's legs."""
    legs = (demo_pair.segment1, demo_pair.segment2)
    return [
        tuple(sample_bundle(seg, sigma, SWEEP.n_paths, SWEEP.seed + 2 * k + j) for j, seg in enumerate(legs))
        for k, sigma in enumerate(SWEEP.sigmas)
    ]


def test_bundle_draw_matches_the_out_of_place_oracle(demo_pair, demo_bundles):
    for k, sigma in enumerate(SWEEP.sigmas):
        if sigma == 0.0:
            continue
        for j, b in enumerate(demo_bundles[k]):
            paths, rounds = oracle.bundle_paths(b.base, sigma, SWEEP.n_paths, SWEEP.seed + 2 * k + j)
            assert same_bits(b.paths, paths)
            assert b.meta["resample_rounds"] == rounds


def test_bundle_draw_matches_the_out_of_place_oracle_through_redraws(schwarzschild):
    """A radial leg just outside the horizon: some first draws leave the chart."""
    x = np.array([0.0, 2.3, np.pi / 2.0, 0.0])
    u = frame_field(schwarzschild, x) @ np.array([np.sqrt(1.09), 0.3, 0.0, 0.0])
    seg = integrate_geodesic(schwarzschild, Event(x), u, 1.0, n_samples=samples_for(1.0))
    rounds = []
    for sigma, seed in ((0.3, 5), (0.4, 6), (0.4, 7)):
        b = sample_bundle(seg, sigma, 150, seed)
        paths, r = oracle.bundle_paths(seg, sigma, 150, seed)
        assert same_bits(b.paths, paths)
        assert b.meta["resample_rounds"] == r
        rounds.append(r)
    assert max(rounds) >= 2


def leg_stacks(pair, bundles):
    """Per leg, the base polygon and every sigma > 0 bundle's paths, transported."""
    st = pair.segment1.spacetime
    for leg in (1, 2):
        legs = [b[leg - 1] for b in bundles]
        xs = np.concatenate([legs[0].base_knots[None]] + [b.paths for b in legs if b.sigma != 0.0])
        yield leg, frozen(polygon_spinor_transport(st, xs))


def test_closing_matches_the_matmul_oracle(demo_pair, demo_bundles):
    for leg, u in leg_stacks(demo_pair, demo_bundles):
        assert np.max(np.abs(demo_pair.spin_map(leg, u) - oracle.spin_map(demo_pair, leg, u))) <= ROUND_OFF
        pre, post = demo_pair.conjugation_factors[leg - 1]
        m = frozen(post @ u @ pre)
        for got, want in zip(su2_polar(m), oracle.su2_polar(m)):
            assert got.shape == want.shape and np.max(np.abs(got - want)) <= ROUND_OFF
    # one 2x2 at a time: each leg's own closing, as pair_transport makes it
    for leg, seg, spin in ((1, demo_pair.segment1, demo_pair.spin1), (2, demo_pair.segment2, demo_pair.spin2)):
        u = frozen(spinor_propagator(seg))
        assert np.max(np.abs(spin - oracle.spin_map(demo_pair, leg, u))) <= ROUND_OFF
        pre, post = demo_pair.conjugation_factors[leg - 1]
        m = frozen(post @ u @ pre)
        for got, want in zip(su2_polar(m), oracle.su2_polar(m)):
            assert got.shape == want.shape == (2, 2) and np.max(np.abs(got - want)) <= ROUND_OFF


def test_pair_state_matches_the_kron_oracle(demo_pair, demo_bundles):
    w1, w2 = (frozen(demo_pair.spin_map(leg, u)) for leg, u in leg_stacks(demo_pair, demo_bundles))
    v = pair_state(w1, w2)
    assert v.shape == (len(w1), 4)
    assert np.max(np.abs(v - [oracle.pair_state(a, b) for a, b in zip(w1, w2)])) <= ROUND_OFF
    assert np.max(np.abs(demo_pair.state.data - oracle.pair_state(demo_pair.spin1, demo_pair.spin2))) <= ROUND_OFF
    assert same_bits(pair_state(), oracle.pair_state(lorentz.ID2, lorentz.ID2))


@pytest.mark.parametrize("mode", ["coherent", "incoherent"])
def test_fidelity_with_error_matches_the_per_block_oracle(demo_pair, demo_bundles, mode):
    for b1, b2 in demo_bundles:
        avg = averaged_state(demo_pair, b1, b2, mode)
        got, want = fidelity_with_error(avg), oracle.fidelity_with_error(avg)
        assert np.max(np.abs(np.subtract(got, want))) <= ROUND_OFF
        assert (got[1] == 0.0) == (want[1] == 0.0)


def test_a_destroyed_block_raises_like_the_per_block_oracle():
    """A block whose mean maps cancel leaves no singlet image to normalize."""
    rng = np.random.default_rng(16)
    t1 = complex_normal(rng, (20, 2, 2))
    t1[5] = -t1[4]  # block 2 of 10, rows 4 and 5, has mean zero
    t2 = complex_normal(rng, (20, 2, 2))
    avg = ChannelAverage(np.eye(4) / 4.0, "coherent", (t1, t2), pair_state(), False)
    for f in (fidelity_with_error, oracle.fidelity_with_error):
        with pytest.raises(ConfigurationError, match="destroyed the state entirely"):
            f(avg)
