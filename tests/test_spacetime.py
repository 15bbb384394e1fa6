"""Metric models: analytic Christoffels against a finite-difference oracle,
signature, chart domains, and the factory's validation."""

import numpy as np
import pytest

from eprgeo import Event, integrate_geodesic, make_spacetime
from eprgeo.decoherence import path_action
from eprgeo.errors import ConfigurationError, DomainError
from eprgeo.spacetime import (
    AXIS_GUARD,
    HORIZON_GUARD,
    MAX_RADIUS,
    MIN_RADIUS,
    Minkowski,
    Schwarzschild,
    WeakField,
    metric_at,
    require_event,
)


def fd_christoffel(st, x, h=1e-6):
    """Independent second-kind Christoffels from central differences."""
    x = np.asarray(x, dtype=float)
    dg = np.zeros((4, 4, 4))
    for lam in range(4):
        xp = x.copy()
        xm = x.copy()
        xp[lam] += h
        xm[lam] -= h
        dg[lam] = np.diag(st.metric(xp) - st.metric(xm)) / (2.0 * h)
    ginv = np.linalg.inv(np.diag(st.metric(x)))
    gamma = np.zeros((4, 4, 4))
    for i in range(4):
        for m in range(4):
            for n in range(4):
                s = 0.0
                for l in range(4):
                    s += ginv[i, l] * (dg[m, l, n] + dg[n, l, m] - dg[l, m, n])
                gamma[i, m, n] = 0.5 * s
    return gamma


SAMPLE_POINTS = {
    "schwarzschild": [
        np.array([0.0, 6.0, 1.2, 0.3]),
        np.array([2.0, 11.5, 2.0, -1.0]),
        np.array([-1.0, 30.0, 0.7, 2.5]),
    ],
    "weak_field": [
        np.array([0.0, 1.5, -0.4, 2.0]),
        np.array([3.0, -4.0, 1.0, 0.5]),
        np.array([0.0, 0.1, 0.0, -0.2]),
    ],
}


@pytest.mark.parametrize("kind", ["schwarzschild", "weak_field"])
def test_christoffel_matches_finite_differences(kind):
    params = {"M": 1.0} if kind == "schwarzschild" else {"epsilon": 0.05}
    st = make_spacetime(kind, params)
    for x in SAMPLE_POINTS[kind]:
        exact = st.christoffel(x)
        approx = fd_christoffel(st, x)
        assert np.max(np.abs(exact - approx)) < 1e-5


@pytest.mark.parametrize(
    "st",
    [
        make_spacetime("minkowski"),
        make_spacetime("schwarzschild", {"M": 1.0}),
        make_spacetime("weak_field", {"epsilon": 0.05, "softening": 0.7}),
    ],
    ids=lambda st: st.name,
)
def test_christoffel_symmetric_lower_indices(st):
    """Exactly symmetric, which the vector route's contraction relies on."""
    rng = np.random.default_rng(11)
    x = rng.uniform(-2.0, 2.0, size=(5, 7, 4))
    x[..., 1] += 8.0  # r in [6, 10] for Schwarzschild
    x[..., 2] = rng.uniform(0.5, 2.6, (5, 7))  # theta off the axis
    gamma = st.christoffel(x)
    assert gamma.shape == (5, 7, 4, 4, 4)
    assert np.array_equal(gamma, np.swapaxes(gamma, -1, -2))


def test_metric_signature(schwarzschild):
    for r in (2.5, 6.0, 50.0):
        g = schwarzschild.metric(np.array([0.0, r, 1.0, 0.0]))
        eig = np.sort(np.linalg.eigvalsh(np.diag(g)))
        assert eig[0] < 0
        assert np.all(eig[1:] > 0)


def test_metric_batched_shapes(schwarzschild):
    xs = np.tile(np.array([0.0, 8.0, 1.3, 0.2]), (5, 1))
    assert schwarzschild.metric(xs).shape == (5, 4)
    assert schwarzschild.christoffel(xs).shape == (5, 4, 4, 4)


def dense_metric_reference(st, x):
    """Reference: the dense (..., 4, 4) metric, filled entry by entry."""
    g = np.zeros(x.shape[:-1] + (4, 4))
    if isinstance(st, Minkowski):
        g[..., 0, 0] = -1.0
        for i in (1, 2, 3):
            g[..., i, i] = 1.0
    elif isinstance(st, Schwarzschild):
        r, th = x[..., 1], x[..., 2]
        f = 1.0 - 2.0 * st.mass / r
        g[..., 0, 0] = -f
        g[..., 1, 1] = 1.0 / f
        g[..., 2, 2] = r * r
        g[..., 3, 3] = (r * np.sin(th)) ** 2
    else:
        phi, _ = st._potential(x[..., 1:])
        g[..., 0, 0] = -(1.0 + 2.0 * st.epsilon * phi)
        for i in (1, 2, 3):
            g[..., i, i] = 1.0 - 2.0 * st.epsilon * phi
    return g


@pytest.mark.parametrize("lead", [(), (6,), (2, 3)], ids=["point", "batch", "grid"])
@pytest.mark.parametrize(
    "st",
    [
        make_spacetime("minkowski"),
        make_spacetime("schwarzschild", {"M": 1.0}),
        make_spacetime("weak_field", {"epsilon": 0.05, "softening": 0.7}),
    ],
    ids=lambda st: st.name,
)
def test_metric_is_the_diagonal_of_the_dense_form(st, lead):
    """metric gives g_aa with the coordinates' shape, bitwise the diagonal
    of the dense matrix."""
    x = np.random.default_rng(17).uniform(-4.0, 4.0, size=lead + (4,))
    x[..., 1] += 9.0  # r in [5, 13] for Schwarzschild
    x[..., 2] = np.random.default_rng(18).uniform(0.5, 2.6, lead)  # theta off the axis
    g = st.metric(x)
    assert g.shape == x.shape
    assert np.array_equal(g, np.diagonal(dense_metric_reference(st, x), axis1=-2, axis2=-1))


def weak_field_christoffel_loops(st, x):
    """Reference: the weak-field closed form filled entry by entry."""
    phi, grad = st._potential(np.asarray(x, dtype=float)[1:])
    dP = st.epsilon * grad
    A = 1.0 + 2.0 * st.epsilon * phi
    B = 1.0 - 2.0 * st.epsilon * phi
    G = np.zeros((4, 4, 4))
    for i in range(3):
        G[0, 0, i + 1] = G[0, i + 1, 0] = dP[i] / A
        G[i + 1, 0, 0] = dP[i] / B
        for j in range(3):
            for k in range(3):
                term = 0.0
                if i == k:
                    term = term + dP[j]
                if i == j:
                    term = term + dP[k]
                if j == k:
                    term = term - dP[i]
                G[i + 1, j + 1, k + 1] = -term / B
    return G


def test_weak_field_batched_matches_pointwise_and_loops():
    st = make_spacetime("weak_field", {"epsilon": 0.05, "softening": 0.7})
    xs = np.random.default_rng(3).uniform(-4.0, 4.0, (3, 5, 4))
    xs[0, 0, 1:] = 0.0  # the potential's centre, where the gradient vanishes
    xs[0, 1, 2] = 0.0
    gamma = st.christoffel(xs)
    g = st.metric(xs)
    assert gamma.shape == (3, 5, 4, 4, 4)
    assert g.shape == (3, 5, 4)
    for k in range(3):
        for m in range(5):
            assert np.array_equal(gamma[k, m], st.christoffel(xs[k, m]))
            assert np.array_equal(gamma[k, m], weak_field_christoffel_loops(st, xs[k, m]))
            assert np.array_equal(g[k, m], st.metric(xs[k, m]))


def _rhs_states(kind, params, rng):
    """1,200 states (x, u); Schwarzschild ones crowd the horizon and the axis."""
    n = 1200
    u = rng.normal(size=(n, 4))
    if kind != "schwarzschild":
        return np.concatenate([rng.uniform(-5.0, 5.0, (n, 4)), u], axis=1)
    r_min = 2.0 * params["M"] * (1.0 + HORIZON_GUARD)
    r = rng.uniform(r_min, 40.0, n)
    r[:400] = r_min + rng.uniform(0.0, 1.0e-3, 400)
    th = rng.uniform(0.01, np.pi - 0.01, n)
    near_axis = np.arcsin(10.0 * AXIS_GUARD * rng.uniform(1.0, 2.0, 400))
    th[400:800] = np.where(rng.random(400) < 0.5, near_axis, np.pi - near_axis)
    x = np.stack([rng.normal(size=n), r, th, rng.uniform(-np.pi, np.pi, n)], axis=1)
    return np.concatenate([x, u], axis=1)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("schwarzschild", {"M": 1.0}),
        ("schwarzschild", {"M": 0.5}),
        ("weak_field", {"epsilon": 0.1, "softening": 0.5}),
        ("weak_field", {"epsilon": -0.1, "softening": 2.0}),
        ("minkowski", {}),
    ],
)
def test_geodesic_rhs_matches_christoffel_contraction(kind, params):
    st = make_spacetime(kind, params)
    ys = _rhs_states(kind, params, np.random.default_rng(11))
    assert np.all(st.in_chart(ys[:, :4]))
    for y in ys:
        out = st.geodesic_rhs(y.tolist())
        assert isinstance(out, tuple) and len(out) == 8
        assert all(type(v) is float for v in out)
        out = np.array(out)
        assert np.array_equal(out[:4], y[4:])
        oracle = -np.einsum("lmn,m,n->l", st.christoffel(y[:4]), y[4:], y[4:])
        assert np.all(np.abs(out[4:] - oracle) <= 1.0e-14 * np.maximum(1.0, np.abs(oracle)))
        if kind == "minkowski":
            assert np.all(out[4:] == 0.0)


def christoffel_contraction(st, x, u):
    """W^l_s = -Gamma^l_sm u^m from the Christoffel oracle, over the last axis."""
    return np.einsum("...lsm,...m->...ls", st.christoffel(x), -u)


def _connection_points(kind, params, rng):
    """States (x, u) at the chart's edges: just outside r_min, next to the
    axis band, and (weak field, Minkowski) so far out that the potential's
    gradient is 0."""
    states = _rhs_states(kind, params, rng)
    x, u = states[:, :4], states[:, 4:]
    if kind == "schwarzschild":
        r_min = make_spacetime(kind, params).r_min
        th_axis = np.arcsin(AXIS_GUARD)
        edge = np.tile([0.3, 10.0, 1.2, 0.4], (12, 1))
        edge[:4, 1] = r_min + np.arange(1, 5) * np.spacing(r_min)
        edge[4:8, 2] = th_axis + np.arange(2, 6) * np.spacing(th_axis)
        edge[8:, 2] = np.pi - th_axis - np.arange(2, 6) * np.spacing(np.pi)
    else:
        edge = np.array([[0.0, s * 1.0e100, -s * 1.0e100, 0.3] for s in (1.0, 10.0, 1.0e3, 1.0e60)])
        edge = np.concatenate([edge, [[1.0, 1.0e200, 2.0e200, -1.0e200], [0.0, 0.0, 0.0, 0.0]]])
    x = np.concatenate([x, edge])
    u = np.concatenate([u, rng.normal(size=(len(edge), 4))])
    return x, u


@pytest.mark.parametrize(
    "kind, params",
    [
        ("schwarzschild", {"M": 1.0}),
        ("schwarzschild", {"M": 0.5}),
        ("weak_field", {"epsilon": 0.1, "softening": 0.5}),
        ("weak_field", {"epsilon": -0.1, "softening": 2.0}),
        ("minkowski", {}),
    ],
)
def test_connection_matrix_matches_christoffel_contraction(kind, params):
    st = make_spacetime(kind, params)
    x, u = _connection_points(kind, params, np.random.default_rng(13))
    assert np.all(st.in_chart(x))
    n = len(x) // 2 * 2
    for xs, us in ((x, u), (x[:n].reshape(2, -1, 4), u[:n].reshape(2, -1, 4))):
        w = st.connection_matrix(xs, us)
        oracle = christoffel_contraction(st, xs, us)
        assert w.shape == xs.shape[:-1] + (4, 4)
        # into a caller's array, whatever it held before: the same bits
        out = np.full(w.shape, np.nan)
        assert st.connection_matrix(xs, us, out=out) is out and out.tobytes() == w.tobytes()
        assert np.all(np.abs(w - oracle) <= 1.0e-14 * np.maximum(1.0, np.abs(oracle)))
    for k in (0, len(x) - 1):
        w = st.connection_matrix(x[k], u[k])
        oracle = christoffel_contraction(st, x[k], u[k])
        assert w.shape == (4, 4)
        assert np.all(np.abs(w - oracle) <= 1.0e-14 * np.maximum(1.0, np.abs(oracle)))
    if kind == "minkowski":
        assert np.all(st.connection_matrix(x, u) == 0.0)
    if kind == "weak_field":
        # far out s**3 overflows, so the gradient is an exact 0, with no warning
        assert np.all(st.connection_matrix(x[-3:-1], u[-3:-1]) == 0.0)


def test_geodesic_rhs_at_huge_weak_field_coordinates():
    # the squared distance overflows to inf; the gradient vanishes, no error
    st = make_spacetime("weak_field", {"epsilon": 0.1})
    y = np.array([0.0, 1.0e200, -1.0e160, 3.0, 1.5, 0.1, 0.2, 0.3])
    out = st.geodesic_rhs(y.tolist())
    assert isinstance(out, tuple) and len(out) == 8
    assert out[4:] == (0.0, 0.0, 0.0, 0.0)


def _chart_edge_points(kind, params, rng):
    """Points crowded against the chart guards, plus non-finite coordinates."""
    x = _rhs_states(kind, params, rng)[:, :4]
    if kind == "schwarzschild":
        r_min = 2.0 * params["M"] * (1.0 + HORIZON_GUARD)
        th_axis = np.arcsin(AXIS_GUARD)
        edges = []
        for r in (r_min, MIN_RADIUS, MAX_RADIUS):
            edges += [np.nextafter(r, -np.inf), r, np.nextafter(r, np.inf)]
        edges = np.array(edges)
        at_r = np.tile([0.3, 10.0, 1.2, 0.4], (len(edges), 1))
        at_r[:, 1] = edges
        axis = []
        for th in (th_axis, np.pi - th_axis):
            axis += list(th + np.arange(-4, 5) * np.spacing(th))
        at_th = np.tile([0.3, 10.0, 1.2, 0.4], (len(axis), 1))
        at_th[:, 2] = axis
        x = np.concatenate([x, at_r, at_th, [[0.0, 10.0, 0.0, 0.0], [0.0, 10.0, np.pi, 0.0]]])
    bad = np.tile([0.3, 10.0, 1.2, 0.4], (12, 1))
    for k, v in enumerate((np.inf, -np.inf, np.nan)):
        bad[4 * k : 4 * k + 4][np.arange(4), np.arange(4)] = v
    return np.concatenate([x, bad])


@pytest.mark.parametrize(
    "kind, params",
    [
        ("schwarzschild", {"M": 1.0}),
        ("schwarzschild", {"M": 0.5}),
        ("schwarzschild", {"M": 0.0}),
        ("weak_field", {"epsilon": 0.1, "softening": 0.5}),
        ("minkowski", {}),
    ],
)
def test_one_point_chart_test_matches_in_chart(kind, params):
    st = make_spacetime(kind, params)
    xs = _chart_edge_points(kind, params, np.random.default_rng(12))
    batched = st.in_chart(xs)
    single = [st.contains(x) for x in xs.tolist()]
    assert all(type(v) is bool for v in single)
    assert single == batched.tolist()
    # the points fall on both sides of the chart boundary
    assert 0 < sum(single) < len(single)


def test_zero_mass_schwarzschild_is_flat():
    st = make_spacetime("schwarzschild", {"M": 0.0})
    x = np.array([0.0, 7.0, 1.0, 2.0])
    g = st.metric(x)
    # spherical-coordinate flat metric
    expected = np.array([-1.0, 1.0, x[1] ** 2, (x[1] * np.sin(x[2])) ** 2])
    assert np.max(np.abs(g - expected)) < 1e-12


def test_minkowski_trivial():
    st = Minkowski({})
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(st.metric(x), [-1.0, 1.0, 1.0, 1.0])
    assert np.allclose(st.christoffel(x), 0.0)
    assert st.periodic_axes == {}


def test_schwarzschild_periodic_azimuth(schwarzschild):
    assert schwarzschild.periodic_axes == {3: 2.0 * np.pi}


def test_weak_field_metric_linear_in_epsilon():
    x = np.array([0.0, 2.0, 1.0, -1.0])
    g1 = make_spacetime("weak_field", {"epsilon": 0.04}).metric(x)
    g2 = make_spacetime("weak_field", {"epsilon": 0.02}).metric(x)
    eta = np.array([-1.0, 1.0, 1.0, 1.0])
    assert np.allclose(g1 - eta, 2.0 * (g2 - eta), atol=1e-14)


def test_chart_domain(schwarzschild):
    assert schwarzschild.in_chart(np.array([0.0, 6.0, 1.0, 0.0]))
    require_event(schwarzschild, Event(np.array([0.0, 6.0, 1.0, 0.0])))
    outside = [
        # at or below the guarded horizon radius
        [0.0, 2.0, 1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        # polar axis excluded for the spherical chart
        [0.0, 6.0, 0.0, 0.0],
        # so far out that r**2 in the metric overflows
        [0.0, 1.0e160, 1.5, 0.0],
    ]
    assert not np.any(schwarzschild.in_chart(np.array(outside)))
    for x in outside:
        with pytest.raises(DomainError):
            require_event(schwarzschild, Event(np.array(x)))


def test_event_helpers(schwarzschild):
    e = Event(np.array([0.0, 10.0, np.pi / 2, 0.0]))
    g = metric_at(schwarzschild, e)
    assert g.shape == (4,)
    assert schwarzschild.christoffel(e.coords).shape == (4, 4, 4)
    with pytest.raises(DomainError):
        metric_at(schwarzschild, Event(np.array([0.0, 1.0, 1.0, 0.0])))


def test_factory_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        make_spacetime("kerr")
    with pytest.raises(ConfigurationError):
        make_spacetime("schwarzschild", {})
    with pytest.raises(ConfigurationError):
        make_spacetime("schwarzschild", {"M": -1.0})
    with pytest.raises(ConfigurationError):
        make_spacetime("schwarzschild", {"M": 1.0, "spin": 0.5})
    with pytest.raises(ConfigurationError):
        make_spacetime("weak_field", {"epsilon": 0.2})
    with pytest.raises(ConfigurationError):
        make_spacetime("weak_field", {"epsilon": 0.01, "softening": 0.0})


@pytest.mark.parametrize(
    "cls, params",
    [
        (Minkowski, {"M": 1.0}),
        (Schwarzschild, {}),
        (Schwarzschild, {"M": -1.0}),
        (Schwarzschild, {"M": np.nan}),
        (Schwarzschild, {"M": np.inf}),
        (Schwarzschild, {"M": 1.0, "spin": 0.5}),
        (WeakField, {}),
        (WeakField, {"epsilon": 0.2}),
        (WeakField, {"epsilon": 0.4}),
        (WeakField, {"epsilon": np.nan}),
        (WeakField, {"epsilon": 0.01, "softening": 0.0}),
        (WeakField, {"epsilon": 0.01, "softening": -1.0}),
        (WeakField, {"epsilon": 0.0, "softening": 1e-200}),
        (WeakField, {"epsilon": 0.01, "softening": 1e101}),
        (WeakField, {"epsilon": 0.01, "softening": np.nan}),
        (WeakField, {"epsilon": 0.1, "softening": 0.3}),
        (WeakField, {"epsilon": 0.01, "mass": 1.0}),
    ],
)
def test_constructors_reject_what_the_factory_rejects(cls, params):
    with pytest.raises(ConfigurationError) as direct:
        cls(params)
    with pytest.raises(ConfigurationError) as factory:
        make_spacetime(cls.name, params)
    assert str(direct.value) == str(factory.value)


def test_weak_field_softening_default():
    st = make_spacetime("weak_field", {"epsilon": 0.05})
    # potential stays finite at the coordinate origin
    g = st.metric(np.array([0.0, 0.0, 0.0, 0.0]))
    assert np.all(np.isfinite(g))
    assert g[0] == pytest.approx(-(1.0 - 2.0 * 0.05), rel=1e-12)


# ---------------------------------------------------------------------------
# short-axis reductions: the component forms keep the reductions' bits


def mixed_magnitudes(rng, shape):
    """Normal draws scaled by 10^k, k in [-3, 3], so that the order of a sum
    shows in its last bits; one entry in 200 (at least one) set to inf, -inf
    or nan."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    flat = x.reshape(-1)
    idx = rng.choice(flat.size, size=max(1, flat.size // 200), replace=False)
    flat[idx] = rng.choice([np.inf, -np.inf, np.nan], size=idx.size)
    return x


SHORT_AXIS_SHAPES = [(4,), (7, 4), (100, 50, 4)]


@pytest.mark.parametrize("shape", SHORT_AXIS_SHAPES, ids=str)
@pytest.mark.parametrize(
    "st",
    [Minkowski(), Schwarzschild({"M": 1.0}), WeakField({"epsilon": 0.05})],
    ids=lambda st: st.name,
)
def test_in_chart_matches_np_all(st, shape):
    x = mixed_magnitudes(np.random.default_rng(21), shape)
    if x.ndim > 1:
        # every third point well inside every chart
        x[..., ::3, :] = [0.5, 9.0, 1.2, 0.3]
    with np.errstate(invalid="ignore"):
        expected = np.all(np.isfinite(x), axis=-1)
        if isinstance(st, Schwarzschild):
            r, th = x[..., 1], x[..., 2]
            expected &= (r > st.r_min) & (r < MAX_RADIUS) & (np.sin(th) > AXIS_GUARD)
    assert np.array_equal(st.in_chart(x), expected)


@pytest.mark.parametrize("shape", [(3,), (7, 3), (100, 50, 3)], ids=str)
def test_weak_field_potential_matches_np_sum(shape):
    st = WeakField({"epsilon": 0.05, "softening": 0.7})
    sp = mixed_magnitudes(np.random.default_rng(22), shape)
    with np.errstate(all="ignore"):
        s = np.sqrt(np.sum(sp * sp, axis=-1) + 0.7**2)
        phi, grad = st._potential(sp)
        assert np.array_equal(phi, -1.0 / s, equal_nan=True)
        assert np.array_equal(grad, sp / s[..., None] ** 3, equal_nan=True)


@pytest.mark.parametrize("shape", [(20, 4), (30, 20, 4)], ids=str)
def test_path_action_matches_np_sum(shape):
    st = WeakField({"epsilon": 0.05})
    rng = np.random.default_rng(23)
    xs = mixed_magnitudes(rng, shape)
    taus = np.cumsum(rng.uniform(0.1, 1.0, shape[-2]))
    with np.errstate(all="ignore"):
        dx = xs[..., 1:, :] - xs[..., :-1, :]
        g = st.metric(0.5 * xs[..., 1:, :] + 0.5 * xs[..., :-1, :])
        expected = np.sum(np.sum(g * dx * dx, axis=-1) / np.diff(taus), axis=-1)
        assert np.array_equal(path_action(st, xs, taus), expected, equal_nan=True)


@pytest.mark.parametrize(
    "kind, params, x0",
    [
        ("minkowski", {}, [0.0, 1.0, 2.0, 3.0]),
        ("schwarzschild", {"M": 1.0}, [0.0, 9.0, 1.3, 0.2]),
        ("weak_field", {"epsilon": 0.05}, [0.0, 3.0, 1.0, 0.5]),
    ],
)
def test_norm_drift_matches_np_sum(static_tangent, kind, params, x0):
    st = make_spacetime(kind, params)
    for w in np.random.default_rng(24).uniform(-0.3, 0.3, (8, 3)):
        seg = integrate_geodesic(st, Event(np.array(x0)), static_tangent(st, x0, w), 3.0, n_samples=300)
        norms = np.sum(st.metric(seg.events) * seg.tangents * seg.tangents, axis=-1)
        assert seg.meta["norm_drift"] == float(np.max(np.abs(norms + 1.0)))
