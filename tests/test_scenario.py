"""Scenario text parsing, validation errors, and the end-to-end run."""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import eprgeo.decoherence
import eprgeo.pipeline
import eprgeo.scenario
from eprgeo import parse_scenario, run_scenario
from eprgeo.errors import ConfigurationError
from eprgeo.geodesic import DEFAULT_SAMPLE_STEP, DEFAULT_TOL, samples_for
from eprgeo.scenario import _SCHEMA, MAX_LEG_SAMPLES, MAX_PATHS, Scenario, load_scenario

FULL = """\
# two detectors around a central mass
[spacetime]
kind = schwarzschild
mass = 1.0

[decay]
event = 0, 12, 1.5707963267948966, 0
velocity = 1.1, 0.1, 0, 0

[detector1]
tangent = 1.2, 0.4, 0, 0
tau = 2.0

[detector2]
target = 2.1, 11.5, 1.6, 0.25
tau_hint = 2.5

[measurements]
directions1 = 0,0,1 ; 1,0,0
directions2 = 0,0,2

[decoherence]
sigma = 0.0, 0.4
n_paths = 50
mode = incoherent
seed = 7

[numerics]
gauge = boosted-static
tol = 1e-9
bvp_tol = 1e-8
sample_step = 0.05

[output]
format = csv
path = out.csv
"""

MINIMAL = """\
[spacetime]
kind = minkowski

[decay]
event = 0, 0, 0, 0

[detector1]
tangent = 1.25, 0.75, 0, 0
tau = 1.5

[detector2]
tangent = 1.25, -0.75, 0, 0
tau = 1.5
"""


class TestParseFull:
    def test_every_field(self):
        sc = parse_scenario(FULL)
        assert sc.spacetime_kind == "schwarzschild"
        assert sc.spacetime_params == {"M": 1.0}
        assert np.array_equal(sc.decay_event, [0.0, 12.0, 1.5707963267948966, 0.0])
        assert np.array_equal(sc.decay_velocity, [1.1, 0.1, 0.0, 0.0])
        assert sc.detector1.mode == "ivp"
        assert np.array_equal(sc.detector1.tangent, [1.2, 0.4, 0.0, 0.0])
        assert sc.detector1.tau == 2.0
        assert sc.detector2.mode == "bvp"
        assert np.array_equal(sc.detector2.target, [2.1, 11.5, 1.6, 0.25])
        assert sc.detector2.tau_hint == 2.5
        assert len(sc.directions1) == 2
        assert np.allclose(sc.directions1[1], [1.0, 0.0, 0.0])
        # direction lists are normalized on parse
        assert np.allclose(sc.directions2[0], [0.0, 0.0, 1.0])
        assert sc.decoherence.sigmas == [0.0, 0.4]
        assert sc.decoherence.n_paths == 50
        assert sc.decoherence.mode == "incoherent"
        assert sc.decoherence.seed == 7
        assert sc.gauge == "boosted-static"
        assert sc.tol == 1e-9
        assert sc.bvp_tol == 1e-8
        assert sc.sample_step == 0.05
        assert sc.out_format == "csv"
        assert sc.out_path == "out.csv"

    def test_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.decay_velocity is None
        assert len(sc.directions1) == 1 and np.allclose(sc.directions1[0], [0, 0, 1])
        assert len(sc.directions2) == 1 and np.allclose(sc.directions2[0], [0, 0, 1])
        assert sc.decoherence is None
        assert sc.gauge == "static"
        assert sc.tol == DEFAULT_TOL
        assert sc.bvp_tol == 1e-9
        assert sc.sample_step == DEFAULT_SAMPLE_STEP
        assert sc.out_format == "table"
        assert sc.out_path is None

    def test_identity_is_text_hash(self):
        sc = parse_scenario(FULL)
        digest = hashlib.sha256(FULL.encode()).hexdigest()
        assert sc.sha256 == digest
        assert sc.scenario_id == digest[:12]
        assert parse_scenario(FULL).scenario_id == sc.scenario_id
        # any text change, even a comment, renames the scenario
        assert parse_scenario(FULL + "# trailing\n").scenario_id != sc.scenario_id

    def test_kind_spelling_normalized(self):
        text = MINIMAL.replace("kind = minkowski", "kind = weak-field\nepsilon = 0.01")
        assert parse_scenario(text).spacetime_kind == "weak_field"

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text(MINIMAL)
        assert load_scenario(str(p)).scenario_id == parse_scenario(MINIMAL).scenario_id

    def test_load_rejects_non_utf8(self, tmp_path):
        p = tmp_path / "latin1.cfg"
        p.write_bytes(MINIMAL.replace("minkowski", "minkowski  # café").encode("latin-1"))
        with pytest.raises(ConfigurationError, match="not UTF-8"):
            load_scenario(str(p))


def expect(text: str, pattern: str):
    with pytest.raises(ConfigurationError, match=pattern):
        parse_scenario(text)


class TestStructureErrors:
    def test_unknown_section(self):
        expect("[nonsense]\n", r"line 1: unknown section \[nonsense\]")

    def test_duplicate_section(self):
        expect(
            "[spacetime]\nkind = minkowski\n[spacetime]\n",
            r"line 3: duplicate section",
        )

    def test_unknown_key(self):
        expect("[spacetime]\nkindd = x\n", r"line 2: unknown key 'kindd'")

    def test_duplicate_key(self):
        expect(
            "[spacetime]\nkind = minkowski\nkind = minkowski\n",
            r"line 3: duplicate key",
        )

    def test_entry_before_section(self):
        expect("kind = minkowski\n", r"line 1: entry before any \[section\]")

    def test_not_key_value(self):
        expect("[spacetime]\nkind minkowski\n", r"line 2: expected 'key = value'")

    def test_empty_value(self):
        expect("[spacetime]\nkind =\n", r"line 2: empty value")

    def test_missing_required_section(self):
        text = MINIMAL.replace("[detector2]\ntangent = 1.25, -0.75, 0, 0\ntau = 1.5\n", "")
        expect(text, r"missing required section \[detector2\]")


class TestValueErrors:
    def test_missing_kind(self):
        expect("[spacetime]\nmass = 1\n" + MINIMAL.split("\n", 2)[2], r"missing 'kind'")

    def test_unknown_kind(self):
        expect(MINIMAL.replace("minkowski", "kerr"), r"line 2: \[spacetime\]")

    def test_bad_number(self):
        expect(
            FULL.replace("mass = 1.0", "mass = heavy"),
            r"line 4: mass: expected a number, got 'heavy'",
        )

    def test_wrong_vector_arity(self):
        expect(
            MINIMAL.replace("event = 0, 0, 0, 0", "event = 0, 0, 0"),
            r"line 5: event: expected 4 comma-separated values, got 3",
        )

    def test_decay_event_outside_chart(self):
        expect(
            FULL.replace("event = 0, 12,", "event = 0, 1.5,"),
            r"line 7: decay event outside chart domain",
        )

    def test_target_outside_chart(self):
        expect(
            FULL.replace("target = 2.1, 11.5,", "target = 2.1, 1.5,"),
            r"\[detector2\]: target outside chart domain",
        )

    def test_detector_both_modes(self):
        text = FULL.replace("tau = 2.0", "tau = 2.0\ntarget = 0, 12, 1.6, 0")
        expect(text, r"\[detector1\]: give either tangent/tau or target, not both")

    def test_tangent_without_tau(self):
        text = MINIMAL.replace("tangent = 1.25, 0.75, 0, 0\ntau = 1.5", "tangent = 1, 0, 0, 0")
        expect(text, r"\[detector1\]: tangent and tau are both required")

    def test_negative_tau(self):
        expect(MINIMAL.replace("tau = 1.5", "tau = -1", 1), r"tau must be nonnegative")

    def test_hint_without_target(self):
        text = MINIMAL.replace("tangent = 1.25, 0.75, 0, 0\ntau = 1.5", "tau_hint = 2")
        expect(text, r"\[detector1\]: target is required")

    def test_nonpositive_hint(self):
        expect(FULL.replace("tau_hint = 2.5", "tau_hint = 0"), r"tau_hint must be positive")

    def test_empty_detector_section(self):
        text = MINIMAL.replace("tangent = 1.25, -0.75, 0, 0\ntau = 1.5\n", "")
        expect(text, r"\[detector2\]: missing leg definition")

    def test_zero_direction(self):
        expect(
            FULL.replace("directions2 = 0,0,2", "directions2 = 0,0,0"),
            r"directions2: zero direction vector",
        )

    def test_negative_sigma(self):
        expect(FULL.replace("sigma = 0.0, 0.4", "sigma = 0.1, -0.2"), r"sigma values must be nonnegative")

    def test_missing_sigma(self):
        expect(
            FULL.replace("sigma = 0.0, 0.4\n", ""),
            r"\[decoherence\]: missing 'sigma'",
        )

    def test_bad_mode(self):
        expect(FULL.replace("mode = incoherent", "mode = fuzzy"), r"mode must be coherent or incoherent")

    def test_bad_n_paths(self):
        expect(FULL.replace("n_paths = 50", "n_paths = 0"), r"n_paths must be at least 1")
        expect(FULL.replace("n_paths = 50", "n_paths = many"), r"n_paths: expected an integer")

    def test_bad_gauge(self):
        expect(FULL.replace("gauge = boosted-static", "gauge = comoving"), r"gauge must be one of")

    def test_tol_out_of_range(self):
        expect(FULL.replace("tol = 1e-9", "tol = 0.5"), r"tol must be in \(0, 1e-2\]")

    def test_sample_step_out_of_range(self):
        expect(FULL.replace("sample_step = 0.05", "sample_step = 2"), r"sample_step must be in")

    def test_bad_format(self):
        expect(FULL.replace("format = csv", "format = json"), r"format must be table or csv")


class TestPhysicalValidation:
    """Non-finite, unphysical and over-cap values fail at parse time, with
    their line number, before any leg or bundle is computed."""

    @pytest.mark.parametrize(
        "old, new, pattern",
        [
            ("tangent = 1.25, 0.75", "tangent = 0.5, 1", r"line 8: tangent must be timelike"),
            ("tangent = 1.25, 0.75", "tangent = -1.25, 0.75", r"line 8: tangent .* future-directed"),
            ("0, 0, 0, 0", "0, 0, 0, 0\nvelocity = 0.5, 1, 0, 0", r"line 6: velocity must be timelike"),
            ("tau = 1.5", "tau = nan", r"line 9: tau: expected a finite number, got 'nan'"),
            ("tau = 1.5", "tau = -inf", r"line 9: tau: expected a finite number"),
            ("tangent = 1.25, 0.75", "tangent = 1e200, 0", r"line 8: tangent must be timelike"),
        ],
        ids=["spacelike-tangent", "past-tangent", "spacelike-velocity", "nan-tau", "inf-tau", "overflow"],
    )
    def test_leg_and_velocity(self, old, new, pattern):
        expect(MINIMAL.replace(old, new, 1), pattern)

    def test_non_finite_sigma(self):
        expect(FULL.replace("sigma = 0.0, 0.4", "sigma = 0.0, nan"), r"line 23: sigma: expected a finite")

    def test_negative_seed(self):
        # numpy refuses negative seeds, which would fail mid-run
        expect(FULL.replace("seed = 7", "seed = -3"), r"line 26: seed must be nonnegative")

    def test_huge_integers_and_directions(self):
        seed = "9" * 400
        assert parse_scenario(FULL.replace("seed = 7", f"seed = {seed}")).decoherence.seed == int(seed)
        expect(FULL.replace("n_paths = 50", f"n_paths = {seed}"), r"line 24: n_paths must be at least 1")
        expect(
            FULL.replace("directions2 = 0,0,2", "directions2 = 1e200, 1e200, 0"),
            r"directions2: direction vector too long",
        )

    def test_caps_reject_before_integrating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parse_scenario must not integrate")

        monkeypatch.setattr(eprgeo.scenario, "integrate_geodesic", refuse)
        monkeypatch.setattr(eprgeo.scenario, "solve_bvp", refuse)
        expect(MINIMAL.replace("tau = 1.5", "tau = 1e9", 1), r"line 9: tau / sample_step")
        expect(
            FULL.replace("n_paths = 50", f"n_paths = {MAX_PATHS + 1}"),
            rf"line 24: n_paths must be at least 1 and at most {MAX_PATHS}",
        )

    def test_caps_are_inclusive(self):
        coarse = MINIMAL + "[numerics]\nsample_step = 1\n"
        tau = MAX_LEG_SAMPLES - 1
        assert samples_for(tau, 1.0) == MAX_LEG_SAMPLES
        assert parse_scenario(coarse.replace("tau = 1.5", f"tau = {tau}", 1)).detector1.tau == tau
        expect(coarse.replace("tau = 1.5", f"tau = {tau + 1}", 1), r"line 9: tau / sample_step")
        text = FULL.replace("n_paths = 50", f"n_paths = {MAX_PATHS}")
        assert parse_scenario(text).decoherence.n_paths == MAX_PATHS


# Values each key's own parser accepts, some of which a cross-key check
# rejects (spacelike, past-directed, off-chart, over the sample cap); a
# KeyError here means the schema grew a key this table does not know.
WELL_FORMED = {
    "kind": ["minkowski", "schwarzschild", "weak-field"],
    "mass": ["1.0", "0"],
    "epsilon": ["0.02", "-0.05"],
    "softening": ["1", "2.5"],
    "event": ["0, 12, 1.5707963267948966, 0", "0, 3, 1, -0.5", "0, 1.5, 1.6, 0"],
    "velocity": ["1.1, 0.1, 0, 0", "1, 0, 0, 0", "0.5, 1, 0, 0", "-1, 0, 0, 0"],
    "tangent": ["1.25, 0.75, 0, 0", "1.2, 0.4, 0, 0", "0.5, 1, 0, 0", "-1.25, 0.75, 0, 0"],
    "tau": ["1.5", "0", "1e9"],
    "target": ["2.1, 11.5, 1.6, 0.25", "2.5, 3.2, 1, -0.4", "2.1, 1.5, 1.6, 0"],
    "tau_hint": ["2.5"],
    "directions1": ["0,0,1 ; 1,0,0", "0, 1, 1"],
    "directions2": ["0,0,2"],
    "sigma": ["0.0, 0.4", "0"],
    "n_paths": ["50", str(MAX_PATHS)],
    "mode": ["coherent", "incoherent"],
    "seed": ["7"],
    "gauge": ["static", "boosted-static"],
    "tol": ["1e-9"],
    "bvp_tol": ["1e-8"],
    "sample_step": ["0.05", "1"],
    "format": ["csv", "table"],
    "path": ["out.csv"],
}
JUNK = [
    "nan", "inf", "-inf", "1e308", "-1e308", "1e400", "-1", "0", "1e9", "10001",
    "heavy", "1, 2", "0, 0, 0", "nan, 0, 0, 0", "inf, 1, 0, 0", "1e308, 1e308, 1e308, 1e308",
    "1e200, 0, 0, 0", "-1, 0, 0, 0", "0, 1, 0, 0", ";", ",", "1,,2", "\u00e9", "9" * 400,
]
# Key subsets that make a leg or a spacetime consistent often enough to
# reach the cross-key checks; None keeps every key of the section.
SHAPES = {
    "detector1": [("tangent", "tau"), ("target", "tau_hint"), ("target",), None],
    "spacetime": [("kind",), ("kind", "mass"), ("kind", "epsilon", "softening"), None],
}
SHAPES["detector2"] = SHAPES["detector1"]


@hst.composite
def scenario_texts(draw):
    """Sections in any order, some left out; each key well formed, or at a
    drawn rate dropped, duplicated or given a junk, non-finite, huge or empty
    value."""
    # sampled_from favours early elements, so the benign choice comes first
    actions = ["well formed"] * draw(hst.sampled_from([96, 30, 6])) + ["drop", "duplicate", "junk"]
    lines = []
    for section in draw(hst.permutations(list(_SCHEMA))):
        if draw(hst.sampled_from(range(16))) == 15:
            continue
        lines.append(f"[{section}]")
        keys = draw(hst.sampled_from(SHAPES.get(section, [None]))) or _SCHEMA[section]
        for key in keys:
            action = draw(hst.sampled_from(actions))
            pool = JUNK + [""] if action == "junk" else WELL_FORMED[key]
            copies = {"drop": 0, "duplicate": 2}.get(action, 1)
            lines += [f"{key} = {draw(hst.sampled_from(pool))}" for _ in range(copies)]
    return "\n".join(lines) + "\n"


class TestSchemaProperty:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(scenario_texts())
    def test_parse_returns_scenario_or_configuration_error(self, text):
        try:
            sc = parse_scenario(text)
        except ConfigurationError:
            return
        assert isinstance(sc, Scenario)
        legs = [vars(sc.detector1), vars(sc.detector2)]
        numbers = [v for leg in legs for k, v in leg.items() if k != "mode" and v is not None]
        numbers += [sc.decay_event, sc.tol, sc.bvp_tol, sc.sample_step, *sc.spacetime_params.values()]
        assert all(np.all(np.isfinite(v)) for v in numbers)
        for d in sc.directions1 + sc.directions2:
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)


class TestRun:
    def test_flat_pair_report(self):
        report = run_scenario(parse_scenario(MINIMAL))
        assert not report.has_failures
        assert report.diagnostics_ok
        rows = {r.quantity: r for r in report.rows}
        assert rows["E_matched"].value == pytest.approx(-1.0, abs=1e-12)
        assert rows["chsh_matched"].value == pytest.approx(-2.0 * np.sqrt(2.0), abs=1e-12)
        assert rows["diag_norm_drift"].flag == "ok"

    def test_unreachable_target_is_reported_not_raised(self):
        text = MINIMAL.replace(
            "[detector2]\ntangent = 1.25, -0.75, 0, 0\ntau = 1.5",
            "[detector2]\ntarget = 0.5, 3.0, 0, 0",
        )
        report = run_scenario(parse_scenario(text))
        assert report.has_failures
        quantities = [r.quantity for r in report.rows]
        assert "geodesic2_endpoint_residual" in quantities
        assert not any(q == "E_matched" for q in quantities)

    def test_flat_dephasing_control_with_sigma_zero_first(self):
        # fidelities of 1 differ in the last ulp between sigmas while both
        # standard errors are ~0, so the monotonicity flag needs round-off slack
        text = """\
[spacetime]
kind = minkowski
[decay]
event = 0.0, 1.7394588311170818, -1.2831551735441704, 1.1815150594262338
[detector1]
tangent = 1.07737276695741, 0.10767064924287113, 0.02518965664601635, -0.3853629347396297
tau = 1.0
[detector2]
tangent = 1.0636553273413119, 0.2841572585859892, 0.2246827712696919, -0.01161723155574415
tau = 1.0
[measurements]
directions1 = -0.29958406708783974, 0.6660805122371437, -0.6830711075466545
[decoherence]
sigma = 0.0, 0.15336944854184484
n_paths = 100
mode = coherent
seed = 639675700
"""
        report = run_scenario(parse_scenario(text))
        fids = [r for r in report.rows if r.quantity == "decoherence_fidelity"]
        assert len(fids) == 2
        assert all(r.value == pytest.approx(1.0, abs=1e-12) for r in fids)
        assert [r.flag for r in fids] == ["ok", "ok"]
        assert not report.has_failures

    def test_bundle_channel_runs_once_per_sigma(self, monkeypatch):
        original = eprgeo.decoherence.polygon_spinor_transport
        bundle_calls = []

        def counting(st, xs, gauge="static"):
            if np.ndim(xs) > 2:  # a batch of bundle paths, not the base polygon
                bundle_calls.append(np.shape(xs)[0])
            return original(st, xs, gauge)

        monkeypatch.setattr(eprgeo.decoherence, "polygon_spinor_transport", counting)
        text = MINIMAL + "[decoherence]\nsigma = 0.0, 0.3\nn_paths = 6\nseed = 3\n"
        report = run_scenario(parse_scenario(text))
        assert not report.has_failures
        # each sigma > 0 bundle of 6 paths is transported exactly once; a
        # sigma = 0 bundle reuses its base polygon's map for every path
        assert bundle_calls == [6, 6]

    def test_pair_frames_are_built_once_for_all_sigmas(self, monkeypatch):
        calls = dict.fromkeys(("rest_conjugation_factors", "boosted_tetrad"), 0)
        modules = [m for n, m in sys.modules.items() if n == "eprgeo" or n.startswith("eprgeo.")]
        for name in calls:
            original = getattr(eprgeo.pipeline, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            # every module binding, so a local `from .pipeline import ...` counts too
            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        text = MINIMAL + "[decoherence]\nsigma = 0.0, 0.2, 0.4\nn_paths = 6\nseed = 3\n"
        report = run_scenario(parse_scenario(text))
        assert not report.has_failures
        assert len([r for r in report.rows if r.quantity == "decoherence_fidelity"]) == 3
        # one reference tetrad and one factor pair per leg, shared by every sigma
        assert calls == {"rest_conjugation_factors": 2, "boosted_tetrad": 1}
