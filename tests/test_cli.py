"""End-to-end CLI runs: formats, output files, determinism, exit codes."""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

import eprgeo.cli
import eprgeo.scenario
from eprgeo import geodesic
from eprgeo.cli import main
from eprgeo.errors import DomainError, IntegrationError, UsageError
from eprgeo.report import CSV_COLUMNS
from eprgeo.scenario import MAX_PATHS

DEMO_SCENARIOS = sorted((Path(__file__).parent.parent / "demos" / "scenarios").glob("*.cfg"))
GOLDEN = Path(__file__).parent / "golden"

FLAT = """\
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

[measurements]
directions1 = 0,0,1
directions2 = 0,0,1 ; 1,0,0
"""


@pytest.fixture
def flat_scenario(tmp_path):
    p = tmp_path / "flat.cfg"
    p.write_text(FLAT)
    return p


def test_table_to_stdout(flat_scenario, capsys):
    assert main(["run", str(flat_scenario)]) == 0
    out = capsys.readouterr().out
    assert "E_matched" in out
    assert "chsh_matched" in out
    assert "scenario" in out


def test_csv_format_flag(flat_scenario, capsys):
    assert main(["run", str(flat_scenario), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_COLUMNS
    by_quantity = {r[1]: r for r in rows[1:]}
    assert by_quantity["tool_version"][4] == "0.1.0"
    assert len(by_quantity["scenario_sha256"][4]) == 64
    assert float(by_quantity["E_matched"][4]) == pytest.approx(-1.0, abs=1e-12)
    assert by_quantity["E_matched"][5] == "ok"


def test_out_file_and_byte_identical_reruns(flat_scenario, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", str(flat_scenario), "--format", "csv", "--out", str(a)]) == 0
    assert main(["run", str(flat_scenario), "--format", "csv", "--out", str(b)]) == 0
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    # RFC 4180 line endings, unmangled by the file writer
    assert blob.count(b"\r\n") == blob.count(b"\n")


def test_scenario_output_section_is_honored(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    text = FLAT + f"\n[output]\nformat = csv\npath = {out_file}\n"
    p = tmp_path / "with_output.cfg"
    p.write_text(text)
    assert main(["run", str(p)]) == 0
    assert capsys.readouterr().out == ""
    with open(out_file, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS


def test_format_flag_overrides_scenario(tmp_path, capsys):
    p = tmp_path / "csvfmt.cfg"
    p.write_text(FLAT + "\n[output]\nformat = csv\n")
    assert main(["run", str(p), "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "," not in out.splitlines()[0]
    assert "quantity" in out


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read scenario" in capsys.readouterr().err


def test_invalid_scenario_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(FLAT.replace("kind = minkowski", "kind = kerr"))
    assert main(["run", str(p)]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "line 2" in err


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.mark.parametrize(
    "old, new",
    [
        ("tangent = 1.25, 0.75", "tangent = 0.5, 1"),
        ("tangent = 1.25, 0.75", "tangent = -1.25, 0.75"),
        ("event = 0, 0, 0, 0", "event = 0, 0, 0, 0\nvelocity = 0.5, 1, 0, 0"),
        ("tau = 1.5", "tau = nan"),
        ("[measurements]", "[decoherence]\nsigma = 0, nan\n[measurements]"),
        ("tau = 1.5", "tau = 1e9"),
        ("[measurements]", f"[decoherence]\nsigma = 0\nn_paths = {MAX_PATHS + 1}\n[measurements]"),
        ("[measurements]", "[decoherence]\nsigma = 0, 0.1\nseed = -3\n[measurements]"),
        ("kind = minkowski", "kind = weak_field\nepsilon = 0.01\nsoftening = 1e200"),
        ("kind = minkowski", "kind = weak_field\nepsilon = 0.01\nsoftening = 1e103"),
        ("kind = minkowski", "kind = weak_field\nepsilon = 0\nsoftening = 1e-200"),
        (
            "kind = minkowski\n\n[decay]\nevent = 0, 0, 0, 0",
            "kind = schwarzschild\nmass = 1.0\n\n[decay]\nevent = 0, 1e160, 1.5, 0",
        ),
        (
            "kind = minkowski\n\n[decay]\nevent = 0, 0, 0, 0",
            "kind = schwarzschild\nmass = 0\n\n[decay]\nevent = 0, 1e-200, 1.5, 0",
        ),
        (
            "kind = minkowski\n\n[decay]\nevent = 0, 0, 0, 0",
            "kind = schwarzschild\nmass = 1e-300\n\n[decay]\nevent = 0, 1e-290, 1.5, 0",
        ),
        ("[detector2]\ntangent = 1.25, -0.75, 0, 0\ntau = 1.5", "[detector2]\ntarget = 1e300, 1, 0, 0"),
        (
            "[detector2]\ntangent = 1.25, -0.75, 0, 0\ntau = 1.5",
            "[detector2]\ntarget = 1.875, -1.125, 0, 0\ntau_hint = 1e300",
        ),
    ],
    ids=[
        "spacelike-tangent",
        "past-tangent",
        "spacelike-velocity",
        "nan-tau",
        "nan-sigma",
        "tau-over-sample-cap",
        "n_paths-over-cap",
        "negative-seed",
        "softening-1e200",
        "softening-1e103",
        "softening-1e-200",
        "schwarzschild-event-1e160",
        "schwarzschild-event-1e-200",
        "schwarzschild-mass-1e-300-event-1e-290",
        "target-1e300",
        "tau_hint-1e300",
    ],
)
def test_rejected_scenario_exits_1_with_one_line(tmp_path, capsys, old, new):
    p = tmp_path / "bad.cfg"
    text = FLAT.replace(old, new, 1)
    assert text != FLAT
    p.write_text(text)
    assert main(["run", str(p)]) == 1
    line = one_error_line(capsys)
    assert "line " in line
    if "event = 0, 1e" in new:
        assert "decay event outside chart domain" in line
    if "softening = 1e-200" in new:
        assert "softening must be in [1e-100, 1e+100]" in line
    if "target = 1e300" in new:
        assert "[detector2]: target too far" in line
    if "tau_hint = 1e300" in new:
        assert "tau_hint / sample_step: over" in line


def test_largest_softening_runs_without_warnings(tmp_path, capsys):
    p = tmp_path / "soft.cfg"
    p.write_text(
        FLAT.replace("kind = minkowski", "kind = weak_field\nepsilon = 0.01\nsoftening = 1e100")
    )
    assert main(["run", str(p), "--format", "csv"]) == 0
    assert capsys.readouterr().err == ""


def test_non_utf8_scenario_exits_1(tmp_path, capsys):
    p = tmp_path / "latin1.cfg"
    p.write_bytes(FLAT.replace("minkowski", "minkowski  # café").encode("latin-1"))
    assert main(["run", str(p)]) == 1
    assert "not UTF-8" in one_error_line(capsys)


@pytest.mark.parametrize("via", ["--out", "[output] path"])
def test_unwritable_report_path_exits_1(tmp_path, capsys, via):
    missing = tmp_path / "no_such_dir" / "r.csv"
    p = tmp_path / "flat.cfg"
    if via == "--out":
        p.write_text(FLAT)
        argv = ["run", str(p), "--out", str(missing)]
    else:
        p.write_text(FLAT + f"\n[output]\npath = {missing}\n")
        argv = ["run", str(p)]
    assert main(argv) == 1
    assert "cannot write report" in one_error_line(capsys)


def test_numerical_failure_exits_2(tmp_path, capsys):
    p = tmp_path / "fail.cfg"
    p.write_text(
        FLAT.replace(
            "[detector2]\ntangent = 1.25, -0.75, 0, 0\ntau = 1.5",
            "[detector2]\ntarget = 0.5, 3.0, 0, 0",  # spacelike separation
        )
    )
    assert main(["run", str(p), "--format", "csv"]) == 2
    out = capsys.readouterr().out
    assert "no timelike geodesic" in out


def test_failed_reintegration_exits_2_with_a_failure_row(tmp_path, capsys, monkeypatch):
    def failing_dense_grid(*args, **kwargs):
        raise IntegrationError("4-velocity norm drifted by 2.000e-09; tighten tol")

    # only solve_bvp's re-integration is patched; the IVP leg runs as usual
    monkeypatch.setattr(geodesic, "integrate_geodesic", failing_dense_grid)
    p = tmp_path / "bvp.cfg"
    p.write_text(
        FLAT.replace(
            "[detector2]\ntangent = 1.25, -0.75, 0, 0\ntau = 1.5",
            "[detector2]\ntarget = 1.875, -1.125, 0, 0",
        )
    )
    assert main(["run", str(p), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = list(csv.reader(io.StringIO(captured.out)))
    failures = [r for r in rows[1:] if r[1] == "failure"]
    assert len(failures) == 1
    assert "re-integration" in failures[0][4] and "drifted" in failures[0][4]


def test_usage_error_from_the_run_exits_1_with_one_line(flat_scenario, capsys, monkeypatch):
    def raising(sc):
        raise UsageError("mismatched events")

    monkeypatch.setattr(eprgeo.cli, "run_scenario", raising)
    assert main(["run", str(flat_scenario)]) == 1
    assert "mismatched events" in one_error_line(capsys)


def test_domain_error_from_the_run_exits_2_with_a_failure_row(flat_scenario, capsys, monkeypatch):
    def raising(*args, **kwargs):
        raise DomainError("event outside the chart")

    monkeypatch.setattr(eprgeo.scenario, "pair_transport", raising)
    assert main(["run", str(flat_scenario), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = list(csv.reader(io.StringIO(captured.out)))
    # the legs were built before the run stopped, so their rows stay
    assert "geodesic2_proper_time" in [r[1] for r in rows]
    failures = [r for r in rows[1:] if r[1] == "failure"]
    assert len(failures) == 1 and "event outside the chart" in failures[0][4]


def test_leg_rows_carry_integrator_counters(flat_scenario, tmp_path, capsys):
    assert main(["run", str(flat_scenario), "--format", "csv"]) == 0
    quantities = [r[1] for r in csv.reader(io.StringIO(capsys.readouterr().out))]
    for label in ("geodesic1", "geodesic2"):
        at = quantities.index(f"{label}_proper_time")
        assert quantities[at + 1 : at + 4] == [
            f"{label}_integrator_steps",
            f"{label}_rejected_steps",
            f"{label}_rhs_evals",
        ]
    # a boundary-value leg reports its shooting work before the leg rows
    p = tmp_path / "bvp.cfg"
    p.write_text(
        FLAT.replace(
            "[detector2]\ntangent = 1.25, -0.75, 0, 0\ntau = 1.5",
            "[detector2]\ntarget = 1.875, -1.125, 0, 0",
        )
    )
    assert main(["run", str(p), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    quantities = [r[1] for r in rows]
    at = quantities.index("geodesic2_endpoint_residual")
    assert quantities[at + 1 : at + 10] == [
        "geodesic2_shooting_iterations",
        "geodesic2_line_search_halvings",
        "geodesic2_trial_integrations",
        "geodesic2_jacobian_rebuilds",
        "geodesic2_trial_rhs_evals",
        "geodesic2_proper_time",
        "geodesic2_integrator_steps",
        "geodesic2_rejected_steps",
        "geodesic2_rhs_evals",
    ]
    assert int(rows[at + 2][4]) >= 0
    assert int(rows[at + 3][4]) >= 1
    assert int(rows[at + 5][4]) > 0
    assert "geodesic1_line_search_halvings" not in quantities


@pytest.mark.parametrize("cfg", DEMO_SCENARIOS, ids=[p.stem for p in DEMO_SCENARIOS])
def test_demo_scenarios_run_without_warnings(cfg, tmp_path, capsys):
    # --strict exits 3 on any tolerance flag, so a flag flipped by a
    # last-digit change in a demo scenario fails here
    out = str(tmp_path / "r.csv")
    assert main(["run", str(cfg), "--strict", "--format", "csv", "--out", out]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("cfg", DEMO_SCENARIOS, ids=[p.stem for p in DEMO_SCENARIOS])
def test_demo_scenarios_match_golden_csv(cfg, capsys):
    """Each demo scenario's CSV report, byte for byte, against tests/golden.

    Any change in a value's last digit fails, so a golden file can never
    go stale unnoticed.  After a change that is meant to move the numbers,
    regenerate the files from the repository root with

        for f in demos/scenarios/*.cfg; do PYTHONPATH=src python -m eprgeo.cli run "$f" --format csv > "tests/golden/$(basename "$f" .cfg).csv"; done

    and name in the change log every row that moved.
    """
    assert main(["run", str(cfg), "--format", "csv"]) == 0
    # decoded, so a mismatch shows as a line diff; equal text is equal bytes
    assert capsys.readouterr().out == (GOLDEN / f"{cfg.stem}.csv").read_bytes().decode("utf-8")


def test_far_boundary_value_leg_exits_2_without_allocating(tmp_path, capsys):
    # the leg's proper time (1e7) would need 5e8 samples
    p = tmp_path / "far.cfg"
    p.write_text(
        FLAT.replace(
            "[detector2]\ntangent = 1.25, -0.75, 0, 0\ntau = 1.5",
            "[detector2]\ntarget = 1e7, 0, 0, 0",
        )
    )
    assert main(["run", str(p), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    rows = list(csv.reader(io.StringIO(captured.out)))
    failures = [r for r in rows[1:] if r[1] == "failure"]
    assert len(failures) == 1
    assert "samples per leg" in failures[0][4]


def test_tiny_legs_run(tmp_path, capsys):
    p = tmp_path / "tiny.cfg"
    p.write_text(FLAT.replace("tau = 1.5", "tau = 1e-30"))
    assert main(["run", str(p), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert "failure" not in captured.out
    assert "geodesic2_proper_time,,,1e-30," in captured.out


def test_huge_decay_coordinates_run_without_warnings(tmp_path, capsys):
    # in the chart, but the sum of two neighbouring samples or polygon knots
    # overflows, and so does the weak-field |x|^2
    p = tmp_path / "huge.cfg"
    deco = "\n[decoherence]\nsigma = 0, 0.3\nn_paths = 20\nseed = 5\n"
    weak = FLAT.replace("kind = minkowski", "kind = weak_field\nepsilon = 0.01")
    for text, event in ((FLAT + deco, "1e308"), (weak, "1e160"), (weak, "1e308")):
        p.write_text(text.replace("event = 0, 0, 0, 0", f"event = 0, {event}, 0, 0"))
        assert main(["run", str(p), "--format", "csv"]) == 0, event
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "kind", ["minkowski", "weak_field\nepsilon = 0.01"], ids=["minkowski", "weak_field"]
)
def test_huge_coherent_sigma_exits_2_with_one_failure_row(tmp_path, capsys, kind):
    # |dx|^2 of a sigma = 1e300 path overflows the coherent path action
    p = tmp_path / "wide.cfg"
    deco = "\n[decoherence]\nsigma = 0, 1e300\nn_paths = 20\nseed = 5\n"
    p.write_text(FLAT.replace("kind = minkowski", f"kind = {kind}") + deco)
    assert main(["run", str(p), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = list(csv.reader(io.StringIO(captured.out)))
    failures = [r[4] for r in rows[1:] if r[1] == "failure"]
    assert failures == ["decoherence: sigma=1e+300: path action is not finite; reduce sigma"]


def test_strict_diagnostics_exit_3(tmp_path, capsys):
    # a very coarse sample step degrades the route-agreement diagnostic
    # without failing the run outright
    text = """\
[spacetime]
kind = schwarzschild
mass = 1.0

[decay]
event = 0, 8, 1.5707963267948966, 0

[detector1]
tangent = 1.285, 0.7, 0, 0.05
tau = 2.5

[detector2]
tangent = 1.304, -0.6, 0.05, -0.04
tau = 2.5

[numerics]
sample_step = 0.8
"""
    p = tmp_path / "coarse.cfg"
    p.write_text(text)
    assert main(["run", str(p), "--strict"]) == 3
    capsys.readouterr()
    assert main(["run", str(p)]) == 0


def test_table_values_match_csv_values(flat_scenario, capsys):
    assert main(["run", str(flat_scenario), "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(csv_out)))
    e_csv = next(float(r[4]) for r in rows[1:] if r[1] == "E" and r[2] == "0" and r[3] == "1")
    # second detector direction is x while the first measures z: uncorrelated
    assert e_csv == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(e_csv)
