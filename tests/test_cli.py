"""CLI surface: exit codes, emitted files, determinism."""

import functools
import json

import numpy as np
import pytest

import zsscatter as zs
from zsscatter import cli
from zsscatter.cli import main


def run(args):
    return main(args)


def test_presets_command(capsys):
    assert run(["presets"]) == 0
    out = capsys.readouterr().out.split()
    for name in ("zero", "sech_scaled", "sech_amplitude", "example3",
                 "example4"):
        assert name in out


def test_missing_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 1


def test_bad_potential_exits_1():
    with pytest.raises(SystemExit) as exc:
        run(["direct", "--potential", "bogus"])
    assert exc.value.code == 1


def test_even_grid_points_exit_1():
    with pytest.raises(SystemExit) as exc:
        run(["direct", "--potential", "preset:zero", "--grid-points", "400"])
    assert exc.value.code == 1


@pytest.mark.parametrize("option,value", [
    ("--grid-points", "3"), ("--grid-points", "1"), ("--half-width", "0"),
    ("--half-width", "inf"), ("--half-width", "nan"),
    ("--rho-max", "-3"), ("--rho-max", "0"), ("--rho-max", "inf"), ("--rho-max", "nan"),
    ("--rho-count", "1"),
    ("--n-terms", "-2"), ("--n-terms", "251"), ("--n-terms", "2.5"),
])
def test_bad_direct_options_exit_1(option, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["direct", "--potential", "preset:zero", "--grid-points", "101", option, value,
             "--output-dir", str(tmp_path)])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("option,value", [
    ("--inverse-n", "0"), ("--inverse-n", "abc"), ("--x-points", "3"), ("--collocation", "0"),
    ("--x-half-width", "inf"), ("--x-half-width", "nan"), ("--x-half-width", "0"),
])
def test_bad_inverse_options_exit_1(option, value, tmp_path, capsys):
    for command in (["inverse", "--scattering", str(tmp_path / "absent.json")],
                    ["roundtrip", "--potential", "preset:zero", "--grid-points", "101"]):
        with pytest.raises(SystemExit) as exc:
            run(command + [option, value, "--output-dir", str(tmp_path)])
        assert exc.value.code == 1
        assert "error: invalid inverse option" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    code = run(["direct", "--potential", "file:/does/not/exist.csv",
                "--output-dir", str(tmp_path)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FileNotFoundError:")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_csv_sample_exits_2(tmp_path, capsys, value):
    x = np.linspace(-3.0, 3.0, 61)
    q = [f"{v:.6f}" for v in np.exp(-x * x)]
    q[30] = value
    path = tmp_path / "q.csv"
    path.write_text("x,q\n" + "".join(f"{a:.2f},{b}\n" for a, b in zip(x, q)))
    code = run(["direct", "--potential", f"file:{path}", "--half-width", "2",
                "--grid-points", "401", "--rho-count", "200",
                "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("NonRealPotential: ")
    assert err.count("\n") == 1


def test_underdetermined_inverse_exits_2(tmp_path, capsys):
    # 40 rho points cannot fit the 101 degrees of the largest candidate N
    code = run(["roundtrip", "--potential", "preset:zero", "--grid-points", "401",
                "--half-width", "5", "--rho-count", "40", "--x-points", "11",
                "--output-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("UnderdeterminedSystem: system must be overdetermined")
    assert err.count("\n") == 1


def test_direct_zero(tmp_path, capsys):
    code = run(["direct", "--potential", "preset:zero",
                "--grid-points", "401", "--rho-count", "200",
                "--output-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "scattering.json").read_text())
    assert payload["eigenvalues"] == []
    assert max(abs(v - 1.0) for v in payload["a_re"]) < 1e-12
    assert (tmp_path / "scattering.csv").exists()
    out = capsys.readouterr().out
    assert "unitarity defect" in out


def test_direct_deterministic(tmp_path):
    args = ["direct", "--potential", "preset:sech_scaled", "--mu", "1.5",
            "--grid-points", "801", "--rho-count", "200"]
    assert run(args + ["--output-dir", str(tmp_path / "one")]) == 0
    assert run(args + ["--output-dir", str(tmp_path / "two")]) == 0
    first = (tmp_path / "one" / "scattering.json").read_bytes()
    second = (tmp_path / "two" / "scattering.json").read_bytes()
    assert first == second


def test_direct_example1_eigenvalue(tmp_path, capsys):
    code = run(["direct", "--potential", "preset:sech_scaled",
                "--mu", "3.14159265358979",
                "--output-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "scattering.json").read_text())
    assert len(payload["eigenvalues"]) == 1
    ev = payload["eigenvalues"][0]
    assert abs(complex(ev["re"], ev["im"]) - 1.5707963j) < 1e-6


def test_validate_roundtrip_through_files(tmp_path, capsys):
    out_dir = tmp_path / "direct"
    assert run(["direct", "--potential", "preset:zero",
                "--grid-points", "401", "--rho-count", "200",
                "--output-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert run(["validate", "--scattering",
                str(out_dir / "scattering.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unitarity_defect"] < 1e-12


def test_inverse_trivial(tmp_path):
    out_dir = tmp_path / "direct"
    assert run(["direct", "--potential", "preset:zero",
                "--grid-points", "401", "--rho-count", "200",
                "--output-dir", str(out_dir)]) == 0
    inv_dir = tmp_path / "inverse"
    assert run(["inverse", "--scattering", str(out_dir / "scattering.json"),
                "--x-points", "41", "--collocation", "150",
                "--inverse-n", "5",
                "--output-dir", str(inv_dir)]) == 0
    rows = (inv_dir / "recovered.csv").read_text().splitlines()
    assert rows[0] == "x,q_recovered,q_from_a0"
    assert len(rows) == 1 + 41
    values = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.max(np.abs(values)) < 1e-12
    summary = json.loads((inv_dir / "inverse_summary.json").read_text())
    assert summary["chosen_N"] == 5
    # the solve nodes: Chebyshev points, at most --x-points of them
    nodes = (inv_dir / "sweep_nodes.csv").read_text().splitlines()
    assert nodes[0] == "x,residual,condition"
    x = np.array([float(r.split(",")[0]) for r in nodes[1:]])
    assert x.size == summary["x_nodes"] <= 41
    assert np.array_equal(x, zs.numerics.chebyshev_points(8.0, x.size - 1))
    # q = 0 is resolved at once, and its eigenvalue rows are empty
    assert summary["x_resolved"] is True
    assert summary["constraint_residual"] == 0.0


def test_roundtrip_small(tmp_path, capsys):
    code = run(["roundtrip", "--potential", "preset:sech_scaled",
                "--mu", "3.14159265358979",
                "--grid-points", "2001", "--x-points", "201",
                "--collocation", "400", "--inverse-n", "20",
                "--output-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "roundtrip.json").read_text())
    assert report["chosen_N"] == 20
    assert report["max_abs_error"] < 0.05
    assert "max abs error" in capsys.readouterr().out


def test_unresolved_sweep_warns(tmp_path, capsys):
    # 11 output points allow 9 Chebyshev nodes, too few to resolve b0(x);
    # their quotients disagree by far more than 1 %, so the sweep solves
    # one level more, 17 nodes, and still stops unresolved
    code = run(["roundtrip", "--potential", "preset:sech_scaled",
                "--mu", "3.14159265358979", "--grid-points", "2001",
                "--x-points", "11", "--collocation", "400", "--inverse-n", "20",
                "--output-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "inverse_summary.json").read_text())
    assert summary["x_resolved"] is False and summary["x_nodes"] == 17
    lines = [line for line in capsys.readouterr().err.splitlines() if "x-sweep" in line]
    assert lines == [f"warning: the x-sweep stopped at 17 nodes unresolved (Chebyshev tail "
                     f"at {summary['chop_level']:.1e}); raise --x-points"]


def test_rank_truncated_sweep_warns(tmp_path, capsys):
    # N = 90 on pi sech(pi x) is past the rank tolerance on [-4.8, 4.8]:
    # some nodes' reduced solves drop pivots, which the sweep reports and
    # the command line names
    code = run(["roundtrip", "--potential", "preset:sech_scaled",
                "--mu", "3.14159265358979", "--grid-points", "16001",
                "--x-half-width", "4.8", "--x-points", "5", "--collocation", "400",
                "--inverse-n", "90", "--output-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "inverse_summary.json").read_text())
    truncated = summary["sweep_rank_truncated"]
    assert 0 < truncated <= summary["x_nodes"] and summary["max_condition"] > 1e12
    lines = [line for line in capsys.readouterr().err.splitlines() if "dropped rank" in line]
    assert lines == [f"warning: {truncated} of {summary['x_nodes']} sweep nodes dropped rank "
                     f"(condition up to {summary['max_condition']:.1e}); lower --inverse-n"]


def test_resolved_sweep_does_not_warn(tmp_path, capsys):
    out_dir = tmp_path / "direct"
    assert run(["direct", "--potential", "preset:zero", "--grid-points", "401",
                "--rho-count", "200", "--output-dir", str(out_dir)]) == 0
    assert run(["inverse", "--scattering", str(out_dir / "scattering.json"),
                "--x-points", "41", "--collocation", "150", "--inverse-n", "5",
                "--output-dir", str(tmp_path / "inverse")]) == 0
    err = capsys.readouterr().err
    assert "x-sweep" not in err and "dropped rank" not in err


def test_inverse_summary_reports_collocation_count(tmp_path):
    out_dir = tmp_path / "direct"
    assert run(["direct", "--potential", "preset:zero",
                "--grid-points", "401", "--rho-count", "200",
                "--output-dir", str(out_dir)]) == 0
    inv_dir = tmp_path / "inverse"
    assert run(["inverse", "--scattering", str(out_dir / "scattering.json"),
                "--x-points", "21", "--collocation", "150",
                "--inverse-n", "5", "--output-dir", str(inv_dir)]) == 0
    summary = json.loads((inv_dir / "inverse_summary.json").read_text())
    # the sweep reads the chosen points of one half line of the 200-point grid
    assert 0 < summary["collocation_count"] <= 100
    # a fixed N runs no selection
    assert summary["delta_table"] == {} and summary["selection_skipped"] == []
    assert summary["sweep_rank_truncated"] == 0
    assert {"x_nodes", "x_resolved", "chop_level", "constraint_residual"} <= summary.keys()
    # q = 0: a = 1 and b = 0 are exactly even
    assert summary["parity_defect"] == 0.0


def test_inverse_summary_parity_defect_is_null_on_a_lopsided_grid(tmp_path, capsys):
    out_dir = tmp_path / "direct"
    assert run(["direct", "--potential", "preset:zero", "--grid-points", "401",
                "--rho-count", "200", "--output-dir", str(out_dir)]) == 0
    path = out_dir / "scattering.json"
    payload = json.loads(path.read_text())
    for key in ("rho", "a_re", "a_im", "b_re", "b_im"):
        payload[key] = payload[key][:150]
    path.write_text(json.dumps(payload))
    assert run(["inverse", "--scattering", str(path), "--x-points", "21",
                "--collocation", "150", "--inverse-n", "5",
                "--output-dir", str(tmp_path / "inverse")]) == 0
    summary = json.loads((tmp_path / "inverse" / "inverse_summary.json").read_text())
    assert summary["parity_defect"] is None
    # validate reads the same: -rho is not a grid point
    capsys.readouterr()
    assert run(["validate", "--scattering", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["a_parity_defect"] is None and report["b_parity_defect"] is None


def test_truncation_cap_warning(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_direct",
                        functools.partial(zs.solve_direct, N_max=10))
    code = run(["direct", "--potential", "preset:sech_scaled", "--mu", "1.5",
                "--half-width", "8", "--grid-points", "801",
                "--rho-count", "200", "--output-dir", str(tmp_path)])
    assert code == 0
    assert "truncation order N = 10 is the cap N_max" in capsys.readouterr().err


def test_decay_warnings_printed(tmp_path, capsys):
    code = run(["direct", "--potential", "preset:sech_scaled", "--mu", "1.5",
                "--half-width", "2", "--grid-points", "401",
                "--rho-count", "200", "--output-dir", str(tmp_path)])
    assert code == 0
    err = capsys.readouterr().err
    assert "warning: left tail weight" in err
    assert "warning: right tail weight" in err


_VALID_SCATTERING = {
    "rho": [-1.0, 0.0, 1.0],
    "a_re": [1.0, 1.0, 1.0], "a_im": [0.0, 0.0, 0.0],
    "b_re": [0.0, 0.0, 0.0], "b_im": [0.0, 0.0, 0.0],
    "eigenvalues": [{"re": 0.0, "im": 0.5}],
    "norming": [{"re": 1.0, "im": 0.0}],
    "n_terms": 3, "potential_desc": "hand-written",
}


def _scattering_text(drop=None, **changes):
    payload = {k: v for k, v in _VALID_SCATTERING.items() if k != drop}
    payload.update(changes)
    return json.dumps(payload)


@pytest.mark.parametrize("text", [
    pytest.param('{"rho": [1.0,', id="malformed-json"),
    pytest.param(_scattering_text(drop="b_im"), id="missing-key"),
    pytest.param(_scattering_text(eigenvalues=[{"re": 0.0}]), id="missing-eigenvalue-part"),
    pytest.param(_scattering_text(a_re=[1.0, 1.0]), id="unequal-lengths"),
    pytest.param(_scattering_text(rho=[-1.0, 1.0, 0.0]), id="rho-not-increasing"),
    pytest.param(_scattering_text(**{k: [] for k in ("rho", "a_re", "a_im", "b_re", "b_im")}),
                 id="rho-empty"),
    pytest.param(_scattering_text(rho=[0.0], a_re=[1.0], a_im=[0.0], b_re=[0.0], b_im=[0.0]),
                 id="rho-one-point"),
    pytest.param(_scattering_text(b_re=[0.0, float("nan"), 0.0]), id="non-finite"),
    pytest.param(_scattering_text(eigenvalues=[{"re": 0.0, "im": -0.5}]),
                 id="eigenvalue-not-in-upper-half-plane"),
    pytest.param(_scattering_text(norming=[]), id="norming-count"),
    pytest.param(_scattering_text(eigenvalues=[{"re": 0.0, "im": 0.5}] * 2,
                                  norming=[{"re": 1.0, "im": 0.0}] * 2),
                 id="equal-eigenvalues"),
    *[pytest.param(_scattering_text(n_terms=v), id=f"n_terms-{kind}")
      for kind, v in [("string", "abc"), ("list", [1]), ("fraction", 3.7), ("float", 3.0),
                      ("bool", True), ("negative", -4), ("null", None)]],
    *[pytest.param(_scattering_text(potential_desc=v), id=f"potential_desc-{kind}")
      for kind, v in [("object", {"preset": "zero"}), ("number", 7), ("null", None)]],
])
def test_invalid_scattering_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "scattering.json"
    path.write_text(text)
    assert run(["validate", "--scattering", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidScatteringData: ")
    assert err.count("\n") == 1


def test_valid_hand_written_scattering_json_accepted(tmp_path):
    path = tmp_path / "scattering.json"
    path.write_text(_scattering_text())
    assert run(["validate", "--scattering", str(path)]) == 0
