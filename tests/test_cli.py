"""End-to-end runs of the command-line front end, in process."""

import json
import math
import os
import stat

import pytest

from fdmlab import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- helpers


def test_parse_int_list_doubling_range():
    assert cli.parse_int_list("16:128") == [16, 32, 64, 128]
    assert cli.parse_int_list("16:100") == [16, 32, 64]


def test_parse_int_list_stepped_and_plain():
    assert cli.parse_int_list("4:10:2") == [4, 6, 8, 10]
    assert cli.parse_int_list("3,5,9") == [3, 5, 9]
    assert cli.parse_int_list("64") == [64]


@pytest.mark.parametrize("bad", ["0:8", "8:4", "4:10:0", "1:2:3:4"])
def test_parse_int_list_rejects(bad):
    with pytest.raises(ValueError):
        cli.parse_int_list(bad)


def test_parse_float_list():
    assert cli.parse_float_list("0.1,1,10") == [0.1, 1.0, 10.0]
    with pytest.raises(ValueError):
        cli.parse_float_list("")


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("FDMLAB_THREADS", "3")
    assert cli.thread_count() == 3
    monkeypatch.setenv("FDMLAB_THREADS", "0")
    assert cli.thread_count() == 1
    monkeypatch.setenv("FDMLAB_THREADS", "many")
    with pytest.raises(ValueError):
        cli.thread_count()
    monkeypatch.delenv("FDMLAB_THREADS")
    assert cli.thread_count() >= 1


# ------------------------------------------------------------- coeffs


def test_coeffs_dx_stdout(capsys):
    code, out, _ = run(capsys, "coeffs", "dx", "1", "0")
    assert code == 0
    assert out.splitlines() == [
        "k,numerator,denominator,float",
        "-1,-1,1,-1.0",
        "0,1,1,1.0",
    ]


def test_coeffs_dxx_stdout(capsys):
    code, out, _ = run(capsys, "coeffs", "dxx", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,numerator,denominator,float"
    assert lines[3] == "0,-5,2,-2.5"
    assert lines[2].startswith("-1,4,3,") and lines[4].startswith("1,4,3,")
    assert lines[1].startswith("-2,-1,12,") and lines[5].startswith("2,-1,12,")


def test_coeffs_file_and_manifest(capsys, tmp_path):
    out = tmp_path / "c.csv"
    code, stdout, _ = run(capsys, "coeffs", "dx", "3", "1", "--out", str(out))
    assert code == 0 and stdout == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "k,numerator,denominator,float"
    assert len(lines) == 1 + 5
    man = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert man["command"] == "coeffs"
    assert man["version"] == cli.__version__
    assert man["outputs"] == [str(out)]
    assert man["params"]["kind"] == "dx" and man["params"]["extent"] == [3, 1]
    assert man["duration_s"] >= 0


def test_outputs_get_umask_file_mode(capsys, tmp_path):
    out = tmp_path / "c.csv"
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "coeffs", "dx", "3", "1", "--out", str(out))
    finally:
        os.umask(old)
    assert code == 0
    for path in (out, tmp_path / "c.csv.manifest.json"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.csv.manifest.json"]


def test_coeffs_bad_extent(capsys):
    code, _, err = run(capsys, "coeffs", "dx", "0", "0")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "coeffs", "dx", "1")
    assert code == 2 and "two extents" in err
    code, _, err = run(capsys, "coeffs", "dxx", "1", "2")
    assert code == 2 and "one half-width" in err


# ---------------------------------------------------------- trajectory


def test_trajectory_default_configs(capsys, tmp_path):
    prefix = str(tmp_path / "t_")
    code, _, _ = run(capsys, "trajectory", "--samples", "16", "--out", prefix)
    assert code == 0
    man = json.loads((tmp_path / "t_manifest.json").read_text())
    assert len(man["outputs"]) == 4 * 3  # four pairs, three R values
    first = tmp_path / "t_dx3_1_dxx2_R0.1.csv"
    assert str(first) in man["outputs"]
    lines = first.read_text().splitlines()
    assert lines[0] == "theta,re,im"
    assert len(lines) == 17


def test_trajectory_explicit_pair(capsys, tmp_path):
    prefix = str(tmp_path / "e_")
    code, _, _ = run(
        capsys, "trajectory", "--dx", "2", "1", "--dxx", "1",
        "--r-list", "0.5", "--samples", "8", "--out", prefix,
    )
    assert code == 0
    path = tmp_path / "e_dx2_1_dxx1_R0.5.csv"
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 8
    th, re, im = (float(v) for v in rows[0].split(","))
    assert th == -math.pi and re < 0


def test_trajectory_requires_both_operators(capsys, tmp_path):
    code, _, err = run(capsys, "trajectory", "--dx", "1", "0",
                       "--out", str(tmp_path / "x_"))
    assert code == 2 and "both" in err


def test_trajectory_rejects_negative_r(capsys, tmp_path):
    code, _, err = run(capsys, "trajectory", "--r-list", "-1",
                       "--out", str(tmp_path / "x_"))
    assert code == 2 and "non-negative" in err


# ------------------------------------------------------------- tableau


HEUN = {
    "name": "heun",
    "a": [[0.0, 0.0], [1.0, 0.0]],
    "b": [0.5, 0.5],
    "c": [0.0, 1.0],
    "order": 2,
}


def test_tableau_check(capsys, tmp_path):
    path = tmp_path / "heun.json"
    path.write_text(json.dumps(HEUN))
    code, out, _ = run(capsys, "tableau", "check", str(path))
    assert code == 0
    info = json.loads(out)
    assert info["name"] == "heun"
    assert info["stages"] == 2 and info["order"] == 2
    assert info["p_coeffs"] == [1.0, 1.0, 0.5]


def test_tableau_check_malformed(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "tableau", "check", str(path))
    assert code == 2 and err.startswith("error:")


def test_tableau_check_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "tableau", "check", str(tmp_path / "no.json"))
    assert code == 2


# --------------------------------------------------------- index-sweep


def test_index_sweep_unstable_case(capsys):
    code, out, _ = run(
        capsys, "index-sweep", "--tableau", "fe", "--dx", "2", "0",
        "--mu", "0.03", "--n", "32:128",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,mu_or_mu_nu,rho,instability_index"
    assert len(lines) == 4
    for line, n in zip(lines[1:], (32, 64, 128)):
        cells = line.split(",")
        assert cells[0] == str(n) and cells[1] == "0.03"
        assert float(cells[2]) > 1.0
        # index of the mu^3/4 amplification excess, roughly flat in N
        assert float(cells[3]) == pytest.approx(math.log10(0.03**3 / 4), abs=0.1)


def test_index_sweep_stable_leaves_index_blank(capsys):
    code, out, _ = run(
        capsys, "index-sweep", "--tableau", "rk4", "--dx", "3", "1",
        "--mu", "0.5", "--n", "64",
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[2]) <= 1.0 + 1e-12
    assert row[3] == ""


def test_index_sweep_requires_matching_control(capsys):
    code, _, err = run(capsys, "index-sweep", "--tableau", "fe",
                       "--dx", "1", "0", "--n", "32")
    assert code == 2 and "--mu" in err
    code, _, err = run(capsys, "index-sweep", "--tableau", "fe",
                       "--dx", "1", "0", "--dxx", "1", "--nu", "0.1",
                       "--mode", "fixed-mu-nu", "--n", "32")
    assert code == 2 and "--mu-nu" in err


def test_index_sweep_unknown_tableau(capsys):
    code, _, err = run(capsys, "index-sweep", "--tableau", "rk99",
                       "--dx", "1", "0", "--mu", "0.1", "--n", "32")
    assert code == 2 and "rk99" in err


def test_index_sweep_thread_determinism(capsys, tmp_path, monkeypatch):
    argv = ["index-sweep", "--tableau", "rk3", "--dx", "2", "1",
            "--mu", "0.8", "--n", "16:64"]
    outs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("FDMLAB_THREADS", threads)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# ----------------------------------------------------------- threshold


def test_threshold_json(capsys):
    code, out, _ = run(capsys, "threshold", "--tableau", "rk4",
                       "--dx", "1", "0", "--n", "64")
    assert code == 0
    res = json.loads(out)
    assert res["mu_star"] == pytest.approx(1.3926, rel=1e-3)
    assert res["iterations"] > 0
    assert res["tol"] == pytest.approx(1e-6, rel=1e-6)


def test_threshold_not_found(capsys):
    code, out, err = run(capsys, "threshold", "--tableau", "fe",
                         "--dx", "0", "1", "--n", "32")
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


# ----------------------------------------------------- wave subcommands


def test_wave_spectrum_csv(capsys, tmp_path):
    out = tmp_path / "w.csv"
    code, _, _ = run(capsys, "wave-spectrum", "--dx-minus", "1", "0",
                     "--dxx", "1", "--samples", "64", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,re1,im1,re2,im2,jordan"
    assert len(lines) == 65
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[5] in ("0", "1")
        assert float(cells[1]) <= 1e-10 and float(cells[3]) <= 1e-10


def test_wave_spectrum_default_plus_is_mirror(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["wave-spectrum", "--dx-minus", "2", "1", "--dxx", "1",
            "--samples", "32"]
    assert run(capsys, *base, "--out", str(a))[0] == 0
    assert run(capsys, *base, "--dx-plus", "1", "2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_wave_classify(capsys):
    code, out, _ = run(capsys, "wave-classify", "--dx-minus", "1", "0",
                       "--dxx", "1", "--nu", "10", "--n", "16")
    assert code == 0
    res = json.loads(out)
    assert res["class"] == "AllReal"
    assert res["max_abs_im"] <= 1e-10
    assert res["nu"] == 10 and res["N"] == 16

    code, out, _ = run(capsys, "wave-classify", "--dx-minus", "1", "0",
                       "--dxx", "1", "--nu", "0.1", "--n", "1024")
    res = json.loads(out)
    assert res["class"] == "HasComplex"
    assert res["max_abs_im"] > 1e-6


# ------------------------------------------------------------ simulate


def test_simulate_scalar_outputs(capsys, tmp_path):
    prefix = str(tmp_path / "s_")
    code, _, _ = run(
        capsys, "simulate", "--tableau", "rk4", "--dx", "3", "1",
        "--mu", "0.5", "--n", "32", "--t-final", "0.5", "--out", prefix,
    )
    assert code == 0
    summary = json.loads((tmp_path / "s_summary.json").read_text())
    assert summary["blowup"] is False
    assert summary["snapshot_times"] == [0.125, 0.25, 0.5]
    assert "t_blowup" not in summary
    assert summary["linf_series"][0][0] == 0.0
    snap = (tmp_path / "s_snap_000.csv").read_text().splitlines()
    assert snap[0] == "x,w"
    assert len(snap) == 33
    assert snap[1].startswith("0.0,")
    man = json.loads((tmp_path / "s_manifest.json").read_text())
    assert len(man["outputs"]) == 4  # three snapshots plus the summary
    assert man["command"] == "simulate"


def test_simulate_wave_outputs(capsys, tmp_path):
    prefix = str(tmp_path / "w_")
    code, _, _ = run(
        capsys, "simulate", "--system", "wave", "--tableau", "rk4",
        "--dx-minus", "1", "0", "--dxx", "1", "--nu", "0.02",
        "--mu", "0.2", "--n", "32", "--t-final", "0.2",
        "--snapshot-times", "0.1,0.2", "--out", prefix,
    )
    assert code == 0
    snap = (tmp_path / "w_snap_000.csv").read_text().splitlines()
    assert snap[0] == "x,v,p"
    assert len(snap[1].split(",")) == 3
    summary = json.loads((tmp_path / "w_summary.json").read_text())
    assert summary["snapshot_times"] == [0.1, 0.2]


def test_simulate_blowup_summary(capsys, tmp_path):
    prefix = str(tmp_path / "b_")
    code, _, _ = run(
        capsys, "simulate", "--tableau", "fe", "--dx", "1", "0",
        "--mu", "2", "--n", "32", "--t-final", "50", "--out", prefix,
    )
    assert code == 0
    summary = json.loads((tmp_path / "b_summary.json").read_text())
    assert summary["blowup"] is True
    assert 0 < summary["t_blowup"] < 50


def test_simulate_argument_validation(capsys, tmp_path):
    base = ["simulate", "--tableau", "rk4", "--mu", "0.5", "--n", "32",
            "--t-final", "1", "--out", str(tmp_path / "x_")]
    code, _, err = run(capsys, *base)
    assert code == 2 and "--dx" in err
    code, _, err = run(capsys, *base[:1], "--system", "wave", *base[1:])
    assert code == 2 and "--dx-minus" in err
    code, _, err = run(capsys, "simulate", "--tableau", "rk4",
                       "--dx", "1", "0", "--mu", "-1", "--n", "32",
                       "--t-final", "1", "--out", str(tmp_path / "x_"))
    assert code == 2 and "positive" in err


@pytest.mark.parametrize(
    "extra,field",
    [
        (["--t-final", "inf"], "t_final"),
        (["--t-final", "nan"], "t_final"),
        (["--t-final", "1", "--snapshot-times", "0.5,nan"], "snapshot_times"),
        (["--t-final", "1", "--snapshot-times=-inf,0.5"], "snapshot_times"),
    ],
)
def test_simulate_rejects_non_finite_times(capsys, tmp_path, extra, field):
    code, _, err = run(capsys, "simulate", "--tableau", "rk4", "--dx", "1", "0",
                       "--mu", "0.5", "--n", "32", *extra,
                       "--out", str(tmp_path / "x_"))
    assert code == 2
    assert field in err and "finite" in err
    assert not list(tmp_path.iterdir())


def test_simulate_rerun_is_byte_identical(capsys, tmp_path):
    argv = ["simulate", "--tableau", "rk2", "--dx", "2", "1", "--dxx", "1",
            "--nu", "0.05", "--mu", "0.3", "--n", "24", "--t-final", "0.25"]
    texts = []
    for sub in ("r1", "r2"):
        d = tmp_path / sub
        d.mkdir()
        prefix = str(d / "s_")
        assert run(capsys, *argv, "--out", prefix)[0] == 0
        texts.append((d / "s_snap_002.csv").read_bytes()
                     + (d / "s_summary.json").read_bytes())
    assert texts[0] == texts[1]


# ------------------------------------------------------------- general


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == f"fdmlab {cli.__version__}"


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == 2
    assert "usage" in err.lower()


def test_custom_tableau_file_accepted(capsys, tmp_path):
    path = tmp_path / "heun.json"
    path.write_text(json.dumps(HEUN))
    code, out, _ = run(capsys, "threshold", "--tableau", str(path),
                       "--dx", "1", "0", "--n", "32")
    assert code == 0
    res = json.loads(out)
    assert res["mu_star"] == pytest.approx(1.0, rel=1e-2)
