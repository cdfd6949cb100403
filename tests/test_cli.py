"""End-to-end runs of the command-line front end, in process."""

import hashlib
import json
import math
import os
import stat
import warnings

import numpy as np
import pytest

from fdmlab import cli, wavesys
from oracles import reference_csv_text, reference_parse_int_list


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- helpers


def _seeded_ranges(seed=19, count=12):
    """(a, b) pairs with b < 2a, b = a 2^k and b = a 2^k - 1, for a from 1
    up to 2^40."""
    rng = np.random.default_rng(seed)
    pairs = []
    for a in [1, 2, 3, 2**40, *(int(2**e) for e in rng.uniform(0, 40, count))]:
        k = int(rng.integers(1, 24))
        pairs += [(a, int(rng.integers(a, 2 * a))), (a, a << k), (a, (a << k) - 1)]
    return pairs


RANGES = _seeded_ranges()


def test_parse_int_list_doubling_range():
    assert cli.parse_int_list("16:128") == [16, 32, 64, 128]
    assert cli.parse_int_list("16:100") == [16, 32, 64]
    for a, b in RANGES:
        text = f"{a}:{b}"
        assert cli.parse_int_list(text) == reference_parse_int_list(text), text


def test_parse_int_list_stepped_and_plain():
    assert cli.parse_int_list("4:10:2") == [4, 6, 8, 10]
    assert cli.parse_int_list("3,5,9") == [3, 5, 9]
    assert cli.parse_int_list("64") == [64]
    for a, b in RANGES:
        for text in (f"{a}:{b}:{max(1, (b - a) // 5)}", f"{b},{a}", str(b)):
            assert cli.parse_int_list(text) == reference_parse_int_list(text), text


@pytest.mark.parametrize("bad", ["0:8", "8:4", "4:10:0", "1:2:3:4", ","]
                         + [t for a, b in RANGES[::6] for t in (
                             f"{b}:{a - 1}", f"0:{b}", f"-{a}:{b}", f"{a}:{b}:0",
                             f"{a}:{b}:-{a}", f"{a}:{b}:1:{b}")])
def test_parse_int_list_rejects(bad):
    for parse in (cli.parse_int_list, reference_parse_int_list):
        with pytest.raises(ValueError):
            parse(bad)


def test_parse_float_list():
    assert cli.parse_float_list("0.1,1,10") == [0.1, 1.0, 10.0]
    with pytest.raises(ValueError):
        cli.parse_float_list("")


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


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_outputs_get_umask_file_mode(capsys, tmp_path, umask):
    out = tmp_path / "c.csv"
    old = os.umask(umask)
    try:
        code, _, _ = run(capsys, "coeffs", "dx", "3", "1", "--out", str(out))
        assert code == 0
        code, _, _ = run(capsys, "trajectory", "--dx", "3", "1", "--dxx", "2",
                         "--r-list", "1", "--samples", "8", "--out", str(tmp_path / "t_"))
        assert code == 0
    finally:
        os.umask(old)
    names = ["c.csv", "c.csv.manifest.json", "t_dx3_1_dxx2_R1.0.csv", "t_manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask


def test_writing_never_changes_the_process_umask(capsys, tmp_path, monkeypatch):
    # the process umask is shared by every thread; a write that set it to 0
    # and back would let files other threads create meanwhile skip it
    def no_umask(mask):
        raise AssertionError("os.umask called")
    monkeypatch.setattr(os, "umask", no_umask)
    code, _, err = run(capsys, "coeffs", "dx", "3", "1", "--out", str(tmp_path / "c.csv"))
    assert (code, err) == (0, "")
    code, _, err = run(capsys, "trajectory", "--dx", "3", "1", "--dxx", "2", "--r-list",
                       "0.1,1", "--samples", "8", "--out", str(tmp_path / "t_"))
    assert (code, err) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.csv", "c.csv.manifest.json", "t_dx3_1_dxx2_R0.1.csv", "t_dx3_1_dxx2_R1.0.csv",
        "t_manifest.json"]


def test_failed_write_leaves_no_temp_file_and_no_manifest(capsys, tmp_path):
    # os.replace onto a directory fails after the temp file is written
    out = tmp_path / "D"
    out.mkdir()
    code, stdout, err = run(capsys, "coeffs", "dx", "3", "1", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: [Errno 21] Is a directory: ")
    assert [p.name for p in tmp_path.iterdir()] == ["D"]
    assert list(out.iterdir()) == []


def test_coeffs_bad_extent(capsys):
    code, _, err = run(capsys, "coeffs", "dx", "0", "0")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "coeffs", "dx", "1")
    assert code == 2 and "required: R" in err
    code, _, err = run(capsys, "coeffs", "dxx", "1", "2")
    assert code == 2 and "unrecognized arguments: 2" in err


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


def test_trajectory_rejects_r_values_with_one_file_name(capsys, tmp_path):
    # 1 and 1.0 both name a file ..._R1.0.csv, which was written twice
    code, _, err = run(capsys, "trajectory", "--dx", "1", "0", "--dxx", "1",
                       "--r-list", "1,1.0", "--samples", "8", "--out", str(tmp_path / "t_"))
    assert code == 2 and "R values must be distinct" in err
    assert not list(tmp_path.iterdir())


def test_trajectory_refuses_a_bad_r_before_writing(capsys, tmp_path):
    # the file of 0.1 was written before the NaN was refused, with no manifest
    argv = ["trajectory", "--dx", "3", "1", "--dxx", "2", "--samples", "8",
            "--out", str(tmp_path / "x_")]
    code, stdout, err = run(capsys, *argv, "--r-list", "0.1,nan")
    assert (code, stdout) == (2, "")
    assert "R must be finite and non-negative, got nan" in err
    assert not list(tmp_path.iterdir())
    # inf still traces the diffusion symbol alone
    assert run(capsys, *argv, "--r-list", "0.1,inf")[0] == 0
    assert (tmp_path / "x_dx3_1_dxx2_Rinf.csv").exists()


def test_trajectory_treats_signed_zeros_as_one_r(capsys, tmp_path):
    # 0 and -0.0 wrote ..._R0.0.csv and ..._R-0.0.csv with the same bytes
    code, _, err = run(capsys, "trajectory", "--dx", "1", "0", "--dxx", "1",
                       "--r-list", "0,-0.0", "--samples", "8", "--out", str(tmp_path / "t_"))
    assert code == 2 and "R values must be distinct" in err
    assert not list(tmp_path.iterdir())


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
    missing = str(tmp_path / "no.json")
    code, _, err = run(capsys, "tableau", "check", missing)
    assert code == 2
    assert "No such file" in err and missing in err


@pytest.mark.parametrize("content,entry", [
    ({"a": [[], [[1]]], "b": [0.5, 0.5]}, "[1]"),
    ({"a": [[]], "b": 1}, '"b"'),
    ({"a": [[], [1], [5, 5]], "b": [1]}, "3 stage rows for 1 weights"),
    ({"a": [[], [1]], "b": ["1/2", "1/2"], "order": "two", "name": 7}, '"name"'),
    ({"a": [[], [1]], "b": ["1/2", "1/2"], "order": "two"}, '"order"'),
    ({"a": [[], [1]], "b": ["1/2", "1/2"], "order": True}, '"order"'),
    ({"a": [[], [1]], "b": ["1/2", "1/2"], "order": 0}, '"order"'),
    ({"a": [[]], "b": [1], "stages": True}, '"stages"'),
])
def test_tableau_check_bad_entry_is_a_usage_error(capsys, tmp_path, content, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    code, _, err = run(capsys, "tableau", "check", str(path))
    assert code == 2
    assert err.startswith("error:") and entry in err


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
    assert code == 2 and "one of the arguments --mu --mu-nu is required" in err
    code, _, err = run(capsys, "index-sweep", "--tableau", "fe",
                       "--dx", "1", "0", "--dxx", "1", "--nu", "0.1",
                       "--mode", "fixed-mu-nu", "--n", "32")
    assert code == 2 and "one of the arguments --mu --mu-nu is required" in err


def test_index_sweep_takes_one_control(capsys, tmp_path):
    # --mu-nu was once dropped without a word in fixed-mu mode, and --mu in
    # fixed-mu-nu mode; the control flag given now names the mode
    out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, "index-sweep", "--tableau", "fe", "--dx", "2", "0",
                            "--mu", "0.03", "--mu-nu", "0.5", "--n", "32:64",
                            "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "argument --mu-nu: not allowed with argument --mu" in err
    code, stdout, err = run(capsys, "index-sweep", "--tableau", "fe", "--dx", "3", "1",
                            "--dxx", "2", "--nu", "0.1", "--mode", "fixed-mu-nu",
                            "--mu-nu", "0.4", "--n", "32", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "unrecognized arguments: --mode fixed-mu-nu" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["index-sweep", "--mu", "0.03", "--n", "32:64"],
    ["threshold", "--n", "64"],
], ids=["index-sweep", "threshold"])
def test_fixed_mu_viscosity_needs_a_diffusion_operator(capsys, tmp_path, argv):
    # a fixed-mu spectrum reads --nu only through --dxx; it was dropped unread
    out = tmp_path / "o"
    code, stdout, err = run(capsys, *argv, "--tableau", "fe", "--nu", "0.1",
                            "--dx", "1", "0", "--out", str(out))
    assert (code, stdout, err) == (2, "", "error: nonzero viscosity needs a diffusion operator\n")
    assert not list(tmp_path.iterdir())


def test_fixed_mu_nu_viscosity_sets_dt_without_a_diffusion_operator(capsys):
    for argv in (["index-sweep", "--mu-nu", "0.5", "--n", "64"],
                 ["threshold", "--mode", "fixed-mu-nu", "--n", "32"]):
        code, _, err = run(capsys, *argv, "--tableau", "fe", "--nu", "0.1", "--dx", "1", "0")
        assert (code, err) == (0, "")


@pytest.mark.parametrize("argv,name,value", [
    (["index-sweep", "--dx", "1", "0", "--mu", "nan", "--n", "32"], "mu", "nan"),
    (["index-sweep", "--dx", "1", "0", "--nu", "0.1", "--mu-nu", "nan", "--n", "32"],
     "mu_nu", "nan"),
    (["index-sweep", "--dx", "1", "0", "--mu=-inf", "--n", "32"], "mu", "-inf"),
    (["simulate", "--dx", "1", "0", "--mu", "inf", "--n", "32", "--t-final", "0.1"],
     "mu", "inf"),
    (["wave-simulate", "--dx-minus", "1", "0", "--dxx", "1", "--mu", "nan", "--n", "32",
      "--t-final", "0.1"], "mu", "nan"),
], ids=["index-sweep-mu", "index-sweep-mu-nu", "index-sweep-minus-inf", "simulate",
        "wave-simulate"])
def test_step_ratio_that_is_not_finite_is_named(capsys, tmp_path, argv, name, value):
    # it was reported as "time step must be finite and positive"
    out = tmp_path / "o"
    code, stdout, err = run(capsys, *argv, "--tableau", "rk4", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error: {name} must be finite and positive, got {value}\n"
    assert not list(tmp_path.iterdir())


def test_index_sweep_unknown_tableau(capsys):
    code, _, err = run(capsys, "index-sweep", "--tableau", "rk99",
                       "--dx", "1", "0", "--mu", "0.1", "--n", "32")
    assert code == 2 and "rk99" in err


def test_unknown_tableau_message_has_no_stray_quotes(capsys):
    # str() of a KeyError is the repr of its message
    code, out, err = run(capsys, "threshold", "--tableau", "nosuch", "--dx", "1", "0")
    assert (code, out) == (2, "")
    assert err == "error: unknown tableau 'nosuch'; known: fe, lsrk3, rk2, rk3, rk4, ssprk2\n"


@pytest.mark.parametrize("argv,control", [
    (["index-sweep", "--mu-nu", "1", "--n", "32"], "mu_nu=1.0"),
    (["threshold", "--mode", "fixed-mu-nu", "--n", "32"], "mu_nu="),
], ids=["index-sweep", "threshold"])
def test_derived_time_step_that_is_not_finite_is_named(capsys, tmp_path, argv, control):
    # nu = 1e-320 makes dt = mu_nu / (nu N^2) overflow; the message was
    # "time step must be finite and positive", naming none of its inputs
    out = tmp_path / "o"
    code, stdout, err = run(capsys, *argv, "--tableau", "fe", "--dxx", "1", "--nu", "1e-320",
                            "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {control}")
    assert err.endswith(", nu=1e-320 and N=32 give time step inf, "
                        "which is not finite and positive\n")
    assert not list(tmp_path.iterdir())


def test_index_sweep_empty_resolution_list(capsys):
    # no resolution would print a header-only CSV
    code, out, err = run(capsys, "index-sweep", "--tableau", "fe",
                         "--dx", "1", "0", "--mu", "0.1", "--n", ",")
    assert code == 2 and out == ""
    assert "empty list" in err


@pytest.mark.parametrize("command,control", [
    ("index-sweep", ["--mu", "0.1"]),
    ("threshold", []),
])
def test_ade_commands_reject_overflowing_r(capsys, command, control):
    # nu * N overflows to R = inf; the sweep used to print rho = nan
    code, out, err = run(capsys, command, "--tableau", "fe", "--dx", "1", "0",
                         "--dxx", "1", "--nu", "1e308", "--n", "16", *control)
    assert code == 2 and out == ""
    assert "R must be finite" in err


# Tableaux whose numbers leave the double range.  OVERFLOW_P has entries
# that fit but stability polynomial coefficients up to 1e400, OVERFLOW_A an
# entry of 1e400 (a float cast of either raised OverflowError, exit 3).
# SEVEN_STAGE has p = 1 + z + 1e50 z^2 + ... + 1e300 z^7, which overflows
# on the spectrum at mu = 1000.
OVERFLOW_P = {"a": [[], ["1e200"], [0, "1e200"]], "b": [0, 0, 1]}
OVERFLOW_A = {"a": [[], ["1e400"]], "b": [0, 1]}
SEVEN_STAGE = {"a": [[]] + [[0] * i + ["1e50"] for i in range(6)], "b": [0] * 6 + [1]}


@pytest.mark.parametrize("content,named,command", [
    pytest.param(content, named, command, id=f"{label}-{command}")
    for label, content, named, commands in [
        ("p", OVERFLOW_P, "stability polynomial coefficient of z^3",
         ("tableau", "index-sweep", "threshold")),
        ("a", OVERFLOW_A, "tableau entry a[1][0]",
         ("tableau", "index-sweep", "threshold", "simulate")),
    ]
    for command in commands
])
def test_tableau_beyond_the_double_range_is_a_usage_error(capsys, tmp_path, content, named,
                                                          command):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(content))
    argv = {
        "tableau": ["tableau", "check", str(path)],
        "index-sweep": ["index-sweep", "--tableau", str(path), "--dx", "1", "0",
                        "--mu", "0.5", "--n", "32"],
        "threshold": ["threshold", "--tableau", str(path), "--dx", "1", "0", "--n", "32"],
        "simulate": ["simulate", "--tableau", str(path), "--dx", "1", "0", "--mu", "0.5",
                     "--n", "32", "--t-final", "0.1", "--out", str(tmp_path / "sim_")],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {named} lies outside the double range\n"
    assert os.listdir(tmp_path) == ["big.json"]


def test_index_sweep_reads_an_overflowing_p_as_unstable(capsys, tmp_path):
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(SEVEN_STAGE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "index-sweep", "--tableau", str(path), "--dx", "1", "0",
                             "--mu", "1e3", "--n", "32:64")
    assert code == 0 and err == ""
    assert out == "N,mu_or_mu_nu,rho,instability_index\n32,1000.0,nan,nan\n64,1000.0,nan,nan\n"


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


def test_wave_spectrum_flags_no_jordan_block_at_zero_r(capsys, tmp_path):
    # the pair nearly repeats at theta = -pi, where R b = 0 leaves a
    # diagonalizable block; that row read jordan = 1
    out = tmp_path / "w.csv"
    assert run(capsys, "wave-spectrum", "--dx-minus", "3", "1", "--dxx", "2",
               "--r-value", "0", "--samples", "16", "--out", str(out))[0] == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert float(rows[0][0]) == -math.pi
    assert [row[5] for row in rows] == ["0"] * 16


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


def test_wave_classify_evaluates_the_spectrum_once(capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return wave_eigs(*args)

    wave_eigs = wavesys.wave_eigs
    monkeypatch.setattr(wavesys, "wave_eigs", counting)
    for nu in ("10", "0.1"):
        calls.clear()
        code, _, _ = run(capsys, "wave-classify", "--dx-minus", "1", "0",
                         "--dxx", "1", "--nu", nu, "--n", "256")
        assert code == 0
        assert len(calls) == 1


@pytest.mark.parametrize("nu", ["nan", "inf", "-1"])
def test_wave_classify_states_the_grid_viscosity_rule(capsys, tmp_path, nu):
    # NaN read "viscosity must be non-negative", inf the R message
    out = tmp_path / "o"
    code, stdout, err = run(capsys, "wave-classify", "--dx-minus", "1", "0", "--dxx", "1",
                            "--n", "64", "--nu", nu, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: viscosity must be finite and non-negative\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    # a finite nu whose R = nu * N overflows; nu = inf breaks the viscosity rule
    ["wave-classify", "--dxx", "1", "--nu", "1e308", "--n", "64"],
    ["wave-classify", "--dxx", "1", "--nu", "1e308", "--n", "16"],
    ["wave-spectrum", "--dxx", "1", "--r-value", "inf", "--samples", "16"],
    ["wave-spectrum", "--dxx", "1", "--r-value", "nan", "--samples", "16"],
    # R is finite but (R b)^2 overflows: these printed NaN and inf rows
    ["wave-classify", "--dxx", "1", "--nu", "1e300", "--n", "64"],
    ["wave-spectrum", "--dxx", "1", "--r-value", "1e200", "--samples", "16"],
])
def test_wave_commands_reject_non_finite_r(capsys, tmp_path, argv):
    out = tmp_path / "o"
    code, stdout, err = run(capsys, *argv, "--dx-minus", "1", "0", "--out", str(out))
    assert code == 2 and stdout == ""
    assert "R must be finite" in err
    assert not list(tmp_path.iterdir())


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
        capsys, "wave-simulate", "--tableau", "rk4",
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
    man = json.loads((tmp_path / "w_manifest.json").read_text())
    assert man["command"] == "wave-simulate" and len(man["outputs"]) == 3


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


def test_simulate_overflowing_stages_read_as_a_blowup_without_warnings(capsys, tmp_path):
    # the entries fit a double, but dt a_ij k_j overflows in the third stage
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"a": [[], ["1e200"], [0, "1e200"]], "b": [0, 0, 1]}))
    code, out, err = run(capsys, "simulate", "--tableau", str(path), "--dx", "1", "0",
                         "--mu", "0.5", "--n", "32", "--t-final", "0.1",
                         "--out", str(tmp_path / "o_"))
    assert (code, out, err) == (0, "", "")
    assert json.loads((tmp_path / "o_summary.json").read_text()) == {
        "blowup": True, "linf_series": [[0.0, 1.0]], "snapshot_times": [],
        "t_blowup": 0.015625}


def test_simulate_argument_validation(capsys, tmp_path):
    base = ["simulate", "--tableau", "rk4", "--mu", "0.5", "--n", "32",
            "--t-final", "1", "--out", str(tmp_path / "x_")]
    code, _, err = run(capsys, *base)
    assert code == 2 and "--dx" in err
    code, _, err = run(capsys, "wave-simulate", *base[1:])
    assert code == 2 and "the following arguments are required: --dx-minus, --dxx" in err
    code, _, err = run(capsys, "simulate", "--tableau", "rk4",
                       "--dx", "1", "0", "--mu", "-1", "--n", "32",
                       "--t-final", "1", "--out", str(tmp_path / "x_"))
    assert code == 2 and "positive" in err


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--dx", "1", "0", "--dx-minus", "2", "1", "--dx-plus", "5", "5"],
     "fdmlab: error: unrecognized arguments: --dx-minus 2 1 --dx-plus 5 5"),
    (["simulate", "--dx", "1", "0", "--dx-plus", "1", "2"],
     "fdmlab: error: unrecognized arguments: --dx-plus 1 2"),
    (["simulate", "--dx-minus", "2", "1", "--dxx", "1"],
     "fdmlab: error: unrecognized arguments: --dx-minus 2 1"),
    (["wave-simulate", "--dx-minus", "1", "0", "--dxx", "1", "--dx", "9", "9"],
     "fdmlab wave-simulate: error: ambiguous option: --dx could match"),
    (["wave-simulate", "--dx", "1", "0", "--dxx", "1"],
     "fdmlab wave-simulate: error: ambiguous option: --dx could match"),
    (["simulate", "--system", "wave", "--dx-minus", "1", "0", "--dxx", "1"],
     "fdmlab: error: unrecognized arguments: --system wave --dx-minus 1 0"),
], ids=["ade-dx-minus-dx-plus", "ade-dx-plus", "ade-dx-minus", "wave-dx", "wave-dx-only",
        "system-flag"])
def test_simulate_refuses_the_other_systems_flags(capsys, tmp_path, argv, message):
    # the flags of the system not run were once dropped without a word
    code, out, err = run(capsys, *argv, "--tableau", "rk4", "--mu", "0.5",
                         "--n", "16", "--t-final", "0.1", "--out", str(tmp_path / "x_"))
    assert (code, out) == (2, "")
    assert message in err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("command,operators", [
    ("simulate", ["--dx", "1", "0"]),
    ("wave-simulate", ["--dx-minus", "1", "0", "--dxx", "1"]),
])
def test_simulate_rejects_empty_snapshot_times(capsys, tmp_path, command, operators):
    # an empty list once fell back to the default snapshots without a word
    code, _, err = run(capsys, command, "--tableau", "rk4", *operators, "--mu", "0.5",
                       "--n", "16", "--t-final", "0.1", "--snapshot-times", "",
                       "--out", str(tmp_path / "x_"))
    assert code == 2 and "empty list" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,operators", [
    ("simulate", ["--dx", "3", "1"]),
    ("wave-simulate", ["--dx-minus", "1", "0", "--dxx", "1"]),
])
@pytest.mark.parametrize("times,message", [
    (["--mu", "1e-310", "--t-final", "0.1"], "at most 2^52, got inf"),
    (["--mu", "0.5", "--t-final", "1e-13"], "lies within 1e-12 of 0.0"),
    (["--mu", "0.5", "--t-final", "1", "--snapshot-times", "0.5,0.5000000000005,1"],
     "lies within 1e-12 of 0.5"),
], ids=["overflow", "first-target", "snapshot"])
def test_simulate_refuses_runs_it_cannot_step(capsys, tmp_path, command, operators,
                                              times, message):
    # round(t_final / dt) overflows on the first; on the others no step
    # would reach the later time
    code, _, err = run(capsys, command, "--tableau", "rk4", *operators, "--n", "32",
                       *times, "--out", str(tmp_path / "x_"))
    assert code == 2 and message in err
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


@pytest.mark.parametrize("argv", [
    ["index-sweep", "--tableau", "fe", "--dx", "1", "0", "--mu", "0.5"],
    ["threshold", "--tableau", "fe", "--dx", "1", "0"],
    ["simulate", "--tableau", "fe", "--dx", "1", "0", "--mu", "0.5", "--t-final", "1"],
])
def test_zero_cells_is_a_usage_error(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, "--n", "0", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "need at least 4 cells" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc", [RuntimeError("boom"), AssertionError("boom")])
def test_unexpected_exception_exits_3(capsys, tmp_path, monkeypatch, exc):
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_coeffs", fail)
    code, out, err = run(capsys, "coeffs", "dx", "1", "0", "--out", str(tmp_path / "c.csv"))
    assert (code, out) == (3, "")
    assert err == f"internal error: {exc!r}\n"
    assert list(tmp_path.iterdir()) == []


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


# ---------------------------------------------------------- csv writer

# signed zeros, infinities, nan, subnormals and values whose repr switches
# to exponent form
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e16, 1e-5,
           -1e-300]


def float_column(rng, n):
    """Special values next to drawn ones of every magnitude, element by element."""
    pools = [rng.choice(SPECIAL, n), rng.standard_normal(n),
             rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320, 308, n)]
    return np.choose(rng.integers(0, len(pools), n), pools)


def row_wise(header, columns):
    return reference_csv_text(header, zip(*(
        c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


@pytest.mark.parametrize("seed,n_rows", [(0, 0), (1, 1), (2, 7), (3, 2000)])
def test_csv_writer_matches_row_wise_formula(seed, n_rows):
    rng = np.random.default_rng(seed)
    lam = np.empty(n_rows, dtype=complex)  # .real and .imag are strided views
    lam.real, lam.imag = float_column(rng, n_rows), float_column(rng, n_rows)
    ints = rng.integers(-2**62, 2**62, n_rows)  # as the k, N and jordan columns
    exact = [int(v) * 10**30 for v in ints]  # coeffs' numerators exceed int64
    blanks = ["" if v < 0 else repr(float(v)) for v in ints]  # index-sweep's index
    header = "theta,re,im,k,numerator,index,jordan"
    columns = [float_column(rng, n_rows), lam.real, lam.imag, ints, exact, blanks,
               (ints > 0).astype(int)]
    writer = cli._CsvWriter()
    assert writer.text(header, *columns) == row_wise(header, columns)
    # a second file through the same writer: kept, copied and new columns
    columns = [columns[0].copy(), float_column(rng, n_rows), lam.imag, ints[::-1],
               exact, blanks, np.zeros(n_rows, dtype=int)]
    assert writer.text(header, *columns) == row_wise(header, columns)
    if n_rows == 0:
        assert writer.text(header, *columns) == header + "\n"


def test_csv_writer_reuses_only_byte_equal_columns():
    writer = cli._CsvWriter()
    x, y, n = np.array([1.5, 0.0, -2.0]), np.array([0.25, 0.5, 0.75]), np.zeros(3, int)
    writer.text("x,y,n", x, y, n)
    first = [cells for _, cells in writer._prev.values()]
    # x with one zero's sign flipped compares equal but differs in bytes,
    # and float zeros have the bytes of int zeros but another dtype
    flipped = x.copy()
    flipped[1] = -0.0
    text = writer.text("x,y,n", flipped, y.copy(), n.astype(float))
    assert text == row_wise("x,y,n", [flipped, y, n.astype(float)])
    assert text.splitlines()[2] == "-0.0,0.5,0.0"
    second = [cells for _, cells in writer._prev.values()]
    assert second[0] is not first[0] and second[2] is not first[2]
    assert second[1] is first[1]


# ------------------------------------------------------- output bytes

# Every subcommand at a small size.  The sha256 of each stdout and each
# written file except the manifests is pinned, so a refactor of the output
# code cannot change a byte unnoticed; the manifests carry a run duration,
# so only their keys and output lists are compared.  "{d}" is the output
# directory and "{heun}" a tableau file outside it.  Each hash dict lists
# "<stdout>" first, then the files in the manifest's output order.
BYTE_PINS = [
    (["coeffs", "dx", "3", "1"], None, {
        "<stdout>": "951324254385c1fd888a7bd98c71d09786344d7d14c5db431f3f5e021c2dd3e3",
    }),
    (["coeffs", "dxx", "3", "--out", "{d}/c.csv"], "c.csv.manifest.json", {
        "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c.csv": "6539df5a72550591caf05084744005a171914650aa66c1cf9975cc8d7d377676",
    }),
    (["trajectory", "--samples", "8", "--out", "{d}/d_"], "d_manifest.json", {
        "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d_dx3_1_dxx2_R0.1.csv":
            "835165929bec102928772a7136af934aa46cbe21ce19c89485d12662794a27c0",
        "d_dx3_1_dxx2_R1.0.csv":
            "fbe7b07bc85536b33bebd95f74595885ab9da4ce5578f7af9e79983a4be77433",
        "d_dx3_1_dxx2_R10.0.csv":
            "35fd46e38c19d99e9051a3213eba3fb7142dbed0f8f0c44dcfa9bb98c0cc250b",
        "d_dx21_20_dxx20_R0.1.csv":
            "7157ab1459b088edc83814f14d290b14609487d5fd5bceb1e2dffc316c6a91a3",
        "d_dx21_20_dxx20_R1.0.csv":
            "085a2d41e2dcc3b3c6ee9acf9c740a07b42bbe2edd8f0fcdf28b29771c7ec4bd",
        "d_dx21_20_dxx20_R10.0.csv":
            "3af549fe5a75b5d95cd958e5a0cc6f7084d0c1dc5539ec0b3a8d92fec9157bfa",
        "d_dx3_1_dxx20_R0.1.csv":
            "ca5a6d8da0430fce0beceb5d794f2105e7f2c2e98af8e9f06a68eb74e0c00789",
        "d_dx3_1_dxx20_R1.0.csv":
            "b930da63cfc2dafcd31896a3f52e01df0b22a7e3253c0cec4ff18bb779f911c0",
        "d_dx3_1_dxx20_R10.0.csv":
            "9d755f25495bdd51a8902eb97ace7122e5c8cf375b279e92c940223a893c8b07",
        "d_dx21_20_dxx2_R0.1.csv":
            "c6054d8c393a334c88496e720b64bd161282ccb32e8640205f78ab1351911d65",
        "d_dx21_20_dxx2_R1.0.csv":
            "691152066ca90d3580d9a5aae45b4897e61241f965ea82d543c881cdb035f531",
        "d_dx21_20_dxx2_R10.0.csv":
            "1006ada8d715d6c9f59adb780bd0c4a78296e66eb691110b2a09a629b61e6577",
    }),
    (["trajectory", "--dx", "2", "2", "--dxx", "2", "--r-list", "0,0.37,inf",
      "--samples", "16", "--out", "{d}/t_"], "t_manifest.json", {
        "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "t_dx2_2_dxx2_R0.0.csv":
            "feca8f53eacfa9d675a13693038ede3620afc6382e780c69ae1f2fcfd3043056",
        "t_dx2_2_dxx2_R0.37.csv":
            "3cb2a913b41ee914fec46040d53311bba81c118f0df3b08b9c0f6bfcf182ee16",
        "t_dx2_2_dxx2_Rinf.csv":
            "3ddea1427347f3201d8e088c6742626814ffea25644dc096454c06814927dfa3",
    }),
    (["tableau", "check", "{heun}"], None, {
        "<stdout>": "fd934ea711b736913ac349139b205681234ed8712466358505f2a88350bb0afa",
    }),
    (["index-sweep", "--tableau", "fe", "--dx", "2", "0", "--mu", "0.03",
      "--n", "32:128"], None, {
        "<stdout>": "8ff208a3858de6ebf083d3d30cdf5e8bf89b2ea3fcf02b872c6536f454da52f8",
    }),
    (["index-sweep", "--tableau", "rk4", "--dx", "3", "1", "--dxx", "2", "--nu", "0.05",
      "--mu-nu", "0.2", "--n", "16:64", "--out", "{d}/s.csv"],
     "s.csv.manifest.json", {
        "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "s.csv": "89e4c68d75c69b767bbde91237b624f2217d081b7be2ef63f274ed69a7344ec9",
    }),
    (["threshold", "--tableau", "rk4", "--dx", "1", "0", "--n", "64"], None, {
        "<stdout>": "4208b9583755aa0fea0a4066ab1a89ad88904be46bec18fa0c27314e81f2cf9f",
    }),
    (["threshold", "--tableau", "{heun}", "--dx", "3", "1", "--dxx", "2", "--nu", "0.01",
      "--n", "32", "--out", "{d}/thr.json"], "thr.json.manifest.json", {
        "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "thr.json": "1502f0b22ddca588e733db39dbab48e64ec2bb999dbde7f8da635edc2a654878",
    }),
    (["wave-spectrum", "--dx-minus", "2", "1", "--dxx", "1", "--samples", "32"], None, {
        "<stdout>": "be187e36a7c70657e2f569daa9c5926510d6288db6c62023d2fe995ba0be2343",
    }),
    (["wave-spectrum", "--dx-minus", "3", "1", "--dx-plus", "1", "2", "--dxx", "2",
      "--r-value", "0", "--samples", "16", "--out", "{d}/w.csv"], "w.csv.manifest.json", {
        "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "w.csv": "5e8c6a9cfc175bacb854d453f05116749db0022ca3ca3d092576e757403cb784",
    }),
    (["wave-classify", "--dx-minus", "1", "0", "--dxx", "1", "--nu", "10", "--n", "16"],
     None, {
        "<stdout>": "164ff5c631a63adec61a63db68a6cc60ad14d5ffc48cd9dbbc37698b66fe92ed",
    }),
    (["wave-classify", "--dx-minus", "3", "1", "--dxx", "2", "--nu", "0.1", "--n", "64",
      "--out", "{d}/k.json"], "k.json.manifest.json", {
        "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k.json": "73eb275f7a7040c20dfd2e9d37f8d687b736a6ec234265c9d4fec02611c42020",
    }),
    (["simulate", "--tableau", "rk4", "--dx", "3", "1", "--dxx", "1", "--nu", "0.01",
      "--mu", "0.5", "--n", "32", "--t-final", "0.5", "--out", "{d}/a_"],
     "a_manifest.json", {
        "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a_snap_000.csv": "5fee1bb2e810c3e0b44efac6d9c687a7b2f198b33a16031028a1bd3ac522e7bb",
        "a_snap_001.csv": "a38ba8a006b4a80b304254f25dea3b3ea546917a4924485fe69025eccfc07116",
        "a_snap_002.csv": "c9d3380303c785f4d5861bee9fd466f5c5adab46548240add1064b8090ed0c43",
        "a_summary.json": "8270db86ab826c40854598e9a8fcb3ae68219ffb8857535c8b52d3f70677de97",
    }),
    (["wave-simulate", "--tableau", "rk3", "--dx-minus", "2", "1",
      "--dxx", "1", "--nu", "0.02", "--mu", "0.2", "--n", "24", "--t-final", "0.2",
      "--snapshot-times", "0,0.05,0.2", "--out", "{d}/v_"], "v_manifest.json", {
        "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "v_snap_000.csv": "418427288cb91a79ef6f2b9c70f318fbc9af2cecc14799e2ea9dba7243991498",
        "v_snap_001.csv": "fa6d4828dab360dd5ecec4b6aa9f4226dc6f4223836bf9167872194d24a39713",
        "v_snap_002.csv": "73086aaf5b3585b77ebed69acd6c1367d8110c26581b217c620eb95cdf088f70",
        "v_summary.json": "a18a7daea52d1927dc9c8b0c9752279b8b47e17ca4359f5b0dd13410a3d0b486",
    }),
    (["simulate", "--tableau", "fe", "--dx", "1", "0", "--mu", "2", "--n", "32",
      "--t-final", "50", "--out", "{d}/b_"], "b_manifest.json", {
        "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b_summary.json": "4319db008f21dd855c05f3068f0c70cbf0ce8e0d5b4a5709d5f049ec88ba5ca9",
    }),
    (["coeffs", "dx", "21", "20", "--out", "{d}/x.csv"], "x.csv.manifest.json", {
        "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "x.csv": "c8ca1882f89001166f16eab351635756c48bb75466ad60301828b79263223de6",
    }),
]

MANIFEST_KEYS = {"command", "params", "version", "outputs", "duration_s"}


def _pinned_run(capsys, tmp_path, argv):
    """Run one CLI command; return (exit code, {name: sha256}, output dir).

    "<stdout>" is the standard output; the other names are the written
    files, manifests excluded."""
    d = tmp_path / "out"
    d.mkdir()
    heun = tmp_path / "heun.json"
    heun.write_text(json.dumps(HEUN))
    argv = [a.replace("{d}", str(d)).replace("{heun}", str(heun)) for a in argv]
    code, out, _ = run(capsys, *argv)
    hashes = {"<stdout>": hashlib.sha256(out.encode()).hexdigest()}
    for p in sorted(d.iterdir()):
        if not p.name.endswith("manifest.json"):
            hashes[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return code, hashes, d


@pytest.mark.parametrize("argv,manifest,want", BYTE_PINS,
                         ids=[f"{i}-{a[0]}" for i, (a, _, _) in enumerate(BYTE_PINS)])
def test_outputs_are_byte_pinned(capsys, tmp_path, argv, manifest, want):
    code, got, d = _pinned_run(capsys, tmp_path, argv)
    assert code == 0
    assert got == want
    names = sorted(p.name for p in d.iterdir())
    if manifest is None:
        assert names == []
        return
    assert manifest in names and len(names) == len(want)  # files + manifest - stdout
    man = json.loads((d / manifest).read_text())
    assert set(man) == MANIFEST_KEYS
    assert man["outputs"] == [str(d / n) for n in want if n != "<stdout>"]
