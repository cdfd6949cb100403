"""Tableaux, stability polynomials, and region membership."""

import json
import math
import re
from pathlib import Path
from fractions import Fraction as F

import numpy as np
import pytest

from fdmlab import (
    ButcherTableau,
    StabilityPolynomial,
    builtin_tableaux,
    eval_p,
    get_tableau,
    in_stability_region,
    stability_polynomial,
    tableau_from_json,
)

EXPECTED_POLYS = {
    "fe": [F(1), F(1)],
    "rk2": [F(1), F(1), F(1, 2)],
    "ssprk2": [F(1), F(1), F(1, 2)],
    "rk3": [F(1), F(1), F(1, 2), F(1, 6)],
    "lsrk3": [F(1), F(1), F(1, 2), F(1, 6), F(1, 12)],
    "rk4": [F(1), F(1), F(1, 2), F(1, 6), F(1, 24)],
}


@pytest.mark.parametrize("name", sorted(EXPECTED_POLYS))
def test_builtin_stability_polynomials_exact(name):
    p = stability_polynomial(get_tableau(name))
    assert list(p.coeffs) == [float(c) for c in EXPECTED_POLYS[name]]


def test_polynomial_matches_exponential_up_to_order():
    for name, tab in builtin_tableaux().items():
        p = stability_polynomial(tab)
        assert p.degree == tab.stages
        for k in range(tab.order + 1):
            assert p.coeffs[k] == float(F(1, math.factorial(k))), (name, k)


def test_midpoint_and_heun_share_a_polynomial():
    assert stability_polynomial(get_tableau("rk2")).coeffs == \
        stability_polynomial(get_tableau("ssprk2")).coeffs


def test_tableau_structure():
    tab = get_tableau("rk4")
    assert tab.stages == 4
    assert tab.c == (F(0), F(1, 2), F(1, 2), F(1))
    assert sum(tab.b) == 1
    assert tab.b == (F(1, 6), F(1, 3), F(1, 3), F(1, 6))
    assert len(tab.a) == 4 and all(len(row) == 4 for row in tab.a)
    assert all(tab.a[i][j] == 0 for i in range(4) for j in range(i, 4))


def test_from_rows_validation():
    with pytest.raises(ValueError):
        ButcherTableau.from_rows([[0, 1], [0, 0]], [0.5, 0.5])  # not explicit
    with pytest.raises(ValueError):
        ButcherTableau.from_rows([[], [1]], [0.6, 0.6])  # weights sum to 1.2
    with pytest.raises(ValueError):
        ButcherTableau.from_rows([[], [1]], [0.5, 0.5], c=[0.5, 1])  # c[0] != 0
    with pytest.raises(ValueError):
        ButcherTableau.from_rows([[], [1]], [0.5, 0.5], c=[0, 0.25])  # c != row sums
    with pytest.raises(ValueError, match="3 stage rows for 1 weights"):
        ButcherTableau.from_rows([[], [1], [5, 5]], [1])  # not forward Euler


def test_get_tableau_unknown_name():
    with pytest.raises(KeyError):
        get_tableau("rk17")


def test_stability_polynomial_validation():
    assert StabilityPolynomial((1.0,)).degree == 0
    with pytest.raises(ValueError):
        StabilityPolynomial((2.0, 1.0))
    with pytest.raises(ValueError):
        StabilityPolynomial((1.0, 0.5))


def test_eval_p_shapes():
    p = stability_polynomial(get_tableau("rk2"))
    assert eval_p(p, 0.0) == 1.0 + 0.0j
    z = np.array([0.0, -1.0, 1j])
    vals = eval_p(p, z)
    assert vals.shape == (3,)
    assert vals[1] == 0.5  # 1 - 1 + 1/2
    np.testing.assert_allclose(vals[2], 0.5 + 1j)


def test_region_membership_pinned_points():
    fe = stability_polynomial(get_tableau("fe"))
    rk2 = stability_polynomial(get_tableau("rk2"))
    rk4 = stability_polynomial(get_tableau("rk4"))
    assert in_stability_region(fe, -2.0)
    assert not in_stability_region(fe, -2.1)
    assert not in_stability_region(fe, 1e-6j)
    # real-axis footprint of the classical method ends near -2.785
    assert in_stability_region(rk4, -2.7)
    assert not in_stability_region(rk4, -2.9)
    # |p2(i eps)|^2 = 1 + eps^4/4: above the slack at 1e-3, below at 1e-4
    assert not in_stability_region(rk2, 1e-3j)
    assert in_stability_region(rk2, 1e-4j)
    mask = in_stability_region(fe, np.array([-0.5, -3.0, 0.2]))
    assert list(mask) == [True, False, False]


RK4_JSON = {
    "name": "classical",
    "order": 4,
    "a": [[], ["1/2"], [0, "1/2"], [0, 0, 1]],
    "b": ["1/6", "1/3", "1/3", "1/6"],
}


def _json_file(tmp_path, content) -> str:
    path = tmp_path / "tableau.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def test_tableau_from_json_forms(tmp_path):
    want = get_tableau("rk4")
    path = _json_file(tmp_path, RK4_JSON)
    for source in (path, Path(path)):
        loaded = tableau_from_json(source)
        assert loaded.a == want.a and loaded.b == want.b and loaded.c == want.c
        assert loaded.name == "classical"
        assert stability_polynomial(loaded).coeffs == stability_polynomial(want).coeffs


def test_tableau_from_json_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        tableau_from_json(_json_file(tmp_path, {"b": [1]}))
    with pytest.raises(ValueError):
        tableau_from_json(_json_file(tmp_path, [1, 2, 3]))
    with pytest.raises(ValueError):
        tableau_from_json(_json_file(tmp_path, {"a": [[], [1]], "b": [0.5, 0.5], "stages": 3}))
    with pytest.raises(json.JSONDecodeError):
        tableau_from_json(_json_file(tmp_path, "not json {"))


def test_tableau_from_json_takes_a_path_not_json_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError):
        tableau_from_json('{"a": [[]], "b": [1]}')


@pytest.mark.parametrize(
    "content,entry",
    [
        ({"a": [[], [[1]]], "b": [0.5, 0.5]}, "[1]"),
        ({"a": [[]], "b": 1}, '"b"'),
        ({"a": 5, "b": [1]}, '"a"'),
        ({"a": [[]], "b": [1], "c": "0"}, '"c"'),
        ({"a": [[]], "b": [None]}, "None"),
        ({"a": [[]], "b": ["1/0"]}, "1/0"),
        ('{"a": [[]], "b": [Infinity]}', "inf"),
    ],
)
def test_tableau_from_json_names_the_bad_entry(tmp_path, content, entry):
    with pytest.raises(ValueError, match=re.escape(entry)):
        tableau_from_json(_json_file(tmp_path, content))
