"""Tableaux, stability polynomials, and region membership."""

import dataclasses
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
    # a holds the rows below the diagonal only: explicit by construction
    assert tab.a == ((), (F(1, 2),), (F(0), F(1, 2)), (F(0), F(0), F(1)))


def test_tableau_fields_are_rows_weights_name_order():
    assert [f.name for f in dataclasses.fields(ButcherTableau)] == ["a", "b", "name", "order"]
    with pytest.raises(ValueError, match="stage row i must hold exactly i entries"):
        ButcherTableau(((F(0),), (F(1), F(0))), (F(1, 2), F(1, 2)))


def test_get_tableau_builds_only_the_one_it_returns(monkeypatch):
    built = []
    from_rows = ButcherTableau.from_rows

    def counted(*args, **kw):
        built.append(kw["name"])
        return from_rows(*args, **kw)

    monkeypatch.setattr(ButcherTableau, "from_rows", staticmethod(counted))
    assert get_tableau("rk4").name == "rk4"
    assert built == ["rk4"]
    assert list(builtin_tableaux()) == built[1:] == ["fe", "rk2", "ssprk2", "rk3", "lsrk3", "rk4"]


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


def test_tableau_needs_a_stage():
    with pytest.raises(ValueError, match="^tableau needs at least one stage$"):
        ButcherTableau((), ())


def test_get_tableau_unknown_name():
    with pytest.raises(KeyError):
        get_tableau("rk17")


def test_stability_polynomial_validation():
    assert StabilityPolynomial((1.0,)).degree == 0
    with pytest.raises(ValueError, match="^empty polynomial$"):
        StabilityPolynomial(())
    with pytest.raises(ValueError):
        StabilityPolynomial((2.0, 1.0))
    with pytest.raises(ValueError):
        StabilityPolynomial((1.0, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_stability_polynomial_refuses_non_finite_coefficients(k, bad):
    # a NaN linear term passed the consistency check, and any NaN or inf
    # made every verdict read index nan
    coeffs = [1.0, 1.0, 0.5, 1 / 6]
    coeffs[k] = bad
    with pytest.raises(ValueError, match="must be finite"):
        StabilityPolynomial(tuple(coeffs))


def test_eval_p_shapes():
    p = stability_polynomial(get_tableau("rk2"))
    assert eval_p(p, 0.0) == 1.0 + 0.0j
    z = np.array([0.0, -1.0, 1j])
    vals = eval_p(p, z)
    assert vals.shape == (3,)
    assert vals[1] == 0.5  # 1 - 1 + 1/2
    np.testing.assert_allclose(vals[2], 0.5 + 1j)


def test_region_membership_pinned_points():
    # |p(z)| against 1 + 1e-14, a slack that absorbs boundary roundoff
    def inside(p, z):
        return np.abs(eval_p(p, z)) <= 1.0 + 1e-14

    fe = stability_polynomial(get_tableau("fe"))
    rk2 = stability_polynomial(get_tableau("rk2"))
    rk4 = stability_polynomial(get_tableau("rk4"))
    assert inside(fe, -2.0)
    assert not inside(fe, -2.1)
    assert not inside(fe, 1e-6j)
    # real-axis footprint of the classical method ends near -2.785
    assert inside(rk4, -2.7)
    assert not inside(rk4, -2.9)
    # |p2(i eps)|^2 = 1 + eps^4/4: above the slack at 1e-3, below at 1e-4
    assert not inside(rk2, 1e-3j)
    assert inside(rk2, 1e-4j)
    mask = inside(fe, np.array([-0.5, -3.0, 0.2]))
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


def test_rows_and_abscissae_of_every_builtin_and_json_tableau(tmp_path):
    tabs = [*builtin_tableaux().values(), tableau_from_json(_json_file(tmp_path, RK4_JSON))]
    for tab in tabs:
        assert [len(row) for row in tab.a] == list(range(tab.stages)), tab.name
        assert tab.c == tuple(sum(row, F(0)) for row in tab.a), tab.name
    assert tabs[-1].c == (0, F(1, 2), F(1, 2), 1)


def _random_tableau_rows(rng):
    """s = 1..6 ragged rows and weights summing to 1, entries p/q with
    q in 1..9 (zeros included, so some stage plans are sparse)."""
    s = int(rng.integers(1, 7))
    entries = map(F, rng.integers(-9, 10, s * s).tolist(), rng.integers(1, 10, s * s).tolist())
    rows = [[next(entries) for _ in range(i)] for i in range(s)]
    b = [next(entries) for _ in range(s - 1)]
    return rows, b + [1 - sum(b, F(0))]


def _exact_coefficients(square, b):
    """1, then b . A^(k-1) 1 for k = 1..s, from the full s x s matrix."""
    s = len(b)
    coeffs, v = [F(1)], [F(1)] * s
    for _ in range(s):
        coeffs.append(sum(bj * vj for bj, vj in zip(b, v)))
        v = [sum(square[i][j] * v[j] for j in range(s)) for i in range(s)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return [float(c) for c in coeffs]


def test_seeded_tableaux_forms_checks_and_polynomials():
    rng = np.random.default_rng(20)
    for _ in range(200):
        rows, b = _random_tableau_rows(rng)
        s = len(b)
        square = [row + [F(0)] * (s - len(row)) for row in rows]
        sums = [sum(row, F(0)) for row in rows]
        tab = ButcherTableau.from_rows(rows, b)
        assert tab == ButcherTableau.from_rows(square, b) == ButcherTableau.from_rows(rows, b, sums)
        assert tab.c == tuple(sums)
        j = int(rng.integers(s))
        off = sums[:j] + [sums[j] + F(1, 1000)] + sums[j + 1:]
        with pytest.raises(ValueError, match="abscissae must equal|first abscissa"):
            ButcherTableau.from_rows(rows, b, off)
        diag = [list(row) for row in square]
        diag[j][j] = F(int(rng.choice([-1, 1])), int(rng.integers(1, 10)))
        with pytest.raises(ValueError, match="strictly lower triangular"):
            ButcherTableau.from_rows(diag, b)
        assert list(stability_polynomial(tab).coeffs) == _exact_coefficients(square, b)


def test_tableau_from_json_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        tableau_from_json(_json_file(tmp_path, {"b": [1]}))
    with pytest.raises(ValueError):
        tableau_from_json(_json_file(tmp_path, [1, 2, 3]))
    with pytest.raises(ValueError):
        tableau_from_json(_json_file(tmp_path, {"a": [[], [1]], "b": [0.5, 0.5], "stages": 3}))
    with pytest.raises(json.JSONDecodeError):
        tableau_from_json(_json_file(tmp_path, "not json {"))
    with pytest.raises(ValueError, match="abscissae length must match stage count"):
        tableau_from_json(_json_file(tmp_path, {"a": [[], [1]], "b": [0.5, 0.5], "c": [0, 1, 2]}))
    with pytest.raises(ValueError, match="stage row longer than stage count"):
        tableau_from_json(_json_file(tmp_path, {"a": [[], [1, 0, 0]], "b": [0.5, 0.5]}))


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


@pytest.mark.parametrize(
    "a,b,c,named",
    [
        ([[], ["1e400"]], [0, 1], None, "tableau entry a[1][0]"),
        ([[], [1]], [0, "1e400"], None, "tableau entry b[1]"),
        ([[], [1]], ["1/2", "1/2"], [0, "1e400"], "tableau entry c[1]"),
        ([[], [1]], ["1.5e308", "1.5e308"], None, "weight sum"),
        ([[], ["-1e308"]], [0, 1], [0, "1e308"], "c[1] minus its row sum"),
        ([[], ["1e200"], [0, "1e200"]], [0, 0, 1], None,
         "stability polynomial coefficient of z^3"),
    ],
    ids=["entry-a", "entry-b", "entry-c", "weight-sum", "row-sum", "coefficient"],
)
def test_values_beyond_the_double_range_are_named(a, b, c, named):
    # a float cast of each would raise OverflowError, not ValueError
    with pytest.raises(ValueError, match=re.escape(f"{named} lies outside the double range")):
        stability_polynomial(ButcherTableau.from_rows(a, b, c))
