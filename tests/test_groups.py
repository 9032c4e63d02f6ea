"""Group data: duals, weights, matrix coefficients, Haar quadrature."""

import ast
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len
from scipy.linalg import expm
from scipy.special import roots_jacobi

import peterweyl
from peterweyl import groups, norms
from peterweyl.fourier import SpectralFunction, dirichlet, partial_sum
from peterweyl.groups import (
    MAX_DUAL_ENTRIES,
    MAX_REP_INDEX,
    WEIGHT_SQ_DEN,
    DomainError,
    GroupId,
    _isqrt,
    _lattice_count,
    ResourceLimitError,
    band_budget,
    budget_dual_arrays,
    dual_arrays,
    dual_size,
    enumerate_dual,
    parse_group,
    parse_number,
    quadrature,
    rep_arrays,
    su2,
    torus,
    validate_rep,
    weight_sq,
    weyl_count,
    wigner_d_tables,
)

from elements import (
    euler_to_su2,
    matrix_coefficient,
    nodes,
    random_element,
    rep_dim,
    spin_matrix,
    weights,
)

T1 = torus(1)
T2 = torus(2)
T3 = torus(3)
SU2 = su2()


# ---------------------------------------------------------------------------
# duals and weights


def test_parse_group_round_trip():
    for g in (T1, T2, T3, SU2):
        assert parse_group(str(g)) == g
    with pytest.raises(DomainError):
        parse_group("so3")
    with pytest.raises(DomainError):
        parse_group("torus:9")
    # spaces around a spec are ASCII, as in every number text
    assert parse_group(" torus:02\t") == T2
    for text in ("\u2003su2", "su2\u00a0", "torus:\u20032"):
        with pytest.raises(DomainError):
            parse_group(text)


def test_parse_number_reads_plain_finite_text_or_inf():
    assert parse_number(" 2.5 ") == 2.5 and parse_number("inf") == math.inf
    assert parse_number("-3", int) == -3
    for text in ("Infinity", "INF", "-inf", "1e999", "nan", "1_0", "\uff11", "", "x"):
        with pytest.raises(DomainError):
            parse_number(text)
    for text in ("2.0", "inf", "1e3", "9" * 5000):
        with pytest.raises(DomainError):
            parse_number(text, int)


@pytest.mark.parametrize("kind,dim", [("su2", 2), ("sphere", 2)])
def test_group_id_refuses_a_malformed_group(kind, dim):
    with pytest.raises(DomainError):
        GroupId(kind, dim)


def test_enumerate_dual_torus_examples():
    assert enumerate_dual(T1, 2.0) == [(-1,), (0,), (1,)]
    assert enumerate_dual(T1, 1.0) == [(0,)]
    with pytest.raises(DomainError):
        enumerate_dual(T1, 0.5)


def test_enumerate_dual_su2_brute_force():
    # keep exactly the twoL with 1 + l(l+1) <= L^2, scanning twoL = 0..10
    expected = [
        twoL
        for twoL in range(11)
        if 1 + (twoL / 2) * (twoL / 2 + 1) <= 4.0 + 1e-15
    ]
    assert expected == [0, 1, 2]
    assert enumerate_dual(SU2, 2.0) == expected


def test_enumerate_dual_boundary_exact():
    # membership follows the exact rational comparison <xi>^2 <= L^2 with
    # L^2 the exact square of the given float: no drift either side
    from fractions import Fraction

    wsq = weight_sq(SU2, 2)  # exactly 3
    below = math.nextafter(math.sqrt(3.0), 0.0)
    above = math.nextafter(math.sqrt(3.0), 4.0)
    assert (2 in enumerate_dual(SU2, below)) == (wsq <= Fraction(below) ** 2)
    assert (2 in enumerate_dual(SU2, above)) == (wsq <= Fraction(above) ** 2)
    assert 2 in enumerate_dual(SU2, above)


def test_malformed_rep_index():
    with pytest.raises(DomainError):
        validate_rep(T2, (1,))
    with pytest.raises(DomainError):
        validate_rep(SU2, -1)
    with pytest.raises(DomainError):
        validate_rep(SU2, (1,))


def test_weyl_count_examples():
    assert weyl_count(T1, 2.0) == 3
    assert weyl_count(T1, 3.0) == 5  # k^2 <= 8
    assert weyl_count(SU2, 10.0) == 2470  # sum of m^2, m = 1..19
    for g in (T1, T2, T3, SU2):
        assert weyl_count(g, 1.0) == 1


def test_weyl_count_matches_enumeration():
    for g, L in [(T1, 7.3), (T2, 4.5), (SU2, 5.0)]:
        total = sum(rep_dim(g, xi) ** 2 for xi in enumerate_dual(g, L))
        assert weyl_count(g, L) == total


def _fraction_lattice_count(budget, dims):
    # The Fraction-budget recursion that counted torus lattice points before
    # the integer one; kept as the reference.
    if budget < 0:
        return 0
    if dims == 1:
        return 2 * math.isqrt(math.floor(budget)) + 1
    kmax = math.isqrt(math.floor(budget))
    return sum(
        _fraction_lattice_count(budget - k * k, dims - 1) for k in range(-kmax, kmax + 1)
    )


def test_lattice_count_matches_fraction_recursion():
    bands = [1.0, 1.5, 2.0, 2.5, 3.0, 4.5, 5.0, 6.75, 7.3, 10.0, 10 / 3, 12.2]
    for g in (T1, T2, T3):
        for L in bands:
            ref = _fraction_lattice_count(Fraction(L) ** 2 - 1, g.dim)
            assert weyl_count(g, L) == ref, (g, L)
    # budgets on and next to the dyadic edges 4^k, and below zero
    for dims, kmax in ((1, 20), (2, 12), (3, 6)):
        for k in range(kmax + 1):
            for delta in (Fraction(-1), Fraction(-1, 4), 0, Fraction(1, 4), Fraction(1)):
                budget = 4**k + delta
                assert _lattice_count(budget, dims) == _fraction_lattice_count(budget, dims)
        assert _lattice_count(Fraction(-1, 3), dims) == 0


def test_lattice_count_at_perfect_squares():
    # budgets on and next to s^2, where a float root is most likely to be off
    for dims, top in ((2, 40), (3, 12)):
        for root in range(1, top):
            for budget in (root * root - 1, root * root, root * root + 1):
                assert _lattice_count(budget, dims) == _fraction_lattice_count(budget, dims)
    # counts from the per-value walk the numpy pass replaced
    assert weyl_count(T2, 1e7) == 314159265350529
    assert weyl_count(T3, 2000.0) == 33510290243


def test_isqrt_is_exact_near_squares_past_2_52():
    # float(r) rounds once r passes 2^53; s^2 - 1 then reads as s^2
    roots = np.unique(np.concatenate([
        np.arange(2**26 - 50, 2**26 + 50), np.arange(2**31 - 100, 2**31),
        np.geomspace(2**26, 2**31 - 1, 3000).astype(np.int64),
    ]))
    r = np.concatenate([roots * roots + d for d in (-2, -1, 0, 1, 2)])
    assert r.max() < 2**62 and (r > 2**52).mean() > 0.9
    assert _isqrt(r).tolist() == [math.isqrt(v) for v in r.tolist()]


def _su2_dual_by_loop(L):
    # The scan over twoL that listed and counted the SU(2) dual before the
    # closed form; kept as the reference.
    budget = Fraction(L) ** 2
    reps = []
    while weight_sq(SU2, len(reps)) <= budget:
        reps.append(len(reps))
    return reps, sum((twoL + 1) ** 2 for twoL in reps)


def test_su2_closed_form_matches_loop():
    bands = [1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 10.0, 33.3, 100.0, 1234.5]
    for twoL in range(40):  # every edge <xi> = sqrt(1 + l(l+1)), and its neighbours
        edge = math.sqrt(float(weight_sq(SU2, twoL)))
        bands += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    for L in bands:
        if L < 1.0:
            continue
        reps, count = _su2_dual_by_loop(L)
        assert enumerate_dual(SU2, L) == reps, L
        assert weyl_count(SU2, L) == count, L
        assert dual_size(SU2, L) == len(reps), L


def _fraction_lattice_points(budget, dims):
    # The Fraction-budget recursion that listed torus lattice points as
    # tuples before the integer walk; kept as the reference.
    if budget < 0:
        return []
    kmax = math.isqrt(math.floor(budget))
    if dims == 1:
        return [(k,) for k in range(-kmax, kmax + 1)]
    return [(k,) + rest for k in range(-kmax, kmax + 1)
            for rest in _fraction_lattice_points(budget - k * k, dims - 1)]


def _edge_bands(g, top):
    # Every weight <xi> <= top (sqrt(m) on tori, the twoL edges on SU(2)),
    # and the float neighbours on both sides of it.
    if g.kind == "torus":
        squares = range(1, top * top + 1)
    else:
        squares = [weight_sq(g, twoL) for twoL in range(2 * top)]
    bands = []
    for w in squares:
        edge = math.sqrt(float(w))
        bands += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    return [L for L in bands if L >= 1.0]


@pytest.mark.parametrize("g, top", [(T1, 12), (T2, 6), (T3, 4), (SU2, 10)])
def test_band_membership_matches_fraction_reference(g, top):
    outer = dirichlet(g, top + 1.0)
    for L in _edge_bands(g, top):
        budget = Fraction(L) ** 2
        if g.kind == "torus":
            reps = _fraction_lattice_points(budget - 1, g.dim)
        else:
            reps, _ = _su2_dual_by_loop(L)
        assert band_budget(L) == math.floor(WEIGHT_SQ_DEN * budget)
        assert enumerate_dual(g, L) == reps, L
        D = dirichlet(g, L)
        for got in (dual_arrays(g, L), budget_dual_arrays(g, band_budget(L)),
                    (D.index, D.dims, D.wsq)):
            assert [a.tolist() for a in got] == [a.tolist() for a in rep_arrays(g, reps)], L
        assert dual_size(g, L) == len(reps)
        assert weyl_count(g, L) == sum(rep_dim(g, xi) ** 2 for xi in reps)
        inside = [xi for xi in outer.support() if weight_sq(g, xi) <= budget]
        assert partial_sum(outer, L).support() == inside, L


def test_band_budget_is_exact_and_refuses_bad_bands():
    for L in (1, 1.0, 2.5, math.sqrt(2.0), 7071.0001, 1e300):
        assert band_budget(L) == math.floor(WEIGHT_SQ_DEN * Fraction(L) ** 2)
    assert band_budget(1.0) == WEIGHT_SQ_DEN
    for L in (0.5, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="finite and >= 1"):
            band_budget(L)


def _budget_reference(L):
    # floor(WEIGHT_SQ_DEN L^2) in fractions, as band_budget once computed it.
    return math.floor(WEIGHT_SQ_DEN * Fraction(L) ** 2)


@given(st.floats(min_value=1.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_band_budget_matches_the_fraction_reference(L):
    assert band_budget(L) == _budget_reference(L)
    for edge in (1.0 + 2.0**-52, math.sqrt(2.0), 1e300, math.nextafter(2.0, 0.0)):
        assert band_budget(edge) == _budget_reference(edge)


def test_weyl_count_refuses_a_walk_past_the_cap(monkeypatch):
    for g in (T2, T3):
        with pytest.raises(ResourceLimitError, match="would walk"):
            weyl_count(g, 1e300)
    # T^1 needs no walk, so any finite band answers
    assert weyl_count(T1, 1e300) == 2 * math.isqrt(math.floor(Fraction(1e300) ** 2) - 1) + 1
    # the walk over the first n-1 axes visits at most (isqrt(b) + 1)^(n-1)
    # values, b = L^2 - 1 floored; a walk of exactly the cap still runs
    monkeypatch.setattr(groups, "_lattice_count", lambda b, dims: (b, dims))
    assert weyl_count(T3, 2000.0) == (2000**2 - 1, 3)
    assert (7070 + 1) ** 2 <= MAX_DUAL_ENTRIES < (7071 + 1) ** 2
    assert weyl_count(T3, 7071.0) == (7071**2 - 1, 3)
    assert weyl_count(T2, 5e7) == (25 * 10**14 - 1, 2)
    for g, L in ((T3, 7071.0001), (T2, 5e7 + 1)):
        with pytest.raises(ResourceLimitError, match="would walk"):
            weyl_count(g, L)


def test_dual_size_refuses_huge_bands_before_counting(monkeypatch):
    for g, L in ((T1, 7.3), (T2, 40.0), (T3, 12.5), (SU2, 50.0)):
        assert dual_size(g, L) == len(enumerate_dual(g, L))
    for g in (T1, T2, T3, SU2):
        for listing in (dual_size, enumerate_dual):
            with pytest.raises(ResourceLimitError, match="dual listing would hold"):
                listing(g, 1e300)
    # torus:1 holds 2k + 1 reps: the largest odd count under the cap passes
    k = (MAX_DUAL_ENTRIES - 1) // 2
    assert dual_size(T1, k + 0.5) == 2 * k + 1 == weyl_count(T1, k + 0.5)
    with pytest.raises(ResourceLimitError):
        dual_size(T1, k + 1.5)
    # torus:3 past the cap although its cube lower bound is under it
    assert (2 * math.isqrt(math.floor((300.0**2 - 1) / 3)) + 1) ** 3 <= MAX_DUAL_ENTRIES
    with pytest.raises(ResourceLimitError):
        enumerate_dual(T3, 300.0)
    # once the cube bound is past the cap, nothing is counted: on torus:2 the
    # cube |k_a| <= 3536 holds 7073^2 > MAX_DUAL_ENTRIES points
    assert 7073**2 > MAX_DUAL_ENTRIES
    monkeypatch.setattr(groups, "_lattice_count", lambda *args: pytest.fail("counted"))
    with pytest.raises(ResourceLimitError):
        dual_size(T2, 3536 * 1.4143)


def test_rep_arrays_are_exact_weights_and_dims():
    for g, L in ((T1, 9.0), (T2, 6.0), (T3, 4.0), (SU2, 12.0)):
        reps = enumerate_dual(g, L)
        index, dims, wsq = rep_arrays(g, reps)
        assert index.dtype == dims.dtype == wsq.dtype == np.int64
        assert index.shape == (len(reps), g.rank)
        assert dims.tolist() == [rep_dim(g, xi) for xi in reps]
        assert wsq.tolist() == [WEIGHT_SQ_DEN * weight_sq(g, xi) for xi in reps]
    # the largest valid indices keep their weights exact in int64
    for g, top in ((T3, (-MAX_REP_INDEX,) * 3), (SU2, MAX_REP_INDEX)):
        assert rep_arrays(g, [top])[2].tolist() == [WEIGHT_SQ_DEN * weight_sq(g, top)]
    for g, xi in ((T1, (MAX_REP_INDEX + 1,)), (T2, (0, -MAX_REP_INDEX - 1)),
                  (T1, (2**70,)), (T1, (-(2**63),)), (SU2, MAX_REP_INDEX + 1)):
        with pytest.raises(DomainError, match="within"):
            validate_rep(g, xi)


@given(st.floats(min_value=1.0, max_value=25.0), st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_weyl_count_nondecreasing(L, bump):
    for g in (T1, SU2):
        assert weyl_count(g, L + bump) >= weyl_count(g, L)


# ---------------------------------------------------------------------------
# matrix coefficients: the package's Wigner-d tables, and the per-element
# reference of tests/elements.py


def test_identity_matrix_coefficient():
    for g, xi in [(T1, (2,)), (T2, (1, -1)), (SU2, 0), (SU2, 1), (SU2, 3)]:
        mat = matrix_coefficient(g, xi, (0.0,) * g.dim)  # SU(2): three Euler angles
        assert np.abs(mat - np.eye(rep_dim(g, xi))).max() < 1e-14


def test_torus_character_value():
    val = matrix_coefficient(T1, (2,), (math.pi / 2,))[0, 0]
    assert val == pytest.approx(-1.0, abs=1e-15)


def test_wigner_half_entry():
    beta = 0.7
    d = wigner_d_tables(1, [math.cos(beta)])[1][:, :, 0]
    assert d[0, 0] == pytest.approx(math.cos(beta / 2), rel=1e-15, abs=0.0)
    assert d[0, 1] == pytest.approx(-math.sin(beta / 2), rel=1e-15)
    assert d[1, 0] == pytest.approx(math.sin(beta / 2), rel=1e-15, abs=0.0)


def _jy(twoL: int) -> np.ndarray:
    # angular momentum Jy in the m = l..-l basis; oracle for the recurrence
    dim = twoL + 1
    j = twoL / 2.0
    ms = j - np.arange(dim)
    jp = np.zeros((dim, dim), dtype=complex)
    for i in range(1, dim):
        m = ms[i]
        jp[i - 1, i] = math.sqrt(j * (j + 1) - m * (m + 1))
    return (jp - jp.conj().T) / 2j


@pytest.mark.parametrize("twoL", [0, 1, 2, 3, 5, 8, 13, 20, 40, 100])
def test_wigner_d_against_exponential_oracle(twoL):
    rng = np.random.default_rng(42 + twoL)
    betas = rng.uniform(0.0, math.pi, 4)
    ours = wigner_d_tables(twoL, np.cos(betas))[twoL]
    for k, beta in enumerate(betas):
        oracle = expm(-1j * beta * _jy(twoL)).real
        assert np.abs(ours[:, :, k] - oracle).max() < 1e-12


def test_wigner_d_tables_at_the_poles():
    # The Lobatto beta nodes of every SU(2) rule include both poles z = +-1,
    # where the half angles are exactly 1 and 0.
    betas = np.array([0.0, math.pi])
    tabs = wigner_d_tables(8, [1.0, -1.0])
    assert [t.shape for t in tabs] == [(t + 1, t + 1, 2) for t in range(9)]
    c, s = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert np.array_equal(tabs[1], np.array([[c, -s], [s, c]]))  # d^(1/2) in closed form
    for twoL in range(9):
        for k, beta in enumerate(betas):
            oracle = expm(-1j * beta * _jy(twoL)).real
            assert np.abs(tabs[twoL][:, :, k] - oracle).max() < 1e-14, (twoL, beta)


def test_wigner_d_tables_are_orthogonal_up_to_spin_100():
    z = np.cos(np.random.default_rng(3).uniform(0.0, math.pi, 3))
    for twoL, tab in enumerate(wigner_d_tables(200, z)):
        gram = np.einsum("ijk,ljk->kil", tab, tab)  # tabs[t] @ tabs[t].T per node
        assert np.abs(gram - np.eye(twoL + 1)).max() < 1e-12, twoL


def test_wigner_d_tables_refuse_a_negative_spin_and_a_torus_rule():
    with pytest.raises(DomainError, match="twoL_max"):
        wigner_d_tables(-1, np.zeros(3))
    with pytest.raises(DomainError, match="su2"):
        quadrature(T2, 2.0).d_tables(2)


@pytest.mark.parametrize("twoL", range(9))
def test_reference_matches_the_exponential_oracle(twoL):
    # D^l(alpha, beta, gamma) = expm(-i alpha Jz) expm(-i beta Jy)
    # expm(-i gamma Jz), gamma over [0, 4 pi) for half-integer spins; the
    # spin-1/2 matrix is the element itself.
    rng = np.random.default_rng(50 + twoL)
    jz = np.diag(twoL / 2.0 - np.arange(twoL + 1))
    for _ in range(4):
        alpha, beta, gamma = random_element(SU2, rng)
        oracle = expm(-1j * alpha * jz) @ expm(-1j * beta * _jy(twoL)) @ expm(-1j * gamma * jz)
        assert np.abs(matrix_coefficient(SU2, twoL, (alpha, beta, gamma)) - oracle).max() < 1e-12
        u = euler_to_su2(alpha, beta, gamma)
        assert np.array_equal(spin_matrix(1, u), u)


def test_unitarity_random_elements():
    rng = np.random.default_rng(7)
    for g, reps in [(T2, enumerate_dual(T2, 3.0)), (SU2, enumerate_dual(SU2, 3.0))]:
        for xi in reps:
            d = rep_dim(g, xi)
            for _ in range(100):
                x = random_element(g, rng)
                mat = matrix_coefficient(g, xi, x)
                assert np.abs(mat @ mat.conj().T - np.eye(d)).max() < 1e-10


def test_homomorphism_random_pairs():
    # torus elements compose by adding angles, SU(2) ones as 2x2 matrices
    rng = np.random.default_rng(11)
    for g in (T1, T2):
        for _ in range(25):
            x, y = random_element(g, rng), random_element(g, rng)
            xy = tuple(a + b for a, b in zip(x, y))
            for xi in enumerate_dual(g, 3.0):
                lhs = matrix_coefficient(g, xi, xy)
                rhs = matrix_coefficient(g, xi, x) @ matrix_coefficient(g, xi, y)
                assert np.abs(lhs - rhs).max() < 1e-9
    for _ in range(25):
        u, v = (euler_to_su2(*random_element(SU2, rng)) for _ in range(2))
        for twoL in enumerate_dual(SU2, 3.0):
            lhs = spin_matrix(twoL, u @ v)
            assert np.abs(lhs - spin_matrix(twoL, u) @ spin_matrix(twoL, v)).max() < 1e-9


def test_elements_reference_imports_nothing_from_the_package():
    # tests/elements.py is a reference only while it shares no code with peterweyl
    tree = ast.parse(Path(__file__).with_name("elements.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    roots = {alias.name.split(".")[0] for node in imports if isinstance(node, ast.Import)
             for alias in node.names}
    roots |= {node.module.split(".")[0] for node in imports if isinstance(node, ast.ImportFrom)}
    assert imports and all(getattr(node, "level", 0) == 0 for node in imports)
    assert "peterweyl" not in roots, roots


def test_every_exported_name_resolves():
    assert len(set(peterweyl.__all__)) == len(peterweyl.__all__)
    for name in peterweyl.__all__:
        assert hasattr(peterweyl, name), name


# ---------------------------------------------------------------------------
# quadrature


def test_torus_rule_basics():
    rule = quadrature(T1, 4.0)
    assert rule.node_count >= 9
    assert abs(weights(rule).sum() - 1.0) < 1e-12
    assert np.all(weights(rule) > 0)
    assert np.abs(nodes(rule)[0]).max() == 0.0  # the identity element
    xs = rule.axes[0]
    for k in range(-8, 9):
        val = (np.exp(1j * k * xs) / rule.node_count).sum()
        target = 1.0 if k == 0 else 0.0
        assert abs(val - target) < 1e-12


@pytest.mark.parametrize("g,band", [(T1, 3.0), (T2, 2.5), (SU2, 2.5)])
def test_rule_normalization_and_identity_node(g, band):
    rule = quadrature(g, band)
    assert abs(weights(rule).sum() - 1.0) < 1e-12
    assert np.all(weights(rule) > 0)
    x0 = tuple(nodes(rule)[0])
    for xi in enumerate_dual(g, band):
        d = rep_dim(g, xi)
        assert np.abs(matrix_coefficient(g, xi, x0) - np.eye(d)).max() < 1e-13


@pytest.mark.parametrize("g,band", [(T1, 2.5), (T2, 2.0), (SU2, 2.5)])
def test_peter_weyl_orthonormality(g, band):
    # integral of sqrt(d d') xi_ij conj(eta_kl) over the rule must be the
    # identity pairing for every pair of entries within band
    rule = quadrature(g, band)
    cols = []
    for xi in enumerate_dual(g, band):
        d = rep_dim(g, xi)
        vals = np.array(
            [matrix_coefficient(g, xi, tuple(x)) for x in nodes(rule)]
        )  # (N, d, d)
        for i in range(d):
            for j in range(d):
                cols.append(math.sqrt(d) * vals[:, i, j])
    mat = np.array(cols)
    gram = (mat * weights(rule)) @ mat.conj().T
    assert np.abs(gram - np.eye(len(cols))).max() < 1e-10


def test_su2_character_normalization():
    # the L=2 rule integrates |chi_{1/2}|^2 to exactly 1
    rule = quadrature(SU2, 2.0)
    chi = np.array(
        [np.trace(matrix_coefficient(SU2, 1, tuple(x))) for x in nodes(rule)]
    )
    val = float(np.real((np.abs(chi) ** 2 * weights(rule)).sum()))
    assert val == pytest.approx(1.0, abs=1e-10)


def test_lobatto_matches_scipy_and_is_exact_to_degree_2n_minus_3():
    # Golub-Welsch nodes with one Newton step, against scipy's Jacobi(1,1)
    # roots; the weights integrate x^d exactly for d <= 2n - 3.
    for n in range(2, 201):
        x, w = groups._lobatto(n)
        assert x[0] == -1.0 and x[-1] == 1.0 and (np.diff(x) > 0).all() and (w > 0).all()
        if n > 2:
            ref = roots_jacobi(n - 2, 1.0, 1.0)[0]
            assert np.abs(x[1:-1] - ref).max() <= 4 * np.spacing(1.0), n
        for d in range(2 * n - 2):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(w @ x**d - exact) <= 1e-14, (n, d)


def _su2_edge_error(c, na, nb, ng):
    # Largest deviation from Schur orthogonality, <D^l_mn, D^l'_m'n'> =
    # delta / (2l + 1), on the product grid of na alpha, nb Lobatto beta and
    # ng gamma nodes, over every entry of the two heaviest reps a degree-c
    # rule covers: twoL = c - 2 and c - 3, one of each parity.  The alpha and
    # gamma sums depend on 2(m - m') and 2(n - n') alone.
    reps = [t for t in (c - 2, c - 3) if t >= 0]
    t, i, j = (np.array(v) for v in zip(*[(t, i, j) for t in reps
                                          for i in range(t + 1) for j in range(t + 1)]))
    twoM, twoN = t - 2 * i, t - 2 * j
    k = np.arange(-2 * c, 2 * c + 1)
    alpha = 2.0 * np.pi * np.arange(na) / na
    gamma = 4.0 * np.pi * np.arange(ng) / ng
    a_sum = np.exp(-0.5j * np.outer(k, alpha)).mean(axis=1)
    g_sum = np.exp(-0.5j * np.outer(k, gamma)).mean(axis=1)
    z, w = groups._lobatto(nb)
    tabs = wigner_d_tables(max(reps), z)
    d = np.array([tabs[a][b, e] for a, b, e in zip(t, i, j)])
    gram = (a_sum[np.subtract.outer(twoM, twoM) + 2 * c]
            * g_sum[np.subtract.outer(twoN, twoN) + 2 * c] * ((d * w / 2.0) @ d.T))
    return np.abs(gram - np.diag(1.0 / (t + 1))).max()


def test_su2_rule_is_exact_at_its_band_edge_and_no_axis_can_lose_a_node():
    # twoL = c - 2 is the heaviest rep with 4 <xi>^2 <= c^2: the counts
    # (c - 1, c // 2 + 1, 2c - 3) integrate its products exactly, and from
    # c = 4 on one node fewer on any axis breaks them.  (At c = 3 the two
    # beta nodes are the poles, where the spin-1/2 entries that 1 alpha or 2
    # gamma points would alias vanish.)
    for c in range(2, 25):
        counts = groups._axis_counts(SU2, c)
        assert counts == (c - 1, c // 2 + 1, 2 * c - 3)
        assert rep_arrays(SU2, [c - 2])[2][0] <= c * c < rep_arrays(SU2, [c - 1])[2][0]
        rule = quadrature(SU2, c / 2.0)
        assert rule.degree == c and rule.shape == counts
        assert _su2_edge_error(c, *counts) <= 1e-13, c
        for axis in range(3):
            fewer = list(counts)
            fewer[axis] -= 1
            if c >= 4:
                assert _su2_edge_error(c, *fewer) > 1e-3, (c, axis)


def test_su2_rules_and_spectral_files_leave_scipy_linalg_unimported():
    # numpy is the only runtime dependency: importing the package, building an
    # SU(2) rule, a dump/load round trip, torus FFT synthesis and analysis,
    # a pointwise power and a verify suite import no scipy module.
    code = ("import sys, peterweyl\n"
            "from peterweyl import cli, fourier, groups, verify\n"
            "rule = groups.quadrature(groups.su2(), 8.0)\n"
            "F = verify.make_corpus(groups.su2(), 8.0, 1, 7).functions[0]\n"
            "G = fourier.load_spectral(fourier.dump_spectral(F))\n"
            "assert G.digest == F.digest and rule.node_count == 3915\n"
            "for g in ('torus:1', 'torus:2'):\n"
            "    T = verify.make_corpus(groups.parse_group(g), 4.0, 1, 7).functions[0]\n"
            "    f = fourier.synthesize(T, groups.quadrature(T.group, 4.0))\n"
            "    fourier.analyze(f, 4.0)\n"
            "    fourier.pointwise_power(T, 2)\n"
            "assert cli.main(['verify', 'sharpness']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(groups.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_quadrature_determinism_and_cap():
    a = quadrature(T2, 3.0)
    b = quadrature(T2, 3.0)
    assert a is b  # cached, hence trivially deterministic
    with pytest.raises(ResourceLimitError):
        quadrature(SU2, 50.0, max_nodes=1000)
    with pytest.raises(DomainError):
        quadrature(T1, 0.5)


def _held_floats(rules):
    # The floats the rules' axes and weights hold (cos(beta) too on SU(2)),
    # their built folds' included, each buffer once: a fold's axes are views
    # of its rule's.
    owners = {}
    for rule in rules:
        for r in (rule,) if rule._folded is None else (rule, rule._folded):
            for a in (*r.axes, *r.axis_weights, *(() if r._z is None else (r._z,))):
                owner = a if a.base is None else a.base
                owners[id(owner)] = owner.size
    return sum(owners.values())


def test_rule_cache_keeps_rules_within_its_float_budget():
    # The cache counts what its rules hold, a torus rule's fold included;
    # a slow T^1 ladder climbs to rules past the budget (uncapped, to
    # millions of floats), which it does not keep, and what it keeps stays
    # within the budget.
    cache = groups._RULES
    cache.clear()
    norms.clear_memos()
    norms.lp_norms(dirichlet(T2, 8.0), [1.0])  # sign-even: every level folds
    kept = [rule for rule, _ in cache._entries.values()]
    assert kept and all(rule._folded is not None for rule in kept)
    assert _held_floats(kept) == cache.size
    F = SpectralFunction(T1, {(0,): [[1.0]], (1,): [[1.0]]})
    info = norms.lp_norms(F, [0.1], 500_000)[0.1][1]
    assert info["certified"] == "capped"
    kept = [rule for rule, _ in cache._entries.values()]
    assert 2 * info["nodes"] > cache.budget
    assert all(rule.node_count < info["nodes"] for rule in kept)
    assert _held_floats(kept) <= cache.size <= cache.budget
    # a rule past the budget is built anew for each call, the same rule
    rule = quadrature(T1, info["bandlimit"])
    assert rule is not quadrature(T1, info["bandlimit"]) and rule.node_count == info["nodes"]


def _ceil_2b_counts(g, band):
    # The grid sizes before rules were keyed by an integer degree: c =
    # ceil(2B) from the float band; kept as the reference.
    c = math.ceil(2.0 * band)
    if g.kind == "torus":
        return (int(next_fast_len(2 * c + 1)),) * g.dim
    return (c - 1, c // 2 + 1, 2 * c - 3)


@pytest.mark.parametrize("g", [T1, T2, T3, SU2], ids=str)
def test_degree_sizes_ladder_and_power_bands_as_ceil_2b(monkeypatch, g):
    # The bands the norm ladder asks for (W 2^j) and multiples (rho + 1) W,
    # W = max_weight of a support, get the grids ceil(2B) gave them.
    monkeypatch.setattr(groups, "_build_rule", lambda group, degree: degree)
    if g.kind == "torus":
        weights = [WEIGHT_SQ_DEN * (1 + m) for m in range(2000)]  # every T^n weight up to it
    else:
        weights = rep_arrays(SU2, list(range(2000)))[2].tolist()
    for wsq in weights:
        w = math.sqrt(wsq / WEIGHT_SQ_DEN)  # SpectralFunction.max_weight
        for band in [w * 2.0**j for j in range(7)] + [(rho + 1) * w for rho in range(1, 6)]:
            degree = quadrature(g, band, max_nodes=10**40)
            assert degree * degree >= band_budget(band) > (degree - 1) ** 2
            assert groups._axis_counts(g, degree) == _ceil_2b_counts(g, band), (wsq, band)


def _is_11_smooth(m):
    for p in (2, 3, 5, 7, 11):
        while m % p == 0:
            m //= p
    return m == 1


def test_next_fast_len_is_the_least_11_smooth_length_at_least_n():
    smooth = [m for m in range(1, 6000) if _is_11_smooth(m)]
    for n in range(1, 5000):
        assert groups._next_fast_len.__wrapped__(n) == min(m for m in smooth if m >= n), n


def test_next_fast_len_matches_scipy():
    # Every n below 20,000, then both sides of each step up to 200,000 (the
    # 11-smooth lengths scipy lists) and a few lengths a huge node cap reaches.
    steps = sorted({int(next_fast_len(n)) for n in range(1, 200_000)})
    ns = set(range(1, 20_000)) | {s + d for s in steps for d in (0, 1)}
    ns |= {10**9 + 7, 10**12 + 1, 5 * 10**17 + 3}
    for n in sorted(ns):
        assert groups._next_fast_len.__wrapped__(n) == next_fast_len(n), n


def test_quadrature_refuses_huge_bands_before_any_fft_length(monkeypatch):
    for g in (T1, T2, T3, SU2):
        with pytest.raises(ResourceLimitError):
            quadrature(g, 1e200)
    rule = quadrature(T2, 3.0)
    assert quadrature(T2, 3.0, max_nodes=rule.node_count) is rule
    with pytest.raises(ResourceLimitError):
        quadrature(T2, 3.0, max_nodes=rule.node_count - 1)
    # past the lower bound (2c+1)^n no FFT length is asked for
    monkeypatch.setattr(groups, "_next_fast_len", lambda n: pytest.fail(f"FFT length {n}"))
    for g in (T1, T2, T3):
        with pytest.raises(ResourceLimitError):
            quadrature(g, 1e200)
        with pytest.raises(ResourceLimitError):
            quadrature(g, 3.0, max_nodes=12**g.dim)  # degree 6: 13^n nodes at least
        # under a cap past any array, a grid no array can hold is refused too
        with pytest.raises(ResourceLimitError):
            quadrature(g, 1e18, max_nodes=10**20)


def test_d_tables_hand_each_caller_its_tables_under_a_race():
    # A worker's d_tables(20) is paused by a line hook at its first line
    # after its tables are built; d_tables(10) runs meanwhile on this thread
    # and releases it on return.  Each call gets at least twoL_max + 1
    # tables, and so does a later d_tables(15), whichever list was stored.
    rule = groups._make_rule(SU2, 8)  # a fresh rule, no tables yet
    built, paused, release = threading.Event(), threading.Event(), threading.Event()
    got = {}

    def local(frame, event, arg):
        name = frame.f_code.co_name
        if name == "wigner_d_tables" and event == "return":
            built.set()
        elif name == "d_tables" and event == "line" and built.is_set() and not paused.is_set():
            paused.set()
            release.wait(30.0)
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_name in ("d_tables", "wigner_d_tables") else None

    def larger():
        sys.settrace(hook)
        try:
            got["larger"] = rule.d_tables(20)
        finally:
            sys.settrace(None)

    worker = threading.Thread(target=larger)
    worker.start()
    try:
        assert paused.wait(30.0)
        got["smaller"] = rule.d_tables(10)
    finally:
        release.set()
        worker.join(30.0)
    assert len(got["larger"]) >= 21 and len(got["smaller"]) >= 11
    assert len(rule.d_tables(15)) >= 16


@pytest.mark.parametrize("g", [T1, T2, T3], ids=str)
def test_folded_rule_keeps_half_axes_with_orbit_weights(g):
    parities = set()
    for degree in range(1, 10):
        full = groups._build_rule(g, degree)
        half = full.folded()
        assert half is full.folded()
        assert (half.degree, half.moduli) == (full.degree, full.shape)
        assert half.is_folded and not full.is_folded
        assert half.shape == tuple(m // 2 + 1 for m in full.shape)
        for x, w, full_x, m in zip(half.axes, half.axis_weights, full.axes, full.shape):
            parities.add(m % 2)
            assert np.array_equal(x, full_x[: m // 2 + 1])
            # cos(k x) integrates as on the full axis: to 1 at k = 0, to 0
            # for 0 < k < m
            i = np.arange(m // 2 + 1)
            for k in range(m):
                assert abs(w @ np.cos(2 * np.pi * k * i / m) - (k == 0)) <= 1e-14, (m, k)
        with pytest.raises(DomainError):
            half.folded()
    assert parities == {0, 1}
    with pytest.raises(DomainError):
        quadrature(SU2, 2.0).folded()


def test_weight_sq_exact_rationals():
    assert weight_sq(T2, (2, 1)) == 6
    assert weight_sq(SU2, 1) * 4 == 7
    assert weight_sq(SU2, 2) == 3
    # exact at the ends of the index range, as Fraction and int
    big = MAX_REP_INDEX
    assert weight_sq(T3, (big, -big, big)) == 1 + 3 * big * big
    assert weight_sq(SU2, big) == 1 + Fraction(big * (big + 2), 4)
    for g, xi in ((T1, (0,)), (T3, (big, -big, big)), (SU2, big)):
        assert type(weight_sq(g, xi)) is Fraction
    dims = [rep_arrays(g, [xi])[1].tolist() for g, xi in ((T3, (big, -big, big)), (SU2, big))]
    assert dims == [[1], [big + 1]]
