"""Analysis/synthesis, distinguished kernels, powers, serialization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import ifftn

from peterweyl import fourier
from peterweyl.fourier import (
    BandLimitError,
    GridFunction,
    SpectralFunction,
    analyze,
    dirichlet,
    dump_spectral,
    load_spectral,
    partial_sum,
    pointwise_power,
    support_count,
    synthesize,
    synthesize_slabs,
    zero_spectral,
)
from peterweyl.groups import (
    DomainError,
    enumerate_dual,
    matrix_coefficient,
    quadrature,
    rep_info,
    su2,
    torus,
    weyl_count,
)

T1 = torus(1)
T2 = torus(2)
T3 = torus(3)
SU2 = su2()


def _random_spectral(group, L, seed):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for xi in enumerate_dual(group, L):
        d = rep_info(group, xi).dim
        coeffs[xi] = (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ) / math.sqrt(2.0)
    return SpectralFunction(group, coeffs)


def _max_err(F, G):
    keys = set(F.coeffs) | set(G.coeffs)
    err = 0.0
    for k in keys:
        a = F.coeffs.get(k)
        b = G.coeffs.get(k)
        if a is None:
            err = max(err, float(np.abs(b).max()))
        elif b is None:
            err = max(err, float(np.abs(a).max()))
        else:
            err = max(err, float(np.abs(a - b).max()))
    return err


# ---------------------------------------------------------------------------
# analyze / synthesize


def test_analyze_constant():
    rule = quadrature(T1, 2.0)
    f = GridFunction(rule, np.ones(rule.node_count))
    F = analyze(f, 2.0)
    assert F.support() == [(0,)]
    assert F.coeffs[(0,)][0, 0] == pytest.approx(1.0, abs=1e-14)


def test_synthesize_trivial_is_constant():
    for g in (T1, T2, SU2):
        rule = quadrature(g, 2.0)
        xi0 = (0,) * g.dim if g.kind == "torus" else 0
        F = SpectralFunction(g, {xi0: [[1.0]]})
        vals = synthesize(F, rule).values
        assert np.abs(vals - 1.0).max() < 1e-12


def test_analyze_single_mode():
    rule = quadrature(T1, 4.0)
    xs = rule.axes[0]
    F = analyze(GridFunction(rule, np.exp(3j * xs)), 4.0)
    assert F.support() == [(3,)]
    assert F.coeffs[(3,)][0, 0] == pytest.approx(1.0, abs=1e-13)


def test_su2_character_coefficients():
    # f = 2 chi_{1/2} synthesizes from fhat(1/2) = I and analyzes back to it
    rule = quadrature(SU2, 2.0)
    F = SpectralFunction(SU2, {1: np.eye(2)})
    f = synthesize(F, rule)
    back = analyze(f, 2.0)
    assert back.support() == [1]
    assert np.abs(back.coeffs[1] - np.eye(2)).max() < 1e-12


def test_synthesize_dirichlet_closed_form():
    rule = quadrature(T1, 2.0)
    xs = rule.axes[0]
    vals = synthesize(dirichlet(T1, 2.0), rule).values
    assert np.abs(vals - (1.0 + 2.0 * np.cos(xs))).max() < 1e-12


def test_su2_synthesis_matches_trace_formula():
    # non-symmetric coefficients pin row/column conventions
    rule = quadrature(SU2, 3.0)
    F = _random_spectral(SU2, 3.0, seed=5)
    vals = synthesize(F, rule).values
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, rule.node_count, size=8):
        x = tuple(rule.nodes[idx])
        direct = sum(
            (twoL + 1) * np.trace(mat @ matrix_coefficient(SU2, twoL, x))
            for twoL, mat in F.items()
        )
        assert abs(vals[idx] - direct) < 1e-10


def _ifftn_synthesis(F, rule):
    # The inverse FFT over the zero-padded grid that torus synthesis used
    # before the per-axis contraction; kept as the reference.
    spec = np.zeros(rule.shape, dtype=complex)
    for k, mat in F.items():
        spec[tuple(ki % m for ki, m in zip(k, rule.shape))] = mat[0, 0]
    return (ifftn(spec) * rule.node_count).ravel()


def _direct_synthesis(F, rule, flat):
    # sum_k c_k exp(i k.x) at the given flat node indices, one node at a
    # time; node x_a = 2 pi j_a / m_a, so each axis phase k_a j_a is reduced
    # mod m_a in integers before the float angle is formed.
    idx = np.unravel_index(flat, rule.shape)
    total = np.zeros(len(flat), dtype=complex)
    for k, mat in F.items():
        angle = sum(2.0 * math.pi * ((j * ka) % m) / m for j, ka, m in zip(idx, k, rule.shape))
        total += mat[0, 0] * np.exp(1j * angle)
    return total


def _torus_case(group, support, seed):
    n = group.dim
    rng = np.random.default_rng(seed)
    if support == "sparse":
        ks = {tuple(int(v) for v in rng.integers(-20, 21, size=n)) for _ in range(6)}
    elif support == "positive":  # kmin > 0 on every axis
        ks = set(itertools.product(*[range(2 + a, 6 + a) for a in range(n)]))
    elif support == "negative":  # kmax < 0 on every axis
        ks = set(itertools.product(*[range(-7 - a, -3 + a) for a in range(n)]))
    elif support == "single":  # far from 0, where the phases k_a x_a are large
        ks = {(-339, 338)} if n == 2 else {(-20, 17, 9)}
    else:  # zero matrices on a support with both signs
        return SpectralFunction(group, {(k,) + (0,) * (n - 1): [[0.0]] for k in (-3, 1, 4)})
    return SpectralFunction(
        group, {k: [[complex(*rng.standard_normal(2))]] for k in sorted(ks)}
    )


_SUPPORTS = ("sparse", "positive", "negative", "single", "zeros")


@pytest.mark.parametrize(
    "group,support,band",
    [(T2, s, None) for s in _SUPPORTS]  # exact rules
    + [(T2, s, 257.0) for s in ("sparse", "positive", "zeros")]  # 1029^2
    + [(T2, s, 480.0) for s in ("sparse", "negative", "single")]  # 1925^2
    + [(T3, s, None) for s in _SUPPORTS]
    + [(T3, s, 30.0) for s in ("sparse", "positive", "negative", "single")],
    ids=str,
)
def test_torus_synthesis_matches_direct_sum_and_ifftn(group, support, band):
    # Relative to max |f|, the contraction is about 1e-15 off both
    # references; 1e-13 still catches phases taken without the mod-m
    # reduction (3.5e-13 off at |k_a| = 339 on the 1925^2 grid).
    F = _torus_case(group, support, seed=11)
    rule = quadrature(group, band or max(F.max_weight(), 1.0))
    if band == 257.0:
        assert rule.shape == (1029, 1029)
    if band == 480.0:
        assert rule.shape == (1925, 1925)
    vals = synthesize(F, rule).values
    ref = _ifftn_synthesis(F, rule)
    assert vals.shape == ref.shape
    scale = float(np.abs(ref).max())
    assert np.abs(vals - ref).max() <= 1e-13 * scale
    flat = np.random.default_rng(5).integers(0, rule.node_count, size=200)
    flat[0] = rule.node_count - 1
    direct = _direct_synthesis(F, rule, flat)
    assert np.abs(vals[flat] - direct).max() <= 1e-13 * scale
    if support == "zeros":
        assert not np.any(vals)


@pytest.mark.parametrize("slab_nodes", [1, 700, fourier.SLAB_NODES])
@pytest.mark.parametrize(
    "group,L,band", [(T1, 6.0, 6.0), (T2, 4.0, 9.0), (T3, 2.5, 3.0), (SU2, 3.0, 4.0)], ids=str
)
def test_synthesize_slabs_tile_the_grid(monkeypatch, group, L, band, slab_nodes):
    # Slabs are whole leading-axis rows covering the grid in C order; their
    # values do not depend on the split (T^1 is always one slab).
    F = _random_spectral(group, L, seed=9)
    rule = quadrature(group, band)
    whole = synthesize(F, rule).values
    monkeypatch.setattr(fourier, "SLAB_NODES", slab_nodes)
    inner = rule.node_count // rule.shape[0]
    rows = rule.shape[0] if group == T1 else max(1, slab_nodes // inner)
    edges = [0]
    parts = []
    for lo, hi, values in synthesize_slabs(F, rule):
        assert lo == edges[-1] and lo % inner == 0 and values.shape == (hi - lo,)
        assert hi - lo == min(rows * inner, rule.node_count - lo)
        edges.append(hi)
        parts.append(values)
    assert edges[-1] == rule.node_count
    if slab_nodes == 700 and group != T1:
        assert len(parts) > 1 and rule.shape[0] % rows  # a ragged last slab
    scale = float(np.abs(whole).max())
    assert np.abs(np.concatenate(parts) - whole).max() <= 1e-13 * scale
    assert np.array_equal(synthesize(F, rule).values, np.concatenate(parts))
    zeros = list(synthesize_slabs(zero_spectral(group), rule))
    assert [(lo, hi) for lo, hi, _ in zeros] == list(zip(edges, edges[1:]))
    assert not any(np.any(v) for _, _, v in zeros)


def test_synthesize_slabs_checks_before_the_first_slab():
    F = _random_spectral(SU2, 3.0, seed=1)
    with pytest.raises(BandLimitError):
        synthesize_slabs(F, quadrature(SU2, 2.0))
    with pytest.raises(DomainError):
        synthesize_slabs(F, quadrature(T1, 3.0))


@pytest.mark.parametrize(
    "group,L", [(T1, 6.0), (T2, 4.0), (T3, 2.5), (SU2, 3.0)]
)
def test_round_trip_random(group, L):
    F = _random_spectral(group, L, seed=3)
    rule = quadrature(group, L)
    back = analyze(synthesize(F, rule), L)
    assert _max_err(F, back) < 1e-9


def test_analyze_band_guard():
    rule = quadrature(T1, 2.0)
    f = GridFunction(rule, np.ones(rule.node_count))
    with pytest.raises(BandLimitError):
        analyze(f, 8.0)


def test_synthesize_band_guard():
    rule = quadrature(T1, 2.0)
    F = SpectralFunction(T1, {(9,): [[1.0]]})
    with pytest.raises(BandLimitError):
        synthesize(F, rule)


def test_shape_mismatch_rejected():
    with pytest.raises(DomainError):
        SpectralFunction(SU2, {2: np.eye(2)})  # l = 1 needs 3x3


def test_linearity_and_conjugation():
    rule = quadrature(T1, 5.0)
    F = _random_spectral(T1, 5.0, seed=8)
    G = _random_spectral(T1, 5.0, seed=9)
    a, b = 2.0 - 1.0j, 0.5 + 0.25j
    combo = SpectralFunction(
        T1,
        {k: a * F.coeffs[k] + b * G.coeffs[k] for k in F.coeffs},
    )
    lhs = synthesize(combo, rule).values
    rhs = a * synthesize(F, rule).values + b * synthesize(G, rule).values
    assert np.abs(lhs - rhs).max() < 1e-12

    conj_grid = GridFunction(rule, np.conj(synthesize(F, rule).values))
    back = analyze(conj_grid, 5.0)
    for k, mat in F.items():
        assert abs(back.coeffs[(-k[0],)][0, 0] - np.conj(mat[0, 0])) < 1e-12


# ---------------------------------------------------------------------------
# dirichlet / partial_sum


def test_dirichlet_small():
    D = dirichlet(T1, 2.0)
    assert D.support() == [(-1,), (0,), (1,)]
    D = dirichlet(SU2, 2.0)
    assert D.support() == [0, 1, 2]
    assert D.coeffs[2].shape == (3, 3)


@pytest.mark.parametrize("group,L", [(T1, 4.0), (T2, 3.0), (SU2, 3.0)])
def test_dirichlet_identity_value_is_weyl_count(group, L):
    rule = quadrature(group, L)
    vals = synthesize(dirichlet(group, L), rule)
    assert vals.values[rule.identity_index].real == pytest.approx(
        weyl_count(group, L), rel=1e-12
    )


def test_partial_sum():
    F = _random_spectral(T1, 6.0, seed=1)
    assert partial_sum(F, 6.0).support() == F.support()
    assert partial_sum(F, 1.0).support() == [(0,)]
    assert partial_sum(dirichlet(T1, 4.0), 2.0).support() == dirichlet(T1, 2.0).support()


# ---------------------------------------------------------------------------
# pointwise powers


def test_power_single_mode():
    T = SpectralFunction(T1, {(2,): [[1.0]]})
    P = pointwise_power(T, 2)
    assert P.support() == [(4,)]
    assert P.coeffs[(4,)][0, 0] == pytest.approx(1.0, abs=1e-12)


def test_power_binomial_oracle():
    # (1 + e^{ix})^2 has coefficients numpy.polymul([1,1],[1,1]) = [1,2,1]
    expected = np.polymul([1.0, 1.0], [1.0, 1.0])
    T = SpectralFunction(T1, {(0,): [[1.0]], (1,): [[1.0]]})
    P = pointwise_power(T, 2)
    assert P.support() == [(0,), (1,), (2,)]
    for k, c in enumerate(expected):
        assert P.coeffs[(k,)][0, 0] == pytest.approx(c, abs=1e-12)


def test_power_identity():
    F = _random_spectral(SU2, 2.5, seed=12)
    P = pointwise_power(F, 1)
    assert _max_err(F, P) < 1e-9 * max(abs(m).max() for m in F.coeffs.values())


def test_power_su2_character_square():
    # chi_{1/2}^2 = chi_0 + chi_1 by Clebsch-Gordan; coefficients I_d / d
    T = SpectralFunction(SU2, {1: np.eye(2) / 2.0})
    P = pointwise_power(T, 2)
    assert P.support() == [0, 2]
    assert abs(P.coeffs[0][0, 0] - 1.0) < 1e-10
    assert np.abs(P.coeffs[2] - np.eye(3) / 3.0).max() < 1e-10


def test_power_support_growth_bound():
    # coefficients beyond rho * L_T vanish: analyze the square on a wider band
    T = _random_spectral(T1, 3.0, seed=4)
    w = T.max_weight()
    rule = quadrature(T1, 3.0 * w)
    sq = synthesize(T, rule).values ** 2
    wide = analyze(GridFunction(rule, sq), 3.0 * w)
    for k, mat in wide.items():
        if abs(mat[0, 0]) > 1e-9:
            assert 1 + k[0] ** 2 <= (2.0 * w * (1 + 1e-9)) ** 2


def test_power_validation():
    T = SpectralFunction(T1, {(1,): [[1.0]]})
    with pytest.raises(DomainError):
        pointwise_power(T, 0)
    assert not pointwise_power(zero_spectral(T1), 3)


def test_support_count_thresholds():
    F = SpectralFunction(T1, {(0,): [[1.0]], (1,): [[1e-6]], (2,): [[1e-13]]})
    assert support_count(F, 1e-12) == 2
    assert support_count(F, 1e-3) == 1
    assert support_count(F, 0.0) == 3
    assert support_count(zero_spectral(T1)) == 0


# ---------------------------------------------------------------------------
# serialization


def test_serialization_round_trip_bytes():
    for F in (_random_spectral(T2, 3.0, seed=2), _random_spectral(SU2, 2.5, seed=2)):
        text = dump_spectral(F)
        again = dump_spectral(load_spectral(text))
        assert again == text


def test_serialization_header_and_errors():
    F = _random_spectral(T1, 2.0, seed=0)
    text = dump_spectral(F)
    assert text.startswith("specfun v1\ngroup torus:1\n")
    with pytest.raises(DomainError):
        load_spectral("nonsense\n")
    with pytest.raises(DomainError):
        load_spectral("specfun v1\ngroup torus:1\nrep 0 1 0.5\n")  # odd entry count


_NUMBERS = st.floats(-1e3, 1e3).map(repr) | st.integers(-9, 9).map(str) | st.sampled_from(
    ["-0", "1e308", "1e400", "-1e400", "1e-400", "nan", "inf", "-inf", "NaN", "1e", "0x10", "1_0"]
)
_BAD_INDICES = st.sampled_from([",", "1,", "a", "-1", "1,2,3,4", "99999999999", "0.5"])


@st.composite
def _spectral_texts(draw):
    # Mostly well-formed so records get parsed; each part is corrupted now
    # and then: header, group line, rep index, dimension, entries, truncation.
    def sometimes(bad):
        return draw(bad) if draw(st.integers(0, 7)) == 5 else None

    group = draw(st.sampled_from(["torus:1", "torus:2", "torus:3", "su2"]))
    lines = [
        sometimes(st.sampled_from(["specfun", "specfun v2", "rep 0 1"])) or "specfun v1",
        "group " + (sometimes(st.sampled_from(["torus:0", "torus:4", "torus:x", "su3"])) or group),
    ]
    for _ in range(draw(st.integers(0, 3))):
        if group == "su2":
            twoL = draw(st.integers(0, 2))
            index, dim = str(twoL), twoL + 1
        else:
            ks = draw(st.lists(st.integers(-3, 3), min_size=int(group[-1]), max_size=int(group[-1])))
            index, dim = ",".join(map(str, ks)), 1
        nums = draw(st.lists(_NUMBERS, min_size=2 * dim * dim, max_size=2 * dim * dim))
        record = ["rep", sometimes(_BAD_INDICES) or index,
                  sometimes(st.sampled_from(["0", "-1", "2", "1.5", "x"])) or str(dim)] + nums
        lines.append(" ".join(record[: draw(st.integers(1, len(record)))]
                              if draw(st.integers(0, 7)) == 5 else record))
    if draw(st.integers(0, 7)) == 5:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=20)))
    return "\n".join(lines)


@given(_spectral_texts())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_load_spectral_fuzz_returns_or_raises_domain_error(text):
    try:
        F = load_spectral(text)
    except DomainError:
        return
    assert isinstance(F, SpectralFunction)
    assert all(np.isfinite(mat).all() for mat in F.coeffs.values())


def test_determinism_byte_identical():
    a = dump_spectral(_random_spectral(SU2, 2.5, seed=77))
    b = dump_spectral(_random_spectral(SU2, 2.5, seed=77))
    assert a == b


def test_immutability():
    F = _random_spectral(T1, 2.0, seed=6)
    with pytest.raises(AttributeError):
        F.group = T2
    with pytest.raises(ValueError):
        F.coeffs[(0,)][0, 0] = 5.0
