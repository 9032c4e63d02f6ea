"""Norm functionals: closed-form values, identities, spec-string grammar."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peterweyl import fourier, norms
from peterweyl.fourier import SpectralFunction, dirichlet, synthesize, zero_spectral
from peterweyl.groups import (
    DomainError,
    QuadratureRule,
    enumerate_dual,
    quadrature,
    rep_dim,
    rep_info,
    su2,
    torus,
    weight_sq,
)
from peterweyl.norms import (
    INF,
    NormSpec,
    NormSpecError,
    besov_norm,
    beurling_norm,
    beurling_r_norm,
    block_of,
    dyadic_blocks,
    format_norm_spec,
    lp_norm,
    lp_norm_info,
    lp_norms,
    norm_info,
    parse_norm_spec,
    seq_lp_norm,
    sobolev_norm,
    tl_norm,
    wiener_norm,
)
from peterweyl.verify import PROFILES, make_corpus

T1 = torus(1)
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


E3 = SpectralFunction(T1, {(3,): [[1.0]]})
ONE_PLUS = SpectralFunction(T1, {(0,): [[1.0]], (1,): [[1.0]]})
HALF_ID = SpectralFunction(SU2, {1: np.eye(2)})


# ---------------------------------------------------------------------------
# Lebesgue norms


def test_single_mode_all_p():
    for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, INF):
        assert lp_norm(E3, p) == pytest.approx(1.0, abs=2e-6)


def test_dirichlet_t1_values():
    D = dirichlet(T1, 2.0)
    v2, info2 = lp_norm_info(D, 2.0)
    assert v2 == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert info2["certified"] == "exact"
    vinf, infoinf = lp_norm_info(D, INF)
    assert vinf == pytest.approx(3.0, abs=1e-12)
    assert infoinf["certified"] == "exact (identity-pinned)"


def test_one_plus_exponential_l1():
    # (1/2pi) int |1 + e^{ix}| dx = (1/2pi) int 2|cos(x/2)| dx = 4/pi
    val, info = lp_norm_info(ONE_PLUS, 1.0)
    assert info["certified"] == "refined"
    assert val == pytest.approx(4.0 / math.pi, rel=3e-6)


def test_lp_zero_and_validation():
    assert lp_norm(zero_spectral(T1), 2.0) == 0.0
    with pytest.raises(Exception):
        lp_norm(E3, 0.0)


def test_monotone_in_p_probability_space():
    F = _random_spectral(SU2, 2.5, seed=3)
    vals = lp_norms(F, [1.0, 1.5, 2.0, 3.0, 4.0])
    seq = [vals[p][0] for p in (1.0, 1.5, 2.0, 3.0, 4.0)]
    for a, b in zip(seq, seq[1:]):
        assert b >= a * (1.0 - 1e-5)


@given(st.complex_numbers(max_magnitude=10.0, min_magnitude=1e-3))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_homogeneity(c):
    # the |c| factor comes out exactly: same grids, stop rules scale-free
    F = SpectralFunction(T1, {(0,): [[0.4]], (2,): [[1.0 - 0.5j]]})
    G = SpectralFunction(T1, {k: c * m for k, m in F.coeffs.items()})
    for p in (0.5, 2.0, INF):
        a = lp_norm(G, p)
        b = abs(c) * lp_norm(F, p)
        assert a == pytest.approx(b, rel=1e-12)
    assert seq_lp_norm(G, 1.5) == pytest.approx(abs(c) * seq_lp_norm(F, 1.5), rel=1e-12)
    assert beurling_norm(G, 2.0) == pytest.approx(abs(c) * beurling_norm(F, 2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# sequence norms


def test_seq_examples():
    c = SpectralFunction(T1, {(5,): [[2.0 - 1.0j]]})
    for p in (1.0, 2.0, 3.0, INF):
        assert seq_lp_norm(c, p) == pytest.approx(abs(2.0 - 1.0j), rel=1e-12)
    assert seq_lp_norm(dirichlet(T1, 3.0), INF) == pytest.approx(1.0)
    assert seq_lp_norm(dirichlet(SU2, 3.0), INF) == pytest.approx(1.0)
    assert seq_lp_norm(HALF_ID, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_plancherel():
    for F in (_random_spectral(T1, 6.0, 0), _random_spectral(SU2, 3.0, 1)):
        assert lp_norm(F, 2.0) == pytest.approx(seq_lp_norm(F, 2.0), rel=1e-12)


def test_hausdorff_young_small_corpus():
    for seed in range(4):
        for F in (_random_spectral(T1, 5.0, seed), _random_spectral(SU2, 2.5, seed)):
            for p in (1.0, 4.0 / 3.0, 2.0):
                pp = INF if p == 1.0 else p / (p - 1.0)
                assert seq_lp_norm(F, pp) <= lp_norm(F, p) * (1 + 1e-9)
                assert lp_norm(F, pp) <= seq_lp_norm(F, p) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# sobolev


def test_sobolev_values():
    for r in (-1.0, 0.7, 2.0):
        assert sobolev_norm(E3, r, 2.0) == pytest.approx(10.0 ** (r / 2.0), rel=1e-12)
    F = _random_spectral(T1, 5.0, 7)
    assert sobolev_norm(F, 0.0, 2.0) == pytest.approx(lp_norm(F, 2.0), rel=1e-12)
    assert sobolev_norm(HALF_ID, 2.0, 2.0) == pytest.approx(3.5, rel=1e-12)


# ---------------------------------------------------------------------------
# blocks / besov / tl


def test_block_partition():
    F = _random_spectral(T1, 9.0, 5)
    blocks = dyadic_blocks(F)
    seen = []
    for s, block in blocks.items():
        for xi in block.support():
            wsq = 1 + xi[0] ** 2
            assert 4**s <= wsq < 4 ** (s + 1)
            seen.append(xi)
    assert sorted(seen) == F.support()
    assert block_of(1) == 0 and block_of(4) == 1 and block_of(3) == 0


def test_besov_single_mode():
    # e^{3ix} sits in shell s = 1 (2 <= sqrt(10) < 4): norm is 2^r for all q
    for r in (-1.0, 0.5, 2.0):
        for q in (0.5, 1.0, 2.0, INF):
            assert besov_norm(E3, r, 2.0, q) == pytest.approx(2.0**r, rel=1e-12)


def test_besov_single_block_identity():
    F = _random_spectral(SU2, 2.5, seed=9)
    blocks = dyadic_blocks(F)
    s, block = sorted(blocks.items())[-1]
    for q in (1.0, 2.0, INF):
        lhs = besov_norm(block, 1.25, 2.0, q)
        rhs = 2.0 ** (s * 1.25) * lp_norm(block, 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_tl_equals_besov_at_22():
    for F in (_random_spectral(T1, 6.0, 2), _random_spectral(SU2, 2.5, 2)):
        for r in (-1.0, 0.0, 1.5):
            assert tl_norm(F, r, 2.0, 2.0) == pytest.approx(
                besov_norm(F, r, 2.0, 2.0), rel=1e-9
            )


def test_tl_rejects_p_inf():
    with pytest.raises(Exception):
        tl_norm(E3, 0.0, INF, 2.0)


def test_besov_sobolev_bracket():
    F = _random_spectral(T1, 8.0, 11)
    for r in (-1.0, 0.5, 2.0):
        ratio = besov_norm(F, r, 2.0, 2.0) / sobolev_norm(F, r, 2.0)
        assert 2.0 ** -abs(r) * (1 - 1e-6) <= ratio <= 2.0 ** abs(r) * (1 + 1e-6)


# ---------------------------------------------------------------------------
# wiener / beurling


def test_wiener_values():
    assert wiener_norm(ONE_PLUS, 1.0) == pytest.approx(2.0, rel=1e-12)
    coeffs = {(k,): [[1.0 / (1 + k * k)]] for k in range(-3, 4)}
    F = SpectralFunction(T1, coeffs)
    assert wiener_norm(F, 1.0) == pytest.approx(
        sum(1.0 / (1 + k * k) for k in range(-3, 4)), rel=1e-12
    )
    assert wiener_norm(HALF_ID, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_beurling_tail_sums():
    # e^{3ix}: tail sups are 1 for s = 0, 1 and empty after; sum = 1 + 2^n
    for beta in (0.5, 1.0, 2.0):
        assert beurling_norm(E3, beta) == pytest.approx(3.0 ** (1 / beta), rel=1e-12)
    assert beurling_norm(zero_spectral(T1), 1.0) == 0.0
    assert beurling_r_norm(zero_spectral(T1), 0.3, 1.0) == 0.0


def test_beurling_identity_r_equals_inv_beta():
    funcs = [E3, ONE_PLUS, HALF_ID, dirichlet(SU2, 2.5), _random_spectral(T1, 8.0, 1)]
    for beta in (0.5, 1.0, 2.0):
        for F in funcs:
            a = beurling_norm(F, beta)
            b = beurling_r_norm(F, 1.0 / beta, beta)
            assert abs(a - b) <= 1e-12 * max(a, 1.0)


def test_beurling_beta_inf_sup_aggregate():
    F = _random_spectral(T1, 6.0, 13)
    assert beurling_norm(F, INF) == pytest.approx(seq_lp_norm(F, INF), rel=1e-12)


# ---------------------------------------------------------------------------
# spec strings


CANONICAL = [
    "Lp:2",
    "Lp:inf",
    "seq:1.5",
    "seq:inf",
    "sobolev:r=1.5,p=2",
    "besov:r=1.5,p=2,q=inf",
    "tl:r=0.5,p=2,q=2",
    "wiener:1",
    "beurling:0.5",
    "beurlingR:r=0.5,beta=2",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_spec_round_trip(text):
    assert format_norm_spec(parse_norm_spec(text)) == text


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _norm_specs(draw):
    family = draw(st.sampled_from(sorted(norms._FAMILY_KEYS)))
    params = {}
    for key in norms._FAMILY_KEYS[family]:
        if key == "r":
            params[key] = draw(st.floats(allow_nan=False, allow_infinity=False))
        elif family == "tl" and key == "p":
            params[key] = draw(_POSITIVE)
        else:
            params[key] = draw(st.one_of(st.just(INF), _POSITIVE))
    return NormSpec(family, **params)


@given(_norm_specs())
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_spec_format_parse_round_trip(spec):
    assert parse_norm_spec(format_norm_spec(spec)) == spec


def test_spec_parse_errors_name_rule():
    with pytest.raises(NormSpecError, match="family"):
        parse_norm_spec("frobnitz:1")
    with pytest.raises(NormSpecError, match="parameter"):
        parse_norm_spec("besov:r=1,zz=2,q=1")
    with pytest.raises(NormSpecError, match="number"):
        parse_norm_spec("Lp:abc")
    with pytest.raises(NormSpecError):
        parse_norm_spec("besov:r=1,p=2")  # missing q
    with pytest.raises(NormSpecError):
        NormSpec("tl", r=0.0, p=INF, q=2.0)


def test_quasi_norm_range_p_below_one():
    # p < 1: only homogeneity and the displayed formulas are claimed
    F = _random_spectral(T1, 5.0, 21)
    G = SpectralFunction(T1, {k: 3.0 * m for k, m in F.coeffs.items()})
    assert lp_norm(G, 0.5) == pytest.approx(3.0 * lp_norm(F, 0.5), rel=1e-5)
    assert seq_lp_norm(G, 0.5) == pytest.approx(3.0 * seq_lp_norm(F, 0.5), rel=1e-12)
    assert besov_norm(G, 0.3, 0.5, 0.5) == pytest.approx(
        3.0 * besov_norm(F, 0.3, 0.5, 0.5), rel=1e-5
    )


# ---------------------------------------------------------------------------
# provenance of grid-evaluated norms


NIKOLSKII_EXPONENTS = (1.0, 1.5, 2.0, 3.0, 4.0, INF)


def test_lp_norms_shared_ladder_matches_single_exponent():
    # one ladder for several exponents gives each the value and provenance
    # it gets on its own; the memo is cleared so both sides are evaluated
    for F in (_random_spectral(T1, 6.0, 4), _random_spectral(SU2, 2.0, 4)):
        norms.clear_memos()
        shared = lp_norms(F, NIKOLSKII_EXPONENTS)
        for p in NIKOLSKII_EXPONENTS:
            norms.clear_memos()
            assert shared[p] == lp_norms(F, [p])[p]


def test_besov_tl_provenance_reports_capped_grids():
    F = make_corpus(torus(2), 4.0, 1, 7).functions[0]
    for text in ("besov:r=0.5,p=1,q=2", "tl:r=0.5,p=2,q=4"):
        _, info = norm_info(F, parse_norm_spec(text), 20000)
        assert info["certified"] == "capped"
        assert info["nodes"] > 0
    for text in ("besov:r=0.5,p=2,q=2", "tl:r=0.5,p=2,q=2"):
        _, info = norm_info(F, parse_norm_spec(text), 20000)
        assert info["certified"] == "exact"
        assert info["nodes"] > 0


def test_besov_provenance_is_weakest_block_with_largest_grid():
    F = make_corpus(torus(2), 4.0, 1, 7).functions[0]
    blocks = [lp_norm_info(b, 1.0, 20000)[1] for b in dyadic_blocks(F).values()]
    _, info = norm_info(F, parse_norm_spec("besov:r=0.5,p=1,q=2"), 20000)
    assert info["nodes"] == max(b["nodes"] for b in blocks)
    assert info["bandlimit"] == max(b["bandlimit"] for b in blocks)
    # Dirichlet blocks are positive central: every block sup is pinned
    _, pinned = norm_info(dirichlet(T1, 6.0), parse_norm_spec("besov:r=1,p=inf,q=2"))
    assert pinned["certified"] == "exact (identity-pinned)"


def test_merge_provenance_keeps_weakest_certification():
    order = ["exact (identity-pinned)", "exact", "refined", "capped"]
    for i, weakest in enumerate(order):
        records = [norms._provenance(c, 10 * j, 2.0 * j) for j, c in enumerate(order[: i + 1])]
        merged = norms._merge_provenance(records[::-1])
        assert merged == {"certified": weakest, "nodes": 10 * i, "bandlimit": 2.0 * i}
    assert norms._merge_provenance([]) == {"certified": "exact", "nodes": 0, "bandlimit": 0.0}


def test_tl_even_p_q2_is_exact_from_one_grid(monkeypatch):
    F = _random_spectral(T1, 6.0, 8)
    quadrature = norms.quadrature
    built = []

    def counting_quadrature(group, band, max_nodes=None):
        built.append(band)
        return quadrature(group, band, max_nodes)

    monkeypatch.setattr(norms, "quadrature", counting_quadrature)
    value, info = norm_info(F, NormSpec("tl", r=0.5, p=4.0, q=2.0))
    assert info["certified"] == "exact"
    assert built == [2.0 * F.max_weight()] == [info["bandlimit"]]
    assert value == tl_norm(F, 0.5, 4.0, 2.0)


def test_coefficient_norms_carry_exact_provenance():
    F = _random_spectral(SU2, 2.0, 6)
    for text in ("seq:1.5", "wiener:1", "beurling:0.5", "beurlingR:r=0.5,beta=2"):
        _, info = norm_info(F, parse_norm_spec(text))
        assert info == {"certified": "exact", "nodes": 0, "bandlimit": 0.0}


def test_spec_rejects_non_finite_r():
    for text in ("besov:r=nan,p=2,q=2", "tl:r=inf,p=2,q=2", "sobolev:r=-inf,p=2"):
        with pytest.raises(NormSpecError, match="finite"):
            parse_norm_spec(text)
    with pytest.raises(NormSpecError):
        besov_norm(E3, math.nan, 2.0, 2.0)


def test_weights_out_of_float_range_raise_domain_error():
    F = dirichlet(T1, 6.0)
    for text in ("besov:r=1e6,p=2,q=2", "tl:r=1e6,p=2,q=2", "sobolev:r=1e6,p=2",
                 "beurlingR:r=1e6,beta=2"):
        with pytest.raises(DomainError, match="float range"):
            norm_info(F, parse_norm_spec(text))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_hs_norm_rescales_only_past_overflow():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5):
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        plain = float(np.sqrt(np.sum(np.abs(mat) ** 2)))
        assert norms._hs_norm(mat) == plain  # normal range: the same bytes
        big = norms._hs_norm(mat * 1e200)
        assert math.isfinite(big) and abs(big - 1e200 * plain) <= 1e-15 * big
    assert norms._hs_norm(np.array([[1e200, 1e200]])) == math.sqrt(2.0) * 1e200
    assert norms._hs_norm(np.array([[1.5e308, 1.5e308]])) == INF  # the norm itself overflows


def _tail_sups_by_scan(F):
    # reference: t_s = max over entries with <xi>^2 >= 4^s, until empty
    entries = [
        (weight_sq(F.group, xi), rep_dim(F.group, xi) ** -0.5 * norms._hs_norm(m))
        for xi, m in F.items()
    ]
    sups = []
    s = 0
    while any(wsq >= 4**s for wsq, _ in entries):
        sups.append(max(v for wsq, v in entries if wsq >= 4**s))
        s += 1
    return sups


def test_tail_sups_match_tail_scan():
    for group, L in ((torus(1), 12.0), (torus(2), 6.0), (torus(3), 3.0), (SU2, 3.0)):
        funcs = [dirichlet(group, L)]
        for profile in PROFILES:
            funcs += make_corpus(group, L, 2, 5, profile).functions
        for F in funcs:
            assert norms._tail_sups(F) == _tail_sups_by_scan(F)
    # shell 1 empty, shell 2 holding only an all-zero matrix
    gap = SpectralFunction(
        T1, {(1,): np.array([[2.0]]), (4,): np.zeros((1, 1)), (8,): np.array([[0.5j]])}
    )
    assert norms._tail_sups(gap) == _tail_sups_by_scan(gap) == [2.0, 0.5, 0.5, 0.5]


# ---------------------------------------------------------------------------
# the slab ladder against full-grid reductions


def _full_grid_lp(F, rule, p):
    # The reduction the ladder made before it streamed slabs, kept as the
    # reference: the whole modulus array against the flat weight vector.
    v = np.abs(synthesize(F, rule).values)
    return float(v.max()) if p == INF else float(np.dot(rule.weights, v**p) ** (1.0 / p))


def _ragged(rule):
    rows = [b - a for a, b, _, _ in fourier._slab_bounds(rule)]
    return len(rows) > 1 and rows[-1] < rows[0]


@pytest.mark.parametrize("small_slabs", [True, False])
@pytest.mark.parametrize(
    "group,L,cap,slab_nodes",  # slab_nodes: a small split with a ragged last slab
    [(T1, 6.0, None, 700), (torus(2), 3.0, None, 700), (torus(2), 3.0, 2000, 100),
     (torus(3), 2.0, None, 700), (SU2, 2.0, None, 700), (SU2, 2.0, 20000, 700)],
    ids=str,
)
def test_slab_ladder_matches_full_grid_reduction(monkeypatch, group, L, cap, slab_nodes,
                                                 small_slabs):
    if small_slabs:
        monkeypatch.setattr(fourier, "SLAB_NODES", slab_nodes)
    F = _random_spectral(group, L, 21)
    out = lp_norms(F, NIKOLSKII_EXPONENTS, cap)
    rules = []
    for p, (value, info) in out.items():
        rules.append(quadrature(group, info["bandlimit"]))
        assert rules[-1].node_count == info["nodes"]
        ref = _full_grid_lp(F, rules[-1], p)
        assert abs(value - ref) <= 1e-13 * ref, (p, value, ref)
    certs = {info["certified"] for _, info in out.values()}
    if cap:
        assert certs == {"exact", "capped"}
    else:
        assert {"exact", "refined"} <= certs
    if small_slabs and group != T1:
        assert any(map(_ragged, rules))


@pytest.mark.parametrize("group", [T1, torus(2), torus(3), SU2], ids=str)
def test_level_reduce_weights_each_slab_by_its_rows(monkeypatch, group):
    # Random values and random positive axis weights (real rules have
    # uniform leading-axis weights, which would hide a misaligned slab).
    real = quadrature(group, 3.0)
    rng = np.random.default_rng(4)
    rule = QuadratureRule(group, real.bandlimit, real.axes,
                          [rng.random(len(a)) + 0.5 for a in real.axes])
    # three rows a slab, and a ragged last slab (T^1 is one slab)
    monkeypatch.setattr(fourier, "SLAB_NODES", 3 * rule.node_count // rule.shape[0])
    assert _ragged(rule) == (group != T1)
    v = rng.random(rule.node_count) * 3.0
    bounds = list(fourier._slab_bounds(rule))
    slabs = ((lo, hi, v[lo:hi]) for _, _, lo, hi in bounds)
    got = norms._level_reduce(slabs, rule, NIKOLSKII_EXPONENTS)
    for p in NIKOLSKII_EXPONENTS:
        ref = v.max() if p == INF else np.dot(rule.weights, v**p)
        assert abs(got[p] - ref) <= 1e-13 * ref, p


@pytest.mark.parametrize("slab_nodes", [700, fourier.SLAB_NODES])
@pytest.mark.parametrize("r,p,q,cap", [(0.5, 3.0, 2.0, None), (0.5, 1.5, INF, None),
                                       (1.0, 4.0, 2.0, None), (0.5, 1.0, 3.0, 3000)])
@pytest.mark.parametrize("group,L", [(torus(2), 4.0), (SU2, 2.5)], ids=str)
def test_tl_aggregate_matches_stacked_full_grids(monkeypatch, group, L, r, p, q, cap,
                                                 slab_nodes):
    monkeypatch.setattr(fourier, "SLAB_NODES", slab_nodes)
    F = _random_spectral(group, L, 22)
    value, info = norm_info(F, NormSpec("tl", r=r, p=p, q=q), cap)
    rule = quadrature(group, info["bandlimit"])
    assert rule.node_count == info["nodes"]
    arr = np.stack([2.0 ** (s * r) * np.abs(synthesize(b, rule).values)
                    for s, b in dyadic_blocks(F).items()])
    agg = arr.max(axis=0) if q == INF else np.sum(arr**q, axis=0) ** (1.0 / q)
    ref = float(np.dot(rule.weights, agg**p) ** (1.0 / p))
    assert abs(value - ref) <= 1e-13 * ref
    assert len(dyadic_blocks(F)) > 1
    if cap or p != 4.0:
        assert info["certified"] in (("capped",) if cap else ("refined", "capped"))
    else:
        assert info["certified"] == "exact"


# ---------------------------------------------------------------------------
# memo of finished evaluations


TL_SPEC = NormSpec("tl", r=0.5, p=3.0, q=2.0)


def _evaluations(F, max_nodes=None):
    return (
        lp_norms(F, [1.0, 2.0, 3.0, INF], max_nodes),
        norm_info(F, TL_SPEC, max_nodes),
        norm_info(F, parse_norm_spec("besov:r=0.5,p=1,q=2"), max_nodes),
        {s: block.digest for s, block in dyadic_blocks(F).items()},
    )


def test_memo_hit_equals_fresh_evaluation(monkeypatch):
    F = make_corpus(torus(2), 2.0, 1, 3).functions[0]
    norms.clear_memos()
    first = _evaluations(F)
    quadrature = norms.quadrature
    built = []

    def counting_quadrature(group, band, max_nodes=None):
        built.append(band)
        return quadrature(group, band, max_nodes)

    monkeypatch.setattr(norms, "quadrature", counting_quadrature)
    assert _evaluations(F) == first
    assert built == []  # served from the memo
    norms.clear_memos()
    assert _evaluations(F) == first  # evaluated from scratch
    certs = {info["certified"] for _, info in first[0].values()}
    assert certs == {"exact", "refined"}
    # a small node cap gives capped values under their own key
    capped = _evaluations(F, 300)
    assert capped[0][1.0][1] == {"certified": "capped", "nodes": 225, "bandlimit": 2.0 * F.max_weight()}
    assert _evaluations(F, 300) == capped
    norms.clear_memos()
    assert _evaluations(F, 300) == capped
    # the default cap does not reuse the capped value
    value, info = lp_norms(F, [1.0])[1.0]
    assert info["certified"] == "refined" and info["nodes"] > 300
    assert (value, info) == first[0][1.0] != capped[0][1.0]


def test_lp_norms_hit_on_a_subset_of_exponents():
    F = _random_spectral(SU2, 1.5, 11)
    norms.clear_memos()
    both = lp_norms(F, [1.5, 4.0])
    hits = (lp_norms(F, [1.5]), lp_norms(F, [4.0, 3.0]))
    assert hits[0] == {1.5: both[1.5]}
    assert hits[1][4.0] == both[4.0]
    # the hits equal evaluations from scratch of each exponent on its own
    for p, (value, info) in both.items():
        norms.clear_memos()
        assert lp_norms(F, [p]) == {p: (value, info)}
    norms.clear_memos()
    assert lp_norms(F, [4.0, 3.0]) == hits[1]


def test_memo_hits_return_fresh_provenance():
    F = _random_spectral(T1, 5.0, 12)
    norms.clear_memos()
    saved = None
    for _ in range(3):  # a miss, then two hits
        got = [lp_norms(F, [3.0])[3.0], norm_info(F, TL_SPEC)]
        assert saved is None or got == saved
        saved = [(value, dict(info)) for value, info in got]
        for _, info in got:
            info["certified"] = "tampered"
            info["nodes"] = -1
        blocks = dyadic_blocks(F)
        assert sorted(blocks) == [0, 1, 2]
        blocks.clear()
    assert saved[0][1]["certified"] == "refined"


def _entry_sizes(memo):
    return sum(size for _, size in memo._entries.values())


def test_memo_budget_is_never_exceeded(monkeypatch):
    memo = norms._Memo(10)
    for i in range(30):
        memo.put(("k", i), i, 1 + i % 4)
        assert memo.size == _entry_sizes(memo) <= 10
    assert memo.get(("k", 29)) == 29 and memo.get(("k", 0)) is None
    memo.put("big", 0, 11)  # larger than the whole budget: not kept
    assert memo.get("big") is None and memo.size <= 10
    memo.put(("k", 29), 1, 2)  # replacing an entry counts its size once
    assert memo.get(("k", 29)) == 1 and memo.size == _entry_sizes(memo) <= 10

    # the norm memo under a small budget, sized in entries / coefficients
    small_memo = norms._Memo(40)
    monkeypatch.setattr(norms, "_MEMO", small_memo)
    for F in make_corpus(torus(1), 6.0, 6, 21).functions + (dirichlet(T1, 9.0),):
        reference = None
        for _ in range(2):
            got = (_evaluations(F), sobolev_norm(F, 1.0, 3.0))
            assert reference is None or got == reference
            reference = got
            assert small_memo.size == _entry_sizes(small_memo) <= 40
    assert len(small_memo._entries) > 1


def test_memo_stress_shared_across_threads(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    funcs = list(make_corpus(torus(1), 6.0, 4, 31).functions)
    funcs += list(make_corpus(SU2, 1.0, 2, 31).functions) + [dirichlet(T1, 8.0)]
    norms.clear_memos()
    expected = [_evaluations(F) for F in funcs]
    # budgets small enough that the threads evict each other's entries
    monkeypatch.setattr(norms, "_MEMO", norms._Memo(30))
    jobs = [i % len(funcs) for i in range(6 * len(funcs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside memo updates too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda i: _evaluations(funcs[i]), jobs, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected[i] for i in jobs]
    assert norms._MEMO.size == _entry_sizes(norms._MEMO) <= norms._MEMO.budget

    # the bare map under many small updates: a lost update breaks the total
    memo = norms._Memo(50)

    def churn(seed):
        for i in range(20_000):
            key = (seed * i) % 97
            if memo.get(key) is None:
                memo.put(key, i, 1 + key % 7)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(churn, seed) for seed in (1, 3, 5, 7)]:
                future.result(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert memo.size == _entry_sizes(memo) <= 50


def _block_of_by_loop(wsq):
    # the earlier definition: climb powers of 4 on the exact rational
    s = 0
    while 4 ** (s + 1) <= wsq:
        s += 1
    return s


def test_block_of_matches_power_of_four_loop():
    from fractions import Fraction

    for group, L in ((torus(1), 64.0), (torus(2), 32.0), (torus(3), 16.0), (SU2, 20.0)):
        for xi in enumerate_dual(group, L):
            wsq = weight_sq(group, xi)
            assert block_of(wsq) == _block_of_by_loop(wsq), (group, xi)
    for k in range(40):
        for wsq in (4**k, 4**k - 1, 4**k + 1, Fraction(4**k) - Fraction(1, 4),
                    Fraction(4**k) + Fraction(1, 4), 2 * 4**k):
            if wsq >= 1:
                assert block_of(wsq) == _block_of_by_loop(wsq), wsq
