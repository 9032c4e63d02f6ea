"""Norm functionals: closed-form values, identities, spec-string grammar."""

import math
import os
import platform
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from peterweyl import fourier, norms, verify
from peterweyl.fourier import SpectralFunction, dirichlet, synthesize, zero_spectral
from peterweyl.groups import (
    WEIGHT_SQ_DEN,
    DomainError,
    QuadratureRule,
    ResourceLimitError,
    axis_gaps,
    degree_fits,
    enumerate_dual,
    parse_group,
    quadrature,
    quadrature_degree,
    su2,
    torus,
    weight_sq,
)
from peterweyl.norms import (
    INF,
    Enclosure,
    NormSpec,
    NormSpecError,
    besov_norm,
    beurling_norm,
    beurling_r_norm,
    block_of,
    dyadic_blocks,
    format_norm_spec,
    lp_enclosures,
    lp_norm,
    lp_norms,
    norm_info,
    parse_norm_spec,
    seq_lp_norm,
    sobolev_norm,
    tl_norm,
    wiener_norm,
)
from peterweyl.verify import PROFILES, RunConfig, make_corpus

from elements import euler_to_su2, matrix_coefficient, nodes, random_element, rep_dim, weights

try:
    import resource
except ImportError:  # not on every platform
    resource = None

T1 = torus(1)
SU2 = su2()


def _random_spectral(group, L, seed):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for xi in enumerate_dual(group, L):
        d = rep_dim(group, xi)
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
    v2, info2 = lp_norms(D, [2.0])[2.0]
    assert v2 == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert info2["certified"] == "exact"
    vinf, infoinf = lp_norms(D, [INF])[INF]
    assert vinf == pytest.approx(3.0, abs=1e-12)
    assert infoinf["certified"] == "exact (identity-pinned)"


def test_one_plus_exponential_l1():
    # (1/2pi) int |1 + e^{ix}| dx = (1/2pi) int 2|cos(x/2)| dx = 4/pi
    val, info = lp_norms(ONE_PLUS, [1.0])[1.0]
    assert info["certified"] == "refined"
    assert val == pytest.approx(4.0 / math.pi, rel=3e-6)


def test_lp_zero_and_validation():
    assert lp_norm(zero_spectral(T1), 2.0) == 0.0
    with pytest.raises(Exception):
        lp_norm(E3, 0.0)
    for call in (lambda: seq_lp_norm(E3, 0.0), lambda: beurling_norm(E3, 0.0),
                 lambda: beurling_r_norm(E3, 1.0, 0.0)):
        with pytest.raises(DomainError, match="must be positive"):
            call()


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
    assert block_of([1, 3, 4]).tolist() == [0, 0, 1]


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
    # float reads digit-group underscores, any Unicode digit and space
    for text in ("Lp:1_5", "Lp:\uff11", "besov:r=1,p=2_0,q=1", "seq:\u0662", "Lp:\u20032"):
        with pytest.raises(NormSpecError, match="rule 'number'"):
            parse_norm_spec(text)
    # float also reads other spellings of infinity, and overflows to it
    for text in ("Lp:Infinity", "Lp:INF", "Lp:1e999", "beurling:infinity",
                 "besov:r=1,p=2,q=Inf"):
        with pytest.raises(NormSpecError, match="exactly 'inf' \\(rule 'number'\\)"):
            parse_norm_spec(text)
    assert parse_norm_spec("besov:r=1,p=2,q=inf").q == INF
    with pytest.raises(NormSpecError):
        parse_norm_spec("besov:r=1,p=2")  # missing q
    with pytest.raises(NormSpecError, match="rule 'spec'"):
        parse_norm_spec("Lp")
    with pytest.raises(NormSpecError, match="key=value"):
        parse_norm_spec("besov:r=1,p")
    with pytest.raises(NormSpecError, match="duplicate parameter 'r'"):
        parse_norm_spec("besov:r=1,r=2,p=1,q=1")
    with pytest.raises(NormSpecError, match="unknown family"):
        NormSpec("nope")
    with pytest.raises(NormSpecError, match="must be positive"):
        NormSpec("Lp", p=0.0)
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


def test_lp_norms_of_several_exponents_match_each_alone():
    # several exponents in one call give each the value and provenance it
    # gets on its own; the memo is cleared so both sides are evaluated
    for F in (_random_spectral(T1, 6.0, 4), _random_spectral(SU2, 2.0, 4)):
        norms.clear_memos()
        together = lp_norms(F, NIKOLSKII_EXPONENTS)
        for p in NIKOLSKII_EXPONENTS:
            norms.clear_memos()
            assert together[p] == lp_norms(F, [p])[p]


def test_besov_tl_provenance_reports_capped_grids():
    F = make_corpus(torus(2), 4.0, 1, 7).functions[0]
    for text in ("besov:r=0.5,p=1,q=2", "tl:r=0.5,p=2,q=4"):
        e = norm_info(F, parse_norm_spec(text), 20000)
        assert e.certified == "capped"
        assert e.nodes > 0
    for text in ("besov:r=0.5,p=2,q=2", "tl:r=0.5,p=2,q=2"):
        e = norm_info(F, parse_norm_spec(text), 20000)
        assert e.certified == "exact"
        assert e.nodes > 0


def test_besov_provenance_is_weakest_block_with_largest_grid():
    F = make_corpus(torus(2), 4.0, 1, 7).functions[0]
    blocks = [lp_norms(b, [1.0], 20000)[1.0][1] for b in dyadic_blocks(F).values()]
    e = norm_info(F, parse_norm_spec("besov:r=0.5,p=1,q=2"), 20000)
    assert e.nodes == max(b["nodes"] for b in blocks)
    assert e.bandlimit == max(b["bandlimit"] for b in blocks)
    # Dirichlet blocks are positive central: every block sup is pinned
    pinned = norm_info(dirichlet(T1, 6.0), parse_norm_spec("besov:r=1,p=inf,q=2"))
    assert pinned.certified == "exact (identity-pinned)"


def test_weakest_keeps_the_weakest_certification_and_the_largest_grid():
    order = ["exact (identity-pinned)", "exact", "enclosed", "refined", "capped"]
    assert list(norms.CERT_ORDER) == order
    for i, weakest in enumerate(order):
        parts = [Enclosure(1.0, 2.0, c, 10 * j, 2.0 * j) for j, c in enumerate(order[: i + 1])]
        assert norms.weakest(parts[::-1]) == (weakest, 10 * i, 2.0 * i)
        # a floor weakens a stronger certification and leaves a weaker one
        assert norms.weakest(parts, "enclosed")[0] == order[max(i, 2)]
    # one identity-pinned part stays pinned; no parts are exact on no grid
    assert norms.weakest([Enclosure(1.0, 1.0, order[0])]) == (order[0], 0, 0.0)
    assert norms.weakest([]) == ("exact", 0, 0.0)
    assert norms.weakest([], "enclosed") == ("enclosed", 0, 0.0)


def test_read_lp_norms_lifts_every_certification():
    # lp_norms' one reader: hi is the sup's "upper" where the value has one,
    # else the value: an identity-pinned sup is a point, an enclosed or
    # capped sup keeps both ends, and an exact, refined or capped ladder
    # value is a point.
    F = SpectralFunction(T1, {(0,): [[1.0]], (1,): [[0.3]], (-2,): [[0.5j]]})
    G = _random_spectral(torus(2), 3.0, 70)
    base = quadrature(G.group, G.max_weight()).node_count
    cases = {("exact (identity-pinned)", True): (dirichlet(T1, 4.0), INF, None),
             ("enclosed", False): (F, INF, None),
             ("capped", False): (G, INF, base),
             ("exact", True): (F, 2.0, None),
             ("refined", True): (F, 3.0, None),
             ("capped", True): (G, 3.0, base)}
    for (certified, point), (H, p, cap) in cases.items():
        value, info = lp_norms(H, [p], cap)[p]
        e = norms._read_lp_norms(H, [p], cap)[p]
        assert e == Enclosure(value, info.get("upper", value), certified, info["nodes"],
                              info["bandlimit"]), (certified, e, info)
        assert e.lo <= e.hi and (e.lo == e.hi) == point, (certified, e)
        # nothing is lost: the provenance holds these fields, "upper" at p = inf
        upper = {"upper": e.hi} if "upper" in info else {}
        assert info == {"certified": e.certified, "nodes": e.nodes, "bandlimit": e.bandlimit,
                        **upper}
    with pytest.raises(FrozenInstanceError):
        e.lo = 0.0


def _recorded_bands(monkeypatch):
    # The bands norms asks quadrature for from here on, in order, refused
    # ones included.
    bands = []

    def recording_quadrature(group, band, max_nodes=None):
        bands.append(band)
        return quadrature(group, band, max_nodes)

    monkeypatch.setattr(norms, "quadrature", recording_quadrature)
    return bands


def test_tl_even_p_q2_is_exact_from_one_grid(monkeypatch):
    F = _random_spectral(T1, 6.0, 8)
    built = _recorded_bands(monkeypatch)
    e = norm_info(F, NormSpec("tl", r=0.5, p=4.0, q=2.0))
    assert e.certified == "exact"
    assert built == [2.0 * F.max_weight()]
    assert e.bandlimit == quadrature(T1, built[0]).bandlimit  # the rule's band
    assert e.lo == tl_norm(F, 0.5, 4.0, 2.0)


def test_coefficient_norms_carry_exact_provenance():
    F = _random_spectral(SU2, 2.0, 6)
    for text in ("seq:1.5", "wiener:1", "beurling:0.5", "beurlingR:r=0.5,beta=2"):
        e = norm_info(F, parse_norm_spec(text))
        assert (e.certified, e.nodes, e.bandlimit) == ("exact", 0, 0.0)


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


def test_a_malformed_node_cap_is_refused_where_no_grid_is_built():
    # The zero function, an identity-pinned sup and coefficient-only norms
    # build no grid; the cap is checked on entry all the same.
    zero = zero_spectral(T1)
    calls = [lambda cap: lp_norm(zero, 2.0, cap), lambda cap: lp_norm(ONE_PLUS, INF, cap),
             lambda cap: lp_enclosures(zero, [3.0], cap),
             lambda cap: norm_info(zero, parse_norm_spec("besov:r=1,p=2,q=2"), cap),
             lambda cap: norm_info(zero, parse_norm_spec("wiener:1"), cap),
             lambda cap: fourier.pointwise_power(zero, 2, max_nodes=cap)]
    assert lp_norms(ONE_PLUS, [INF])[INF][1]["certified"] == "exact (identity-pinned)"
    for call in calls:
        for cap in (-5, 0, 2.5):
            with pytest.raises(DomainError, match="node cap"):
                call(cap)
        call(None)
        call(1)


@pytest.mark.parametrize("L", [2.0, 8.0])
@pytest.mark.parametrize("p", [1e-320, 1e-300, 1e-20, 1e-12])
def test_root_that_underflows_raises_domain_error(L, p):
    # The kernel vanishes at some nodes, so the quadrature sum of |f|^p is
    # below 1 and its 1/p-th power underflows; two levels at 0.0 would
    # "agree" and certify a refined 0.0 for a positive norm.
    with pytest.raises(DomainError, match="leaves float range at the root"):
        lp_norms(dirichlet(T1, L), [p])


def test_tiny_exponents_are_refused_where_one_rounding_passes_the_stop_rule():
    # For f = 2 every |f|^p rounds to 1 once p ln 2 < 2^-53: the ladder
    # "refined" 1.0 at p = 1e-16 and 2.000152 at p = 1e-12.  Below
    # MIN_ROOT_EXPONENT = 2^-53 / REFINE_STOP every root 1/p is refused.
    F = SpectralFunction(T1, {(0,): [[2.0]]})
    assert norms.MIN_ROOT_EXPONENT == pytest.approx(1.11e-10, rel=1e-3)
    for p in (1e-16, 1e-12, 1e-10):
        for call in (lambda: lp_norms(F, [p]), lambda: seq_lp_norm(F, p),
                     lambda: beurling_norm(F, p), lambda: besov_norm(F, 0.5, 2.0, p),
                     lambda: tl_norm(F, 0.5, 2.0, p), lambda: tl_norm(F, 0.5, p, 2.0)):
            with pytest.raises(DomainError, match=f"at exponent {p:g}: below"):
                call()
        # the enclosures take no root at p
        e = lp_enclosures(F, [p])[p]
        assert e.lo <= 2.0 <= e.hi
    for p in (1e-9, 1e-6):
        value, info = lp_norms(F, [p])[p]
        assert abs(value - 2.0) <= norms.REFINE_STOP * 2.0 and info["certified"] == "refined"
        assert seq_lp_norm(F, p) == pytest.approx(2.0, rel=norms.REFINE_STOP)
    # A cap that admits level 0 only ends a non-constant function's ladder
    # "capped", and the root is refused there too.
    G = SpectralFunction(T1, {(0,): [[2.0]], (1,): [[1e-3]]})
    cap = quadrature(T1, G.max_weight()).node_count
    assert lp_norms(G, [1e-6], cap)[1e-6][1]["certified"] == "capped"
    for call in (lambda: lp_norms(G, [1e-12], cap), lambda: besov_norm(G, 0.5, 1e-12, 2.0, cap),
                 lambda: sobolev_norm(G, 1.0, 1e-12, cap)):
        with pytest.raises(DomainError, match="at exponent 1e-12: below"):
            call()


def _climb_to_end(climb, sums):
    # Drive a ladder generator by hand: send each level its sum, in order.
    # Returns the rules it yielded and its Enclosure; a raise propagates.
    rules = [next(climb)]
    try:
        for total in sums:
            rules.append(climb.send(total))
    except StopIteration as end:
        return rules, end.value
    raise AssertionError(f"the ladder asked for a level past {len(sums)} sums")


def test_ladder_generator_makes_every_level_cap_and_stop_decision():
    # norms._climb yields each level's full rule and is sent its quadrature
    # sum; chosen sums, with no grid value synthesized, reach each ending.
    F = SpectralFunction(T1, {(0,): [[2.0]], (1,): [[1.0]]})
    levels = [quadrature(T1, F.max_weight() * 2.0**j) for j in range(3)]
    grid = [(r.node_count, r.bandlimit) for r in levels]
    # exact: one level, at the exact level it is given
    rules, e = _climb_to_end(norms._climb(F, 4.0, 1, None), [16.0])
    assert rules == [levels[1]] and e == Enclosure(2.0, 2.0, "exact", *grid[1])
    # refined: at the first level that agrees with the one before, on its grid
    agree = 3.0 * (1.0 + 0.5 * norms.REFINE_STOP)
    rules, e = _climb_to_end(norms._climb(F, 1.0, None, None), [1.0, 3.0, agree])
    assert rules == levels and e == Enclosure(agree, agree, "refined", *grid[2])
    # capped: the cap refuses level 2, so the ladder ends on level 1's value and grid
    rules, e = _climb_to_end(norms._climb(F, 1.0, None, grid[1][0]), [1.0, 3.0])
    assert rules == levels[:2] and e == Enclosure(3.0, 3.0, "capped", *grid[1])
    # the cap refuses the first level: nothing to end on
    with pytest.raises(ResourceLimitError):
        next(norms._climb(F, 1.0, None, grid[0][0] - 1))
    # values that leave float range are thrown in, and raise
    climb = norms._climb(F, 1.0, None, None)
    next(climb)
    with pytest.raises(DomainError, match="thrown"):
        climb.throw(DomainError("thrown"))
    # a tiny p is refused on every ending, once every level's range check passed
    tiny = 1e-12
    for exact_level, cap, sums in ((0, None, [1.0]), (None, None, [1.0, 1.0]),
                                   (None, grid[0][0], [1.0])):
        with pytest.raises(DomainError, match=f"at exponent {tiny:g}: below"):
            _climb_to_end(norms._climb(F, tiny, exact_level, cap), sums)
        # a sum whose root 1/p overflows is refused first, by its range check
        with pytest.raises(DomainError, match="leaves float range at the root"):
            _climb_to_end(norms._climb(F, tiny, exact_level, cap), sums[:-1] + [2.0])


def test_hs_norm_rescales_only_past_overflow():
    rng = np.random.default_rng(3)
    mats = {twoL: rng.standard_normal((twoL + 1,) * 2) + 1j * rng.standard_normal((twoL + 1,) * 2)
            for twoL in (0, 1, 4)}
    plain = norms._hs_norms(SpectralFunction(SU2, mats))
    for i, twoL in enumerate(mats):
        # one rep past overflow is rescaled; the others keep their bytes
        big = norms._hs_norms(SpectralFunction(SU2, {**mats, twoL: mats[twoL] * 1e200}))
        assert math.isfinite(big[i]) and abs(big[i] - 1e200 * plain[i]) <= 1e-15 * big[i]
        assert np.array_equal(np.delete(big, i), np.delete(plain, i))
    for i, mat in enumerate(mats.values()):
        ref = _hs_norm_by_loop(mat)  # d <= 2 sums at most 4 entries in the loop's order
        assert plain[i] == ref if len(mat) <= 2 else abs(plain[i] - ref) <= 1e-15 * ref
    wide = SpectralFunction(SU2, {1: [[1e200, 1e200], [0.0, 0.0]]})
    assert norms._hs_norms(wide).tolist() == [math.sqrt(2.0) * 1e200]
    huge = SpectralFunction(SU2, {1: [[1.5e308, 1.5e308], [0.0, 0.0]]})
    assert norms._hs_norms(huge).tolist() == [INF]  # the norm itself overflows


def _tail_sups_by_scan(F):
    # reference: t_s = max over entries with <xi>^2 >= 4^s, until empty
    entries = [(weight_sq(F.group, xi), rep_dim(F.group, xi) ** -0.5 * _hs_norm_by_loop(mat))
               for xi, mat in F.items()]
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
            sups, ref = norms._tail_sups(F), _tail_sups_by_scan(F)
            if group.kind == "torus":
                assert sups == ref  # maxima of the same one-entry norms
            else:  # HS sums over d^2 entries in another order
                assert len(sups) == len(ref)
                assert all(_close(a, b) for a, b in zip(sups, ref))
    # shell 1 empty, shell 2 holding only an all-zero matrix
    gap = SpectralFunction(
        T1, {(1,): np.array([[2.0]]), (4,): np.zeros((1, 1)), (8,): np.array([[0.5j]])}
    )
    assert norms._tail_sups(gap) == _tail_sups_by_scan(gap) == [2.0, 0.5, 0.5, 0.5]


# ---------------------------------------------------------------------------
# the packed coefficient layout against the per-rep loops it replaced


def _segment_sum(sq):
    # The first entry plus the rest in order: how np.add.reduceat adds a
    # segment of up to 8 entries.  np.sum adds ((a0 + a1) + a2) + a3, which
    # can differ in the last bit from a0 + ((a1 + a2) + a3) on a 2x2 matrix.
    return sq[0] + np.sum(sq[1:])


def _hs_norm_by_loop(mat):
    # Hilbert-Schmidt norm of one matrix, rescaled by its largest entry only
    # past overflow.
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(_segment_sum(np.abs(mat).ravel() ** 2)))
        if norm == INF:
            big = float(np.abs(mat).max())
            if math.isfinite(big):
                norm = big * float(np.sqrt(_segment_sum((np.abs(mat).ravel() / big) ** 2)))
    return norm


def _seq_lp_norm_by_loop(F, p):
    # One Python term per rep, summed in canonical order.
    if p == INF:
        return max((rep_dim(F.group, xi) ** -0.5 * _hs_norm_by_loop(mat)
                    for xi, mat in F.coeffs.items()), default=0.0)
    total = 0.0
    try:
        for xi, mat in F.items():
            total += rep_dim(F.group, xi) ** (p * (2.0 / p - 0.5)) * _hs_norm_by_loop(mat) ** p
    except OverflowError:
        total = INF
    return total ** (1.0 / p)


def _tail_sups_by_loop(F):
    # The suffix-maximum scan on per-rep values computed one rep at a time.
    entries = [(weight_sq(F.group, xi), rep_dim(F.group, xi) ** -0.5 * _hs_norm_by_loop(mat))
               for xi, mat in F.items()]
    sups = []
    while any(wsq >= 4 ** len(sups) for wsq, _ in entries):
        sups.append(max(v for wsq, v in entries if wsq >= 4 ** len(sups)))
    return sups


def _support_count_by_loop(F, threshold):
    gmax = max((float(np.abs(mat).max()) for mat in F.coeffs.values()), default=0.0)
    if gmax == 0.0:
        return 0
    return sum(rep_dim(F.group, xi) ** 2 for xi, mat in F.coeffs.items()
               if float(np.abs(mat).max()) >= threshold * gmax)


def _dyadic_split_by_loop(F):
    buckets = {}
    for xi, mat in F.items():
        buckets.setdefault(_block_of_by_loop(weight_sq(F.group, xi)), {})[xi] = mat
    return dict(sorted(buckets.items()))


def _central_identity_value_by_loop(F):
    # f(e) when every coefficient is a nonnegative real multiple of the identity
    for mat in F.coeffs.values():
        c = mat[0, 0]
        if c.imag != 0.0 or c.real < 0.0 or not np.array_equal(mat, c.real * np.eye(len(mat))):
            return None
    return sum(rep_dim(F.group, xi) * float(np.trace(mat).real) for xi, mat in F.items())


def _close(a, b, rel=1e-14):
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


@st.composite
def _spectral_functions(draw):
    # Few reps drawn from a dual, so shells are often empty, with zero
    # matrices, one-rep supports, and entries near 1e154 and 1e200.
    group = draw(st.sampled_from([T1, torus(2), torus(3), SU2]))
    dual = enumerate_dual(group, draw(st.sampled_from([1.0, 2.5, 4.5, 9.0])))
    reps = draw(st.lists(st.sampled_from(dual), max_size=12, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    central = draw(st.integers(0, 3)) == 0
    coeffs = {}
    for xi in reps:
        d = rep_dim(group, xi)
        scale = draw(st.sampled_from([0.0, 1.0, 1.0, 1e-9, 1e154, 1e200]))
        if central:
            c = draw(st.sampled_from([1.0, 2.5, 0.0, -1.0, 1j]))
            coeffs[xi] = scale * c * np.eye(d)
        else:
            coeffs[xi] = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return SpectralFunction(group, coeffs)


@given(_spectral_functions(), st.sampled_from([1.0, 2.0, math.sqrt(5.0), 3.0, 4.5, 100.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_packed_layout_matches_per_rep_loops(F, L):
    group = F.group
    exact = group.kind == "torus" or F.dims.max(initial=1) <= 2  # sums of at most 4 entries
    heaviest = max((weight_sq(group, xi) for xi in F.coeffs), default=0)
    assert F.wsq.max(initial=0) == WEIGHT_SQ_DEN * heaviest
    assert F.max_weight() == math.sqrt(heaviest)
    for threshold in (1e-12, 1e-3, 0.0):
        assert fourier.support_count(F, threshold) == _support_count_by_loop(F, threshold)
    split = dyadic_blocks(F)
    ref = _dyadic_split_by_loop(F)
    assert list(split) == list(ref)
    for s, block in split.items():
        assert block.support() == list(ref[s])
        assert all(np.array_equal(block.coeffs[xi], mat) for xi, mat in ref[s].items())
    budget = Fraction(L) ** 2
    kept = fourier.partial_sum(F, L)
    assert kept.support() == [xi for xi in F.support() if weight_sq(group, xi) <= budget]
    assert all(np.array_equal(mat, F.coeffs[xi]) for xi, mat in kept.items())
    hs = norms._hs_norms(F).tolist()
    ref_hs = [_hs_norm_by_loop(mat) for mat in F.coeffs.values()]
    assert all(_close(a, b) for a, b in zip(hs, ref_hs)) and len(hs) == len(ref_hs)
    if exact:
        assert hs == ref_hs
    for p in (0.5, 1.0, 4.0 / 3.0, 2.0, 3.0, INF):
        ref = _seq_lp_norm_by_loop(F, p)
        if not math.isfinite(ref):
            with pytest.raises(DomainError):
                seq_lp_norm(F, p)
            continue
        got = seq_lp_norm(F, p)
        assert _close(got, ref), (p, got, ref)
        if p == INF and exact:
            assert got == ref  # a maximum of the same per-rep values
    sups, ref = norms._tail_sups(F), _tail_sups_by_loop(F)
    assert len(sups) == len(ref) and all(_close(a, b) for a, b in zip(sups, ref))
    if exact:
        assert sups == ref
    peak, ref = norms._identity_value(F), _central_identity_value_by_loop(F)
    assert (peak is None) == (ref is None)
    assert peak is None or _close(peak, ref)


def test_digest_follows_content_not_construction():
    F = _random_spectral(SU2, 2.5, 8)
    shuffled = SpectralFunction(SU2, dict(reversed(F.items())))
    assert shuffled.digest == F.digest
    assert F.restricted(np.ones(len(F.dims), dtype=bool)).digest == F.digest
    assert F.scaled(np.ones(len(F.dims))).digest == F.digest
    assert F.restricted(F.dims > 1).digest != F.digest
    assert SpectralFunction(SU2, {0: [[1.0]]}).digest != SpectralFunction(T1, {(0,): [[1.0]]}).digest


# ---------------------------------------------------------------------------
# the slab ladder against full-grid reductions


def _full_grid_lp(F, rule, p):
    # The reduction the ladder made before it streamed slabs, kept as the
    # reference: the whole modulus array against the flat weight vector.
    v = np.abs(synthesize(F, rule).values)
    return float(v.max()) if p == INF else float(np.dot(weights(rule), v**p) ** (1.0 / p))


def _ragged(rule):
    rows = [b - a for a, b, _, _ in fourier._slab_bounds(rule)]
    return len(rows) > 1 and rows[-1] < rows[0]


@pytest.mark.parametrize("small_slabs", [True, False])
@pytest.mark.parametrize(
    "group,L,cap,slab_nodes",  # slab_nodes: a small split with a ragged last slab
    [(T1, 6.0, None, 700), (torus(2), 3.0, None, 700), (torus(2), 3.0, 2000, 100),
     (torus(3), 2.0, None, 700), (SU2, 2.0, None, 1600), (SU2, 2.0, 20000, 700)],
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
        if p == INF:  # the grid maximum is the enclosure's lower end
            assert ref <= value <= info["upper"], (value, ref, info)
        else:
            assert abs(value - ref) <= 1e-13 * ref, (p, value, ref)
    certs = {info["certified"] for _, info in out.values()}
    if cap:
        assert certs == {"exact", "capped"}
    else:
        assert {"exact", "refined"} <= certs
    if small_slabs and group != T1:
        assert any(map(_ragged, rules))


def test_ladder_stops_at_the_node_cap(monkeypatch):
    # |1 + e^{ix}| has a kink at x = pi, so consecutive levels never agree
    # exactly: with a zero stop tolerance the ladder runs until the node cap
    # refuses the next level, twice the band of the last, and reports the
    # last level's value, nodes and band as capped.
    monkeypatch.setattr(norms, "REFINE_STOP", 0.0)
    bands = _recorded_bands(monkeypatch)
    cap = 2000
    value, info = lp_norms(ONE_PLUS, [1.0], cap)[1.0]
    w = ONE_PLUS.max_weight()
    assert bands == [w * 2.0**j for j in range(len(bands))] and len(bands) > 2
    with pytest.raises(ResourceLimitError):
        quadrature_degree(T1, bands[-1], cap)
    rule = quadrature(T1, bands[-2], cap)
    assert info == {"certified": "capped", "nodes": rule.node_count, "bandlimit": rule.bandlimit}
    ref = _full_grid_lp(ONE_PLUS, rule, 1.0)
    assert abs(value - ref) <= 1e-13 * ref


def test_a_slow_ladder_refines_past_twelve_levels():
    # |1 + e^{ix}|^0.1 = |2 cos(x/2)|^0.1 is steep where f vanishes, so its
    # trapezoid sums converge slowly: the ladder refines past level 12 (23,232
    # nodes) to meet the stop rule, checked against adaptive quadrature
    # split at the zero x = pi, which shares no code with the package.
    p = 0.1
    value, info = lp_norms(ONE_PLUS, [p])[p]
    assert info["certified"] == "refined" and info["nodes"] > 23_232

    def integrand(x):
        return abs(2.0 * math.cos(x / 2.0)) ** p

    mean = sum(quad(integrand, a, b, limit=200)[0]
               for a, b in ((0.0, math.pi), (math.pi, 2.0 * math.pi))) / (2.0 * math.pi)
    assert value == pytest.approx(mean ** (1.0 / p), rel=1e-5)


@pytest.mark.parametrize("group,L,cap", [(T1, 6.0, 600), (torus(2), 2.0, 3000),
                                         (torus(3), 2.0, 20000), (SU2, 1.5, 5000)], ids=str)
def test_ladder_values_name_their_rule_and_cap_only_where_refused(monkeypatch, group, L, cap):
    # Every ladder value (L^p and Triebel-Lizorkin) records the nodes and
    # band of the last rule the ladder built, and a capped one has its next
    # level, twice the band of its own, refused by the node cap: the ladder
    # has no other stop.
    F = _random_spectral(group, L, 5)
    bands = _recorded_bands(monkeypatch)
    norms.clear_memos()
    specs = [NormSpec("Lp", p=p) for p in (0.5, 1.0, 1.5, 4.0)]
    specs += [NormSpec("tl", r=0.5, p=1.5, q=q) for q in (1.0, 3.0, INF)]
    certs = []
    for spec in specs:
        bands.clear()
        e = norm_info(F, spec, cap)
        certs.append(e.certified)
        if e.certified == "capped":
            assert bands[-1] == 2.0 * bands[-2]
            with pytest.raises(ResourceLimitError):
                quadrature_degree(group, bands[-1], cap)
            bands.pop()
        rule = quadrature(group, bands[-1], cap)
        assert (e.nodes, e.bandlimit) == (rule.node_count, rule.bandlimit), e
    assert {"exact", "capped"} <= set(certs), certs


def _family_specs(group):
    # Every target and source norm of the embedding and wiener-chain pairs.
    pairs = verify._embedding_pairs(group) + verify._wiener_chain_pairs(group)
    return list(dict.fromkeys(s for pair in pairs for s in (pair.target, pair.source)))


@pytest.mark.parametrize("capped", [False, True], ids=["default-cap", "level-0-cap"])
@pytest.mark.parametrize("group,L", [(T1, 16.0), (torus(2), 8.0)], ids=str)
def test_prefetch_changes_no_norm_info_and_leaves_no_ladder_to_run(monkeypatch, group, L, capped):
    # After one _prefetch of every spec, each norm_info gives the Enclosure
    # a fresh evaluation gives, or the same exception, and runs a ladder
    # only where it raises (a failed ladder is not kept).  The level-0 cap
    # admits the kernel's own grid only: refined ladders end capped there,
    # and the exact L^4 ladders (level 1) are refused.
    F = dirichlet(group, L)
    specs = _family_specs(group)
    cap = quadrature(group, F.max_weight()).node_count if capped else None

    def outcome(spec):
        try:
            return norm_info(F, spec, cap)
        except (DomainError, ResourceLimitError) as exc:
            return type(exc), str(exc)

    fresh = {}
    for spec in specs:
        norms.clear_memos()
        fresh[spec] = outcome(spec)
    norms.clear_memos()
    norms._prefetch(F, specs, cap)
    ran, evaluate = [], norms._evaluate

    def spy(jobs, max_nodes):
        ran.append(jobs)
        return evaluate(jobs, max_nodes)

    monkeypatch.setattr(norms, "_evaluate", spy)
    for spec in specs:
        ran.clear()
        got = outcome(spec)
        assert got == fresh[spec], spec
        assert not ran or not isinstance(got, Enclosure), spec
    certs = {e.certified if isinstance(e, Enclosure) else e[0].__name__ for e in fresh.values()}
    assert {"exact", "capped" if capped else "refined"} <= certs, certs
    assert ("ResourceLimitError" in certs) == capped, certs


@pytest.mark.parametrize("group", [T1, torus(2), torus(3), SU2], ids=str)
def test_level_reductions_weight_each_slab_by_its_rows(monkeypatch, group):
    # Random values and random positive axis weights (real rules have
    # uniform leading-axis weights, which would hide a misaligned slab).
    real = quadrature(group, 3.0)
    rng = np.random.default_rng(4)
    rule = QuadratureRule(group, real.degree, real.axes,
                          [rng.random(len(a)) + 0.5 for a in real.axes])
    # three rows a slab, and a ragged last slab (T^1 is one slab)
    monkeypatch.setattr(fourier, "SLAB_NODES", 3 * rule.node_count // rule.shape[0])
    assert _ragged(rule) == (group != T1)
    v = rng.random(rule.node_count) * 3.0
    bounds = list(fourier._slab_bounds(rule))

    def slabs():
        return ((lo, hi, v[lo:hi]) for _, _, lo, hi in bounds)

    assert norms._grid_peak(slabs()) == v.max()
    for p in NIKOLSKII_EXPONENTS[:-1]:
        ref = np.dot(weights(rule), v**p)
        assert abs(_weighted_sum(slabs(), rule, p) - ref) <= 1e-13 * ref, p


@pytest.mark.parametrize("slab_nodes", [700, 1 << 16, fourier.SLAB_NODES])
@pytest.mark.parametrize("r,p,q,cap", [(0.5, 3.0, 2.0, None), (0.5, 1.5, INF, None),
                                       (1.0, 4.0, 2.0, None), (0.5, 1.0, 3.0, 3000)])
@pytest.mark.parametrize("group,L", [(torus(2), 4.0), (SU2, 2.5)], ids=str)
def test_tl_aggregate_matches_stacked_full_grids(monkeypatch, group, L, r, p, q, cap,
                                                 slab_nodes):
    monkeypatch.setattr(fourier, "SLAB_NODES", slab_nodes)
    F = _random_spectral(group, L, 22)
    e = norm_info(F, NormSpec("tl", r=r, p=p, q=q), cap)
    rule = quadrature(group, e.bandlimit)
    assert rule.node_count == e.nodes
    arr = np.stack([2.0 ** (s * r) * np.abs(synthesize(b, rule).values)
                    for s, b in dyadic_blocks(F).items()])
    agg = arr.max(axis=0) if q == INF else np.sum(arr**q, axis=0) ** (1.0 / q)
    ref = float(np.dot(weights(rule), agg**p) ** (1.0 / p))
    assert abs(e.lo - ref) <= 1e-13 * ref
    assert len(dyadic_blocks(F)) > 1
    if cap or p != 4.0:
        assert e.certified in (("capped",) if cap else ("refined", "capped"))
    else:
        assert e.certified == "exact"


@pytest.mark.skipif(resource is None or platform.libc_ver()[0] != "glibc",
                    reason="guards glibc malloc's mmap threshold")
def test_slab_passes_take_their_temporaries_from_the_heap():
    # Slabs stay within the default mmap threshold (128 KiB), so once a sup
    # has warmed the heap, further sups fault in almost no pages: a handful,
    # against about 6,000 for these nine with 1 MiB slabs.  A fresh
    # interpreter starts a fresh heap.
    code = (
        "import resource\n"
        "from peterweyl import groups, norms, verify\n"
        "band = verify.BANDLIMITS['su2']\n"
        "F = verify.make_corpus(groups.su2(), band, 10, 7).functions\n"
        "norms._sup(F[0], None)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for f in F[1:]:\n"
        "    norms._sup(f, None)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(norms.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 500


# ---------------------------------------------------------------------------
# the sign-even fold


def _sign_even_random(group, L, seed, imag=False):
    # Random real coefficients, one per sign orbit of the dual: sign-even,
    # but neither positive-type nor identity-pinned.  imag=True adds a
    # random imaginary part per orbit: even in every coordinate, but not
    # sign-even, which needs real coefficients too.
    rng = np.random.default_rng(seed)
    orbit_values = {}
    coeffs = {}
    for k in enumerate_dual(group, L):
        orbit = tuple(map(abs, k))
        if orbit not in orbit_values:
            orbit_values[orbit] = complex(rng.standard_normal(),
                                          rng.standard_normal() if imag else 0.0)
        coeffs[k] = [[orbit_values[orbit]]]
    return SpectralFunction(group, coeffs)


def _weighted_sum(slabs, rule, p):
    # One ladder level's quadrature sum of v^p over a pass of slabs.
    acc = norms._WeightedSum(rule, p)
    for lo, hi, vals in slabs:
        acc.add(lo, hi, vals)
    return acc.total


def _full_grid_root(slabs, rule, p):
    # The ladder's reduction of one level on the full rule, kept as the
    # reference for a folded level.
    if p == INF:
        return norms._grid_peak(slabs)
    return float(_weighted_sum(slabs, rule, p) ** (1.0 / p))


@pytest.fixture()
def ladder_spy(monkeypatch):
    # As they happen: the rule of every pass over node values (a ladder
    # level, the sup's, or one block's at a Triebel-Lizorkin level), the
    # exponent of every weighted sum (one per ladder and level), and the
    # quadrature calls.
    seen = {"levels": [], "sums": [], "quadrature": 0}
    synth, weigh, build = norms._synth_values, norms._WeightedSum, norms.quadrature

    def values(F, rule):
        seen["levels"].append(rule)
        return synth(F, rule)

    def weighted_sum(rule, p):
        seen["sums"].append(p)
        return weigh(rule, p)

    def rule_of(*args):
        seen["quadrature"] += 1
        return build(*args)

    monkeypatch.setattr(norms, "_synth_values", values)
    monkeypatch.setattr(norms, "_WeightedSum", weighted_sum)
    monkeypatch.setattr(norms, "quadrature", rule_of)
    return seen


def _fresh(evaluate, seen, fold=True):
    # evaluate() from a cleared memo, with the fold on or off; returns its
    # result, the pass rules and the number of quadrature calls.
    seen["levels"].clear()
    seen["sums"].clear()
    seen["quadrature"] = 0
    norms.clear_memos()
    with pytest.MonkeyPatch.context() as m:
        if not fold:
            m.setattr(SpectralFunction, "sign_even", property(lambda F: False))
        out = evaluate()
    norms.clear_memos()
    return out, list(seen["levels"]), seen["quadrature"]


# Bands and node caps whose ladders end on axes of both parities per group;
# the caps keep the T^2 and T^3 references small.
_FOLD_BANDS = {1: [(3.0, None), (5.0, None)], 2: [(2.0, None), (3.0, 200_000)],
               3: [(1.5, 300_000), (2.0, 300_000)]}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fold_matches_full_grid_reference(ladder_spy, n):
    group = torus(n)
    parities = set()
    for L, cap in _FOLD_BANDS[n]:
        for F in (dirichlet(group, L), _sign_even_random(group, L, 30 + n)):
            assert F.sign_even
            out, levels, calls = _fresh(lambda: lp_norms(F, NIKOLSKII_EXPONENTS, cap), ladder_spy)
            ref, full_levels, full_calls = _fresh(
                lambda: lp_norms(F, NIKOLSKII_EXPONENTS, cap), ladder_spy, fold=False)
            assert levels and all(rule.is_folded for rule in levels)
            assert not any(rule.is_folded for rule in full_levels)
            assert [r.moduli for r in levels] == [r.shape for r in full_levels]
            assert calls == full_calls
            for p, (value, info) in out.items():
                # certification, full grid nodes and band
                assert {**info, "upper": 0} == {**ref[p][1], "upper": 0}, p
                if info["certified"] == "exact (identity-pinned)":
                    continue
                full = quadrature(group, info["bandlimit"])
                assert full.node_count == info["nodes"]
                parities.add(full.shape[0] % 2)
                want = _full_grid_root(norms._synth_values(F, full), full, p)
                if p == INF:  # the same grid maximum, and the bound above it
                    assert abs(info["upper"] - ref[p][1]["upper"]) <= 1e-13 * want
                    assert abs(value - want) <= 1e-13 * want and value <= info["upper"]
                else:
                    assert abs(value - want) <= 1e-13 * want, (L, p, value, want)
    assert parities == {0, 1}


@pytest.mark.parametrize("r,p,q", [(0.5, 3.0, 2.0), (0.5, 1.5, INF), (1.0, 4.0, 2.0),
                                   (0.5, 1.0, 3.0)])
@pytest.mark.parametrize("group,L,cap", [(T1, 9.0, None), (torus(2), 4.0, 300_000),
                                         (torus(3), 2.5, 300_000)], ids=str)
def test_fold_tl_aggregate_matches_full_grid_reference(ladder_spy, group, L, cap, r, p, q):
    F = _sign_even_random(group, L, 40)
    spec = NormSpec("tl", r=r, p=p, q=q)
    e, levels, calls = _fresh(lambda: norm_info(F, spec, cap), ladder_spy)
    ref, _, full_calls = _fresh(lambda: norm_info(F, spec, cap), ladder_spy, fold=False)
    assert levels and all(rule.is_folded for rule in levels)
    assert (e.certified, e.nodes, e.bandlimit) == (ref.certified, ref.nodes, ref.bandlimit)
    assert calls == full_calls
    full = quadrature(group, e.bandlimit)
    assert full.node_count == e.nodes
    arr = np.stack([2.0 ** (s * r) * np.abs(synthesize(b, full).values)
                    for s, b in dyadic_blocks(F).items()])
    agg = arr.max(axis=0) if q == INF else np.sum(arr**q, axis=0) ** (1.0 / q)
    want = _full_grid_root([(0, full.node_count, agg)], full, p)
    assert abs(e.lo - want) <= 1e-13 * want
    assert len(dyadic_blocks(F)) > 1


def _real_not_even(group, L, seed):
    # c(-k) = conj(c(k)) with random complex c: real-valued, not even.
    rng = np.random.default_rng(seed)
    coeffs = {}
    for k in enumerate_dual(group, L):
        if k not in coeffs:
            c = complex(rng.standard_normal(), rng.standard_normal()) if any(k) else 1.0
            coeffs[k] = [[c]]
            coeffs[tuple(-a for a in k)] = [[c.conjugate()]]
    return SpectralFunction(group, coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_functions_not_sign_even_take_the_full_grid(ladder_spy, n):
    group = torus(n)
    even = _sign_even_random(group, 2.5, 50)
    # real and not even; even with complex coefficients
    cases = [_real_not_even(group, 2.5, 51), _sign_even_random(group, 2.5, 52, imag=True)]
    if n > 1:
        # even in every coordinate but the last
        cases.append(even.scaled(np.where(even.index[:, -1] > 0, 2.0, 1.0)))
    for F in cases:
        assert not F.sign_even
        out, levels, _ = _fresh(lambda: lp_norms(F, NIKOLSKII_EXPONENTS, 100_000), ladder_spy)
        assert levels and not any(rule.is_folded for rule in levels)
        for p, (value, info) in out.items():
            full = quadrature(group, info["bandlimit"])
            want = _full_grid_root(norms._synth_values(F, full), full, p)
            if p == INF:
                assert abs(value - want) <= 1e-13 * want and value <= info["upper"]
            else:
                assert value == want


def test_sign_even_is_decided_exactly():
    F = _sign_even_random(torus(2), 3.0, 6)
    assert F.sign_even
    # even in every coordinate with complex coefficients is not sign-even,
    # nor is one imaginary part of one ulp
    assert not _sign_even_random(torus(2), 3.0, 6, imag=True).sign_even
    tilted = F.entries.copy()
    tilted[-1] += 1j * np.nextafter(0.0, 1.0)
    assert not SpectralFunction._packed(F.group, F.index, F.dims, F.wsq, tilted).sign_even
    last = F.entries[-1]
    nudged = F.entries.copy()
    nudged[-1] = complex(np.nextafter(last.real, INF), last.imag)
    assert not SpectralFunction._packed(F.group, F.index, F.dims, F.wsq, nudged).sign_even
    # a stored zero without its images is the same function, still sign-even
    assert SpectralFunction(F.group, {**F.coeffs, (5, 1): [[0.0]]}).sign_even
    assert zero_spectral(torus(3)).sign_even
    assert not dirichlet(SU2, 2.0).sign_even


def test_sign_even_is_decided_once_per_function(monkeypatch):
    # lp_enclosures reads it for the sup and every exact ladder of a bulk
    # function; the property decides it on the first read.
    calls = []
    decide = fourier._decide_sign_even
    monkeypatch.setattr(fourier, "_decide_sign_even", lambda F: calls.append(F) or decide(F))
    (F,) = make_corpus(torus(2), 4.0, 1, 7).functions
    lp_enclosures(F, NIKOLSKII_EXPONENTS)
    assert calls == [F]


def test_sign_even_ladder_builds_no_phase_table(monkeypatch):
    # A folded level of a sign-even function sums cosines: the ladder of a
    # T^2 Dirichlet kernel reads no complex phase table.  Every table built
    # is offered to the cache, kept or not.
    built, put = [], fourier._TABLES.put
    monkeypatch.setattr(fourier._TABLES, "put",
                        lambda key, *rest: built.append(key[0]) or put(key, *rest))
    fourier._TABLES.clear()
    norms.clear_memos()
    value, info = lp_norms(dirichlet(torus(2), 16.0), [1.0])[1.0]
    assert info["certified"] in ("refined", "capped") and value > 0.0
    assert "phase" not in built and "cosine" in built


# ---------------------------------------------------------------------------
# the sup enclosure


def _series(F):
    # x -> f(x), the Fourier series summed term by term: exp(i k.x) on a
    # torus, d tr(fhat D(x)) with the reference matrix_coefficient on SU(2),
    # which reads any Euler angles.
    if F.group.kind == "torus":
        k = F.index.astype(float)
        return lambda x: np.exp(1j * (k @ x)) @ F.entries
    return lambda x: sum((d + 1) * np.trace(mat @ matrix_coefficient(SU2, d, x))
                         for d, mat in F.items())


def _reference_sup(F, band, seeds):
    # max |f| on the rule of this band, raised by polishing its best nodes
    # with scipy's minimizer on the series itself: the reference a sup
    # enclosure must contain, sharing no code with norms.
    rule = quadrature(F.group, band)
    v = np.abs(synthesize(F, rule).values)
    f = _series(F)
    polished = [minimize(lambda x: -abs(f(x)) ** 2, x0).fun
                for x0 in nodes(rule)[np.argsort(v)[-seeds:]]]
    return max(float(v.max()), math.sqrt(-min(polished)))


def _su2_nodes_in_c2(rule):
    # The first columns (a, b) of the matrices at the nodes of an SU(2)
    # rule: points of the unit sphere S^3 in C^2.
    return np.array([euler_to_su2(*x)[:, 0] for x in nodes(rule)])


def _ladder_nodes(F, nodes):
    # Node counts of the ladder's levels up to the one of this many nodes.
    counts = [0]
    while counts[-1] < nodes:
        counts.append(quadrature(F.group, F.max_weight() * 2.0 ** (len(counts) - 1)).node_count)
    return counts[1:]


def test_grid_peak_propagates_nan_from_a_later_slab():
    # the builtin max(3.0, nan) is 3.0: a nan past the first slab must
    # still reach _finite, which refuses it
    slabs = [(0, 3, np.array([1.0, 3.0, 2.0])), (3, 5, np.array([0.5, np.nan])),
             (5, 6, np.array([2.5]))]
    assert math.isnan(norms._grid_peak(iter(slabs)))
    assert norms._grid_peak(iter(slabs[::2])) == 3.0


@pytest.mark.parametrize("group", [T1, torus(2), SU2], ids=str)
def test_sup_of_coefficients_that_overflow_synthesis_is_refused(group):
    zero = (0,) * group.dim if group.kind == "torus" else 0
    one = (1,) + (0,) * (group.dim - 1) if group.kind == "torus" else 1
    d = rep_dim(group, one)
    big = {zero: [[1e308]], one: 1e308 * (np.eye(d) - 1j * np.eye(d)[::-1])}
    pinned = {zero: [[1e308]], one: 1e308 * np.eye(d)}  # positive central: f(e)
    for coeffs in (big, pinned):
        norms.clear_memos()
        with pytest.raises(DomainError, match="not finite"):
            lp_norm(SpectralFunction(group, coeffs), INF)


def test_finite_p_of_coefficients_that_overflow_synthesis_is_refused():
    # inf - inf at a node is nan: a DomainError, with no numpy RuntimeWarning
    # on the way (pyproject turns those into errors), as for the sup above
    F = SpectralFunction(T1, {(0,): [[1e308]], (1,): [[-1e308j]]})
    for spec in ("Lp:1.5", "Lp:3", "tl:r=0.5,p=3,q=1.5"):
        norms.clear_memos()
        with pytest.raises(DomainError, match="not finite"):
            norm_info(F, parse_norm_spec(spec))


def _sup_cases():
    cases = []
    for group, L, even_L, sparse_L in ((T1, 6.0, 5.0, 12.0), (torus(2), 3.0, 3.0, 4.0),
                                       (torus(3), 1.5, 2.0, None), (SU2, 2.0, None, 2.5)):
        cases.append(_random_spectral(group, L, 60))
        if even_L:
            cases.append(_sign_even_random(group, even_L, 61))
        if sparse_L:
            cases.append(make_corpus(group, sparse_L, 1, 62, "sparse").functions[0])
    return cases


@pytest.mark.parametrize("F", _sup_cases(), ids=lambda F: f"{F.group}-{len(F.dims)}")
def test_sup_enclosure_contains_the_maximum(F):
    norms.clear_memos()
    _, info = lp_norms(F, [INF])[INF]
    assert info["certified"] == "enclosed"
    # The reference grid: 8x the enclosure band, or 4x or 2x where that is
    # past 2^22 nodes; the largest cases keep the enclosure grid, with 64 seeds.
    counts = _ladder_nodes(F, info["nodes"])
    k = next(k for k in (8, 4, 2, 1) if counts[-1] * k**F.group.dim <= 1 << 22)
    ref = _reference_sup(F, k * info["bandlimit"], 8 if k > 1 else 64)
    # and the levels one and three below, by the node cap
    for cap in dict.fromkeys((None,) + tuple(counts[-1 - j] for j in (1, 3) if j < len(counts))):
        norms.clear_memos()
        lo, info = lp_norms(F, [INF], cap)[INF]
        rule = quadrature(F.group, info["bandlimit"])
        assert rule.node_count == info["nodes"]
        # the grid maximum, up to the roundoff of a folded or slabbed synthesis
        assert abs(np.abs(synthesize(F, rule).values).max() - lo) <= 1e-13 * lo
        assert lo <= ref * (1.0 + 1e-12) and ref <= info["upper"], (cap, lo, ref, info)
        if cap is None:
            assert info["upper"] <= 1.02 * lo
        else:
            assert info["certified"] == "capped"


@pytest.mark.parametrize("group", [T1, torus(2), torus(3)], ids=str)
def test_sup_enclosure_holds_where_the_mesh_bound_is_tight(group):
    # 1 + exp(i (x_0 - theta)) peaks at 2 on x_0 = theta; with theta = pi / m
    # that is half a node gap from the nodes on either side, where the mesh
    # bound has the least slack.  The level, which depends on the support
    # alone, is found first; then the function is built for its m.
    def peak(theta):
        return SpectralFunction(group, {(0,) * group.dim: [[1.0]], (1,) + (0,) * (group.dim - 1):
                                        [[complex(math.cos(theta), -math.sin(theta))]]})

    _, info = lp_norms(peak(0.1), [INF])[INF]
    for cap in _ladder_nodes(peak(0.1), info["nodes"])[::-1]:
        _, info = lp_norms(peak(0.1), [INF], cap)[INF]
        m = quadrature(group, info["bandlimit"]).shape[0]
        lo, info = lp_norms(peak(math.pi / m), [INF], cap)[INF]
        assert info["nodes"] == m**group.dim
        # the grid maximum, synthesized: up to SUP_ROUNDOFF A below its
        # exact value, with A = |1| + |exp(i theta)| = 2
        grid_max = 2.0 * math.cos(math.pi / (2 * m))
        assert grid_max - norms.SUP_ROUNDOFF * 2.0 <= lo <= 2.0 <= info["upper"], (cap, lo, info)


@pytest.mark.parametrize("group", [T1, torus(2), torus(3), SU2], ids=str)
def test_sup_enclosure_allows_for_roundoff(group):
    # A complex constant: the mesh factor is 1, and the synthesized grid
    # maximum may fall an ulp short of |c|, which the bound still covers.
    rng = np.random.default_rng(63)
    zero = (0,) * group.dim if group.kind == "torus" else 0
    for _ in range(40):
        c = complex(rng.standard_normal(), rng.standard_normal())
        norms.clear_memos()
        lo, info = lp_norms(SpectralFunction(group, {zero: [[c]]}), [INF])[INF]
        assert info["certified"] == "enclosed"
        assert abs(lo - abs(c)) <= 1e-15 * abs(c) and lo <= info["upper"] <= 1.02 * lo


def test_mesh_tau_matches_its_derivation():
    # T^n: sum over axes of pi (kmax - kmin) / m over the full moduli, so a
    # folded rule gives the same tau; SU(2): twoL_max sqrt(h_beta^2 +
    # (h_alpha + h_gamma)^2) / 2, gamma's gap over its 4 pi period.
    F = SpectralFunction(torus(2), {(-1, 2): [[1.0]], (3, -4): [[1.0]]})
    rule = quadrature(torus(2), 5.0)
    m = rule.shape
    tau = norms._tau_of(F)(rule.degree)
    assert tau == pytest.approx(math.pi * (4 / m[0] + 6 / m[1]), rel=1e-15)
    assert rule.folded().degree == rule.degree
    G = _random_spectral(SU2, 2.0, 68)  # twoL <= 2
    rule = quadrature(SU2, 6.0)
    na, nb, ng = rule.shape
    beta_gap = np.diff(np.sort(np.arccos(np.clip(rule._z, -1.0, 1.0)))).max()
    want = 2 * math.sqrt(beta_gap**2 + (2 * math.pi / na + 4 * math.pi / ng) ** 2) / 2
    assert norms._tau_of(G)(rule.degree) == pytest.approx(want, rel=1e-12)
    # the covering radius tau / (2 twoL_max) in the unit-S^3 metric bounds
    # the distance from Haar-random points to the nearest node
    nodes = _su2_nodes_in_c2(rule)
    rng = np.random.default_rng(69)
    for _ in range(200):
        u = euler_to_su2(*random_element(SU2, rng))
        inner = (nodes[:, 0].conj() * u[0, 0] + nodes[:, 1].conj() * u[1, 0]).real
        assert math.acos(min(1.0, inner.max())) <= want / 4


@pytest.mark.parametrize("degree", [9, 24, 57])
def test_su2_points_across_the_alpha_seam_have_a_node_within_delta(degree):
    # Past alpha = 2 pi the chart continues as (alpha, beta, gamma + 2 pi),
    # a shift of the gamma axis (2c - 3 nodes over 4 pi, an odd number) by
    # half a node step.  The shifted axis keeps its spacing, so points with
    # alpha within h_alpha / 2 of 2 pi still have a node within delta =
    # sqrt(h_beta^2 + (h_alpha + h_gamma)^2) / 4 in the S^3 distance
    # arccos(Re tr(U1^* U2) / 2).  Candidates: the nodes on the two alpha
    # lines either side of the seam, alpha = 0 and 2 pi - h_alpha.
    rule = quadrature(SU2, degree / 2.0)
    assert rule.degree == degree and rule.shape[2] % 2 == 1
    h_alpha, h_beta, h_gamma = axis_gaps(SU2, degree)
    delta = math.hypot(h_beta, h_alpha + h_gamma) / 4.0
    x = nodes(rule)
    seam = x[(x[:, 0] == rule.axes[0][0]) | (x[:, 0] == rule.axes[0][-1])]
    mats = np.array([euler_to_su2(*row) for row in seam])
    rng = np.random.default_rng(degree)
    for _ in range(400):
        u = euler_to_su2(2.0 * math.pi + rng.uniform(-0.5, 0.5) * h_alpha,
                         math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 4.0 * math.pi))
        cos_dist = np.einsum("nij,ij->n", mats.conj(), u).real.max() / 2.0
        assert math.acos(min(1.0, cos_dist)) <= delta


def _coarse_case():
    # Random coefficients on 0 and +-2 e_a of T^3: its own rule has 12 nodes
    # an axis, so tau = 3 * 4 pi / 12 = pi there and tau^2 / 8 >= 1, too
    # coarse for any finite mesh bound.
    rng = np.random.default_rng(71)
    support = [(0, 0, 0)] + [tuple(s * 2 * int(a == b) for b in range(3))
                             for a in range(3) for s in (1, -1)]
    return SpectralFunction(torus(3), {k: [[complex(*rng.standard_normal(2))]] for k in support})


@pytest.mark.parametrize("group", [T1, torus(2)], ids=str)
def test_sup_mesh_bound_is_sharp_to_second_order(group):
    # On 1 + exp(i (x_0 - pi / m)), peaking at 2 half a node gap from the
    # nodes on either side, the grid maximum is 2 cos(tau / 2) with tau = pi
    # / m, so hi = 2 cos(tau / 2) / (1 - tau^2 / 8) = 2 (1 + tau^4 / 384 +
    # ...); 2 cos(tau / 2) / sqrt(1 - tau^2 / 2) would be off by tau^2 / 8.
    for degree in range(3, 60):
        rule = quadrature(group, degree / 2.0)
        m = rule.shape[0]
        F = SpectralFunction(group, {(0,) * group.dim: [[1.0]], (1,) + (0,) * (group.dim - 1):
                                     [[complex(math.cos(math.pi / m), -math.sin(math.pi / m))]]})
        tau = norms._tau_of(F)(rule.degree)
        assert tau == pytest.approx(math.pi / m, rel=1e-15)
        lo, hi = norms._sup_enclosure(F, rule, tau, rule.node_count)
        # lo, the synthesized grid maximum, may fall up to SUP_ROUNDOFF A
        # (A = 2) short of the exact 2 cos(tau / 2)
        assert 2.0 * math.cos(tau / 2.0) - norms.SUP_ROUNDOFF * 2.0 <= lo <= 2.0 <= hi
        assert hi / 2.0 - 1.0 <= tau**4 / 300.0, (m, hi)


@pytest.mark.parametrize("degree", [12, 24])
def test_su2_nodes_cover_within_the_mesh_radius(degree):
    # Every Haar-random point lies within delta = sqrt(h_beta^2 + (h_alpha +
    # h_gamma)^2) / 4 of a node, in the metric of the unit sphere S^3; the
    # chord 2 sin(d / 2) of the points in C^2 = R^4 is increasing in d.
    rule = quadrature(SU2, degree / 2.0)
    assert rule.degree == degree
    h_alpha, h_beta, h_gamma = axis_gaps(SU2, degree)
    delta = math.hypot(h_beta, h_alpha + h_gamma) / 4.0
    nodes = _su2_nodes_in_c2(rule)
    tree = cKDTree(np.column_stack((nodes.real, nodes.imag)))
    rng = np.random.default_rng(72)
    u = np.array([euler_to_su2(*random_element(SU2, rng))[:, 0] for _ in range(3000)])
    chord, _ = tree.query(np.column_stack((u.real, u.imag)))
    assert (2.0 * np.arcsin(chord / 2.0)).max() <= delta


def test_sup_capped_below_every_finite_bound():
    # A cap whose finest grid is too coarse for the mesh bound: capped, with
    # the coefficient bound (1 + SUP_ROUNDOFF) A as upper, which the
    # verdicts read.  At (2, inf) Cauchy-Schwarz keeps A under the
    # Nikolskii rhs sqrt(support) ||f||_2, so the record holds on it.
    F = _coarse_case()
    base = quadrature(torus(3), F.max_weight())
    assert norms._tau_of(F)(base.degree) ** 2 / 8.0 >= 1.0
    lo, info = lp_norms(F, [INF], base.node_count)[INF]
    upper = (1.0 + norms.SUP_ROUNDOFF) * norms._abs_sum(F)
    assert info["certified"] == "capped" and info["upper"] == upper
    assert lo >= np.abs(synthesize(F, base).values).max() and lo < upper
    counts = verify._support_counts(F, 1, verify.SUPPORT_THRESHOLD, None)
    values = norms._read_lp_norms(F, [2.0, INF], base.node_count)
    rep = verify._nikolskii(F, 2.0, INF, values, counts, verify.TOL_GRID, "nikolskii", {})
    assert rep.lhs == upper and rep.holds
    assert rep.notes.endswith(f"lhs capped [{lo!r}, {upper!r}], rhs grid exact")
    # a base grid with tau^2 / 8 < 1 is capped with a finite, if wide, bound
    F = _random_spectral(torus(2), 3.0, 70)
    base = quadrature(torus(2), F.max_weight())
    assert norms._tau_of(F)(base.degree) ** 2 / 8.0 < 1.0
    lo, info = lp_norms(F, [INF], base.node_count)[INF]
    assert info["certified"] == "capped" and lo <= info["upper"] < INF
    assert info["upper"] > 1.02 * lo


def _sizing_cases():
    return [_random_spectral(T1, 6.0, 80), _random_spectral(torus(2), 3.0, 81),
            _sign_even_random(torus(2), 3.0, 82), _random_spectral(SU2, 2.0, 83)]


def _factor(F, degree):
    return norms._mesh_factor(norms._tau_of(F)(degree))


@pytest.mark.parametrize("F", _sizing_cases(), ids=lambda F: f"{F.group}-{F.sign_even}")
def test_sup_is_evaluated_on_the_least_degree_its_mesh_bound_needs(ladder_spy, F):
    own = quadrature(F.group, F.max_weight()).degree
    degree, within = norms._sup_degree(F, None)
    assert within and degree > own
    assert _factor(F, degree) <= 1.0 + norms.SUP_ENCLOSURE < _factor(F, degree - 1)
    # one pass, on that rule (its fold for sign-even functions), that sums
    # no finite power, and provenance of the full rule
    (lo, info), passes, _ = _fresh(lambda: lp_norms(F, [INF])[INF], ladder_spy)
    [rule] = passes
    assert ladder_spy["sums"] == [] and rule.degree == degree
    assert rule.is_folded == F.sign_even
    full = quadrature(F.group, info["bandlimit"])
    assert (full.degree, full.node_count) == (degree, info["nodes"])
    assert info["certified"] == "enclosed" and lo <= info["upper"] <= 1.02 * lo


@pytest.mark.parametrize("F", _sizing_cases(), ids=lambda F: f"{F.group}-{F.sign_even}")
def test_sup_under_a_cap_takes_the_largest_degree_admitted(F):
    degree, _ = norms._sup_degree(F, None)
    own = quadrature(F.group, F.max_weight()).degree
    for below in sorted({own, (own + degree) // 2, degree - 1}):
        cap = quadrature(F.group, below / 2.0).node_count
        norms.clear_memos()
        lo, info = lp_norms(F, [INF], cap)[INF]
        assert info["certified"] == "capped"
        # the largest degree of at most this many nodes (torus degrees may
        # share an FFT length)
        got = quadrature(F.group, info["bandlimit"]).degree
        assert got >= below and degree_fits(F.group, got, cap)
        assert not degree_fits(F.group, got + 1, cap)
        # the smaller of the mesh bound (inf where tau^2 / 8 >= 1) and the
        # coefficient bound
        a = norms._abs_sum(F)
        mesh = _factor(F, got) * (lo + norms.SUP_ROUNDOFF * a)
        assert info["upper"] == min(mesh, (1.0 + norms.SUP_ROUNDOFF) * a)
        assert lo <= info["upper"] < INF


@pytest.mark.parametrize("F", _sizing_cases(), ids=lambda F: f"{F.group}-{F.sign_even}")
def test_sized_sup_matches_the_ladder_level_sup(F):
    # The level evaluation it replaces: the first ladder level (band W 2^j)
    # whose mesh factor is within 1 + SUP_ENCLOSURE, on its fold when even.
    level = 0
    while True:
        rule = quadrature(F.group, F.max_weight() * 2.0**level)
        if _factor(F, rule.degree) <= 1.0 + norms.SUP_ENCLOSURE:
            break
        level += 1
    tau = norms._tau_of(F)(rule.degree)
    if F.sign_even:
        rule = rule.folded()
    want, want_hi = norms._sup_enclosure(F, rule, tau, rule.node_count)
    norms.clear_memos()
    lo, info = lp_norms(F, [INF])[INF]
    # two grid maxima, each under the other's bound: the enclosures meet
    assert want <= info["upper"] and lo <= want_hi
    assert info["nodes"] < quadrature(F.group, F.max_weight() * 2.0**level).node_count


def test_tau_does_not_increase_with_the_degree():
    # what the bisection of _sup_degree rests on
    for group in (T1, torus(2), torus(3), SU2):
        F = _random_spectral(group, 2.0, 84)
        taus = [norms._tau_of(F)(c) for c in range(2, 300)]
        assert all(b <= a for a, b in zip(taus, taus[1:])), group


# ---------------------------------------------------------------------------
# exact even norms against rational coefficient convolutions


def _exact_even_power(F, k):
    # ||f||_2k^2k = ||f^k||_2^2: f^k by convolving the coefficients k times
    # as Gaussian rationals (pairs of Fractions), then Parseval.
    coeffs = {tuple(i): (Fraction(c.real), Fraction(c.imag))
              for i, c in zip(F.index.tolist(), F.entries.tolist())}
    power = {(0,) * F.group.dim: (Fraction(1), Fraction(0))}
    for _ in range(k):
        product = {}
        for a, (ar, ai) in power.items():
            for b, (br, bi) in coeffs.items():
                key = tuple(x + y for x, y in zip(a, b))
                re, im = product.get(key, (0, 0))
                product[key] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
        power = product
    return sum(re * re + im * im for re, im in power.values())


def _dyadic_case(group, L, kind):
    # Coefficients in (1/64)Z + i (1/64)Z: "dense" draws each, and the even
    # kinds one per sign orbit; "even-real" is sign-even, so it takes the
    # folded rule, summed there as cosines, and "even-complex" the full one.
    rng = np.random.default_rng(95 + group.dim)
    drawn, coeffs = {}, {}
    for k in enumerate_dual(group, L):
        key = k if kind == "dense" else tuple(map(abs, k))
        if key not in drawn:
            re, im = rng.integers(-64, 65, 2) / 64
            drawn[key] = complex(re, 0.0 if kind == "even-real" else im)
        coeffs[k] = [[drawn[key]]]
    return SpectralFunction(group, coeffs)


@pytest.mark.parametrize("kind", ["dense", "even-real", "even-complex"])
@pytest.mark.parametrize("group,L", [(T1, 8.0), (torus(2), 4.0)], ids=str)
def test_even_norms_match_the_exact_rational_values(group, L, kind):
    F = _dyadic_case(group, L, kind)
    assert F.sign_even == (kind == "even-real")
    norms.clear_memos()
    scale = sum(abs(c) for c in F.entries.tolist())  # A: d = 1 on a torus
    for k in (1, 2, 3):
        value, info = lp_norms(F, [2.0 * k])[2.0 * k]
        assert info["certified"] == "exact"
        exact = float(_exact_even_power(F, k)) ** (1.0 / (2 * k))
        assert abs(value - exact) <= norms.LP_ROUNDOFF * scale, (k, value, exact)


# ---------------------------------------------------------------------------
# L^p enclosures from the exact even norms


ENCLOSED_EXPONENTS = (0.5, 1.0, 4.0 / 3.0, 1.5, 3.0, 5.0, 7.0)


def _enclosure_cases():
    cases = []
    for group, L in ((T1, 8.0), (torus(2), 3.0), (torus(3), 2.0), (SU2, 2.0)):
        for profile in ("dense_gaussian", "sparse"):
            cases.append(make_corpus(group, L, 1, 90, profile).functions[0])
    return cases


@pytest.mark.parametrize("F", _enclosure_cases(), ids=lambda F: f"{F.group}-{len(F.dims)}")
def test_lp_enclosures_contain_the_refined_norms(F):
    norms.clear_memos()
    got = norms.lp_enclosures(F, ENCLOSED_EXPONENTS + (2.0, INF))
    refined = lp_norms(F, ENCLOSED_EXPONENTS)
    for p in ENCLOSED_EXPONENTS:
        e = got[p]
        value = refined[p][0]
        assert e.lo <= value * (1.0 + 1e-6) and value <= e.hi * (1.0 + 1e-6), (p, e, value)
        assert e.certified == "enclosed" and 0.0 < e.lo < e.hi
    assert list(got) == list(ENCLOSED_EXPONENTS + (2.0, INF))


def _fejer_l1(n):
    # ||D_n||_1 under normalized measure, the Lebesgue constant, in Fejer's
    # closed form (J. reine angew. Math. 138, 1910):
    # 1/(2n+1) + (2/pi) sum_{k<=n} tan(pi k / (2n+1)) / k.
    return 1.0 / (2 * n + 1) + 2.0 / math.pi * math.fsum(
        math.tan(math.pi * k / (2 * n + 1)) / k for k in range(1, n + 1))


@pytest.mark.parametrize("L", [4.0, 8.0, 16.0, 32.0, 64.0])
def test_dirichlet_l1_enclosures_contain_fejers_closed_form(L):
    # An oracle that shares no code with norms or fourier: the T^1 Dirichlet
    # kernel of band L is D_n, n = L - 1 (the weights sqrt(1 + k^2) <= L).
    D = dirichlet(T1, L)
    n = int(L) - 1
    assert sorted(k for (k,) in D.index.tolist()) == list(range(-n, n + 1))
    e = lp_enclosures(D, [1.0])[1.0]
    assert e.certified == "enclosed"
    assert e.lo <= _fejer_l1(n) <= e.hi, (n, e, _fejer_l1(n))


def test_lp_enclosures_of_even_p_are_the_exact_values():
    F = _random_spectral(torus(2), 2.0, 91)
    got = norms.lp_enclosures(F, [2.0, 4.0, 6.0, 8.0])
    for p, e in got.items():
        assert e.certified == "exact" and e.lo == e.hi
        assert e == norm_info(F, NormSpec("Lp", p=p))


@pytest.mark.parametrize("group", RunConfig().groups)
def test_lp_enclosures_make_one_pass_per_exact_norm_and_one_for_the_sup(ladder_spy, group):
    # The bulk Nikolskii suite's exponents on the first function of its
    # corpus: the sup's pass, then one pass for each even norm the bounds
    # rest on, at its exact level, and no refined level.
    cfg = RunConfig(suite="nikolskii")
    F = make_corpus(parse_group(group), verify.BANDLIMITS[group], 1, cfg.seed,
                    cfg.profile).functions[0]
    exponents = sorted({x for p in cfg.p_grid for q in cfg.q_grid if p < q for x in (p, q)})
    _, passes, _ = _fresh(lambda: norms.lp_enclosures(F, exponents), ladder_spy)
    assert ladder_spy["sums"] == [2.0, 4.0, 6.0]
    levels = [quadrature(F.group, F.max_weight() * 2.0**j).degree for j in range(3)]
    assert [rule.degree for rule in passes] == [norms._sup_degree(F, None)[0]] + levels


@pytest.mark.parametrize("F", [SpectralFunction(T1, {(3,): [[2.0 - 1.0j]]}),
                               SpectralFunction(torus(2), {(-2, 5): [[0.5j]]}),
                               SpectralFunction(SU2, {0: [[-3.0]]})], ids=str)
def test_lp_enclosures_of_a_character_are_tight(F):
    # |f| is constant, so every norm is that constant: only the roundoff
    # allowance separates lo and hi.  Lyapunov's exponents amplify it, up
    # to 13 times at p = 1/2 and 5 times at p = 1.
    one = lp_norm(F, 1.0)
    for p in ENCLOSED_EXPONENTS:
        e = norms.lp_enclosures(F, [p])[p]
        for x in (e.lo, e.hi):
            assert abs(x - one) <= (1e-12 if p == 1.0 else 2e-12) * one, (p, x, one)


@pytest.mark.parametrize("group", [T1, torus(2), torus(3), SU2], ids=str)
def test_lp_enclosures_allow_for_roundoff(group):
    # A complex constant c has ||f||_p = |c| for every p, exactly, while its
    # computed even norms may be off by an ulp either way: lo and hi must
    # still hold |c| with no tolerance.
    rng = np.random.default_rng(93)
    zero = (0,) * group.dim if group.kind == "torus" else 0
    for _ in range(40):
        c = complex(rng.standard_normal(), rng.standard_normal())
        norms.clear_memos()
        got = norms.lp_enclosures(SpectralFunction(group, {zero: [[c]]}), ENCLOSED_EXPONENTS)
        for p, e in got.items():
            assert e.lo <= abs(c) <= e.hi, (p, c, e)


def test_lp_enclosures_of_zero_and_identity_pinned_functions():
    for group in (T1, SU2):
        got = norms.lp_enclosures(zero_spectral(group), ENCLOSED_EXPONENTS + (INF,))
        assert all(v == Enclosure(0.0, 0.0, "exact") for v in got.values())
    # Dirichlet kernels peak at the identity: the sup is pinned, and p > 4
    # builds on it
    for F in (dirichlet(T1, 5.0), dirichlet(torus(2), 2.0), dirichlet(SU2, 2.0)):
        got = norms.lp_enclosures(F, ENCLOSED_EXPONENTS + (INF,))
        assert got[INF].certified == "exact (identity-pinned)" and got[INF].lo == got[INF].hi
        for p in ENCLOSED_EXPONENTS:
            value = lp_norm(F, p)
            e = got[p]
            assert e.lo <= value * (1.0 + 1e-6) and value <= e.hi * (1.0 + 1e-6)
            assert e.certified == "enclosed"


def test_lp_enclosures_at_an_exponent_whose_reciprocal_leaves_float_range():
    # 1/p = inf makes the second Lyapunov exponent 0; lo from monotonicity
    # stands.
    for F in (dirichlet(T1, 2.0), _random_spectral(torus(2), 2.0, 94)):
        e = norms.lp_enclosures(F, [1e-320])[1e-320]
        assert 0.0 <= e.lo <= e.hi < INF, (F.group, e)


def test_lp_enclosures_rest_on_what_the_cap_admits():
    # A cap that admits ||f||_2 and ||f||_4 but refuses ||f||_6: p < 2 keeps
    # its bounds, p = 3 keeps hi and falls back on ||f||_2 for lo, and both
    # p = 3 and p = 5 (whose sup anchors are capped too) say "capped".
    F = _random_spectral(torus(2), 3.0, 92)
    cap = quadrature(torus(2), 2.0 * F.max_weight()).node_count
    full = norms.lp_enclosures(F, [1.0, 3.0, 5.0])
    norms.clear_memos()
    got = norms.lp_enclosures(F, [1.0, 3.0, 5.0], cap)
    assert got[1.0] == full[1.0]
    e = got[3.0]
    assert e.certified == "capped" and e.hi == full[3.0].hi
    assert e.lo == pytest.approx(lp_norm(F, 2.0), rel=1e-12) and e.lo < full[3.0].lo
    assert got[5.0].certified == "capped"
    for p, e in got.items():
        value = lp_norm(F, p)
        assert e.lo <= value * (1.0 + 1e-6) and value <= e.hi * (1.0 + 1e-6)


def test_besov_sup_carries_the_aggregate_of_its_block_enclosures():
    F = make_corpus(torus(2), 3.0, 1, 3).functions[0]
    for q in (1.0, 2.0, INF):
        e = norm_info(F, NormSpec("besov", r=0.5, p=INF, q=q))
        ups, los = [], []
        for s, block in dyadic_blocks(F).items():
            lo, block_info = lp_norms(block, [INF])[INF]
            los.append(2.0 ** (s * 0.5) * lo)
            ups.append(2.0 ** (s * 0.5) * block_info["upper"])
        agg = max if q == INF else (lambda t: sum(x**q for x in t) ** (1.0 / q))
        assert e.certified == "enclosed"
        assert e.lo == pytest.approx(agg(los), rel=1e-15)
        assert e.hi == pytest.approx(agg(ups), rel=1e-15)
        assert e.lo <= e.hi <= 1.02 * e.lo
    # a capped block with no finite mesh bound (the shell of +-2 e_a has
    # tau^2 / 8 >= 1 on the base grid) brings its coefficient bound into the
    # aggregate
    F = _coarse_case()
    base = quadrature(torus(3), F.max_weight()).node_count
    e = norm_info(F, NormSpec("besov", r=0.5, p=INF, q=2.0), base)
    blocks = dyadic_blocks(F)
    ups = {s: lp_norms(block, [INF], base)[INF][1]["upper"] for s, block in blocks.items()}
    assert ups[1] == (1.0 + norms.SUP_ROUNDOFF) * norms._abs_sum(blocks[1])
    assert e.certified == "capped"
    agg = math.hypot(*(2.0 ** (s * 0.5) * up for s, up in ups.items()))
    assert e.hi == pytest.approx(agg, rel=1e-15)


# ---------------------------------------------------------------------------
# Enclosures of every norm family


# Lebesgue, Sobolev and Besov at even, odd and infinite p, Triebel-Lizorkin
# at q > p, q < p, q = inf and the exact q = 2, and the coefficient families.
_FAMILY_SPECS = (
    "Lp:1", "Lp:1.5", "Lp:3", "Lp:4", "Lp:inf", "sobolev:r=0.5,p=1.5", "sobolev:r=-1,p=2",
    "besov:r=0.5,p=1,q=2", "besov:r=-1,p=3,q=inf", "besov:r=0.5,p=inf,q=1",
    "tl:r=0.5,p=2,q=4", "tl:r=0.5,p=2,q=1", "tl:r=-1,p=1.5,q=inf", "tl:r=0.5,p=4,q=2",
    "seq:1.5", "wiener:1", "beurling:2", "beurlingR:r=0.5,beta=2",
)


def _family_cases():
    cases = []
    for group, L in ((T1, 8.0), (torus(2), 3.0), (torus(3), 2.0), (SU2, 2.0)):
        cases += [make_corpus(group, L, 1, 95, profile).functions[0] for profile in PROFILES]
        cases.append(dirichlet(group, L))
    return cases


@pytest.mark.parametrize("F", _family_cases(), ids=lambda F: f"{F.group}-{len(F.dims)}")
def test_norm_enclosure_brackets_the_value_of_every_family(F):
    # Exact values lie in [lo, hi] as computed; refined and capped ones
    # within the stop rule's REFINE_STOP of it.  Coefficient families are
    # exact points.
    for text in _FAMILY_SPECS:
        spec = parse_norm_spec(text)
        e = norm_info(F, spec)
        value = e.lo
        bound = norms.norm_enclosure(F, spec)
        assert type(bound) is Enclosure and bound.lo <= bound.hi, (text, bound)
        if spec.family in ("seq", "wiener", "beurling", "beurlingR"):
            assert bound.lo == bound.hi == value and bound.certified == "exact", text
            continue
        slack = norms.REFINE_STOP if e.certified in ("refined", "capped") else 0.0
        assert bound.lo <= value * (1.0 + slack) and value <= bound.hi * (1.0 + slack), (
            text, value, bound)
        assert bound.certified in norms.CERT_ORDER


@pytest.mark.parametrize("F", [make_corpus(torus(2), 3.0, 1, 95).functions[0],
                               make_corpus(SU2, 2.0, 1, 95, "sparse").functions[0],
                               dirichlet(T1, 8.0), zero_spectral(T1)],
                         ids=lambda F: f"{F.group}-{len(F.dims)}")
def test_norm_info_is_an_enclosure_of_every_family(F):
    # Its lo is the value.  Lp and sobolev are the lp_norms entry, lifted;
    # Besov's hi aggregates its blocks' hi (above lo at p = inf only), tl is
    # a point and coefficient families are exact points on no grid.
    for text in _FAMILY_SPECS + ("besov:r=0.5,p=inf,q=2", "besov:r=-1,p=inf,q=inf"):
        spec = parse_norm_spec(text)
        e = norm_info(F, spec)
        assert type(e) is Enclosure, text
        if spec.family in ("Lp", "sobolev"):
            G = F if spec.family == "Lp" else norms._sobolev_scaled(F, spec.r)
            value, info = lp_norms(G, [spec.p])[spec.p]
            assert e == Enclosure(value, info.get("upper", value), info["certified"],
                                  info["nodes"], info["bandlimit"]), text
        elif spec.family == "besov" and spec.p != INF:
            assert e.hi == e.lo, text
        elif spec.family == "besov":
            his = [2.0 ** (s * spec.r) * lp_norms(b, [INF])[INF][1]["upper"]
                   for s, b in dyadic_blocks(F).items()]
            q = spec.q
            agg = max(his, default=0.0) if q == INF else sum(h**q for h in his) ** (1.0 / q)
            assert e.hi == agg and e.lo <= e.hi, text
        elif spec.family == "tl":
            assert e.lo == e.hi == tl_norm(F, spec.r, spec.p, spec.q), text
        else:
            assert e == Enclosure(e.lo, e.lo, "exact", 0, 0.0), text


def test_tl_enclosure_is_the_besov_sandwich():
    # B nonempty shells: [B^(1/q - 1/p) lo, hi] for q >= p and [lo,
    # B^(1/q - 1/p) hi] for q < p, around Besov(r, p, p)'s enclosure.
    F = make_corpus(torus(2), 4.0, 1, 97).functions[0]
    count = len(dyadic_blocks(F))
    b = norms.norm_enclosure(F, NormSpec("besov", r=0.5, p=1.5, q=1.5))
    for q in (1.0, 4.0, INF):
        t = norms.norm_enclosure(F, NormSpec("tl", r=0.5, p=1.5, q=q))
        factor = count ** (1.0 / q - 1.0 / 1.5)
        want = (b.lo * factor, b.hi) if q >= 1.5 else (b.lo, b.hi * factor)
        assert (t.lo, t.hi) == want and t.certified == "enclosed" and t.lo <= t.hi


def test_norm_enclosure_of_zero_and_of_a_refused_grid():
    for group in (T1, SU2):
        for text in _FAMILY_SPECS:
            e = norms.norm_enclosure(zero_spectral(group), parse_norm_spec(text))
            assert e == Enclosure(0.0, 0.0, "exact"), text
    # a cap below the base grid bounds nothing, where norm_info refuses
    F = make_corpus(torus(2), 3.0, 1, 98).functions[0]
    for text in ("Lp:3", "besov:r=0.5,p=1,q=2", "tl:r=0.5,p=2,q=4", "sobolev:r=1,p=2"):
        with pytest.raises(norms.ResourceLimitError):
            norm_info(F, parse_norm_spec(text), 10)
        assert norms.norm_enclosure(F, parse_norm_spec(text), 10) == Enclosure(0.0, INF, "capped")


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
def test_power_by_multiplication_matches_np_power(p):
    # Squarings and one square root stay within a few ulps of pow over a
    # range where v^6 neither overflows nor underflows.
    rng = np.random.default_rng(96)
    v = np.concatenate([[0.0, 1.0], 10.0 ** rng.uniform(-40.0, 40.0, 4000), rng.random(4000)])
    np.testing.assert_allclose(norms._power(v, p), np.power(v, p), rtol=1e-15, atol=0.0)
    # exponents whose double is not an integer up to 16 are np.power itself
    w = 10.0 * rng.random(4000)
    for q in (0.3, 2.2, 8.5, 10.0):
        assert np.array_equal(norms._power(w, q), np.power(w, q))


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
    built = _recorded_bands(monkeypatch)
    assert _evaluations(F) == first
    assert built == []  # served from the memo
    norms.clear_memos()
    assert _evaluations(F) == first  # evaluated from scratch
    certs = {info["certified"] for _, info in first[0].values()}
    assert certs == {"exact", "enclosed", "refined"}
    # a small node cap gives capped values under their own key
    capped = _evaluations(F, 300)
    band = quadrature(torus(2), 2.0 * F.max_weight()).bandlimit  # the rule's band
    assert capped[0][1.0][1] == {"certified": "capped", "nodes": 225, "bandlimit": band}
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
        (value, info), tl = lp_norms(F, [3.0])[3.0], norm_info(F, TL_SPEC)
        assert saved is None or [(value, info), tl] == saved
        saved = [(value, dict(info)), tl]
        info["certified"] = "tampered"
        info["nodes"] = -1
        with pytest.raises(FrozenInstanceError):  # norm_info's Enclosure
            tl.certified = "tampered"
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
    for group, L in ((torus(1), 64.0), (torus(2), 32.0), (torus(3), 16.0), (SU2, 20.0)):
        reps = enumerate_dual(group, L)
        wsqs = [weight_sq(group, xi) for xi in reps]
        got = block_of([math.floor(w) for w in wsqs]).tolist()
        assert got == [_block_of_by_loop(w) for w in wsqs], group
    # edges past the int64 range the packed layout stores: exact below it,
    # refused above it
    for k in range(40):
        for wsq in (4**k, 4**k - 1, 4**k + 1, Fraction(4**k) - Fraction(1, 4),
                    Fraction(4**k) + Fraction(1, 4), 2 * 4**k):
            if wsq < 1:
                continue
            if math.floor(wsq) < 2**63:
                assert block_of([math.floor(wsq)]).tolist() == [_block_of_by_loop(wsq)], wsq
            else:
                with pytest.raises(DomainError):
                    block_of([math.floor(wsq)])
    floors = np.array([4**k + d for k in range(1, 31) for d in (-1, 0, 1)] + [2**63 - 1])
    assert block_of(floors).tolist() == [_block_of_by_loop(int(w)) for w in floors]
