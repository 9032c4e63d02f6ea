"""Inequality checkers, corpora, fits, and suite drivers."""

import json
import math

import numpy as np
import pytest

from peterweyl.fourier import SpectralFunction, dirichlet
from peterweyl.groups import (
    DomainError,
    enumerate_dual,
    rep_dim,
    su2,
    torus,
    weight_sq,
    weyl_count,
)
from peterweyl.norms import INF, NormSpec, block_of, lp_norm, seq_lp_norm
from peterweyl.verify import (
    RunConfig,
    _conjugate,
    _ring_kernel,
    besov_besov_pair,
    besov_linf_pair,
    besov_lq_pair,
    beurling_pairs,
    chain_pairs,
    corollary_decay,
    corollary_suite_reports,
    embedding_ratio,
    embedding_suite,
    hausdorff_young_checks,
    make_corpus,
    nikolskii_check,
    nikolskii_remark_check,
    render_report,
    rho_of,
    run_suite,
    sharpness_check,
    summarize,
    tl_sandwich_pairs,
    weyl_fit,
    wiener_besov_pair,
)

T1 = torus(1)
T2 = torus(2)
SU2 = su2()


# ---------------------------------------------------------------------------
# rho and the main inequality


def test_rho_of():
    assert rho_of(0.5) == 1
    assert rho_of(1.5) == 1
    assert rho_of(2.0) == 1
    assert rho_of(3.0) == 2
    assert rho_of(4.0) == 2
    assert rho_of(5.0) == 3
    with pytest.raises(DomainError):
        rho_of(INF)


def test_nikolskii_single_mode_equality():
    T = SpectralFunction(T1, {(4,): [[1.0]]})
    rep = nikolskii_check(T, 1.0, 2.0)
    assert rep.lhs == pytest.approx(1.0, abs=2e-6)
    assert rep.rhs == pytest.approx(1.0, abs=2e-6)
    assert rep.holds
    assert "support=1 " in rep.notes


def test_nikolskii_dirichlet_equality_case():
    rep = nikolskii_check(dirichlet(T1, 2.0), 2.0, INF, tol=1e-9)
    assert rep.lhs == pytest.approx(3.0, abs=1e-12)
    assert rep.rhs == pytest.approx(3.0, rel=1e-12)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_nikolskii_corpus_holds():
    corpus = make_corpus(T1, 6.0, 5, seed=3)
    for T in corpus.functions:
        rep = nikolskii_check(T, 1.0, 2.0)
        assert rep.holds and rep.ratio <= 1.0 + 1e-6


def test_nikolskii_validation():
    T = SpectralFunction(T1, {(1,): [[1.0]]})
    with pytest.raises(DomainError):
        nikolskii_check(T, 2.0, 2.0)
    with pytest.raises(DomainError):
        nikolskii_check(T, INF, INF)


def test_sharpness_all_groups():
    for g in (T1, T2, SU2):
        reps = sharpness_check(g, 2.0)
        assert all(r.holds for r in reps)
        assert abs(reps[0].ratio - 1.0) <= 1e-9


def test_remark_counts_and_dominance():
    # p = 3 gives rho = 2; a band-2 polynomial on T^1 uses N(4) = 7
    T = SpectralFunction(T1, {(1,): [[1.0]], (0,): [[0.5]]})
    remark = nikolskii_remark_check(T, 3.0, INF, 2.0)
    assert "N(rho*L)=7" in remark.notes
    theorem = nikolskii_check(T, 3.0, INF)
    assert remark.rhs >= theorem.rhs
    assert remark.holds and theorem.holds


def test_remark_support_guard():
    T = SpectralFunction(T1, {(5,): [[1.0]]})
    with pytest.raises(DomainError):
        nikolskii_remark_check(T, 1.0, 2.0, L=2.0)


# ---------------------------------------------------------------------------
# Hausdorff-Young wrapper


def test_hy_checks_hold():
    corpus = make_corpus(SU2, 2.5, 4, seed=5)
    for F in corpus.functions:
        for p in (1.0, 4.0 / 3.0, 2.0):
            for rep in hausdorff_young_checks(F, p):
                assert rep.holds, (p, rep.ratio)
    with pytest.raises(DomainError):
        hausdorff_young_checks(corpus.functions[0], 3.0)


def test_conjugate_is_taken_on_the_rational():
    # 4/3 stands for the rational 4/3, whose conjugate is exactly 4
    for p, pp in ((4.0 / 3.0, 4.0), (1.5, 3.0), (1.2, 6.0), (1.25, 5.0), (1.1, 11.0),
                  (2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0), (1.0, INF), (INF, 1.0)):
        assert _conjugate(p) == pp, p
    # a float that stands for no small fraction keeps its binary value
    p = 1.0 + 2.0**-40
    assert _conjugate(p) == 2.0**40 + 1.0


def test_hy_at_four_thirds_reads_an_exact_l4_grid():
    F = make_corpus(T2, 4.0, 1, seed=7).functions[0]
    coeff, func = hausdorff_young_checks(F, 4.0 / 3.0)
    assert coeff.instance["p_conj"] == func.instance["p_conj"] == 4.0
    assert func.notes == "lhs grid exact"
    assert func.lhs == lp_norm(F, 4.0)


# ---------------------------------------------------------------------------
# corollary decay


def test_corollary_preconditions():
    F = dirichlet(T1, 2.0)
    with pytest.raises(DomainError):
        corollary_decay(F, 2.0, INF, [2, 4, 8])  # violates 1/p > 1/q + 1/2
    with pytest.raises(DomainError):
        corollary_decay(F, 2.0, 1.5, [2, 4, 8])  # needs p < q


def test_corollary_band_limited_decreasing():
    # once L passes the band, a_L = N(L)^{-1} ||f||_inf strictly decreases
    F = dirichlet(T1, 2.0)
    seq, _ = corollary_decay(F, 1.0, INF, [4, 8, 16, 32])
    vals = [a for _, a in seq]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_corollary_exponential_coefficients_oracle():
    # f with coefficients exp(-<xi>): sums are positive, so the sup norm is
    # the value at 0 and a_L = N(L)^{-1} sum of kept coefficients
    ks = enumerate_dual(T1, 40.0)
    F = SpectralFunction(
        T1, {k: [[math.exp(-math.sqrt(1.0 + k[0] ** 2))]] for k in ks}
    )
    grid = list(range(2, 33, 2))
    seq, stat = corollary_decay(F, 1.0, INF, grid)
    a = dict(seq)
    for L in (2.0, 32.0):
        kmax = math.isqrt(int(L * L - 1))
        direct = sum(
            math.exp(-math.sqrt(1.0 + k * k)) for k in range(-kmax, kmax + 1)
        )
        assert a[L] == pytest.approx(direct / weyl_count(T1, L), rel=1e-6)
    assert a[32.0] < a[2.0] / 10.0
    assert stat > 0.0


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_ratio_single_mode_thm_structure():
    # B^{n/p}_{p,1} -> L^inf on a single mode in shell s: ratio = 2^{-s n/p}
    e3 = SpectralFunction(T1, {(3,): [[1.0]]})
    pair = besov_linf_pair(T1, 2.0)
    assert embedding_ratio(e3, pair.target, pair.source) == pytest.approx(
        2.0**-0.5, rel=1e-9
    )


def test_embedding_ratio_zero_rejected():
    pair = besov_linf_pair(T1, 2.0)
    with pytest.raises(DomainError):
        embedding_ratio(SpectralFunction(T1, {}), pair.target, pair.source)


def test_pair_constructors_validate_exponents():
    with pytest.raises(DomainError):
        besov_lq_pair(T1, 2.0, 4.0, r=0.3)  # r != n(1/p - 1/q)
    with pytest.raises(DomainError):
        besov_lq_pair(T1, 4.0, 2.0)  # needs p < q
    with pytest.raises(DomainError):
        besov_besov_pair(T1, 2.0, 1.0, 2.0, r1=1.0)  # needs p1 <= p2
    with pytest.raises(DomainError):
        wiener_besov_pair(T1, 1.0, 3.0, "into-wiener")  # needs p <= 2
    with pytest.raises(DomainError):
        beurling_pairs(T1, 1.0, 1.5)  # needs p >= 2
    ok = besov_lq_pair(T1, 2.0, 4.0, r=0.25)
    assert ok.source == NormSpec("besov", r=0.25, p=2.0, q=4.0)


def test_wiener_pair_exponent_relation():
    pair = wiener_besov_pair(T1, 1.0, 2.0, "into-wiener")
    # 1/beta = n/alpha + 1/p' = 1 + 1/2
    assert pair.target.family == "seq"
    assert pair.target.p == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert pair.source.q == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_chain_equalities_beta_two():
    corpus = make_corpus(SU2, 2.5, 3, seed=9)
    for F in corpus.functions:
        a = seq_lp_norm(F, 2.0)
        mid = chain_pairs(SU2, 2.0)[0].source
        from peterweyl.norms import norm_value

        b = norm_value(F, mid)
        c = lp_norm(F, 2.0)
        assert a == pytest.approx(b, rel=1e-9)
        assert b == pytest.approx(c, rel=1e-9)


def test_embedding_suite_dirichlet_slopes():
    pairs = [besov_lq_pair(T1, 2.0, 4.0), besov_linf_pair(T1, 1.0)]
    reports = embedding_suite(T1, "dirichlet", pairs, L_grid=[4, 8, 16, 32])
    slopes = [r for r in reports if r.name.startswith("embedding-slope")]
    assert len(slopes) == len(pairs)
    assert all(r.holds for r in reports)
    members = [r for r in reports if r.name.startswith("embedding:")]
    assert len(members) == len(pairs) * 4


def test_embedding_suite_corpus_finiteness():
    corpus = make_corpus(T1, 6.0, 3, seed=1)
    pairs = tl_sandwich_pairs(T1, 0.5, 2.0, 4.0)
    reports = embedding_suite(T1, "corpus", pairs, corpus=corpus)
    assert all(r.holds for r in reports)
    assert not any(r.name.startswith("embedding-slope") for r in reports)


def test_embedding_suite_single_block_family():
    pairs = [besov_linf_pair(T1, 2.0)]
    reports = embedding_suite(T1, "single_block", pairs, L_grid=[0, 1, 2, 3])
    assert any(r.name.startswith("embedding-slope") for r in reports)
    assert all(r.holds for r in reports)


def _ring_kernel_by_filter(group, s):
    # reference: enumerate past the shell's outer edge, keep the reps of shell s
    keep = [
        xi
        for xi in enumerate_dual(group, 2.0 ** (s + 1) * 1.01)
        if block_of(weight_sq(group, xi)) == s
    ]
    return SpectralFunction(
        group, {xi: np.eye(rep_dim(group, xi), dtype=complex) for xi in keep}
    )


@pytest.mark.parametrize("group", [T1, T2, torus(3), SU2], ids=str)
def test_ring_kernel_matches_enumerate_and_filter(group):
    for s in range(4):
        ref = _ring_kernel_by_filter(group, s)
        got = _ring_kernel(group, s)
        assert ref
        assert list(got.coeffs) == list(ref.coeffs)
        for xi, mat in ref.coeffs.items():
            assert np.array_equal(got.coeffs[xi], mat)
        assert got.digest == ref.digest


# ---------------------------------------------------------------------------
# Weyl fits


def test_weyl_fit_slopes():
    s1, _, _ = weyl_fit(T1, range(10, 101, 5))
    assert abs(s1 - 1.0) <= 0.05
    s2, _, _ = weyl_fit(T2, range(10, 61, 5))
    assert abs(s2 - 2.0) <= 0.1
    s3, _, _ = weyl_fit(SU2, range(10, 41, 5))
    assert abs(s3 - 3.0) <= 0.2


def test_weyl_fit_degenerate_grid():
    with pytest.raises(DomainError):
        weyl_fit(T1, [10, 20, 30])  # too few points
    with pytest.raises(DomainError):
        weyl_fit(T1, [1, 2, 3, 4, 5])  # max < 10
    with pytest.raises(DomainError):
        weyl_fit(T1, [10, 10, 20, 30, 40])  # not strictly increasing


# ---------------------------------------------------------------------------
# corpora


def test_corpus_determinism_and_count():
    from peterweyl.fourier import dump_spectral

    a = make_corpus(T2, 3.0, 4, seed=13, profile="sparse")
    b = make_corpus(T2, 3.0, 4, seed=13, profile="sparse")
    assert len(a.functions) == 4
    for fa, fb in zip(a.functions, b.functions):
        assert dump_spectral(fa) == dump_spectral(fb)


def test_corpus_validation():
    with pytest.raises(DomainError):
        make_corpus(T1, 4.0, 0, seed=1)
    with pytest.raises(DomainError):
        make_corpus(T1, 4.0, 1, seed=1, profile="nope")


def test_corpus_dense_active_modes():
    corpus = make_corpus(T1, 8.0, 3, seed=2)
    for F in corpus.functions:
        assert len(F.support()) == 15  # |k| <= 7


def test_corpus_sparse_nonempty():
    corpus = make_corpus(T1, 8.0, 20, seed=4, profile="sparse")
    for F in corpus.functions:
        assert len(F.support()) >= 1


def test_corpus_smooth_decay_envelope():
    corpus = make_corpus(T1, 8.0, 6, seed=6, profile="smooth_decay")
    for F in corpus.functions:
        mags = {xi: float(np.abs(mat).max()) for xi, mat in F.items()}
        assert max(mags, key=mags.get) == (0,)
        for xi, m in mags.items():
            assert m == pytest.approx(
                math.exp(-math.sqrt(1.0 + xi[0] ** 2)), rel=1e-12
            )


# ---------------------------------------------------------------------------
# suite plumbing


def _tiny_config():
    cfg = RunConfig()
    cfg.groups = ("torus:1",)
    cfg.corpus_count = 2
    cfg.bandlimits = {"torus:1": 4.0}
    cfg.p_grid = (1.0, 2.0, 3.0)
    cfg.q_grid = (2.0, INF)
    cfg.sharpness_L = (2.0, 4.0)
    cfg.dirichlet_grids = {"torus:1": (4, 8, 16)}
    cfg.corollary_L = tuple(range(2, 33, 2))
    return cfg


def test_corollary_suite_grid_and_band():
    cfg = _tiny_config()
    cfg.corollary_L = (2.0, 4.0, 8.0)  # one step ratio needs two points from L = 8
    with pytest.raises(DomainError, match="two band limits >= 8"):
        corollary_suite_reports(cfg)
    # the suite runs on torus:1; a band override for other groups leaves it
    # the default band
    cfg.corollary_L = tuple(range(2, 33, 2))
    cfg.bandlimits = {"su2": 2.0}
    reports = corollary_suite_reports(cfg)
    assert reports and all(r.holds for r in reports)
    assert {r.instance["group"] for r in reports} == {"torus:1"}


def test_run_suite_all_passes_tiny():
    cfg = _tiny_config()
    reports = run_suite("all", cfg)
    assert reports and all(r.holds for r in reports)
    counts = summarize(reports)
    assert set(counts) == {
        "sharpness", "nikolskii", "hausdorff-young", "weyl", "corollary",
        "embeddings", "wiener-chain",
    }


def test_render_report_stable_and_complete():
    cfg = _tiny_config()
    reports = run_suite("sharpness", cfg)
    text1 = render_report(reports, cfg)
    text2 = render_report(run_suite("sharpness", cfg), cfg)
    assert text1 == text2
    assert text1.startswith("# peterweyl report v1\n")
    assert "# config {" in text1
    assert "# overall: pass=" in text1

    def strict(constant):
        raise ValueError(f"{constant} is not JSON")

    # non-finite floats (q = inf in the config) are spelled as strings
    assert '"inf"' in text1
    for line in text1.splitlines():
        if line.startswith("# config "):
            json.loads(line[len("# config "):], parse_constant=strict)
        elif not line.startswith("#"):
            json.loads(line, parse_constant=strict)


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suite("bogus", RunConfig())


def test_run_config_header_lists_every_setting():
    # the report header embeds every RunConfig field except the output path
    keys = {
        "suite", "groups", "seed", "corpus_count", "profile", "bandlimits",
        "p_grid", "q_grid", "hy_p_grid", "sharpness_L", "dirichlet_grids",
        "weyl_grids", "weyl_slope_tol", "corollary_L", "betas", "r_grid",
        "tol_exact", "tol_grid", "tol_identity", "slope_max",
        "support_threshold", "max_nodes",
    }
    assert set(RunConfig().to_dict()) == keys
