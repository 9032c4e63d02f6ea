"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Desk-scale configuration (corpus sizes and band limits not pinned by
the criteria themselves) is documented next to each fixture.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from peterweyl.fourier import analyze, synthesize
from peterweyl.groups import quadrature, su2, torus, weyl_count
from peterweyl.norms import (
    INF,
    besov_norm,
    beurling_norm,
    beurling_r_norm,
    dyadic_blocks,
    lp_enclosures,
    lp_norm,
    lp_norms,
    seq_lp_norm,
    sobolev_norm,
    tl_norm,
)
from peterweyl.verify import (
    BANDLIMITS,
    RunConfig,
    _conjugate,
    besov_besov_pair,
    besov_linf_pair,
    besov_lq_pair,
    beurling_pairs,
    chain_pairs,
    corollary_decay,
    embedding_suite,
    make_corpus,
    nikolskii_suite_reports,
    sharpness_check,
    tl_sandwich_pairs,
    weyl_fit,
    wiener_besov_pair,
)

T1 = torus(1)
T2 = torus(2)
SU2 = su2()

SEED = 7


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} [{label}]: FAIL")
        raise
    print(f"\nACCEPTANCE {num} [{label}]: PASS")


# Criteria 1-2 share one corpus: 50 functions per group at the stated bands.
ROUNDTRIP_BANDS = {T1: 16.0, T2: 12.0, SU2: 8.0}


@pytest.fixture(scope="module")
def roundtrip_corpora():
    return {g: make_corpus(g, L, 50, SEED) for g, L in ROUNDTRIP_BANDS.items()}


def _rel_err(F, G):
    keys = set(F.coeffs) | set(G.coeffs)
    num = 0.0
    den = 0.0
    for k in keys:
        a = F.coeffs.get(k)
        b = G.coeffs.get(k)
        if a is None:
            num += float(np.sum(np.abs(b) ** 2))
        elif b is None:
            num += float(np.sum(np.abs(a) ** 2))
        else:
            num += float(np.sum(np.abs(a - b) ** 2))
        if a is not None:
            den += float(np.sum(np.abs(a) ** 2))
    return math.sqrt(num / den)


def test_criterion_1_round_trip(roundtrip_corpora):
    with criterion(1, "analyze o synthesize identity, <= 30 s"):
        start = time.time()
        for g, corpus in roundtrip_corpora.items():
            L = corpus.bandlimit
            rule = quadrature(g, L)
            for F in corpus.functions:
                back = analyze(synthesize(F, rule), L)
                assert _rel_err(F, back) <= 1e-9
        elapsed = time.time() - start
        print(f"  round-trip wall time: {elapsed:.1f} s")
        assert elapsed <= 30.0


def test_criterion_2_plancherel_hausdorff_young(roundtrip_corpora):
    # Hausdorff-Young reads certified L^p enclosures, never a refined or
    # capped point value: the function norm on the larger side of an
    # inequality reads its lower end, the one on the smaller side its upper
    # end, which must be finite.  _conjugate pairs 4/3 with exactly 4.
    with criterion(2, "Plancherel and Hausdorff-Young at 1e-9"):
        ps = (1.0, 4.0 / 3.0, 2.0)
        conj = {p: _conjugate(p) for p in ps}
        exponents = sorted(set(ps) | set(conj.values()))
        for g, corpus in roundtrip_corpora.items():
            for F in corpus.functions:
                assert lp_norms(F, [2.0])[2.0][0] == pytest.approx(
                    seq_lp_norm(F, 2.0), rel=1e-9
                )
                enclosures = lp_enclosures(F, exponents)
                for p in ps:
                    pp = conj[p]
                    upper = enclosures[pp].hi
                    assert math.isfinite(upper), (str(g), pp)
                    assert seq_lp_norm(F, pp) <= enclosures[p].lo * (1 + 1e-9)
                    assert upper <= seq_lp_norm(F, p) * (1 + 1e-9)


def test_criterion_3_sharpness():
    with criterion(3, "Dirichlet equality at p=2, q=inf, ratio 1 +/- 1e-9"):
        for g in (T1, T2, SU2):
            for L in (2.0, 4.0, 8.0):
                reports = sharpness_check(g, L, tol=1e-9)
                ratio = reports[0].ratio
                assert abs(ratio - 1.0) <= 1e-9, (str(g), L, ratio)
                assert all(r.holds for r in reports)


# Criteria 4-5 share a 200-function corpus per group.  Band limits are the
# documented desk scale: torus:1 at 8, torus:2 at 4, su2 at 2.5.
@pytest.fixture(scope="module")
def bulk_reports():
    cfg = RunConfig(groups=("torus:1", "torus:2", "su2"), seed=SEED, corpus_count=200)
    assert [BANDLIMITS[g] for g in cfg.groups] == [8.0, 4.0, 2.5]
    return nikolskii_suite_reports(cfg)


def test_criterion_4_nikolskii_bulk(bulk_reports):
    with criterion(4, "bulk Nikolskii: zero violations, stable support counts"):
        main = [r for r in bulk_reports if r.name == "nikolskii"]
        sens = [r for r in bulk_reports if r.name == "nikolskii-sensitivity-stable"]
        assert len(main) == 3 * 200 * 14
        assert len(sens) == len(main)
        violations = [r for r in main if not r.holds]
        unstable = [r for r in sens if not r.holds]
        print(f"  instances: {len(main)}, violations: {len(violations)}, "
              f"threshold-unstable: {len(unstable)}")
        assert not violations
        assert not unstable


def test_criterion_5_remark_dominance(bulk_reports):
    with criterion(5, "remark bound dominates the support bound exactly"):
        dom = [r for r in bulk_reports if r.name == "nikolskii-remark-dominance"]
        remark = [r for r in bulk_reports if r.name == "nikolskii-remark"]
        assert len(dom) == 3 * 200 * 14
        for r in dom:
            assert r.lhs <= r.rhs  # no tolerance
        assert all(r.holds for r in remark)


def test_criterion_6_weyl_asymptotics():
    with criterion(6, "Weyl slopes and the su2 spot count"):
        slope, _, _ = weyl_fit(T1, range(10, 101, 5))
        assert abs(slope - 1.0) <= 0.05, slope
        slope, _, _ = weyl_fit(T2, range(10, 61, 5))
        assert abs(slope - 2.0) <= 0.1, slope
        slope, _, _ = weyl_fit(SU2, range(10, 41, 5))
        assert abs(slope - 3.0) <= 0.2, slope
        assert weyl_count(SU2, 10.0) == 2470


def test_criterion_7_corollary_decay():
    with criterion(7, "partial-sum decay on the smooth corpus"):
        corpus = make_corpus(T1, 8.0, 20, SEED, "smooth_decay")
        grid = [float(L) for L in range(2, 33, 2)]
        for F in corpus.functions:
            seq, _ = corollary_decay(F, 1.0, INF, grid)
            vals = [a for _, a in seq]
            assert vals[-1] <= 0.1 * vals[0]
            tail = [a for L, a in seq if L >= 8.0]
            assert all(b < a for a, b in zip(tail, tail[1:]))


@pytest.fixture(scope="module")
def small_corpora():
    return {
        g: make_corpus(g, {T1: 8.0, T2: 4.0, SU2: 2.5}[g], 6, SEED)
        for g in (T1, T2, SU2)
    }


def test_criterion_8_theorem2_structure(small_corpora):
    with criterion(8, "Besov structure and embedding suites (1)(3)(4)(5)"):
        # (i) single-block identity to 1e-9
        for g, corpus in small_corpora.items():
            for F in corpus.functions[:3]:
                blocks = dyadic_blocks(F)
                s, block = sorted(blocks.items())[-1]
                for q in (1.0, 2.0, INF):
                    lhs = besov_norm(block, 0.75, 2.0, q)
                    rhs = 2.0 ** (0.75 * s) * lp_norm(block, 2.0)
                    assert lhs == pytest.approx(rhs, rel=1e-9)
        # (ii) Besov = Triebel-Lizorkin at p = q = 2 to 1e-9
        for g, corpus in small_corpora.items():
            for F in corpus.functions[:3]:
                for r in (-1.0, 0.5, 2.0):
                    assert tl_norm(F, r, 2.0, 2.0) == pytest.approx(
                        besov_norm(F, r, 2.0, 2.0), rel=1e-9
                    )
        # (iii) Besov/Sobolev bracket at p = 2
        for g, corpus in small_corpora.items():
            for F in corpus.functions[:3]:
                for r in (-1.0, 0.5, 2.0):
                    ratio = besov_norm(F, r, 2.0, 2.0) / sobolev_norm(F, r, 2.0)
                    assert 2.0 ** -abs(r) * (1 - 1e-6) <= ratio
                    assert ratio <= 2.0 ** abs(r) * (1 + 1e-6)
        # (iv) scaling families: slope <= 0.1
        grids = {T1: [4, 8, 16, 32, 64], T2: [4, 8, 16, 32]}
        for g, grid in grids.items():
            n = g.dim
            pairs = [
                besov_besov_pair(g, 1.0, 2.0, 2.0, r1=1.0),       # item (1)
                besov_besov_pair(g, 2.0, 4.0, 1.0, r1=float(n)),  # item (1)
                besov_lq_pair(g, 2.0, 4.0),                        # item (3)
                besov_lq_pair(g, 1.5, 3.0),                        # item (3)
                besov_linf_pair(g, 1.0),                           # item (4)
                besov_linf_pair(g, 2.0),                           # item (4)
            ]
            pairs += tl_sandwich_pairs(g, 0.5, 2.0, 4.0)           # item (5)
            pairs += tl_sandwich_pairs(g, 0.5, 2.0, 1.0)           # item (5)
            reports = embedding_suite(g, "dirichlet", pairs, L_grid=grid)
            slopes = [r for r in reports if r.name.startswith("embedding-slope")]
            assert len(slopes) == len(pairs)
            for r in slopes:
                assert r.lhs <= 0.1, (r.instance["pair"], r.lhs)
            assert all(r.holds for r in reports)


def test_criterion_9_theorem3_and_chain(small_corpora):
    with criterion(9, "Wiener/Beurling suites and the chain equalities"):
        # finite ratios on every corpus, both (A) directions and both (B) faces
        for g, corpus in small_corpora.items():
            n = g.dim
            pairs = [
                wiener_besov_pair(g, float(n), 2.0, "into-wiener"),
                wiener_besov_pair(g, 2.0 * n, 1.5, "into-wiener"),
                wiener_besov_pair(g, float(n), 2.0, "from-wiener"),
                wiener_besov_pair(g, float(n), 3.0, "from-wiener"),
            ]
            for beta in (1.0, 2.0):
                pairs += beurling_pairs(g, beta, 2.0)
                pairs += beurling_pairs(g, beta, 3.0)
                pairs += chain_pairs(g, beta)
            reports = embedding_suite(g, "corpus", pairs, corpus=corpus)
            assert reports and all(r.holds for r in reports)
        # slope <= 0.1 along Dirichlet families on the tori
        grids = {T1: [4, 8, 16, 32, 64], T2: [4, 8, 16, 32]}
        for g, grid in grids.items():
            n = g.dim
            pairs = [
                wiener_besov_pair(g, float(n), 2.0, "into-wiener"),
                wiener_besov_pair(g, float(n), 3.0, "from-wiener"),
            ]
            for beta in (1.0, 2.0):
                pairs += beurling_pairs(g, beta, 2.0)
                pairs += chain_pairs(g, beta)
            reports = embedding_suite(g, "dirichlet", pairs, L_grid=grid)
            for r in reports:
                if r.name.startswith("embedding-slope"):
                    assert r.lhs <= 0.1, (r.instance["pair"], r.lhs)
                assert r.holds
        # chain instance at beta = 2: wiener = besov(0, 2, 2) = L2 to 1e-9
        for g, corpus in small_corpora.items():
            r0 = g.dim * (1.0 / 2.0 - 0.5)
            for F in corpus.functions:
                a = seq_lp_norm(F, 2.0)
                b = besov_norm(F, r0, 2.0, 2.0)
                c = lp_norm(F, 2.0)
                assert a == pytest.approx(b, rel=1e-9)
                assert b == pytest.approx(c, rel=1e-9)


def test_criterion_10_beurling_identity(small_corpora):
    with criterion(10, "beurling_r at r = 1/beta equals beurling to 1e-12"):
        for g, corpus in small_corpora.items():
            for F in corpus.functions:
                for beta in (0.5, 1.0, 2.0):
                    a = beurling_norm(F, beta)
                    b = beurling_r_norm(F, 1.0 / beta, beta)
                    assert abs(a - b) <= 1e-12 * max(a, 1.0)


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "verify all --seed 7 twice is byte-identical"):
        from peterweyl.cli import main
        from peterweyl.norms import clear_memos

        a = str(tmp_path / "run1.txt")
        b = str(tmp_path / "run2.txt")
        # each run evaluates from scratch, so the memos cannot make them agree
        clear_memos()
        assert main(["verify", "all", "--seed", "7", "--out", a]) == 0
        clear_memos()
        assert main(["verify", "all", "--seed", "7", "--out", b]) == 0
        bytes_a = open(a, "rb").read()
        bytes_b = open(b, "rb").read()
        assert bytes_a == bytes_b
        assert len(bytes_a) > 10000
