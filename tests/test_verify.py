"""Inequality checkers, corpora, fits, and suite drivers."""

import json
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from peterweyl import norms, verify
from peterweyl.fourier import (
    SUPPORT_THRESHOLD,
    SpectralFunction,
    dirichlet,
    dump_spectral,
    partial_sum,
    support_count,
    zero_spectral,
)
from peterweyl.groups import (
    MAX_DUAL_ENTRIES,
    DomainError,
    ResourceLimitError,
    enumerate_dual,
    parse_group,
    quadrature,
    su2,
    torus,
    weight_sq,
    weyl_count,
)
from peterweyl.norms import INF, Enclosure, NormSpec, lp_norm, lp_norms, norm_info, seq_lp_norm
from peterweyl.verify import (
    PROFILES,
    SUITES,
    RunConfig,
    _conjugate,
    besov_besov_pair,
    besov_linf_pair,
    besov_lq_pair,
    beurling_pairs,
    chain_pairs,
    corollary_decay,
    corollary_decays,
    corollary_suite_reports,
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

from elements import rep_dim

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


def test_support_counts_at_rho_one_read_the_function_itself(monkeypatch):
    # T^1 is T: no pointwise power is formed, and the three counts are T's
    # own at the threshold, ten times it and a tenth of it.
    T = make_corpus(T2, 4.0, 1, seed=7).functions[0]
    T = T.scaled(np.geomspace(1.0, 1e-14, len(T.dims)))  # spans every threshold
    calls, power = [], verify.pointwise_power
    monkeypatch.setattr(verify, "pointwise_power",
                        lambda *a, **k: calls.append(a) or power(*a, **k))
    t = SUPPORT_THRESHOLD
    counts = verify._support_counts(T, 1, t, None)
    want = [support_count(T, t), support_count(T, 10.0 * t), support_count(T, t / 10.0)]
    assert [counts["count"], counts["count_x10"], counts["count_d10"]] == want
    assert len(set(want)) == 3
    nikolskii_check(T, 2.0, INF)  # rho = 1
    assert calls == []
    nikolskii_check(T, 3.0, INF)  # rho = 2 still forms the power
    assert len(calls) == 1


def test_nikolskii_validation():
    T = SpectralFunction(T1, {(1,): [[1.0]]})
    with pytest.raises(DomainError):
        nikolskii_check(T, 2.0, 2.0)
    with pytest.raises(DomainError):
        nikolskii_check(T, INF, INF)


@pytest.mark.parametrize("threshold", [math.nan, INF, -INF, -1e-3, 2.0, 1e308])
def test_nikolskii_check_refuses_a_threshold_that_is_not_finite(threshold):
    # a nan threshold counted no support at all (support=0, rhs 0, a failing
    # record); an infinite one cleared every coefficient.  Above 1 no
    # coefficient is kept either: 2.0 wrote a failing support=0 record, and
    # 1e308 was refused for its x10 sensitivity, inf, not by its own name.
    T = SpectralFunction(T1, {(0,): [[1.0]], (1,): [[0.5]]})
    match = (re.escape(f"threshold must lie in [0, 1], got {threshold!r}")
             if 1.0 < threshold < INF else "threshold must be finite")
    for p in (2.0, 4.0):  # rho = 1 counts T itself, rho = 2 its square
        with pytest.raises(DomainError, match=match):
            nikolskii_check(T, p, INF, threshold=threshold)


def test_record_instance_holds_plain_values_and_to_record_the_json_form():
    rep = nikolskii_check(dirichlet(T1, 2.0), 2.0, INF)
    assert rep.instance["q"] == INF
    record = rep.to_record()
    assert record["instance"]["q"] == "inf" and rep.instance["q"] == INF
    assert json.loads(json.dumps(record, allow_nan=False)) == record


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
    # the guard is the exact band: T reaches weight sqrt(5) exactly
    edge = math.sqrt(5.0)
    T = dirichlet(T2, math.nextafter(edge, math.inf))
    with pytest.raises(DomainError, match="exceeds the stated band"):
        nikolskii_remark_check(T, 1.0, 2.0, L=math.nextafter(edge, 0.0))
    assert nikolskii_remark_check(T, 1.0, 2.0, L=math.nextafter(edge, math.inf)).holds


def test_remark_rejects_p_not_below_q_before_its_band_check():
    T = SpectralFunction(T1, {(5,): [[1.0]]})  # outside the stated band L = 2
    for p, q in ((2.0, 2.0), (3.0, 2.0)):
        with pytest.raises(DomainError, match="need 0 < p < q"):
            nikolskii_remark_check(T, p, q, L=2.0)


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


def test_hy_equality_of_a_two_term_function_holds_on_the_coefficient_bound():
    # |a e^{-ix} + b e^{2ix}| reaches |a| + |b| where the phases align, so
    # at p = 1 ||f||_inf = ||fhat||_1 = A: an equality, which a mesh bound
    # above the grid maximum fails and the coefficient bound
    # (1 + SUP_ROUNDOFF) A holds.
    F = SpectralFunction(T1, {(-1,): [[0.6j]], (2,): [[1.0]]})
    coeff, func = hausdorff_young_checks(F, 1.0)
    assert coeff.holds and func.holds
    assert func.rhs == 1.6 and 1.6 <= func.lhs <= (1.0 + 1e-12) * 1.6
    assert func.notes.startswith("lhs enclosed [")


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
    # at p = 1 the conjugate is inf: the lhs is the upper end of the sup's enclosure
    _, func = hausdorff_young_checks(F, 1.0)
    value, info = lp_norms(F, [INF])[INF]
    assert func.lhs == info["upper"] and value <= info["upper"] <= 1.02 * value
    assert func.notes == f"lhs enclosed [{value!r}, {info['upper']!r}]"


# ---------------------------------------------------------------------------
# verdicts on L^p enclosures, and the per-instance fallback


def _fejer(N):
    # Fejer kernel: nonnegative, ||F||_1 = 1, peaked at the identity
    return SpectralFunction(T1, {(k,): [[1.0 - abs(k) / (N + 1)]] for k in range(-N, N + 1)})


def _instances(reports, size):
    return [reports[i:i + size] for i in range(0, len(reports), size)]


def _lifted(values):
    # lp_norms values as the Enclosures _settled falls back on
    return {p: Enclosure(v, info.get("upper", v), info["certified"], info["nodes"],
                         info["bandlimit"]) for p, (v, info) in values.items()}


def test_bulk_remark_records_count_each_band_once(monkeypatch):
    # One weyl_count per (group, rho * L) of the run, where each record used
    # to count N(rho L) and N(L) itself; every remark record is still the
    # one nikolskii_remark_check writes for its instance.
    cfg = RunConfig(suite="nikolskii", groups=("torus:1", "su2"), corpus_count=3)
    corpora = {g: verify._corpus_for(cfg, parse_group(g)) for g in cfg.groups}
    monkeypatch.setattr(verify, "_corpus_for", lambda cfg, group: corpora[str(group)])
    calls, count = [], verify.weyl_count
    monkeypatch.setattr(verify, "weyl_count", lambda g, L: calls.append((g, L)) or count(g, L))
    reports = verify.nikolskii_suite_reports(cfg)
    rhos = {1} | {rho_of(p) for p in cfg.p_grid}
    assert sorted(calls, key=str) == sorted(
        ((c.group, rho * c.bandlimit) for c in corpora.values() for rho in rhos), key=str)
    monkeypatch.setattr(verify, "weyl_count", count)
    remarks = [r for r in reports if r.name == "nikolskii-remark"]
    pairs = [(p, q) for p in cfg.p_grid for q in cfg.q_grid if p < q]
    assert len(remarks) == len(pairs) * sum(len(c.functions) for c in corpora.values())
    for r in remarks:
        inst = {k: r.instance[k] for k in ("fn", "seed", "profile", "L")}
        g = parse_group(r.instance["group"])
        T = corpora[str(g)].functions[inst["fn"]]
        want = nikolskii_remark_check(T, r.instance["p"], r.instance["q"], inst["L"],
                                      tol=cfg.tol_grid, instance=inst)
        assert r.to_record() == want.to_record()


def test_nikolskii_instances_failing_on_enclosures_are_reported_from_refined_values(monkeypatch):
    # On the Fejer kernel at p = 1 the lower end of ||T||_1 is 0.79 against
    # 1, so a gate of 1 - 0.3 fails on the enclosure where the refined
    # value holds at q = 2 (ratio 0.75 against 0.60), and settles q = inf
    # (0.67).
    T = _fejer(8)
    corpus = verify.Corpus(7, T1, 9.0, "fejer", (T,))
    monkeypatch.setattr(verify, "_corpus_for", lambda cfg, group: corpus)
    cfg = RunConfig(suite="nikolskii", groups=("torus:1",), tol_grid=-0.3)
    reports = verify.nikolskii_suite_reports(cfg)
    pairs = [(p, q) for p in cfg.p_grid for q in cfg.q_grid if p < q]
    counts = {rho: verify._support_counts(T, rho, SUPPORT_THRESHOLD, None) for rho in (1, 2)}
    n_of = {rho: weyl_count(T1, rho * 9.0) for rho in (1, 2)}
    exponents = sorted({x for pq in pairs for x in pq})
    settled = rescued = 0
    for (p, q), got in zip(pairs, _instances(reports, 4), strict=True):
        inst = {"fn": 0, "seed": 7, "profile": "fejer", "L": 9.0}

        def records(norms):
            return verify._nikolskii_records(T, p, q, 9.0, cfg, counts[rho_of(p)], n_of, inst,
                                             norms)

        on_enclosures = records(verify.lp_enclosures(T, exponents))
        want = on_enclosures
        if not all(r.holds for r in on_enclosures):
            want = records(_lifted(lp_norms(T, [p, q])))
            rescued += all(r.holds for r in want)
        else:
            settled += 1
        assert [r.to_record() for r in got] == [r.to_record() for r in want], (p, q)
        assert got[2].lhs == got[0].rhs and got[2].rhs == got[1].rhs
        assert got[2].lhs <= got[2].rhs  # the exact dominance
    assert settled and rescued
    # (1, 2) is one of those rescued, read on the refined ||T||_1 = 1
    main = reports[4 * pairs.index((1.0, 2.0))]
    assert main.holds and main.notes.endswith("rhs grid refined")
    assert main.rhs == pytest.approx(math.sqrt(17.0), rel=1e-6)
    assert "rhs enclosed [" in reports[4 * pairs.index((1.0, INF))].notes


def test_hy_instance_failing_on_enclosures_is_reported_from_refined_values(monkeypatch):
    # f = 1 + 0.3 e^{ix}: ||fhat||_inf = 1 <= ||f||_1, but the lower end
    # ||f||_2^3 / ||f||_4^2 of ||f||_1 is below 1.  Both records of p = 1
    # then come from refined values; p = 4/3 and p = 2 settle.
    F = SpectralFunction(T1, {(0,): [[1.0]], (1,): [[0.3]]})
    inst = {"fn": 0, "seed": 7, "profile": "one-plus"}
    on_enclosures = verify._hausdorff_young(F, 1.0, INF, verify.lp_enclosures(F, [1.0, INF]),
                                            verify.TOL_EXACT, inst)
    assert [r.holds for r in on_enclosures] == [False, True]
    assert on_enclosures[0].notes.startswith("rhs enclosed [")
    want = verify._hausdorff_young(F, 1.0, INF, _lifted(lp_norms(F, [1.0, INF])),
                                   verify.TOL_EXACT, inst)
    assert all(r.holds for r in want) and want[0].notes == "rhs grid refined"
    got = hausdorff_young_checks(F, 1.0, instance=inst)
    assert [r.to_record() for r in got] == [r.to_record() for r in want]
    # the same in the suite
    corpus = verify.Corpus(7, T1, 1.0, "one-plus", (F,))
    monkeypatch.setattr(verify, "_corpus_for", lambda cfg, group: corpus)
    reports = verify.hausdorff_young_suite_reports(RunConfig(groups=("torus:1",)))
    assert [r.name for r in reports] == ["plancherel"] + ["hy-coefficient", "hy-function"] * 3
    assert [r.to_record() for r in reports[1:3]] == [r.to_record() for r in want]
    for p, got in zip((4.0 / 3.0, 2.0), _instances(reports[3:], 2)):
        pp = _conjugate(p)
        settled = verify._hausdorff_young(F, p, pp, verify.lp_enclosures(F, [p, pp]),
                                          verify.TOL_EXACT, inst)
        assert all(r.holds for r in got)
        assert [r.to_record() for r in got] == [r.to_record() for r in settled]
    assert reports[3].notes.startswith("rhs enclosed [")


def test_sparse_corpus_hy_records_rest_on_refined_values(monkeypatch):
    # On a sparse corpus the enclosure of ||f||_1 fails p = 1 for four
    # functions at seed 7: their hy-coefficient records are read on the
    # refined value, and every record holds.  Without that fallback exactly
    # those four fail.
    cfg = RunConfig(groups=("torus:1", "torus:2"), profile="sparse")
    rescued = {("torus:1", 2), ("torus:1", 5), ("torus:2", 2), ("torus:2", 5)}
    reports = verify.hausdorff_young_suite_reports(cfg)
    assert reports and all(r.holds for r in reports)
    refined = [r for r in reports if "refined" in r.notes]
    assert {(r.instance["group"], r.instance["fn"]) for r in refined} == rescued
    assert all(r.name == "hy-coefficient" and r.instance["p"] == 1.0
               and r.notes == "rhs grid refined" for r in refined)
    monkeypatch.setattr(verify, "_settled", lambda records_of, bounds, values: records_of(bounds))
    failed = [r for r in verify.hausdorff_young_suite_reports(cfg) if not r.holds]
    assert {(r.instance["group"], r.instance["fn"]) for r in failed} == rescued
    assert {r.name for r in failed} == {"hy-coefficient"}


# ---------------------------------------------------------------------------
# corollary decay


def test_corollary_preconditions():
    F = dirichlet(T1, 2.0)
    with pytest.raises(DomainError):
        corollary_decay(F, 2.0, INF, [2, 4, 8])  # violates 1/p > 1/q + 1/2
    with pytest.raises(DomainError):
        corollary_decay(F, 2.0, 1.5, [2, 4, 8])  # needs p < q
    with pytest.raises(DomainError, match="share a group"):
        corollary_decays([F, dirichlet(T2, 2.0)], 1.0, INF, [2, 4, 8])
    assert corollary_decays([], 1.0, INF, [2, 4, 8]) == []
    with pytest.raises(DomainError, match="L_grid must hold at least one band limit"):
        corollary_decay(F, 1.0, INF, [])


def _corollary_stat_by_scan(F, p, q, L_grid):
    # The weighted sum as it was taken before suffix maxima, rebuilding the
    # tail list for every k; kept as the reference.
    sup_terms = []
    for L in L_grid:
        n_l = weyl_count(F.group, L)
        sup_terms.append((n_l, lp_norm(partial_sum(F, L), q) / n_l))
    stat = 0.0
    for k in range(1, max(n for n, _ in sup_terms) + 1):
        tail = [v for n, v in sup_terms if n >= k]
        stat += k ** ((1.0 - 1.0 / p + 1.0 / q) * p - 1.0) * max(tail) ** p
    return stat ** (1.0 / p)


def test_corollary_sum_matches_tail_scan(monkeypatch):
    F = make_corpus(T1, 8.0, 1, seed=3, profile="smooth_decay").functions[0]
    # grids out of order and with repeated N(L): N(8) = 15, N(8.5) = 17;
    # bit for bit, also where the numpy passes split a segment
    G = make_corpus(T1, 8.0, 2, seed=4, profile="smooth_decay").functions
    for chunk in (3, 7, verify._SUM_CHUNK):
        monkeypatch.setattr(verify, "_SUM_CHUNK", chunk)
        for grid in ((2, 4, 8, 16), (16, 8, 8.5, 4, 8, 12), (8.0, 9.0)):
            for q in (4.0, INF):
                _, stat = corollary_decay(F, 1.0, q, grid)
                assert stat == _corollary_stat_by_scan(F, 1.0, q, grid), (chunk, grid, q)
                # several functions share the terms, each summed as on its own
                together = corollary_decays([F, *G], 1.0, q, grid)
                assert together == [corollary_decay(H, 1.0, q, grid) for H in (F, *G)]
    # a sum past the cap is refused before it starts
    with pytest.raises(ResourceLimitError, match="weighted sum"):
        corollary_decay(F, 1.0, INF, (8.0, 16.0, 1e300))


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


def _ratio(F, pair, max_nodes=None):
    # ||f||_target / ||f||_source from the two norm values
    return norm_info(F, pair.target, max_nodes).lo / norm_info(F, pair.source, max_nodes).lo


def test_embedding_ratio_single_mode_thm_structure():
    # B^{n/p}_{p,1} -> L^inf on a single mode in shell s: ratio = 2^{-s n/p}
    e3 = SpectralFunction(T1, {(3,): [[1.0]]})
    pair = besov_linf_pair(T1, 2.0)
    assert _ratio(e3, pair) == pytest.approx(2.0**-0.5, rel=1e-9)


def test_pair_constructors_validate_exponents():
    with pytest.raises(DomainError):
        besov_lq_pair(T1, 2.0, 4.0, r=0.3)  # r != n(1/p - 1/q)
    for r in (math.nan, INF):
        with pytest.raises(DomainError, match="exponent relation violated"):
            besov_lq_pair(T1, 2.0, 4.0, r=r)
    with pytest.raises(DomainError):
        besov_lq_pair(T1, 4.0, 2.0)  # needs p < q
    with pytest.raises(DomainError):
        besov_besov_pair(T1, 2.0, 1.0, 2.0, r1=1.0)  # needs p1 <= p2
    with pytest.raises(DomainError):
        wiener_besov_pair(T1, 1.0, 3.0, "into-wiener")  # needs p <= 2
    with pytest.raises(DomainError, match="direction"):
        wiener_besov_pair(T1, 1.0, 2.0, "sideways")
    with pytest.raises(DomainError):
        beurling_pairs(T1, 1.0, 1.5)  # needs p >= 2
    ok = besov_lq_pair(T1, 2.0, 4.0, r=0.25)
    assert ok.source == NormSpec("besov", r=0.25, p=2.0, q=4.0)


def test_wiener_pair_exponent_relation():
    pair = wiener_besov_pair(T1, 1.0, 2.0, "into-wiener")
    # 1/beta = n/alpha + 1/p' = 1 + 1/2
    assert pair.target.family == "wiener"
    assert pair.target.beta == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert pair.source.q == pytest.approx(2.0 / 3.0, rel=1e-15)


# The report names of the pairs verify runs, by group dimension (torus:3 and
# su2 share theirs), as the hand-typed labels of the pair constructors were.
_PAIR_LABELS_N1 = [
    "besov(1,1,2)->besov(0.5,2,2)", "besov(1,2,1)->besov(0.75,4,1)", "besov(0.25,2,4)->L4",
    "besov(0.333333,1.5,3)->L3", "besov(1,1,1)->Linf", "besov(0.5,2,1)->Linf",
    "besov(0.5,2,2)->tl(0.5,2,4)", "tl(0.5,2,4)->besov(0.5,2,4)",
    "besov(0.5,2,1)->tl(0.5,2,1)", "tl(0.5,2,1)->besov(0.5,2,2)",
    "besov(1,2,0.666667)->wiener(0.666667)", "besov(2,1.5,1.2)->wiener(1.2)",
    "wiener(0.666667)->besov(1,2,0.666667)", "wiener(0.6)->besov(1,3,0.6)",
    "beurling(1)->besov(0.5,2,1)", "besov(1,1,1)->beurling(1)",
    "beurling(1)->besov(0.333333,3,1)", "besov(1,1,1)->beurling(1)",
    "besov(0.5,2,1)->wiener(1)", "beurling(1)->besov(0.5,2,1)",
    "beurling(2)->besov(0,2,2)", "besov(0.5,1,2)->beurling(2)",
    "beurling(2)->besov(-0.166667,3,2)", "besov(0.5,1,2)->beurling(2)",
    "besov(0,2,2)->wiener(2)", "beurling(2)->besov(0,2,2)",
]
_PAIR_LABELS_N2 = [
    "besov(1,1,2)->besov(0,2,2)", "besov(2,2,1)->besov(1.5,4,1)", "besov(0.5,2,4)->L4",
    "besov(0.666667,1.5,3)->L3", "besov(2,1,1)->Linf", "besov(1,2,1)->Linf",
    "besov(0.5,2,2)->tl(0.5,2,4)", "tl(0.5,2,4)->besov(0.5,2,4)",
    "besov(0.5,2,1)->tl(0.5,2,1)", "tl(0.5,2,1)->besov(0.5,2,2)",
    "besov(2,2,0.666667)->wiener(0.666667)", "besov(4,1.5,1.2)->wiener(1.2)",
    "wiener(0.666667)->besov(2,2,0.666667)", "wiener(0.6)->besov(2,3,0.6)",
    "beurling(1)->besov(1,2,1)", "besov(2,1,1)->beurling(1)",
    "beurling(1)->besov(0.666667,3,1)", "besov(2,1,1)->beurling(1)",
    "besov(1,2,1)->wiener(1)", "beurling(1)->besov(1,2,1)",
    "beurling(2)->besov(0,2,2)", "besov(1,1,2)->beurling(2)",
    "beurling(2)->besov(-0.333333,3,2)", "besov(1,1,2)->beurling(2)",
    "besov(0,2,2)->wiener(2)", "beurling(2)->besov(0,2,2)",
]
_PAIR_LABELS_N3 = [
    "besov(1,1,2)->besov(-0.5,2,2)", "besov(3,2,1)->besov(2.25,4,1)", "besov(0.75,2,4)->L4",
    "besov(1,1.5,3)->L3", "besov(3,1,1)->Linf", "besov(1.5,2,1)->Linf",
    "besov(0.5,2,2)->tl(0.5,2,4)", "tl(0.5,2,4)->besov(0.5,2,4)",
    "besov(0.5,2,1)->tl(0.5,2,1)", "tl(0.5,2,1)->besov(0.5,2,2)",
    "besov(3,2,0.666667)->wiener(0.666667)", "besov(6,1.5,1.2)->wiener(1.2)",
    "wiener(0.666667)->besov(3,2,0.666667)", "wiener(0.6)->besov(3,3,0.6)",
    "beurling(1)->besov(1.5,2,1)", "besov(3,1,1)->beurling(1)",
    "beurling(1)->besov(1,3,1)", "besov(3,1,1)->beurling(1)",
    "besov(1.5,2,1)->wiener(1)", "beurling(1)->besov(1.5,2,1)",
    "beurling(2)->besov(0,2,2)", "besov(1.5,1,2)->beurling(2)",
    "beurling(2)->besov(-0.5,3,2)", "besov(1.5,1,2)->beurling(2)",
    "besov(0,2,2)->wiener(2)", "beurling(2)->besov(0,2,2)",
]


@pytest.mark.parametrize("name", ["torus:1", "torus:2", "torus:3", "su2"])
def test_embedding_pair_labels_are_pinned(name):
    # Each label names its pair's records in every report (embedding:<label>
    # and instance.pair), so its spelling is part of the report bytes.
    group = parse_group(name)
    labels = {1: _PAIR_LABELS_N1, 2: _PAIR_LABELS_N2, 3: _PAIR_LABELS_N3}[group.dim]
    pairs = verify._embedding_pairs(group) + verify._wiener_chain_pairs(group)
    assert [pair.label for pair in pairs] == labels


@pytest.mark.parametrize("build, message", [
    (lambda: besov_besov_pair(T1, 1.0, 2.0, 0.0, r1=1.0), "need 0 < q <= inf, got 0.0"),
    (lambda: besov_besov_pair(T1, 1.0, 2.0, -1.0, r1=1.0), "need 0 < q <= inf, got -1.0"),
    (lambda: besov_besov_pair(T1, 1.0, 2.0, math.nan, r1=1.0), "need 0 < q <= inf, got nan"),
    (lambda: besov_linf_pair(T1, 0.0), "need 0 < p <= inf, got 0.0"),
    (lambda: besov_linf_pair(T1, -2.0), "need 0 < p <= inf, got -2.0"),
    (lambda: tl_sandwich_pairs(T1, 0.5, INF, 2.0), "need 0 < p < inf, got inf"),
    (lambda: tl_sandwich_pairs(T1, 0.5, 2.0, 0.0), "need 0 < q <= inf, got 0.0"),
    (lambda: tl_sandwich_pairs(T1, 0.5, 2.0, -1.0), "need 0 < q <= inf, got -1.0"),
    (lambda: verify.wiener_beta(T1, 0.0, 2.0), "need alpha > 0, got 0.0"),
    (lambda: verify.wiener_beta(T1, -1.0, 2.0), "need alpha > 0, got -1.0"),
    (lambda: verify.wiener_beta(T1, 1.0, 1.0), "need 1 < p < inf, got 1.0"),
    (lambda: verify.wiener_beta(T1, 1.0, INF), "need 1 < p < inf, got inf"),
    (lambda: wiener_besov_pair(T1, 1.0, 1.5, "from-wiener"),
     "from-wiener needs 2 <= p < inf, got 1.5"),
    (lambda: beurling_pairs(T1, INF, 2.0), "need 0 < beta < inf, got inf"),
    (lambda: beurling_pairs(T1, 0.0, 2.0), "need 0 < beta < inf, got 0.0"),
    (lambda: beurling_pairs(T1, -1.0, 3.0), "need 0 < beta < inf, got -1.0"),
    (lambda: chain_pairs(T1, 0.0), "need 0 < beta < inf, got 0.0"),
    (lambda: chain_pairs(T1, -0.5), "need 0 < beta < inf, got -0.5"),
])
def test_pair_constructors_refuse_before_building_a_spec(build, message):
    # Each check runs before any NormSpec is built, so the refusal is the
    # check's own DomainError, never a NormSpecError of a spec.
    with pytest.raises(DomainError) as refused:
        build()
    assert type(refused.value) is DomainError and str(refused.value) == message

def test_chain_equalities_beta_two():
    corpus = make_corpus(SU2, 2.5, 3, seed=9)
    for F in corpus.functions:
        a = seq_lp_norm(F, 2.0)
        mid = chain_pairs(SU2, 2.0)[0].source
        b = norm_info(F, mid).lo
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


def test_dirichlet_members_and_slopes_name_their_certification():
    # A Dirichlet member reads its two norm values lifted to points, so its
    # notes end in the ratio's enclosure [r, r] with the weaker of the two
    # certifications; a slope's notes end in the weakest over its members.
    pairs = [besov_lq_pair(T1, 2.0, 4.0), besov_lq_pair(T1, 1.5, 3.0)]
    grid = [4, 8, 16]
    reports = embedding_suite(T1, "dirichlet", pairs, L_grid=grid)
    slope_certs = []
    for pair, rows in zip(pairs, _instances(reports, len(grid) + 1), strict=True):
        *members, slope = rows
        certs = []
        for rep, L in zip(members, grid, strict=True):
            F = dirichlet(T1, L)
            t, s = (norm_info(F, spec) for spec in (pair.target, pair.source))
            certs.append(norms.weakest([t, s])[0])
            assert rep.lhs == t.hi / s.lo == _ratio(F, pair)
            assert rep.notes.endswith(f"; ratio {certs[-1]} [{rep.lhs!r}, {rep.lhs!r}]")
        assert slope.name.startswith("embedding-slope") and slope.holds
        slope_certs.append(slope.notes.split("; members ")[1])
        assert slope_certs[-1] == max(certs, key=norms.CERT_ORDER.index)
    # L^4 and B^{1/4}_{2,4} are exact; L^3 and B_{1.5,3} refine
    assert slope_certs == ["exact", "refined"]


def test_a_zero_source_raises_and_a_zero_lower_end_fails_the_bounds():
    pair = besov_lq_pair(T1, 2.0, 4.0)
    zero = zero_spectral(T1)
    with pytest.raises(DomainError, match="zero function"):
        embedding_suite(T1, "corpus", [pair], corpus=verify.Corpus(7, T1, 4.0, "zero", (zero,)))
    # on bounds, a source whose lower end is 0 leaves the ratio no finite
    # upper end: the record fails there, and _settled reads the values
    t = Enclosure(1.0, 2.0, "enclosed")
    with pytest.raises(DomainError, match="zero function"):
        verify._member(pair, "embeddings", {}, "n", t, Enclosure(0.0, 0.0, "exact"))
    rep = verify._member(pair, "embeddings", {}, "n", t, Enclosure(0.0, 4.0, "capped"))
    assert rep.lhs == INF and not rep.holds and rep.notes == "n; ratio capped [0.25, inf]"


@pytest.mark.parametrize("grid", [[4, 4, 4], [16, 16], [8], [], [8, 4, 16], None], ids=str)
def test_embedding_suite_refuses_a_degenerate_dirichlet_grid(monkeypatch, grid):
    # A repeated band limit makes the slope fit rank-deficient (arbitrary
    # slopes, and false violations), and a single one leaves no slope at
    # all: refused before any kernel is built or norm evaluated, as is a
    # missing grid.
    def unreachable(*args, **kwargs):
        raise AssertionError("evaluated on a degenerate grid")

    monkeypatch.setattr(verify, "dirichlet", unreachable)
    monkeypatch.setattr(verify, "norm_info", unreachable)
    with pytest.raises(DomainError, match="needs L_grid" if grid is None else "degenerate grid"):
        embedding_suite(T1, "dirichlet", [besov_lq_pair(T1, 2.0, 4.0)], L_grid=grid)
    with pytest.raises(DomainError, match="unknown family"):
        embedding_suite(T1, "other", [besov_lq_pair(T1, 2.0, 4.0)], L_grid=grid)


def test_embedding_suite_corpus_finiteness():
    corpus = make_corpus(T1, 6.0, 3, seed=1)
    pairs = tl_sandwich_pairs(T1, 0.5, 2.0, 4.0)
    reports = embedding_suite(T1, "corpus", pairs, corpus=corpus)
    assert all(r.holds for r in reports)
    assert not any(r.name.startswith("embedding-slope") for r in reports)


@pytest.mark.parametrize("group", ["torus:1", "torus:2", "torus:3"])
def test_dirichlet_members_synthesize_each_grid_once(monkeypatch, group):
    # Each member's ladders run in one _prefetch sweep, which meets each
    # (function, grid) pair once: none passes through _synth_values twice
    # for one member, over the default grids of both family suites.
    g = parse_group(group)
    member, seen = [None], Counter()
    synth, prefetch = norms._synth_values, verify._prefetch

    def values(F, rule):
        seen[(member[0], F.digest, rule.degree, rule.is_folded)] += 1
        return synth(F, rule)

    def member_prefetch(F, specs, max_nodes=None):
        member[0] = F.digest
        return prefetch(F, specs, max_nodes)

    monkeypatch.setattr(norms, "_synth_values", values)
    monkeypatch.setattr(verify, "_prefetch", member_prefetch)
    for pairs_of in (verify._embedding_pairs, verify._wiener_chain_pairs):
        norms.clear_memos()
        seen.clear()
        embedding_suite(g, "dirichlet", pairs_of(g), L_grid=verify.DIRICHLET_GRIDS[group])
        assert seen and max(seen.values()) == 1, [k for k, n in seen.items() if n > 1]


def test_corpus_members_read_enclosures_and_run_no_refined_ladder(monkeypatch):
    # Every corpus member of the default embedding suites settles on its
    # ratio's enclosure: no ladder refines to the stop rule, and the lhs is
    # the enclosure's upper end, at least the ratio of refined values.
    refined = []
    evaluate = norms._evaluate

    def spy(jobs, max_nodes):
        jobs = list(jobs)
        refined.extend((str(job.ladder.group), job.p) for job in jobs if job.exact_level is None)
        return evaluate(jobs, max_nodes)

    cfg = RunConfig()
    suites = []
    with monkeypatch.context() as m:
        m.setattr(norms, "_evaluate", spy)
        for name in cfg.groups:
            group = parse_group(name)
            corpus = make_corpus(group, verify.BANDLIMITS[name], cfg.corpus_count, cfg.seed)
            pairs = verify._embedding_pairs(group) + verify._wiener_chain_pairs(group)
            suites.append((corpus, pairs, embedding_suite(group, "corpus", pairs, corpus=corpus)))
    assert refined == []
    for corpus, pairs, reports in suites:
        assert len(reports) == len(pairs) * len(corpus.functions)
        for rep, (pair, F) in zip(reports, ((a, b) for a in pairs for b in corpus.functions)):
            cert, interval = rep.notes.split("; ratio ")[-1].split(" ", 1)
            lo, hi = map(float, interval.strip("[]").split(", "))
            assert rep.holds and cert in ("exact", "enclosed") and hi == rep.lhs
            value = _ratio(F, pair)
            assert lo * (1.0 - 1e-6) <= value <= rep.lhs * (1.0 + 1e-6), (rep.instance, value)


def test_corpus_records_fall_back_to_values_without_a_finite_enclosure():
    # The cap admits the base grid but not ||f||_4's: ||f||_3 has no finite
    # upper end, so the ratio comes from (capped) values and still holds,
    # and its notes say so as a Dirichlet member's do: a capped point.
    corpus = make_corpus(T1, 8.0, 3, seed=7)
    cap = quadrature(T1, corpus.functions[0].max_weight()).node_count
    pair = besov_lq_pair(T1, 1.5, 3.0)
    reports = embedding_suite(T1, "corpus", [pair], corpus=corpus, max_nodes=cap)
    assert len(reports) == 3
    for rep, F in zip(reports, corpus.functions):
        assert rep.holds and rep.lhs == _ratio(F, pair, cap)
        assert rep.notes.endswith(f"; ratio capped [{rep.lhs!r}, {rep.lhs!r}]")


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


def test_weyl_fit_huge_band():
    # T^1 counts stay floats up to L = 1e300; SU(2) counts leave float range
    slope, _, _ = weyl_fit(T1, [10, 20, 30, 40, 1e300])
    assert abs(slope - 1.0) <= 0.05
    with pytest.raises(DomainError, match="float range"):
        weyl_fit(SU2, [10, 20, 30, 40, 1e300])


# ---------------------------------------------------------------------------
# corpora


def test_corpus_determinism_and_count():
    a = make_corpus(T2, 3.0, 4, seed=13, profile="sparse")
    b = make_corpus(T2, 3.0, 4, seed=13, profile="sparse")
    assert len(a.functions) == 4
    for fa, fb in zip(a.functions, b.functions):
        assert dump_spectral(fa) == dump_spectral(fb)


def _dict_corpus(group, bandlimit, count, seed, profile):
    # make_corpus as it was before the packed build: per-rep dicts of
    # validated rep indices; kept as the reference.
    reps = enumerate_dual(group, bandlimit)
    rng = np.random.default_rng(seed)
    functions = []
    for _ in range(count):
        coeffs = {}
        if profile == "sparse":
            mask = rng.random(len(reps)) < 0.1
            if not mask.any():
                mask[int(rng.integers(len(reps)))] = True
            active = [xi for xi, keep in zip(reps, mask) if keep]
        else:
            active = reps
        for xi in active:
            d = rep_dim(group, xi)
            if profile == "smooth_decay":
                phases = rng.uniform(0.0, 2.0 * math.pi, size=(d, d))
                scale = math.exp(-math.sqrt(float(weight_sq(group, xi))))
                coeffs[xi] = scale * np.exp(1j * phases)
            else:
                coeffs[xi] = (
                    rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                ) / math.sqrt(2.0)
        functions.append(SpectralFunction(group, coeffs))
    return functions


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("group, band", [(T1, 8.0), (T2, 4.0), (torus(3), 3.0), (SU2, 2.5),
                                         (SU2, 6.0)])
def test_corpus_matches_per_rep_dict_reference(group, band, profile):
    for seed in (0, 7, 101):
        got = make_corpus(group, band, 4, seed, profile).functions
        ref = _dict_corpus(group, band, 4, seed, profile)
        assert [dump_spectral(F) for F in got] == [dump_spectral(F) for F in ref], seed
        assert [F.digest for F in got] == [F.digest for F in ref]


def test_corpus_validation():
    with pytest.raises(DomainError):
        make_corpus(T1, 4.0, 0, seed=1)
    with pytest.raises(DomainError):
        make_corpus(T1, 4.0, 1, seed=1, profile="nope")
    with pytest.raises(DomainError, match="corpus count must be an integer >= 1, got 2.5"):
        make_corpus(T1, 4.0, 2.5, 1)
    with pytest.raises(DomainError, match="family 'corpus' needs corpus"):
        embedding_suite(T1, "corpus", [besov_lq_pair(T1, 2.0, 4.0)])


def test_corpus_past_the_entry_cap_is_refused_before_drawing():
    # 15 reps in band 8 on T^1; su2 counts d^2 entries per rep, N(L) in all
    for group, band, per in ((T1, 8.0, 15), (SU2, 2.5, weyl_count(SU2, 2.5))):
        with pytest.raises(ResourceLimitError, match="coefficient entries, cap is"):
            make_corpus(group, band, MAX_DUAL_ENTRIES // per + 1, seed=1)


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
    # one grid L for the sharpness, Dirichlet, Weyl and corollary suites: five
    # points for the Weyl fit, and a_L down tenfold over the corollary grid
    return RunConfig(groups=("torus:1",), corpus_count=2, bandlimit=4.0,
                     p_grid=(1.0, 2.0, 3.0), q_grid=(2.0, INF), L=(4.0, 8.0, 16.0, 32.0, 64.0))


def test_corollary_suite_grid_and_band():
    cfg = _tiny_config()
    # one step ratio needs two points from L = 8, and the grid increases
    with pytest.raises(DomainError, match="two band limits >= 8"):
        corollary_suite_reports(replace(cfg, L=(2.0, 4.0, 8.0)))
    for grid in ((32.0, 16.0, 8.0, 4.0), (8.0, 8.0, 16.0)):
        with pytest.raises(DomainError, match="strictly increasing"):
            corollary_suite_reports(replace(cfg, L=grid))
    # the suite runs on torus:1: a band override applies when torus:1 is
    # listed, and a run without it leaves the suite the default band
    reports = corollary_suite_reports(replace(cfg, groups=("su2",), bandlimit=2.0))
    assert reports and all(r.holds for r in reports)
    assert {r.instance["group"] for r in reports} == {"torus:1"}
    default, banded = ([r.to_record() for r in corollary_suite_reports(c)]
                       for c in (replace(cfg, bandlimit=None), cfg))
    assert [r.to_record() for r in reports] == default != banded


@pytest.mark.parametrize("profile", ["sparse", "smooth_decay"])
def test_every_record_of_all_suites_holds_on_each_corpus_profile(profile):
    # A few-term torus function of a sparse corpus can have its sup equal
    # to the sum A of its coefficient moduli: its p = 1 Hausdorff-Young and
    # (2, inf) Nikolskii records are then equalities up to roundoff.
    reports = run_suite("all", RunConfig(profile=profile))
    assert [(r.name, r.instance) for r in reports if not r.holds] == []


def test_run_suite_all_passes_tiny():
    cfg = _tiny_config()
    reports = run_suite("all", cfg)
    assert reports and all(r.holds for r in reports)
    for rep in reports:  # every record's JSON form is strict JSON
        json.dumps(rep.to_record(), allow_nan=False)
    # one contiguous run of records per suite, in canonical order
    assert list(dict.fromkeys(r.suite for r in reports)) == list(SUITES[:-1])
    order = [SUITES.index(r.suite) for r in reports]
    assert order == sorted(order)
    assert set(summarize(reports)) == set(SUITES[:-1])


def test_verdict_edges():
    tol = 1e-6
    assert verify._verdict(1.0 + tol, 1.0, tol) == (1.0 + tol, True)
    assert verify._verdict(math.nextafter(1.0 + tol, 2.0), 1.0, tol)[1] is False
    assert verify._verdict(0.0, 0.0, tol) == (1.0, True)
    assert verify._verdict(1e-300, 0.0, tol) == (math.inf, False)
    assert verify._verdict(math.inf, 1.0, tol) == (math.inf, False)
    assert verify._verdict(math.inf, math.inf, tol) == (math.inf, False)
    # tol = inf: a record holds iff its ratio is finite
    assert verify._verdict(1e12, 1.0, INF) == (1e12, True)
    assert verify._verdict(1e300, 1e-300, INF) == (math.inf, False)
    assert verify._verdict(1.0, 0.0, INF) == (math.inf, False)
    assert verify._verdict(0.0, 0.0, INF) == (1.0, True)


def test_equality_record_scales_by_its_second_value():
    rep = verify._equality("e", "s", {}, 3.0, 2.0, 1e-9, notes="n")
    assert (rep.lhs, rep.rhs, rep.tol, rep.notes) == (1.0, 2e-9, 0.0, "n")
    assert not rep.holds
    # a zero scale still leaves a positive budget; a = b holds at any scale
    assert verify._equality("e", "s", {}, 0.0, 0.0, 1e-9).rhs == 1e-9 * 1e-300
    assert verify._equality("e", "s", {}, 0.0, 0.0, 1e-9).holds
    assert verify._equality("e", "s", {}, 2.0, 2.0, 1e-12).ratio == 0.0


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


@pytest.mark.parametrize("cap", [-1, 0, 2.5])
def test_malformed_node_cap_is_a_domain_error(cap):
    # weyl builds no grid and would write the cap into its header; sharpness
    # and lp_norm would refuse every grid as past the cap.
    for suite in ("weyl", "sharpness"):
        with pytest.raises(DomainError, match="node cap"):
            run_suite(suite, RunConfig(groups=("torus:1",), max_nodes=cap))
    with pytest.raises(DomainError, match="node cap"):
        lp_norm(dirichlet(T1, 3.0), 3.0, cap)


def test_run_config_header_lists_every_setting():
    # the report header embeds every RunConfig field
    keys = {
        "suite", "groups", "seed", "corpus_count", "profile", "bandlimit",
        "p_grid", "q_grid", "L", "betas", "r_grid", "tol_exact", "tol_grid",
        "tol_identity", "max_nodes",
    }
    assert set(RunConfig().to_dict()) == keys
    # one value per setting: the per-group defaults are module constants
    assert not any(isinstance(v, dict) for v in RunConfig().to_dict().values())


def test_run_config_stores_canonical_groups():
    # each group by its canonical name, so the per-group defaults are found
    # whatever the spelling; a malformed or repeated group is refused
    cfg = RunConfig(groups=("torus:01", " torus:+2 ", "su2"))
    assert cfg.groups == ("torus:1", "torus:2", "su2")
    assert replace(cfg, bandlimit=3.0).groups == cfg.groups
    for groups in (("torus:1", "torus:01"), ("torus:9",), ("so3",), ("\u2003su2",)):
        with pytest.raises(DomainError):
            RunConfig(groups=groups)
