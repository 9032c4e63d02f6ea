"""Analysis/synthesis, distinguished kernels, powers, serialization."""

import itertools
import linecache
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import ifftn

from peterweyl import fourier, groups
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
    MAX_REP_INDEX,
    DomainError,
    band_budget,
    enumerate_dual,
    quadrature,
    su2,
    torus,
    weyl_count,
)
from peterweyl.verify import PROFILES, make_corpus

from elements import matrix_coefficient, nodes, rep_dim

T1 = torus(1)
T2 = torus(2)
T3 = torus(3)
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
        x = tuple(nodes(rule)[idx])
        direct = sum(
            (twoL + 1) * np.trace(mat @ matrix_coefficient(SU2, twoL, x))
            for twoL, mat in F.items()
        )
        assert abs(vals[idx] - direct) < 1e-10


def _per_rep_phases(angles, twoL_max):
    # E[a, u] = exp(-i m_u angles[a]), m_u = (u - twoL_max) / 2, rebuilt per call.
    ms = (np.arange(2 * twoL_max + 1) - twoL_max) / 2.0
    return np.exp(-1j * np.outer(angles, ms))


def _per_rep_su2_slabs(F, rule):
    # The per-rep SU(2) synthesis the strided spin blocks replaced, kept as
    # the reference for their bits: each rep's block scattered by fancy
    # indexing, phase tables rebuilt per call.
    nb = rule.shape[1]
    tl = int(F.index.max())
    tabs = rule.d_tables(tl)
    nfreq = 2 * tl + 1
    gmat = np.zeros((nfreq, nfreq, nb), dtype=complex)
    for twoL, mat in F.items():
        dim = twoL + 1
        term = dim * mat.T[:, :, None] * tabs[twoL]
        pos = tl + twoL - 2 * np.arange(dim)
        gmat[pos[:, None], pos[None, :], :] += term
    e_alpha = _per_rep_phases(rule.axes[0], tl)
    by_alpha = np.ascontiguousarray(
        np.tensordot(e_alpha, gmat, axes=([1], [0])).transpose(0, 2, 1))
    e_gamma = np.ascontiguousarray(_per_rep_phases(rule.axes[2], tl).T)
    for a, b, lo, hi in fourier._slab_bounds(rule):
        yield lo, hi, (by_alpha[a:b].reshape(-1, nfreq) @ e_gamma).ravel()


def _per_rep_su2_analysis(values, rule, reps):
    # The per-rep SU(2) analysis the strided spin blocks replaced: each rep's
    # block gathered by np.ix_, phase tables rebuilt per call.
    na, nb, ng = rule.shape
    tl = max(reps)
    tabs = rule.d_tables(tl)
    mesh = values.reshape(na, nb, ng)
    t1 = np.tensordot(np.conj(_per_rep_phases(rule.axes[0], tl)), mesh, axes=([0], [0])) / na
    h = np.tensordot(t1, np.conj(_per_rep_phases(rule.axes[2], tl)), axes=([2], [0])) / ng
    h *= rule.axis_weights[1][:, None]
    out = []
    for twoL in reps:
        pos = tl + twoL - 2 * np.arange(twoL + 1)
        sub = h[np.ix_(pos, np.arange(nb), pos)]
        out.append(np.einsum("jbi,jib->ij", sub, tabs[twoL]).ravel())
    return np.concatenate(out)


def _bits(slabs):
    # The float64 view of slabs (lo, hi, values) laid end to end: signed
    # zeros and every last bit count.
    return np.concatenate([v for _, _, v in slabs]).view(np.float64)


def _su2_supports():
    # Dense corpora at three bands, then gapped supports: odd spins only,
    # the top spin alone, the trivial rep alone, and a top spin below the
    # rule's band.
    rng = np.random.default_rng(27)

    def spins(twoLs):
        return SpectralFunction(SU2, {t: rng.standard_normal((t + 1, t + 1))
                                      + 1j * rng.standard_normal((t + 1, t + 1))
                                      for t in twoLs})

    for band in (2.5, 4.0, 8.0):
        for profile in PROFILES:
            for F in make_corpus(SU2, band, 2, seed=3, profile=profile).functions:
                yield F, band
    yield spins([1, 3, 5]), 4.0
    yield spins([7]), 4.5
    yield spins([0]), 2.0
    yield spins([0, 1, 2]), 8.0


def test_su2_kernels_match_the_per_rep_loops_bit_for_bit():
    checked = 0
    for F, band in _su2_supports():
        if not F:
            continue
        rule = quadrature(SU2, band)
        got = list(synthesize_slabs(F, rule))
        assert [s[:2] for s in got] == [s[:2] for s in _per_rep_su2_slabs(F, rule)]
        assert np.array_equal(_bits(got), _bits(_per_rep_su2_slabs(F, rule)))
        f = synthesize(F, rule)
        reps = dirichlet(SU2, band).index[:, 0].tolist()
        back = analyze(f, band, threshold=0.0)
        assert back.index[:, 0].tolist() == reps
        want = _per_rep_su2_analysis(f.values, rule, reps)
        assert np.array_equal(back.entries.view(np.float64), want.view(np.float64))
        # a rep set whose top spin is below the rule's
        low = reps[: max(1, len(reps) // 2)]
        assert np.array_equal(fourier._su2_analyze(f.values, rule, low).view(np.float64),
                              _per_rep_su2_analysis(f.values, rule, low).view(np.float64))
        checked += 1
    assert checked >= 20


def test_su2_phase_tables_are_built_once_and_read_only():
    rule = quadrature(SU2, 4.0)
    for tl in (0, 3, 6):
        tables = rule.phase_tables(tl)
        assert rule.phase_tables(tl) is tables
        e_alpha, e_gamma_t, conj_alpha, conj_gamma = tables
        assert np.array_equal(e_alpha, _per_rep_phases(rule.axes[0], tl))
        assert np.array_equal(e_gamma_t, _per_rep_phases(rule.axes[2], tl).T)
        assert np.array_equal(conj_alpha, np.conj(e_alpha))
        assert np.array_equal(conj_gamma, np.conj(e_gamma_t.T))
        for table in tables:
            assert table.flags.c_contiguous and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
    # synthesis and analysis read the stored tables, building none
    F = _random_spectral(SU2, 4.0, seed=3)
    tl = int(F.index.max())
    stored = rule.phase_tables(tl)
    analyze(synthesize(F, rule), 4.0)
    assert rule.phase_tables(tl) is stored
    with pytest.raises(DomainError):
        quadrature(T2, 2.0).phase_tables(1)


def test_su2_phase_tables_hand_every_caller_the_stored_set_under_a_race():
    # A worker's phase_tables(12) is paused by a line hook just before it
    # stores its tables; phase_tables(12) runs meanwhile on this thread,
    # stores its own, and releases the worker on return.  The worker then
    # returns the stored set, so every caller reads one set of tables.
    rule = groups._make_rule(SU2, 16)  # a fresh rule, no tables yet
    paused, release = threading.Event(), threading.Event()
    got = {}

    def local(frame, event, arg):
        line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
        if event == "line" and "setdefault" in line and not paused.is_set():
            paused.set()
            release.wait(30.0)
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_name == "phase_tables" else None

    def worker():
        sys.settrace(hook)
        try:
            got["worker"] = rule.phase_tables(12)
        finally:
            sys.settrace(None)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert paused.wait(30.0)
        got["main"] = rule.phase_tables(12)
    finally:
        release.set()
        thread.join(30.0)
    assert got["worker"] is got["main"] is rule.phase_tables(12)
    assert not any(table.flags.writeable for table in got["main"])


def test_su2_phase_tables_under_contention_hand_out_one_set_per_spin():
    # More threads than cores ask a fresh rule for the same spins with a
    # short switch interval; every thread reads the one stored set per spin.
    from concurrent.futures import ThreadPoolExecutor

    rule = groups._make_rule(SU2, 24)
    spins = range(0, 23)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(lambda: [rule.phase_tables(t) for t in spins])
                       for _ in range(6)]
            results = [f.result(timeout=60.0) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for t in spins:
        assert all(r[t] is rule.phase_tables(t) for r in results), t


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


# slab_nodes: one row a slab, a ragged split, a 1 MiB split (one slab for
# the smaller grids), and the default
@pytest.mark.parametrize("slab_nodes", [1, 700, 1 << 16, fourier.SLAB_NODES])
@pytest.mark.parametrize(
    "group,L,band",  # T^2 band 36: 147^2 nodes, three slabs at the default
    [(T1, 6.0, 6.0), (T2, 4.0, 9.0), (T2, 4.0, 36.0), (T3, 2.5, 3.0), (SU2, 3.0, 8.0)],
    ids=str,
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


@pytest.mark.parametrize("c", [2, 3, 6, 9])
@pytest.mark.parametrize("group", [T1, T2, SU2], ids=str)
def test_band_edges_are_the_rule_degree(group, c):
    # A rule of degree c synthesizes and analyzes every rep with packed
    # weight wsq <= c^2, exactly, and refuses the next one.  wsq = c^2 is a
    # rep at c = 2, and at c = 6 on T^2 (k = (2, 2)).
    rule = quadrature(group, c / 2)
    assert (rule.degree, rule.bandlimit) == (c, c / 2)
    F = _random_spectral(group, c / 2, seed=c)
    assert int(F.wsq.max()) <= c * c
    assert _max_err(F, analyze(synthesize(F, rule), c / 2)) < 1e-12
    outer = dirichlet(group, c / 2 + 1)
    past = outer.restricted(outer.wsq == outer.wsq[outer.wsq > c * c].min())
    with pytest.raises(BandLimitError):
        synthesize_slabs(past, rule)
    f = synthesize(F, rule)
    L = math.sqrt(c * c + 1) / 2.0
    while band_budget(L) <= c * c:
        L = math.nextafter(L, math.inf)
    with pytest.raises(BandLimitError):
        analyze(f, L)
    inside = math.nextafter(L, 0.0)
    assert band_budget(inside) == c * c
    assert _max_err(F, analyze(f, inside)) < 1e-12


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
    rule = quadrature(T1, 2.0)
    with pytest.raises(DomainError, match="value count"):
        GridFunction(rule, np.zeros(rule.node_count + 1))


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
    assert vals.values[0].real == pytest.approx(  # node 0 is the identity
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


def _power_on_wider_band(T, rho):
    # The power on the wider rule of band (rho + 1) W, analyzed at the same
    # reps of the exact product budget.
    rule = quadrature(T.group, (rho + 1) * T.max_weight())
    reps = dirichlet(T.group, rule.bandlimit)
    reps = reps.restricted(reps.wsq <= rho * rho * int(T.wsq.max()))
    values = synthesize(T, rule).values ** rho
    return fourier._analyze_reps(GridFunction(rule, values), reps, 0.0), rule


@pytest.mark.parametrize("group,band", [(T1, 8.0), (T2, 4.0), (T3, 3.0), (SU2, 2.5)], ids=str)
def test_power_grid_of_band_rho_w_matches_a_wider_one(monkeypatch, group, band):
    # T^rho has packed weights <= rho^2 max wsq, and analysis pairs it with
    # reps of that budget, so the least degree c with c^2 >= that budget
    # gives the coefficients a wider grid gives, up to roundoff, and the
    # same support counts at the threshold, x10 and x0.1.
    rules, build = [], fourier.quadrature
    monkeypatch.setattr(fourier, "quadrature", lambda *a: rules.append(build(*a)) or rules[-1])
    for profile in PROFILES:
        for T in make_corpus(group, band, 2, seed=5, profile=profile).functions:
            for rho in (2, 3):
                budget = rho * rho * int(T.wsq.max())
                got = pointwise_power(T, rho, threshold=0.0)
                rule = rules[-1]
                assert rule.degree**2 >= budget > (rule.degree - 1) ** 2
                want, wide = _power_on_wider_band(T, rho)
                assert rule.node_count < wide.node_count
                assert got.index.tolist() == want.index.tolist()
                scale = np.abs(want.entries).max()
                assert np.abs(got.entries - want.entries).max() <= 1e-13 * scale
                for t in (1e-12, 1e-11, 1e-13):
                    assert support_count(got, t) == support_count(want, t)


def test_analysis_of_a_zero_grid_is_the_zero_function():
    for group, band in ((T2, 3.0), (SU2, 2.0)):
        rule = quadrature(group, band)
        for threshold in (fourier.SUPPORT_THRESHOLD, 0.0):
            F = analyze(GridFunction(rule, np.zeros(rule.node_count)), band, threshold)
            assert not F and F.support() == [] and F.group == group


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1e-3])
def test_a_threshold_that_is_not_finite_is_refused(threshold):
    # nan compares false with every entry and kept them all; inf cleared
    # every entry, and analysis returned the zero function; a negative one
    # kept every entry as 0 does
    for group, band in ((T2, 2.0), (SU2, 2.5)):
        T = _random_spectral(group, band, seed=4)
        f = synthesize(T, quadrature(group, band))
        for call in (lambda: analyze(f, band, threshold),
                     lambda: pointwise_power(T, 2, threshold=threshold),
                     lambda: pointwise_power(zero_spectral(group), 2, threshold=threshold),
                     lambda: support_count(T, threshold)):
            with pytest.raises(DomainError, match="threshold must be finite"):
                call()


def test_a_threshold_past_float_range_of_the_peak_keeps_nothing_quietly():
    # threshold times the largest entry overflows to inf, which no entry
    # reaches: nothing is kept, as before, but numpy warned of the overflow
    # (an error under this suite's RuntimeWarning filter)
    F = make_corpus(T2, 3.0, 1, 7).functions[0]
    f = synthesize(F, quadrature(T2, 3.0))
    assert support_count(F, 1e308) == 0
    assert not analyze(f, 3.0, 1e308)
    assert not pointwise_power(F, 2, threshold=1e308)
    assert support_count(F, 1e-300) == support_count(F, 0.0)  # a finite product


def test_dirichlet_is_one_instance_per_exact_band_budget():
    # analyze and pointwise_power read their rep sets from it, so every call
    # at one budget shares one listing
    for group in (T1, T2, T3, SU2):
        D = dirichlet(group, 3.0)
        assert dirichlet(group, 3.0 + 1e-9) is D  # the same budget, 36
        assert dirichlet(group, 3.1) is not D
        for arr in (D.index, D.dims, D.wsq, D.entries):
            assert not arr.flags.writeable
        f = synthesize(_random_spectral(group, 3.0, seed=8), quadrature(group, 3.0))
        assert analyze(f, 3.0, threshold=0.0).index.tolist() == D.index.tolist()


def test_kernel_cache_keeps_kernels_within_its_entry_budget():
    # The cache counts the coefficient entries of its kernels: kernels that
    # together pass the budget evict the oldest, and what it keeps stays
    # within the budget.
    cache = fourier._KERNELS
    cache.clear()
    for L in (15_000.0, 20_000.0, 25_000.0, 30_000.0):  # 2L - 1 entries each on T^1
        dirichlet(T1, L)
    kept = [kernel for kernel, _ in cache._entries.values()]
    assert 0 < len(kept) < 4
    assert sum(kernel.entries.size for kernel in kept) == cache.size <= cache.budget
    # a kernel past the budget is built anew for each call, the same kernel
    L = cache.budget / 2.0 + 1.0
    D = dirichlet(T1, L)
    assert D.entries.size > cache.budget
    assert dirichlet(T1, L) is not D and dirichlet(T1, L).index.tolist() == D.index.tolist()
    assert cache.size <= cache.budget


def test_table_cache_keeps_tables_within_its_entry_budget():
    # The cache counts the entries of its axis tables: tables that together
    # pass the budget evict the oldest, and what it keeps stays within the
    # budget.
    cache = fourier._TABLES
    cache.clear()
    for width in (40_000, 50_000, 60_000, 70_000):  # one row each
        fourier._axis_table("cosine", 7, 1, 0, width)
    kept = [table for table, _ in cache._entries.values()]
    assert 0 < len(kept) < 4
    assert sum(table.size for table in kept) == cache.size <= cache.budget
    # a table past the budget is built anew for each call, the same table
    table = fourier._axis_table("phase", 7, 2, -3, cache.budget // 2 + 1)
    again = fourier._axis_table("phase", 7, 2, -3, cache.budget // 2 + 1)
    assert table.size > cache.budget and again is not table and np.array_equal(again, table)
    assert cache.size <= cache.budget


def test_square_torus_box_builds_its_shared_table_once(monkeypatch):
    # Both axes of a square T^2 box have one key: with nothing kept, one
    # synthesis builds that table once, and the values are unchanged.
    F = SpectralFunction(T2, {(-1, -1): [[1.0]], (1, 1): [[2.0 - 1.0j]], (0, 1): [[0.5]]})
    rule = quadrature(T2, 3.0)
    want = synthesize(F, rule).values
    built, keep_nothing = [], groups._Memo(0)
    put = keep_nothing.put
    monkeypatch.setattr(keep_nothing, "put", lambda key, *rest: built.append(key) or put(key, *rest))
    monkeypatch.setattr(fourier, "_TABLES", keep_nothing)
    assert np.array_equal(synthesize(F, rule).values, want)
    assert len(built) == 1 and keep_nothing.size == 0


def test_support_count_thresholds():
    F = SpectralFunction(T1, {(0,): [[1.0]], (1,): [[1e-6]], (2,): [[1e-13]]})
    assert support_count(F, 1e-12) == 2
    assert support_count(F, 1e-3) == 1
    assert support_count(F, 0.0) == 3
    assert support_count(zero_spectral(T1)) == 0


# ---------------------------------------------------------------------------
# serialization


def _orbit_scaled(group, L, phase):
    # The Dirichlet kernel with coefficient phase(t) at every index k, t a
    # fixed real function of |k|: one value per sign orbit.
    kernel = dirichlet(group, L)
    return kernel.scaled(phase(np.abs(kernel.index) @ [1.0, 0.37, 0.11][:group.dim]))


@pytest.mark.parametrize("group,L", [(T1, 6.0), (T2, 3.0), (T3, 2.0)], ids=str)
def test_folded_rule_synthesizes_the_kept_nodes(group, L):
    # A sign-even function: its values at the half-axis nodes of the full
    # grid, summed as cosines into float64 slabs.  Analysis refuses the
    # folded grid.
    cases = (dirichlet(group, L), _orbit_scaled(group, L, np.cos))
    assert all(G.sign_even for G in cases)
    parities = set()
    for rule in (quadrature(group, f * L) for f in (1.0, 1.5, 2.0)):
        half = rule.folded()
        parities.add(rule.shape[0] % 2)
        for G in cases:
            full = synthesize(G, rule).values.reshape(rule.shape)
            kept = full[tuple(slice(0, h) for h in half.shape)].ravel()
            slabs = [v for _, _, v in synthesize_slabs(G, half)]
            assert {v.dtype for v in slabs} == {np.dtype(np.float64)}
            got = np.concatenate(slabs)
            assert np.abs(got - kept).max() <= 1e-13 * np.abs(kept).max()
        with pytest.raises(DomainError):
            analyze(GridFunction(half, got), 1.0)
    assert parities == {0, 1}


@pytest.mark.parametrize("group,L", [(T1, 6.0), (T2, 3.0), (T3, 2.0)], ids=str)
def test_folded_rule_refuses_functions_that_are_not_sign_even(group, L):
    # A folded rule sums cosines, so before the first slab it refuses a
    # function that is not even, and one even in every coordinate whose
    # coefficients are complex.
    even = _orbit_scaled(group, L, lambda t: np.exp(1j * t))
    half = quadrature(group, L).folded()
    for F in (_random_spectral(group, L, 61), even):
        assert not F.sign_even
        with pytest.raises(DomainError, match="sign-even"):
            synthesize_slabs(F, half)
        with pytest.raises(DomainError, match="sign-even"):
            synthesize(F, half)


def test_serialization_round_trip_bytes():
    for F in (_random_spectral(T2, 3.0, seed=2), _random_spectral(SU2, 2.5, seed=2)):
        text = dump_spectral(F)
        again = dump_spectral(load_spectral(text))
        assert again == text


def _per_rep_dump(F):
    # The per-rep, per-scalar formatter dump_spectral replaced, kept as the
    # reference for its bytes.
    lines = ["specfun v1", f"group {F.group}"]
    for xi, mat in F.items():
        entries = []
        for v in mat.ravel():
            entries.append(repr(float(v.real)))
            entries.append(repr(float(v.imag)))
        index = ",".join(str(k) for k in xi) if F.group.kind == "torus" else str(xi)
        lines.append(f"rep {index} {mat.shape[0]} " + " ".join(entries))
    return "\n".join(lines) + "\n"


@st.composite
def _spectral_functions(draw):
    # Any finite entries, signed zeros and subnormals among them, on torus
    # supports that reach the rep index bound.
    group = draw(st.sampled_from([T1, T2, T3, SU2]))
    if group.kind == "su2":
        reps = draw(st.lists(st.integers(0, 5), unique=True, max_size=4))
    else:
        k = st.integers(-3, 3) | st.sampled_from([-MAX_REP_INDEX, MAX_REP_INDEX])
        reps = draw(st.lists(st.tuples(*[k] * group.dim), unique=True, max_size=6))
    entry = st.floats(allow_nan=False, allow_infinity=False)
    coeffs = {}
    for xi in reps:
        d = rep_dim(group, xi)
        vals = draw(st.lists(entry, min_size=2 * d * d, max_size=2 * d * d))
        coeffs[xi] = np.array(vals).view(complex).reshape(d, d)
    return SpectralFunction(group, coeffs)


@given(_spectral_functions(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_spectral_files_round_trip_bit_for_bit_in_any_record_order(F, rnd):
    text = dump_spectral(F)
    assert text == _per_rep_dump(F)
    assert text.isascii() and "_" not in text  # which load_spectral refuses
    assert load_spectral(text).digest == F.digest
    lines = text.splitlines()
    records = lines[2:]
    rnd.shuffle(records)
    G = load_spectral("\n".join(lines[:2] + records) + "\n")
    assert G.digest == F.digest and dump_spectral(G) == text


def test_serialization_header_and_errors():
    F = _random_spectral(T1, 2.0, seed=0)
    text = dump_spectral(F)
    assert text.startswith("specfun v1\ngroup torus:1\n")
    with pytest.raises(DomainError):
        load_spectral("nonsense\n")
    with pytest.raises(DomainError):
        load_spectral("specfun v1\ngroup torus:1\nrep 0 1 0.5\n")  # odd entry count
    # index lengths that miss the rank even where their total matches it
    with pytest.raises(DomainError, match=r"int 2-tuple .* got \(1, 2, 3\)"):
        load_spectral("specfun v1\ngroup torus:2\nrep 1,2,3 1 1 0\nrep 4 1 1 0\n")
    # int and float read '_' and any Unicode digit; no record may hold either
    for bad in ("rep 0 1 1_0 0", "rep 1_0 1 1 0", "rep \u0662 1 1 0", "rep 0 1 \uff11 0"):
        with pytest.raises(DomainError, match=f"bad number text {bad!r}"):
            load_spectral(f"specfun v1\ngroup torus:1\nrep 1 1 1 0\n{bad}\n")
    with pytest.raises(DomainError, match="bad torus rank"):
        load_spectral("specfun v1\ngroup torus:\u0661\nrep 0 1 1 0\n")


def test_load_spectral_names_a_dimension_that_does_not_match_its_rep():
    # the first mismatch in canonical order, whatever the record order
    with pytest.raises(DomainError, match=r"rep \(0,\) must be 1x1, got \(2, 2\)"):
        load_spectral("specfun v1\ngroup torus:1\nrep 0 2 " + "1 0 " * 4 + "\n")
    text = "specfun v1\ngroup su2\nrep 2 2 " + "1 0 " * 4 + "\nrep 1 1 1 0\n"
    with pytest.raises(DomainError, match=r"rep 1 must be 2x2, got \(1, 1\)"):
        load_spectral(text)


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


_FAR = MAX_REP_INDEX + 1


@pytest.mark.parametrize("records, message", [
    # one record per check, in the order the reader runs them
    ("rep 0,0 1 1_0 0", "bad number text 'rep 0,0 1 1_0 0': numbers are ASCII, without '_'"),
    ("rec 0,0 1 1 0", "bad record 'rec 0,0 1 1 0'"),
    ("rep 0,0", "bad record 'rep 0,0'"),
    ("rep 0,x 1 1 0", "bad rep index '0,x' for torus:2"),
    ("rep 0,0 1 1 0\nrep 00,-0 1 2 0", "duplicate record for rep 00,-0"),
    ("rep 0,0 1 1 x", "rep 0,0: bad number in 'rep 0,0 1 1 x'"),
    ("rep 0,0 0", "rep 0,0: dimension must be positive, got 0"),
    ("rep 0,0 1 1", "rep 0,0: expected 2 entries, got 1"),
    ("rep 0,0 1 1 nan", "rep 0,0: entries must be finite"),
    (f"rep 0,{_FAR} 1 1 0", f"torus rep index must be an int 2-tuple within +-{MAX_REP_INDEX}, "
                            f"got (0, {_FAR})"),
    ("rep 1,0 1 1 0\nrep 0,1 2 " + "1 0 " * 4,
     "coefficient for rep (0, 1) must be 1x1, got (2, 2)"),
    # an earlier record failing a later check beats a later record failing
    # an earlier one
    ("rep 0,0 1 1 nan\nrep 1,x 1 1 0", "rep 0,0: entries must be finite"),
    ("rep 0,0 1 1 0 0\nrep 1,1 1 1_0 0", "rep 0,0: expected 2 entries, got 3"),
    # every record's own checks come before any index range
    (f"rep 0,{_FAR} 1 1 0\nrep 1,1 1 1 x", "rep 1,1: bad number in 'rep 1,1 1 1 x'"),
    (f"rep 0,{_FAR} 1 1 0\nrep 0,{_FAR} 1 1 0", f"duplicate record for rep 0,{_FAR}"),
], ids=range(15))
def test_load_spectral_names_the_first_failure_of_a_record_by_record_reader(records, message):
    with pytest.raises(DomainError) as err:
        load_spectral(f"specfun v1\ngroup torus:2\n{records}\n")
    assert str(err.value) == message


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
