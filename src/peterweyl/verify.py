"""Inequality checkers and experiment drivers.

Every checked statement is reduced to one or more InequalityReport records
with the uniform convention

    holds  <=>  lhs / rhs <= 1 + tol.

Plain inequality checks put the two sides in lhs and rhs directly.  Equality
and statistic checks are encoded in the same shape: |a - b| against a
tolerance budget, |slope - n| against a band, a deviation count against 1/2.
The notes field carries whatever provenance matters for audit: grid
certification flags, support-count threshold sensitivity, truncation
caveats.

Embedding theorems assert inequalities up to unspecified constants, which a
single evaluation cannot falsify.  They are operationalized as
non-divergence: along a canonical scaling family (Dirichlet kernels of
growing band) the least-squares slope of log(ratio) against log(L) must stay
below 0.1, and on random corpora every ratio must be finite.  Member records
for constant-bound claims therefore carry tol = inf (finiteness is the
check); the slope record is the quantitative gate.

Default tolerances: 1e-9 where quadrature is exact, 1e-6 where dyadic grid
refinement is involved, 1e-12 for algebraic identities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import __version__
from .groups import (
    MAX_DUAL_ENTRIES,
    DomainError,
    GroupId,
    ResourceLimitError,
    enumerate_dual,
    parse_group,
    rep_dim,
    weight_sq,
    weyl_count,
)
from .fourier import (
    SUPPORT_THRESHOLD,
    SpectralFunction,
    dirichlet,
    partial_sum,
    pointwise_power,
    support_count,
)
from .norms import (
    INF,
    NormSpec,
    besov_norm,
    beurling_norm,
    beurling_r_norm,
    dyadic_blocks,
    lp_norm,
    lp_norms,
    norm_value,
    seq_lp_norm,
    sobolev_norm,
    tl_norm,
)

TOL_EXACT = 1e-9
TOL_GRID = 1e-6
TOL_IDENTITY = 1e-12
SLOPE_MAX = 0.1


@dataclass
class InequalityReport:
    """One checked inequality instance, serializable as a single record."""

    name: str
    suite: str
    instance: dict
    lhs: float
    rhs: float
    ratio: float
    holds: bool
    tol: float
    notes: str = ""

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "suite": self.suite,
            "instance": self.instance,
            "lhs": _json_safe(float(self.lhs)),
            "rhs": _json_safe(float(self.rhs)),
            "ratio": _json_safe(float(self.ratio)),
            "holds": self.holds,
            "tol": _json_safe(float(self.tol)),
            "notes": self.notes,
        }


def _json_safe(v):
    # JSON form of a report value.  JSON has no inf or nan, so non-finite
    # floats become their repr strings; tuples become lists and dicts are
    # key-sorted, recursively.
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return [_json_safe(x) for x in v]
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in sorted(v.items())}
    return v


def _report(name, suite, instance, lhs, rhs, tol, notes="") -> InequalityReport:
    lhs = float(lhs)
    rhs = float(rhs)
    if rhs > 0 and math.isfinite(lhs):
        ratio = lhs / rhs
    elif lhs == 0.0 and rhs == 0.0:
        ratio = 1.0
    else:
        ratio = math.inf
    if tol == INF:
        holds = math.isfinite(ratio)
    else:
        holds = math.isfinite(ratio) and ratio <= 1.0 + tol
    return InequalityReport(
        name=name,
        suite=suite,
        instance=_json_safe(instance),
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        holds=holds,
        tol=tol,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Nikolskii


def rho_of(p: float) -> int:
    """Power exponent: 1 for p <= 2, else the smallest integer >= p/2."""
    if not 0 < p < INF:
        raise DomainError(f"rho is defined for 0 < p < inf, got {p}")
    if p <= 2:
        return 1
    return math.ceil(p / 2.0)


def _support_counts(T, rho, threshold, max_nodes):
    raw = pointwise_power(T, rho, threshold=0.0, max_nodes=max_nodes)
    return {
        "count": support_count(raw, threshold),
        "count_x10": support_count(raw, threshold * 10.0),
        "count_d10": support_count(raw, threshold / 10.0),
    }


def nikolskii_check(
    T: SpectralFunction,
    p: float,
    q: float,
    tol: float = TOL_GRID,
    threshold: float = SUPPORT_THRESHOLD,
    max_nodes: int | None = None,
    suite: str = "nikolskii",
    _norms: dict | None = None,
    _counts: dict | None = None,
    instance: dict | None = None,
) -> InequalityReport:
    """Norm comparison with the spectral-support constant.

    lhs = ||T||_q, rhs = (sum of d^2 over the support of the rho-th power's
    coefficients)^(1/p - 1/q) * ||T||_p.  The support count and its
    sensitivity to threshold x10 / x0.1 ride along in the notes.
    """
    if not 0 < p < q or not q <= INF:
        raise DomainError(f"need 0 < p < q <= inf, got p={p}, q={q}")
    rho = rho_of(p)
    counts = _counts if _counts is not None else _support_counts(T, rho, threshold, max_nodes)
    norms = _norms if _norms is not None else lp_norms(T, [p, q], max_nodes)
    lhs, lhs_info = norms[q]
    base, base_info = norms[p]
    expo = 1.0 / p - 1.0 / q
    rhs = counts["count"] ** expo * base
    inst = dict(instance or {})
    inst.update({"group": str(T.group), "p": p, "q": q, "rho": rho})
    notes = (
        f"support={counts['count']} (x10 -> {counts['count_x10']}, "
        f"x0.1 -> {counts['count_d10']}); "
        f"lhs grid {lhs_info['certified']}, rhs grid {base_info['certified']}"
    )
    return _report("nikolskii", suite, inst, lhs, rhs, tol, notes)


def nikolskii_remark_check(
    T: SpectralFunction,
    p: float,
    q: float,
    L: float,
    tol: float = TOL_GRID,
    max_nodes: int | None = None,
    suite: str = "nikolskii",
    _norms: dict | None = None,
    instance: dict | None = None,
) -> InequalityReport:
    """Coarser bound using the full counting function N(rho L).

    Requires the support of T to sit inside weight <= L; the notes record
    the chain support-count <= N(L) <= N(rho L).
    """
    if not 0 < p < q or not q <= INF:
        raise DomainError(f"need 0 < p < q <= inf, got p={p}, q={q}")
    if T.max_weight_sq() > Fraction(L) ** 2:
        raise DomainError(f"support of T exceeds the stated band L={L}")
    rho = rho_of(p)
    norms = _norms if _norms is not None else lp_norms(T, [p, q], max_nodes)
    lhs, lhs_info = norms[q]
    base, _ = norms[p]
    expo = 1.0 / p - 1.0 / q
    n_rho_l = weyl_count(T.group, rho * L)
    rhs = n_rho_l ** expo * base
    inst = dict(instance or {})
    inst.update({"group": str(T.group), "p": p, "q": q, "rho": rho, "L": L})
    notes = f"N(rho*L)={n_rho_l}; N(L)={weyl_count(T.group, L)}; lhs grid {lhs_info['certified']}"
    return _report("nikolskii-remark", suite, inst, lhs, rhs, tol, notes)


def sharpness_check(
    group: GroupId, L: float, tol: float = TOL_EXACT, max_nodes: int | None = None
) -> list[InequalityReport]:
    """Equality case: T = Dirichlet kernel, p = 2, q = inf, ratio must be 1."""
    T = dirichlet(group, L)
    rep = nikolskii_check(
        T, 2.0, INF, tol=tol, max_nodes=max_nodes, suite="sharpness",
        instance={"L": L, "T": "dirichlet"},
    )
    rep.name = "nikolskii-sharpness"
    eq = _report(
        "nikolskii-sharpness-equality",
        "sharpness",
        {"group": str(group), "L": L, "p": 2.0, "q": "inf"},
        abs(rep.ratio - 1.0),
        tol,
        0.0,
        notes=f"ratio={rep.ratio!r}",
    )
    return [rep, eq]


# ---------------------------------------------------------------------------
# Hausdorff-Young and Plancherel


def _conjugate(p: float) -> float:
    """Hoelder conjugate p' with 1/p + 1/p' = 1; p = 1 gives inf.

    Taken on the rational the float stands for: the closest fraction with
    denominator at most 10^6 when it rounds back to p, else p's exact binary
    value.  So 4/3 gives 4.0, whose even exponent has an exact grid, not
    p / (p - 1) = 4.000000000000001.
    """
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    r = Fraction(p).limit_denominator(10**6)
    if float(r) != p:
        r = Fraction(p)
    return float(r / (r - 1))


def hausdorff_young_checks(
    F: SpectralFunction,
    p: float,
    tol: float = TOL_EXACT,
    max_nodes: int | None = None,
    suite: str = "hausdorff-young",
    instance: dict | None = None,
    _norms: dict | None = None,
) -> list[InequalityReport]:
    """Both directions at one exponent 1 <= p <= 2 (p' conjugate)."""
    if not 1 <= p <= 2:
        raise DomainError(f"Hausdorff-Young needs 1 <= p <= 2, got {p}")
    pp = _conjugate(p)
    norms = _norms if _norms is not None else lp_norms(F, [p, pp], max_nodes)
    inst = dict(instance or {})
    inst.update({"group": str(F.group), "p": p, "p_conj": pp})
    coeff = _report(
        "hy-coefficient",
        suite,
        inst,
        seq_lp_norm(F, pp),
        norms[p][0],
        tol,
        notes=f"rhs grid {norms[p][1]['certified']}",
    )
    func = _report(
        "hy-function",
        suite,
        inst,
        norms[pp][0],
        seq_lp_norm(F, p),
        tol,
        notes=f"lhs grid {norms[pp][1]['certified']}"
        + ("; lhs is a grid lower bound" if pp == INF else ""),
    )
    return [coeff, func]


def plancherel_check(
    F: SpectralFunction,
    tol: float = TOL_EXACT,
    max_nodes: int | None = None,
    suite: str = "hausdorff-young",
    instance: dict | None = None,
) -> InequalityReport:
    a = lp_norm(F, 2.0, max_nodes)
    b = seq_lp_norm(F, 2.0)
    inst = dict(instance or {})
    inst.update({"group": str(F.group)})
    return _report(
        "plancherel", suite, inst, abs(a - b), tol * max(b, 1e-300), 0.0,
        notes=f"l2={a!r} seq2={b!r}",
    )


# ---------------------------------------------------------------------------
# Partial-sum decay (the o(1) consequence)


def corollary_decay(
    F: SpectralFunction,
    p: float,
    q: float,
    L_grid,
    max_nodes: int | None = None,
) -> tuple[list[tuple[float, float]], float]:
    """Sequence a_L = N(L)^(1/q - 1/p) ||S_L f||_q over the grid.

    Also returns the truncated weighted-sum statistic
    sum_k k^((1 - 1/p + 1/q) p - 1) (sup_{N(L) >= k} N(L)^{-1} ||S_L f||_q)^p
    restricted to the available grid.  The statistic is reported, never
    asserted: the true sum is infinite and the sup is under-approximated on
    a finite grid.
    """
    if not (1 <= p < q <= INF):
        raise DomainError(f"need 1 <= p < q <= inf, got p={p}, q={q}")
    inv_q = 1.0 / q
    if not (1.0 / p > inv_q + 0.5):
        raise DomainError(
            f"decay requires 1/p > 1/q + 1/2, got p={p}, q={q}"
        )
    seq = []
    sup_terms = []
    for L in L_grid:
        s = partial_sum(F, L)
        nq = lp_norm(s, q, max_nodes)
        n_l = weyl_count(F.group, L)
        seq.append((float(L), n_l ** (inv_q - 1.0 / p) * nq))
        sup_terms.append((n_l, nq / n_l))
    kmax = max(n for n, _ in sup_terms)
    stat = 0.0
    for k in range(1, kmax + 1):
        tail = [v for n, v in sup_terms if n >= k]
        if not tail:
            break
        stat += k ** ((1.0 - 1.0 / p + inv_q) * p - 1.0) * max(tail) ** p
    return seq, stat ** (1.0 / p)


# ---------------------------------------------------------------------------
# Embeddings


def embedding_ratio(
    F: SpectralFunction,
    target: NormSpec,
    source: NormSpec,
    max_nodes: int | None = None,
) -> float:
    """||f||_target / ||f||_source; finite iff the embedding bound is seen."""
    denom = norm_value(F, source, max_nodes)
    if denom == 0.0:
        raise DomainError("embedding ratio undefined for the zero function")
    return norm_value(F, target, max_nodes) / denom


@dataclass(frozen=True)
class EmbeddingPair:
    """Source space embeds into target space: ||f||_target <= C ||f||_source."""

    label: str
    target: NormSpec
    source: NormSpec
    notes: str = ""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def besov_besov_pair(
    group: GroupId, p1: float, p2: float, q: float, r1: float, r2: float | None = None
) -> EmbeddingPair:
    """Smoothness-for-integrability trade: r2 = r1 - n (1/p1 - 1/p2)."""
    _require(0 < p1 <= p2 <= INF, f"need 0 < p1 <= p2 <= inf, got {p1}, {p2}")
    _require(0 < q <= INF, f"need 0 < q <= inf, got {q}")
    n = group.dim
    derived = r1 - n * (1.0 / p1 - 1.0 / p2)
    if r2 is not None and abs(r2 - derived) > 1e-12:
        raise DomainError(
            f"exponent relation violated: r2 must be r1 - n(1/p1 - 1/p2) = {derived}, got {r2}"
        )
    return EmbeddingPair(
        label=f"besov({r1:g},{p1:g},{q:g})->besov({derived:g},{p2:g},{q:g})",
        target=NormSpec("besov", r=derived, p=p2, q=q),
        source=NormSpec("besov", r=r1, p=p1, q=q),
    )


def besov_lq_pair(group: GroupId, p: float, q: float, r: float | None = None) -> EmbeddingPair:
    """Besov into Lebesgue at the critical smoothness r = n (1/p - 1/q)."""
    _require(1 < p < q < INF, f"need 1 < p < q < inf, got {p}, {q}")
    derived = group.dim * (1.0 / p - 1.0 / q)
    if r is not None and abs(r - derived) > 1e-12:
        raise DomainError(
            f"exponent relation violated: r must be n(1/p - 1/q) = {derived}, got {r}"
        )
    return EmbeddingPair(
        label=f"besov({derived:g},{p:g},{q:g})->L{q:g}",
        target=NormSpec("Lp", p=q),
        source=NormSpec("besov", r=derived, p=p, q=q),
    )


def besov_linf_pair(group: GroupId, p: float) -> EmbeddingPair:
    """Critical summability into the sup norm: B^{n/p}_{p,1} -> L^inf."""
    _require(0 < p <= INF, f"need 0 < p <= inf, got {p}")
    r = group.dim / p
    return EmbeddingPair(
        label=f"besov({r:g},{p:g},1)->Linf",
        target=NormSpec("Lp", p=INF),
        source=NormSpec("besov", r=r, p=p, q=1.0),
    )


def tl_sandwich_pairs(group: GroupId, r: float, p: float, q: float) -> list[EmbeddingPair]:
    """Both faces of B_{p,min(p,q)} -> F_{p,q} -> B_{p,max(p,q)}."""
    _require(0 < p < INF, f"need 0 < p < inf, got {p}")
    _require(0 < q <= INF, f"need 0 < q <= inf, got {q}")
    lo, hi = min(p, q), max(p, q)
    return [
        EmbeddingPair(
            label=f"besov({r:g},{p:g},{lo:g})->tl({r:g},{p:g},{q:g})",
            target=NormSpec("tl", r=r, p=p, q=q),
            source=NormSpec("besov", r=r, p=p, q=lo),
        ),
        EmbeddingPair(
            label=f"tl({r:g},{p:g},{q:g})->besov({r:g},{p:g},{hi:g})",
            target=NormSpec("besov", r=r, p=p, q=hi),
            source=NormSpec("tl", r=r, p=p, q=q),
        ),
    ]


def wiener_beta(group: GroupId, alpha: float, p: float) -> float:
    """Solve 1/beta = n/alpha + 1/p' for the Wiener-Besov exponent."""
    _require(alpha > 0, f"need alpha > 0, got {alpha}")
    _require(1 < p < INF, f"need 1 < p < inf, got {p}")
    return 1.0 / (group.dim / alpha + 1.0 / _conjugate(p))


def wiener_besov_pair(group: GroupId, alpha: float, p: float, direction: str) -> EmbeddingPair:
    """Wiener-scale vs Besov with 1/beta = n/alpha + 1/p'.

    direction "into-wiener" needs 1 < p <= 2 (Besov controls the Wiener
    norm); "from-wiener" needs 2 <= p < inf.
    """
    beta = wiener_beta(group, alpha, p)
    if direction == "into-wiener":
        _require(1 < p <= 2, f"into-wiener needs 1 < p <= 2, got {p}")
        return EmbeddingPair(
            label=f"besov({alpha:g},{p:g},{beta:g})->wiener({beta:g})",
            target=NormSpec("seq", p=beta),
            source=NormSpec("besov", r=alpha, p=p, q=beta),
        )
    if direction == "from-wiener":
        _require(2 <= p < INF, f"from-wiener needs 2 <= p < inf, got {p}")
        return EmbeddingPair(
            label=f"wiener({beta:g})->besov({alpha:g},{p:g},{beta:g})",
            target=NormSpec("besov", r=alpha, p=p, q=beta),
            source=NormSpec("seq", p=beta),
        )
    raise DomainError(f"direction must be into-wiener or from-wiener, got {direction!r}")


def beurling_pairs(group: GroupId, beta: float, p: float) -> list[EmbeddingPair]:
    """Both beurling-space comparisons at p >= 2, 0 < beta < inf.

    The left Besov smoothness n(1/beta - 1/p') can be negative for large p;
    such instances are flagged in the pair notes.
    """
    _require(p >= 2, f"need p >= 2, got {p}")
    _require(0 < beta < INF, f"need 0 < beta < inf, got {beta}")
    n = group.dim
    r_left = n * (1.0 / beta - 1.0 / _conjugate(p))
    note = "negative smoothness" if r_left < 0 else ""
    return [
        EmbeddingPair(
            label=f"beurling({beta:g})->besov({r_left:g},{p:g},{beta:g})",
            target=NormSpec("besov", r=r_left, p=p, q=beta),
            source=NormSpec("beurling", beta=beta),
            notes=note,
        ),
        EmbeddingPair(
            label=f"besov({n / beta:g},1,{beta:g})->beurling({beta:g})",
            target=NormSpec("beurling", beta=beta),
            source=NormSpec("besov", r=n / beta, p=1.0, q=beta),
        ),
    ]


def chain_pairs(group: GroupId, beta: float) -> list[EmbeddingPair]:
    """The consequence chain: wiener <= C besov(2, beta) <= C beurling."""
    _require(0 < beta < INF, f"need 0 < beta < inf, got {beta}")
    r = group.dim * (1.0 / beta - 0.5)
    mid = NormSpec("besov", r=r, p=2.0, q=beta)
    return [
        EmbeddingPair(
            label=f"besov({r:g},2,{beta:g})->wiener({beta:g})",
            target=NormSpec("seq", p=beta),
            source=mid,
        ),
        EmbeddingPair(
            label=f"beurling({beta:g})->besov({r:g},2,{beta:g})",
            target=mid,
            source=NormSpec("beurling", beta=beta),
        ),
    ]


def _ring_kernel(group: GroupId, s: int) -> SpectralFunction:
    # Dirichlet-type kernel of one dyadic shell: identity coefficients on
    # every rep with 2^s <= <xi> < 2^(s+1).  Shell s is never empty here.
    return dyadic_blocks(dirichlet(group, 2.0 ** (s + 1)))[s]


def embedding_suite(
    group: GroupId,
    family: str,
    pairs: list[EmbeddingPair],
    L_grid=None,
    corpus=None,
    slope_max: float = SLOPE_MAX,
    max_nodes: int | None = None,
    suite: str = "embeddings",
) -> list[InequalityReport]:
    """Ratios of each pair along a family, plus a slope record per pair.

    family "dirichlet" scales Dirichlet kernels over L_grid, "single_block"
    scales one-shell ring kernels over s in L_grid, and "corpus" evaluates
    the given corpus functions (finiteness only; no scaling axis).
    """
    if family == "dirichlet":
        members = [(float(L), f"L={L:g}", dirichlet(group, L)) for L in L_grid]
    elif family == "single_block":
        members = [(2.0**s, f"s={s}", _ring_kernel(group, int(s))) for s in L_grid]
    elif family == "corpus":
        members = [(None, f"fn={i}", f) for i, f in enumerate(corpus.functions)]
    else:
        raise DomainError(f"unknown family {family!r}")
    reports = []
    for pair in pairs:
        ratios = []
        xs = []
        for x, label, func in members:
            ratio = embedding_ratio(func, pair.target, pair.source, max_nodes)
            inst = {
                "group": str(group),
                "pair": pair.label,
                "family": family,
                "member": label,
            }
            reports.append(
                _report(
                    f"embedding:{pair.label}",
                    suite,
                    inst,
                    ratio,
                    1.0,
                    INF,
                    notes=(pair.notes + "; " if pair.notes else "")
                    + "constant-bound claim: finiteness checked here, growth by slope record",
                )
            )
            if x is not None:
                xs.append(x)
                ratios.append(ratio)
        if len(xs) >= 2:
            slope = float(
                np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ratios)), 1)[0]
            )
            inst = {
                "group": str(group),
                "pair": pair.label,
                "family": family,
                "grid": [float(x) for x in xs],
            }
            reports.append(
                _report(
                    f"embedding-slope:{pair.label}",
                    suite,
                    inst,
                    slope,
                    slope_max,
                    0.0,
                    notes=f"ratios={[round(r, 6) for r in ratios]}",
                )
            )
    return reports


# ---------------------------------------------------------------------------
# Weyl asymptotics


def weyl_fit(group: GroupId, L_grid) -> tuple[float, float, float]:
    """Least-squares fit of log N(L) against log L.

    Returns (slope, intercept, rms residual); exp(intercept) estimates the
    leading constant empirically.
    """
    grid = [float(L) for L in L_grid]
    if len(grid) < 5 or max(grid) < 10 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError(
            "degenerate grid: need >= 5 strictly increasing points with max >= 10"
        )
    logs_l = np.log(grid)
    logs_n = np.log([weyl_count(group, L) for L in grid])
    slope, intercept = np.polyfit(logs_l, logs_n, 1)
    residual = float(np.sqrt(np.mean((logs_n - (slope * logs_l + intercept)) ** 2)))
    return float(slope), float(intercept), residual


# ---------------------------------------------------------------------------
# Corpora


@dataclass(frozen=True)
class Corpus:
    """Seeded batch of spectral functions, regenerable byte-identically."""

    seed: int
    group: GroupId
    bandlimit: float
    profile: str
    functions: tuple

PROFILES = ("dense_gaussian", "sparse", "smooth_decay")


def make_corpus(
    group: GroupId,
    bandlimit: float,
    count: int,
    seed: int,
    profile: str = "dense_gaussian",
) -> Corpus:
    """Pseudorandom spectral functions with all randomness from one seed.

    dense_gaussian: i.i.d. standard complex normal entries on every rep in
    band.  sparse: each rep active with probability 0.1 (one forced active
    if a draw leaves none).  smooth_decay: unit-modulus random phases scaled
    by exp(-<xi>), so magnitudes are the deterministic envelope and partial
    sums decay reproducibly.
    """
    if count < 1:
        raise DomainError(f"corpus count must be >= 1, got {count}")
    if profile not in PROFILES:
        raise DomainError(f"unknown profile {profile!r} (choices {PROFILES})")
    entries = count * weyl_count(group, bandlimit)
    if entries > MAX_DUAL_ENTRIES:
        raise ResourceLimitError(
            f"corpus would hold {entries} coefficient entries, cap is {MAX_DUAL_ENTRIES}"
        )
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
    return Corpus(seed, group, float(bandlimit), profile, tuple(functions))


# ---------------------------------------------------------------------------
# Suite driver


def _default_bandlimits():
    return {"torus:1": 8.0, "torus:2": 4.0, "torus:3": 3.0, "su2": 2.5}


def _default_dirichlet_grids():
    # Families start at L = 4: below that the dyadic block structure is
    # degenerate (one or two shells) and the ratios are still transient.
    return {
        "torus:1": (4, 8, 16, 32, 64),
        "torus:2": (4, 8, 16, 32),
        "torus:3": (4, 8, 16),
        "su2": (2, 4, 8),
    }


def _default_weyl_grids():
    return {
        "torus:1": tuple(range(10, 101, 5)),
        "torus:2": tuple(range(10, 61, 5)),
        "torus:3": tuple(range(10, 41, 5)),
        "su2": tuple(range(10, 41, 5)),
    }


SUITES = (
    "nikolskii",
    "sharpness",
    "hausdorff-young",
    "weyl",
    "corollary",
    "embeddings",
    "wiener-chain",
    "all",
)


@dataclass
class RunConfig:
    """Everything a verification run depends on; embedded in every report."""

    suite: str = "all"
    groups: tuple = ("torus:1", "torus:2", "su2")
    seed: int = 7
    corpus_count: int = 6
    profile: str = "dense_gaussian"
    bandlimits: dict = field(default_factory=_default_bandlimits)
    p_grid: tuple = (1.0, 1.5, 2.0, 3.0, 4.0)
    q_grid: tuple = (2.0, 3.0, 4.0, INF)
    hy_p_grid: tuple = (1.0, 4.0 / 3.0, 2.0)
    sharpness_L: tuple = (2.0, 4.0, 8.0)
    dirichlet_grids: dict = field(default_factory=_default_dirichlet_grids)
    weyl_grids: dict = field(default_factory=_default_weyl_grids)
    weyl_slope_tol: dict = field(
        default_factory=lambda: {"torus:1": 0.05, "torus:2": 0.1, "torus:3": 0.15, "su2": 0.2}
    )
    corollary_L: tuple = tuple(range(2, 33, 2))
    betas: tuple = (0.5, 1.0, 2.0)
    r_grid: tuple = (-1.0, 0.5, 2.0)
    tol_exact: float = TOL_EXACT
    tol_grid: float = TOL_GRID
    tol_identity: float = TOL_IDENTITY
    slope_max: float = SLOPE_MAX
    support_threshold: float = SUPPORT_THRESHOLD
    max_nodes: int | None = None
    out: str | None = None

    def to_dict(self) -> dict:
        return {
            f.name: _json_safe(getattr(self, f.name)) for f in fields(self) if f.name != "out"
        }


def _config_groups(cfg: RunConfig) -> list[GroupId]:
    return [parse_group(g) for g in cfg.groups]


def _corpus_for(cfg: RunConfig, group: GroupId, profile: str | None = None) -> Corpus:
    return make_corpus(
        group,
        cfg.bandlimits[str(group)],
        cfg.corpus_count,
        cfg.seed,
        profile or cfg.profile,
    )


def nikolskii_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = []
    for group in _config_groups(cfg):
        corpus = _corpus_for(cfg, group)
        L = corpus.bandlimit
        pairs = [
            (p, q) for p in cfg.p_grid for q in cfg.q_grid if p < q
        ]
        exponents = sorted({x for pq in pairs for x in pq})
        for idx, T in enumerate(corpus.functions):
            if not T:
                continue
            norms = lp_norms(T, exponents, cfg.max_nodes)
            counts = {
                rho: _support_counts(T, rho, cfg.support_threshold, cfg.max_nodes)
                for rho in sorted({rho_of(p) for p, _ in pairs})
            }
            for p, q in pairs:
                inst = {"fn": idx, "seed": cfg.seed, "profile": corpus.profile, "L": L}
                rep = nikolskii_check(
                    T, p, q, tol=cfg.tol_grid, threshold=cfg.support_threshold,
                    max_nodes=cfg.max_nodes, _norms=norms,
                    _counts=counts[rho_of(p)], instance=inst,
                )
                remark = nikolskii_remark_check(
                    T, p, q, L, tol=cfg.tol_grid, max_nodes=cfg.max_nodes,
                    _norms=norms, instance=inst,
                )
                dom = _report(
                    "nikolskii-remark-dominance",
                    "nikolskii",
                    {**_json_safe(inst), "group": str(group), "p": p, "q": q},
                    rep.rhs,
                    remark.rhs,
                    0.0,
                    notes="remark bound must dominate the support bound",
                )
                cts = counts[rho_of(p)]
                verdicts = set()
                for key in ("count", "count_x10", "count_d10"):
                    expo = 1.0 / p - 1.0 / q
                    rhs_alt = cts[key] ** expo * norms[p][0]
                    verdicts.add(rep.lhs <= rhs_alt * (1.0 + cfg.tol_grid))
                sens = _report(
                    "nikolskii-sensitivity-stable",
                    "nikolskii",
                    {**_json_safe(inst), "group": str(group), "p": p, "q": q},
                    float(len(verdicts) - 1),
                    0.5,
                    0.0,
                    notes=f"counts {cts}",
                )
                reports.extend([rep, remark, dom, sens])
    return reports


def sharpness_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = []
    for group in _config_groups(cfg):
        for L in cfg.sharpness_L:
            reports.extend(
                sharpness_check(group, float(L), cfg.tol_exact, cfg.max_nodes)
            )
    return reports


def hausdorff_young_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = []
    for group in _config_groups(cfg):
        corpus = _corpus_for(cfg, group)
        exps = set()
        for p in cfg.hy_p_grid:
            exps.add(p)
            exps.add(_conjugate(p))
        exps.add(2.0)
        for idx, F in enumerate(corpus.functions):
            if not F:
                continue
            inst = {"fn": idx, "seed": cfg.seed, "profile": corpus.profile}
            norms = lp_norms(F, sorted(exps), cfg.max_nodes)
            reports.append(
                plancherel_check(F, cfg.tol_exact, cfg.max_nodes, instance=inst)
            )
            for p in cfg.hy_p_grid:
                reports.extend(
                    hausdorff_young_checks(
                        F, p, cfg.tol_exact, cfg.max_nodes, instance=inst, _norms=norms
                    )
                )
    return reports


def weyl_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = []
    for group in _config_groups(cfg):
        key = str(group)
        grid = cfg.weyl_grids[key]
        slope, intercept, residual = weyl_fit(group, grid)
        inst = {"group": key, "grid": [float(L) for L in grid]}
        reports.append(
            _report(
                "weyl-slope",
                "weyl",
                inst,
                abs(slope - group.dim),
                cfg.weyl_slope_tol[key],
                0.0,
                notes=(
                    f"slope={slope!r} intercept={intercept!r} residual={residual!r} "
                    f"C0~{math.exp(intercept)!r} (empirical; symbol integral out of scope)"
                ),
            )
        )
        if group.kind == "su2":
            n10 = weyl_count(group, 10.0)
            reports.append(
                _report(
                    "weyl-spot-su2",
                    "weyl",
                    {"group": key, "L": 10.0},
                    abs(n10 - 2470),
                    0.5,
                    0.0,
                    notes=f"N(10)={n10}, expected 2470 exactly",
                )
            )
    return reports


def corollary_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = []
    group = parse_group("torus:1")
    grid = [float(L) for L in cfg.corollary_L]
    _require(
        sum(L >= 8.0 for L in grid) >= 2,
        f"corollary grid needs two band limits >= 8, got {grid}",
    )
    # The suite runs on torus:1 whatever the groups; a band override that
    # names other groups only leaves it the default band.
    band = cfg.bandlimits.get("torus:1", _default_bandlimits()["torus:1"])
    corpus = make_corpus(group, band, cfg.corpus_count, cfg.seed, "smooth_decay")
    for idx, F in enumerate(corpus.functions):
        seq, stat = corollary_decay(F, 1.0, INF, grid, cfg.max_nodes)
        values = [a for _, a in seq]
        inst = {"fn": idx, "seed": cfg.seed, "group": "torus:1", "p": 1.0, "q": INF,
                "grid": grid}
        notes = (
            f"a_L={[round(v, 8) for v in values]}; truncated weighted sum={stat!r} "
            "(reported only; infinite sum truncated to the grid)"
        )
        reports.append(
            _report(
                "corollary-decay", "corollary", inst, values[-1], 0.1 * values[0],
                0.0, notes,
            )
        )
        tail_start = next(i for i, (L, _) in enumerate(seq) if L >= 8.0)
        steps = [
            values[i + 1] / values[i] for i in range(tail_start, len(values) - 1)
        ]
        reports.append(
            _report(
                "corollary-monotone", "corollary", inst, max(steps), 1.0, 0.0,
                notes="every step ratio beyond L=8 must stay below 1",
            )
        )
    return reports


def _structural_reports(cfg: RunConfig) -> list[InequalityReport]:
    # Block-level structure: single-block identity, besov/tl agreement at
    # (2,2), besov-vs-sobolev bracketing at p = 2.
    reports = []
    for group in _config_groups(cfg):
        corpus = _corpus_for(cfg, group)
        for idx, F in enumerate(corpus.functions[: min(3, len(corpus.functions))]):
            inst = {"fn": idx, "seed": cfg.seed, "group": str(group)}
            blocks = dyadic_blocks(F)
            if blocks:
                s, block = sorted(blocks.items())[-1]
                for q in (1.0, 2.0, INF):
                    lhs = besov_norm(block, 0.75, 2.0, q, cfg.max_nodes)
                    rhs = 2.0 ** (s * 0.75) * lp_norm(block, 2.0, cfg.max_nodes)
                    reports.append(
                        _report(
                            "besov-single-block", "embeddings",
                            {**inst, "s": s, "q": q, "r": 0.75, "p": 2.0},
                            abs(lhs - rhs), cfg.tol_exact * max(rhs, 1e-300), 0.0,
                        )
                    )
            for r in cfg.r_grid:
                a = tl_norm(F, r, 2.0, 2.0, cfg.max_nodes)
                b = besov_norm(F, r, 2.0, 2.0, cfg.max_nodes)
                reports.append(
                    _report(
                        "besov-tl-equality", "embeddings", {**inst, "r": r},
                        abs(a - b), cfg.tol_exact * max(b, 1e-300), 0.0,
                    )
                )
                ratio = b / sobolev_norm(F, r, 2.0, cfg.max_nodes)
                lo = 2.0 ** -abs(r)
                hi = 2.0 ** abs(r)
                reports.append(
                    _report(
                        "besov-sobolev-bracket-upper", "embeddings",
                        {**inst, "r": r}, ratio, hi * (1.0 + cfg.tol_grid), 0.0,
                    )
                )
                reports.append(
                    _report(
                        "besov-sobolev-bracket-lower", "embeddings",
                        {**inst, "r": r}, lo * (1.0 - cfg.tol_grid), ratio, 0.0,
                    )
                )
    return reports


def _embedding_pairs(group: GroupId) -> list[EmbeddingPair]:
    n = group.dim
    pairs = [
        besov_besov_pair(group, 1.0, 2.0, 2.0, r1=1.0),
        besov_besov_pair(group, 2.0, 4.0, 1.0, r1=n),
        besov_lq_pair(group, 2.0, 4.0),
        besov_lq_pair(group, 1.5, 3.0),
        besov_linf_pair(group, 1.0),
        besov_linf_pair(group, 2.0),
    ]
    pairs += tl_sandwich_pairs(group, 0.5, 2.0, 4.0)
    pairs += tl_sandwich_pairs(group, 0.5, 2.0, 1.0)
    return pairs


def _wiener_chain_pairs(group: GroupId) -> list[EmbeddingPair]:
    n = group.dim
    pairs = [
        wiener_besov_pair(group, float(n), 2.0, "into-wiener"),
        wiener_besov_pair(group, 2.0 * n, 1.5, "into-wiener"),
        wiener_besov_pair(group, float(n), 2.0, "from-wiener"),
        wiener_besov_pair(group, float(n), 3.0, "from-wiener"),
    ]
    for beta in (1.0, 2.0):
        pairs += beurling_pairs(group, beta, 2.0)
        pairs += beurling_pairs(group, beta, 3.0)
        pairs += chain_pairs(group, beta)
    return pairs


def _family_reports(
    cfg: RunConfig, group: GroupId, suite: str, pairs_of, corpus: Corpus | None = None
) -> list[InequalityReport]:
    # Each pair of pairs_of(group) over the Dirichlet scaling family, then over
    # the corpus.  The families run on the tori; su2 is covered by sharpness.
    if group.kind == "su2":
        return []
    pairs = pairs_of(group)
    reports = embedding_suite(
        group, "dirichlet", pairs, L_grid=cfg.dirichlet_grids[str(group)],
        slope_max=cfg.slope_max, max_nodes=cfg.max_nodes, suite=suite,
    )
    return reports + embedding_suite(
        group, "corpus", pairs, corpus=corpus or _corpus_for(cfg, group),
        max_nodes=cfg.max_nodes, suite=suite,
    )


def embeddings_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = _structural_reports(cfg)
    for group in _config_groups(cfg):
        reports.extend(_family_reports(cfg, group, "embeddings", _embedding_pairs))
    return reports


def wiener_chain_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = []
    for group in _config_groups(cfg):
        n = group.dim
        corpus = _corpus_for(cfg, group)
        # equality face of the chain at beta = 2: wiener = besov(0,2,2) = L2
        for idx, F in enumerate(corpus.functions):
            if not F:
                continue
            inst = {"fn": idx, "seed": cfg.seed, "group": str(group), "beta": 2.0}
            a = seq_lp_norm(F, 2.0)
            b = besov_norm(F, n * (1.0 / 2.0 - 0.5), 2.0, 2.0, cfg.max_nodes)
            c = lp_norm(F, 2.0, cfg.max_nodes)
            reports.append(
                _report(
                    "chain-equality-wiener-besov", "wiener-chain", inst,
                    abs(a - b), cfg.tol_exact * max(a, 1e-300), 0.0,
                )
            )
            reports.append(
                _report(
                    "chain-equality-besov-l2", "wiener-chain", inst,
                    abs(b - c), cfg.tol_exact * max(c, 1e-300), 0.0,
                )
            )
            for beta in cfg.betas:
                av = beurling_norm(F, beta)
                rv = beurling_r_norm(F, 1.0 / beta, beta)
                reports.append(
                    _report(
                        "beurling-identity", "wiener-chain",
                        {**inst, "beta": beta, "r": 1.0 / beta},
                        abs(av - rv), cfg.tol_identity * max(av, 1e-300), 0.0,
                    )
                )
        reports.extend(
            _family_reports(cfg, group, "wiener-chain", _wiener_chain_pairs, corpus)
        )
    return reports


_SUITE_RUNNERS = {
    "nikolskii": nikolskii_suite_reports,
    "sharpness": sharpness_suite_reports,
    "hausdorff-young": hausdorff_young_suite_reports,
    "weyl": weyl_suite_reports,
    "corollary": corollary_suite_reports,
    "embeddings": embeddings_suite_reports,
    "wiener-chain": wiener_chain_suite_reports,
}


def run_suite(suite: str, cfg: RunConfig) -> list[InequalityReport]:
    """Run one named suite (or all of them, in canonical order)."""
    if suite == "all":
        reports = []
        for name in (
            "sharpness", "nikolskii", "hausdorff-young", "weyl", "corollary",
            "embeddings", "wiener-chain",
        ):
            reports.extend(_SUITE_RUNNERS[name](cfg))
        return reports
    if suite not in _SUITE_RUNNERS:
        raise DomainError(f"unknown suite {suite!r} (choices {SUITES})")
    return _SUITE_RUNNERS[suite](cfg)


def summarize(reports: list[InequalityReport]) -> dict[str, tuple[int, int]]:
    """Pass/fail counts keyed by suite, in canonical order."""
    out: dict[str, list[int]] = {}
    for rep in reports:
        slot = out.setdefault(rep.suite, [0, 0])
        slot[0 if rep.holds else 1] += 1
    return {k: (v[0], v[1]) for k, v in sorted(out.items())}


def render_report(reports: list[InequalityReport], cfg: RunConfig) -> str:
    """Line-delimited records plus a human summary; byte-stable per config."""
    lines = [
        "# peterweyl report v1",
        f"# package peterweyl {__version__}",
        "# config " + json.dumps(cfg.to_dict(), sort_keys=True),
    ]
    for rep in reports:
        lines.append(json.dumps(rep.to_record(), sort_keys=True))
    total_pass = sum(1 for r in reports if r.holds)
    total_fail = len(reports) - total_pass
    for suite, (npass, nfail) in summarize(reports).items():
        lines.append(f"# summary {suite}: pass={npass} fail={nfail}")
    lines.append(f"# overall: pass={total_pass} fail={total_fail}")
    return "\n".join(lines) + "\n"
