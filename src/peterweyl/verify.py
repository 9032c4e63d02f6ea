"""Inequality checkers and experiment drivers.

Every checked statement is reduced to one or more InequalityReport records
with the uniform convention

    holds  <=>  lhs / rhs <= 1 + tol      (_verdict).

Plain inequality checks put the two sides in lhs and rhs directly.  Equality
and statistic checks are encoded in the same shape: |a - b| against tol
times the scale b (_equality), |slope - n| against a band, a deviation
count against 1/2.
The notes field carries whatever provenance matters for audit: grid
certification flags, support-count threshold sensitivity, truncation
caveats.

Embedding theorems assert inequalities up to unspecified constants, which a
single evaluation cannot falsify.  They are operationalized as
non-divergence: along a canonical scaling family (Dirichlet kernels of
growing band) the least-squares slope of log(ratio) against log(L) must stay
below 0.1, and on random corpora every ratio must be finite.  Member records
for constant-bound claims therefore carry tol = inf (finiteness is the
check); the slope record is the quantitative gate.  Every member reads the
upper end of its ratio's enclosure, whose ends and certification close its
notes: a corpus member's from norm_enclosure bounds, a Dirichlet member's
from norm_info values (points, lo == hi, on these kernels), which the slope
fits and whose certification its notes name.  Lebesgue records and every
family member are decided by one rule (_settled): on norms.Enclosure bounds
first, else on norm_info values, which a Dirichlet member's bounds are.

Default tolerances: 1e-9 where quadrature is exact, 1e-6 where dyadic grid
refinement is involved, 1e-12 for algebraic identities.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from itertools import repeat

import numpy as np

from . import __version__
from .groups import (
    MAX_DUAL_ENTRIES,
    WEIGHT_SQ_DEN,
    DomainError,
    GroupId,
    ResourceLimitError,
    band_budget,
    check_node_cap,
    dual_size,
    parse_group,
    weyl_count,
)
from .fourier import (
    SUPPORT_THRESHOLD,
    SpectralFunction,
    check_threshold,
    dirichlet,
    partial_sum,
    pointwise_power,
    support_count,
)
from .norms import (
    INF,
    Enclosure,
    NormSpec,
    _FAMILY_KEYS,
    _prefetch,
    besov_norm,
    beurling_norm,
    beurling_r_norm,
    dyadic_blocks,
    lp_enclosures,
    lp_norm,
    norm_enclosure,
    norm_info,
    seq_lp_norm,
    sobolev_norm,
    tl_norm,
    weakest,
)

TOL_EXACT = 1e-9
TOL_GRID = 1e-6
TOL_IDENTITY = 1e-12
SLOPE_MAX = 0.1


@dataclass(frozen=True)
class InequalityReport:
    """One checked inequality instance, serializable as a single record.

    instance holds plain values (q = inf stays a float); to_record makes
    the JSON form, once per record.  ratio and holds follow from lhs, rhs
    and tol (_verdict) when the record is built.
    """

    name: str
    suite: str
    instance: dict
    lhs: float
    rhs: float
    tol: float
    notes: str = ""
    ratio: float = field(init=False)
    holds: bool = field(init=False)

    def __post_init__(self):
        ratio, holds = _verdict(float(self.lhs), float(self.rhs), self.tol)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "holds", holds)

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "suite": self.suite,
            "instance": _json_safe(self.instance),
            "lhs": _json_safe(float(self.lhs)),
            "rhs": _json_safe(float(self.rhs)),
            "ratio": _json_safe(float(self.ratio)),
            "holds": self.holds,
            "tol": _json_safe(float(self.tol)),
            "notes": self.notes,
        }


def _json_safe(v):
    # JSON form of a report value.  JSON has no inf or nan, so non-finite
    # floats become their repr strings; tuples become lists, recursively.
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return [_json_safe(x) for x in v]
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    return v


def _verdict(lhs: float, rhs: float, tol: float) -> tuple[float, bool]:
    # The one holds rule: (lhs / rhs, whether it is finite and <= 1 + tol).
    # 0 / 0 is 1; a positive lhs over 0, or an infinite lhs, is inf and
    # fails; tol = inf checks finiteness only.
    if rhs > 0 and math.isfinite(lhs):
        ratio = lhs / rhs
    elif lhs == 0.0 and rhs == 0.0:
        ratio = 1.0
    else:
        ratio = math.inf
    return ratio, math.isfinite(ratio) and ratio <= 1.0 + tol


def _equality(name, suite, instance, a, b, tol, notes="") -> InequalityReport:
    # An exact equality a = b: |a - b| against tol times the scale b.
    return InequalityReport(name, suite, instance, abs(a - b), tol * max(b, 1e-300), 0.0, notes)


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
    # T^1 is T: its support is counted from its own coefficients.
    raw = T if rho == 1 else pointwise_power(T, rho, threshold=0.0, max_nodes=max_nodes)
    return {
        "count": support_count(raw, threshold),
        "count_x10": support_count(raw, threshold * 10.0),
        "count_d10": support_count(raw, threshold / 10.0),
    }


def _note(side: str, e: Enclosure) -> str:
    # How a Lebesgue norm on this side (an lhs reads e.hi, an rhs e.lo) was
    # had: a point from a grid (exact, or a refined or capped stop-rule
    # value) by its grid's word, any other by its enclosure [lo, hi].
    if e.lo == e.hi and e.certified in ("exact", "refined", "capped"):
        return f"{side} grid {e.certified}"
    return f"{side} {e.certified} [{e.lo!r}, {e.hi!r}]"


def _settled(records_of, bounds, values):
    """The records of one instance: records_of(bounds), on the norms'
    Enclosures, when all hold, else records_of(values()), on norm_info
    values, so an enclosure never fails a verdict that holds on values."""
    records = records_of(bounds)
    if all(rep.holds for rep in records):
        return records
    return records_of(values())


def _lp_values(F: SpectralFunction, ps, max_nodes):
    # The fallback of a Lebesgue instance: each exponent's norm_info value.
    return lambda: {p: norm_info(F, NormSpec("Lp", p=p), max_nodes) for p in ps}


def _support_factor(count: int, p: float, q: float) -> float:
    # count^(1/p - 1/q), the Nikolskii constant of a support of count.
    try:
        factor = count ** (1.0 / p - 1.0 / q)
    except OverflowError:
        factor = INF
    if factor == INF:
        raise DomainError(f"support factor {count}^(1/{p:g} - 1/{q:g}) leaves float range")
    return factor


def _nikolskii(T, p, q, norms, counts, tol, suite, instance) -> InequalityReport:
    # The support-bound record of one instance, from one norms dict.
    rhs = _support_factor(counts["count"], p, q) * norms[p].lo
    inst = {**instance, "group": str(T.group), "p": p, "q": q, "rho": rho_of(p)}
    notes = (
        f"support={counts['count']} (x10 -> {counts['count_x10']}, "
        f"x0.1 -> {counts['count_d10']}); "
        f"{_note('lhs', norms[q])}, {_note('rhs', norms[p])}"
    )
    return InequalityReport("nikolskii", suite, inst, norms[q].hi, rhs, tol, notes)


def nikolskii_check(
    T: SpectralFunction,
    p: float,
    q: float,
    tol: float = TOL_GRID,
    threshold: float = SUPPORT_THRESHOLD,
    max_nodes: int | None = None,
) -> InequalityReport:
    """Norm comparison with the spectral-support constant.

    lhs = ||T||_q, the upper end of its enclosure, rhs = (sum of d^2 over
    the support of the rho-th power's coefficients)^(1/p - 1/q) * ||T||_p,
    the lower end of its enclosure; from norm_info values instead when that
    fails (_settled).  The support count and its sensitivity to threshold
    x10 / x0.1 ride along in the notes.  threshold lies in [0, 1]: above 1
    no coefficient is kept.
    """
    _require(0 < p < q <= INF, f"need 0 < p < q <= inf, got p={p}, q={q}")
    check_threshold(threshold)
    _require(threshold <= 1.0, f"support threshold must lie in [0, 1], got {threshold!r}")
    counts = _support_counts(T, rho_of(p), threshold, max_nodes)
    return _settled(lambda norms: [_nikolskii(T, p, q, norms, counts, tol, "nikolskii", {})],
                    lp_enclosures(T, [p, q], max_nodes), _lp_values(T, [p, q], max_nodes))[0]


def _remark(T, p, q, L, n_of, norms, tol, instance) -> InequalityReport:
    # The remark-bound record of one instance, from one norms dict; n_of[rho]
    # is weyl_count(T.group, rho * L), n_of[1] = N(L).
    rho = rho_of(p)
    rhs = _support_factor(n_of[rho], p, q) * norms[p].lo
    inst = {**instance, "group": str(T.group), "p": p, "q": q, "rho": rho, "L": L}
    notes = f"N(rho*L)={n_of[rho]}; N(L)={n_of[1]}; {_note('lhs', norms[q])}"
    return InequalityReport("nikolskii-remark", "nikolskii", inst, norms[q].hi, rhs, tol, notes)


def nikolskii_remark_check(
    T: SpectralFunction,
    p: float,
    q: float,
    L: float,
    tol: float = TOL_GRID,
    max_nodes: int | None = None,
    instance: dict | None = None,
) -> InequalityReport:
    """Coarser bound using the full counting function N(rho L).

    Requires the support of T to sit inside weight <= L; the notes record
    the chain support-count <= N(L) <= N(rho L).  Sides as in
    nikolskii_check.
    """
    _require(0 < p < q <= INF, f"need 0 < p < q <= inf, got p={p}, q={q}")
    if T.wsq.max(initial=0) > band_budget(L):
        raise DomainError(f"support of T exceeds the stated band L={L}")
    n_of = {rho: weyl_count(T.group, rho * L) for rho in {1, rho_of(p)}}
    return _settled(lambda norms: [_remark(T, p, q, L, n_of, norms, tol, instance or {})],
                    lp_enclosures(T, [p, q], max_nodes), _lp_values(T, [p, q], max_nodes))[0]


def sharpness_check(
    group: GroupId, L: float, tol: float = TOL_EXACT, max_nodes: int | None = None
) -> list[InequalityReport]:
    """Equality case: T = Dirichlet kernel, p = 2, q = inf, ratio must be 1."""
    rep = nikolskii_check(dirichlet(group, L), 2.0, INF, tol=tol, max_nodes=max_nodes)
    rep = replace(rep, name="nikolskii-sharpness", suite="sharpness",
                  instance={"L": L, "T": "dirichlet", **rep.instance})
    eq = _equality(
        "nikolskii-sharpness-equality", "sharpness",
        {"group": str(group), "L": L, "p": 2.0, "q": "inf"},
        rep.ratio, 1.0, tol, notes=f"ratio={rep.ratio!r}",
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


def _hausdorff_young(F, p, pp, norms, tol, instance) -> list[InequalityReport]:
    # Both records of one exponent, from one norms dict.
    inst = {**instance, "group": str(F.group), "p": p, "p_conj": pp}
    coeff = InequalityReport("hy-coefficient", "hausdorff-young", inst, seq_lp_norm(F, pp),
                             norms[p].lo, tol, notes=_note("rhs", norms[p]))
    func = InequalityReport("hy-function", "hausdorff-young", inst, norms[pp].hi,
                            seq_lp_norm(F, p), tol, notes=_note("lhs", norms[pp]))
    return [coeff, func]


def _hy_exponent(p: float) -> float:
    # The conjugate of a Hausdorff-Young exponent, which must lie in [1, 2].
    _require(1 <= p <= 2, f"Hausdorff-Young needs 1 <= p <= 2, got {p}")
    return _conjugate(p)


def hausdorff_young_checks(
    F: SpectralFunction,
    p: float,
    tol: float = TOL_EXACT,
    max_nodes: int | None = None,
    instance: dict | None = None,
) -> list[InequalityReport]:
    """Both directions at one exponent 1 <= p <= 2 (p' conjugate).

    The function norm on the rhs is the lower end of its enclosure and the
    one on the lhs the upper end; both records come from norm_info values
    when either fails on the enclosures (_settled).
    """
    pp = _hy_exponent(p)
    return _settled(lambda norms: _hausdorff_young(F, p, pp, norms, tol, instance or {}),
                    lp_enclosures(F, [p, pp], max_nodes), _lp_values(F, [p, pp], max_nodes))


def plancherel_check(
    F: SpectralFunction,
    tol: float = TOL_EXACT,
    max_nodes: int | None = None,
    instance: dict | None = None,
) -> InequalityReport:
    a = lp_norm(F, 2.0, max_nodes)
    b = seq_lp_norm(F, 2.0)
    inst = {**(instance or {}), "group": str(F.group)}
    return _equality("plancherel", "hausdorff-young", inst, a, b, tol,
                     notes=f"l2={a!r} seq2={b!r}")


# ---------------------------------------------------------------------------
# Partial-sum decay (the o(1) consequence)

# Terms of the weighted sum built per numpy pass (0.5 MB of floats).
_SUM_CHUNK = 1 << 16


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
    return corollary_decays([F], p, q, L_grid, max_nodes)[0]


def corollary_decays(
    functions, p: float, q: float, L_grid, max_nodes: int | None = None
) -> list[tuple[list[tuple[float, float]], float]]:
    """corollary_decay of each function, all on one group and grid.

    The weighted sums share their terms k^expo, which depend only on (p, q)
    and the counts N(L): each chunk of them is computed once, and every
    function's sum accumulates from it as one row, in the order a loop
    over k would add them.
    """
    if not (1 <= p < q <= INF):
        raise DomainError(f"need 1 <= p < q <= inf, got p={p}, q={q}")
    inv_q = 1.0 / q
    if not (1.0 / p > inv_q + 0.5):
        raise DomainError(
            f"decay requires 1/p > 1/q + 1/2, got p={p}, q={q}"
        )
    functions, L_grid = list(functions), list(L_grid)
    _require(len(L_grid) > 0, "L_grid must hold at least one band limit, got none")
    if not functions:
        return []
    if len({F.group for F in functions}) > 1:
        raise DomainError("the functions of one weighted sum must share a group")
    n_ls = [weyl_count(functions[0].group, L) for L in L_grid]
    counts = sorted(set(n_ls))
    if counts[-1] > MAX_DUAL_ENTRIES:
        raise ResourceLimitError(f"weighted sum past {MAX_DUAL_ENTRIES} terms N(L) (the cap)")
    seqs, sups = [], []  # per function: a_L over the grid, and {N(L): largest ||S_L f||_q / N(L)}
    for F in functions:
        seq, sup = [], {}
        for L, n_l in zip(L_grid, n_ls):
            nq = lp_norm(partial_sum(F, L), q, max_nodes)
            seq.append((float(L), n_l ** (inv_q - 1.0 / p) * nq))
            sup[n_l] = max(sup.get(n_l, -INF), nq / n_l)
        seqs.append(seq)
        sups.append(sup)
    expo = (1.0 - 1.0 / p + inv_q) * p - 1.0
    stats, start = np.zeros(len(seqs)), 1
    for i, n in enumerate(counts):
        # the sup over N(L) >= k, for k in [start, n], to the power p
        peaks_p = np.array([max(sup[c] for c in counts[i:]) ** p for sup in sups])
        for lo in range(start, n + 1, _SUM_CHUNK):
            hi = min(lo + _SUM_CHUNK, n + 1)
            # k^expo from the platform pow, as Python's ** computes it (numpy's
            # vectorized power differs in the last bit), then each function's
            # terms added one at a time after its running total.
            powers = np.fromiter(map(math.pow, range(lo, hi), repeat(expo)), float, hi - lo)
            terms = np.multiply.outer(peaks_p, powers)
            terms[:, 0] += stats
            stats = np.add.accumulate(terms, axis=1, out=terms)[:, -1].copy()
        start = n + 1
    return [(seq, float(stat) ** (1.0 / p)) for seq, stat in zip(seqs, stats)]


# ---------------------------------------------------------------------------
# Embeddings


@dataclass(frozen=True)
class EmbeddingPair:
    """Source space embeds into target space: ||f||_target <= C ||f||_source.

    label, which names the pair's records in reports, follows from the two
    specs when the pair is built: source first, as source->target, each
    spec named by _spec_name, e.g. besov(0.25,2,4)->L4.
    """

    target: NormSpec
    source: NormSpec
    notes: str = ""
    label: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "label", f"{_spec_name(self.source)}->{_spec_name(self.target)}")


def _spec_name(spec: NormSpec) -> str:
    # L{p} for Lebesgue (Linf at p = inf), else family(params): the family's
    # parameters in the grammar's order, each with :g.
    params = ",".join(f"{getattr(spec, key):g}" for key in _FAMILY_KEYS[spec.family])
    return f"L{params}" if spec.family == "Lp" else f"{spec.family}({params})"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def besov_besov_pair(group: GroupId, p1: float, p2: float, q: float, r1: float) -> EmbeddingPair:
    """Smoothness-for-integrability trade: r2 = r1 - n (1/p1 - 1/p2)."""
    _require(0 < p1 <= p2 <= INF, f"need 0 < p1 <= p2 <= inf, got {p1}, {p2}")
    _require(0 < q <= INF, f"need 0 < q <= inf, got {q}")
    return EmbeddingPair(
        target=NormSpec("besov", r=r1 - group.dim * (1.0 / p1 - 1.0 / p2), p=p2, q=q),
        source=NormSpec("besov", r=r1, p=p1, q=q),
    )


def besov_lq_pair(group: GroupId, p: float, q: float, r: float | None = None) -> EmbeddingPair:
    """Besov into Lebesgue at the critical smoothness r = n (1/p - 1/q)."""
    _require(1 < p < q < INF, f"need 1 < p < q < inf, got {p}, {q}")
    derived = group.dim * (1.0 / p - 1.0 / q)
    if r is not None and not abs(r - derived) <= 1e-12:  # nan fails too
        raise DomainError(
            f"exponent relation violated: r must be n(1/p - 1/q) = {derived}, got {r}"
        )
    return EmbeddingPair(target=NormSpec("Lp", p=q), source=NormSpec("besov", r=derived, p=p, q=q))


def besov_linf_pair(group: GroupId, p: float) -> EmbeddingPair:
    """Critical summability into the sup norm: B^{n/p}_{p,1} -> L^inf."""
    _require(0 < p <= INF, f"need 0 < p <= inf, got {p}")
    return EmbeddingPair(target=NormSpec("Lp", p=INF),
                         source=NormSpec("besov", r=group.dim / p, p=p, q=1.0))


def tl_sandwich_pairs(group: GroupId, r: float, p: float, q: float) -> list[EmbeddingPair]:
    """Both faces of B_{p,min(p,q)} -> F_{p,q} -> B_{p,max(p,q)}."""
    _require(0 < p < INF, f"need 0 < p < inf, got {p}")
    _require(0 < q <= INF, f"need 0 < q <= inf, got {q}")
    tl = NormSpec("tl", r=r, p=p, q=q)
    return [
        EmbeddingPair(target=tl, source=NormSpec("besov", r=r, p=p, q=min(p, q))),
        EmbeddingPair(target=NormSpec("besov", r=r, p=p, q=max(p, q)), source=tl),
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
    into = direction == "into-wiener"
    if into:
        _require(1 < p <= 2, f"into-wiener needs 1 < p <= 2, got {p}")
    elif direction == "from-wiener":
        _require(2 <= p < INF, f"from-wiener needs 2 <= p < inf, got {p}")
    else:
        raise DomainError(f"direction must be into-wiener or from-wiener, got {direction!r}")
    wiener, besov = NormSpec("wiener", beta=beta), NormSpec("besov", r=alpha, p=p, q=beta)
    target, source = (wiener, besov) if into else (besov, wiener)
    return EmbeddingPair(target, source)


def beurling_pairs(group: GroupId, beta: float, p: float) -> list[EmbeddingPair]:
    """Both beurling-space comparisons at p >= 2, 0 < beta < inf.

    The left Besov smoothness n(1/beta - 1/p') can be negative for large p;
    such instances are flagged in the pair notes.
    """
    _require(p >= 2, f"need p >= 2, got {p}")
    _require(0 < beta < INF, f"need 0 < beta < inf, got {beta}")
    n = group.dim
    r_left = n * (1.0 / beta - 1.0 / _conjugate(p))
    beurling = NormSpec("beurling", beta=beta)
    return [
        EmbeddingPair(target=NormSpec("besov", r=r_left, p=p, q=beta), source=beurling,
                      notes="negative smoothness" if r_left < 0 else ""),
        EmbeddingPair(target=beurling, source=NormSpec("besov", r=n / beta, p=1.0, q=beta)),
    ]


def chain_pairs(group: GroupId, beta: float) -> list[EmbeddingPair]:
    """The consequence chain: wiener <= C besov(2, beta) <= C beurling."""
    _require(0 < beta < INF, f"need 0 < beta < inf, got {beta}")
    mid = NormSpec("besov", r=group.dim * (1.0 / beta - 0.5), p=2.0, q=beta)
    return [
        EmbeddingPair(target=NormSpec("wiener", beta=beta), source=mid),
        EmbeddingPair(target=mid, source=NormSpec("beurling", beta=beta)),
    ]


def embedding_suite(
    group: GroupId,
    family: str,
    pairs: list[EmbeddingPair],
    L_grid=None,
    corpus=None,
    max_nodes: int | None = None,
    suite: str = "embeddings",
) -> list[InequalityReport]:
    """Ratios of each pair along a family, plus a slope record per pair.

    Each member's lhs is the upper end of its ratio's enclosure (_member),
    settled by _settled on the family's bounds, else on norm_info values.
    family "dirichlet" scales Dirichlet kernels over L_grid, at least two
    strictly increasing band limits; its bounds are those values, points on
    these kernels, and the slope fits their ratios.  Each member's ladders
    run first, in one sweep over all its specs (_prefetch), so they share
    their grids.
    family "corpus" checks finiteness on the corpus functions, on
    norm_enclosure bounds.
    """
    if family == "dirichlet":
        _require(L_grid is not None, "family 'dirichlet' needs L_grid, got None")
        grid = [float(L) for L in L_grid]
        _require(len(grid) >= 2 and all(a < b for a, b in zip(grid, grid[1:])),
                 f"degenerate grid: need >= 2 strictly increasing band limits, got {grid}")
        members = [(f"L={L:g}", dirichlet(group, L)) for L in L_grid]
        # The records below read these values from the memo through
        # norm_info, and raise a failure where the spec that reads it comes.
        specs = [s for pair in pairs for s in (pair.target, pair.source)]
        for _, func in members:
            _prefetch(func, specs, max_nodes)
    elif family == "corpus":
        _require(corpus is not None, "family 'corpus' needs corpus, got None")
        members = [(f"fn={i}", f) for i, f in enumerate(corpus.functions)]
    else:
        raise DomainError(f"unknown family {family!r}")
    bound = norm_info if family == "dirichlet" else norm_enclosure
    reports = []
    for pair in pairs:
        notes = ((pair.notes + "; " if pair.notes else "")
                 + "constant-bound claim: finiteness checked here, growth by slope record")
        specs = (pair.target, pair.source)
        rows, parts = [], []
        for label, func in members:
            inst = {"group": str(group), "pair": pair.label, "family": family, "member": label}
            record = lambda norms: [_member(pair, suite, inst, notes, *norms)]
            bounds = [bound(func, s, max_nodes) for s in specs]
            parts += bounds
            rows += _settled(record, bounds, lambda: [norm_info(func, s, max_nodes) for s in specs])
        reports += rows
        if family == "dirichlet":
            ratios = [rep.lhs for rep in rows]
            slope = float(np.polyfit(np.log(grid), np.log(np.asarray(ratios)), 1)[0])
            inst = {"group": str(group), "pair": pair.label, "family": family, "grid": grid}
            reports.append(InequalityReport(
                f"embedding-slope:{pair.label}", suite, inst, slope, SLOPE_MAX, 0.0,
                f"ratios={[round(r, 6) for r in ratios]}; members {weakest(parts)[0]}"))
    return reports


def _member(pair: EmbeddingPair, suite, inst, notes, t: Enclosure, s: Enclosure):
    # A family member's record from Enclosures t and s of its target and
    # source norms: lhs t.hi / s.lo (inf where s.lo = 0), the upper end of
    # the ratio's enclosure, which closes the notes with the weaker cert.
    if s.hi == 0.0:
        raise DomainError("embedding ratio undefined for the zero function")
    hi = t.hi / s.lo if s.lo > 0.0 else INF
    return InequalityReport(f"embedding:{pair.label}", suite, inst, hi, 1.0, INF,
                            f"{notes}; ratio {weakest([t, s])[0]} [{t.lo / s.hi!r}, {hi!r}]")


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
    try:
        logs_n = np.log([float(weyl_count(group, L)) for L in grid])
    except OverflowError:
        raise DomainError(f"N(L) on {group} leaves float range over {grid}") from None
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


def _check_corpus_args(count, profile) -> None:
    if not (isinstance(count, numbers.Integral) and count >= 1):
        raise DomainError(f"corpus count must be an integer >= 1, got {count!r}")
    if profile not in PROFILES:
        raise DomainError(f"unknown profile {profile!r} (choices {PROFILES})")


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
    _check_corpus_args(count, profile)
    n = dual_size(group, bandlimit)  # refuses a huge band before counting; d = 1 on tori
    entries = count * (n if group.kind == "torus" else weyl_count(group, bandlimit))
    if entries > MAX_DUAL_ENTRIES:
        raise ResourceLimitError(f"corpus would hold {entries} coefficient entries, "
                                 f"cap is {MAX_DUAL_ENTRIES}")
    kernel = dirichlet(group, bandlimit)
    rng = np.random.default_rng(seed)
    functions = []
    for _ in range(count):
        active = kernel
        if profile == "sparse":
            mask = rng.random(len(kernel.dims)) < 0.1
            if not mask.any():
                mask[int(rng.integers(len(kernel.dims)))] = True
            active = kernel.restricted(mask)
        sizes = np.diff(active.offsets)
        if profile == "smooth_decay":  # d^2 phases per rep
            phases = rng.uniform(0.0, 2.0 * math.pi, size=len(active.entries))
            # exp(-<xi>) by math.exp per rep: np.exp can differ from libm in the last bit
            scale = [math.exp(-math.sqrt(w / WEIGHT_SQ_DEN)) for w in active.wsq.tolist()]
            entries = np.repeat(scale, sizes) * np.exp(1j * phases)
        else:  # d^2 real draws, then d^2 imaginary draws, per rep
            draws = rng.standard_normal(2 * len(active.entries))
            real = np.arange(len(active.entries)) + np.repeat(active.offsets[:-1], sizes)
            entries = (draws[real] + 1j * draws[real + np.repeat(sizes, sizes)]) / math.sqrt(2.0)
        functions.append(SpectralFunction._packed(group, active.index, active.dims,
                                                  active.wsq, entries))
    return Corpus(seed, group, float(bandlimit), profile, tuple(functions))


# ---------------------------------------------------------------------------
# Suite driver


# The per-group defaults of RunConfig's bandlimit and L, and the settings no
# run changes (the Hausdorff-Young exponents, the Weyl slope band of each
# group), which are not in the report header.
BANDLIMITS = {"torus:1": 8.0, "torus:2": 4.0, "torus:3": 3.0, "su2": 2.5}
# The torus families start at L = 4: below that the dyadic block structure
# is degenerate (one or two shells) and the ratios are still transient.
# su2 has none: _family_reports returns early for su2, whose equality case
# the sharpness suite covers.
DIRICHLET_GRIDS = {"torus:1": (4, 8, 16, 32, 64), "torus:2": (4, 8, 16, 32), "torus:3": (4, 8, 16)}
WEYL_GRIDS = {
    "torus:1": tuple(range(10, 101, 5)),
    "torus:2": tuple(range(10, 61, 5)),
    "torus:3": tuple(range(10, 41, 5)),
    "su2": tuple(range(10, 41, 5)),
}
SHARPNESS_L = (2.0, 4.0, 8.0)
COROLLARY_L = tuple(range(2, 33, 2))
HY_P_GRID = (1.0, 4.0 / 3.0, 2.0)
WEYL_SLOPE_TOL = {"torus:1": 0.05, "torus:2": 0.1, "torus:3": 0.15, "su2": 0.2}


@dataclass(frozen=True)
class RunConfig:
    """The settings a verification run takes; embedded in every report.

    groups holds canonical group names.  bandlimit is the corpus band of
    every group and L the grid of the sharpness, Dirichlet, Weyl and
    corollary suites; unset (None, or an empty L) leaves each suite its
    default above.
    """

    suite: str = "all"
    groups: tuple = ("torus:1", "torus:2", "su2")
    seed: int = 7
    corpus_count: int = 6
    profile: str = "dense_gaussian"
    bandlimit: float | None = None
    p_grid: tuple = (1.0, 1.5, 2.0, 3.0, 4.0)
    q_grid: tuple = (2.0, 3.0, 4.0, INF)
    L: tuple | None = None
    betas: tuple = (0.5, 1.0, 2.0)
    r_grid: tuple = (-1.0, 0.5, 2.0)
    tol_exact: float = TOL_EXACT
    tol_grid: float = TOL_GRID
    tol_identity: float = TOL_IDENTITY
    max_nodes: int | None = None

    def __post_init__(self):
        _check_corpus_args(self.corpus_count, self.profile)
        groups = tuple(str(parse_group(g)) for g in self.groups)
        _require(len(set(groups)) == len(groups), f"repeated group in {self.groups}")
        object.__setattr__(self, "groups", groups)

    def to_dict(self) -> dict:
        return {f.name: _json_safe(getattr(self, f.name)) for f in fields(self)}


def _config_groups(cfg: RunConfig) -> list[GroupId]:
    return [parse_group(g) for g in cfg.groups]


def _corpus_for(cfg: RunConfig, group: GroupId) -> Corpus:
    band = BANDLIMITS[str(group)] if cfg.bandlimit is None else cfg.bandlimit
    return make_corpus(group, band, cfg.corpus_count, cfg.seed, cfg.profile)


def nikolskii_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = []
    pairs = [(p, q) for p in cfg.p_grid for q in cfg.q_grid if p < q]
    _require(bool(pairs), f"nikolskii needs a pair p < q, got p {cfg.p_grid}, q {cfg.q_grid}")
    for group in _config_groups(cfg):
        corpus = _corpus_for(cfg, group)
        L = corpus.bandlimit
        exponents = sorted({x for pq in pairs for x in pq})
        n_of = {rho: weyl_count(group, rho * L) for rho in {1} | {rho_of(p) for p, _ in pairs}}
        for idx, T in enumerate(corpus.functions):
            if not T:
                continue
            enclosures = lp_enclosures(T, exponents, cfg.max_nodes)
            counts = {
                rho: _support_counts(T, rho, SUPPORT_THRESHOLD, cfg.max_nodes)
                for rho in sorted({rho_of(p) for p, _ in pairs})
            }
            inst = {"fn": idx, "seed": cfg.seed, "profile": corpus.profile, "L": L}
            for p, q in pairs:
                reports.extend(_settled(
                    lambda norms: _nikolskii_records(T, p, q, L, cfg, counts[rho_of(p)], n_of,
                                                     inst, norms),
                    enclosures, _lp_values(T, [p, q], cfg.max_nodes)))
    return reports


def _nikolskii_records(T, p, q, L, cfg: RunConfig, cts: dict, n_of: dict, inst: dict,
                       norms: dict) -> list[InequalityReport]:
    # The records of one bulk instance, all from one norms dict: the support
    # bound, the remark bound, the dominance of the second over the first
    # and the stability of the verdict over the three support counts.
    rep = _nikolskii(T, p, q, norms, cts, cfg.tol_grid, "nikolskii", inst)
    remark = _remark(T, p, q, L, n_of, norms, cfg.tol_grid, inst)
    pair = {**inst, "group": str(T.group), "p": p, "q": q}
    dom = InequalityReport("nikolskii-remark-dominance", "nikolskii", pair, rep.rhs, remark.rhs,
                           0.0, "remark bound must dominate the support bound")
    verdicts = {_verdict(rep.lhs, _support_factor(cts[key], p, q) * norms[p].lo, cfg.tol_grid)[1]
                for key in ("count", "count_x10", "count_d10")}
    sens = InequalityReport("nikolskii-sensitivity-stable", "nikolskii", pair,
                            float(len(verdicts) - 1), 0.5, 0.0, f"counts {cts}")
    return [rep, remark, dom, sens]


def sharpness_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = []
    for group in _config_groups(cfg):
        for L in cfg.L or SHARPNESS_L:
            reports.extend(
                sharpness_check(group, float(L), cfg.tol_exact, cfg.max_nodes)
            )
    return reports


def hausdorff_young_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = []
    conjugates = [(p, _hy_exponent(p)) for p in HY_P_GRID]
    exps = sorted({2.0, *(x for pp in conjugates for x in pp)})
    for group in _config_groups(cfg):
        corpus = _corpus_for(cfg, group)
        for idx, F in enumerate(corpus.functions):
            if not F:
                continue
            inst = {"fn": idx, "seed": cfg.seed, "profile": corpus.profile}
            enclosures = lp_enclosures(F, exps, cfg.max_nodes)
            reports.append(
                plancherel_check(F, cfg.tol_exact, cfg.max_nodes, instance=inst)
            )
            for p, pp in conjugates:
                reports.extend(_settled(
                    lambda norms: _hausdorff_young(F, p, pp, norms, cfg.tol_exact, inst),
                    enclosures, _lp_values(F, [p, pp], cfg.max_nodes)))
    return reports


def weyl_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = []
    for group in _config_groups(cfg):
        key = str(group)
        grid = cfg.L or WEYL_GRIDS[key]
        slope, intercept, residual = weyl_fit(group, grid)
        inst = {"group": key, "grid": [float(L) for L in grid]}
        notes = (f"slope={slope!r} intercept={intercept!r} residual={residual!r} "
                 f"C0~{math.exp(intercept)!r} (empirical; symbol integral out of scope)")
        reports.append(InequalityReport("weyl-slope", "weyl", inst, abs(slope - group.dim),
                                        WEYL_SLOPE_TOL[key], 0.0, notes))
        if group.kind == "su2":
            n10 = weyl_count(group, 10.0)
            reports.append(InequalityReport("weyl-spot-su2", "weyl", {"group": key, "L": 10.0},
                                            abs(n10 - 2470), 0.5, 0.0,
                                            f"N(10)={n10}, expected 2470 exactly"))
    return reports


def corollary_suite_reports(cfg: RunConfig) -> list[InequalityReport]:
    reports = []
    group = parse_group("torus:1")
    grid = [float(L) for L in cfg.L or COROLLARY_L]
    _require(
        sum(L >= 8.0 for L in grid) >= 2,
        f"corollary grid needs two band limits >= 8, got {grid}",
    )
    _require(all(a < b for a, b in zip(grid, grid[1:])),
             f"corollary grid must be strictly increasing, got {grid}")
    # The suite runs on torus:1 whatever the groups; a band override of a
    # run without torus:1 leaves it the default band.
    band = BANDLIMITS["torus:1"]
    if cfg.bandlimit is not None and "torus:1" in cfg.groups:
        band = cfg.bandlimit
    corpus = make_corpus(group, band, cfg.corpus_count, cfg.seed, "smooth_decay")
    decays = corollary_decays(corpus.functions, 1.0, INF, grid, cfg.max_nodes)
    for idx, (seq, stat) in enumerate(decays):
        values = [a for _, a in seq]
        inst = {"fn": idx, "seed": cfg.seed, "group": "torus:1", "p": 1.0, "q": INF,
                "grid": grid}
        notes = (
            f"a_L={[round(v, 8) for v in values]}; truncated weighted sum={stat!r} "
            "(reported only; infinite sum truncated to the grid)"
        )
        reports.append(InequalityReport("corollary-decay", "corollary", inst, values[-1],
                                        0.1 * values[0], 0.0, notes))
        tail_start = next(i for i, (L, _) in enumerate(seq) if L >= 8.0)
        steps = [values[i + 1] / values[i] for i in range(tail_start, len(values) - 1)]
        reports.append(InequalityReport("corollary-monotone", "corollary", inst, max(steps), 1.0,
                                        0.0, "every step ratio beyond L=8 must stay below 1"))
    return reports


def _structural_reports(cfg: RunConfig) -> list[InequalityReport]:
    # Block-level structure: single-block identity, besov/tl agreement at
    # (2,2), besov-vs-sobolev bracketing at p = 2.
    reports = []
    for group in _config_groups(cfg):
        corpus = _corpus_for(cfg, group)
        for idx, F in enumerate(corpus.functions[: min(3, len(corpus.functions))]):
            inst = {"fn": idx, "seed": cfg.seed, "group": str(group)}
            # the rows' ladders, whose blocks share grids, in one sweep
            _prefetch(F, [NormSpec(fam, r=r, p=2.0, q=2.0) for r in cfg.r_grid
                          for fam in ("tl", "besov")], cfg.max_nodes)
            blocks = dyadic_blocks(F)
            if blocks:
                s, block = sorted(blocks.items())[-1]
                for q in (1.0, 2.0, INF):
                    lhs = besov_norm(block, 0.75, 2.0, q, cfg.max_nodes)
                    rhs = 2.0 ** (s * 0.75) * lp_norm(block, 2.0, cfg.max_nodes)
                    reports.append(_equality(
                        "besov-single-block", "embeddings",
                        {**inst, "s": s, "q": q, "r": 0.75, "p": 2.0}, lhs, rhs, cfg.tol_exact,
                    ))
            for r in cfg.r_grid:
                a = tl_norm(F, r, 2.0, 2.0, cfg.max_nodes)
                b = besov_norm(F, r, 2.0, 2.0, cfg.max_nodes)
                reports.append(_equality("besov-tl-equality", "embeddings", {**inst, "r": r},
                                         a, b, cfg.tol_exact))
                ratio = b / sobolev_norm(F, r, 2.0, cfg.max_nodes)
                lo = 2.0 ** -abs(r)
                hi = 2.0 ** abs(r)
                reports.append(InequalityReport("besov-sobolev-bracket-upper", "embeddings",
                                                {**inst, "r": r}, ratio,
                                                hi * (1.0 + cfg.tol_grid), 0.0))
                reports.append(InequalityReport("besov-sobolev-bracket-lower", "embeddings",
                                                {**inst, "r": r}, lo * (1.0 - cfg.tol_grid),
                                                ratio, 0.0))
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
        group, "dirichlet", pairs, L_grid=cfg.L or DIRICHLET_GRIDS[str(group)],
        max_nodes=cfg.max_nodes, suite=suite,
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
            # (b, a) and (rv, av) below: each equality is scaled by its second value
            reports.append(_equality("chain-equality-wiener-besov", "wiener-chain", inst,
                                     b, a, cfg.tol_exact))
            reports.append(_equality("chain-equality-besov-l2", "wiener-chain", inst,
                                     b, c, cfg.tol_exact))
            for beta in cfg.betas:
                av = beurling_norm(F, beta)
                rv = beurling_r_norm(F, 1.0 / beta, beta)
                reports.append(_equality("beurling-identity", "wiener-chain",
                                         {**inst, "beta": beta, "r": 1.0 / beta},
                                         rv, av, cfg.tol_identity))
        reports.extend(
            _family_reports(cfg, group, "wiener-chain", _wiener_chain_pairs, corpus)
        )
    return reports


# The suites in canonical order, the order of "all" (perfbench's tracer
# rebinds these entries, so run_suite reads them at call time).
_SUITE_RUNNERS = {
    "sharpness": sharpness_suite_reports,
    "nikolskii": nikolskii_suite_reports,
    "hausdorff-young": hausdorff_young_suite_reports,
    "weyl": weyl_suite_reports,
    "corollary": corollary_suite_reports,
    "embeddings": embeddings_suite_reports,
    "wiener-chain": wiener_chain_suite_reports,
}
SUITES = (*_SUITE_RUNNERS, "all")


def run_suite(suite: str, cfg: RunConfig) -> list[InequalityReport]:
    """Run one named suite (or all of them, in canonical order)."""
    check_node_cap(cfg.max_nodes)
    if suite == "all":
        return [rep for runner in _SUITE_RUNNERS.values() for rep in runner(cfg)]
    if suite not in _SUITE_RUNNERS:
        raise DomainError(f"unknown suite {suite!r} (choices {SUITES})")
    return _SUITE_RUNNERS[suite](cfg)


def summarize(reports: list[InequalityReport]) -> dict[str, tuple[int, int]]:
    """Pass/fail counts keyed by suite, sorted by suite name."""
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
