"""Norm functionals over spectral data.

Lebesgue norms are quadrature sums of |f|^p over Haar grids: exact (one
evaluation on a sufficient grid) when |f|^p is itself band-limited, i.e.
for even integer p, and dyadically refined until the value stabilizes
otherwise.  The sup norm is the grid maximum with the identity node always
present; for central positive-type functions (all coefficients nonnegative
multiples of the identity, e.g. Dirichlet kernels) the maximum sits at the
identity and the value is exact.  One grid ladder serves both the L^p norms
and the Triebel-Lizorkin pointwise aggregate.  Each level is one streaming
pass over the slabs of fourier.synthesize_slabs: per slab the modulus, a
running maximum for p = inf and a weighted sum of |f|^p for every pending
finite p, with weights from the rule's per-axis factors, so no array of the
grid's size is built.  Each value carries a provenance record {certified,
nodes, bandlimit}; Besov and Triebel-Lizorkin values carry the weakest
certification over their blocks and ladder levels, with the largest grid,
and coefficient-only norms are "exact" with nodes 0.  A value that is not a
finite float (coefficients too large or not finite) raises DomainError.

Finished L^p values (per exponent), Triebel-Lizorkin values (per spec) and
dyadic splits are a process-local memo keyed by the function's content
digest and, for norm values, the node cap.  It is bounded, least recently
used entries go first, and it affects only speed: a hit returns what a
fresh evaluation would, with its own provenance dict.  Node values are not
kept; a level recomputes them slab by slab.

Sequence-space norms weight the Hilbert-Schmidt size of each coefficient by
powers of the representation dimension:

    ||fhat||_p   = ( sum d^(p(2/p - 1/2)) ||fhat(xi)||_HS^p )^(1/p)
    ||fhat||_inf = sup d^(-1/2) ||fhat(xi)||_HS

Smoothness scales enter through dyadic blocks 2^s <= <xi> < 2^(s+1); block
membership is decided on the exact rational <xi>^2 against integer powers
of 4.  Besov norms take an l^q aggregate of weighted block Lebesgue norms,
Triebel-Lizorkin norms take the Lebesgue norm of the pointwise l^q
aggregate, Wiener norms reuse the sequence-space formula, and the Beurling
family weights tail suprema of d^(-1/2) ||fhat||_HS over dyadic shells: a
suffix maximum of the l^inf norms of the blocks.  dyadic_blocks is the one
place that assigns reps to shells; Besov, Triebel-Lizorkin and Beurling
norms all read its memoized split.
Parameters q and beta equal to inf uniformly mean sup-aggregation.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .groups import (
    DomainError,
    ResourceLimitError,
    quadrature,
    rep_dim,
    weight_sq,
)
from .fourier import SpectralFunction, synthesize_slabs

INF = math.inf

# Stop rule for dyadic grid refinement of non-polynomial integrands.
REFINE_STOP = 1e-6
# Hard ceiling on doubling steps; the node cap normally binds first.
MAX_REFINE_LEVELS = 12


# ---------------------------------------------------------------------------
# Norm specifications and their canonical string syntax


_FAMILY_KEYS = {
    "Lp": ("p",),
    "seq": ("p",),
    "sobolev": ("r", "p"),
    "besov": ("r", "p", "q"),
    "tl": ("r", "p", "q"),
    "wiener": ("beta",),
    "beurling": ("beta",),
    "beurlingR": ("r", "beta"),
}


class NormSpecError(DomainError):
    """Norm specification string violates the grammar."""


@dataclass(frozen=True)
class NormSpec:
    """One norm functional: family tag plus its numeric parameters."""

    family: str
    p: float | None = None
    q: float | None = None
    r: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILY_KEYS:
            raise NormSpecError(
                f"unknown family {self.family!r} (rule 'family'; choices "
                f"{sorted(_FAMILY_KEYS)})"
            )
        for key in _FAMILY_KEYS[self.family]:
            if getattr(self, key) is None:
                raise NormSpecError(f"{self.family} requires parameter {key}")
        for key in ("p", "q", "beta"):
            val = getattr(self, key)
            if val is not None and not val > 0:
                raise NormSpecError(f"parameter {key} must be positive, got {val}")
        if self.r is not None and not math.isfinite(self.r):
            raise NormSpecError(f"parameter r must be finite, got {self.r}")
        if self.family == "tl" and self.p == INF:
            raise NormSpecError("tl requires p < inf")


def _fmt_num(x: float) -> str:
    if x == INF:
        return "inf"
    if float(x) == int(x):
        return str(int(x))
    return repr(float(x))


def _parse_num(tok: str) -> float:
    if tok == "inf":
        return INF
    try:
        return float(tok)
    except ValueError:
        raise NormSpecError(f"bad number {tok!r} (rule 'number')") from None


def format_norm_spec(spec: NormSpec) -> str:
    keys = _FAMILY_KEYS[spec.family]
    if keys in (("p",), ("beta",)):
        return f"{spec.family}:{_fmt_num(getattr(spec, keys[0]))}"
    body = ",".join(f"{k}={_fmt_num(getattr(spec, k))}" for k in keys)
    return f"{spec.family}:{body}"


def parse_norm_spec(text: str) -> NormSpec:
    """Parse the canonical syntax, e.g. Lp:2, besov:r=1.5,p=2,q=inf."""
    head, sep, rest = text.strip().partition(":")
    if not sep or not rest:
        raise NormSpecError(
            f"expected 'family:parameters', got {text!r} (rule 'spec')"
        )
    if head not in _FAMILY_KEYS:
        raise NormSpecError(
            f"unknown family {head!r} (rule 'family'; choices {sorted(_FAMILY_KEYS)})"
        )
    keys = _FAMILY_KEYS[head]
    if keys in (("p",), ("beta",)):
        return NormSpec(head, **{keys[0]: _parse_num(rest)})
    params = {}
    for item in rest.split(","):
        key, eq, val = item.partition("=")
        if not eq:
            raise NormSpecError(f"expected key=value, got {item!r} (rule 'parameter')")
        if key not in keys:
            raise NormSpecError(
                f"{head} does not take parameter {key!r} (rule 'parameter'; "
                f"expects {keys})"
            )
        if key in params:
            raise NormSpecError(f"duplicate parameter {key!r} (rule 'parameter')")
        params[key] = _parse_num(val)
    return NormSpec(head, **params)


# ---------------------------------------------------------------------------
# Lebesgue norms: the grid ladder

class _Memo:
    """Bounded least-recently-used map with a running size total.

    An evaluation cache only: a hit returns what a miss would compute.  The
    lock guards the map and the total, never a computation, so concurrent
    callers may duplicate work but never see a torn entry.  An entry larger
    than the whole budget is not kept.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.size = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, size)
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, size: int = 1) -> None:
        if size > self.budget:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.size -= old[1]
            while self.size + size > self.budget:
                _, (_, freed) = self._entries.popitem(last=False)
                self.size -= freed
            self._entries[key] = (value, size)
            self.size += size

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.size = 0


# Finished evaluations: L^p values keyed by (digest, p, node cap) and
# Triebel-Lizorkin values by (digest, spec, node cap), each of size 1, and
# dyadic splits keyed by digest, sized in stored coefficient entries.
_MEMO_BUDGET = 100_000
_MEMO = _Memo(_MEMO_BUDGET)


def clear_memos() -> None:
    """Empty the evaluation memo; later calls evaluate from scratch."""
    _MEMO.clear()


def _recall(key) -> tuple[float, dict] | None:
    # A memoized (value, provenance) with its own provenance dict, so no
    # caller can change what the next hit returns.
    hit = _MEMO.get(key)
    return None if hit is None else (hit[0], dict(hit[1]))


def _remember(key, value: float, info: dict) -> None:
    _MEMO.put(key, (value, dict(info)))


def _synth_values(F: SpectralFunction, rule):
    # (lo, hi, |f|) over the node slabs of the rule, in order.
    for lo, hi, values in synthesize_slabs(F, rule):
        yield lo, hi, np.abs(values)


def _is_positive_central(F: SpectralFunction) -> bool:
    # Every coefficient a nonnegative real multiple of the identity; the
    # synthesized function then peaks at the identity element with value
    # sum d^2 c, which the sup norm can use exactly.
    for xi, mat in F.coeffs.items():
        d = mat.shape[0]
        c = mat[0, 0]
        if c.imag != 0.0 or c.real < 0.0:
            return False
        if not np.array_equal(mat, c.real * np.eye(d)):
            return False
    return True


def _identity_value(F: SpectralFunction) -> float:
    total = 0.0
    for xi, mat in F.items():
        total += rep_dim(F.group, xi) * float(np.trace(mat).real)
    return total


def _even_level(p: float) -> int | None:
    # Ladder level at which |f|^p is integrated exactly: |f|^p band-limited
    # needs rule band >= (p/2) * W, and level j provides W * 2^j.
    if p != INF and p == int(p) and int(p) % 2 == 0:
        return max(0, math.ceil(math.log2(p / 2.0)))
    return None


# Certifications from strongest to weakest; a merged record keeps the weakest.
_CERT_ORDER = ("exact (identity-pinned)", "exact", "refined", "capped")


def _provenance(certified: str, nodes: int = 0, bandlimit: float = 0.0) -> dict:
    return {"certified": certified, "nodes": nodes, "bandlimit": bandlimit}


def _merge_provenance(records: list[dict]) -> dict:
    # Weakest certification over the records, together with the largest grid.
    return _provenance(
        max((rec["certified"] for rec in records), key=_CERT_ORDER.index, default="exact"),
        max((rec["nodes"] for rec in records), default=0),
        max((rec["bandlimit"] for rec in records), default=0.0),
    )


def _level_reduce(slabs, rule, ps) -> dict:
    """One pass over the node slabs of a ladder level.

    slabs yields (lo, hi, v), nonnegative values at the flat C-order nodes
    [lo, hi), whole rows of the leading grid axis.  Returns the maximum of v
    for p = inf and the quadrature sum of v^p for each finite p; each weight
    is the product of the rule's axis weights, taken leading rows times the
    trailing product, so no weight vector of the grid's size is built.
    """
    lead = rule.axis_weights[0]
    tail = np.ones(1)
    for w in rule.axis_weights[1:]:
        tail = np.multiply.outer(tail, w).ravel()
    finite = [p for p in ps if p != INF]
    sums = dict.fromkeys(finite, np.float64(0.0))
    peak = None
    for lo, hi, vals in slabs:
        if INF in ps:
            top = vals.max()  # nan propagates through np.maximum
            peak = top if peak is None else np.maximum(peak, top)
        if finite:
            rows = vals.reshape(-1, tail.size)
            w_rows = lead[lo // tail.size:hi // tail.size]
            for p in finite:
                sums[p] += w_rows @ (rows**p @ tail)
    if INF in ps:
        sums[INF] = peak
    return sums


def _ladder(
    F: SpectralFunction, values_of, exact_levels: dict, max_nodes: int | None
) -> dict[float, tuple[float, dict]]:
    """L^p norms of nonnegative node values on a grid ladder.

    Level j integrates on the quadrature rule of band W * 2^j, W the largest
    weight in the support of F (at least 1); values_of(rule) yields the
    level's values as (lo, hi, slab), which one pass reduces for every
    exponent due there.  exact_levels maps each exponent to the level at
    which its integrand is band-limited (one exact evaluation there) or to
    None, which refines until the stop rule holds.  Returns
    {p: (value, provenance)}.
    """
    results: dict[float, tuple[float, dict]] = {}
    pending: dict[float, float | None] = dict.fromkeys(exact_levels)  # previous value
    levels = exact_levels.values()
    level = 0 if None in levels else min(levels, default=0)
    w = max(F.max_weight(), 1.0)
    grid = (0, 0.0)  # nodes and band of the finest grid built so far
    while pending:
        band = w * (2.0**level)
        try:
            rule = quadrature(F.group, band, max_nodes)
        except ResourceLimitError:
            if any(lvl is not None and lvl >= level for lvl in levels):
                raise  # an exact evaluation was promised but cannot be built
            if any(prev is None for prev in pending.values()):
                raise  # not even the base grid fits under the cap
            for p, prev in pending.items():
                results[p] = (prev, _provenance("capped", *grid))
            break
        grid = (rule.node_count, band)
        due = [p for p in pending if exact_levels[p] is None or level >= exact_levels[p]]
        sums = _level_reduce(values_of(rule), rule, due) if due else {}
        for p in due:
            prev = pending[p]
            lvl = exact_levels[p]
            cur = float(sums[p] if p == INF else sums[p] ** (1.0 / p))
            _finite(cur, f"L^{p:g} value on {rule.node_count} nodes")
            if lvl is not None:
                certified = "exact"
            elif prev is not None and abs(cur - prev) <= REFINE_STOP * max(cur, 1e-300):
                certified = "refined"
            elif level >= MAX_REFINE_LEVELS:
                certified = "capped"
            else:
                pending[p] = cur
                continue
            results[p] = (cur, _provenance(certified, *grid))
            del pending[p]
        level += 1
    return results


def lp_norms(
    F: SpectralFunction, ps, max_nodes: int | None = None
) -> dict[float, tuple[float, dict]]:
    """Lebesgue norms for several exponents sharing one grid ladder.

    Returns {p: (value, provenance)} where provenance records the bandlimit,
    node count, and certification: "exact" (polynomial integrand or pinned
    identity maximum), "refined" (dyadic refinement met the stop rule), or
    "capped" (node cap reached first; value from the finest grid built).
    """
    ps = list(ps)
    for p in ps:
        if not p > 0:
            raise DomainError(f"Lebesgue exponent must be positive, got {p}")
    if not F:
        return {p: (0.0, _provenance("exact")) for p in ps}
    results: dict[float, tuple[float, dict]] = {}
    exact_levels: dict[float, int | None] = {}
    for p in ps:
        hit = _recall(("lp", F.digest, p, max_nodes))
        if hit is not None:
            results[p] = hit
        else:
            exact_levels[p] = _even_level(p)
    fresh: dict[float, tuple[float, dict]] = {}
    if INF in exact_levels and _is_positive_central(F):
        del exact_levels[INF]
        fresh[INF] = (_identity_value(F), _provenance("exact (identity-pinned)", 1))
    if exact_levels:
        fresh.update(
            _ladder(F, lambda rule: _synth_values(F, rule), exact_levels, max_nodes)
        )
    for p, (value, info) in fresh.items():
        _remember(("lp", F.digest, p, max_nodes), value, info)
    results.update(fresh)
    return results


def lp_norm_info(
    F: SpectralFunction, p: float, max_nodes: int | None = None
) -> tuple[float, dict]:
    return lp_norms(F, [p], max_nodes)[p]


def lp_norm(F: SpectralFunction, p: float, max_nodes: int | None = None) -> float:
    """L^p(G) norm of the Fourier series of F under normalized Haar measure."""
    return lp_norm_info(F, p, max_nodes)[0]


# ---------------------------------------------------------------------------
# Sequence-space norms


def _finite(value: float, what: str) -> float:
    # Norm values are finite floats; overflow or non-finite input lands here.
    if not math.isfinite(value):
        raise DomainError(f"{what} is not finite: coefficients too large or not finite")
    return value


def _hs_norm(mat: np.ndarray) -> float:
    norm = float(np.sqrt(np.sum(np.abs(mat) ** 2)))
    if norm == INF:
        # Squares of entries above about 1e154 overflow although the norm is
        # finite: rescale by the largest entry.  Values in normal range never
        # take this path, so they keep their bytes.
        big = float(np.abs(mat).max())
        if math.isfinite(big):
            norm = big * float(np.sqrt(np.sum((np.abs(mat) / big) ** 2)))
    return norm


def seq_lp_norm(F: SpectralFunction, p: float) -> float:
    """Norm of the coefficient sequence in l^p of the dual."""
    if not p > 0:
        raise DomainError(f"sequence exponent must be positive, got {p}")
    if p == INF:
        return _finite(
            max(
                (
                    rep_dim(F.group, xi) ** -0.5 * _hs_norm(mat)
                    for xi, mat in F.coeffs.items()
                ),
                default=0.0,
            ),
            "l^inf sequence norm",
        )
    expo = p * (2.0 / p - 0.5)
    total = 0.0
    try:
        for xi, mat in F.items():
            total += rep_dim(F.group, xi) ** expo * _hs_norm(mat) ** p
    except OverflowError:
        total = INF
    return _finite(total ** (1.0 / p), f"l^{p:g} sequence norm")


def sobolev_norm(
    F: SpectralFunction, r: float, p: float, max_nodes: int | None = None
) -> float:
    """Bessel-potential norm: scale each coefficient by <xi>^r, then L^p."""
    return norm_info(F, NormSpec("sobolev", r=r, p=p), max_nodes)[0]


# ---------------------------------------------------------------------------
# Dyadic blocks and the Besov / Triebel-Lizorkin / Beurling scales


def block_of(wsq) -> int:
    """Dyadic shell index s with 4^s <= <xi>^2 < 4^(s+1), decided exactly.

    4^(s+1) is an integer, so 4^(s+1) <= wsq exactly when 4^(s+1) <=
    floor(wsq); the bit length of floor(wsq) gives the largest such power.
    """
    return max(0, (int(wsq).bit_length() - 1) // 2)


def dyadic_blocks(F: SpectralFunction) -> dict[int, SpectralFunction]:
    """Split the support into dyadic shells; empty shells are absent."""
    key = ("blocks", F.digest)
    blocks = _MEMO.get(key)
    if blocks is None:
        buckets: dict[int, dict] = {}
        for xi, mat in F.coeffs.items():
            s = block_of(weight_sq(F.group, xi))
            buckets.setdefault(s, {})[xi] = mat
        blocks = {s: SpectralFunction(F.group, c) for s, c in sorted(buckets.items())}
        _MEMO.put(key, blocks, max(1, sum(mat.size for mat in F.coeffs.values())))
    return dict(blocks)


def _shell_weight(s: int, r: float) -> float:
    # 2^(s r), the smoothness weight of dyadic shell s.
    try:
        return 2.0 ** (s * r)
    except OverflowError:
        raise DomainError(f"shell weight 2^({s}*{r:g}) leaves float range") from None


def _lq_aggregate(terms: list[float], q: float) -> float:
    if not terms:
        return 0.0
    if q == INF:
        return _finite(max(terms), "l^inf aggregate")
    try:
        return _finite(float(sum(t**q for t in terms) ** (1.0 / q)), f"l^{q:g} aggregate")
    except OverflowError:
        raise DomainError(f"l^{q:g} aggregate leaves float range") from None


def besov_norm(
    F: SpectralFunction, r: float, p: float, q: float, max_nodes: int | None = None
) -> float:
    """l^q over shells of 2^(sr) times the block L^p norm."""
    return norm_info(F, NormSpec("besov", r=r, p=p, q=q), max_nodes)[0]


def _tl_info(F: SpectralFunction, spec: NormSpec, max_nodes) -> tuple[float, dict]:
    p, q = spec.p, spec.q
    if not F:
        return 0.0, _provenance("exact")
    key = ("tl", F.digest, spec, max_nodes)
    hit = _recall(key)
    if hit is not None:
        return hit
    blocks = dyadic_blocks(F)
    weights = {s: _shell_weight(s, spec.r) for s in blocks}

    def aggregate(rule):
        # The pointwise l^q aggregate, one slab of every block at a time;
        # the blocks share the rule, so their slabs line up.
        streams = [_synth_values(b, rule) for b in blocks.values()]
        for parts in zip(*streams, strict=True):
            lo, hi, _ = parts[0]
            acc = None
            for s, (_, _, vals) in zip(blocks, parts):
                term = weights[s] * vals
                if q == INF:
                    acc = term if acc is None else np.maximum(acc, term)
                else:
                    term **= q
                    acc = term if acc is None else acc + term
            yield lo, hi, acc if q == INF else acc ** (1.0 / q)

    exact_level = _even_level(p) if q == 2.0 else None
    value, info = _ladder(F, aggregate, {p: exact_level}, max_nodes)[p]
    _remember(key, value, info)
    return value, info


def tl_norm(
    F: SpectralFunction, r: float, p: float, q: float, max_nodes: int | None = None
) -> float:
    """L^p norm of the pointwise l^q aggregate of weighted block sums.

    All shells share one grid per refinement level.  The q = 2, even-p case
    is a single exact evaluation (at p = 2 it coincides with the Besov
    norm); other parameters refine dyadically under the usual stop rule.
    """
    return norm_info(F, NormSpec("tl", r=r, p=p, q=q), max_nodes)[0]


def wiener_norm(F: SpectralFunction, beta: float) -> float:
    """Wiener-scale norm; the same display as the sequence-space l^beta norm."""
    return seq_lp_norm(F, beta)


def _tail_sups(F: SpectralFunction) -> list[float]:
    # t_s = sup over <xi> >= 2^s of d^(-1/2) ||fhat(xi)||_HS, until empty:
    # a suffix maximum of the shells' l^inf norms over the dyadic split.
    blocks = dyadic_blocks(F)
    sups = []
    running = 0.0
    for s in range(max(blocks, default=-1), -1, -1):
        if s in blocks:
            running = max(running, seq_lp_norm(blocks[s], INF))
        sups.append(running)
    return sups[::-1]


def beurling_norm(F: SpectralFunction, beta: float) -> float:
    """Dyadic tail-sup norm: (sum_s 2^(ns) t_s^beta)^(1/beta)."""
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    sups = _tail_sups(F)
    if not sups:
        return 0.0
    n = F.group.dim
    if beta == INF:
        return _finite(max(sups), "beurling norm")
    try:
        total = sum(2.0 ** (n * s) * t**beta for s, t in enumerate(sups))
    except OverflowError:
        total = INF
    return _finite(float(total ** (1.0 / beta)), "beurling norm")


def beurling_r_norm(F: SpectralFunction, r: float, beta: float) -> float:
    """Smoothness-weighted variant: (sum_s (2^(rns) t_s)^beta)^(1/beta).

    At r = 1/beta this coincides with beurling_norm (same sum rewritten).
    """
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    n = F.group.dim
    return _lq_aggregate([_shell_weight(s, r * n) * t for s, t in enumerate(_tail_sups(F))], beta)


# ---------------------------------------------------------------------------
# Dispatch


def norm_info(
    F: SpectralFunction, spec: NormSpec, max_nodes: int | None = None
) -> tuple[float, dict]:
    """Evaluate a NormSpec; returns (value, provenance).

    A Besov value carries the merged provenance of its block L^p norms.
    """
    fam = spec.family
    if fam == "Lp":
        return lp_norm_info(F, spec.p, max_nodes)
    if fam == "sobolev":
        try:
            scaled = F.scaled(lambda xi: float(weight_sq(F.group, xi)) ** (spec.r / 2.0))
        except OverflowError:
            raise DomainError(f"Sobolev weight <xi>^{spec.r:g} leaves float range") from None
        return lp_norm_info(scaled, spec.p, max_nodes)
    if fam == "besov":
        terms = []
        records = []
        for s, block in dyadic_blocks(F).items():
            weight = _shell_weight(s, spec.r)
            value, info = lp_norm_info(block, spec.p, max_nodes)
            terms.append(weight * value)
            records.append(info)
        return _lq_aggregate(terms, spec.q), _merge_provenance(records)
    if fam == "tl":
        return _tl_info(F, spec, max_nodes)
    if fam == "seq":
        value = seq_lp_norm(F, spec.p)
    elif fam == "wiener":
        value = wiener_norm(F, spec.beta)
    elif fam == "beurling":
        value = beurling_norm(F, spec.beta)
    elif fam == "beurlingR":
        value = beurling_r_norm(F, spec.r, spec.beta)
    else:
        raise NormSpecError(f"unknown family {fam!r}")
    return value, _provenance("exact")


def norm_value(
    F: SpectralFunction, spec: NormSpec, max_nodes: int | None = None
) -> float:
    return norm_info(F, spec, max_nodes)[0]
