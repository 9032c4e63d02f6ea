"""Fourier analysis and synthesis between grid and spectral representations.

A SpectralFunction is a finitely supported map from rep indices to complex
d x d coefficient matrices.  It owns the one coefficient layout: the support
in canonical order as an index array, a dimension array, exact integer
squared weights, and one complex buffer with per-rep offsets, built once at
construction; norms and kernels reduce those arrays, and coeffs gives
per-rep matrix views.  A GridFunction holds complex values at the nodes of a
Haar quadrature rule.  Analysis computes

    fhat(xi) = integral f(x) xi(x)^* dx,

synthesis evaluates the Fourier series

    f(x) = sum_xi d_xi Tr(fhat(xi) xi(x)).

Synthesis has one kernel, synthesize_slabs, which yields the node values in
consecutive C-order slabs of about SLAB_NODES nodes along the leading grid
axis; synthesize writes them into one array, and the norm ladder reduces
them as they come.  On T^2 and T^3 the kernel scatters the support into its
dense index box and contracts it one axis at a time against phase tables
reduced mod the axis length in integers, the trailing axes once and the
leading axis per slab: m^n K work for a box K wide on an m^n grid.  On T^1,
where such a table would outgrow the grid, synthesis is one inverse FFT.  A
folded torus rule (QuadratureRule.folded) keeps the nodes 0 <= i <= m // 2
of each axis, and the tables hold only those rows, still reduced mod the
full axis length m.  It takes only a sign-even F (SpectralFunction.sign_even:
real coefficients, each equal to its sign images), and sums each sign orbit
as one real term, c_k 2^#{a : k_a != 0} prod_a cos(2 pi x_a k_a / m_a) over
the rows k >= 0, the structure of the DCT-I (Makhoul, IEEE Trans. ASSP 28,
1980): a box 2^n times narrower against real tables, and on T^1 one inverse
real FFT of the half spectrum; its slabs are float64.  On SU(2) both
directions factor through the Euler angles: dense phase contractions over
alpha and gamma against the rule's phase tables, and a Wigner-d contraction
over the cos(beta) nodes, each spin's block a stride-2 slice of the
frequency plane.
On the torus, analysis is one FFT over the uniform product grid.  All paths
are exact for band-limited inputs on rules whose band covers the support,
and deterministic, so serialized outputs are byte-stable.
"""

from __future__ import annotations

import hashlib
import math
import os
import secrets
import stat
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType

import numpy as np

from .groups import (
    MAX_REP_INDEX,
    WEIGHT_SQ_DEN,
    DomainError,
    GroupId,
    QuadratureRule,
    _Memo,
    band_budget,
    budget_dual_arrays,
    check_node_cap,
    check_plain_number,
    dual_size,
    parse_group,
    quadrature,
    rep_arrays,
    validate_rep,
)

# Relative magnitude below which analyzed coefficient entries are stored as
# exact zeros.  "Nonzero Fourier coefficient" in support counts means
# "survives this cleanup"; checkers report sensitivity to x10 / x0.1.
SUPPORT_THRESHOLD = 1e-12

SERIAL_HEADER = "specfun v1"

# Nodes per slab of streamed synthesis.  A slab is whole leading-axis rows,
# at most SLAB_NODES nodes unless one row is longer (T^1 is one slab), so a
# complex slab and each temporary made from it are at most 128 KiB, a real
# (cosine) slab 64 KiB: within glibc malloc's default mmap threshold (128 KiB,
# mallopt(3)), so the heap serves them.  At 2^16 nodes every 1 MiB slab took
# freshly mapped pages and faulted them in: a 150-function bulk Nikolskii run
# made about 35k minor faults and 0.08-0.14 s of system time, against 1.4k
# faults and 0.01-0.02 s at 2^13 (2 cores).  2^14 still left 7.8k; 2^12
# made no fewer and moved the run's report bytes at roundoff.
SLAB_NODES = 1 << 13


class BandLimitError(DomainError):
    """Requested operation exceeds the exactness band of the quadrature rule."""


def check_threshold(threshold: float) -> None:
    """Raise DomainError unless the relative support threshold is finite and
    nonnegative: nan compares false with every entry, inf clears every one,
    and a negative one keeps every one as 0 does, each an unstated cut."""
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise DomainError(f"support threshold must be finite and nonnegative, got {threshold!r}")


def diagonal_mask(dims: np.ndarray) -> np.ndarray:
    """Marks the diagonal entries of row-major d x d blocks laid end to end."""
    sizes = dims * dims
    pos = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return pos % np.repeat(dims + 1, sizes) == 0


class SpectralFunction:
    """Finitely supported rep-index -> coefficient-matrix association.

    Read-only arrays in canonical order: index (an int64 rep index per row),
    dims, wsq (the exact integers WEIGHT_SQ_DEN * <xi>^2), and entries, with
    rep i's d x d matrix row-major in entries[offsets[i]:offsets[i + 1]].
    Absent indices mean zero matrices.  Instances are immutable and safe
    for concurrent reads.
    """

    __slots__ = ("group", "index", "dims", "wsq", "offsets", "entries", "_coeffs", "_digest",
                 "_sign_even", "_nonzero", "_max_weight")

    def __new__(cls, group: GroupId, coeffs: dict):
        for xi in coeffs:
            validate_rep(group, xi)
        reps = sorted(coeffs)
        index, dims, wsq = rep_arrays(group, reps)
        mats = [np.asarray(coeffs[xi], dtype=complex) for xi in reps]
        for xi, d, mat in zip(reps, dims.tolist(), mats):
            if mat.shape != (d, d):
                raise DomainError(f"coefficient for rep {xi!r} must be {d}x{d}, got {mat.shape}")
        entries = np.concatenate([np.zeros(0, dtype=complex)] + [m.ravel() for m in mats])
        return cls._packed(group, index, dims, wsq, entries)

    @classmethod
    def _packed(cls, group, index, dims, wsq, entries) -> "SpectralFunction":
        # From arrays already checked and in canonical order.
        F = object.__new__(cls)
        offsets = np.concatenate(([0], np.cumsum(dims * dims)))
        entries = np.ascontiguousarray(entries, dtype=complex)
        for name, arr in zip(("index", "dims", "wsq", "offsets", "entries"),
                             (index, dims, wsq, offsets, entries)):
            arr.setflags(write=False)
            object.__setattr__(F, name, arr)
        for name, value in (("group", group), ("_coeffs", None), ("_digest", None),
                            ("_sign_even", None), ("_nonzero", None), ("_max_weight", None)):
            object.__setattr__(F, name, value)
        return F

    def __setattr__(self, name, value):
        raise AttributeError("SpectralFunction is immutable")

    @property
    def coeffs(self):
        """Read-only map of rep index -> d x d matrix view, in canonical order."""
        if self._coeffs is None:
            rows = self.index.tolist()
            keys = map(tuple, rows) if self.group.kind == "torus" else (r[0] for r in rows)
            mats = zip(np.split(self.entries, self.offsets[1:-1]), self.dims.tolist())
            views = (mat.reshape(d, d) for mat, d in mats)
            object.__setattr__(self, "_coeffs", MappingProxyType(dict(zip(keys, views))))
        return self._coeffs

    def support(self) -> list:
        """Rep indices carrying a stored matrix, in canonical order."""
        return list(self.coeffs)

    def items(self):
        """(index, matrix) pairs in canonical order."""
        return list(self.coeffs.items())

    def __bool__(self) -> bool:
        if self._nonzero is None:  # decided once per instance, as max_weight is
            object.__setattr__(self, "_nonzero", bool(self.entries.any()))
        return self._nonzero

    def max_weight(self) -> float:
        """<xi> of the heaviest stored rep (0 for empty support)."""
        if self._max_weight is None:
            object.__setattr__(self, "_max_weight",
                               math.sqrt(int(self.wsq.max(initial=0)) / WEIGHT_SQ_DEN))
        return self._max_weight

    @property
    def digest(self) -> str:
        """Content hash; stable cache key for grid evaluations."""
        if self._digest is None:
            h = hashlib.blake2b(str(self.group).encode(), digest_size=16)
            h.update(len(self.dims).to_bytes(8, "little"))
            h.update(self.index.tobytes())
            h.update(self.entries.tobytes())
            object.__setattr__(self, "_digest", h.hexdigest())
        return self._digest

    @property
    def sign_even(self) -> bool:
        """True for a torus function with real coefficients, each nonzero one
        equal, exactly, to the one at its image under every coordinate sign
        flip: the functions folded rules take.  Decided once per instance."""
        if self._sign_even is None:
            object.__setattr__(self, "_sign_even", _decide_sign_even(self))
        return self._sign_even

    def scaled(self, factors: np.ndarray) -> "SpectralFunction":
        """New function with rep i's coefficient multiplied by factors[i]."""
        return self._packed(self.group, self.index, self.dims, self.wsq,
                            self.entries * np.repeat(factors, np.diff(self.offsets)))

    def restricted(self, keep: np.ndarray) -> "SpectralFunction":
        """New function keeping rep i where the boolean keep[i] is true."""
        return self._packed(self.group, self.index[keep], self.dims[keep], self.wsq[keep],
                            self.entries[np.repeat(keep, np.diff(self.offsets))])

    def __repr__(self) -> str:
        return f"SpectralFunction({self.group}, support={len(self.dims)})"


def _decide_sign_even(F: SpectralFunction) -> bool:
    # SpectralFunction.sign_even: real coefficients, each nonzero one equal to
    # its image under each coordinate sign flip; these flips generate all 2^n
    # sign images.  The support is in lexicographic order, so an image
    # matches it iff, sorted the same way, it lists the same rows.
    if F.group.kind != "torus" or F.entries.imag.any():
        return False
    keep = F.entries != 0
    index, entries = F.index[keep], F.entries[keep]
    for axis in range(F.group.dim):
        image = index.copy()
        image[:, axis] *= -1
        order = np.lexsort(image.T[::-1])
        if not (np.array_equal(image[order], index) and np.array_equal(entries[order], entries)):
            return False
    return True


def zero_spectral(group: GroupId) -> SpectralFunction:
    return SpectralFunction(group, {})


@dataclass
class GridFunction:
    """Complex values of a function at the nodes of a quadrature rule."""

    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=complex).ravel()
        if self.values.size != self.rule.node_count:
            raise DomainError(
                f"value count {self.values.size} does not match "
                f"{self.rule.node_count} nodes"
            )


# ---------------------------------------------------------------------------
# Synthesis slabs


def _slab_bounds(rule: QuadratureRule):
    # (a, b, lo, hi): leading-axis rows [a, b) and their flat C-order nodes
    # [lo, hi).  The split depends on the rule alone, so the slabs of two
    # functions on one rule line up.  T^1 is one slab.
    lead = rule.shape[0]
    inner = rule.node_count // lead
    rows = lead if rule.group.dim == 1 else max(1, SLAB_NODES // inner)
    for a in range(0, lead, rows):
        b = min(a + rows, lead)
        yield a, b, a * inner, b * inner


# ---------------------------------------------------------------------------
# SU(2) transform kernels
#
# With D^l_{mn} = exp(-i m alpha) d^l_{mn}(beta) exp(-i n gamma) and the
# trace pairing Tr(C D) = sum_{ij} C[i,j] D[j,i], synthesis collects, per
# beta node, G[u, w] = sum_l d_l C[i,j] d^l_{m_j n_i}(beta), indexed by the
# alpha frequency u = m_j and the gamma frequency w = n_i, then applies
# dense phase matrices on both sides: the alpha side once, the gamma side
# per slab of alpha rows (the per-angle factorization of Kostelec &
# Rockmore, "FFTs on the rotation group", JFAA 14, 2008).  Analysis runs
# the adjoint phase contractions first, then integrates against little-d
# tables over beta.  Frequencies are stored shifted by the top spin tl,
# u = tl + 2m, so spin twoL's rows m = l, l-1, ..., -l sit at u = tl + twoL
# - 2i: a stride -2 slice of each frequency axis (_spin_block), which each
# spin's block is accumulated into and read from as a basic-slice view.
# The phase matrices are the rule's (QuadratureRule.phase_tables), built
# once per top spin, as its Wigner-d tables are.
# Node storage is C order over (alpha, beta, gamma).


def _spin_block(tl: int, twoL: int) -> slice:
    # The frequencies u = tl + twoL - 2i, i = 0..twoL, of spin twoL.
    return slice(tl + twoL, tl - twoL - 1 if twoL < tl else None, -2)


def _su2_slabs(F: SpectralFunction, rule: QuadratureRule):
    nb = rule.shape[1]
    tl = int(F.index.max())
    tabs = rule.d_tables(tl)
    e_alpha, e_gamma, _, _ = rule.phase_tables(tl)
    nfreq = 2 * tl + 1
    gmat = np.zeros((nfreq, nfreq, nb), dtype=complex)
    ends = F.offsets.tolist()
    for twoL, start, stop in zip(F.index[:, 0].tolist(), ends, ends[1:]):
        dim = twoL + 1
        mat = F.entries[start:stop].reshape(dim, dim)
        block = _spin_block(tl, twoL)
        gmat[block, block] += dim * mat.T[:, :, None] * tabs[twoL]  # indexed [j, i, node]
    # The alpha step once, as (na, nb, nfreq); then per alpha-slab the gamma
    # contraction, whose rows come out in (alpha, beta, gamma) C order.  The
    # contractions are the np.dot calls np.tensordot would make.
    by_alpha = np.ascontiguousarray(
        np.dot(e_alpha, gmat.reshape(nfreq, -1)).reshape(-1, nfreq, nb).transpose(0, 2, 1)
    )
    for a, b, lo, hi in _slab_bounds(rule):
        yield lo, hi, (by_alpha[a:b].reshape(-1, nfreq) @ e_gamma).ravel()


def _su2_analyze(values: np.ndarray, rule: QuadratureRule, reps: list[int]) -> np.ndarray:
    # The coefficient matrices of the reps twoL in reps, row-major, end to end.
    na, nb, ng = rule.shape
    tl = max(reps)
    tabs = rule.d_tables(tl)
    _, _, conj_alpha, conj_gamma = rule.phase_tables(tl)
    nfreq = 2 * tl + 1
    t1 = np.dot(conj_alpha.T, values.reshape(na, -1)).reshape(nfreq, nb, ng) / na
    h = np.dot(t1.reshape(-1, ng), conj_gamma).reshape(nfreq, nb, nfreq) / ng
    h *= rule.axis_weights[1][:, None]  # the beta weights, folded in once
    out = []
    for twoL in reps:
        block = _spin_block(tl, twoL)
        out.append(np.einsum("jbi,jib->ij", h[block, :, block], tabs[twoL]).ravel())
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Torus synthesis on T^2 and T^3
#
# The terms are packed into their dense index box [kmin, kmax], K_a wide on
# axis a, and contracted one axis at a time against an m_a x K_a table at
# the rule's rows x: the trailing axes once, the leading axis per slab of
# its rows.  The work is m^n K multiply-adds, against m^n log m for an
# inverse FFT of the whole zero-padded grid, and no m^n spectrum is built.
# The terms are the support against the phases
# E[x, j] = exp(2 pi i ((x (kmin_a + j)) mod m_a) / m_a), or, on a folded
# rule, whose F is sign-even, the rows k >= 0 weighted by their orbit sizes
# 2^#{a : k_a != 0} against the real cosines
# C[x, j] = cos(2 pi ((x (kmin_a + j)) mod m_a) / m_a): a box 2^n times
# narrower, summed in real arithmetic.


# Built axis tables keyed by (kind, m, rows, kmin, width), sized in table
# entries.  `verify all` builds 73 tables of 100,843 entries and the run on
# torus:1,torus:2,torus:3,su2 80 of 102,183 (the largest 16,480), which the
# budget holds with room; at 16 bytes a complex entry it stays under 2.4 MB.
# A corpus function at a band of hundreds on T^2, tables of hundreds of
# thousands of entries each, builds its tables for each call instead.
_TABLES = _Memo(150_000)


def _axis_table(kind: str, m: int, rows: int, kmin: int, width: int) -> np.ndarray:
    # The "phase" or "cosine" kernel at the nodes x < rows of an axis of
    # length m, from _TABLES or built and kept.  The angle is reduced mod m
    # in integers, as FFT twiddles are, so large products x k lose no
    # accuracy to the float angle.  Read-only: the cache hands one array to
    # every block, function and level that shares the key.
    key = (kind, m, rows, kmin, width)
    table = _TABLES.get(key)
    if table is None:
        angle = (2.0 * math.pi / m) * (np.outer(np.arange(rows), np.arange(kmin, kmin + width)) % m)
        table = np.cos(angle) if kind == "cosine" else np.exp(1j * angle)
        table.setflags(write=False)
        _TABLES.put(key, table, table.size)
    return table


def _cosine_terms(F: SpectralFunction) -> tuple[np.ndarray, np.ndarray]:
    # A sign-even F's rows k >= 0 and their real coefficients: each row
    # stands for its sign orbit.
    keep = (F.index >= 0).all(axis=1)
    return F.index[keep], F.entries[keep].real


def _torus_slabs(ks: np.ndarray, coeffs: np.ndarray, rule: QuadratureRule, kind: str):
    kmin = ks.min(axis=0)
    box = np.zeros(tuple(ks.max(axis=0) - kmin + 1), dtype=coeffs.dtype)
    box[tuple((ks - kmin).T)] = coeffs
    # The trailing axes once: each step contracts axis 1, the next K axis,
    # and appends its grid axis, so (K_0, ..., K_{n-1}) ends as
    # (K_0, m_1, ..., m_{n-1}).  The leading axis is contracted per slab.
    # Axes with equal keys share one table, so a table past the _TABLES
    # budget (a square box at a band of hundreds) is built once, not per axis.
    keys = [(kind, m, rows, int(k0), width)
            for m, rows, k0, width in zip(rule.moduli, rule.shape, kmin, box.shape)]
    tables = {key: _axis_table(*key) for key in dict.fromkeys(keys)}
    tail = box
    for key in keys[1:]:
        tail = np.tensordot(tail, tables[key], axes=([1], [1]))
    tail = tail.reshape(box.shape[0], -1)
    lead = tables[keys[0]]
    for a, b, lo, hi in _slab_bounds(rule):
        yield lo, hi, (lead[a:b] @ tail).ravel()


def _line_slabs(ks: np.ndarray, coeffs: np.ndarray, rule: QuadratureRule):
    # On T^1 an m x K phase table would outgrow the m values it fills: one
    # slab, the inverse FFT.  A folded rule keeps the first half of the
    # inverse real FFT of the real half spectrum c_k, k >= 0:
    # f(x) = c_0 + 2 sum_{k > 0} c_k cos(2 pi k x / m).
    (m,) = rule.moduli
    n = rule.node_count
    if not rule.is_folded:
        spec = np.zeros(m, dtype=complex)
        spec[ks[:, 0] % m] = coeffs
        yield 0, n, np.fft.ifft(spec) * m
        return
    spec = np.zeros(m // 2 + 1)
    spec[ks[:, 0]] = coeffs
    yield 0, n, np.fft.irfft(spec, m)[:n] * m


def synthesize_slabs(F: SpectralFunction, rule: QuadratureRule):
    """The Fourier series of F at the rule's nodes, as consecutive slabs.

    Returns an iterator of (lo, hi, values): the values at the flat C-order
    nodes [lo, hi), which cover the grid in order.  Slabs split the leading
    grid axis into runs of about SLAB_NODES nodes, the same for every
    function on one rule; T^1 is one slab.  A folded rule takes a sign-even
    F only, whose values at its kept half-axis nodes are summed as cosines
    and are float64; on a full rule values are complex.  Every stored rep
    must have packed weight wsq <= rule.degree^2, so later grid integrals of
    coefficient products stay exact; the checks run before the iterator is
    returned.
    """
    if F.group != rule.group:
        raise DomainError(
            f"group mismatch: function on {F.group}, rule on {rule.group}"
        )
    if int(F.wsq.max(initial=0)) > rule.degree**2:
        raise BandLimitError(
            f"support weight {F.max_weight():.6g} exceeds rule band "
            f"{rule.bandlimit:g}"
        )
    if rule.is_folded and not F.sign_even:
        raise DomainError(f"a folded rule sums sign-even functions only, not {F!r}")
    if not F:
        return ((lo, hi, np.zeros(hi - lo, dtype=complex)) for _, _, lo, hi in _slab_bounds(rule))
    if rule.group.kind == "su2":
        return _su2_slabs(F, rule)
    # every torus d = 1, so entries holds one value per rep
    ks, coeffs = _cosine_terms(F) if rule.is_folded else (F.index, F.entries)
    if rule.group.dim == 1:
        return _line_slabs(ks, coeffs, rule)
    if not rule.is_folded:
        return _torus_slabs(ks, coeffs, rule, "phase")
    # each row stands for its 2^#{a : k_a != 0} sign images, an exact scaling
    return _torus_slabs(ks, coeffs * np.exp2(np.count_nonzero(ks, axis=1)), rule, "cosine")


def synthesize(F: SpectralFunction, rule: QuadratureRule) -> GridFunction:
    """Evaluate the Fourier series of F at every node of the rule.

    The slabs of synthesize_slabs, written into one array.
    """
    values = np.empty(rule.node_count, dtype=complex)
    for lo, hi, slab in synthesize_slabs(F, rule):
        values[lo:hi] = slab
    return GridFunction(rule, values)


def _analyze_reps(f: GridFunction, reps: SpectralFunction, threshold: float) -> SpectralFunction:
    # The coefficients of f at the support of reps, which holds the trivial
    # rep.  Entries below threshold relative to the largest become exact
    # zeros and all-zero matrices are dropped; threshold 0 keeps them.
    rule = f.rule
    if rule.group.kind == "torus":
        # numpy works through the axes list last-first, so the reversed list
        # transforms axis 0 first; the default order rounds differently.
        grid = f.values.reshape(rule.shape)
        fhat = np.fft.fftn(grid, axes=tuple(range(grid.ndim))[::-1]) / rule.node_count
        entries = fhat[tuple((reps.index % rule.shape).T)]
    else:
        entries = _su2_analyze(f.values, rule, reps.index[:, 0].tolist())
    mod = np.abs(entries)
    if mod.max() == 0.0:
        return zero_spectral(rule.group)
    if threshold > 0.0:  # a float product: past float range it is inf, keeping nothing
        entries = np.where(mod < threshold * float(mod.max()), 0.0, entries)
    F = SpectralFunction._packed(rule.group, reps.index, reps.dims, reps.wsq, entries)
    return F if threshold <= 0.0 else F.restricted(
        np.logical_or.reduceat(entries != 0.0, F.offsets[:-1]))


def analyze(
    f: GridFunction, L: float, threshold: float = SUPPORT_THRESHOLD
) -> SpectralFunction:
    """Fourier coefficients of f at every rep with weight <= L.

    band_budget(L) must not pass rule.degree^2, and the rule must be a full
    grid, not a folded one.  Entries below threshold relative to the largest
    coefficient entry are stored as exact zeros, and all-zero matrices are
    dropped; threshold = 0 keeps every analyzed matrix.
    """
    check_threshold(threshold)
    if f.rule.is_folded:
        raise DomainError(f"analysis needs a full grid, not {f.rule!r}")
    if band_budget(L) > f.rule.degree**2:
        raise BandLimitError(
            f"analysis band {L:g} exceeds rule band {f.rule.bandlimit:g}"
        )
    return _analyze_reps(f, dirichlet(f.rule.group, L), threshold)


def dirichlet(group: GroupId, L: float) -> SpectralFunction:
    """Dirichlet kernel: identity coefficient matrix at every weight <= L.

    Cached per (group, band_budget(L)), so callers at one budget share an
    instance; a listing past the cap of groups.dual_size is refused first.
    """
    dual_size(group, L)
    return _dirichlet_within(group, band_budget(L))


# Built Dirichlet kernels keyed by (group, budget), sized in coefficient
# entries.  `verify all` keeps 18 kernels of 6,325 entries and the run on
# torus:1,torus:2,torus:3,su2 24 of 26,765 (the largest 17,071), which the
# budget holds with room; at under 70 bytes an entry (its complex value and
# its rep's index, dimension, weight and offset) it stays under 7 MB.  A
# corpus kernel at a band of hundreds on T^2, hundreds of thousands of
# entries, is built for each call instead of kept.
_KERNELS = _Memo(100_000)


def _dirichlet_within(group: GroupId, budget: int) -> SpectralFunction:
    # The Dirichlet kernel of the reps with packed weight wsq <= budget: the
    # rep set analyze and pointwise_power analyze at, one per exact budget,
    # from _KERNELS or built and kept.
    kernel = _KERNELS.get((group, budget))
    if kernel is None:
        index, dims, wsq = budget_dual_arrays(group, budget)
        kernel = SpectralFunction._packed(group, index, dims, wsq, diagonal_mask(dims))
        _KERNELS.put((group, budget), kernel, kernel.entries.size)
    return kernel


def partial_sum(F: SpectralFunction, L: float) -> SpectralFunction:
    """Restriction of the coefficients to weights <= L."""
    return F.restricted(F.wsq <= band_budget(L))


def pointwise_power(
    T: SpectralFunction,
    rho: int,
    threshold: float = SUPPORT_THRESHOLD,
    max_nodes: int | None = None,
) -> SpectralFunction:
    """Spectral coefficients of the pointwise power T(x)^rho.

    T^rho has packed weights wsq <= rho^2 max wsq of T, the exact product
    budget: on tori <k_1 + ... + k_rho>^2 <= rho^2 max <k_i>^2, and on SU(2)
    spins add.  It is computed on the rule of least degree c with c^2 at
    least that budget (band rho * L_T), which integrates its products with
    every rep of the budget exactly, by synthesis, pointwise multiplication,
    and re-analysis at those reps, so boundary reps are never misclassified.
    threshold = 0 keeps every analyzed matrix (support-count sensitivity
    checks rely on this).
    """
    if not isinstance(rho, int) or rho < 1:
        raise DomainError(f"power must be a positive integer, got {rho!r}")
    check_node_cap(max_nodes)
    check_threshold(threshold)
    if not T:
        return zero_spectral(T.group)
    budget = rho * rho * int(T.wsq.max())
    rule = quadrature(T.group, (math.isqrt(budget - 1) + 1) / 2.0, max_nodes)
    values = synthesize(T, rule).values ** rho
    dual_size(T.group, rule.bandlimit)  # the listing cap, at the rule's band
    return _analyze_reps(GridFunction(rule, values), _dirichlet_within(T.group, budget), threshold)


def support_count(F: SpectralFunction, threshold: float = SUPPORT_THRESHOLD) -> int:
    """Sum of d_xi^2 over reps whose matrix survives the relative threshold."""
    check_threshold(threshold)
    peaks = np.maximum.reduceat(np.abs(F.entries), F.offsets[:-1])
    gmax = float(peaks.max(initial=0.0))
    if gmax == 0.0:
        return 0
    return int(np.sum(F.dims[peaks >= threshold * gmax] ** 2))  # inf past float range


# ---------------------------------------------------------------------------
# Serialization: versioned line format, byte-stable for fixed input.
#   specfun v1
#   group torus:2
#   rep -1,0 1 0.5 -0.25
# Indices print as comma-joined integers (torus) or twoL (su2); entries are
# row-major re/im pairs in shortest round-trip decimal form.


def _parse_index(group: GroupId, text: str):
    try:
        if group.kind == "torus":
            return tuple(int(t) for t in text.split(","))
        return int(text)
    except ValueError:
        raise DomainError(f"bad rep index {text!r} for {group}") from None


def dump_spectral(F: SpectralFunction) -> str:
    nums = list(map(repr, F.entries.view(np.float64).tolist()))
    ends = (2 * F.offsets).tolist()
    lines = [SERIAL_HEADER, f"group {F.group}"]
    lines += [f"rep {','.join(map(str, row))} {d} " + " ".join(nums[a:b])
              for row, d, a, b in zip(F.index.tolist(), F.dims.tolist(), ends, ends[1:])]
    return "\n".join(lines) + "\n"


def _read_records(group: GroupId, records: list[str]):
    # Each record in turn through the checks it passes on its own and against
    # the records before it: plain ASCII text, shape, index syntax,
    # duplicates, numbers, dimension sign, entry count and finiteness.
    # Raises the first failure, else returns (parsed indices, their ints,
    # dims, numbers), all in file order.
    dims, vals = {}, []  # parsed index -> dimension, in file order
    for ln in records:
        check_plain_number(ln)
        p = ln.split()
        if p[0] != "rep" or len(p) < 3:
            raise DomainError(f"bad record {ln!r}")
        xi = _parse_index(group, p[1])
        if xi in dims:
            raise DomainError(f"duplicate record for rep {p[1]}")
        try:
            d, nums = int(p[2]), list(map(float, p[3:]))
        except ValueError:
            raise DomainError(f"rep {p[1]}: bad number in {ln!r}") from None
        if d < 1:
            raise DomainError(f"rep {p[1]}: dimension must be positive, got {d}")
        if len(nums) != 2 * d * d:
            raise DomainError(f"rep {p[1]}: expected {2 * d * d} entries, got {len(nums)}")
        if not all(map(math.isfinite, nums)):
            raise DomainError(f"rep {p[1]}: entries must be finite")
        dims[xi] = d
        vals += nums
    xis = list(dims)
    ints = list(chain.from_iterable(xis)) if group.kind == "torus" else xis
    return xis, ints, list(dims.values()), np.array(vals)


def load_spectral(text: str) -> SpectralFunction:
    """Parse the line format of dump_spectral; records may come in any order.

    Malformed input raises DomainError, with the message a record-by-record
    reader gives: the first record that fails on its own or against those
    before it, then the first rep index out of range in file order, then the
    first dimension that does not match its rep in canonical order.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != SERIAL_HEADER:
        raise DomainError(f"missing header line {SERIAL_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("group "):
        raise DomainError("missing group line")
    group = parse_group(lines[1][len("group "):])
    records = lines[2:]
    if not records:
        return zero_spectral(group)
    xis, ints, ds, vals = _read_records(group, records)
    # Lengths and range before int64 packing; validate_rep names the first bad rep.
    torus = group.kind == "torus"
    if (torus and set(map(len, xis)) != {group.dim}) or max(ints) > MAX_REP_INDEX or (
            min(ints) < (-MAX_REP_INDEX if torus else 0)):
        for xi in xis:
            validate_rep(group, xi)
    rows = np.array(ints, dtype=np.int64).reshape(len(ds), group.rank)
    order = np.lexsort(rows.T[::-1])
    index, dims, wsq = rep_arrays(group, rows[order])
    got = np.array(ds)[order]
    wrong = np.flatnonzero(got != dims)
    if wrong.size:
        i = wrong[0]
        xi = tuple(index[i].tolist()) if torus else int(index[i, 0])
        raise DomainError(f"coefficient for rep {xi!r} must be {dims[i]}x{dims[i]}, "
                          f"got {(int(got[i]), int(got[i]))}")
    # The records' numbers in canonical order, re/im pairs read as complex.
    sizes = np.array(ds) ** 2
    starts = (np.cumsum(sizes) - sizes)[order]
    sizes = sizes[order]
    take = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    entries = vals.view(complex)[take + np.arange(take.size)]
    return SpectralFunction._packed(group, index, dims, wsq, entries)


def write_atomic(path, content: str) -> None:
    """Write text through a temporary file in the target directory and
    os.replace, so the path holds either the old file or the whole new one.

    The file gets the mode a plain open() would leave: an existing target's
    mode, else 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".peterweyl-{os.getpid()}-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(content)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_spectral(F: SpectralFunction, path) -> None:
    write_atomic(path, dump_spectral(F))


def read_spectral(path) -> SpectralFunction:
    with open(path, "r", encoding="ascii") as fh:
        return load_spectral(fh.read())
