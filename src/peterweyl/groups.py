"""Concrete compact groups: flat tori T^n (n <= 3) and SU(2).

This module owns the group data every other layer consumes: the unitary dual
with dimensions and Laplacian weights, Wigner little-d tables, and product
quadrature rules that realize the normalized Haar integral exactly on
band-limited integrands.

Conventions
-----------
* Torus elements are angle tuples x in [0, 2pi)^n; the representation
  indexed by k in Z^n is the character exp(i k.x), with Laplacian
  eigenvalue |k|^2.
* SU(2) elements are zyz Euler angles (alpha, beta, gamma) with
  alpha in [0, 2pi), beta in [0, pi], gamma in [0, 4pi); the 4pi range in
  gamma keeps half-integer spins single-valued.  Haar density is
  sin(beta) / (16 pi^2).
* The spin-l representation is indexed by twoL = 2l.  Its matrix coefficient
  is D^l_{mn}(alpha, beta, gamma) = exp(-i m alpha) d^l_{mn}(beta)
  exp(-i n gamma), rows ordered m = l, l-1, ..., -l (so D^(1/2) has
  cos(beta/2) in the top-left corner).  Synthesis and analysis apply it
  through wigner_d_tables and Euler-angle phase tables at a rule's nodes,
  which fourier builds and keeps.
* The weight of a representation is <xi> = sqrt(1 + lambda_xi), the
  eigenvalue of (I - Laplacian)^(1/2) on its matrix coefficients, with
  lambda_l = l(l + 1) on SU(2) (the round bi-invariant metric).
  WEIGHT_SQ_DEN <xi>^2 is an integer, and band membership <xi> <= L is the
  integer comparison with band_budget(L), so band edges never drift.
* A quadrature rule's exactness is one integer, its degree c: products of
  two matrix coefficients with WEIGHT_SQ_DEN <xi>^2 <= c^2 integrate
  exactly.  quadrature(group, L) takes the least c with c^2 >= band_budget(L).
"""

from __future__ import annotations

import math
import numbers
import string
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

# Default cap on quadrature grid sizes; callers may override per operation.
MAX_NODES_DEFAULT = 4_000_000

# The most complex values one array can index: a grid past this cannot be
# built whatever the cap says.
MAX_GRID_NODES = np.iinfo(np.intp).max // np.dtype(complex).itemsize

# Cap on dual listings, corpus coefficient entries (sums of d^2 over the dual)
# and the values a torus weyl_count walks, each checked before the work starts.
MAX_DUAL_ENTRIES = 50_000_000

# WEIGHT_SQ_DEN <xi>^2 is an integer on every group; the packed coefficient
# layout stores it in int64, exact for valid indices (|k| <= MAX_REP_INDEX).
WEIGHT_SQ_DEN = 4
MAX_REP_INDEX = 2**29


class DomainError(ValueError):
    """Invalid mathematical input: out-of-range parameter or malformed index."""


class ResourceLimitError(RuntimeError):
    """A requested grid would exceed the configured node cap or any array."""


def check_plain_number(text: str) -> None:
    """Raise DomainError unless number text is ASCII without '_'.

    int and float also read digit-group underscores and any Unicode digit
    or space, which no grammar of this package admits.
    """
    if "_" in text or not text.isascii():
        raise DomainError(f"bad number text {text!r}: numbers are ASCII, without '_'")


def parse_number(text: str, kind=float):
    """Read plain number text (check_plain_number) as an int or a float.

    A float is finite or exactly 'inf': float also reads 'Infinity', 'INF'
    and literals that overflow, such as '1e999', as infinity, and 'nan'.
    Raise DomainError on any other text.
    """
    check_plain_number(text)
    if kind is float and text.strip() == "inf":
        return math.inf
    try:
        value = kind(text)
    except ValueError:
        raise DomainError(f"bad number {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise DomainError(f"bad number {text!r}: a float is finite or exactly 'inf'")
    return value


@dataclass(frozen=True)
class GroupId:
    """Identifier of a supported compact group.

    kind is "torus" or "su2"; dim is the manifold dimension (n for T^n,
    3 for SU(2)).  The dimension is the exponent in the Weyl asymptotics
    N(L) ~ C0 L^dim.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind == "torus":
            if not (1 <= self.dim <= 3):
                raise DomainError(f"torus rank must be 1..3, got {self.dim}")
        elif self.kind == "su2":
            if self.dim != 3:
                raise DomainError("su2 has dimension 3")
        else:
            raise DomainError(f"unknown group kind {self.kind!r}")

    @property
    def rank(self) -> int:
        """Number of angle coordinates in a rep index / torus element."""
        return self.dim if self.kind == "torus" else 1

    def __str__(self) -> str:
        return f"torus:{self.dim}" if self.kind == "torus" else "su2"


def torus(n: int) -> GroupId:
    return GroupId("torus", n)


def su2() -> GroupId:
    return GroupId("su2", 3)


def parse_group(text: str) -> GroupId:
    """Parse "torus:N" or "su2" into a GroupId."""
    text = text.strip(string.whitespace)  # str.strip() drops Unicode spaces too
    if text == "su2":
        return su2()
    if text.startswith("torus:"):
        try:
            n = parse_number(text.split(":", 1)[1], int)
        except DomainError:
            raise DomainError(f"bad torus rank in group spec {text!r}") from None
        return torus(n)
    raise DomainError(f"unknown group spec {text!r} (expected torus:N or su2)")


# ---------------------------------------------------------------------------
# Representation indices
#
# Torus reps are integer tuples of length n; SU(2) reps are the nonnegative
# integer twoL = 2l.


def validate_rep(group: GroupId, xi) -> None:
    if group.kind == "torus":
        if (
            not isinstance(xi, tuple)
            or len(xi) != group.dim
            or not all(isinstance(k, int) and abs(k) <= MAX_REP_INDEX for k in xi)
        ):
            raise DomainError(
                f"torus rep index must be an int {group.dim}-tuple within "
                f"+-{MAX_REP_INDEX}, got {xi!r}"
            )
    elif not isinstance(xi, int) or not 0 <= xi <= MAX_REP_INDEX:
        raise DomainError(f"su2 rep index twoL must be an int within [0, {MAX_REP_INDEX}], "
                          f"got {xi!r}")


# No package code calls weight_sq; the benchmark's tracer counts its calls by name.
def weight_sq(group: GroupId, xi) -> Fraction:
    """Exact rational <xi>^2 = 1 + lambda_xi, as rep_arrays packs it."""
    validate_rep(group, xi)
    return Fraction(int(rep_arrays(group, [xi])[2][0]), WEIGHT_SQ_DEN)


def rep_arrays(group: GroupId, reps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 (index rows, dims, WEIGHT_SQ_DEN * <xi>^2) of valid reps, in order."""
    index = np.array(reps, dtype=np.int64).reshape(len(reps), group.rank)
    if group.kind == "torus":
        dims = np.ones(len(reps), dtype=np.int64)
        wsq = WEIGHT_SQ_DEN * (1 + (index * index).sum(axis=1))
    else:
        twoL = index[:, 0]
        dims = twoL + 1
        wsq = WEIGHT_SQ_DEN + twoL * (twoL + 2)
    return index, dims, wsq


def band_budget(L: float) -> int:
    """floor(WEIGHT_SQ_DEN L^2), exact: rep xi is in band L iff its packed wsq <= this."""
    if not 1 <= L < math.inf:
        raise DomainError(f"band limit L must be finite and >= 1, got {L}")
    a, b = (L if isinstance(L, (int, float)) else Fraction(L)).as_integer_ratio()
    return WEIGHT_SQ_DEN * a * a // (b * b)


def _lattice_rows(b: int, dims: int) -> np.ndarray:
    # int64 rows k with |k|^2 <= b, lexicographic: each first-axis value a
    # keeps the (dims-1)-axis rows within b - a^2, and np.nonzero reads that
    # mask in C order, a first.
    line = np.arange(-math.isqrt(b), math.isqrt(b) + 1, dtype=np.int64)
    if dims == 1:
        return line[:, None]
    rest = _lattice_rows(b, dims - 1)
    a, j = np.nonzero((rest * rest).sum(axis=1) <= b - line[:, None] ** 2)
    return np.column_stack((line[a], rest[j]))


def _isqrt(r: np.ndarray) -> np.ndarray:
    # Exact floor square roots of int64 values 0 <= r < 2^62: the float root
    # is within one of the truth, so one step each way corrects it.
    s = np.sqrt(r).astype(np.int64)
    s -= s * s > r
    s += (s + 1) * (s + 1) <= r
    return s


@lru_cache(maxsize=256)
def _lattice_count(budget: Fraction | int, dims: int) -> int:
    # Squared norms are integers, so the floored budget admits the same
    # points.  The last axis holds 2 isqrt(r) + 1 of them for the budget r
    # the other axes leave; those run as int64 arrays, the first axis in
    # chunks of its values a >= 0, each counted for a and -a.
    b = math.floor(budget)
    if b < 0:
        return 0
    kmax = math.isqrt(b)
    if dims == 1:
        return 2 * kmax + 1
    line = np.arange(-kmax, kmax + 1, dtype=np.int64)
    middle = line * line if dims == 3 else np.zeros(1, dtype=np.int64)
    step = max(1, (1 << 14) // middle.size)
    total = 0
    for lo in range(0, kmax + 1, step):
        a = np.arange(lo, min(lo + step, kmax + 1), dtype=np.int64)
        rest = (b - a * a)[:, None] - middle
        inside = rest >= 0
        rows = np.where(inside, 2 * _isqrt(np.where(inside, rest, 0)) + 1, 0).sum(axis=1)
        total += 2 * int(rows.sum()) - (int(rows[0]) if lo == 0 else 0)
    return total


def _su2_rep_count(budget: int) -> int:
    # twoL is in band exactly when WEIGHT_SQ_DEN + twoL (twoL + 2) <= budget.
    return math.isqrt(1 + budget - WEIGHT_SQ_DEN)


def dual_arrays(group: GroupId, L: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rep_arrays of the reps with weight <xi> <= L: lexicographic on tori, by twoL on SU(2).

    L < 1 is a DomainError (the trivial rep has weight 1); a listing past
    MAX_DUAL_ENTRIES reps raises ResourceLimitError before it is built.
    """
    dual_size(group, L)
    return budget_dual_arrays(group, band_budget(L))


def budget_dual_arrays(group: GroupId, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dual_arrays of the reps with packed weight wsq <= budget, an exact
    integer, with no cap check: callers bound the listing first."""
    if group.kind == "su2":
        return rep_arrays(group, np.arange(_su2_rep_count(budget)))
    return rep_arrays(group, _lattice_rows(budget // WEIGHT_SQ_DEN - 1, group.dim))


def enumerate_dual(group: GroupId, L: float) -> list:
    """The rep indices of dual_arrays(group, L), as tuples on tori and twoL on SU(2)."""
    rows = dual_arrays(group, L)[0].tolist()
    return [tuple(r) for r in rows] if group.kind == "torus" else [r[0] for r in rows]


def weyl_count(group: GroupId, L: float) -> int:
    """Weyl counting function N(L) = sum of d_xi^2 over weights <= L."""
    budget = band_budget(L)
    if group.kind == "su2":
        n = _su2_rep_count(budget)
        return n * (n + 1) * (2 * n + 1) // 6
    b = budget // WEIGHT_SQ_DEN - 1
    if (math.isqrt(b) + 1) ** (group.dim - 1) > MAX_DUAL_ENTRIES:  # bounds the walk's values
        raise ResourceLimitError(f"counting {group} up to weight {L:g} would walk more "
                                 f"than {MAX_DUAL_ENTRIES} lattice values (the cap)")
    return _lattice_count(b, group.dim)


def dual_size(group: GroupId, L: float) -> int:
    """The number of reps with weight <= L: the rows of a dual listing.

    Past MAX_DUAL_ENTRIES reps this raises ResourceLimitError.  On a torus,
    where counting takes time growing with L, the exact lower bound (2k+1)^n
    with k = isqrt(floor((L^2 - 1) / n)) is checked before the count.
    """
    budget = band_budget(L)
    if group.kind == "su2":
        reps = _su2_rep_count(budget)
    else:
        b = budget // WEIGHT_SQ_DEN - 1
        least = (2 * math.isqrt(b // group.dim) + 1) ** group.dim
        reps = least if least > MAX_DUAL_ENTRIES else _lattice_count(b, group.dim)
    if reps > MAX_DUAL_ENTRIES:
        raise ResourceLimitError(f"dual listing would hold more than {MAX_DUAL_ENTRIES} "
                                 f"reps (the cap): {group} up to weight {L:g}")
    return reps


# ---------------------------------------------------------------------------
# Wigner little-d matrices
#
# d^l_{mn}(beta) = <l m| exp(-i beta Jy) |l n>, rows and columns in the order
# m_i = l - i.  The tables come from Risbo's recursion (Risbo, J. Geodesy 70,
# 1996; McEwen & Wiaux, IEEE TSP 59(12), 2011), which adds one spin-1/2
# factor per step.  Write n = twoL and |n, b> for the state with m = l - b.
# Spin l is the top spin of (l - 1/2) x 1/2, with positive Clebsch-Gordan
# coefficients:
#     |n, b> = sqrt((n - b) / n) |n-1, b> |+>  +  sqrt(b / n) |n-1, b-1> |->.
# exp(-i beta Jy) acts on the product as d^((n-1)/2) x d^(1/2), where
# d^(1/2) = [[c, -s], [s, c]] with c = cos(beta/2) and s = sin(beta/2), so
#     n d^(n)[a, b] = sqrt((n-a) (n-b)) c d^(n-1)[a, b]
#                   - sqrt((n-a) b)     s d^(n-1)[a, b-1]
#                   + sqrt(a (n-b))     s d^(n-1)[a-1, b]
#                   + sqrt(a b)         c d^(n-1)[a-1, b-1]
# from d^(0) = 1, with entries outside d^(n-1) taken as zero.  Each step is
# four shifted array updates over every (a, b) and node at once.  Every d^l
# is orthogonal, so its entries stay within [-1, 1]: nothing overflows and no
# factorial is formed.


def wigner_d_tables(twoL_max: int, z: np.ndarray) -> list[np.ndarray]:
    """Little-d matrices for all twoL <= twoL_max at the nodes z = cos(beta).

    Returns tabs with tabs[twoL][i, j, :] = d^l_{m_i n_j}(beta), where
    m_i = l - i and n_j = l - j, vectorized over the node axis.
    """
    if twoL_max < 0:
        raise DomainError("twoL_max must be >= 0")
    z = np.asarray(z, dtype=float)
    c = np.sqrt(np.clip((1.0 + z) / 2.0, 0.0, 1.0))  # cos(beta / 2)
    s = np.sqrt(np.clip((1.0 - z) / 2.0, 0.0, 1.0))  # sin(beta / 2)
    tabs = [np.ones((1, 1, c.size))]
    for n in range(1, twoL_max + 1):
        root = np.sqrt(np.arange(1.0, n + 1.0) / n)[:, None]
        stay, flip = root[::-1], root  # sqrt((n - i) / n), sqrt((i + 1) / n), i < n
        cd, sd = c * tabs[-1], s * tabs[-1]
        cur = np.zeros((n + 1, n + 1, c.size))
        cur[:n, :n] = (stay * stay.T)[:, :, None] * cd
        cur[:n, 1:] -= (stay * flip.T)[:, :, None] * sd
        cur[1:, :n] += (flip * stay.T)[:, :, None] * sd
        cur[1:, 1:] += (flip * flip.T)[:, :, None] * cd
        tabs.append(cur)
    return tabs


# ---------------------------------------------------------------------------
# Haar quadrature
#
# A rule of degree c integrates any product xi_ij(x) * conj(eta_kl(x)) with
# both packed weights WEIGHT_SQ_DEN <xi>^2 <= c^2 (so |k_a| <= c/2, twoL < c):
#   torus: uniform grids with at least 2c+1 points per dimension;
#   su2:   c-1 uniform alpha points on [0, 2pi), 2c-3 uniform gamma points on
#          [0, 4pi), and c // 2 + 1 Gauss-Lobatto nodes in cos(beta).  Since
#          4 <xi>^2 = (twoL+1)^2 + 3 <= c^2, twoL <= c-2.  Alpha differences
#          m - m' are at most c-2, so c-1 points sum them exactly; on [0, 4pi)
#          the gamma differences are the integers 2(n - n'), at most 2c-4,
#          so 2c-3 points sum integer and half-integer n - n' exactly, and a
#          product of reps of opposite parity sums to zero there.  What the
#          alpha and gamma sums leave is d^l_{mn} d^l'_{mn}, a polynomial of
#          degree l + l' <= c-2 in cos(beta), which c // 2 + 1 Lobatto nodes
#          integrate exactly (the per-angle factorization of Kostelec &
#          Rockmore, JFAA 14, 2008).  Lobatto (rather than Gauss-Legendre,
#          at the cost of one extra node for the same exact degree) keeps the
#          identity element in the node set with a positive weight.
# The identity element is always node 0.  A torus rule folds onto its half
# axes 0 <= i <= m // 2 for real functions even in every coordinate
# (folded(), which marks the rule it builds is_folded).  A rule holds its
# axes, weights and cos(beta) nodes only: the Wigner-d and phase tables the
# SU(2) transforms read at those nodes are fourier's, kept in its bounded
# table cache.


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (P_n(x), P_{n-1}(x)), n >= 1, by the three-term recurrence.
    prev, cur = np.ones_like(x), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, prev


def _lobatto(npts: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Lobatto nodes/weights on [-1, 1]; exact for degree <= 2*npts - 3.
    # The interior nodes are the roots of P'_{n}, n = npts - 1, that is of
    # the Jacobi polynomial P^(1,1)_{n-1}: the eigenvalues of its Jacobi
    # matrix (Golub-Welsch), polished by one Newton step on P'_n, whose
    # derivative comes from Legendre's equation.  Weights 2 / (n (n+1) P_n^2).
    if npts < 2:
        raise DomainError("lobatto rule needs at least 2 points")
    if npts == 2:
        return np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    n = npts - 1
    k = np.arange(1.0, n - 1)
    off = np.sqrt(k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p, q = _legendre_pair(n, x)
    dp = n * (q - x * p) / (1.0 - x * x)
    x = x - dp * (1.0 - x * x) / (2.0 * x * dp - n * (n + 1) * p)
    x = np.concatenate(([-1.0], x, [1.0]))
    p = _legendre_pair(n, x)[0]
    return x, 2.0 / (n * (n + 1) * p * p)


class QuadratureRule:
    """Product rule realizing normalized Haar integration on one group.

    Exact for products of reps with packed weight wsq <= degree^2, so to band
    bandlimit = degree / 2.  The rule is the product of its axis grids axes
    with weights axis_weights; grid values run over them in C order, and the
    identity element is the first node.  On a torus, node i of axis a is the
    angle 2 pi i / moduli[a]; moduli equals shape except on a folded rule,
    which folded() builds and marks is_folded.  On SU(2), z holds cos(beta)
    at the beta nodes (None on a torus).  All arrays are read-only, and the
    one cache, the fold, only ever hands out a finished rule, so instances
    are safe to share across threads.
    """

    is_folded = False

    def __init__(self, group: GroupId, degree: int, axes, axis_weights, z=None,
                 moduli=None):
        self.group = group
        self.degree = degree
        self.bandlimit = degree / 2
        self.axes = tuple(np.ascontiguousarray(a, dtype=float) for a in axes)
        self.axis_weights = tuple(
            np.ascontiguousarray(w, dtype=float) for w in axis_weights
        )
        self.z = None if z is None else np.ascontiguousarray(z, dtype=float)
        for arr in self.axes + self.axis_weights + (() if z is None else (self.z,)):
            arr.setflags(write=False)
        self.shape = tuple(len(a) for a in self.axes)
        self.node_count = math.prod(self.shape)
        self.moduli = self.shape if moduli is None else tuple(moduli)
        self._folded = None

    def folded(self) -> "QuadratureRule":
        """This torus rule on the nodes 0 <= i_a <= m_a // 2 of every axis.

        A function even in every coordinate takes one value on each axis
        orbit {i, m - i}, so weight mult(i) / m, with mult(i) = 2 except at
        i = 0 and, for even m, at i = m / 2, integrates it as this rule does;
        the maximum is over the same values.  Same degree; moduli keeps the
        full axis lengths, and is_folded is set.  Built once per rule.
        """
        if self.group.kind != "torus" or self.is_folded:
            raise DomainError(f"only a full torus rule folds, not {self!r}")
        if self._folded is None:
            axes, weights = [], []
            for x, m in zip(self.axes, self.shape):
                mult = np.full(m // 2 + 1, 2.0)
                mult[0] = 1.0
                if m % 2 == 0:
                    mult[-1] = 1.0
                axes.append(x[: m // 2 + 1])
                weights.append(mult / m)
            half = QuadratureRule(self.group, self.degree, axes, weights, moduli=self.shape)
            half.is_folded = True
            self._folded = half
        return self._folded

    def __repr__(self) -> str:
        fold = f", folded from {self.moduli}" if self.is_folded else ""
        return f"QuadratureRule({self.group}, degree={self.degree}, shape={self.shape}{fold})"


@lru_cache(maxsize=256)
def _next_fast_len(n: int) -> int:
    # The least 11-smooth integer >= n (no prime factor above 11): the least
    # power-of-2 multiple >= n of each 3^a 5^b 7^c 11^d, starting from the
    # power of 2 >= n.
    best = 1 << (n - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    best = min(best, p3 << ((n - 1) // p3).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _axis_counts(group: GroupId, c: int) -> tuple[int, ...]:
    if group.kind == "torus":
        # Any size >= 2c+1 keeps products in band alias-free; round up to the
        # least 11-smooth length so the FFTs avoid prime-size fallbacks.
        return (_next_fast_len(2 * c + 1),) * group.dim
    return (c - 1, c // 2 + 1, 2 * c - 3)


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


# Built rules keyed by (group, degree), sized in the floats their axes and
# weights hold: cos(beta) too on SU(2), and on a torus the weights of the
# fold, which a rule builds on demand and keeps (its axes are views of the
# full ones).  The budget is below the 337,764 such floats of the 64 rules
# `verify all` kept at its end under a count bound of 64, so a ladder's long
# T^1 rules, millions of floats each, are not kept.
_RULES = _Memo(300_000)


def _build_rule(group: GroupId, degree: int) -> QuadratureRule:
    # The rule of this degree, from _RULES or built (_make_rule) and kept.
    rule = _RULES.get((group, degree))
    if rule is None:
        rule = _make_rule(group, degree)
        counts = rule.shape
        extra = sum(m // 2 + 1 for m in counts) if group.kind == "torus" else counts[1]
        _RULES.put((group, degree), rule, 2 * sum(counts) + extra)
    return rule


def _make_rule(group: GroupId, degree: int) -> QuadratureRule:
    counts = _axis_counts(group, degree)
    if group.kind == "torus":
        axes = [TWO_PI * np.arange(m) / m for m in counts]
        axis_weights = [np.full(m, 1.0 / m) for m in counts]
        return QuadratureRule(group, degree, axes, axis_weights)
    na, nb, ng = counts
    alpha = TWO_PI * np.arange(na) / na
    gamma = FOUR_PI * np.arange(ng) / ng
    z, w = _lobatto(nb)
    order = np.argsort(-z)  # z descending puts beta = 0 (the identity) first
    z = z[order]
    w = w[order]
    beta = np.arccos(np.clip(z, -1.0, 1.0))
    axes = [alpha, beta, gamma]
    axis_weights = [np.full(na, 1.0 / na), w / 2.0, np.full(ng, 1.0 / ng)]
    return QuadratureRule(group, degree, axes, axis_weights, z=z)


def check_node_cap(max_nodes: int | None) -> None:
    """Raise DomainError unless the node cap is None (the default) or an integer >= 1."""
    if max_nodes is not None and (not isinstance(max_nodes, numbers.Integral) or max_nodes < 1):
        raise DomainError(f"node cap must be an integer >= 1, got {max_nodes!r}")


def _node_cap(max_nodes: int | None) -> int:
    check_node_cap(max_nodes)
    return min(MAX_NODES_DEFAULT if max_nodes is None else int(max_nodes), MAX_GRID_NODES)


def degree_fits(group: GroupId, degree: int, max_nodes: int | None = None) -> bool:
    """Whether the rule of this degree is within the node cap, and within
    MAX_GRID_NODES whatever the cap; builds nothing."""
    cap = _node_cap(max_nodes)
    if group.kind == "su2":
        return math.prod(_axis_counts(group, degree)) <= cap
    # (2c+1)^dim nodes at least: a huge degree is refused before any FFT length.
    return (2 * degree + 1) ** group.dim <= cap and math.prod(_axis_counts(group, degree)) <= cap


@lru_cache(maxsize=256)
def axis_gaps(group: GroupId, degree: int) -> tuple[float, ...]:
    """The largest gap between neighbouring nodes on each axis of the full
    rule of this degree, in its angle: 2 pi / m on a torus axis of m nodes;
    on SU(2), alpha over its 2 pi period, beta between Lobatto nodes (0 and
    pi among them) and gamma over its 4 pi period.  Builds no grid."""
    counts = _axis_counts(group, degree)
    if group.kind == "torus":
        return tuple(TWO_PI / m for m in counts)
    na, nb, ng = counts
    beta = np.arccos(np.clip(np.sort(_lobatto(nb)[0])[::-1], -1.0, 1.0))
    return TWO_PI / na, float(np.diff(beta).max()), FOUR_PI / ng


def quadrature_degree(group: GroupId, bandlimit: float, max_nodes: int | None = None) -> int:
    """Degree c of the rule quadrature(group, bandlimit, max_nodes) returns.

    The least integer with c^2 >= band_budget(bandlimit).  Raises
    ResourceLimitError when that rule would pass the node cap, or
    MAX_GRID_NODES whatever the cap; builds nothing.
    """
    degree = math.isqrt(band_budget(bandlimit) - 1) + 1
    if not degree_fits(group, degree, max_nodes):
        cap = _node_cap(max_nodes)
        raise ResourceLimitError(
            f"quadrature for {group} at band {bandlimit:g} needs more than the cap of "
            f"{cap} nodes"
        )
    return degree


def quadrature(group: GroupId, bandlimit: float, max_nodes: int | None = None) -> QuadratureRule:
    """Haar rule of least degree c with c^2 >= band_budget(bandlimit).

    Kept per (group, degree) within the float budget of _RULES: bands of
    one degree share a grid.  Raises ResourceLimitError before building a
    grid past the node cap, or past MAX_GRID_NODES whatever the cap.
    """
    return _build_rule(group, quadrature_degree(group, bandlimit, max_nodes))
