"""Concrete compact groups: flat tori T^n (n <= 3) and SU(2).

This module owns the group data every other layer consumes: the unitary dual
with dimensions and Laplacian weights, matrix coefficients (complex
exponentials on the torus, Wigner D-matrices on SU(2)), composition in the
native parameterizations, and product quadrature rules that realize the
normalized Haar integral exactly on band-limited integrands.

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
  cos(beta/2) in the top-left corner).
* The weight of a representation is <xi> = sqrt(1 + lambda_xi), the
  eigenvalue of (I - Laplacian)^(1/2) on its matrix coefficients.  Band
  comparisons <xi> <= L are decided on the exact rational <xi>^2 so grid
  boundaries never drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legval
from scipy.fft import next_fast_len
from scipy.special import roots_jacobi

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

# Casimir normalization on SU(2): lambda_l = SU2_CASIMIR_SCALE * l * (l + 1),
# the Laplace-Beltrami eigenvalue for the round bi-invariant metric.  Any
# positive rescaling would only relabel the weights <xi>; this constant is
# the single auditable place where the metric choice lives.
SU2_CASIMIR_SCALE = Fraction(1)

# Default cap on quadrature grid sizes; callers may override per operation.
MAX_NODES_DEFAULT = 4_000_000

# Cap on the coefficient entries (sums of d^2 over the dual, so rows of a
# torus dual) that a dual listing or a generated corpus may hold; callers
# compare weyl_count against it before they enumerate.
MAX_DUAL_ENTRIES = 50_000_000


class DomainError(ValueError):
    """Invalid mathematical input: out-of-range parameter or malformed index."""


class ResourceLimitError(RuntimeError):
    """A requested grid would exceed the configured node cap."""


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
    text = text.strip()
    if text == "su2":
        return su2()
    if text.startswith("torus:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"bad torus rank in group spec {text!r}") from None
        return torus(n)
    raise DomainError(f"unknown group spec {text!r} (expected torus:N or su2)")


@dataclass(frozen=True)
class RepInfo:
    """Dimension, Casimir eigenvalue, and weight <xi> of one irreducible class."""

    dim: int
    casimir: float
    weight: float


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
            or not all(isinstance(k, int) for k in xi)
        ):
            raise DomainError(
                f"torus rep index must be an int {group.dim}-tuple, got {xi!r}"
            )
    else:
        if not isinstance(xi, int) or xi < 0:
            raise DomainError(f"su2 rep index twoL must be an int >= 0, got {xi!r}")


def weight_sq(group: GroupId, xi) -> Fraction:
    """Exact rational <xi>^2 = 1 + lambda_xi."""
    validate_rep(group, xi)
    if group.kind == "torus":
        return Fraction(1 + sum(k * k for k in xi))
    return 1 + SU2_CASIMIR_SCALE * Fraction(xi * (xi + 2), 4)


def rep_dim(group: GroupId, xi) -> int:
    validate_rep(group, xi)
    return 1 if group.kind == "torus" else xi + 1


def rep_info(group: GroupId, xi) -> RepInfo:
    wsq = weight_sq(group, xi)
    return RepInfo(
        dim=rep_dim(group, xi),
        casimir=float(wsq - 1),
        weight=math.sqrt(float(wsq)),
    )


def _lattice_points(budget: Fraction, dims: int) -> list[tuple[int, ...]]:
    # Integer tuples with squared euclidean norm <= budget, lexicographic.
    if budget < 0:
        return []
    kmax = math.isqrt(math.floor(budget))
    if dims == 1:
        return [(k,) for k in range(-kmax, kmax + 1)]
    out = []
    for k in range(-kmax, kmax + 1):
        for rest in _lattice_points(budget - k * k, dims - 1):
            out.append((k,) + rest)
    return out


def _lattice_count(budget: Fraction | int, dims: int) -> int:
    # Squared norms are integers, so the floored budget admits the same
    # points; the recursion then runs on plain ints, counting k and -k once.
    b = math.floor(budget)
    if b < 0:
        return 0
    kmax = math.isqrt(b)
    if dims == 1:
        return 2 * kmax + 1
    rest = dims - 1
    return _lattice_count(b, rest) + 2 * sum(
        _lattice_count(b - k * k, rest) for k in range(1, kmax + 1)
    )


def _weight_budget(L: float) -> Fraction:
    # The exact squared weight cut L^2 of a finite band limit L >= 1.
    if not 1 <= L < math.inf:
        raise DomainError(f"band limit L must be finite and >= 1, got {L}")
    return Fraction(L) ** 2


def enumerate_dual(group: GroupId, L: float) -> list:
    """All rep indices with weight <xi> <= L, in canonical order.

    Torus indices come out lexicographically; SU(2) indices by increasing
    twoL.  The trivial representation has weight exactly 1, so L < 1 is a
    domain error rather than an empty answer.
    """
    budget = _weight_budget(L)
    if group.kind == "torus":
        return _lattice_points(budget - 1, group.dim)
    reps = []
    twoL = 0
    while weight_sq(group, twoL) <= budget:
        reps.append(twoL)
        twoL += 1
    return reps


def weyl_count(group: GroupId, L: float) -> int:
    """Weyl counting function N(L) = sum of d_xi^2 over weights <= L."""
    budget = _weight_budget(L)
    if group.kind == "torus":
        return _lattice_count(budget - 1, group.dim)
    total = 0
    twoL = 0
    while weight_sq(group, twoL) <= budget:
        total += (twoL + 1) ** 2
        twoL += 1
    return total


# ---------------------------------------------------------------------------
# Wigner little-d matrices
#
# d^l_{mn}(beta) = <l m| exp(-i beta Jy) |l n>.  Evaluation is by the
# three-term recurrence in l at fixed (m, n), seeded with the closed-form
# value at l0 = max(|m|, |n|); the l0-1 term enters with coefficient zero.
# Upward recurrence in l is the numerically stable direction and avoids the
# factorial overflow of direct summation formulas past l ~ 15.


def _wigner_seed(twoM: int, twoN: int, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    # d^{l0}_{mn} at l0 = max(|m|, |n|), with c = cos(beta/2), s = sin(beta/2).
    twoL0 = max(abs(twoM), abs(twoN))
    if twoN >= abs(twoM):
        k = (twoL0 - twoM) // 2
        return math.sqrt(math.comb(twoL0, k)) * c ** ((twoL0 + twoM) // 2) * s**k
    if -twoN >= abs(twoM):
        k = (twoL0 + twoM) // 2
        sign = -1.0 if k % 2 else 1.0
        return sign * math.sqrt(math.comb(twoL0, k)) * c ** ((twoL0 - twoM) // 2) * s**k
    if twoM >= abs(twoN):
        k = (twoL0 - twoN) // 2
        sign = -1.0 if k % 2 else 1.0
        return sign * math.sqrt(math.comb(twoL0, k)) * c ** ((twoL0 + twoN) // 2) * s**k
    k = (twoL0 + twoN) // 2
    return math.sqrt(math.comb(twoL0, k)) * c ** ((twoL0 - twoN) // 2) * s**k


def wigner_d_tables(twoL_max: int, z: np.ndarray) -> list[np.ndarray]:
    """Little-d matrices for all twoL <= twoL_max at the nodes z = cos(beta).

    Returns tabs with tabs[twoL][i, j, :] = d^l_{m_i n_j}(beta), where
    m_i = l - i and n_j = l - j, vectorized over the node axis.
    """
    if twoL_max < 0:
        raise DomainError("twoL_max must be >= 0")
    z = np.asarray(z, dtype=float)
    c = np.sqrt(np.clip((1.0 + z) / 2.0, 0.0, 1.0))
    s = np.sqrt(np.clip((1.0 - z) / 2.0, 0.0, 1.0))
    tabs = [np.empty((tL + 1, tL + 1, z.size)) for tL in range(twoL_max + 1)]
    for twoM in range(-twoL_max, twoL_max + 1):
        for twoN in range(-twoL_max, twoL_max + 1):
            if (twoM - twoN) % 2:
                continue
            twoL0 = max(abs(twoM), abs(twoN))
            m = twoM / 2.0
            n = twoN / 2.0
            cur = _wigner_seed(twoM, twoN, c, s)
            prev = np.zeros_like(cur)
            tabs[twoL0][(twoL0 - twoM) // 2, (twoL0 - twoN) // 2] = cur
            for twoL in range(twoL0, twoL_max - 1, 2):
                ell = twoL / 2.0
                lp = ell + 1.0
                if twoL == 0:
                    nxt = z * cur  # d^1_00 = cos(beta); the generic step is 0/0 here
                else:
                    denom = ell * math.sqrt((lp * lp - m * m) * (lp * lp - n * n))
                    a1 = (2.0 * ell + 1.0) * (ell * lp * z - m * n)
                    a2 = lp * math.sqrt((ell * ell - m * m) * (ell * ell - n * n))
                    nxt = (a1 * cur - a2 * prev) / denom
                tabs[twoL + 2][(twoL + 2 - twoM) // 2, (twoL + 2 - twoN) // 2] = nxt
                prev, cur = cur, nxt
    return tabs


def wigner_d_matrix(twoL: int, beta: float) -> np.ndarray:
    """Single little-d matrix d^l(beta), rows/cols ordered m = l..-l."""
    tabs = wigner_d_tables(twoL, np.array([math.cos(beta)]))
    return tabs[twoL][:, :, 0].copy()


# ---------------------------------------------------------------------------
# Group elements: identity, composition, sampling, matrix coefficients


def identity_element(group: GroupId) -> tuple:
    if group.kind == "torus":
        return (0.0,) * group.dim
    return (0.0, 0.0, 0.0)


def euler_to_su2(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The 2x2 unitary Rz(alpha) Ry(beta) Rz(gamma); equals D^(1/2)."""
    c = math.cos(beta / 2.0)
    s = math.sin(beta / 2.0)
    ep = lambda t: complex(math.cos(t), -math.sin(t))  # exp(-i t)
    return np.array(
        [
            [ep((alpha + gamma) / 2.0) * c, -ep((alpha - gamma) / 2.0) * s],
            [np.conj(ep((alpha - gamma) / 2.0)) * s, np.conj(ep((alpha + gamma) / 2.0)) * c],
        ],
        dtype=complex,
    )


def su2_to_euler(u: np.ndarray) -> tuple[float, float, float]:
    """Euler angles of a 2x2 special unitary, in the canonical ranges.

    alpha in [0, 2pi), beta in [0, pi], gamma in [0, 4pi); the 4pi branch of
    gamma is fixed by matching the sign of the input matrix, so half-integer
    representations evaluate consistently.
    """
    a = complex(u[0, 0])
    b = complex(u[0, 1])
    ca = abs(a)
    sb = abs(b)
    beta = 2.0 * math.atan2(sb, ca)
    if sb < 1e-12:
        total = (-2.0 * math.atan2(a.imag, a.real)) % FOUR_PI
        alpha = total % TWO_PI
        gamma = (total - alpha) % FOUR_PI
        return (alpha, beta, gamma)
    if ca < 1e-12:
        diff = (-2.0 * math.atan2(-b.imag, -b.real)) % FOUR_PI
        alpha = diff % TWO_PI
        gamma = (alpha - diff) % FOUR_PI
        return (alpha, beta, gamma)
    phi_a = math.atan2(a.imag, a.real)
    phi_b = math.atan2(-b.imag, -b.real)
    alpha = (-(phi_a + phi_b)) % TWO_PI
    gamma = (phi_b - phi_a) % TWO_PI
    # The phases determine gamma only mod 2pi; pick the branch reproducing u.
    if abs(euler_to_su2(alpha, beta, gamma)[0, 0] - a) > 1e-6 * max(ca, sb):
        gamma += TWO_PI
    return (alpha, beta, gamma % FOUR_PI)


def compose(group: GroupId, x: tuple, y: tuple) -> tuple:
    """Group product in the native parameterization."""
    if group.kind == "torus":
        return tuple((xi + yi) % TWO_PI for xi, yi in zip(x, y))
    u = euler_to_su2(*x) @ euler_to_su2(*y)
    return su2_to_euler(u)


def random_element(group: GroupId, rng: np.random.Generator) -> tuple:
    """Haar-distributed element."""
    if group.kind == "torus":
        return tuple(float(t) for t in rng.uniform(0.0, TWO_PI, size=group.dim))
    alpha = float(rng.uniform(0.0, TWO_PI))
    beta = float(math.acos(rng.uniform(-1.0, 1.0)))
    gamma = float(rng.uniform(0.0, FOUR_PI))
    return (alpha, beta, gamma)


def _check_su2_angles(x: tuple) -> None:
    if len(x) != 3:
        raise DomainError(f"su2 element must be (alpha, beta, gamma), got {x!r}")
    alpha, beta, gamma = x
    if not (0.0 <= alpha < TWO_PI + 1e-12):
        raise DomainError(f"alpha out of range [0, 2pi): {alpha}")
    if not (-1e-12 <= beta <= math.pi + 1e-12):
        raise DomainError(f"beta out of range [0, pi]: {beta}")
    if not (0.0 <= gamma < FOUR_PI + 1e-12):
        raise DomainError(f"gamma out of range [0, 4pi): {gamma}")


def matrix_coefficient(group: GroupId, xi, x: tuple) -> np.ndarray:
    """Unitary matrix xi(x) of the representation at the group element x."""
    validate_rep(group, xi)
    if group.kind == "torus":
        if len(x) != group.dim:
            raise DomainError(f"torus element must have {group.dim} angles, got {x!r}")
        phase = sum(k * t for k, t in zip(xi, x))
        return np.array([[complex(math.cos(phase), math.sin(phase))]])
    _check_su2_angles(x)
    alpha, beta, gamma = x
    d = wigner_d_matrix(xi, beta)
    ms = (xi - 2 * np.arange(xi + 1)) / 2.0
    left = np.exp(-1j * ms * alpha)
    right = np.exp(-1j * ms * gamma)
    return left[:, None] * d * right[None, :]


# ---------------------------------------------------------------------------
# Haar quadrature
#
# Rules are product grids sized so that the integral of any product
# xi_ij(x) * conj(eta_kl(x)) with both weights <= bandlimit is exact:
#   torus: uniform grids with 2*ceil(2B)+1 points per dimension;
#   su2:   uniform alpha (2*ceil(2B)+1 points on [0, 2pi)), uniform gamma
#          (4*ceil(2B)+2 points on [0, 4pi)), and ceil(2B)+2 Gauss-Lobatto
#          nodes in cos(beta).  Lobatto (rather than Gauss-Legendre, at the
#          cost of one extra node for the same exact degree) keeps the
#          identity element in the node set with a positive weight.
# The identity element is always node 0.


def _lobatto(npts: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Lobatto nodes/weights on [-1, 1]; exact for degree <= 2*npts - 3.
    if npts < 2:
        raise DomainError("lobatto rule needs at least 2 points")
    if npts == 2:
        return np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    interior = roots_jacobi(npts - 2, 1.0, 1.0)[0]
    x = np.concatenate(([-1.0], interior, [1.0]))
    coeffs = np.zeros(npts)
    coeffs[-1] = 1.0
    p = legval(x, coeffs)  # P_{npts-1}(x)
    w = 2.0 / (npts * (npts - 1) * p * p)
    return x, w


class QuadratureRule:
    """Product rule realizing normalized Haar integration on one group.

    nodes/weights are exposed flat in C order over the axis grids; the
    identity element sits at index 0.  All arrays are read-only; instances
    are safe to share across threads.
    """

    def __init__(self, group: GroupId, bandlimit: float, axes, axis_weights, z=None):
        self.group = group
        self.bandlimit = float(bandlimit)
        self.axes = tuple(np.ascontiguousarray(a, dtype=float) for a in axes)
        self.axis_weights = tuple(
            np.ascontiguousarray(w, dtype=float) for w in axis_weights
        )
        self._z = None if z is None else np.ascontiguousarray(z, dtype=float)
        for arr in self.axes + self.axis_weights:
            arr.setflags(write=False)
        if self._z is not None:
            self._z.setflags(write=False)
        self._nodes = None
        self._weights = None
        self._dtab_max = -1
        self._dtabs: list[np.ndarray] = []

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    identity_index = 0

    @property
    def nodes(self) -> np.ndarray:
        if self._nodes is None:
            mesh = np.meshgrid(*self.axes, indexing="ij")
            self._nodes = np.stack([m.ravel() for m in mesh], axis=1)
            self._nodes.setflags(write=False)
        return self._nodes

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            w = self.axis_weights[0]
            for wi in self.axis_weights[1:]:
                w = np.multiply.outer(w, wi)
            self._weights = np.ascontiguousarray(w.ravel())
            self._weights.setflags(write=False)
        return self._weights

    def d_tables(self, twoL_max: int) -> list[np.ndarray]:
        """Cached Wigner-d tables at this rule's cos(beta) nodes (SU(2) only)."""
        if self.group.kind != "su2":
            raise DomainError("d_tables is only defined for su2 rules")
        if twoL_max > self._dtab_max:
            self._dtabs = wigner_d_tables(twoL_max, self._z)
            self._dtab_max = twoL_max
        return self._dtabs

    def __repr__(self) -> str:
        return (
            f"QuadratureRule({self.group}, bandlimit={self.bandlimit:g}, "
            f"shape={self.shape})"
        )


def _axis_counts(group: GroupId, bandlimit: float) -> tuple[int, ...]:
    c = math.ceil(2.0 * bandlimit)
    if group.kind == "torus":
        # Any size >= 2c+1 keeps products in band alias-free; round up to an
        # FFT-friendly length so the transforms avoid prime-size fallbacks.
        return (int(next_fast_len(2 * c + 1)),) * group.dim
    return (2 * c + 1, c + 2, 4 * c + 2)


@lru_cache(maxsize=64)
def _build_rule(group: GroupId, bandlimit: float) -> QuadratureRule:
    counts = _axis_counts(group, bandlimit)
    if group.kind == "torus":
        axes = [TWO_PI * np.arange(m) / m for m in counts]
        axis_weights = [np.full(m, 1.0 / m) for m in counts]
        return QuadratureRule(group, bandlimit, axes, axis_weights)
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
    return QuadratureRule(group, bandlimit, axes, axis_weights, z=z)


def quadrature(group: GroupId, bandlimit: float, max_nodes: int | None = None) -> QuadratureRule:
    """Haar rule exact for coefficient products up to the given band limit.

    Deterministic for fixed inputs; raises ResourceLimitError before building
    a grid whose node count would exceed the cap.
    """
    if not 1 <= bandlimit < math.inf:
        raise DomainError(f"band limit must be finite and >= 1, got {bandlimit}")
    cap = MAX_NODES_DEFAULT if max_nodes is None else int(max_nodes)
    total = int(np.prod(_axis_counts(group, float(bandlimit))))
    if total > cap:
        raise ResourceLimitError(
            f"quadrature for {group} at band {bandlimit:g} needs {total} nodes, "
            f"cap is {cap}"
        )
    return _build_rule(group, float(bandlimit))
