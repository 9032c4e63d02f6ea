"""Fourier analysis and synthesis between grid and spectral representations.

A SpectralFunction is a finitely supported map from rep indices to complex
d x d coefficient matrices; a GridFunction holds complex values at the nodes
of a Haar quadrature rule.  Analysis computes

    fhat(xi) = integral f(x) xi(x)^* dx,

synthesis evaluates the Fourier series

    f(x) = sum_xi d_xi Tr(fhat(xi) xi(x)).

Synthesis has one kernel, synthesize_slabs, which yields the node values in
consecutive C-order slabs of about SLAB_NODES nodes along the leading grid
axis; synthesize writes them into one array, and the norm ladder reduces
them as they come, so no consumer needs the whole grid at once.  On T^2 and
T^3 the kernel packs the support into its dense index box and contracts it
one axis at a time against phase tables reduced mod the axis length in
integers, the trailing axes once and the leading axis per slab: m^n K work
for a box K wide on an m^n grid, and no zero-padded m^n spectrum.  On T^1,
where such a table would outgrow the grid it fills, synthesis is one inverse
FFT and one slab.  On SU(2) both directions factor through the Euler angles:
dense phase contractions over alpha and gamma (in synthesis, alpha once and
gamma per slab of alpha rows), and a Wigner-d contraction over the cos(beta)
nodes.  On the torus, analysis is one FFT over the uniform product grid.
All paths are exact for band-limited inputs on rules whose band covers the
support, and deterministic (fixed contraction order and slab split) so
serialized outputs are byte-stable.
"""

from __future__ import annotations

import hashlib
import math
import os
import secrets
import stat
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.fft import fftn, ifftn

from .groups import (
    DomainError,
    GroupId,
    QuadratureRule,
    enumerate_dual,
    parse_group,
    quadrature,
    rep_dim,
    validate_rep,
    weight_sq,
)

# Relative magnitude below which analyzed coefficient entries are stored as
# exact zeros.  "Nonzero Fourier coefficient" in support counts means
# "survives this cleanup"; checkers report sensitivity to x10 / x0.1.
SUPPORT_THRESHOLD = 1e-12

SERIAL_HEADER = "specfun v1"

# Nodes per slab of streamed synthesis (2^16 complex values, 1 MB): small
# enough to stay in cache while a norm ladder reduces it, large enough that
# per-slab overhead is negligible.  Slabs of 2^14 to 2^18 nodes time within
# 15% of each other at the ladder's largest grids.
SLAB_NODES = 1 << 16


class BandLimitError(DomainError):
    """Requested operation exceeds the exactness band of the quadrature rule."""


class SpectralFunction:
    """Finitely supported rep-index -> coefficient-matrix association.

    Absent indices mean zero matrices.  Coefficient arrays are copied on
    construction and frozen; instances are immutable after construction and
    safe for concurrent reads.
    """

    __slots__ = ("group", "coeffs", "_digest", "_max_wsq")

    def __init__(self, group: GroupId, coeffs: dict):
        object.__setattr__(self, "group", group)
        frozen = {}
        for xi, mat in coeffs.items():
            validate_rep(group, xi)
            d = rep_dim(group, xi)
            arr = np.ascontiguousarray(mat, dtype=complex)
            if arr.shape != (d, d):
                raise DomainError(
                    f"coefficient for rep {xi!r} must be {d}x{d}, got {arr.shape}"
                )
            arr.setflags(write=False)
            frozen[xi] = arr
        object.__setattr__(self, "coeffs", frozen)
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_max_wsq", None)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralFunction is immutable")

    def support(self) -> list:
        """Rep indices carrying a stored matrix, in canonical order."""
        return sorted(self.coeffs)

    def items(self):
        """(index, matrix) pairs in canonical order."""
        return [(xi, self.coeffs[xi]) for xi in self.support()]

    def __bool__(self) -> bool:
        return any(np.any(mat) for mat in self.coeffs.values())

    def max_weight_sq(self) -> Fraction:
        """Exact <xi>^2 of the heaviest stored rep (0 for empty support)."""
        if self._max_wsq is None:
            wsq = max(
                (weight_sq(self.group, xi) for xi in self.coeffs),
                default=Fraction(0),
            )
            object.__setattr__(self, "_max_wsq", wsq)
        return self._max_wsq

    def max_weight(self) -> float:
        return math.sqrt(float(self.max_weight_sq()))

    @property
    def digest(self) -> str:
        """Content hash; stable cache key for grid evaluations."""
        if self._digest is None:
            h = hashlib.blake2b(str(self.group).encode(), digest_size=16)
            for xi, mat in self.items():
                h.update(repr(xi).encode())
                h.update(mat.tobytes())
            object.__setattr__(self, "_digest", h.hexdigest())
        return self._digest

    def scaled(self, factors) -> "SpectralFunction":
        """New function with each coefficient multiplied by factors(xi)."""
        return SpectralFunction(
            self.group, {xi: factors(xi) * mat for xi, mat in self.coeffs.items()}
        )

    def restricted(self, keep) -> "SpectralFunction":
        """New function keeping only the indices where keep(xi) is true."""
        return SpectralFunction(
            self.group, {xi: mat for xi, mat in self.coeffs.items() if keep(xi)}
        )

    def __repr__(self) -> str:
        return f"SpectralFunction({self.group}, support={len(self.coeffs)})"


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


def _zero_slabs(rule: QuadratureRule):
    for _, _, lo, hi in _slab_bounds(rule):
        yield lo, hi, np.zeros(hi - lo, dtype=complex)


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
# tables over beta.
# Node storage is C order over (alpha, beta, gamma).


def _phase_matrix(angles: np.ndarray, twoL_max: int) -> np.ndarray:
    # E[a, u] = exp(-i * m_u * angles[a]),  m_u = (u - twoL_max) / 2
    ms = (np.arange(2 * twoL_max + 1) - twoL_max) / 2.0
    return np.exp(-1j * np.outer(angles, ms))


def _su2_slabs(F: SpectralFunction, rule: QuadratureRule):
    nb = rule.shape[1]
    support = F.support()
    tl = max(support)
    tabs = rule.d_tables(tl)
    nfreq = 2 * tl + 1
    gmat = np.zeros((nfreq, nfreq, nb), dtype=complex)
    for twoL, mat in F.items():
        dim = twoL + 1
        term = dim * mat.T[:, :, None] * tabs[twoL]  # indexed [j, i, node]
        pos = tl + twoL - 2 * np.arange(dim)
        gmat[pos[:, None], pos[None, :], :] += term
    # The alpha step once, as (na, nb, nfreq); then per alpha-slab the gamma
    # contraction, whose rows come out in (alpha, beta, gamma) C order.
    e_alpha = _phase_matrix(rule.axes[0], tl)
    by_alpha = np.ascontiguousarray(
        np.tensordot(e_alpha, gmat, axes=([1], [0])).transpose(0, 2, 1)
    )
    e_gamma = np.ascontiguousarray(_phase_matrix(rule.axes[2], tl).T)  # (nfreq, ng)
    for a, b, lo, hi in _slab_bounds(rule):
        yield lo, hi, (by_alpha[a:b].reshape(-1, nfreq) @ e_gamma).ravel()


def _su2_analyze(
    values: np.ndarray, rule: QuadratureRule, reps: list[int]
) -> dict[int, np.ndarray]:
    na, nb, ng = rule.shape
    tl = max(reps)
    tabs = rule.d_tables(tl)
    mesh = values.reshape(na, nb, ng)
    e_alpha = _phase_matrix(rule.axes[0], tl)
    e_gamma = _phase_matrix(rule.axes[2], tl)
    t1 = np.tensordot(np.conj(e_alpha), mesh, axes=([0], [0])) / na  # (nf, nb, ng)
    h = np.tensordot(t1, np.conj(e_gamma), axes=([2], [0])) / ng  # (nf, nb, nf)
    wb = rule.axis_weights[1]
    out = {}
    for twoL in reps:
        pos = tl + twoL - 2 * np.arange(twoL + 1)
        sub = h[np.ix_(pos, np.arange(nb), pos)]  # indexed [j, node, i]
        out[twoL] = np.einsum("jbi,jib,b->ij", sub, tabs[twoL], wb, optimize=True)
    return out


# ---------------------------------------------------------------------------
# Torus synthesis on T^2 and T^3
#
# The support is packed into its dense index box [kmin, kmax], K_a wide on
# axis a, and contracted one axis at a time against the m_a x K_a table
# E[x, j] = exp(2 pi i ((x (kmin_a + j)) mod m_a) / m_a): the trailing axes
# once, the leading axis per slab of its rows.  The work is m^n K
# multiply-adds, against m^n log m for an inverse FFT of the whole
# zero-padded grid, and no m^n spectrum is built.


def _torus_phases(m: int, kmin: int, width: int) -> np.ndarray:
    # The phase is reduced mod m in integers, as FFT twiddles are, so large
    # products x k lose no accuracy to the float angle.
    turns = np.outer(np.arange(m), np.arange(kmin, kmin + width)) % m
    return np.exp((2j * math.pi / m) * turns)


def _torus_slabs(F: SpectralFunction, rule: QuadratureRule):
    items = F.items()
    ks = np.array([k for k, _ in items])  # (S, n)
    kmin = ks.min(axis=0)
    box = np.zeros(tuple(ks.max(axis=0) - kmin + 1), dtype=complex)
    box[tuple((ks - kmin).T)] = [mat[0, 0] for _, mat in items]
    # The trailing axes once: each step contracts axis 1, the next K axis,
    # and appends its grid axis, so (K_0, ..., K_{n-1}) ends as
    # (K_0, m_1, ..., m_{n-1}).  The leading axis is contracted per slab.
    tail = box
    for m, k0, width in zip(rule.shape[1:], kmin[1:], box.shape[1:]):
        tail = np.tensordot(tail, _torus_phases(m, int(k0), width), axes=([1], [1]))
    tail = tail.reshape(box.shape[0], -1)
    lead = _torus_phases(rule.shape[0], int(kmin[0]), box.shape[0])
    for a, b, lo, hi in _slab_bounds(rule):
        yield lo, hi, (lead[a:b] @ tail).ravel()


def _line_slabs(F: SpectralFunction, rule: QuadratureRule):
    # On T^1 an m x K phase table would outgrow the m values it fills: one
    # slab, the inverse FFT.
    (m,) = rule.shape
    spec = np.zeros(m, dtype=complex)
    for (k,), mat in F.items():
        spec[k % m] = mat[0, 0]
    yield 0, m, ifftn(spec) * m


def synthesize_slabs(F: SpectralFunction, rule: QuadratureRule):
    """The Fourier series of F at the rule's nodes, as consecutive slabs.

    Returns an iterator of (lo, hi, values): complex values at the flat
    C-order nodes [lo, hi), which cover the grid in order.  Slabs split the
    leading grid axis into runs of about SLAB_NODES nodes, the same for every
    function on one rule; T^1 is one slab.  The support must lie within the
    rule's exactness band so later grid integrals of coefficient products
    stay exact; the checks run before the iterator is returned.
    """
    if F.group != rule.group:
        raise DomainError(
            f"group mismatch: function on {F.group}, rule on {rule.group}"
        )
    # The slack forgives the one-ulp loss of sqrt-then-square round trips;
    # grid sizes carry far larger margins, so exactness is unaffected.
    if F.max_weight_sq() > Fraction(rule.bandlimit) ** 2 * (1 + Fraction(1, 10**9)):
        raise BandLimitError(
            f"support weight {F.max_weight():.6g} exceeds rule band "
            f"{rule.bandlimit:g}"
        )
    if not F.support():
        return _zero_slabs(rule)
    if rule.group.kind == "su2":
        return _su2_slabs(F, rule)
    if rule.group.dim > 1:
        return _torus_slabs(F, rule)
    return _line_slabs(F, rule)


def synthesize(F: SpectralFunction, rule: QuadratureRule) -> GridFunction:
    """Evaluate the Fourier series of F at every node of the rule.

    The slabs of synthesize_slabs, written into one array.
    """
    values = np.empty(rule.node_count, dtype=complex)
    for lo, hi, slab in synthesize_slabs(F, rule):
        values[lo:hi] = slab
    return GridFunction(rule, values)


def _analyze_reps(f: GridFunction, reps: list, threshold: float) -> SpectralFunction:
    rule = f.rule
    group = rule.group
    if not reps:
        return zero_spectral(group)
    if group.kind == "torus":
        shape = rule.shape
        fhat = fftn(f.values.reshape(shape)) / rule.node_count
        raw = {
            k: np.array([[fhat[tuple(ki % m for ki, m in zip(k, shape))]]])
            for k in reps
        }
    else:
        raw = _su2_analyze(f.values, rule, reps)
    return _cleanup(group, raw, threshold)


def _cleanup(group: GroupId, raw: dict, threshold: float) -> SpectralFunction:
    gmax = 0.0
    for mat in raw.values():
        if mat.size:
            gmax = max(gmax, float(np.abs(mat).max()))
    if gmax == 0.0:
        return zero_spectral(group)
    kept = {}
    for xi, mat in raw.items():
        mat = np.array(mat, dtype=complex)
        if threshold > 0.0:
            mat[np.abs(mat) < threshold * gmax] = 0.0
            if np.any(mat):
                kept[xi] = mat
        else:
            kept[xi] = mat
    return SpectralFunction(group, kept)


def analyze(
    f: GridFunction, L: float, threshold: float = SUPPORT_THRESHOLD
) -> SpectralFunction:
    """Fourier coefficients of f at every rep with weight <= L.

    The rule's band limit must reach L.  Entries below threshold relative to
    the largest coefficient entry are stored as exact zeros, and all-zero
    matrices are dropped; threshold = 0 keeps every analyzed matrix.
    """
    if L > f.rule.bandlimit * (1.0 + 1e-12):
        raise BandLimitError(
            f"analysis band {L:g} exceeds rule band {f.rule.bandlimit:g}"
        )
    reps = enumerate_dual(f.rule.group, L)
    return _analyze_reps(f, reps, threshold)


def dirichlet(group: GroupId, L: float) -> SpectralFunction:
    """Dirichlet kernel: identity coefficient matrix at every weight <= L."""
    return SpectralFunction(
        group,
        {xi: np.eye(rep_dim(group, xi), dtype=complex) for xi in enumerate_dual(group, L)},
    )


def partial_sum(F: SpectralFunction, L: float) -> SpectralFunction:
    """Restriction of the coefficients to weights <= L."""
    budget = Fraction(L) ** 2
    return F.restricted(lambda xi: weight_sq(F.group, xi) <= budget)


def pointwise_power(
    T: SpectralFunction,
    rho: int,
    threshold: float = SUPPORT_THRESHOLD,
    max_nodes: int | None = None,
) -> SpectralFunction:
    """Spectral coefficients of the pointwise power T(x)^rho.

    Computed on an oversampled grid with band (rho+1) * L_T by synthesis,
    pointwise multiplication, and re-analysis; the analysis band is the
    exact product budget rho^2 * L_T^2 in squared-weight terms, so boundary
    reps are never misclassified.  threshold = 0 keeps every analyzed matrix
    (support-count sensitivity checks rely on this).
    """
    if not isinstance(rho, int) or rho < 1:
        raise DomainError(f"power must be a positive integer, got {rho!r}")
    if not T:
        return zero_spectral(T.group)
    wsq = T.max_weight_sq()
    w = math.sqrt(float(wsq))
    rule = quadrature(T.group, (rho + 1) * w, max_nodes)
    values = synthesize(T, rule).values ** rho
    budget = rho * rho * wsq
    reps = [
        xi
        for xi in enumerate_dual(T.group, rho * w * (1.0 + 1e-12))
        if weight_sq(T.group, xi) <= budget
    ]
    return _analyze_reps(GridFunction(rule, values), reps, threshold)


def support_count(F: SpectralFunction, threshold: float = SUPPORT_THRESHOLD) -> int:
    """Sum of d_xi^2 over reps whose matrix survives the relative threshold."""
    gmax = 0.0
    for mat in F.coeffs.values():
        if mat.size:
            gmax = max(gmax, float(np.abs(mat).max()))
    if gmax == 0.0:
        return 0
    total = 0
    for xi, mat in F.coeffs.items():
        if float(np.abs(mat).max()) >= threshold * gmax:
            total += rep_dim(F.group, xi) ** 2
    return total


# ---------------------------------------------------------------------------
# Serialization: versioned line format, byte-stable for fixed input.
#   specfun v1
#   group torus:2
#   rep -1,0 1 0.5 -0.25
# Indices print as comma-joined integers (torus) or twoL (su2); entries are
# row-major re/im pairs in shortest round-trip decimal form.


def _format_index(group: GroupId, xi) -> str:
    if group.kind == "torus":
        return ",".join(str(k) for k in xi)
    return str(xi)


def _parse_index(group: GroupId, text: str):
    try:
        if group.kind == "torus":
            return tuple(int(t) for t in text.split(","))
        return int(text)
    except ValueError:
        raise DomainError(f"bad rep index {text!r} for {group}") from None


def dump_spectral(F: SpectralFunction) -> str:
    lines = [SERIAL_HEADER, f"group {F.group}"]
    for xi, mat in F.items():
        entries = []
        for v in mat.ravel():
            entries.append(repr(float(v.real)))
            entries.append(repr(float(v.imag)))
        lines.append(
            f"rep {_format_index(F.group, xi)} {mat.shape[0]} " + " ".join(entries)
        )
    return "\n".join(lines) + "\n"


def load_spectral(text: str) -> SpectralFunction:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != SERIAL_HEADER:
        raise DomainError(f"missing header line {SERIAL_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("group "):
        raise DomainError("missing group line")
    group = parse_group(lines[1][len("group "):])
    coeffs = {}
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] != "rep" or len(parts) < 3:
            raise DomainError(f"bad record {ln!r}")
        xi = _parse_index(group, parts[1])
        if xi in coeffs:
            raise DomainError(f"duplicate record for rep {parts[1]}")
        try:
            d = int(parts[2])
            vals = [float(v) for v in parts[3:]]
        except ValueError:
            raise DomainError(f"rep {parts[1]}: bad number in {ln!r}") from None
        if d < 1:
            raise DomainError(f"rep {parts[1]}: dimension must be positive, got {d}")
        if len(vals) != 2 * d * d:
            raise DomainError(
                f"rep {parts[1]}: expected {2 * d * d} entries, got {len(vals)}"
            )
        if not all(map(math.isfinite, vals)):
            raise DomainError(f"rep {parts[1]}: entries must be finite")
        nums = np.array(vals)
        coeffs[xi] = (nums[0::2] + 1j * nums[1::2]).reshape(d, d)
    return SpectralFunction(group, coeffs)


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
