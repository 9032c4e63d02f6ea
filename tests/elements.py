"""Group elements and per-element matrix coefficients, as a test reference.

The package evaluates matrix coefficients only in bulk, through Wigner-d
and phase tables on quadrature grids.  This module evaluates them one
element at a time, by formulas that share no code with the package, and
reads quadrature rules as flat node and weight lists.  It imports nothing
from peterweyl: a group is read through its kind and dim attributes, a rule
through its axes and axis_weights.

Conventions are the package's: torus elements are angle tuples and rep k
is exp(i k.x); SU(2) elements are zyz Euler angles (alpha, beta, gamma),
spin l is indexed by twoL = 2l, and D^l_{mn} = exp(-i m alpha)
d^l_{mn}(beta) exp(-i n gamma) with rows ordered m = l, ..., -l.
"""

import math

import numpy as np


def euler_to_su2(alpha, beta, gamma):
    """The 2x2 unitary Rz(alpha) Ry(beta) Rz(gamma), which is D^(1/2)."""
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    plus, minus = (alpha + gamma) / 2.0, (alpha - gamma) / 2.0
    return np.array([[np.exp(-1j * plus) * c, -np.exp(-1j * minus) * s],
                     [np.exp(1j * minus) * s, np.exp(1j * plus) * c]])


def random_element(group, rng):
    """A Haar-distributed element: torus angles, or SU(2) Euler angles."""
    if group.kind == "torus":
        return tuple(float(t) for t in rng.uniform(0.0, 2.0 * math.pi, size=group.dim))
    return (float(rng.uniform(0.0, 2.0 * math.pi)), math.acos(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(0.0, 4.0 * math.pi)))


def spin_matrix(twoL, u):
    """The spin-twoL/2 matrix of the 2x2 matrix u, by Wigner's explicit sum.

    u acts on the polynomials of degree n = twoL in x, y by x -> u00 x +
    u01 y, y -> u10 x + u11 y; for u = [[a, b], [-conj b, conj a]] in SU(2)
    that is x^p y^q -> (a x + b y)^p (-conj(b) x + conj(a) y)^q.  Row i is
    the image of e_i = x^(n-i) y^i / sqrt((n-i)! i!) in the basis e_j
    (Broecker & tom Dieck, GTM 98, ch. II), so spin_matrix(1, u) is u and
    spin_matrix(n, u @ v) = spin_matrix(n, u) @ spin_matrix(n, v).
    """
    (a, b), (c, d) = np.asarray(u, dtype=complex)
    n = twoL
    norm = np.sqrt([math.factorial(n - i) * math.factorial(i) for i in range(n + 1)])
    out = np.empty((n + 1, n + 1), dtype=complex)
    for i in range(n + 1):
        # (a x + b y)^(n-i) (c x + d y)^i by powers of y: the coefficient of
        # y^j sums the terms y^r y^s of the two factors with r + s = j
        first = [math.comb(n - i, r) * a ** (n - i - r) * b**r for r in range(n - i + 1)]
        second = [math.comb(i, s) * c ** (i - s) * d**s for s in range(i + 1)]
        out[i] = np.convolve(first, second) * norm / norm[i]
    return out


def matrix_coefficient(group, xi, angles):
    """The unitary matrix of rep xi at the element with these angles."""
    if group.kind == "torus":
        return np.array([[np.exp(1j * np.dot(xi, angles))]])
    return spin_matrix(xi, euler_to_su2(*angles))


def rep_dim(group, xi):
    """1 for a torus character, twoL + 1 for spin twoL / 2."""
    return 1 if group.kind == "torus" else xi + 1


def nodes(rule):
    """The rule's nodes as rows of angles, in C order over its axes."""
    mesh = np.meshgrid(*rule.axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def weights(rule):
    """The rule's node weights, in the order of nodes(rule)."""
    w = rule.axis_weights[0]
    for wi in rule.axis_weights[1:]:
        w = np.multiply.outer(w, wi)
    return w.ravel()
