"""Harmonic analysis on compact Lie groups at desk scale.

Concrete groups (flat tori T^n with n <= 3, and SU(2)), their unitary duals
and Wigner-d tables, band-limited-exact Haar quadrature, forward and
inverse Fourier transforms, the function-space norms built from matrix
Fourier coefficients (Lebesgue, sequence-space, Sobolev, Besov,
Triebel-Lizorkin, Wiener, Beurling), and checkers that verify the classical
inequalities relating them (Nikolskii with its sharp Dirichlet equality case,
Hausdorff-Young, Weyl counting asymptotics, embedding chains).
"""

__version__ = "0.1.0"

from .groups import (
    DomainError,
    GroupId,
    QuadratureRule,
    ResourceLimitError,
    enumerate_dual,
    parse_group,
    quadrature,
    su2,
    torus,
    weyl_count,
)
from .fourier import (
    BandLimitError,
    GridFunction,
    SpectralFunction,
    analyze,
    dirichlet,
    dump_spectral,
    load_spectral,
    partial_sum,
    pointwise_power,
    save_spectral,
    synthesize,
)
from .norms import (
    NormSpec,
    NormSpecError,
    besov_norm,
    beurling_norm,
    beurling_r_norm,
    format_norm_spec,
    lp_norm,
    parse_norm_spec,
    seq_lp_norm,
    sobolev_norm,
    tl_norm,
    wiener_norm,
)
from .verify import (
    Corpus,
    InequalityReport,
    RunConfig,
    corollary_decay,
    embedding_suite,
    make_corpus,
    nikolskii_check,
    nikolskii_remark_check,
    rho_of,
    run_suite,
    weyl_fit,
)

__all__ = [
    "__version__",
    "BandLimitError",
    "Corpus",
    "DomainError",
    "GridFunction",
    "GroupId",
    "InequalityReport",
    "NormSpec",
    "NormSpecError",
    "QuadratureRule",
    "ResourceLimitError",
    "RunConfig",
    "analyze",
    "besov_norm",
    "beurling_norm",
    "beurling_r_norm",
    "corollary_decay",
    "dirichlet",
    "dump_spectral",
    "embedding_suite",
    "enumerate_dual",
    "format_norm_spec",
    "load_spectral",
    "lp_norm",
    "make_corpus",
    "nikolskii_check",
    "nikolskii_remark_check",
    "parse_group",
    "parse_norm_spec",
    "partial_sum",
    "pointwise_power",
    "quadrature",
    "rho_of",
    "run_suite",
    "save_spectral",
    "seq_lp_norm",
    "sobolev_norm",
    "su2",
    "synthesize",
    "tl_norm",
    "torus",
    "weyl_count",
    "weyl_fit",
    "wiener_norm",
]
