"""Batch command-line front end.

Subcommands:
    dual    print the unitary dual up to a weight cut, with N(L)
    norm    evaluate a norm spec on a serialized spectral function
    verify  run a verification suite and write the report
    corpus  generate seeded coefficient files

Exit status: 0 all checks pass, 1 at least one inequality violated,
2 usage or configuration error, 3 resource cap exceeded.  Reports embed the
full run configuration and are byte-identical across reruns of the same
configuration; output files are written atomically.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .groups import (
    DomainError,
    ResourceLimitError,
    enumerate_dual,
    parse_group,
    rep_info,
    weyl_count,
)
from .fourier import read_spectral, save_spectral, write_atomic
from .norms import norm_info, parse_norm_spec
from .verify import (
    SUITES,
    RunConfig,
    make_corpus,
    render_report,
    run_suite,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_floats(text: str) -> tuple[float, ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        out.append(math.inf if tok == "inf" else float(tok))
    if not out:
        raise DomainError(f"empty number list {text!r}")
    return tuple(out)


def _fmt_index(group, xi) -> str:
    if group.kind == "torus":
        return "(" + ",".join(str(k) for k in xi) + ")"
    return f"l={xi // 2}" if xi % 2 == 0 else f"l={xi}/2"


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def cmd_dual(args) -> int:
    group = parse_group(args.group)
    reps = enumerate_dual(group, args.L)
    print(f"# dual of {group} up to weight {args.L:g}")
    print("index\td\tlambda\tweight")
    for xi in reps:
        info = rep_info(group, xi)
        print(
            f"{_fmt_index(group, xi)}\t{info.dim}\t{_fmt_float(info.casimir)}\t"
            f"{_fmt_float(info.weight)}"
        )
    print(f"N({args.L:g}) = {weyl_count(group, args.L)}")
    return EXIT_OK


def cmd_norm(args) -> int:
    F = read_spectral(args.input)
    spec = parse_norm_spec(args.spec)
    value, info = norm_info(F, spec, args.max_nodes)
    print(f"{args.spec} = {value!r}")
    print(f"certification: {info['certified']}")
    if info.get("nodes"):
        print(f"grid: {info['nodes']} nodes (band {info['bandlimit']:g})")
    return EXIT_OK


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    cfg.suite = args.suite
    if args.group:
        cfg.groups = tuple(g.strip() for g in args.group.split(","))
        for g in cfg.groups:
            parse_group(g)
    cfg.seed = args.seed
    if args.count is not None:
        cfg.corpus_count = args.count
    if args.profile is not None:
        cfg.profile = args.profile
    if args.bandlimit is not None:
        cfg.bandlimits = {g: args.bandlimit for g in cfg.groups}
    if args.L is not None:
        grid = _parse_floats(args.L)
        cfg.sharpness_L = grid
        cfg.corollary_L = grid
        cfg.dirichlet_grids = {g: grid for g in cfg.groups}
        cfg.weyl_grids = {**cfg.weyl_grids, **{g: grid for g in cfg.groups}}
    if args.p is not None:
        cfg.p_grid = _parse_floats(args.p)
    if args.q is not None:
        cfg.q_grid = _parse_floats(args.q)
    if args.r is not None:
        cfg.r_grid = _parse_floats(args.r)
    if args.beta is not None:
        cfg.betas = _parse_floats(args.beta)
    if args.max_nodes is not None:
        cfg.max_nodes = args.max_nodes
    for item in args.tol or []:
        key, eq, val = item.partition("=")
        if not eq or key not in ("exact", "grid", "identity"):
            raise DomainError(
                f"bad --tol {item!r}; expected exact=..., grid=..., or identity=..."
            )
        setattr(cfg, f"tol_{key}", float(val))
    cfg.out = args.out
    return cfg


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    reports = run_suite(cfg.suite, cfg)
    content = render_report(reports, cfg)
    if cfg.out:
        write_atomic(cfg.out, content)
        print(f"wrote {len(reports)} records to {cfg.out}")
    else:
        sys.stdout.write(content)
    failures = sum(1 for r in reports if not r.holds)
    print(f"suite {cfg.suite}: {len(reports) - failures} pass, {failures} fail")
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def cmd_corpus(args) -> int:
    group = parse_group(args.group)
    corpus = make_corpus(group, args.bandlimit, args.count, args.seed, args.profile)
    os.makedirs(args.out, exist_ok=True)
    for i, F in enumerate(corpus.functions):
        save_spectral(F, os.path.join(args.out, f"fn_{i:03d}.spectral"))
    print(
        f"wrote {args.count} functions ({args.profile}, band {args.bandlimit:g}, "
        f"seed {args.seed}) to {args.out}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peterweyl",
        description="Harmonic analysis and inequality verification on compact groups.",
    )
    parser.add_argument("--version", action="version", version=f"peterweyl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dual = sub.add_parser("dual", help="list the unitary dual up to a weight cut")
    p_dual.add_argument("--group", required=True, help="torus:N or su2")
    p_dual.add_argument("--L", type=float, required=True, help="weight cut (>= 1)")
    p_dual.set_defaults(func=cmd_dual)

    p_norm = sub.add_parser("norm", help="evaluate a norm on a spectral file")
    p_norm.add_argument("input", help="path to a specfun v1 file")
    p_norm.add_argument("spec", help="norm spec, e.g. Lp:2 or besov:r=1.5,p=2,q=inf")
    p_norm.add_argument("--max-nodes", type=int, default=None)
    p_norm.set_defaults(func=cmd_norm)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--group", default=None, help="comma list of torus:N|su2")
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--count", type=int, default=None, help="corpus size")
    p_verify.add_argument("--profile", default=None, help="corpus profile")
    p_verify.add_argument("--bandlimit", type=float, default=None, help="corpus band")
    p_verify.add_argument("--L", default=None, help="comma list of family band limits")
    p_verify.add_argument("--p", default=None, help="comma list of p exponents")
    p_verify.add_argument("--q", default=None, help="comma list of q exponents")
    p_verify.add_argument(
        "--r", default=None,
        help="comma list of smoothness exponents for the structural checks "
        "(embedding suites derive r from exponent relations)",
    )
    p_verify.add_argument("--beta", default=None, help="comma list of beta exponents")
    p_verify.add_argument("--tol", action="append", default=None,
                          help="override: exact=..., grid=..., identity=...")
    p_verify.add_argument("--max-nodes", type=int, default=None)
    p_verify.add_argument("--out", default=None, help="report path (stdout if omitted)")
    p_verify.set_defaults(func=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="generate seeded coefficient files")
    p_corpus.add_argument("--group", required=True)
    p_corpus.add_argument("--bandlimit", type=float, required=True)
    p_corpus.add_argument("--count", type=int, required=True)
    p_corpus.add_argument("--seed", type=int, required=True)
    p_corpus.add_argument(
        "--profile", default="dense_gaussian",
        choices=("dense_gaussian", "sparse", "smooth_decay"),
    )
    p_corpus.add_argument("--out", required=True, help="output directory")
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
