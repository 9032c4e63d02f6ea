"""Batch command-line front end.

Subcommands:
    dual    print the unitary dual up to a weight cut, with N(L)
    norm    evaluate a norm spec on a serialized spectral function
    verify  run a verification suite and write the report
    corpus  generate seeded coefficient files

Exit status: 0 all checks pass, 1 at least one inequality violated,
2 usage or configuration error, 3 resource cap exceeded or memory exhausted.
Reports embed the full run configuration and are byte-identical across
reruns of the same configuration; output files are written atomically.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .groups import (
    WEIGHT_SQ_DEN,
    DomainError,
    ResourceLimitError,
    check_plain_number,
    dual_arrays,
    parse_group,
    parse_number,
)
from .fourier import read_spectral, save_spectral, write_atomic
from .norms import norm_enclosure, norm_info, parse_norm_spec
from .verify import (
    PROFILES,
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
    check_plain_number(text)  # a Unicode space is no empty entry
    out = tuple(parse_number(tok) for tok in text.split(",") if tok.strip())
    if not out:
        raise DomainError(f"empty number list {text!r}")
    return out


def _number(kind):
    # argparse type: parse_number as kind, else a usage error that names the type
    def read(text: str):
        return parse_number(text, kind)

    read.__name__ = kind.__name__
    return read


def _node_cap(text: str) -> int:
    # argparse type of --max-nodes: a positive integer, or a usage error
    try:
        cap = parse_number(text, int)
    except DomainError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"node cap must be a positive integer, got {text!r}")
    return cap


def _fmt_index(group, row) -> str:
    if group.kind == "torus":
        return "(" + ",".join(str(k) for k in row) + ")"
    return f"l={row[0] // 2}" if row[0] % 2 == 0 else f"l={row[0]}/2"


def cmd_dual(args) -> int:
    group = parse_group(args.group)
    index, dims, wsq = (a.tolist() for a in dual_arrays(group, args.L))
    print(f"# dual of {group} up to weight {args.L:g}")
    print("index\td\tlambda\tweight")
    for row, d, w in zip(index, dims, wsq):  # w = WEIGHT_SQ_DEN <xi>^2, exact
        print(f"{_fmt_index(group, row)}\t{d}\t{(w - WEIGHT_SQ_DEN) / WEIGHT_SQ_DEN:.12g}\t"
              f"{math.sqrt(w / WEIGHT_SQ_DEN):.12g}")
    print(f"N({args.L:g}) = {sum(d * d for d in dims)}")
    return EXIT_OK


def cmd_norm(args) -> int:
    F = read_spectral(args.input)
    spec = parse_norm_spec(args.spec)
    e = norm_info(F, spec, args.max_nodes)
    print(f"{args.spec} = {e.lo!r}")
    print(f"certification: {e.certified}")
    if e.lo != e.hi or e.certified != "exact":
        # a sup's own enclosure, else the ladder-free one of a refined or capped value
        bound = norm_enclosure(F, spec, args.max_nodes)
        print(f"enclosure: [{bound.lo!r}, {bound.hi!r}]")
    if e.nodes:
        print(f"grid: {e.nodes} nodes (band {e.bandlimit:g})")
    return EXIT_OK


def _config_from_args(args) -> RunConfig:
    # The settings the arguments override, in one RunConfig.
    over = {"suite": args.suite}
    for key, value in (("seed", args.seed), ("corpus_count", args.count),
                       ("profile", args.profile), ("bandlimit", args.bandlimit),
                       ("max_nodes", args.max_nodes)):
        if value is not None:
            over[key] = value
    if args.group:
        over["groups"] = tuple(args.group.split(","))
    for key, text in (("L", args.L), ("p_grid", args.p), ("q_grid", args.q),
                      ("r_grid", args.r), ("betas", args.beta)):
        if text is not None:
            over[key] = _parse_floats(text)
    for item in args.tol or []:
        key, eq, val = item.partition("=")
        if not eq or key not in ("exact", "grid", "identity"):
            raise DomainError(
                f"bad --tol {item!r}; expected exact=..., grid=..., or identity=..."
            )
        over[f"tol_{key}"] = parse_number(val)
    return RunConfig(**over)


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    reports = run_suite(cfg.suite, cfg)
    content = render_report(reports, cfg)
    if args.out:
        write_atomic(args.out, content)
        print(f"wrote {len(reports)} records to {args.out}")
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
    p_dual.add_argument("--L", type=_number(float), required=True, help="weight cut (>= 1)")
    p_dual.set_defaults(func=cmd_dual)

    p_norm = sub.add_parser("norm", help="evaluate a norm on a spectral file")
    p_norm.add_argument("input", help="path to a specfun v1 file")
    p_norm.add_argument("spec", help="norm spec, e.g. Lp:2 or besov:r=1.5,p=2,q=inf")
    p_norm.add_argument("--max-nodes", type=_node_cap, default=None)
    p_norm.set_defaults(func=cmd_norm)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--group", default=None, help="comma list of torus:N|su2")
    p_verify.add_argument("--seed", type=_number(int), default=None)
    p_verify.add_argument("--count", type=_number(int), default=None, help="corpus size")
    p_verify.add_argument("--profile", default=None, help="corpus profile")
    p_verify.add_argument("--bandlimit", type=_number(float), default=None, help="corpus band")
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
    p_verify.add_argument("--max-nodes", type=_node_cap, default=None)
    p_verify.add_argument("--out", default=None, help="report path (stdout if omitted)")
    p_verify.set_defaults(func=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="generate seeded coefficient files")
    p_corpus.add_argument("--group", required=True)
    p_corpus.add_argument("--bandlimit", type=_number(float), required=True)
    p_corpus.add_argument("--count", type=_number(int), required=True)
    p_corpus.add_argument("--seed", type=_number(int), required=True)
    p_corpus.add_argument("--profile", default="dense_gaussian", choices=PROFILES)
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
    except MemoryError as exc:  # a grid under the node cap that memory cannot hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
