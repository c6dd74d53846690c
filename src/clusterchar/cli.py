"""Command-line interface: every computation and verification suite, scriptable.

Exit codes: 0 pass, 1 fail (domain error or failed suite), 2 usage, 3 internal.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from .characters import cc_generic, cc_module
from .cluster import enumerate_seeds, initial_seed, mutate_seed
from .config import RunConfig, load_config
from .errors import ClusterCharError, NotFiniteType, ParseError, QuiverMismatch
from .generic import CharacterCache, generic_character, generic_decomposition, virtual_generic_decomposition
from .laurent import LaurentPoly
from .quiver import Quiver, is_dynkin, quiver_from_text
from .replab import representation_from_json
from .verify import SUITES, run_suite


def _int_vector(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        vec = tuple(int(p) for p in parts)
    except ValueError:
        raise SystemExit2(f"{what} must be a comma-separated integer vector, got {text!r}")
    if len(vec) != n:
        raise SystemExit2(f"{what} must have length {n}, got {len(vec)}")
    return vec


class SystemExit2(Exception):
    """Usage error: exits with code 2."""


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_quiver(path: str) -> Quiver:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        from .quiver import quiver_from_dict

        return quiver_from_dict(_parse_json(text, path))
    return quiver_from_text(text)


def _emit_poly(p: LaurentPoly, config: RunConfig) -> None:
    if config.output == "json":
        print(json.dumps(p.to_json(), sort_keys=True))
    else:
        print(p.to_text())


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file (or $CLUSTERCHAR_CONFIG)")
    common.add_argument("--rng-seed", type=int, default=argparse.SUPPRESS, help="override the configured seed")
    common.add_argument("--sample-bound", type=int, default=argparse.SUPPRESS, help="entry range for generic samples")
    common.add_argument("--retries", type=int, default=argparse.SUPPRESS, help="certification retry rounds")
    common.add_argument("--cap", type=int, default=argparse.SUPPRESS, help="subspace enumeration cap")
    common.add_argument("--cache", default=argparse.SUPPRESS, help="character cache file")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="machine-readable output")

    parser = argparse.ArgumentParser(prog="clusterchar", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quiver", help="quiver utilities", parents=[common])
    qsub = q.add_subparsers(dest="quiver_command", required=True)
    qv = qsub.add_parser("validate", help="validate a quiver file", parents=[common])
    qv.add_argument("file")

    cc = sub.add_parser("cc", help="Caldero-Chapoton character", parents=[common])
    cc.add_argument("file", help="quiver file")
    group = cc.add_mutually_exclusive_group(required=True)
    group.add_argument("--dim", help="dimension vector: certified generic representative")
    group.add_argument("--rep", help="explicit representation JSON file")

    gc = sub.add_parser("genchar", help="generic character of an index", parents=[common])
    gc.add_argument("file")
    gc.add_argument("--gamma", required=True)

    gd = sub.add_parser("gendecomp", help="generic decomposition of a dimension vector", parents=[common])
    gd.add_argument("file")
    gd.add_argument("--dim", required=True)

    vg = sub.add_parser("vgendecomp", help="virtual generic decomposition", parents=[common])
    vg.add_argument("file")
    vg.add_argument("--alpha", required=True)

    mu = sub.add_parser("mutate", help="mutate the initial seed along a vertex sequence", parents=[common])
    mu.add_argument("file")
    mu.add_argument("--at", required=True, help="comma-separated vertex sequence")

    en = sub.add_parser("enumerate", help="mutation closure (finite type)", parents=[common])
    en.add_argument("file")
    en.add_argument("--limit", type=int, help="stop after this many seeds (needed on a quiver of infinite type)")

    ve = sub.add_parser("verify", help="run a verification suite", parents=[common])
    ve.add_argument("suite", choices=sorted(SUITES))
    ve.add_argument("file")
    return parser


def _make_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or defaults) with the command-line values over it, validated as a whole."""
    overrides = {}
    for option, key in (("rng_seed", "rng_seed"), ("sample_bound", "sample_bound"), ("retries", "retries"),
                        ("cap", "enumeration_cap"), ("cache", "cache_path")):
        if getattr(args, option, None) is not None:
            overrides[key] = getattr(args, option)
    if getattr(args, "json", False):
        overrides["output"] = "json"
    return dataclasses.replace(load_config(getattr(args, "config", None)), **overrides)


def _run(args: argparse.Namespace, config: RunConfig) -> int:
    q = _load_quiver(args.file)
    if args.command == "quiver":
        if config.output == "json":
            print(json.dumps({"valid": True, **q.to_dict()}, sort_keys=True))
        else:
            print(f"valid quiver: {q.n} vertices, {len(q.arrows)} arrows")
        return 0

    if args.command == "cc":
        if args.dim is not None:
            alpha = _int_vector(args.dim, q.n, "--dim")
            value = cc_generic(
                q, alpha, rng_seed=config.rng_seed, bound=config.sample_bound,
                retries=config.retries, cap=config.enumeration_cap,
            )
        else:
            with open(args.rep, "r", encoding="utf-8") as fh:
                rep = representation_from_json(_parse_json(fh.read(), args.rep))
            if rep.quiver != q:
                raise QuiverMismatch(f"{args.rep} is a representation of another quiver than {args.file}")
            value = cc_module(rep, cap=config.enumeration_cap)
        _emit_poly(value, config)
        return 0

    if args.command == "genchar":
        gamma = _int_vector(args.gamma, q.n, "--gamma")
        cache = CharacterCache(config.cache_path)
        value = generic_character(
            q, gamma, rng_seed=config.rng_seed, bound=config.sample_bound,
            retries=config.retries, cap=config.enumeration_cap, cache=cache,
        )
        _emit_poly(value, config)
        return 0

    if args.command == "gendecomp":
        d = _int_vector(args.dim, q.n, "--dim")
        betas = generic_decomposition(q, d, rng_seed=config.rng_seed, bound=config.sample_bound, retries=config.retries)
        if config.output == "json":
            print(json.dumps({"betas": [list(b) for b in betas]}, sort_keys=True))
        else:
            print(" + ".join(str(tuple(b)) for b in betas) if betas else "0")
        return 0

    if args.command == "vgendecomp":
        alpha = _int_vector(args.alpha, q.n, "--alpha")
        betas, shift = virtual_generic_decomposition(
            q, alpha, rng_seed=config.rng_seed, bound=config.sample_bound, retries=config.retries
        )
        if config.output == "json":
            print(json.dumps({"betas": [list(b) for b in betas], "gamma": list(shift)}, sort_keys=True))
        else:
            beta_text = " + ".join(str(tuple(b)) for b in betas) if betas else "0"
            print(f"betas: {beta_text}")
            print(f"gamma: {tuple(shift)}")
        return 0

    if args.command == "mutate":
        try:
            seq = [int(x) for x in args.at.replace(",", " ").split()]
        except ValueError:
            raise SystemExit2(f"--at must be a comma-separated vertex sequence, got {args.at!r}")
        seed = initial_seed(q)
        for k in seq:
            seed = mutate_seed(seed, k)
        if config.output == "json":
            print(json.dumps({"b": [list(r) for r in seed.b], "cluster": [c.to_json() for c in seed.cluster]}, sort_keys=True))
        else:
            for i, c in enumerate(seed.cluster, start=1):
                print(f"x{i} = {c.to_text()}")
            print(f"B = {[list(r) for r in seed.b]}")
        return 0

    if args.command == "enumerate":
        if args.limit is not None and args.limit < 1:
            raise SystemExit2(f"--limit must be a positive integer, got {args.limit}")
        if args.limit is None and not is_dynkin(q):
            raise NotFiniteType(f"quiver {q.key()} is not Dynkin, so its cluster type is infinite; pass --limit")
        result = enumerate_seeds(q) if args.limit is None else enumerate_seeds(q, limit=args.limit)
        if config.output == "json":
            print(json.dumps(result.to_json(), sort_keys=True))
        else:
            print(f"clusters: {len(result.seeds)}")
            print(f"variables: {len(result.variables)}")
            print(f"closed: {str(result.closed).lower()}")
            for v in result.variables:
                print(v.to_text())
        return 0 if result.closed else 1

    if args.command == "verify":
        report = run_suite(args.suite, q, config)
        if config.output == "json":
            print(json.dumps(report.to_json(), sort_keys=True))
        else:
            for line in report.lines():
                print(line)
        return 0 if report.passed else 1

    raise SystemExit2(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _make_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    try:
        return _run(args, config)
    except SystemExit2 as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClusterCharError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 3 if exc.internal else 1
    except Exception as exc:  # internal bug
        print(f"error: Internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
