"""Command-line interface: every computation and verification suite, scriptable.

Exit codes: 0 pass, 1 fail (domain error or failed suite), 2 usage, 3 internal.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import reduce
from typing import Sequence

from .characters import cc_generic, cc_module
from .cluster import enumerate_seeds, initial_seed, mutate_seed
from .config import RunConfig, load_config
from .errors import ClusterCharError, NotFiniteType, ParseError, QuiverMismatch
from .generic import CharacterCache, generic_character, generic_decomposition, virtual_generic_decomposition
from .quiver import Quiver, is_dynkin, quiver_from_dict, quiver_from_text
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


def _read_text(path: str) -> str:
    """The contents of an input file; one that is not UTF-8 text is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _load_quiver(path: str) -> Quiver:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return quiver_from_dict(_parse_json(text, path))
    return quiver_from_text(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file (or $CLUSTERCHAR_CONFIG)")
    common.add_argument("--rng-seed", type=int, default=argparse.SUPPRESS, help="override the configured seed")
    common.add_argument("--sample-bound", type=int, default=argparse.SUPPRESS, help="entry range for generic samples")
    common.add_argument("--retries", type=int, default=argparse.SUPPRESS, help="certification retry rounds")
    common.add_argument("--cap", dest="enumeration_cap", metavar="CAP", type=int, default=argparse.SUPPRESS,
                        help="subspace enumeration cap")
    common.add_argument("--cache", dest="cache_path", metavar="CACHE", default=argparse.SUPPRESS,
                        help="character cache file")
    common.add_argument("--json", dest="output", action="store_const", const="json", default=argparse.SUPPRESS,
                        help="machine-readable output")

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
    """The config file (or defaults) with the command-line values over it, validated as a whole.

    An option that sets a config field stores under the field's name, and only when given.
    """
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)}
    return dataclasses.replace(load_config(getattr(args, "config", None)), **overrides)


def _betas_text(betas: Sequence[Sequence[int]]) -> str:
    return " + ".join(str(tuple(b)) for b in betas) if betas else "0"


def _result(args: argparse.Namespace, config: RunConfig) -> tuple[object, str, int]:
    """(JSON value, text form, exit code) of the command."""
    q = _load_quiver(args.file)
    if args.command == "quiver":
        return {"valid": True, **q.to_dict()}, f"valid quiver: {q.n} vertices, {len(q.arrows)} arrows", 0

    if args.command == "cc":
        if args.dim is not None:
            alpha = _int_vector(args.dim, q.n, "--dim")
            value = cc_generic(q, alpha, rng_seed=config.rng_seed, **config.library_kwargs())
        else:
            rep = representation_from_json(_parse_json(_read_text(args.rep), args.rep))
            if rep.quiver != q:
                raise QuiverMismatch(f"{args.rep} is a representation of another quiver than {args.file}")
            value = cc_module(rep, cap=config.enumeration_cap)
        return value.to_json(), value.to_text(), 0

    if args.command == "genchar":
        gamma = _int_vector(args.gamma, q.n, "--gamma")
        cache = CharacterCache(config.cache_path)
        value = generic_character(q, gamma, rng_seed=config.rng_seed, cache=cache, **config.library_kwargs())
        return value.to_json(), value.to_text(), 0

    if args.command == "gendecomp":
        d = _int_vector(args.dim, q.n, "--dim")
        betas = generic_decomposition(q, d, rng_seed=config.rng_seed, **config.library_kwargs(cap=False))
        return {"betas": [list(b) for b in betas]}, _betas_text(betas), 0

    if args.command == "vgendecomp":
        alpha = _int_vector(args.alpha, q.n, "--alpha")
        betas, shift = virtual_generic_decomposition(
            q, alpha, rng_seed=config.rng_seed, **config.library_kwargs(cap=False)
        )
        data = {"betas": [list(b) for b in betas], "gamma": list(shift)}
        return data, f"betas: {_betas_text(betas)}\ngamma: {tuple(shift)}", 0

    if args.command == "mutate":
        try:
            seq = [int(x) for x in args.at.replace(",", " ").split()]
        except ValueError:
            raise SystemExit2(f"--at must be a comma-separated vertex sequence, got {args.at!r}")
        seed = reduce(mutate_seed, seq, initial_seed(q))
        data = {"b": [list(r) for r in seed.b], "cluster": [c.to_json() for c in seed.cluster]}
        lines = [f"x{i} = {c.to_text()}" for i, c in enumerate(seed.cluster, start=1)]
        return data, "\n".join(lines + [f"B = {[list(r) for r in seed.b]}"]), 0

    if args.command == "enumerate":
        if args.limit is not None and args.limit < 1:
            raise SystemExit2(f"--limit must be a positive integer, got {args.limit}")
        if args.limit is None and not is_dynkin(q):
            raise NotFiniteType(f"quiver {q.key()} is not Dynkin, so its cluster type is infinite; pass --limit")
        result = enumerate_seeds(q) if args.limit is None else enumerate_seeds(q, limit=args.limit)
        lines = [f"clusters: {len(result.seeds)}", f"variables: {len(result.variables)}",
                 f"closed: {str(result.closed).lower()}"] + [v.to_text() for v in result.variables]
        return result.to_json(), "\n".join(lines), 0 if result.closed else 1

    if args.command == "verify":
        report = run_suite(args.suite, q, config)
        return report.to_json(), "\n".join(report.lines()), 0 if report.passed else 1

    raise SystemExit2(f"unknown command {args.command!r}")


def _run(args: argparse.Namespace, config: RunConfig) -> int:
    """Print the command's result, as sorted JSON under --json and as text otherwise."""
    data, text, code = _result(args, config)
    print(json.dumps(data, sort_keys=True) if config.output == "json" else text)
    return code


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
    except OSError as exc:  # a given path that cannot be read or written
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
