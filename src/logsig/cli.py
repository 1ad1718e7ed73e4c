"""Command-line front end.

Exit codes are a stable contract: 0 success or pass, 1 semantic failure
(verification failed, flagged claim row, non-member element), 2 usage or
input error.  Every command is a batch computation, deterministic given its
flags; ``--json`` switches to line-delimited machine-readable records.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations
from math import lcm

from .arith import factor_integer
from .catalog import (check_claim_arithmetic, load_verified_chain,
                      read_group_file, sporadic_claims)
from .chain import StabilizerChain, build_chain
from .construct import (DEFAULT_SEARCH_CAP, build_mls, chain_ls, mls_cyclic,
                        mls_solvable, CyclicSetSpec)
from .factorize import (FactorizationError, TameIndexer, factorize_generic,
                        factorize_tame, reconstruct)
from .perm import parse_cycles
from .pgm import decrypt, encrypt, keygen, read_key, write_key
from .signature import (DEFAULT_BUDGET, is_minimal, ls_length, minimal_length,
                        read_ls, verify_exhaustive, verify_structural, write_ls)

OK, FAIL, USAGE = 0, 1, 2


def _emit(args, record: dict, text: str) -> None:
    if args.json:
        print(json.dumps(record))
    else:
        print(text)


def _read(path: str, reader, *extra):
    """``reader(path, *extra)``, with the file name on any input error."""
    try:
        return reader(path, *extra)
    except (OSError, ValueError) as e:
        raise ValueError("cannot read %s: %s" % (path, e)) from e


def _load_chain(args) -> StabilizerChain:
    if args.group_file:
        return build_chain(_read(args.group_file, read_group_file))
    if not args.group:
        raise ValueError("%s needs --group or --group-file" % args.command)
    return load_verified_chain(args.group)


def _read_signature(args, chain: StabilizerChain):
    """The ``--ls`` file, which must have the group's degree."""
    ls = _read(args.ls, read_ls)
    if ls.degree != chain.degree:
        raise ValueError("degree mismatch: %s has degree %d, group %s has degree %d"
                         % (args.ls, ls.degree, args.group or args.group_file,
                            chain.degree))
    return ls


def _at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError("%s must be at least 1, got %d" % (flag, value))


def _add_group_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--group", help="bundled group name (see 'info --list')")
    g.add_argument("--group-file", help="generator file path")


def cmd_info(args) -> int:
    if args.list:
        from .catalog import bundled_group_names
        for name in bundled_group_names():
            print(name)
        print("C<n>, D<n>, S<n>, A<n>")
        return OK
    chain = _load_chain(args)
    f = factor_integer(chain.order)
    orbits = [len(lv.orbit) for lv in chain.levels]
    record = {
        "group": chain.name,
        "degree": chain.degree,
        "order": chain.order,
        "order_factorization": str(f),
        "minimal_length": minimal_length(f),
        "orbit_sizes": orbits,
        "base": [p + 1 for p in chain.base],
    }
    _emit(args, record,
          "group:          %s\ndegree:         %d\norder:          %d = %s\n"
          "minimal length: %d\norbit sizes:    %s\nbase points:    %s"
          % (chain.name or "(file)", chain.degree, chain.order, f,
             record["minimal_length"], orbits, record["base"]))
    return OK


def cmd_construct(args) -> int:
    _at_least_one("--search-cap", args.search_cap)
    chain = _load_chain(args)
    method = args.method
    if method == "auto":
        ls = build_mls(chain, cap=args.search_cap)
    elif method == "chain":
        ls = chain_ls(chain)
    elif method == "solvable":  # raises ValueError for a non-solvable group
        ls = mls_solvable(chain)
    else:  # cyclic iff the generators commute and their orders have lcm |G|
        gens = chain.generators.gens
        if lcm(*(g.order() for g in gens)) != chain.order or any(
                a * b != b * a for a, b in combinations(gens, 2)):
            raise ValueError("group is not cyclic")
        gen = next(g for g in chain.elements() if g.order() == chain.order)
        ls = mls_cyclic(CyclicSetSpec(gen, chain.order))
    f = factor_integer(chain.order)
    minimal = is_minimal(ls, f)
    if args.out:
        write_ls(ls, args.out)
    record = {
        "group": chain.name,
        "method": method,
        "length": ls_length(ls),
        "minimal_length": minimal_length(f),
        "minimal": minimal,
        "block_sizes": list(ls.block_sizes),
        "out": args.out,
    }
    _emit(args, record,
          "length: %d (bound %d)\nminimal: %s\nblock sizes: %s%s"
          % (record["length"], record["minimal_length"],
             str(minimal).lower(), record["block_sizes"],
             "\nwrote %s" % args.out if args.out else ""))
    return OK


def cmd_verify(args) -> int:
    _at_least_one("--budget", args.budget)
    chain = _load_chain(args)
    ls = _read_signature(args, chain)
    mode = args.mode
    if mode == "auto":
        mode = "exhaustive" if ls.product_count() <= args.budget else "structural"
    if mode == "exhaustive":
        report = verify_exhaustive(ls, chain, budget=args.budget)
    else:
        report = verify_structural(ls, chain)
    record = {
        "verdict": "pass" if report.ok else "fail",
        "method": report.method,
        "products_checked": report.products_checked,
        "collision": list(map(list, report.collision)) if report.collision else None,
        "detail": report.detail,
    }
    text = "%s (%s, %d products checked)" % (
        record["verdict"], report.method, report.products_checked)
    if report.detail:
        text += "\n" + report.detail
    if report.collision:
        text += "\ncollision: %s = %s" % report.collision
    _emit(args, record, text)
    return OK if report.ok else FAIL


def cmd_factorize(args) -> int:
    _at_least_one("--budget", args.budget)
    chain = _load_chain(args)
    ls = _read_signature(args, chain)
    g = parse_cycles(args.element, chain.degree)
    try:
        if ls.provenance.tag in ("chain", "refined"):
            digits = factorize_tame(g, TameIndexer(ls, chain))
        else:
            digits = factorize_generic(g, ls, budget=args.budget)
    except FactorizationError as e:
        _emit(args, {"verdict": "fail", "detail": str(e)}, "fail: %s" % e)
        return FAIL
    ok = reconstruct(ls, digits) == g
    record = {"verdict": "pass" if ok else "fail",
              "digits": list(digits), "reconstructs": ok}
    _emit(args, record, "digits: %s\nreconstructs: %s"
          % (list(digits), str(ok).lower()))
    return OK if ok else FAIL


def cmd_table_check(args) -> int:
    rows = sporadic_claims()
    if args.row:
        rows = tuple(r for r in rows if r.group == args.row)
        if not rows:
            raise ValueError("no claim row named %r" % args.row)
    any_flagged = False
    for claim in rows:
        report = check_claim_arithmetic(claim)
        any_flagged |= not report.ok
        record = {
            "group": report.group,
            "verdict": "pass" if report.ok else "flagged",
            "factorization_matches_index": report.factorization_matches_index,
            "index_times_stabilizer_matches_order":
                report.index_times_stabilizer_matches_order,
            "order_product_wellformed": report.order_product_wellformed,
            "details": list(report.details),
        }
        _emit(args, record, "%-6s %s%s"
              % (report.group, "pass" if report.ok else "FLAGGED",
                 "".join("\n       " + d for d in report.details)))
    return FAIL if any_flagged else OK


def cmd_pgm_keygen(args) -> int:
    chain = _load_chain(args)
    key = keygen(chain, args.seed)
    write_key(key, args.out)
    _emit(args, {"group": chain.name, "seed": args.seed,
                 "message_space": key.message_space, "out": args.out},
          "wrote %s (message space %d)" % (args.out, key.message_space))
    return OK


def cmd_pgm_apply(args) -> int:
    chain = _load_chain(args)
    key = _read(args.key, read_key, chain)
    result = args.op(key, args.value)
    _emit(args, {"action": args.action, "input": args.value, "output": result},
          str(result))
    return OK


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="logsig",
        description="Construct, verify, refine and factorize logarithmic "
                    "signatures of finite permutation groups.")
    top.add_argument("--json", action="store_true",
                     help="line-delimited machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="degree, order, factorization, minimal length")
    _add_group_args(p, required=False)
    p.add_argument("--list", action="store_true", help="list bundled group names")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("construct", help="build a signature and write it")
    _add_group_args(p)
    p.add_argument("--method", choices=("auto", "chain", "solvable", "cyclic"),
                   default="auto")
    p.add_argument("--out", help="signature output path")
    p.add_argument("--search-cap", type=int, default=DEFAULT_SEARCH_CAP,
                   help="candidate cap per cyclic-set size in the refinement search")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="check a signature against a group")
    _add_group_args(p)
    p.add_argument("--ls", required=True, help="signature file")
    p.add_argument("--mode", choices=("exhaustive", "structural", "auto"),
                   default="auto")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max products for exhaustive verification (every "
                        "product counts, whether or not its key is stored)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("factorize", help="digits of an element under a signature")
    _add_group_args(p)
    p.add_argument("--ls", required=True, help="signature file")
    p.add_argument("--element", required=True, help="element in cycle notation")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max products meet-in-the-middle composes to factorize "
                        "a signature tagged other than chain or refined; one "
                        "whose runs can be read off its entries is sifted "
                        "through them instead, which the budget does not limit")
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("table-check",
                       help="validate the bundled sporadic-group claim rows")
    p.add_argument("--row", help="check a single row by group name")
    p.set_defaults(fn=cmd_table_check)

    p = sub.add_parser("pgm", help="demonstration secret-key cipher")
    pgm_sub = p.add_subparsers(dest="action", required=True)

    pk = pgm_sub.add_parser("keygen", help="derive a key pair from a seed")
    _add_group_args(pk)
    pk.add_argument("--seed", type=int, required=True)
    pk.add_argument("--out", required=True, help="key output path")
    pk.set_defaults(fn=cmd_pgm_keygen)

    for action, op in (("encrypt", encrypt), ("decrypt", decrypt)):
        pa = pgm_sub.add_parser(action)
        _add_group_args(pa)
        pa.add_argument("--key", required=True, help="key file")
        pa.add_argument("value", type=int, help="message or ciphertext integer")
        pa.set_defaults(fn=cmd_pgm_apply, op=op)

    return top


def main(argv: list[str] | None = None) -> int:
    """Run one command; every input error exits 2 with one ``error:`` line."""
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else 0
    except (OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
