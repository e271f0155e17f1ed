"""Batch command-line front end: enumeration, Eckmann-Hilton checks, and
connectivity reports, with deterministic file output.

Exit codes: 0 success, 1 invalid input, 2 resource guard breached,
3 theorem violation (falsifying evidence; never a user error).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .connectivity import (conn_join_bound, disk_conn_c2,
                           non_additivity_witness)
from .errors import (CutoffOverflowError, GuardExceededError,
                     TheoremViolation, ValidationError)
from .groups import FiniteGroup, cyclic_group
from .indexing import (ALL_LEVEL_GUARD, LEVEL_GUARD, default_cutoff,
                       enumerate_systems, enumerate_transfer_systems)
from .magmas import eckmann_hilton, pair_from_json, sweep
from .poset import LATTICE_GUARD, fingerprint

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GUARD = 2
EXIT_THEOREM = 3


def _group(spec: str) -> FiniteGroup:
    if spec.startswith("cyclic:"):
        try:
            return cyclic_group(int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ValidationError(f"bad cyclic order in {spec!r}") from exc
    path = Path(spec)
    if not path.is_file():
        raise ValidationError(f"group spec {spec!r} is neither cyclic:n "
                              "nor a readable table file")
    return FiniteGroup.from_json(path.read_text())


def _emit(args, export):
    """Write an export, a string or `write(fh)` that streams one, to the
    --output file, or to stdout ending on a newline.  A reader that closes
    stdout early on a streamed export has all it wanted: exit 0."""
    write = export if callable(export) else lambda fh: fh.write(export)
    if args.output:
        with open(args.output, "w") as fh:
            write(fh)
    elif callable(export):
        try:
            export(sys.stdout)
            print(flush=True)
        except BrokenPipeError:
            # the flush at exit then writes what is left to nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        sys.stdout.write(export if export.endswith("\n") else export + "\n")


def cmd_enumerate(args) -> int:
    group = _group(args.group)
    if args.transfer_systems:
        for flag, value in (("--cutoff", args.cutoff),
                            ("--filter", args.filter)):
            if value is not None:
                raise ValidationError(f"--transfer-systems does not read {flag}")
        poset = enumerate_transfer_systems(group)
        kind = "transfer systems"
    else:
        which = "all" if args.filter is None else args.filter
        poset = enumerate_systems(group, args.cutoff, which)
        kind = f"weak indexing systems ({which})"
    cutoff = default_cutoff(group) if args.cutoff is None else args.cutoff
    print(f"{group.name}: {len(poset)} {kind}"
          + ("" if args.transfer_systems else f" at cutoff {cutoff}"))
    if args.format == "dot":
        _emit(args, poset.to_dot("nodes"))
    elif args.format == "json" or args.output:
        _emit(args, poset.write_json)
    return EXIT_OK


def cmd_eh_check(args) -> int:
    if args.pair is not None:
        pair = pair_from_json(Path(args.pair).read_text(),
                              norm_axiom=args.norm_axiom)
        sm = eckmann_hilton(pair, norm_axiom=args.norm_axiom)
        print(f"PASS: pair of size ({pair.base.size_e},{pair.base.size_g}) "
              "lifts to a semi-Mackey functor")
        if args.output:
            _emit(args, json.dumps({"verdict": "PASS", "p": pair.base.p,
                                    "t": list(sm.t)}, sort_keys=True))
        return EXIT_OK
    if args.sweep is None:
        raise ValidationError("eh-check needs --pair or --sweep")
    (max_e, max_g), p = args.sweep, args.p
    pairs, sms = sweep(p, max_e, max_g, norm_axiom=args.norm_axiom)
    pair_keys, sm_keys = sorted(pairs), sorted(sms)
    for k in pair_keys:
        eckmann_hilton(pairs[k], norm_axiom=args.norm_axiom)
    bijection = pair_keys == sm_keys if args.norm_axiom else \
        set(pair_keys) <= set(sm_keys)
    print(f"sweep p={p} bounds ({max_e},{max_g}): {len(pairs)} interchanging "
          f"pairs, {len(sms)} semi-Mackey functors, 0 violations")
    print(f"pair/semi-Mackey correspondence: "
          f"{'bijective' if pair_keys == sm_keys else 'pairs embed'}")
    if not bijection:
        raise TheoremViolation("sweep does not embed into semi-Mackey functors")
    if args.output:
        _emit(args, json.dumps({"pairs": len(pairs), "semi_mackey": len(sms),
                                "violations": 0}, sort_keys=True))
    return EXIT_OK


def _resolve_node(poset, labels, spec: str):
    matches = [k for k, lab in enumerate(labels) if lab.startswith(spec)]
    if spec == "trivial":
        matches = poset.minimal()
    elif spec == "complete":
        matches = poset.maximal()
    if len(matches) != 1:
        raise ValidationError(
            f"node spec {spec!r} matches {len(matches)} nodes "
            "(use a fingerprint prefix, 'trivial', or 'complete')")
    return matches[0]


def cmd_conn(args) -> int:
    if args.ev_witness is not None:
        rep = non_additivity_witness(*args.ev_witness)
        print(f"lhs bound {rep['lhs_bound']} < rhs {rep['rhs']}: "
              f"{rep['strict']}  [{rep['provenance']}]")
        if args.output:
            _emit(args, json.dumps({k: str(v) for k, v in rep.items()},
                                  sort_keys=True))
        return EXIT_OK
    if args.ev is not None:
        a, b = args.ev
        if args.ev_set is None:
            raise ValidationError("--ev needs --set")
        try:
            parts = [int(x) for x in args.ev_set.split(",")]
        except ValueError as exc:
            raise ValidationError(f"--set needs integers: {args.ev_set!r}") from exc
        if args.level == "e":
            if len(parts) != 1:
                raise ValidationError("level e arity is a single count")
            arity = ("e", parts[0])
        else:
            if len(parts) != 2:
                raise ValidationError("level G arity is 'fixed,free'")
            arity = ("G", parts[0], parts[1])
        value = disk_conn_c2(a, b, arity)
        print(f"conn({a}+{b}s at {arity}) = {value}")
        if args.output:
            _emit(args, json.dumps({"value": str(value)}, sort_keys=True))
        return EXIT_OK
    if not args.all_pairs and args.nodes is None:
        raise ValidationError(
            "conn needs --all-pairs, --nodes, --ev, or --ev-witness")
    group = _group(args.group)
    poset = enumerate_systems(group, args.cutoff, "almost_unital")
    labels = poset.labels()
    if args.nodes is not None:
        i_node = poset.nodes[_resolve_node(poset, labels, args.nodes[0])]
        j_node = poset.nodes[_resolve_node(poset, labels, args.nodes[1])]
        rep = conn_join_bound(i_node, j_node, poset)
        print(f"{group.name}: join bound "
              f"{'holds' if rep.holds else 'FAILS'}; "
              f"{len(rep.strict_witnesses)} strict witnesses")
        table = {lab: {"lhs": str(rep.lhs[k]), "rhs": str(rep.rhs[k])}
                 for k, lab in enumerate(labels)}
        if args.output:
            _emit(args, json.dumps(table, sort_keys=True,
                                  separators=(",", ":")))
        if not rep.holds:
            raise TheoremViolation("join bound failed")
        return EXIT_OK
    failures = 0
    lines = []
    table = {}
    prints = [fingerprint(node.value_key()) for node in poset.nodes]
    for i_node, i_print in zip(poset.nodes, prints):
        for j_node, j_print in zip(poset.nodes, prints):
            rep = conn_join_bound(i_node, j_node, poset)
            if not rep.holds:
                failures += 1
            key = f"{i_print}*{j_print}"
            table[key] = {"holds": rep.holds,
                          "strict": [labels[k] for k in rep.strict_witnesses]}
            if rep.strict_witnesses:
                lines.append(f"  strict at {key}: "
                             + ",".join(labels[k] for k in rep.strict_witnesses))
    print(f"{group.name}: join bound checked on {len(poset)}^2 pairs, "
          f"{failures} failures")
    for line in lines[:20]:
        print(line)
    if args.output:
        _emit(args, json.dumps(table, sort_keys=True, separators=(",", ":")))
    if failures:
        raise TheoremViolation(f"join bound failed on {failures} pairs")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equialg",
        description="finite G-set calculus, weak indexing systems, and "
                    "Eckmann-Hilton checks")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {"--group": dict(metavar="GROUP_SPEC", default="cyclic:2",
                              help="cyclic:n or a path to a group JSON table"),
              "--cutoff": dict(type=int, default=None),
              "--output": dict(default=None),
              "--format": dict(default="text", choices=["json", "dot", "text"]),
              "--norm-axiom": dict(
                  action="store_true",
                  help="read multiplication-by-p as the orbit product")}

    def options(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p_enum = sub.add_parser("enumerate", help="enumerate indexing posets")
    options(p_enum, "--group", "--cutoff", "--output", "--format")
    p_enum.add_argument(
        "--filter", default=None, choices=["all", "unital", "almost_unital"],
        help=f"'all' (the default) is guarded at {ALL_LEVEL_GUARD} level "
             "classes, which cyclic:4 exceeds at its default cutoff; "
             f"'unital' and 'almost_unital' are guarded at {LEVEL_GUARD}; "
             f"an enumeration stops past {LATTICE_GUARD} closed sets; "
             "a smaller --cutoff also helps")
    p_enum.add_argument("--transfer-systems", action="store_true")

    p_eh = sub.add_parser("eh-check", help="Eckmann-Hilton verification")
    options(p_eh, "--output", "--norm-axiom")
    eh_mode = p_eh.add_mutually_exclusive_group()
    eh_mode.add_argument("--pair", default=None, help="pair JSON file")
    eh_mode.add_argument("--sweep", nargs=2, type=int,
                         metavar=("MAX_E", "MAX_G"))
    p_eh.add_argument("--p", type=int, default=2)

    p_conn = sub.add_parser("conn", help="connectivity reports")
    options(p_conn, "--group", "--cutoff", "--output")
    conn_mode = p_conn.add_mutually_exclusive_group()
    conn_mode.add_argument("--all-pairs", action="store_true")
    conn_mode.add_argument("--nodes", nargs=2, metavar=("I", "J"),
                           help="two node fingerprints (or trivial/complete)")
    conn_mode.add_argument("--ev", nargs=2, type=int, metavar=("A", "B"))
    conn_mode.add_argument("--ev-witness", nargs=2, type=int,
                           metavar=("A_PRIME", "B"))
    p_conn.add_argument("--set", dest="ev_set", default=None)
    p_conn.add_argument("--level", default="G", choices=["e", "G"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"enumerate": cmd_enumerate, "eh-check": cmd_eh_check,
                "conn": cmd_conn}
    try:
        return commands[args.command](args)
    except TheoremViolation as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    except (GuardExceededError, CutoffOverflowError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
