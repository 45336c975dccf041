"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 search budget exceeded,
4 any other error: an index or diagram the engine cannot handle, or a
catalog file that cannot be opened, read or written.

``main(argv)`` may be called repeatedly in one process: the argument parser
is built on the first call and reused by every later one.  It returns the
exit code and raises no ``SystemExit``, not even for a malformed command
line or ``--help``.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .catalog import build_record, enumerate_gr, enumerate_og, write_catalog
from .degeneration import expand, is_admissible, merge_primes, pushforward
from .diagrams import parse_diagram, print_diagram
from .errors import SearchBudgetExceeded, SrkError, ValidationError
from .grassmannian import GrIndex, gr_dimension, validate_gr
from .orthogonal import og_dimension, validate_og
from .rigidity import classify_og, find_nonrigid_witness


def _int_list(text):
    text = (text or "").strip()
    if text in ("", "-"):
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}")


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="srk",
        description="Schubert classes in orthogonal Grassmannians: expansion, "
        "pushforward, and rigidity classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    space = argparse.ArgumentParser(add_help=False)
    space.add_argument("--space", choices=["g", "og"], required=True)
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--k", type=int, required=True)
    size.add_argument("--n", type=int, required=True)
    # an index: the size, then the parts; a missing --b is the empty list
    index = argparse.ArgumentParser(add_help=False, parents=[size])
    index.add_argument("--a", required=True, help="comma-separated list, or - for empty")
    index.add_argument("--b", default=None)
    index.add_argument("--prime", action="store_true")

    p = sub.add_parser("classify", parents=[space, index], help="rigidity report for one index")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("expand", help="expand a diagram into Schubert classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--merge-primes", action="store_true")

    sub.add_parser("pushforward", parents=[index], help="class in G(k,n) of an OG index")

    p = sub.add_parser(
        "enumerate", parents=[space, size], help="classify a whole space into a catalog"
    )
    p.add_argument("--filter", choices=["rigid", "nonrigid", "all"], default="all")
    p.add_argument("--out", required=True)

    p = sub.add_parser("witness", parents=[index], help="search a non-rigidity witness diagram")
    p.add_argument("--position", required=True, metavar="{a|b}:I")
    p.add_argument("--budget", type=int, default=None)

    sub.add_parser("dim", parents=[space, index], help="dimension of a Schubert variety")

    p = sub.add_parser("parse", help="parse a diagram and print its canonical form")
    p.add_argument("text")

    return parser


def _og_index(args):
    return validate_og(args.k, args.n, _int_list(args.a), _int_list(args.b), args.prime)


def _gr_index(args):
    if args.b or args.prime:
        raise ValidationError("--b/--prime only apply to --space og")
    return validate_gr(args.k, args.n, _int_list(args.a))


def _cmd_classify(args):
    if args.space == "g":
        x = _gr_index(args)
        rec = build_record(x)
        if args.json:
            print(
                json.dumps(
                    {
                        "space": rec.space,
                        "k": rec.k,
                        "n": rec.n,
                        "a": list(rec.a),
                        "dim": rec.dim,
                        "essential": list(rec.essential_a),
                        "verdicts": list(rec.rigid_a),
                        "class_rigid": rec.class_rigid,
                        "envelope": list(rec.envelope),
                    }
                )
            )
            return 0
        print(f"{x} @ G({x.k},{x.n})   dim {rec.dim}")
        for i, token in enumerate(rec.rigid_a, start=1):
            print(f"  a_{i} = {x.a[i - 1]}: {token}")
        print(f"  class rigid: {'yes' if rec.class_rigid else 'no'}")
        print(f"  envelope: {GrIndex(x.k, x.n, rec.envelope)}")
        return 0
    x = _og_index(args)
    rep = classify_og(x)
    dim = og_dimension(x)
    if args.json:
        out = rep.to_json_dict()
        out["dim"] = dim
        print(json.dumps(out))
        return 0
    print(f"{x} @ OG({x.k},{x.n})   dim {dim}")
    for i, v in enumerate(rep.a_verdicts, start=1):
        print(f"  a_{i} = {x.a[i - 1]}: {v.token()}" + (f"  ({v.note})" if v.note else ""))
    for j, v in enumerate(rep.b_verdicts, start=1):
        print(f"  b_{j} = {x.b[j - 1]}: {v.token()}" + (f"  ({v.note})" if v.note else ""))
    agree = "methods agree" if rep.method_agreement else "methods disagree"
    print(f"  class rigid: {'yes' if rep.class_rigid else 'no'} ({agree})")
    if rep.warnings:
        print(f"  warnings: {', '.join(rep.warnings)}")
    return 0


def _cmd_expand(args):
    D = parse_diagram(args.diagram)
    if D.m != args.n:
        raise ValidationError(f"--n {args.n} does not match the {D.m}-digit diagram")
    if args.trace:
        result, root = expand(D, trace=True)
    else:
        result = expand(D)
    if args.merge_primes:
        result = merge_primes(result)
    print(f"[{print_diagram(D)}] = {result}")
    if args.trace:
        print(root.render())
        print("trace-json: " + json.dumps(root.to_json_dict(), separators=(",", ":")))
    return 0


def _cmd_pushforward(args):
    x = _og_index(args)
    print(f"i_*({x}) = {pushforward(x)}")
    return 0


def _cmd_enumerate(args):
    if args.space == "g":
        records = [build_record(x) for x in enumerate_gr(args.k, args.n)]
    else:
        records = [build_record(x) for x in enumerate_og(args.k, args.n)]
    if args.filter == "rigid":
        records = [r for r in records if r.class_rigid]
    elif args.filter == "nonrigid":
        records = [r for r in records if not r.class_rigid]
    write_catalog(records, args.out)
    print(f"{len(records)} records -> {args.out}")
    return 0


def _cmd_witness(args):
    kind, sep, raw = args.position.partition(":")
    if sep != ":" or kind not in ("a", "b") or not re.fullmatch(r"-?[0-9]+", raw):
        raise ValidationError(f"--position must look like a:2 or b:1, got {args.position!r}")
    x = _og_index(args)
    D = find_nonrigid_witness(x, (kind, int(raw)), budget=args.budget)
    print("none" if D is None else print_diagram(D))
    return 0


def _cmd_dim(args):
    if args.space == "g":
        print(gr_dimension(_gr_index(args)))
    else:
        print(og_dimension(_og_index(args)))
    return 0


def _cmd_parse(args):
    D = parse_diagram(args.text)
    print(print_diagram(D))
    print(f"m={D.m} k={D.k} s={D.s} admissible={'yes' if is_admissible(D) else 'no'}")
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "expand": _cmd_expand,
    "pushforward": _cmd_pushforward,
    "enumerate": _cmd_enumerate,
    "witness": _cmd_witness,
    "dim": _cmd_dim,
    "parse": _cmd_parse,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits after printing usage: 2 for an error, 0 for --help
        return exc.code
    try:
        return _COMMANDS[args.command](args)
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SrkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
