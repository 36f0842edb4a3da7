"""Command-line entry point.

Exit codes are a stable contract: 0 = all checks pass, 1 = mathematical
verdict "not equivalent / not guaranteed", 2 = input error, 3 = internal
certificate failure or internal error (a bug, reported with its traceback
on stderr).  Output is JSON on stdout unless --pretty is given.
"""

import argparse
import functools
import sys
import traceback

from .errors import CertificateError, ExtractionError, InputError, UnsupportedCenterError
from .funcfield import hilbert_symbol, require_odd_prime, support
from .jsonio import (
    dump_json,
    gmodule_from_json,
    load_json,
    parse_ratfunc,
    quadform_from_json,
)

EXIT_OK = 0
EXIT_NEGATIVE_VERDICT = 1
EXIT_INPUT = 2
EXIT_CERTIFICATE = 3

# Exceptions only a bug raises (ValueError is bad input): exit 3, never the verdict 1.
_BUG_CLASSES = (TypeError, AttributeError, LookupError, ArithmeticError, AssertionError, RuntimeError)


def _emit(data, args):
    if args.output:
        dump_json(data, args.output)
        return
    if args.pretty:
        _pretty_print(data)
    else:
        print(dump_json(data))


def _pretty_print(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for key in data:
            val = data[key]
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                print(f"{pad}{key}:")
                _pretty_print(val, indent + 1)
            else:
                print(f"{pad}{key}: {_flat(val)}")
    elif isinstance(data, list):
        for val in data:
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                _pretty_print(val, indent)
                print()
            else:
                print(f"{pad}- {_flat(val)}")
    else:
        print(f"{pad}{data}")


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _flat(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


def cmd_symbol(args):
    p = args.p
    a = parse_ratfunc(p, args.a)
    b = parse_ratfunc(p, args.b)
    if a.is_zero() or b.is_zero():
        raise InputError("symbol arguments must be nonzero")
    table = []
    prod = 1
    for v in support(a, b):
        s = hilbert_symbol(a, b, v)
        prod *= s
        table.append([str(v), s])
    data = {"a": str(a), "b": str(b), "symbols": table, "product": prod}
    _emit(data, args)
    return EXIT_OK


def cmd_ram(args):
    from .csa import Quaternion

    p = args.p
    a = parse_ratfunc(p, args.a)
    b = parse_ratfunc(p, args.b)
    H = Quaternion(a, b)
    ram = H.ramification_set()
    data = {
        "a": str(a),
        "b": str(b),
        "ramification": [str(v) for v in ram],
        "is_split": not ram,
    }
    _emit(data, args)
    return EXIT_OK


def cmd_qf_equiv(args):
    from .quadform import equivalent_global, invariants_report

    q1 = quadform_from_json(load_json(args.form1))
    q2 = quadform_from_json(load_json(args.form2))
    if q1.p != q2.p:
        raise InputError("forms live over different primes")
    verdict = equivalent_global(q1, q2)
    data = {
        "equivalent": verdict,
        "invariants": {
            "q1": invariants_report(q1),
            "q2": invariants_report(q2),
        },
    }
    _emit(data, args)
    return EXIT_OK if verdict else EXIT_NEGATIVE_VERDICT


def cmd_hp_check(args):
    from .grpalg import hp_verdict

    mdata = load_json(args.module)
    m = gmodule_from_json(mdata)
    form = None
    if args.form:
        form = quadform_from_json(load_json(args.form))
        if form.p != m.p:
            raise InputError("form and module live over different primes")
    if m.dim > 32 and not m.is_constant():
        raise InputError(
            "hp-check handles modules of dimension <= 32 unless the entries are "
            "F_p constants; use the counterexample pipeline for the tensor case"
        )
    verdict = hp_verdict(m, form)
    _emit(verdict, args)
    return EXIT_OK if verdict["verdict"] == "guaranteed" else EXIT_NEGATIVE_VERDICT


def cmd_counterexample(args):
    from .csa import Quaternion
    from .construct import counterexample_pipeline, default_quaternions

    p = args.p

    def parse_pair(text, default):
        if text is None:
            return default
        parts = text.split(",")
        if len(parts) != 2:
            raise InputError("quaternion must be given as 'a,b'")
        return Quaternion(parse_ratfunc(p, parts[0]), parse_ratfunc(p, parts[1]))

    default_h1, default_h2 = default_quaternions(p)
    h1 = parse_pair(args.h1, default_h1)
    h2 = parse_pair(args.h2, default_h2)
    report = counterexample_pipeline(h1, h2, sample_places=args.sample_places)
    _emit(report, args)
    return EXIT_OK


def cmd_verify_paper(args):
    from .verifypaper import run_paper_identities

    results = run_paper_identities(args.p)
    failed = [name for name, ok in results if not ok]
    for name, ok in results:
        print(("PASS " if ok else "FAIL ") + name)
    data = {"checks": [[name, ok] for name, ok in results], "all_pass": not failed}
    if args.output:
        dump_json(data, args.output)
    return EXIT_OK if not failed else EXIT_CERTIFICATE


@functools.cache
def build_parser():
    """The argument parser, built once per process: `parse_args` returns a
    fresh namespace on every call and leaves the parser unchanged."""
    prime = argparse.ArgumentParser(add_help=False)
    prime.add_argument("--p", type=int, default=3, help="odd prime (default 3)")
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="human-readable tables")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", help="write JSON to a file instead of stdout")
    ap = argparse.ArgumentParser(
        prog="gquadforms",
        description="Exact computation with G-quadratic forms over F_p(t)",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # no abbreviations: `--p` on a command without it must not mean `--pretty`
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    s = command("symbol", parents=[prime, pretty, output], help="Hilbert symbols of (a, b) on their support")
    s.add_argument("a")
    s.add_argument("b")
    s.set_defaults(fn=cmd_symbol)

    s = command("ram", parents=[prime, pretty, output], help="ramification set of the quaternion (a, b)")
    s.add_argument("a")
    s.add_argument("b")
    s.set_defaults(fn=cmd_ram)

    s = command("qf-equiv", parents=[pretty, output], help="Hasse-Minkowski global equivalence verdict")
    s.add_argument("form1")
    s.add_argument("form2")
    s.set_defaults(fn=cmd_qf_equiv)

    s = command("hp-check", parents=[pretty, output], help="sufficient-criterion verdict for a module")
    s.add_argument("module")
    s.add_argument("form", nargs="?", default=None)
    s.set_defaults(fn=cmd_hp_check)

    s = command(
        "counterexample", parents=[prime, pretty, output], help="full local-global counterexample pipeline"
    )
    s.add_argument("--h1", help="first quaternion as 'a,b' (default: c,t with c the smallest nonsquare mod p)")
    s.add_argument("--h2", help="second quaternion as 'a,b' (default: c,t^2-3*t+2)")
    s.add_argument("--sample-places", type=int, default=5)
    s.set_defaults(fn=cmd_counterexample)

    s = command("verify-paper", parents=[prime, output], help="re-run every pinned construction identity")
    s.set_defaults(fn=cmd_verify_paper)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if hasattr(args, "p"):
        try:
            require_odd_prime(args.p)
        except ValueError:
            print("error: --p must be an odd prime", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CertificateError, UnsupportedCenterError, ExtractionError) as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _BUG_CLASSES as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
