"""Command-line front end.

Subcommands: ct (exact constant term), guess (conjecture a closed form),
prove / write-paper (certify and emit a proof document), turbo (complexity
sweep).  Exit codes: 0 success, 1 usage, 2 mathematical failure (no fit or
failed proof), 3 I/O failure (including a malformed store), 4 internal error
(any other exception).  The store path comes from --store, then the
DYSON_STORE environment variable, then ./dyson-store.json.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from typing import List, Optional, Sequence, Tuple

from .conjecture import DEFAULT_MAX_T, GuessError, GuessExhausted, guess_dyson
from .laurent import ct
from .paperdoc import build_document
from .prover import ProofError, Resolver, prove
from .render import ASCII, fmt_b_vector, fmt_closed_form, fmt_d_symbol
from .store import ResultStore, StoreIOError, store_path
from .turbo import turbo_dyson

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route through our own code
    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dysonct", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ct = sub.add_parser("ct", help="exact constant term of F_n(x; a; b)")
    p_ct.add_argument("-n", type=int, required=True)
    p_ct.add_argument("-a", type=_int_list, required=True, metavar="A1,A2,...")
    p_ct.add_argument("-b", type=_int_list, required=True, metavar="B1,B2,...")

    p_guess = sub.add_parser("guess", help="conjecture a closed form for d_n(a; b)")
    p_guess.add_argument("-n", type=int, required=True)
    p_guess.add_argument("-b", type=_int_list, required=True, metavar="B1,B2,...")
    p_guess.add_argument("--max-t", type=_nonnegative_int, default=DEFAULT_MAX_T, dest="max_t")
    p_guess.add_argument("--no-ansatz", action="store_true")

    for name in ("prove", "write-paper"):
        p = sub.add_parser(name, help="certify a closed form and emit a proof document")
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-b", type=_int_list, required=True, metavar="B1,B2,...")
        p.add_argument("--format", choices=("markdown", "latex"), default="markdown")
        p.add_argument("--out", default=None, help="output path for the document")
        p.add_argument("--store", default=None, help="result store path")
        p.add_argument("--max-t", type=_nonnegative_int, default=DEFAULT_MAX_T, dest="max_t")

    p_turbo = sub.add_parser("turbo", help="derive all closed forms up to a complexity")
    p_turbo.add_argument("-n", type=int, required=True)
    p_turbo.add_argument("-C", type=_nonnegative_int, required=True, dest="complexity")
    p_turbo.add_argument("--store", default=None, help="result store path")
    p_turbo.add_argument("--max-t", type=_nonnegative_int, default=DEFAULT_MAX_T, dest="max_t")

    return parser


_INT_LIST_RE = re.compile(r"^-?\d+(,-?\d+)*$")


def _merge_negative_values(argv: List[str]) -> List[str]:
    # argparse mistakes "-1,0,1" after "-b" for an option; glue such values on
    out: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("-a", "-b") and i + 1 < len(argv) and _INT_LIST_RE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_merge_negative_values(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "ct":
            return _cmd_ct(args)
        if args.command == "guess":
            return _cmd_guess(args)
        if args.command in ("prove", "write-paper"):
            return _cmd_prove(args)
        if args.command == "turbo":
            return _cmd_turbo(args)
        raise AssertionError(args.command)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuessExhausted as exc:
        print(
            f"no closed form found: {exc} "
            f"(retry with a larger --max-t)",
            file=sys.stderr,
        )
        return EXIT_MATH
    except (ProofError, GuessError) as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (StoreIOError, OSError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _cmd_ct(args) -> int:
    try:
        value = ct(args.n, args.a, args.b)
    except ValueError as exc:
        raise _UsageError(str(exc))
    print(value)
    return EXIT_OK


def _cmd_guess(args) -> int:
    if args.n < 1:
        raise _UsageError("guess requires n >= 1")
    if len(args.b) != args.n:
        raise _UsageError("-b must carry exactly n integers")
    form = guess_dyson(args.n, args.b, max_t=args.max_t, use_ansatz=not args.no_ansatz)
    print(f"{fmt_d_symbol(args.n, args.b, ASCII)} = {fmt_closed_form(form, ASCII)}")
    return EXIT_OK


def _default_doc_name(n: int, b: Tuple[int, ...], fmt: str) -> str:
    tag = "_".join(str(x).replace("-", "m") for x in b)
    ext = "tex" if fmt == "latex" else "md"
    return f"proof_n{n}_b{tag}.{ext}"


def _record_tree(store: ResultStore, cert) -> int:
    """Record a certificate and then its dependency tree, pre-order, each
    as a base case or else as guessed; returns the entries added."""
    added = store.record(cert, {"kind": "base" if cert.base_case else "guessed"})
    return added + sum(_record_tree(store, dep) for dep in cert.dependencies)


def _cmd_prove(args) -> int:
    if args.n < 2:
        raise _UsageError(f"{args.command} requires n >= 2")
    if len(args.b) != args.n:
        raise _UsageError("-b must carry exactly n integers")
    path = store_path(args.store)
    store = ResultStore.load(path)
    resolver = Resolver(max_t=args.max_t)
    store.seed(resolver)
    cert = prove(args.n, args.b, resolver)
    document = build_document(cert, args.format)
    out_path = args.out or _default_doc_name(args.n, tuple(args.b), args.format)
    with open(out_path, "w") as fh:
        fh.write(document)
    added = _record_tree(store, cert)
    if added:
        store.save(path)
    print(f"certified {fmt_d_symbol(args.n, args.b, ASCII)}")
    print(f"document written to {out_path}")
    print(f"store {'updated' if added else 'unchanged'} at {path}")
    return EXIT_OK


def _cmd_turbo(args) -> int:
    if args.n < 2:
        raise _UsageError("turbo requires n >= 2")
    path = store_path(args.store)
    store = ResultStore.load(path)
    loaded = len(store)
    resolver = Resolver(max_t=args.max_t)
    started = time.perf_counter()
    try:
        result = turbo_dyson(args.n, args.complexity, store=store, resolver=resolver)
    finally:
        # a sweep that stops early still keeps the entries it certified
        if len(store) > loaded:
            store.save(path)
    elapsed = time.perf_counter() - started
    width = max((len(fmt_b_vector(l.b, ASCII)) for l in result.lines), default=8)
    for line in result.lines:
        label = fmt_b_vector(line.b, ASCII).ljust(width)
        if line.status == "cached":
            print(f"{label}  cached")
        elif line.status == "new":
            src = f" from {fmt_b_vector(line.source_b, ASCII)}" if line.source_b else ""
            print(f"{label}  {line.provenance}{src}  {line.elapsed:.2f}s")
        else:
            print(f"{label}  FAILED: {line.error}")
    print(f"{result.added} new entries ({elapsed:.2f}s total); store at {path}")
    if result.failures:
        return EXIT_MATH
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
