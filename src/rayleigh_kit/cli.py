"""Command-line front end.

Subcommands: verify, delta, certificate, tables, enumerate, sample.  Matroid
arguments name either a JSON file (basis or geometry form) or a catalog
instance such as ``K4``, ``fig2.III`` or ``U_2_5``.  Exit codes: 0 success /
everything verified, 1 a verification failure was found, 2 usage or input
errors.  A stdout closed early (``| head``) ends the run quietly with exit
code 1.  Output is byte-deterministic for a fixed invocation and seed.

Each subcommand imports the modules it runs when it runs, so a call pays
for compiling only those: ``enumerate`` never loads the certificate, the
Rayleigh-difference or the polynomial code, ``delta`` and ``sample`` never
load the certificate, and a MATROID given as a file never loads the catalog.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
from typing import TYPE_CHECKING, Optional

from . import GGHH, GGHI, GHIJ, REPORT_SCHEMA

if TYPE_CHECKING:
    from .certificate import CertificateReport
    from .matroid import Matroid

class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _load_matroid(token: str) -> tuple[Matroid, tuple[str, ...]]:
    """Interpret the MATROID argument as a file path or a catalog name.

    Returns the matroid with its loops removed, and the removed loops.
    """
    if os.path.exists(token):
        from .matroid import loads_matroid

        try:
            with open(token, "r", encoding="utf-8") as fh:
                m = loads_matroid(fh.read())
        except (ValueError, OSError) as exc:
            raise CliError(f"cannot load matroid file {token!r}: {exc}") from exc
    else:
        from .catalog import catalog_names, named

        try:
            m = named(token)
        except KeyError as exc:
            raise CliError(
                f"{token!r} is neither a file nor a catalog name "
                f"(catalog: {', '.join(catalog_names())}, or U_r_m)"
            ) from exc
        except ValueError as exc:  # a U_r_m name that names no uniform matroid
            raise CliError(f"cannot build {token!r}: {exc}") from exc
    loops = m.loops()
    if loops:
        # Loops never lie in a basis, so removing them changes no check.
        m = m.delete(loops)
    return m, loops


def _parse_pairs(
    m: Matroid, tokens: Optional[list[str]], loops: tuple[str, ...]
) -> list[tuple[str, str]]:
    if tokens:
        from .rayleigh import _pair_positions

        out = []
        for token in tokens:
            pieces = [p.strip() for p in token.split(",")]
            if len(pieces) != 2:
                raise CliError(f"--pairs expects 'e,f', got {token!r}")
            e, f = pieces
            for el in (e, f):
                if el in loops:
                    raise CliError(
                        f"element {el!r} is a loop of the input; "
                        "loops are removed before any check"
                    )
            try:
                _pair_positions(m, e, f)
            except ValueError as exc:
                raise CliError(str(exc)) from exc
            out.append((e, f))
        return out
    return list(itertools.combinations(m.elements, 2))


def _write_files(directory: str, files: list[tuple[str, str]]) -> None:
    """Create `directory` if needed and write each (name, text) into it.

    A path that cannot be a directory (an existing file, or a path below
    one) is an input error, exit 2; callers write here before they print,
    so nothing reaches stdout then.
    """
    try:
        os.makedirs(directory, exist_ok=True)
        for name, text in files:
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write to --out {directory!r}: {exc}") from exc


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _notes(loops: tuple[str, ...]) -> list[str]:
    return [f"removed loops: {', '.join(loops)}"] if loops else []


def _json_header(kind: str, args: argparse.Namespace, loops: tuple[str, ...]) -> dict:
    return {
        "schema": REPORT_SCHEMA, "kind": kind, "input": args.matroid, "notes": _notes(loops)
    }


def _print_notes(loops: tuple[str, ...]) -> None:
    for note in _notes(loops):
        print(f"note: {note}")


def _format_point(m: Matroid, point: dict) -> str:
    return ", ".join(f"{el}={point[el]}" for el in m.elements if el in point)


# ---------------------------------------------------------------------------
# verify


def _certify_all(
    m: Matroid, pairs: list[tuple[str, str]]
) -> list[CertificateReport]:
    from .certificate import certify

    try:
        return [certify(m, e, f) for e, f in pairs]
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_verify(args: argparse.Namespace) -> int:
    m, loops = _load_matroid(args.matroid)
    pairs = _parse_pairs(m, args.pairs, loops)
    if m.rank > 3:
        return _verify_sampled(args, m, loops, pairs)
    reports = _certify_all(m, pairs)
    all_ok = all(r.verdict for r in reports)
    if args.format == "json":
        _emit_json(
            {
                **_json_header("verify", args, loops),
                "rank": m.rank,
                "reports": [r.to_json_dict() for r in reports],
                "all_verified": all_ok,
            }
        )
    else:
        _print_notes(loops)
        for rep in reports:
            e, f = rep.pair
            if rep.verdict:
                detail = f"mode={rep.mode}"
                if rep.reduction_chain:
                    detail += f", deleted [{', '.join(rep.reduction_chain)}]"
                print(f"pair {{{e},{f}}}: certified ({detail})")
            else:
                print(
                    f"pair {{{e},{f}}}: NOT CERTIFIED (mode={rep.mode}; "
                    "dominance fails, which does not itself exhibit a "
                    "negative point)"
                )
        print(f"{sum(r.verdict for r in reports)}/{len(reports)} pairs certified")
    return 0 if all_ok else 1


def _verify_sampled(
    args: argparse.Namespace, m: Matroid, loops: tuple[str, ...],
    pairs: list[tuple[str, str]],
) -> int:
    from .rayleigh import negative_correlation_sample

    result = negative_correlation_sample(
        m, pairs=pairs, samples=args.samples, seed=args.seed
    )
    by_pair = {v.pair: v for v in result.violations}
    unverified = f"unverified (rank > 3): no negative point found in {args.samples} samples"
    if args.format == "json":
        _emit_json(
            {
                **_json_header("verify", args, loops),
                "rank": m.rank,
                "mode": "sampled",
                "samples": args.samples,
                "seed": args.seed,
                "reports": [
                    {
                        "pair": list(pair),
                        "status": "violation" if pair in by_pair else "unverified",
                        "violation_point": (
                            {el: str(w) for el, w in by_pair[pair].point.items()}
                            if pair in by_pair
                            else None
                        ),
                    }
                    for pair in pairs
                ],
                "all_verified": False,
                "violations": len(result.violations),
            }
        )
    else:
        _print_notes(loops)
        for pair in pairs:
            e, f = pair
            if pair in by_pair:
                point = _format_point(m, by_pair[pair].point)
                print(f"pair {{{e},{f}}}: VIOLATION at y = {point}")
            else:
                print(f"pair {{{e},{f}}}: {unverified}")
    return 1 if result.violations else 0


# ---------------------------------------------------------------------------
# delta


def cmd_delta(args: argparse.Namespace) -> int:
    from .poly import format_polynomial
    from .rayleigh import rayleigh_difference

    m, loops = _load_matroid(args.matroid)
    if args.e is not None or args.f is not None:
        if args.e is None or args.f is None:
            raise CliError("give both elements: delta MATROID E F")
        if args.pairs:
            raise CliError("use either positional E F or --pairs, not both")
        pairs = _parse_pairs(m, [f"{args.e},{args.f}"], loops)
    else:
        pairs = _parse_pairs(m, args.pairs, loops)
    deltas = [(pair, rayleigh_difference(m, *pair)) for pair in pairs]
    if args.format == "json":
        _emit_json(
            {
                **_json_header("delta", args, loops),
                "pairs": [
                    {"pair": list(pair), "delta": format_polynomial(d)}
                    for pair, d in deltas
                ],
            }
        )
    elif args.e is not None:
        # Single explicit pair: print the bare polynomial.
        print(format_polynomial(deltas[0][1]))
    else:
        _print_notes(loops)
        for (e, f), d in deltas:
            print(f"delta {{{e},{f}}}: {format_polynomial(d)}")
    return 0


# ---------------------------------------------------------------------------
# certificate


def cmd_certificate(args: argparse.Namespace) -> int:
    m, loops = _load_matroid(args.matroid)
    pairs = _parse_pairs(m, args.pairs, loops)
    reports = _certify_all(m, pairs)
    if args.format == "text":
        _print_notes(loops)
        for rep in reports:
            e, f = rep.pair
            verdict = "certified" if rep.verdict else "NOT CERTIFIED"
            print(f"pair {{{e},{f}}}: {verdict} (mode={rep.mode})")
            if rep.reduction_chain:
                print(f"  deleted: {', '.join(rep.reduction_chain)}")
            doc = rep.text_fields()
            print(f"  delta    = {doc['delta']}")
            print(f"  ansatz   = {doc['ansatz']}")
            print(f"  residual = {doc['residual']}")
            for a, root in doc["squares"]:
                print(f"  square[{a}] = {root}")
    else:
        _emit_json(
            {
                **_json_header("certificate-set", args, loops),
                "reports": [r.to_json_dict() for r in reports],
                "all_verified": all(r.verdict for r in reports),
            }
        )
    return 0 if all(r.verdict for r in reports) else 1


# ---------------------------------------------------------------------------
# tables


def cmd_tables(args: argparse.Namespace) -> int:
    from .certificate import table_coefficients
    from .poly import shape_text

    families = [GGHH, GGHI, GHIJ] if args.family == "all" else [args.family]
    reports = [table_coefficients(fam) for fam in families]
    if args.format == "json":
        _emit_json(
            {
                "schema": REPORT_SCHEMA,
                "kind": "tables",
                "families": [
                    {
                        "family": rep.family,
                        "shape": shape_text(rep.family),
                        "rows": [
                            {
                                "label": r.row.label,
                                "instance": r.row.instance,
                                "expected": {
                                    "positive": r.row.positive,
                                    "negative": r.row.negative,
                                    "delta": r.row.delta,
                                    "ansatz_allowed": [str(v) for v in r.row.p_allowed],
                                    "note": r.row.note,
                                },
                                "computed": {
                                    "positive": r.positive,
                                    "negative": r.negative,
                                    "delta": r.delta,
                                    "ansatz": str(r.p_value),
                                },
                                "match": r.ok,
                            }
                            for r in rep.rows
                        ],
                        "scan": {
                            "occurrences": rep.scan_occurrences,
                            "rows": [
                                {
                                    "label": r.row.label,
                                    "occurrences": r.occurrences,
                                    "ansatz_observed": [str(v) for v in r.p_observed],
                                }
                                for r in rep.rows
                            ],
                            "unmatched": list(rep.unmatched),
                            "mismatches": list(rep.mismatches),
                            "uncovered": list(rep.uncovered),
                        },
                        "all_match": rep.all_match,
                    }
                    for rep in reports
                ],
                "all_match": all(rep.all_match for rep in reports),
            }
        )
    else:
        for rep in reports:
            print(f"monomial shape {shape_text(rep.family)}")
            header = (
                f"  {'row':<12} {'expected':<10} {'computed':<10} "
                f"{'ansatz allowed':<16} {'ansatz':<8} result"
            )
            print(header)
            for r in rep.rows:
                expected = f"{r.row.positive}-{r.row.negative}={r.row.delta}"
                computed = f"{r.positive}-{r.negative}={r.delta}"
                allowed = ",".join(str(v) for v in r.row.p_allowed)
                result = "MATCH" if r.ok else "MISMATCH"
                print(
                    f"  {r.row.label:<12} {expected:<10} {computed:<10} "
                    f"{allowed:<16} {str(r.p_value):<8} {result}"
                )
            scan_state = (
                "complete"
                if not (rep.unmatched or rep.mismatches or rep.uncovered)
                else "INCOMPLETE"
            )
            print(
                f"  scan: {rep.scan_occurrences} monomial occurrences over the "
                f"n<=6 catalog and bowtie7; classification {scan_state}"
            )
            for line in rep.unmatched + rep.mismatches + rep.uncovered:
                print(f"    problem: {line}")
            print()
        overall = all(rep.all_match for rep in reports)
        print(f"tables: {'all rows MATCH' if overall else 'MISMATCHES FOUND'}")
    return 0 if all(rep.all_match for rep in reports) else 1


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args: argparse.Namespace) -> int:
    from .catalog import enumerate_simple_rank3
    from .matroid import dumps_matroid

    if args.out is None:
        raise CliError("enumerate requires --out DIR")
    try:
        result = enumerate_simple_rank3(args.n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    files = [
        (
            f"simple_rank3_n{result.n}_class{idx:03d}.json",
            dumps_matroid(m) + "\n",
        )
        for idx, m in enumerate(result.classes)
    ]
    _write_files(args.out, files)
    filenames = [fname for fname, _ in files]
    if args.format == "json":
        _emit_json(
            {
                "schema": REPORT_SCHEMA,
                "kind": "enumerate",
                "n": result.n,
                "count": result.count,
                "files": filenames,
            }
        )
    else:
        print(f"n={result.n}: {result.count} isomorphism classes")
        for fname in filenames:
            print(f"  {fname}")
    return 0


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args: argparse.Namespace) -> int:
    from .rayleigh import negative_correlation_sample

    m, loops = _load_matroid(args.matroid)
    pairs = _parse_pairs(m, args.pairs, loops)
    result = negative_correlation_sample(
        m, pairs=pairs, samples=args.samples, seed=args.seed
    )
    ok = result.checks - len(result.violations)
    rate = 100.0 * ok / result.checks if result.checks else 100.0
    if args.format == "json":
        _emit_json(
            {
                **_json_header("sample", args, loops),
                "seed": args.seed,
                "samples": result.samples,
                "pairs": [list(p) for p in result.pairs],
                "checks": result.checks,
                "cross_checks": result.cross_checks,
                "violations": [
                    {
                        "pair": list(v.pair),
                        "sample_index": v.sample_index,
                        "point": {el: str(w) for el, w in v.point.items()},
                    }
                    for v in result.violations
                ],
                "pass_rate": f"{rate:.2f}",
            }
        )
    else:
        _print_notes(loops)
        print(
            f"checked {len(result.pairs)} pairs x {result.samples} samples "
            f"= {result.checks} exact comparisons (seed {args.seed})"
        )
        for v in result.violations:
            e, f = v.pair
            print(
                f"VIOLATION pair {{{e},{f}}} sample #{v.sample_index}: "
                f"y = {_format_point(m, v.point)}"
            )
        print(
            f"violations: {len(result.violations)}; "
            f"{result.cross_checks} samples cross-checked against "
            f"polynomial evaluation"
        )
        print(f"pass rate: {rate:.2f}%")
    return 1 if result.violations else 0


# ---------------------------------------------------------------------------
# parser


def _sample_count(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {value!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _add_common(
    sub: argparse.ArgumentParser, *, pairs: bool = True, sampling: bool = False
) -> None:
    if pairs:
        sub.add_argument(
            "--pairs",
            action="append",
            metavar="e,f",
            help="check this pair (repeatable); default is all pairs",
        )
    if sampling:
        sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        sub.add_argument(
            "--samples", type=_sample_count, default=1000,
            help="random weight vectors to draw (default 1000)",
        )
    sub.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default %(default)s)",
    )
    command = sub.prog.rsplit(" ", 1)[-1]
    sub.add_argument(
        "--out", metavar="DIR",
        help="write the class files into DIR (required)" if command == "enumerate"
        else f"also write a copy of the report to DIR/{command}.json "
             f"(--format json) or DIR/{command}.txt (--format text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rayleigh-kit",
        description=(
            "Exact Rayleigh-difference computations, sum-of-squares "
            "certificates and negative-correlation checks for small matroids."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="certify every selected pair")
    p.add_argument("matroid", metavar="MATROID", help="JSON file or catalog name")
    _add_common(p, sampling=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("delta", help="print Rayleigh differences")
    p.add_argument("matroid", metavar="MATROID")
    p.add_argument("e", nargs="?", default=None, help="first element")
    p.add_argument("f", nargs="?", default=None, help="second element")
    _add_common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("certificate", help="emit certificate reports")
    p.add_argument("matroid", metavar="MATROID")
    _add_common(p)
    p.set_defaults(func=cmd_certificate, format="json")

    p = sub.add_parser("tables", help="reproduce the coefficient tables")
    p.add_argument(
        "--family", choices=(GGHH, GGHI, GHIJ, "all"), default="all",
        help="which monomial shape to check (default all)",
    )
    _add_common(p, pairs=False)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser(
        "enumerate", help="write all simple rank-3 classes on n points",
        description="Write all simple rank-3 classes on n points into DIR; "
                    "--out DIR is required (without it enumerate exits 2).",
    )
    p.add_argument("n", type=int, help="ground set size (3..10)")
    _add_common(p, pairs=False)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample", help="randomized exact negative-correlation checks")
    p.add_argument("matroid", metavar="MATROID")
    _add_common(p, sampling=True)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) is not None and args.command != "enumerate":
            # --out DIR also drops a copy of the report into DIR
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = args.func(args)
            text = buffer.getvalue()
            ext = "json" if args.format == "json" else "txt"
            _write_files(args.out, [(f"{args.command}.{ext}", text)])
            sys.stdout.write(text)
        else:
            code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull, so the flush at exit has somewhere to go, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
