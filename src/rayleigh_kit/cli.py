"""Command-line front end.

Subcommands: verify, delta, certificate, tables, enumerate, sample.  Matroid
arguments name either a JSON file (basis or geometry form) or a catalog
instance such as ``K4``, ``fig2.III`` or ``U_2_5``.  Exit codes: 0 success /
everything verified, 1 a verification failure was found, 2 usage or input
errors.  A stdout closed early (``| head``) ends the run quietly with exit
code 1.  Output is byte-deterministic for a fixed invocation and seed.

Each ``cmd_*`` function returns its exit code and its report's lines, and
`main` writes them, each followed by a newline.  With ``--out DIR`` it first
writes the same bytes to ``DIR/<command>.json`` or ``.txt`` (``enumerate``
writes its class files there instead), so a bad DIR leaves stdout empty.

Each subcommand imports the modules it runs when it runs, and each module
holds only the code its commands run, so a call compiles only the code it
runs: ``enumerate`` never loads the certificate, the Rayleigh-difference or
the polynomial code, ``delta`` and ``sample`` never load the certificate,
only ``tables`` loads the coefficient tables (``tables``, with their
rendering), and a MATROID given as a file never loads the catalog, which
holds the census search and its canonical form.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from . import GGHH, GGHI, GHIJ, REPORT_SCHEMA

if TYPE_CHECKING:
    from .certificate import CertificateReport
    from .matroid import Matroid

Output = tuple[int, Iterable[str]]  # exit code, report lines


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _read_input(
    args: argparse.Namespace, pair_tokens: Optional[list[str]]
) -> tuple[Matroid, list[tuple[str, str]], list[str]]:
    """Read MATROID (a file path or a catalog name) and the pairs that
    `pair_tokens` name (every pair if none): returns the matroid with its
    loops removed, the pairs, and the notes naming the removed loops."""
    source = args.matroid
    if os.path.exists(source):
        from .matroid import loads_matroid

        try:
            with open(source, "r", encoding="utf-8") as fh:
                m = loads_matroid(fh.read())
        except (ValueError, OSError) as exc:
            raise CliError(f"cannot load matroid file {source!r}: {exc}") from exc
    else:
        from .catalog import catalog_names, named

        try:
            m = named(source)
        except KeyError as exc:
            raise CliError(
                f"{source!r} is neither a file nor a catalog name "
                f"(catalog: {', '.join(catalog_names())}, or U_r_m)"
            ) from exc
        except ValueError as exc:  # a U_r_m name that names no uniform matroid
            raise CliError(f"cannot build {source!r}: {exc}") from exc
    loops = m.loops()
    if loops:
        # Loops never lie in a basis, so removing them changes no check.
        m = m.delete(loops)
    notes = [f"removed loops: {', '.join(loops)}"] if loops else []
    if not pair_tokens:
        return m, list(itertools.combinations(m.elements, 2)), notes
    from .rayleigh import _pair_positions

    pairs = []
    for token in pair_tokens:
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
        pairs.append((e, f))
    return m, pairs, notes


def _write_files(directory: str, files: list[tuple[str, str]]) -> None:
    """Create `directory` if needed and write each (name, text) into it.

    A path that cannot be a directory (an existing file, or a path below
    one) is an input error, exit 2; `main` and `enumerate` write here before
    anything goes to stdout, so nothing reaches it then.
    """
    try:
        os.makedirs(directory, exist_ok=True)
        for name, text in files:
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write to --out {directory!r}: {exc}") from exc


def _json_lines(
    kind: str, args: argparse.Namespace, notes: Optional[list[str]], fields: dict
) -> list[str]:
    """The JSON report as one output line: `schema`, `kind` and `fields`,
    plus `input` and `notes` when a MATROID was read (`notes` not None)."""
    doc = {"schema": REPORT_SCHEMA, "kind": kind, **fields}
    if notes is not None:
        doc.update(input=args.matroid, notes=notes)
    return [json.dumps(doc, indent=2, sort_keys=True)]


def _note_lines(notes: list[str]) -> list[str]:
    return [f"note: {note}" for note in notes]


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


def cmd_verify(args: argparse.Namespace) -> Output:
    m, pairs, notes = _read_input(args, args.pairs)
    if m.rank > 3:
        return _verify_sampled(args, m, pairs, notes)
    reports = _certify_all(m, pairs)
    all_ok = all(r.verdict for r in reports)
    if args.format == "json":
        lines = _json_lines(
            "verify", args, notes,
            {
                "rank": m.rank,
                "reports": [r.to_json_dict() for r in reports],
                "all_verified": all_ok,
            }
        )
    else:
        lines = _note_lines(notes)
        for rep in reports:
            e, f = rep.pair
            if rep.verdict:
                detail = f"mode={rep.mode}"
                if rep.reduction_chain:
                    detail += f", deleted [{', '.join(rep.reduction_chain)}]"
                lines.append(f"pair {{{e},{f}}}: certified ({detail})")
            else:
                lines.append(
                    f"pair {{{e},{f}}}: NOT CERTIFIED (mode={rep.mode}; "
                    "dominance fails, which does not itself exhibit a "
                    "negative point)"
                )
        lines.append(f"{sum(r.verdict for r in reports)}/{len(reports)} pairs certified")
    return (0 if all_ok else 1), lines


def _verify_sampled(
    args: argparse.Namespace, m: Matroid, pairs: list[tuple[str, str]],
    notes: list[str],
) -> Output:
    from .rayleigh import negative_correlation_sample

    result = negative_correlation_sample(
        m, pairs=pairs, samples=args.samples, seed=args.seed
    )
    by_pair = {v.pair: v for v in result.violations}
    unverified = f"unverified (rank > 3): no negative point found in {args.samples} samples"
    if args.format == "json":
        lines = _json_lines(
            "verify", args, notes,
            {
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
        lines = _note_lines(notes)
        for pair in pairs:
            e, f = pair
            if pair in by_pair:
                point = _format_point(m, by_pair[pair].point)
                lines.append(f"pair {{{e},{f}}}: VIOLATION at y = {point}")
            else:
                lines.append(f"pair {{{e},{f}}}: {unverified}")
    return (1 if result.violations else 0), lines


# ---------------------------------------------------------------------------
# delta


def cmd_delta(args: argparse.Namespace) -> Output:
    from .poly import format_polynomial
    from .rayleigh import rayleigh_difference

    tokens = args.pairs
    if args.e is not None or args.f is not None:
        if args.e is None or args.f is None:
            raise CliError("give both elements: delta MATROID E F")
        if args.pairs:
            raise CliError("use either positional E F or --pairs, not both")
        tokens = [f"{args.e},{args.f}"]
    m, pairs, notes = _read_input(args, tokens)
    deltas = [(pair, rayleigh_difference(m, *pair)) for pair in pairs]
    if args.format == "json":
        lines = _json_lines(
            "delta", args, notes,
            {
                "pairs": [
                    {"pair": list(pair), "delta": format_polynomial(d)}
                    for pair, d in deltas
                ],
            }
        )
    elif args.e is not None:
        # Single explicit pair: print the bare polynomial.
        lines = [format_polynomial(deltas[0][1])]
    else:
        lines = _note_lines(notes)
        for (e, f), d in deltas:
            lines.append(f"delta {{{e},{f}}}: {format_polynomial(d)}")
    return 0, lines


# ---------------------------------------------------------------------------
# certificate


def cmd_certificate(args: argparse.Namespace) -> Output:
    m, pairs, notes = _read_input(args, args.pairs)
    reports = _certify_all(m, pairs)
    if args.format == "text":
        lines = _certificate_lines(notes, reports)
    else:
        lines = _json_lines(
            "certificate-set", args, notes,
            {
                "reports": [r.to_json_dict() for r in reports],
                "all_verified": all(r.verdict for r in reports),
            }
        )
    return (0 if all(r.verdict for r in reports) else 1), lines


def _certificate_lines(
    notes: list[str], reports: list[CertificateReport]
) -> Iterator[str]:
    """The text report, rendered one certificate at a time."""
    yield from _note_lines(notes)
    for rep in reports:
        e, f = rep.pair
        verdict = "certified" if rep.verdict else "NOT CERTIFIED"
        yield f"pair {{{e},{f}}}: {verdict} (mode={rep.mode})"
        if rep.reduction_chain:
            yield f"  deleted: {', '.join(rep.reduction_chain)}"
        doc = rep.text_fields()
        yield f"  delta    = {doc['delta']}"
        yield f"  ansatz   = {doc['ansatz']}"
        yield f"  residual = {doc['residual']}"
        for a, root in doc["squares"]:
            yield f"  square[{a}] = {root}"


# ---------------------------------------------------------------------------
# tables


def cmd_tables(args: argparse.Namespace) -> Output:
    from .certificate import table_coefficients

    families = [GGHH, GGHI, GHIJ] if args.family == "all" else [args.family]
    reports = [table_coefficients(fam) for fam in families]
    overall = all(rep.all_match for rep in reports)
    if args.format == "json":
        lines = _json_lines(
            "tables", args, None,
            {
                "families": [rep.to_json_dict() for rep in reports],
                "all_match": overall,
            }
        )
    else:
        lines = [line for rep in reports for line in (*rep.text_lines(), "")]
        lines.append(f"tables: {'all rows MATCH' if overall else 'MISMATCHES FOUND'}")
    return (0 if overall else 1), lines


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args: argparse.Namespace) -> Output:
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
        lines = _json_lines(
            "enumerate", args, None,
            {
                "n": result.n,
                "count": result.count,
                "files": filenames,
            }
        )
    else:
        lines = [f"n={result.n}: {result.count} isomorphism classes"]
        lines.extend(f"  {fname}" for fname in filenames)
    return 0, lines


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args: argparse.Namespace) -> Output:
    from .rayleigh import negative_correlation_sample

    m, pairs, notes = _read_input(args, args.pairs)
    result = negative_correlation_sample(
        m, pairs=pairs, samples=args.samples, seed=args.seed
    )
    ok = result.checks - len(result.violations)
    rate = 100.0 * ok / result.checks if result.checks else 100.0
    if args.format == "json":
        lines = _json_lines(
            "sample", args, notes,
            {
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
        lines = _note_lines(notes)
        lines.append(
            f"checked {len(result.pairs)} pairs x {result.samples} samples "
            f"= {result.checks} exact comparisons (seed {args.seed})"
        )
        for v in result.violations:
            e, f = v.pair
            lines.append(
                f"VIOLATION pair {{{e},{f}}} sample #{v.sample_index}: "
                f"y = {_format_point(m, v.point)}"
            )
        lines.append(
            f"violations: {len(result.violations)}; "
            f"{result.cross_checks} samples cross-checked against "
            f"polynomial evaluation"
        )
        lines.append(f"pass rate: {rate:.2f}%")
    return (1 if result.violations else 0), lines


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
        code, lines = args.func(args)
        text = (f"{line}\n" for line in lines)
        if args.out is not None and args.command != "enumerate":
            # the copy goes to --out DIR first, so a bad DIR leaves stdout empty
            report = "".join(text)
            ext = "json" if args.format == "json" else "txt"
            _write_files(args.out, [(f"{args.command}.{ext}", report)])
            text = [report]
        sys.stdout.writelines(text)
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
