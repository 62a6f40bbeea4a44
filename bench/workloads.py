"""The benchmark's three workloads: inputs, one pass, and known-answer checks.

Every input is made from the workload seed: each generated matroid is
relabelled by a seeded permutation of its ground set, and every ``--seed``
passed to the CLI comes from the same generator.  The work done does not
depend on the seed (apart from the rank queries `parallel_classes` makes on
non-simple inputs), so figures from different seeds are comparable.

Each check compares an output with an answer that does not come from this
package's own recorded output: the published census counts, the paper's
theorem (every rank-3 pair is certified and every Rayleigh difference is
nonnegative), values recomputed here from the basis family, a hand-derived
polynomial, and invariance under relabelling.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# Simple rank-3 matroids (linear spaces) on n points, n = 3..8:
# Matsumoto-Moriyama-Imai-Bremner, "Matroid enumeration for incidence
# geometry" (2012).
CENSUS_COUNTS = {3: 1, 4: 2, 5: 4, 6: 9, 7: 23, 8: 68}

# Delta K4{1,2} = (y_3 y_4 - y_5 y_6)^2 with {1,2}, {3,4}, {5,6} the three
# perfect matchings of K4, expanded by hand.
K4_DELTA_12 = {
    (("3", 2), ("4", 2)): 1,
    (("3", 1), ("4", 1), ("5", 1), ("6", 1)): -2,
    (("5", 2), ("6", 2)): 1,
}

CLI_CLASSES = 4  # census classes drawn per CLI session, one per stratum
SAMPLE_UNIFORM = (4, 7)  # `sample` target besides K4
VERIFY_UNIFORM = (5, 8)  # rank > 3 input for `verify`, written as bases JSON
VERIFY_UNIFORM_SAMPLES = 400
CALL_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# Results shared by all workloads.


@dataclass
class Tally:
    """Operations attempted and those that failed, with the first reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


@dataclass
class PassResult:
    """One pass over a workload's inputs."""

    latencies: list  # reference seconds per operation (see `scaled`), in order
    raw: list  # the same latencies in measured seconds
    outcomes: list  # per operation: verdict, or (exit code, stdout) for CLI
    kinds: list  # per operation: its kind (CLI subcommand or "certify")
    groups: Optional[dict] = None  # certified pairs per input (certify passes)


def clear_caches() -> None:
    """Empty every functools cache of the package, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("rayleigh_kit"):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


# ---------------------------------------------------------------------------
# Machine speed.
#
# The benchmark runs on shared hosts whose speed changes under it: on the
# 2-core machine it was written on, the same pass ran up to 1.5x slower for
# minutes at a time, with CPU time equal to wall time, so neither longer runs
# nor CPU timers removed the drift.  Every timed interval is therefore also
# expressed in reference seconds: a fixed pure-Python calibration slice runs
# between operations (outside the timed intervals), and an interval measured
# while the slices take k times REF_SLICE_S counts as interval / k.  The
# slice does what the package does most: tuple-keyed dict updates, integer
# arithmetic and sorting.  Raw seconds are printed next to the scaled ones.

REF_SLICE_S = 0.0013  # the slice on an uncontended core of that machine
SLICES_PER_SAMPLE = 5  # a calibration sample is the median of this many slices
CALIBRATE_EVERY = 40  # certify operations between calibration samples
# Samples used on each side of a segment: two for the short certify calls,
# one (just before and just after) for a CLI call, which tracked the speed
# best in trial runs.
CERTIFY_WINDOW, CLI_WINDOW = 2, 1


def _slice() -> float:
    start = time.perf_counter()
    acc: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * 3
    tuple(sorted(acc))
    return time.perf_counter() - start


def calibrate() -> float:
    """One calibration sample: how long the slice takes right now."""
    return statistics.median(_slice() for _ in range(SLICES_PER_SAMPLE))


def scaled(latencies: list, samples: list, every: int, window: int) -> list:
    """Latencies in reference seconds.

    samples[j] was taken just before operation j * every, and one more
    after the last operation; each operation is scaled by the median of the
    `window` samples on either side of its segment.
    """
    out = []
    for i, lat in enumerate(latencies):
        j = i // every
        near = samples[max(0, j - window + 1): j + window + 1]
        out.append(lat * REF_SLICE_S / statistics.median(near))
    return out


# ---------------------------------------------------------------------------
# Inputs.


def relabel(m, perm: list[int]):
    """The matroid with element i renamed to element perm[i]."""
    from rayleigh_kit.matroid import Matroid

    masks = []
    for b in m.basis_masks:
        out = 0
        for i, j in enumerate(perm):
            if b >> i & 1:
                out |= 1 << j
        masks.append(out)
    return Matroid(m.elements, m.rank, masks)


def seeded_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


@dataclass(frozen=True)
class Input:
    """A matroid whose every pair is certified, before relabelling."""

    matroid: object
    group: tuple  # structural identity, the same under every relabelling
    certify_all: bool  # the theorem says the ansatz certifies every pair
    doubled: tuple = ()  # positions of a doubled element and of its copy


@dataclass(frozen=True)
class CertifyItem:
    """One certify call and what its answer is checked against."""

    matroid: object
    e: str
    f: str
    point: tuple  # positive integer weight per element, in ground-set order
    group: tuple
    must_certify: bool


def pass_rng(seed: int, index: int) -> random.Random:
    """The generator for pass `index`: each pass gets its own relabelling."""
    return random.Random(f"{seed}/{index}")


def census_inputs(tally: Tally, ns=(7, 8)) -> list[Input]:
    """Every simple rank-3 class on n points, n in `ns`; checks the counts."""
    from rayleigh_kit.catalog import enumerate_simple_rank3

    inputs = []
    for n in sorted(CENSUS_COUNTS):
        result = enumerate_simple_rank3(n)
        tally.check(result.count == CENSUS_COUNTS[n],
                    f"census n={n}: {result.count} classes, expected {CENSUS_COUNTS[n]}")
        if n in ns:
            inputs += [Input(cls, (n, idx), True) for idx, cls in enumerate(result.classes)]
    return inputs


def nonsimple_inputs(tally: Tally, ns=(4, 5, 6, 7)) -> list[Input]:
    """Census classes with one element doubled by a parallel copy.

    Every n = 4..6 class is taken once per element; every n = 7 class once,
    doubling the element at position idx mod 7.  Relabelling then decides
    which labels the doubled element and its copy carry; the structural
    choice is fixed because the certified count depends on it.
    """
    from rayleigh_kit.catalog import enumerate_simple_rank3
    from rayleigh_kit.matroid import with_parallel_copy

    inputs = []
    for n in ns:
        result = enumerate_simple_rank3(n)
        tally.check(result.count == CENSUS_COUNTS[n],
                    f"census n={n}: {result.count} classes, expected {CENSUS_COUNTS[n]}")
        for idx, cls in enumerate(result.classes):
            for pos in range(n) if n < 7 else (idx % n,):
                m = with_parallel_copy(cls, cls.elements[pos], str(n + 1))
                inputs.append(Input(m, (n, idx, pos), False, (pos, n)))
    return inputs


def certify_items(inputs: list[Input], rng: Optional[random.Random]) -> list[CertifyItem]:
    """Every pair of every input, relabelled by `rng` (None: unrelabelled)."""
    points = rng or random.Random(0)
    items = []
    for inp in inputs:
        size = len(inp.matroid.elements)
        perm = list(range(size)) if rng is None else seeded_perm(rng, size)
        m = relabel(inp.matroid, perm)
        doubled = {m.elements[perm[i]] for i in inp.doubled}
        point = tuple(points.randint(1, 16) for _ in range(size))
        items += [
            CertifyItem(m, e, f, point, inp.group, inp.certify_all or {e, f} == doubled)
            for e, f in itertools.combinations(m.elements, 2)
        ]
    return items


# ---------------------------------------------------------------------------
# Certify workloads.


def _evaluate(poly, weights: dict) -> object:
    total = 0
    for mono, coeff in poly.terms():
        term = coeff
        for var, exp in mono:
            term *= weights[var] ** exp
        total += term
    return total


def delta_at_point(m, e: str, f: str, point: tuple) -> object:
    """Delta{e,f} at a positive point, straight from the basis family.

    With T_S the total weight of the bases meeting {e,f} in S,
    Delta = (T_e * T_f - T_ef * T_0) / (y_e * y_f).
    """
    ie, jf = m.elements.index(e), m.elements.index(f)
    t = {(False, False): 0, (True, False): 0, (False, True): 0, (True, True): 0}
    for b in m.basis_masks:
        w = 1
        for i, y in enumerate(point):
            if b >> i & 1:
                w *= y
        t[(bool(b >> ie & 1), bool(b >> jf & 1))] += w
    num = t[(True, False)] * t[(False, True)] - t[(True, True)] * t[(False, False)]
    return num // (point[ie] * point[jf])


def check_certificate(item: CertifyItem, rep, tally: Tally) -> None:
    """Known-answer checks on one certificate report."""
    where = f"pair {{{item.e},{item.f}}} of {item.group}"
    weights = dict(zip(item.matroid.elements, item.point))
    ok = rep.pair == (item.e, item.f)
    expected = delta_at_point(item.matroid, item.e, item.f, item.point)
    ok = ok and _evaluate(rep.delta_original, weights) == expected and expected >= 0
    if rep.verdict:
        ok = ok and all(c >= 0 for _, c in rep.residual.terms())
    elif item.must_certify:
        ok = False
    tally.check(ok, f"{where}: certificate contradicts a known answer")


def certify_pass(items: list[CertifyItem], tally: Tally) -> PassResult:
    """Certify every item once, checking each report.

    Caches are emptied whenever the input matroid changes: minors of two
    different inputs coincide only by accident of labelling, so cache hits
    across inputs would make the work depend on the seed.
    """
    from rayleigh_kit import certificate

    gc.collect()
    latencies, verdicts, samples = [], [], []
    clock = time.perf_counter
    current = None
    for i, item in enumerate(items):
        if item.matroid is not current:
            clear_caches()
            current = item.matroid
        if i % CALIBRATE_EVERY == 0:
            samples.append(calibrate())
        start = clock()
        try:
            rep = certificate.certify(item.matroid, item.e, item.f)
        except Exception as exc:  # a raising call is a failed operation
            latencies.append(clock() - start)
            verdicts.append(None)
            tally.check(False, f"certify raised {exc!r} on {item.group}")
            continue
        latencies.append(clock() - start)
        verdicts.append(rep.verdict)
        check_certificate(item, rep, tally)
    samples.append(calibrate())
    return PassResult(scaled(latencies, samples, CALIBRATE_EVERY, CERTIFY_WINDOW),
                      latencies, verdicts,
                      ["certify"] * len(items), certified_by_group(items, verdicts))


def certified_by_group(items: list[CertifyItem], verdicts: list) -> dict:
    """Certified pairs per input; independent of the labelling."""
    out: dict = {}
    for item, verdict in zip(items, verdicts):
        out[item.group] = out.get(item.group, 0) + bool(verdict)
    return out


# ---------------------------------------------------------------------------
# CLI session.


@dataclass(frozen=True)
class CliStep:
    kind: str  # the subcommand
    argv: tuple
    check: Callable  # (exit code, stdout) -> bool


def _geometry_json(m) -> dict:
    """Lines recomputed from the bases: a pair plus every point collinear with it."""
    bases = set(m.basis_masks)
    lines = set()
    n = len(m.elements)
    for x, y in itertools.combinations(range(n), 2):
        line = {x, y} | {
            z for z in range(n)
            if z not in (x, y) and (1 << x | 1 << y | 1 << z) not in bases
        }
        if len(line) >= 3:
            lines.add(tuple(sorted(line)))
    return {
        "elements": list(m.elements),
        "lines": [[m.elements[i] for i in line] for line in sorted(lines)],
    }


def _bases_json(m) -> dict:
    return {
        "elements": list(m.elements),
        "rank": m.rank,
        "bases": sorted(
            sorted(m.elements[i] for i in range(len(m.elements)) if b >> i & 1)
            for b in m.basis_masks
        ),
    }


def _expect_verify(pairs: int) -> Callable:
    return lambda code, out: (
        code == 0 and out.rstrip("\n").rsplit("\n", 1)[-1] == f"{pairs}/{pairs} pairs certified"
    )


def _expect_certificate(pairs: int) -> Callable:
    def check(code, out):
        if code != 0:
            return False
        doc = json.loads(out)
        reports = doc.get("reports", [])
        return (
            doc.get("schema") == "rayleigh-kit/1"
            and doc.get("all_verified") is True
            and len(reports) == pairs
            and all(r.get("verdict") is True for r in reports)
        )
    return check


_TERM = re.compile(r"([+-]\d+) \* ((?:y_\S+ ?)+)")


def parse_terms(text: str) -> dict:
    """{monomial: coefficient} from a printed integer polynomial."""
    out = {}
    for coeff, vars_part in _TERM.findall(text):
        mono = []
        for token in vars_part.split():
            var, _, exp = token[2:].partition("^")
            mono.append((var, int(exp or 1)))
        out[tuple(sorted(mono))] = int(coeff)
    return out


def _expect_delta(code, out) -> bool:
    return code == 0 and parse_terms(out.strip()) == K4_DELTA_12 and _TERM.sub("", out).strip() == ""


def _expect_sample(pairs: int, samples: int) -> Callable:
    return lambda code, out: (
        code == 0
        and f"checked {pairs} pairs x {samples} samples" in out
        and "\nviolations: 0;" in out
    )


def _expect_unverified(pairs: int) -> Callable:
    return lambda code, out: (
        code == 0
        and out.count("unverified (rank > 3)") == pairs
        and "VIOLATION" not in out
    )


def _expect_tables(code, out) -> bool:
    return code == 0 and out.rstrip("\n").rsplit("\n", 1)[-1] == "tables: all rows MATCH"


def cli_steps(seed: int, workdir: str) -> list[CliStep]:
    """Write the session's input files and list its calls, in order."""
    from rayleigh_kit.catalog import enumerate_simple_rank3, uniform

    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    census_dir = os.path.join(workdir, "census")

    def expect_enumerate(code, out):
        files = [f for f in os.listdir(census_dir) if f.endswith(".json")]
        return code == 0 and out.startswith("n=8: 68 isomorphism classes\n") and len(files) == 68

    steps = [
        CliStep("enumerate", ("enumerate", "8", "--out", census_dir), expect_enumerate),
        CliStep("tables", ("tables",), _expect_tables),
    ]
    classes = enumerate_simple_rank3(8).classes
    stratum = len(classes) // CLI_CLASSES
    for k in range(CLI_CLASSES):
        idx = k * stratum + rng.randrange(stratum)
        m = relabel(classes[idx], seeded_perm(rng, 8))
        for form, doc in (("geometry", _geometry_json(m)), ("bases", _bases_json(m))):
            path = os.path.join(workdir, f"class{idx:03d}.{form}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            steps.append(CliStep("verify", ("verify", path), _expect_verify(28)))
            steps.append(CliStep("certificate", ("certificate", path, "--format", "json"),
                                 _expect_certificate(28)))
    for name, pairs in (("bowtie7", 21), ("K4", 15)):
        steps.append(CliStep("verify", ("verify", name), _expect_verify(pairs)))
        steps.append(CliStep("certificate", ("certificate", name, "--format", "json"),
                             _expect_certificate(pairs)))
    steps.append(CliStep("delta", ("delta", "K4", "1", "2"), _expect_delta))
    r, n = SAMPLE_UNIFORM
    for name, pairs in (("K4", 15), (f"U_{r}_{n}", n * (n - 1) // 2)):
        steps.append(CliStep("sample", ("sample", name, "--seed", str(rng.randrange(10**6))),
                             _expect_sample(pairs, 1000)))
    r, n = VERIFY_UNIFORM
    path = os.path.join(workdir, f"U_{r}_{n}.bases.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_bases_json(relabel(uniform(r, n), seeded_perm(rng, n))), fh)
    steps.append(CliStep(
        "verify",
        ("verify", path, "--seed", str(rng.randrange(10**6)),
         "--samples", str(VERIFY_UNIFORM_SAMPLES)),
        _expect_unverified(n * (n - 1) // 2),
    ))
    return steps


def cli_env() -> dict:
    """The subprocess environment: the checkout's sources, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if k != "RAYLEIGH_KIT_JOBS"}
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    return env


def _judge(step: CliStep, code: int, out: str, tally: Tally) -> None:
    try:
        ok = step.check(code, out)
    except ValueError:  # unparseable output
        ok = False
    tally.check(ok, f"{' '.join(step.argv)}: exit {code}, unexpected output")


def cli_pass(steps: list[CliStep], root: str, tally: Tally) -> PassResult:
    """Run every step as its own `python -m rayleigh_kit.cli` subprocess."""
    env = cli_env()
    latencies, outcomes, samples = [], [], []
    for step in steps:
        samples.append(calibrate())
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rayleigh_kit.cli", *step.argv],
                cwd=root, env=env, capture_output=True, text=True,
                timeout=CALL_TIMEOUT_S,
            )
            code, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, out = -1, ""
        latencies.append(time.perf_counter() - start)
        outcomes.append((code, out))
        _judge(step, code, out, tally)
    samples.append(calibrate())
    return PassResult(scaled(latencies, samples, 1, CLI_WINDOW), latencies, outcomes,
                      [s.kind for s in steps])


def cli_inprocess_pass(steps: list[CliStep], tally: Tally) -> tuple[PassResult, int]:
    """The same calls through `cli.main`, each from cold caches.

    Returns the pass and the number of bytes the calls wrote to stdout.
    """
    from rayleigh_kit import cli

    latencies, outcomes, samples = [], [], []
    emitted = 0
    for step in steps:
        clear_caches()
        samples.append(calibrate())
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(step.argv))
            except Exception:  # a raising call is a failed operation
                code = -1
        latencies.append(time.perf_counter() - start)
        out = buf.getvalue()
        emitted += len(out.encode())
        outcomes.append((code, out))
        _judge(step, code, out, tally)
    samples.append(calibrate())
    return PassResult(scaled(latencies, samples, 1, CLI_WINDOW), latencies, outcomes,
                      [s.kind for s in steps]), emitted
