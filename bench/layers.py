"""Which package functions make up each layer, and the per-layer metrics.

`instrument` wraps the public functions of ``poly``, ``matroid``,
``rayleigh``, ``certificate``, ``catalog`` and ``cli`` with a `Tracer`;
`layer_metrics` turns the recorded spans and counters into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

from tracer import Tracer, package_modules

# Span names reached by every workload: their self time is reported.
TIMED = (
    "poly.mul", "poly.add", "poly.dominates",
    "matroid.closure", "matroid.rank", "matroid.minor",
    "rayleigh.genpoly", "rayleigh.delta",
    "certificate.certify", "certificate.ansatz", "certificate.reduce",
    "catalog.enumerate",
)
# Span names that only some workloads reach (the CLI session reaches all of
# them, the certify workloads none): their counts are reported on every
# workload, their times in the span file and the human-readable summary.
COUNTED = (
    "poly.format",
    "matroid.restriction", "matroid.lines_of", "matroid.load", "matroid.validate",
    "rayleigh.sample", "certificate.tables", "catalog.named", "cli.main",
)
MODULES = ("poly", "matroid", "rayleigh", "certificate", "catalog")


def instrument(tracer: Tracer) -> None:
    """Patch every binding of the layer functions with traced wrappers."""
    from rayleigh_kit import catalog, certificate, cli, matroid, poly, rayleigh

    mods = package_modules()
    P, M = poly.Polynomial, matroid.Matroid

    def mul_pairs(t, args, kwargs):
        a, b = args
        if isinstance(b, P):
            t.counts["poly.mul.term_pairs"] += len(a) * len(b)

    for fn, name, before in (
        (P.__mul__, "poly.mul", mul_pairs),
        (P.__add__, "poly.add", None),
        (P.__sub__, "poly.add", None),
    ):
        tracer.patch([P], fn, tracer.wrap(name, fn, before))
    for attr, name in (
        ("closure", "matroid.closure"),
        ("rank_of", "matroid.rank"),
        ("is_dependent", "matroid.rank"),
        ("is_independent", "matroid.rank"),
        ("minor", "matroid.minor"),
        ("restriction", "matroid.restriction"),
        ("validate", "matroid.validate"),
    ):
        fn = vars(M)[attr]
        tracer.patch([M], fn, tracer.wrap(name, fn))

    genpoly = rayleigh.generating_polynomial
    misses_before = [0]

    def genpoly_before(t, args, kwargs):
        misses_before[0] = genpoly.cache_info().misses

    def genpoly_after(t, result):
        missed = genpoly.cache_info().misses > misses_before[0]
        t.counts["rayleigh.genpoly.misses" if missed else "rayleigh.genpoly.hits"] += 1

    def sample_after(t, result):
        t.counts["rayleigh.sample.checks"] += result.checks

    def certify_after(t, rep):
        t.counts["certificate.terms.delta"] += len(rep.delta)
        t.counts["certificate.terms.P"] += len(rep.P)
        t.counts["certificate.terms.residual"] += len(rep.residual)
        if not rep.verdict:
            t.counts["certificate.certify.undecided"] += 1

    def reduce_after(t, result):
        t.counts["certificate.reduce.chain_len"] += len(result.chain)

    def enumerate_after(t, result):
        t.counts["catalog.enumerate.classes"] += result.count

    for fn, name, before, after in (
        (poly.dominates, "poly.dominates", None, None),
        (poly.format_polynomial, "poly.format", None, None),
        (matroid.lines_of, "matroid.lines_of", None, None),
        (matroid.loads_matroid, "matroid.load", None, None),
        (matroid.matroid_from_json_dict, "matroid.load", None, None),
        (genpoly, "rayleigh.genpoly", genpoly_before, genpoly_after),
        (rayleigh.rayleigh_difference, "rayleigh.delta", None, None),
        (rayleigh.negative_correlation_sample, "rayleigh.sample", None, sample_after),
        (certificate.certify, "certificate.certify", None, certify_after),
        (certificate.ansatz_parts, "certificate.ansatz", None, None),
        (certificate.lemma33_reduce, "certificate.reduce", None, reduce_after),
        (certificate.table_coefficients, "certificate.tables", None, None),
        (catalog.enumerate_simple_rank3, "catalog.enumerate", None, enumerate_after),
        (catalog.named, "catalog.named", None, None),
        (cli.main, "cli.main", None, None),
    ):
        tracer.patch(mods, fn, tracer.wrap(name, fn, before, after))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, *, import_s: float, emit_bytes: int, overhead_ratio: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}."""
    self_s = tracer.self_times()
    calls, failed, counts = tracer.calls, tracer.failed, tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED + COUNTED:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.failed"] = (failed.get(name, 0), "count")
        if name in TIMED:
            out[f"{name}.s"] = (self_s.get(name, 0.0), "s")
    for module in MODULES:
        total = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
        out[f"{module}.s"] = (total, "s")
    pairs = calls.get("certificate.certify", 0)
    hits = counts.get("rayleigh.genpoly.hits", 0)
    misses = counts.get("rayleigh.genpoly.misses", 0)
    out.update({
        "poly.mul.term_pairs": (counts.get("poly.mul.term_pairs", 0), "count"),
        "rayleigh.genpoly.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "rayleigh.delta.calls_per_pair": (
            _ratio(calls.get("rayleigh.delta", 0), pairs), "ratio"),
        "rayleigh.sample.checks": (counts.get("rayleigh.sample.checks", 0), "count"),
        "certificate.ansatz.calls_per_pair": (
            _ratio(calls.get("certificate.ansatz", 0), pairs), "ratio"),
        "certificate.reduce.chain_len_mean": (
            _ratio(counts.get("certificate.reduce.chain_len", 0),
                   calls.get("certificate.reduce", 0)), "ratio"),
        "certificate.certify.undecided": (
            counts.get("certificate.certify.undecided", 0), "count"),
        "certificate.terms.delta": (counts.get("certificate.terms.delta", 0), "count"),
        "certificate.terms.P": (counts.get("certificate.terms.P", 0), "count"),
        "certificate.terms.residual": (
            counts.get("certificate.terms.residual", 0), "count"),
        "catalog.enumerate.classes": (
            counts.get("catalog.enumerate.classes", 0), "count"),
        "cli.import_s": (import_s, "s"),
        "cli.emit.bytes": (emit_bytes, "bytes"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return out
