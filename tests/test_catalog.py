"""Named instances and the census of simple rank-3 matroids."""

import hashlib
import random

import pytest

from rayleigh_kit import catalog
from rayleigh_kit.catalog import (
    EnumerationResult,
    _candidate_lines,
    _is_canonical,
    canonical_form,
    catalog_names,
    enumerate_simple_rank3,
    instance,
    named,
    uniform,
)
from rayleigh_kit.matroid import (
    Matroid,
    _pair_bits,
    from_geometry,
    line_masks,
    lines_of,
)
from test_matroid import basis_form


def canonical_line_key(masks, n):
    """Lex-minimal ascending mask tuple over all point relabelings."""
    return canonical_form(masks, n)


def naive_enumerate_simple_rank3(n):
    """Slow cross-check: generate every labeled line set, dedupe by canonical key.

    Intended for n <= 6 (the labeled count grows rapidly).
    """
    candidates = _candidate_lines(n)
    seen = set()

    def extend(current, start):
        seen.add(canonical_line_key(current, n))
        for idx in range(start, len(candidates)):
            line = candidates[idx]
            if any(bin(line & prev).count("1") > 1 for prev in current):
                continue
            extend(current + (line,), idx + 1)

    extend((), 0)
    ordered = sorted(seen, key=lambda masks: (len(masks), masks))
    # through the validated route, which the census's own builder skips
    points = [str(i) for i in range(1, n + 1)]

    def lines(masks):
        return [[p for i, p in enumerate(points) if mask >> i & 1] for mask in masks]

    classes = tuple(from_geometry(points, lines(masks)) for masks in ordered)
    return EnumerationResult(n, classes, len(classes))


def test_catalog_names_listing():
    names = catalog_names()
    assert names == tuple(sorted(names))
    assert "K4" in names
    assert "fig2.III" in names
    assert "bowtie7" in names
    assert len(names) == 17


# SHA-256 over (name, elements, rank, basis masks, note) of every catalog
# instance, so that moving or rewriting the catalog keeps each one as it was.
_CATALOG_DIGEST = "9d45f4e21da1d1efbc90ead0a3e09e08a669772b48b51378e8523313417f73c3"


def test_catalog_instances_match_the_pinned_digest():
    rows = []
    for name in catalog_names():
        inst = instance(name)
        m = inst.matroid
        rows.append((name, m.elements, m.rank, m.basis_masks, inst.note))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _CATALOG_DIGEST
    # two names, one geometry
    assert named("K4") == named("fig3.IV")


def test_named_instances_have_the_right_size():
    assert named("fig1.I").n == 4
    assert len(named("fig1.I").bases) == 3
    assert len(named("U_3_4").bases) == 4
    assert len(named("K4").bases) == 16
    assert named("bowtie7").n == 7


def test_instance_carries_description():
    inst = instance("K4")
    assert inst.name == "K4"
    assert "graph" in inst.note
    assert inst.matroid == named("K4")


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        instance("fig9.XX")


def test_uniform_constructor_and_guards():
    m = uniform(2, 5)
    assert m.rank == 2 and m.n == 5 and len(m.bases) == 10
    assert named("U_2_5") == m
    with pytest.raises(ValueError):
        uniform(4, 3)
    with pytest.raises(ValueError):
        uniform(2, 20)


def test_uniform_names_are_canonical():
    # One name per uniform matroid: a leading zero would cache a second copy.
    assert named("U_0_0") == uniform(0, 0)
    assert instance("U_10_10").matroid == uniform(10, 10)
    for name in ("U_01_4", "U_1_04", "U_00_0", "U_+1_4", "U_1_4 "):
        with pytest.raises(KeyError, match="unknown instance"):
            instance(name)


def test_named_instances_are_valid_simple_rank3():
    for name in catalog_names():
        m = named(name)
        if name.startswith("U_"):
            continue
        assert m.rank == 3
        assert m.is_simple()
        assert m.validate() == []


def test_census_counts():
    # the published counts (Matsumoto-Moriyama-Imai-Bremner, "Matroid
    # enumeration for incidence geometry", 2012); the naive path below
    # confirms them independently for n <= 6
    expected = {3: 1, 4: 2, 5: 4, 6: 9, 7: 23, 8: 68}
    for n, count in expected.items():
        assert enumerate_simple_rank3(n).count == count


def test_enumeration_matches_naive_path():
    for n in (3, 4, 5, 6):
        fast = enumerate_simple_rank3(n)
        slow = naive_enumerate_simple_rank3(n)
        assert fast.count == slow.count
        # both sides hold canonical line sets, in the same order
        assert [line_masks(a) for a in fast.classes] == [
            line_masks(b) for b in slow.classes
        ]


def unpruned_orderly_search(n):
    """The orderly search without the parent-twin cut: every compatible
    candidate line goes through the canonicity test."""
    candidates = _candidate_lines(n)
    found = []

    def extend(current, start):
        found.append(current)
        for idx in range(start, len(candidates)):
            line = candidates[idx]
            if any(bin(line & prev).count("1") > 1 for prev in current):
                continue
            grown = current + (line,)
            if _is_canonical(grown, n):
                extend(grown, idx + 1)

    extend((), 0)
    return sorted(found, key=lambda masks: (len(masks), masks))


def test_parent_twin_cut_keeps_every_class_in_order():
    # The cut only drops line sets the canonicity test rejects, so the
    # census is the unpruned search's, mask for mask and in the same order.
    for n in range(3, 9):
        classes = enumerate_simple_rank3(n).classes
        assert [line_masks(m) for m in classes] == unpruned_orderly_search(n), n


def test_census_canonicity_tests(monkeypatch):
    # The parent-twin cut leaves 228 canonicity tests for n = 3..8 (990
    # without it); of these, 101 accept a line set.
    verdicts = []

    def counted(masks, n):
        verdicts.append(_is_canonical(masks, n))
        return verdicts[-1]

    monkeypatch.setattr(catalog, "_is_canonical", counted)
    enumerate_simple_rank3.cache_clear()
    try:
        for n in range(3, 9):
            enumerate_simple_rank3(n)
    finally:
        enumerate_simple_rank3.cache_clear()
    assert len(verdicts) == 228
    assert verdicts.count(True) == 101


def _census_digest(n):
    """SHA-256 of the line masks of the n-point classes, in census order."""
    masks = [line_masks(m) for m in enumerate_simple_rank3(n).classes]
    return hashlib.sha256(repr(masks).encode()).hexdigest()


def test_census_count_n9():
    # 383 classes on nine points (the same 2012 census); the digest pins
    # every class and their order, not only their count
    assert enumerate_simple_rank3(9).count == 383
    assert _census_digest(9) == (
        "e00816239bc8ddae34defe776c74639f62d4961b6785f7aaf9bf570978a907a3")


@pytest.mark.slow
def test_census_n10():
    # 5249 classes on ten points (the same census), in a pinned order
    assert enumerate_simple_rank3(10).count == 5249
    assert _census_digest(10) == (
        "c73dafbc3994b23607eb5d1ca3254457f12c3c9895e7904fc34afb9ddd524e66")


def test_pair_bits_find_the_lines_sharing_two_points():
    # The enumeration's clash test, one AND of pair bits, agrees with
    # counting the common points of every two candidate lines.
    for n in range(3, 9):
        candidates = _candidate_lines(n)
        pairs = [_pair_bits(line, n) for line in candidates]
        for a, pa in zip(candidates, pairs):
            for b, pb in zip(candidates, pairs):
                assert bool(pa & pb) == (bin(a & b).count("1") > 1), (n, a, b)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_simple_rank3(2)
    with pytest.raises(ValueError):
        enumerate_simple_rank3(11)


def test_enumeration_is_deterministic():
    a = enumerate_simple_rank3(6)
    enumerate_simple_rank3.cache_clear()
    b = enumerate_simple_rank3(6)
    assert a == b


def test_classes_are_pairwise_nonisomorphic():
    classes = enumerate_simple_rank3(5).classes
    assert len({basis_form(c) for c in classes}) == len(classes)


def test_figures_match_census_classes_uniquely():
    figures = {
        4: ["fig1.I", "fig1.II"],
        5: ["fig2.I", "fig2.II", "fig2.III", "fig2.IV"],
        6: [f"fig3.{r}" for r in ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")],
    }
    for n, names in figures.items():
        classes = enumerate_simple_rank3(n).classes
        assert len(names) == len(classes)
        forms = [canonical_line_key(line_masks(c), n) for c in classes]
        for name in names:
            form = canonical_line_key(line_masks(named(name)), n)
            assert forms.count(form) == 1, name


def test_canonical_line_key_is_relabeling_invariant():
    rng = random.Random(5)
    masks = (0b000111, 0b011001, 0b101010)  # three pairwise-compatible lines
    n = 6
    base = canonical_line_key(masks, n)
    for _ in range(10):
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = tuple(
            sum(1 << perm[i] for i in range(n) if mask >> i & 1) for mask in masks
        )
        assert canonical_line_key(relabeled, n) == base


def test_census_members_are_valid():
    for n in (4, 5, 6):
        for m in enumerate_simple_rank3(n).classes:
            assert m.rank == 3
            assert m.is_simple()
            # line sets of distinct classes differ even before relabeling
        keys = {
            canonical_line_key(
                tuple(
                    sum(1 << i for i, el in enumerate(m.elements) if el in line)
                    for line in lines_of(m)
                ),
                n,
            )
            for m in enumerate_simple_rank3(n).classes
        }
        assert len(keys) == enumerate_simple_rank3(n).count


def _relabelled(m, seed):
    """A copy of m under a seeded random renaming of its elements."""
    names = [f"x{i}" for i in range(m.n)]
    random.Random(seed).shuffle(names)
    rename = dict(zip(m.elements, names))
    copy = Matroid.from_bases(
        sorted(names), [[rename[x] for x in b] for b in m.bases], rank=m.rank
    )
    return copy, rename


def test_pinned_forms_agree_on_symmetric_inputs():
    # Dense pinned families: every basis mask of U_4_8 and of the 23 classes
    # on 7 points, with and without a pinned element.
    cases = [uniform(4, 8)] + list(enumerate_simple_rank3(7).classes)
    for seed, m in enumerate(cases):
        copy, rename = _relabelled(m, seed)
        first = m.elements[0]
        assert basis_form(m) == basis_form(copy)
        assert basis_form(m, [first]) == basis_form(copy, [rename[first]])
