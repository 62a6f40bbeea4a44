"""Named instances and the census of simple rank-3 matroids."""

import hashlib
import random

import pytest

from rayleigh_kit.catalog import (
    EnumerationResult,
    _candidate_lines,
    _space_matroid,
    catalog_names,
    enumerate_simple_rank3,
    instance,
    named,
    uniform,
)
from rayleigh_kit.matroid import Matroid, canonical_form, is_isomorphic, lines_of


def canonical_line_key(masks, n):
    """Lex-minimal ascending mask tuple over all point relabelings."""
    return canonical_form(masks, n)[0]


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
    classes = tuple(_space_matroid(masks, n) for masks in ordered)
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
        for a, b in zip(fast.classes, slow.classes):
            assert is_isomorphic(a, b) is not None


def test_census_count_n9():
    # 383 classes on nine points (the same 2012 census)
    assert enumerate_simple_rank3(9).count == 383


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_simple_rank3(2)
    with pytest.raises(ValueError):
        enumerate_simple_rank3(10)


def test_enumeration_is_deterministic():
    a = enumerate_simple_rank3(6)
    enumerate_simple_rank3.cache_clear()
    b = enumerate_simple_rank3(6)
    assert a == b


def test_classes_are_pairwise_nonisomorphic():
    classes = enumerate_simple_rank3(5).classes
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            assert is_isomorphic(classes[i], classes[j]) is None


def test_figures_match_census_classes_uniquely():
    figures = {
        4: ["fig1.I", "fig1.II"],
        5: ["fig2.I", "fig2.II", "fig2.III", "fig2.IV"],
        6: [f"fig3.{r}" for r in ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")],
    }
    for n, names in figures.items():
        classes = enumerate_simple_rank3(n).classes
        assert len(names) == len(classes)
        for name in names:
            m = named(name)
            hits = [c for c in classes if is_isomorphic(m, c) is not None]
            assert len(hits) == 1, name


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


def _assert_isomorphism(m1, m2, iso, pin):
    assert iso is not None
    assert sorted(iso) == sorted(m1.elements)
    assert sorted(iso.values()) == sorted(m2.elements)
    assert {frozenset(iso[x] for x in b) for b in m1.bases} == m2.bases
    assert all(iso[a] == b for a, b in pin.items())


def test_is_isomorphic_on_symmetric_inputs():
    cases = [uniform(4, 8)] + list(enumerate_simple_rank3(7).classes)
    for seed, m in enumerate(cases):
        copy, rename = _relabelled(m, seed)
        for pin in ({}, {m.elements[0]: rename[m.elements[0]]}):
            _assert_isomorphism(m, copy, is_isomorphic(m, copy, pin=pin), pin)
