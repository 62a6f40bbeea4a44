"""Matroid core: bases, minors, duality, geometry and JSON interchange."""

import copy
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_kit.catalog import catalog_names, enumerate_simple_rank3, named
from rayleigh_kit.matroid import (
    Matroid,
    _pair_bits,
    canonical_form,
    dumps_matroid,
    from_geometry,
    line_masks,
    lines_of,
    loads_matroid,
    matroid_from_json_dict,
    matroid_to_json_dict,
    transposition_twins,
    with_parallel_copy,
)


def u24():
    return Matroid.from_bases(
        ["1", "2", "3", "4"],
        [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")],
    )


def k4():
    # cycle matroid of the complete graph on 4 vertices; elements pair into
    # perfect matchings {1,2}, {3,4}, {5,6}
    lines = [["2", "3", "5"], ["1", "3", "6"], ["2", "4", "6"], ["1", "4", "5"]]
    return from_geometry([str(i) for i in range(1, 7)], lines)


def test_from_bases_infers_rank():
    m = u24()
    assert m.rank == 2
    assert m.n == 4
    assert len(m.bases) == 6


def test_rejects_mixed_basis_sizes():
    with pytest.raises(ValueError, match="basis size differs from rank"):
        Matroid.from_bases(["1", "2", "3"], [("1",), ("1", "2")])
    # a basis shorter than the given rank
    with pytest.raises(ValueError, match="basis size differs from rank"):
        Matroid.from_bases(["1", "2", "3"], [("1", "2"), ("3",)], rank=2)


def test_rejects_bad_element_ids():
    for el in ("a b", "a*b", "a^2", "a,b"):
        with pytest.raises(ValueError, match="reserved character"):
            Matroid.from_bases([el], [(el,)])


@pytest.mark.parametrize("build, message", [
    (lambda: Matroid([""], 0, [0]), "element id must be a nonempty string, got ''"),
    (lambda: Matroid(["1"], -1, []), "rank must be nonnegative"),
    (lambda: Matroid(["1", "2"], 1, [0b100]), "basis mask outside ground set"),
    (lambda: Matroid.from_bases(["1", "2"], [("1", "1")]),
     "repeated element '1' in a basis"),
    (lambda: Matroid.from_bases(["1", "2"], []),
     "rank required for an empty basis family"),
    (lambda: with_parallel_copy(u24(), "1", "2"), "element '2' already present"),
])
def test_rejects_malformed_construction(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_validate_accepts_uniform():
    assert u24().validate() == []


def test_validate_catches_exchange_failure():
    # {1,2} and {3,4} with no overlap cannot satisfy basis exchange alone
    m = Matroid.from_bases(["1", "2", "3", "4"], [("1", "2"), ("3", "4")])
    problems = m.validate()
    assert problems
    assert any("exchange" in p for p in problems)


def _reference_validate(self: Matroid) -> list[str]:
    """The exchange axiom searched over every ordered pair of bases: the
    oracle of `Matroid.validate`, which must return the same list."""
    problems = []
    basis_set = set(self._masks)
    for b1 in self._masks:
        for b2 in self._masks:
            if b1 == b2:
                continue
            only1 = b1 & ~b2
            m = only1
            while m:
                x = m & -m
                m ^= x
                # need some y in b2 \ b1 with b1 - x + y a basis
                candidates = b2 & ~b1
                ok = False
                c = candidates
                while c:
                    y = c & -c
                    c ^= y
                    if (b1 ^ x) | y in basis_set:
                        ok = True
                        break
                if not ok:
                    (removed,) = self._unmask(x)
                    problems.append(
                        "exchange fails for bases "
                        f"{sorted(self._unmask(b1))} / {sorted(self._unmask(b2))}"
                        f" removing {removed!r}"
                    )
    return problems


def _random_families(seed, count):
    """Seeded random subfamilies of the r-subsets of n <= 7 elements.

    A quarter take any rank 0..n; the rest take 2 <= r <= n - 2, the only
    ranks at which a family of r-subsets can fail the exchange axiom.
    """
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.25:
            n = rng.randint(0, 7)
            rank = rng.randint(0, n)
        else:
            n = rng.randint(4, 7)
            rank = rng.randint(2, n - 2)
        keep = rng.uniform(0.2, 1)
        masks = [
            sum(1 << i for i in subset)
            for subset in itertools.combinations(range(n), rank)
            if rng.random() < keep
        ]
        yield Matroid([f"e{i}" for i in range(n)], rank, masks)


def test_validate_matches_the_pairwise_search():
    families = list(_random_families(1975, 4000))
    families += [named(name) for name in catalog_names()]
    families += [m for n in range(3, 8) for m in enumerate_simple_rank3(n).classes]
    families.append(named("U_4_10"))
    rejected = 0
    for m in families:
        expected = _reference_validate(m)
        assert m.validate() == expected, m
        rejected += bool(expected)
    assert 2000 < rejected < 3000


def test_rank_and_closure():
    m = k4()
    assert m.rank_of(("1", "2")) == 2
    assert m.rank_of(("2", "3", "5")) == 2  # a line
    assert m.closure(("2", "3")) == frozenset({"2", "3", "5"})
    assert m.closure(("1", "2")) == frozenset({"1", "2"})
    assert m.closure(()) == frozenset()
    assert m.is_dependent(("2", "3", "5"))
    assert m.is_independent(("1", "2", "3"))


def test_unknown_elements_say_not_in_the_ground_set():
    m = named("K4")
    with pytest.raises(ValueError, match=r"^element '9' not in the ground set$"):
        m.closure(["9"])
    with pytest.raises(ValueError, match=r"^basis element '9' not in the ground set$"):
        Matroid.from_bases(["1", "2"], [("1", "9")])
    with pytest.raises(ValueError, match=r"^element '9' not in the ground set$"):
        with_parallel_copy(m, "9", "x")


def test_loops_and_parallel():
    m = Matroid.from_bases(["1", "2", "3"], [("1",), ("2",)])
    assert m.loops() == ("3",)
    assert m.parallel_classes() == [("1", "2")]
    sim = m.simplify()
    assert sim.loops == ("3",)
    assert sim.matroid.elements == ("1",)
    assert sim.substitution == {"1": ("1", "2")}


def test_closure_and_parallel_classes_match_rank_definition():
    # references straight from the rank function: x is in cl(X) iff
    # rank(X + x) = rank(X); x, y non-loops are parallel iff rank {x,y} = 1
    small = [m for n in range(3, 7) for m in enumerate_simple_rank3(n).classes]
    cases = small + [with_parallel_copy(m, m.elements[-1], "p") for m in small]
    cases += [k4(), u24(), with_parallel_copy(u24(), "1", "1p"),
              Matroid.from_bases(["1", "2", "3"], [("1",), ("2",)]),
              Matroid(["1", "2"], 0, [0]), Matroid(["a", "b"], 1, ())]
    for m in cases:
        for size in range(len(m.elements) + 1):
            for subset in itertools.combinations(m.elements, size):
                r = m.rank_of(subset)
                expected = {x for x in m.elements if m.rank_of(subset + (x,)) == r}
                assert m.closure(subset) == expected
                assert m.closure(subset) == expected  # again, from the memo
        loops = {x for x in m.elements if m.rank_of((x,)) == 0}
        classes = set()
        for x in m.elements:
            if x not in loops:
                classes.add(tuple(sorted(
                    y for y in m.elements
                    if y not in loops and (y == x or m.rank_of((x, y)) == 1))))
        assert m.parallel_classes() == sorted(classes)
        assert m.is_simple() == (not loops and all(len(c) == 1 for c in classes))


def _general_closure(m, mask):
    """The one-pass closure over the bases, for any mask: the reference of
    the pair-flat fill."""
    r = m._rank_of_mask(mask)
    spanned = 0
    for b in m.basis_masks:
        if (b & mask).bit_count() == r:
            spanned |= b
    return ((1 << m.n) - 1) & ~(spanned & ~mask)


def test_pair_flats_match_the_general_closure():
    # On a rank-3 matroid the first pair query fills the flat of every pair
    # that some basis holds; the pairs no basis holds (a parallel pair, a
    # pair with a loop) take the general pass when they are queried.
    small = [Matroid(m.elements, 3, m.basis_masks)  # copies with no flat known
             for n in range(3, 8) for m in enumerate_simple_rank3(n).classes]
    doubled = [with_parallel_copy(m, x, "p") for m in small for x in m.elements]
    k4 = named("K4")
    looped = Matroid(k4.elements + ("l",), 3, k4.basis_masks)
    unheld = 0
    for m in small + doubled + [looped]:
        pairs = [1 << i | 1 << j for i, j in itertools.combinations(range(m.n), 2)]
        held = {pair for pair in pairs if any(b & pair == pair for b in m.basis_masks)}
        m.closure_mask(pairs[-1])
        assert held <= m._flats.keys(), m  # the first query filled every held pair
        for pair in pairs:
            assert m.closure_mask(pair) == _general_closure(m, pair), (m, pair)
        unheld += len(pairs) - len(held)
    assert unheld == len(doubled) + 6  # one parallel pair each, the loop's 6


def test_with_parallel_copy():
    m = with_parallel_copy(u24(), "1", "1p")
    assert m.rank == 2
    assert not m.is_simple()
    assert m.is_dependent(("1", "1p"))
    assert ("1", "1p") in m.parallel_classes()


def test_is_simple_after_a_deletion_matches_the_deleted_matroid():
    # Every census class on n <= 6 points, and each with one element doubled.
    # Deleted: every mask on n <= 5 points (n <= 6 with the copy); from
    # n = 6 on, each chain cl{e,f} - {e,f} of an independent pair and each
    # singleton (a coloop among them leaves a deletion with no bases).
    inputs = []  # (matroid, whether every mask is deleted)
    for n in range(3, 7):
        for m in enumerate_simple_rank3(n).classes:
            inputs.append((m, n <= 5))
            inputs.extend((with_parallel_copy(m, x, "p"), n <= 5) for x in m.elements)
    k4 = named("K4")
    looped = Matroid(k4.elements + ("l",), 3, k4.basis_masks)
    inputs.append((looped, True))
    answers = set()
    everything = 0
    for m, every_mask in inputs:
        if every_mask:
            masks = range(1 << m.n)
            everything += 1
        else:
            masks = {1 << i for i in range(m.n)}
            for e, f in itertools.combinations(range(m.n), 2):
                pair = 1 << e | 1 << f
                if m.is_independent([m.elements[e], m.elements[f]]):
                    masks.add(m.closure_mask(pair) & ~pair)
        for mask in masks:
            deletion = m.delete(x for i, x in enumerate(m.elements) if mask >> i & 1)
            assert m.is_simple(mask) == deletion.is_simple(), (m, mask)
            answers.add((m.is_simple(mask), bool(deletion.basis_masks)))
    assert everything == 1 + sum(
        1 + n for n in range(3, 6) for _ in enumerate_simple_rank3(n).classes)
    # (True, False): everything deleted, which leaves the empty matroid.
    assert answers == {(True, True), (False, True), (False, False), (True, False)}
    for mask, simple in ((0, False), (1 << 6, True)):
        deletion = looped.delete(["l"] if mask else [])
        assert looped.is_simple(mask) == deletion.is_simple() == simple
    # The witnesses are memoised per matroid: a copy or an unpickled matroid
    # starts without them and rebuilds equal ones of its own.
    doubled = with_parallel_copy(k4, "1", "7")
    for m in (k4, doubled, looped):
        witnesses = m._simplicity_witnesses()
        assert m._simplicity_witnesses() is witnesses
        for clone in (copy.copy(m), pickle.loads(pickle.dumps(m))):
            assert clone == m and clone._witnesses is None
            assert [clone.is_simple(mask) for mask in range(1 << m.n)] == [
                m.is_simple(mask) for mask in range(1 << m.n)]
            assert clone._witnesses == witnesses
    assert k4._simplicity_witnesses() == ()
    assert doubled._simplicity_witnesses() == ((1, 1 << 6), (1 << 6, 1))


def test_is_simple_rejects_a_mask_outside_the_ground_set():
    k4 = named("K4")
    for mask in (1 << 6, 1 << 6 | 1, -1):
        with pytest.raises(ValueError, match="outside the ground set"):
            k4.is_simple(mask)
    assert k4.is_simple((1 << 6) - 1) is True  # everything deleted: empty, simple


def test_labels_walk_the_mask_in_ground_set_order():
    # U_3_10's label "10" sorts before "2", so ground-set order is not
    # label order; reduction_chain, _unmask and the JSON output read this.
    m = named("U_3_10")
    assert "10" < "2" and m.elements.index("10") > m.elements.index("2")
    for mask in range(1 << m.n):
        scan = tuple(el for i, el in enumerate(m.elements) if mask >> i & 1)
        assert m._labels(mask) == scan, mask
        assert m._unmask(mask) == frozenset(scan)


def test_minor_contract_delete():
    m = k4()
    mc = m.contract(("1",))
    assert mc.rank == 2
    assert mc.elements == ("2", "3", "4", "5", "6")
    md = m.delete(("1",))
    assert md.rank == 3
    # contracting a dependent set yields the empty-basis minor
    empty = m.minor(contract=("2", "3", "5"))
    assert empty.basis_masks == ()
    assert empty.rank == 0
    with pytest.raises(ValueError):
        m.minor(contract=("1",), delete=("1",))


def test_empty_minor_versus_restriction():
    # the two conventions differ exactly on dependent inputs
    m = with_parallel_copy(u24(), "1", "1p")
    dependent = ("1", "1p")
    assert m.minor(contract=dependent).basis_masks == ()
    r = m.restriction(dependent)
    assert r.rank == 1
    assert len(r.bases) == 2


def test_dual_round_trip():
    m = k4()
    d = m.dual()
    assert d.rank == 3
    assert d.dual() == m
    assert len(d.bases) == len(m.bases)


def test_restriction_reranks():
    m = k4()
    r = m.restriction(("2", "3", "5"))
    assert r.rank == 2
    assert r.elements == ("2", "3", "5")


def test_lines_of():
    expected = [
        ("1", "3", "6"),
        ("1", "4", "5"),
        ("2", "3", "5"),
        ("2", "4", "6"),
    ]
    assert lines_of(k4()) == expected
    # Ascending masks over positions; labels sort whatever the element order.
    assert line_masks(k4()) == (0b010110, 0b011001, 0b100101, 0b101010)
    backwards = Matroid.from_bases(k4().elements[::-1], k4().bases)
    assert line_masks(backwards) == (0b010101, 0b011010, 0b100110, 0b101001)
    assert lines_of(backwards) == expected
    with pytest.raises(ValueError):
        lines_of(u24())
    with pytest.raises(ValueError):
        line_masks(u24())


def test_geometry_validation():
    with pytest.raises(ValueError, match="not a linear space.*share two points"):
        from_geometry(["1", "2", "3", "4"], [["1", "2", "3"], ["1", "2", "4"]])
    with pytest.raises(ValueError, match="rank < 3"):
        from_geometry(["1", "2", "3"], [["1", "2", "3"]])


def _reference_problems(points, lines) -> list[str]:
    """Every linear-space violation, in order: the body of the former
    `Geometry.validate`, the oracle of `from_geometry`'s messages."""
    points = tuple(points)
    lines = tuple(sorted((frozenset(l) for l in lines), key=sorted))
    problems = []
    pts = set(points)
    if len(pts) != len(points):
        problems.append("duplicate points")
    for line in lines:
        if len(line) < 3:
            problems.append(f"line {sorted(line)} has fewer than 3 points")
        if not line <= pts:
            problems.append(f"line {sorted(line)} uses unknown points")
    for i, l1 in enumerate(lines):
        for l2 in lines[i + 1 :]:
            if l1 == l2:
                problems.append(f"duplicate line {sorted(l1)}")
            elif len(l1 & l2) > 1:
                problems.append(
                    f"lines {sorted(l1)} and {sorted(l2)} share two points"
                )
    return problems


def _random_geometries(seed, count):
    """Seeded random point lists (n <= 8, sometimes with a repeated point) and
    line lists with duplicates, short lines, unknown and repeated points."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 8)
        points = [str(i) for i in range(1, n + 1)]
        if points and rng.random() < 0.1:
            points.append(rng.choice(points))
        pool = points + ["9"] * (rng.random() < 0.2)
        lines = []
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 5))):
            if lines and rng.random() < 0.1:
                lines.append(list(rng.choice(lines)))
            elif pool:
                line = rng.sample(pool, rng.randint(1, min(len(pool), 5)))
                if rng.random() < 0.1:
                    line.append(line[0])
                lines.append(line)
        yield points, lines


def test_geometry_messages_match_the_reference():
    # each geometry either fails with the reference's first three problems,
    # or builds the matroid of non-collinear triples
    outcomes = {"problems": 0, "rank < 3": 0, "built": 0}
    for points, lines in _random_geometries(2004, 3000):
        ref = _reference_problems(points, lines)
        data = {"elements": points, "lines": lines}
        if ref:
            with pytest.raises(ValueError) as info:
                matroid_from_json_dict(data)
            assert str(info.value) == "not a linear space: " + "; ".join(ref[:3])
            outcomes["problems"] += 1
            continue
        sets = [set(line) for line in lines]
        bases = [
            t for t in itertools.combinations(points, 3)
            if not any(set(t) <= line for line in sets)
        ]
        if not bases:
            with pytest.raises(ValueError, match="rank < 3"):
                matroid_from_json_dict(data)
            outcomes["rank < 3"] += 1
            continue
        assert matroid_from_json_dict(data) == Matroid.from_bases(points, bases, rank=3)
        outcomes["built"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_pair_bits():
    # one bit per pair of points, and two masks share two points exactly
    # when their pair bits meet
    rng = random.Random(64)
    for n in (0, 1, 2, 3, 9, 64):
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(30)]
        for a in masks:
            k = a.bit_count()
            assert _pair_bits(a, n).bit_count() == k * (k - 1) // 2
            for b in masks:
                assert bool(_pair_bits(a, n) & _pair_bits(b, n)) == ((a & b).bit_count() > 1)


def test_json_bases_form_round_trip():
    m = u24()
    text = dumps_matroid(m)
    assert set(json.loads(text)) == {"elements", "rank", "bases"}  # U_2_4 has rank 2
    again = loads_matroid(text)
    assert again == m


def test_json_geometry_form_round_trip():
    m = k4()
    doc = matroid_to_json_dict(m)
    assert set(doc) == {"elements", "lines"}  # simple rank 3 prefers geometry
    assert loads_matroid(json.dumps(doc)) == m


def test_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        matroid_from_json_dict({"elements": ["1"], "rank": 1, "bases": [["1"]], "x": 1})


def test_json_rejects_non_matroid():
    data = {"elements": ["1", "2", "3", "4"], "rank": 2,
            "bases": [["1", "2"], ["3", "4"]]}
    with pytest.raises(ValueError, match="not a matroid"):
        matroid_from_json_dict(data)


def test_json_rejects_empty_bases_with_positive_rank():
    for rank in (1, 0):
        with pytest.raises(ValueError, match="empty basis family"):
            matroid_from_json_dict({"elements": ["1"], "rank": rank, "bases": []})
    # the rank-0 family with the one empty basis is a matroid
    m = matroid_from_json_dict({"elements": ["1"], "rank": 0, "bases": [[]]})
    assert m.basis_masks == (0,) and m.loops() == ("1",)


_JSON_KEYS = ["elements", "rank", "bases", "lines", "x"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4)
    | st.sampled_from(["1", "2", "3", "4", "", "a b"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(_JSON_KEYS), inner, max_size=4),
    max_leaves=20,
)
# Matroid-shaped objects whose ids may be nested lists or integers.
_ids = st.recursive(
    st.sampled_from(["1", "2", "3", "4"]) | st.integers(0, 3),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=4,
)
_matroid_like = st.fixed_dictionaries(
    {"elements": st.lists(_ids, max_size=4), "rank": st.integers(0, 3),
     "bases": st.lists(st.lists(_ids, max_size=3), max_size=4)}
) | st.fixed_dictionaries(
    {"elements": st.lists(_ids, max_size=4),
     "lines": st.lists(st.lists(_ids, max_size=4), max_size=3)}
)


@given(_json_values | _matroid_like)
@settings(max_examples=300, deadline=None)
def test_loads_matroid_returns_a_matroid_or_raises_value_error(value):
    # Hostile input ends in a Matroid or a ValueError, never anything else
    # (a list used as an element id once escaped as TypeError).
    try:
        m = loads_matroid(json.dumps(value))
    except ValueError:
        return
    assert isinstance(m, Matroid)


def test_loads_matroid_rejects_deep_nesting():
    with pytest.raises(ValueError, match="invalid JSON"):
        loads_matroid("[" * 200000 + "]" * 200000)


def basis_form(m, pinned=()):
    """Canonical form of m's basis masks, each pinned element a leading
    singleton cell in order: two matroids on n elements are isomorphic, by
    a bijection sending pinned elements to pinned elements in order, exactly
    when these forms agree."""
    heads = [m.elements.index(el) for el in pinned]
    rest = [i for i in range(m.n) if i not in heads]
    return canonical_form(m.basis_masks, m.n, [[i] for i in heads] + [rest])


def test_relabelled_copy_has_the_same_form():
    m1 = k4()
    # relabel by reversing element names
    mapping = {e: str(7 - int(e)) for e in m1.elements}
    m2 = Matroid.from_bases(
        sorted(mapping.values()),
        [tuple(sorted(mapping[x] for x in b)) for b in m1.bases],
    )
    assert basis_form(m1) == basis_form(m2)
    assert basis_form(m1) != basis_form(u24())
    # one four-point line: six points, rank 3 and 16 bases, as K4 has
    four_point_line = from_geometry([str(i) for i in range(1, 7)], [["1", "2", "3", "4"]])
    assert len(four_point_line.basis_masks) == len(m1.basis_masks)
    assert basis_form(m1) != basis_form(four_point_line)


def test_pinned_forms_respect_the_pin():
    m = k4()
    # the automorphisms of K4 move any element to any other: 1 -> 2 swaps
    # the matching {1,2} within itself
    assert basis_form(m, ["1"]) == basis_form(m, ["2"])
    # but none sends the matching {1,2} onto {1,3}, which spans a line
    assert basis_form(m, ["1", "2"]) != basis_form(m, ["1", "3"])


@given(st.permutations(["1", "2", "3", "4", "5", "6"]))
@settings(max_examples=25, deadline=None)
def test_isomorphism_invariant_under_relabeling(perm):
    m1 = k4()
    mapping = dict(zip(m1.elements, perm))
    m2 = Matroid.from_bases(
        sorted(mapping.values()),
        [tuple(mapping[x] for x in b) for b in m1.bases],
    )
    assert basis_form(m1) == basis_form(m2)


def _image(masks, labelling):
    return tuple(
        sorted(
            sum(1 << labelling[p] for p in range(len(labelling)) if m >> p & 1)
            for m in masks
        )
    )


def _brute_images(masks, n, cells):
    """Reference: the images under every cell-respecting relabelling."""
    starts = list(itertools.accumulate((len(c) for c in cells), initial=0))
    images = set()
    for perms in itertools.product(
        *(itertools.permutations(range(s, s + len(c))) for s, c in zip(starts, cells))
    ):
        labelling = [0] * n
        for cell, perm in zip(cells, perms):
            for p, position in zip(cell, perm):
                labelling[p] = position
        images.add(_image(masks, labelling))
    return images


def _random_instance(rng):
    n = rng.randint(0, 6)
    masks = {rng.randrange(1 << n) for _ in range(rng.randint(0, 12))}
    points = list(range(n))
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n else []
    cells = [points[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    return masks, n, cells


def _random_labelling(rng, n, cells):
    """A relabelling sending each cell onto its own block of positions."""
    labelling = [0] * n
    start = 0
    for cell in cells:
        block = list(range(start, start + len(cell)))
        rng.shuffle(block)
        for p, position in zip(cell, block):
            labelling[p] = position
        start += len(cell)
    return labelling


def test_canonical_form_matches_brute_force():
    rng = random.Random(2012)
    for _ in range(400):
        masks, n, cells = _random_instance(rng)
        images = _brute_images(masks, n, cells)
        expected = min(images)
        assert canonical_form(masks, n, cells) == expected, (masks, n, cells)
        # early stop: a cell-respecting image is beaten iff it is not
        # minimal, and then by a smaller image of the same family
        candidate = _image(masks, _random_labelling(rng, n, cells))
        beaten = canonical_form(masks, n, cells, beat=candidate)
        if candidate == expected:
            assert beaten is None
        else:
            assert beaten < candidate
            assert beaten in images


def _ordered_partitions(points):
    """Every ordered partition of the list `points` into non-empty cells."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for cells in _ordered_partitions(rest):
        for i in range(len(cells)):  # first joins an existing cell
            yield cells[:i] + [[first] + cells[i]] + cells[i + 1:]
        for i in range(len(cells) + 1):  # first makes a cell of its own
            yield cells[:i] + [[first]] + cells[i:]


def test_canonical_form_of_at_most_one_mask_matches_brute_force():
    # Without `beat`, a family of at most one mask has a closed form.  Every
    # such family on n <= 6 points, the empty mask included, under every
    # ordered partition into cells; the oracle tries each cell-respecting
    # relabelling and keeps each mask's least image.
    partitions = 0
    for n in range(7):
        for cells in _ordered_partitions(list(range(n))):
            partitions += 1
            starts = itertools.accumulate((len(c) for c in cells), initial=0)
            least = [1 << n] * (1 << n)  # above every image
            for perms in itertools.product(
                *(itertools.permutations(range(s, s + len(c)))
                  for s, c in zip(starts, cells))
            ):
                labelling = [0] * n
                for cell, perm in zip(cells, perms):
                    for p, position in zip(cell, perm):
                        labelling[p] = position
                image = [0]  # image[mask], built one point p at a time
                for position in labelling:
                    image += [x | 1 << position for x in image]
                least = list(map(min, least, image))
            assert canonical_form([], n, cells) == ()
            for mask in range(1 << n):
                assert canonical_form([mask], n, cells) == (least[mask],), (mask, cells)
    assert partitions == 1 + 1 + 3 + 13 + 75 + 541 + 4683  # the Fubini numbers


def _reference_canonical_form(masks, n, cells=None, *, beat=None):
    """The canonical-form search without incremental images and the
    candidate filter: the oracle of `canonical_form`, which must return the
    same form and the same `beat` result."""
    family = frozenset(masks)
    size = len(family)
    cells = [range(n)] if cells is None else [list(c) for c in cells]
    slots = []
    cell_of = [0] * n
    for cell in cells:
        cell_mask = sum(1 << p for p in cell)
        for p in cell:
            cell_of[p] = cell_mask
        slots += [cell_mask] * len(cell)
    by_point = [[m for m in family if m >> p & 1] for p in range(n)]
    twins = [0] * n
    for p in range(n):
        for q in range(p + 1, n):
            swap = 1 << p | 1 << q
            if cell_of[p] >> q & 1 and all(
                (m ^ swap) in family for m in family if (m & swap) not in (0, swap)
            ):
                twins[p] |= 1 << q
                twins[q] |= 1 << p

    pos = [0] * n
    prefix = [0] if 0 in family else []
    initial = best = None if beat is None else list(beat)

    def image(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << pos[low.bit_length() - 1]
            mask ^= low
        return out

    def search(j, placed, tied):
        nonlocal best
        if j == n:
            if tied:
                return False
            best = prefix[:]
            return beat is not None
        start = len(prefix)
        tried = 0
        free = slots[j] & ~placed
        while free:
            bit = free & -free
            free ^= bit
            p = bit.bit_length() - 1
            if twins[p] & tried:
                continue
            tried |= bit
            pos[p] = j
            now = placed | bit
            seg = [image(m) for m in by_point[p] if not m & ~now]
            seg.sort()
            end = start + len(seg)
            child_tied = False
            if tied:
                target = best[start:end]
                if seg > target:
                    continue
                if seg == target:
                    if end == size or best[end] < 2 << j:
                        continue
                    child_tied = True
            prefix.extend(seg)
            before = best
            if search(j + 1, now, child_tied):
                return True
            del prefix[start:]
            if best is not before:
                tied = True
        return False

    search(0, 0, beat is not None)
    return None if best is initial else tuple(best)


def _engine_cases():
    """Every census class with n <= 8, as line masks and as basis masks, under
    a seeded relabelling, once with one cell and once with random cells; then
    the random families of `test_canonical_form_matches_brute_force`."""
    rng = random.Random(1998)
    for n in range(3, 9):
        for m in enumerate_simple_rank3(n).classes:
            for family in (line_masks(m), m.basis_masks):
                perm = list(range(n))
                rng.shuffle(perm)
                family = [sum(1 << perm[i] for i in range(n) if x >> i & 1) for x in family]
                points = list(range(n))
                rng.shuffle(points)
                cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
                yield family, n, None
                yield family, n, [points[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    rng = random.Random(2012)
    for _ in range(400):
        yield _random_instance(rng)


def test_canonical_form_matches_the_reference_search():
    rng = random.Random(2004)
    checked = 0
    for masks, n, cells in _engine_cases():
        assert canonical_form(masks, n, cells) == _reference_canonical_form(masks, n, cells)
        # the family itself, as the orderly census asks, and a random image
        own = tuple(sorted(set(masks)))
        other = _image(masks, _random_labelling(rng, n, cells or [range(n)]))
        for beat in (own, other):
            assert canonical_form(masks, n, cells, beat=beat) == _reference_canonical_form(
                masks, n, cells, beat=beat
            ), (masks, n, cells, beat)
        checked += 1
    assert checked == 2 * 2 * 107 + 400


def _swapped(mask, p, q):
    if (mask >> p ^ mask >> q) & 1:
        return mask ^ (1 << p | 1 << q)
    return mask


def test_transposition_twins_match_brute_force():
    rng = random.Random(1978)
    found = 0
    for _ in range(300):
        n = rng.randint(0, 7)
        family = {rng.randrange(1 << n) for _ in range(rng.randint(0, 10))}
        if n >= 2 and rng.random() < 0.5:
            # close the family under a random transposition, so twins occur
            p, q = rng.sample(range(n), 2)
            family |= {_swapped(m, p, q) for m in family}
        points = list(range(n))
        rng.shuffle(points)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n else []
        cells = [points[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        cell_of = [0] * n
        for cell in cells:
            for p in cell:
                cell_of[p] = sum(1 << x for x in cell)
        family = frozenset(family)
        expected = [0] * n
        for p, q in itertools.permutations(range(n), 2):
            if cell_of[p] >> q & 1 and {_swapped(m, p, q) for m in family} == family:
                expected[p] |= 1 << q
        assert transposition_twins(family, n, cell_of) == expected, (family, n, cells)
        if len(cells) == 1:
            assert transposition_twins(family, n) == expected
        found += sum(bin(t).count("1") for t in expected)
    assert found > 200  # the cases do exercise twins (288 twin bits)


def test_canonical_form_cells_must_partition():
    with pytest.raises(ValueError):
        canonical_form([0b11], 3, [[0, 1]])
    with pytest.raises(ValueError):
        canonical_form([0b11], 2, [[0, 1], [1]])
    with pytest.raises(ValueError):
        canonical_form([0b11], 2, [[0, 2]])
