import math
import random

import pytest

from logsig import (GeneratorSet, Permutation, build_chain, bundled_group_names,
                    chain_ls, derived_series, derived_subgroup, is_solvable,
                    load_group, load_verified_chain, normal_closure, parse_cycles,
                    perm)
from logsig import chain as chain_module
from logsig.perm import _identity_raw as identity_raw
from logsig.perm import _inv_raw as inv_raw
from logsig.perm import _mul_raw as mul_raw


def gens_of(*cycle_strs, degree):
    return GeneratorSet(degree, tuple(parse_cycles(s, degree) for s in cycle_strs))


def test_single_transposition():
    chain = build_chain(gens_of("(1,2)", degree=2))
    assert chain.order == 2
    assert chain.base == (0,)


def test_known_orders(m11, m12, m22, m24, a5):
    assert m11.order == 7920 == 11 * 10 * 9 * 8
    assert m12.order == 95_040
    assert m22.order == 443_520
    assert m24.order == 244_823_040
    assert a5.order == 60


def test_m24_order_matches_stabilizer_arithmetic(m24):
    # 2^11 * |M24| divides |Co1| with cokernel 8,292,375
    co1 = 2 ** 21 * 3 ** 9 * 5 ** 4 * 7 ** 2 * 11 * 13 * 23
    assert m24.order == co1 // 8_292_375 // 2 ** 11


def test_order_is_product_of_orbit_sizes(m11, s4):
    for chain in (m11, s4):
        assert chain.order == math.prod(len(lv.orbit) for lv in chain.levels)


def test_transversal_representatives_map_base_to_point(m12):
    for lv in m12.levels:
        for p, rep in lv.transversal.items():
            assert rep(lv.point) == p
        assert lv.transversal[lv.point].is_identity()


def test_strong_generators_fix_earlier_base_points(m12):
    for i, lv in enumerate(m12.levels):
        for g in lv.gens:
            for j in range(i):
                assert g(m12.levels[j].point) == m12.levels[j].point


def test_contains_identity_and_generators(m11):
    assert Permutation.identity(11) in m11
    for g in m11.generators.gens:
        assert g in m11


def test_odd_permutation_not_in_a4():
    a4 = build_chain(load_group("A4"))
    assert parse_cycles("(1,2)", 4) not in a4


def test_random_generator_words_are_members(m11):
    rng = random.Random(1)
    gens = m11.generators.gens
    for _ in range(300):
        w = Permutation.identity(11)
        for _ in range(rng.randrange(1, 12)):
            w = w * rng.choice(gens)
        assert w in m11


def test_element_index_roundtrip_exhaustive(m11):
    # order 7920: the whole bijection, both directions
    seen = set()
    for i, g in enumerate(m11.elements()):
        assert m11.index_of(g) == i
        seen.add(g.img)
    assert len(seen) == m11.order
    assert m11.element_at(0).is_identity()


def test_element_at_matches_iteration_order(s4):
    listed = list(s4.elements())
    for i in (0, 1, 5, 11, 23):
        assert s4.element_at(i) == listed[i]


def test_index_injectivity_sample(m12):
    rng = random.Random(2)
    pairs = set()
    for _ in range(2000):
        i, j = rng.randrange(m12.order), rng.randrange(m12.order)
        if i != j:
            assert m12.element_at(i) != m12.element_at(j)
        pairs.add((i, j))


def test_element_at_range_errors(s4):
    with pytest.raises(IndexError):
        s4.element_at(24)
    with pytest.raises(IndexError):
        s4.element_at(-1)
    with pytest.raises(ValueError):
        s4.index_of(parse_cycles("(1,2)", 5) * Permutation.identity(5))


def test_nonmember_index_raises(a5):
    with pytest.raises(ValueError):
        a5.index_of(parse_cycles("(1,2)", 5))


def test_base_hint_is_respected(m24):
    hinted = build_chain(m24.generators, base_hint=[22, 23])
    assert hinted.base[:2] == (22, 23)
    assert hinted.order == m24.order
    # the level-2 group fixes both hinted points
    sub = hinted.subchain(2)
    assert sub.order == 443_520
    for g in sub.generators.gens:
        assert g(22) == 22 and g(23) == 23


def test_deterministic_rebuild(m12):
    again = build_chain(m12.generators)
    assert again.base == m12.base
    for lv1, lv2 in zip(again.levels, m12.levels):
        assert lv1.orbit == lv2.orbit
        assert all(lv1.transversal[p] == lv2.transversal[p] for p in lv1.orbit)


def test_trivial_and_degenerate_groups():
    trivial = build_chain(GeneratorSet(4, (Permutation.identity(4),)))
    assert trivial.order == 1 and trivial.levels == ()
    zero = build_chain(GeneratorSet(0, (Permutation.identity(0),)))
    assert zero.order == 1


def test_subchain_orders(m11):
    assert m11.subchain(0).order == 7920
    assert m11.subchain(1).order == 720
    assert m11.subchain(4).order == 1


def test_generator_set_needs_one_degree():
    with pytest.raises(ValueError, match="nonempty"):
        GeneratorSet(3, ())
    with pytest.raises(ValueError, match="generator degree 4 != set degree 3"):
        GeneratorSet(3, (Permutation.identity(3), Permutation.identity(4)))


def test_out_of_range_base_hint_and_level(m11):
    with pytest.raises(ValueError, match="base hint point 11 out of range"):
        build_chain(m11.generators, base_hint=[0, 11])
    for level in (-1, 5):
        with pytest.raises(IndexError, match="level %d out of range" % level):
            m11.subchain(level)


def test_membership_rejects_another_degree(m11):
    g = parse_cycles("(1,2)", 12)
    for check in (m11.sift, m11.contains, lambda x: normal_closure(m11, [x])):
        with pytest.raises(ValueError, match="degree mismatch"):
            check(g)


def test_derived_series_of_s4(s4):
    series = derived_series(s4)
    assert [c.order for c in series] == [24, 12, 4, 1]
    assert is_solvable(s4)


def test_a5_is_perfect(a5):
    assert derived_subgroup(a5).order == 60
    assert not is_solvable(a5)


def test_s5_derived_subgroup_is_a5(s5):
    assert derived_subgroup(s5).order == 60
    assert not is_solvable(s5)


def test_abelian_groups_are_solvable():
    c12 = build_chain(load_group("C12"))
    assert is_solvable(c12)
    assert derived_subgroup(c12).order == 1


def test_normal_closure_of_three_cycle_in_s4(s4):
    closure = normal_closure(s4, [parse_cycles("(1,2,3)", 4)])
    assert closure.order == 12  # the alternating group
    v4 = normal_closure(s4, [parse_cycles("(1,2)(3,4)", 4)])
    assert v4.order == 4


def test_contains_cross_validated_by_enumeration():
    # membership via sifting agrees with exhaustive element enumeration
    a4 = build_chain(load_group("A4"))
    s4 = build_chain(load_group("S4"))
    members = set(a4.elements())
    assert len(members) == 12
    for g in s4.elements():
        assert a4.contains(g) == (g in members)


def bfs_closure(gens):
    """Independent order oracle: plain closure enumeration, no chains."""
    frontier = [Permutation.identity(gens.degree)]
    seen = {frontier[0]}
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens.gens:
                h = s * g
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


@pytest.mark.parametrize("name", ["A4", "S4", "A5", "S5", "D10", "C100",
                                  "Q8", "SL(2,3)", "PSL(2,7)", "PSL(2,11)"])
def test_order_matches_bfs_closure(name):
    gens = load_group(name)
    chain = build_chain(gens)
    elements = bfs_closure(gens)
    assert chain.order == len(elements)
    assert set(chain.elements()) == elements


def test_random_generator_sets_match_bfs(m11):
    rng = random.Random(11)
    for trial in range(8):
        degree = rng.randrange(4, 9)
        k = rng.randrange(1, 4)
        gens = GeneratorSet(degree, tuple(
            Permutation(rng.sample(range(degree), degree)) for _ in range(k)))
        chain = build_chain(gens)
        assert chain.order == len(bfs_closure(gens))


def build_chain_reference(gens, base_hint=()):
    """Deterministic Schreier-Sims as it was before any Schreier generator
    was skipped: every level sifts the generator of every orbit point and
    strong generator, tree edges and repeats included, and every product is
    a ``_mul_raw``.  Returns one ``(point, orbit, forward, gens, table)``
    tuple per level, ``forward`` and ``table`` keyed by orbit point, in the
    terms of :class:`~logsig.chain.ChainLevel`."""
    n = gens.degree
    e = identity_raw(n)
    nodes = []  # [point, strong gens, forward images, inverse images]

    def rebuild(node):
        point, strong = node[0], node[1]
        fwd, inv = {point: e}, {point: e}
        queue = [point]
        for p in queue:
            for s in strong:
                q = s[p]
                if q not in fwd:
                    fwd[q] = mul_raw(s, fwd[p])
                    inv[q] = mul_raw(inv[p], inv_raw(s))
                    queue.append(q)
        node[2:] = [fwd, inv]

    def new_node(p):
        nodes.append([p, [], None, None])
        rebuild(nodes[-1])

    def strip(raw, start):
        for k in range(start, len(nodes)):
            inv = nodes[k][3].get(raw[nodes[k][0]])
            if inv is None:
                return raw, k
            raw = mul_raw(inv, raw)
            if raw == e:
                break
        return raw, len(nodes)

    def install(raw, lo, hi):
        if hi == len(nodes):
            used = {nd[0] for nd in nodes}
            new_node(next(p for p in range(n) if raw[p] != p and p not in used))
        for k in range(lo, hi + 1):
            nodes[k][1].append(raw)
            rebuild(nodes[k])

    for p in base_hint:
        new_node(p)
    for g in gens.gens:
        if g.img != e:
            h, j = strip(g.img, 0)
            if h != e:
                install(h, 0, j)
    i = len(nodes) - 1
    while i >= 0:
        point, strong, fwd, inv = nodes[i]
        found = None
        for p in sorted(fwd):
            for s in strong:
                sch = mul_raw(inv[s[p]], mul_raw(s, fwd[p]))
                if sch != e:
                    h, j = strip(sch, i + 1)
                    if h != e:
                        found = h, j
                        break
            if found:
                break
        if found:
            install(found[0], i + 1, found[1])
            i = found[1]
        else:
            i -= 1
    out = []
    for point, strong, fwd, inv in nodes:
        orbit = (point,) + tuple(sorted(p for p in fwd if p != point))
        out.append((point, orbit, fwd, strong,
                    {p: ((i,), inv[p]) for i, p in enumerate(orbit)}))
    return out


def chain_levels(chain):
    """The chain's levels in the terms of :func:`build_chain_reference`;
    each table entry's forward image must be its transversal's own array."""
    out = []
    for lv in chain.levels:
        assert all(lv.table[p][2] is lv.transversal[p].img for p in lv.orbit)
        out.append((lv.point, lv.orbit, {p: u.img for p, u in lv.transversal.items()},
                    [g.img for g in lv.gens], {p: t[:2] for p, t in lv.table.items()}))
    return out


@pytest.mark.parametrize("name", bundled_group_names())
def test_build_chain_matches_the_reference_on_catalog_groups(name):
    gens = load_group(name)
    assert chain_levels(build_chain(gens)) == build_chain_reference(gens)


def test_build_chain_matches_the_reference_with_a_base_hint(m24):
    assert (chain_levels(build_chain(m24.generators, base_hint=[22, 23]))
            == build_chain_reference(m24.generators, base_hint=[22, 23]))


def test_build_chain_matches_the_reference_on_random_generator_sets():
    rng = random.Random(24)
    for trial in range(40):
        degree = rng.randrange(2, 13)
        gens = GeneratorSet(degree, tuple(
            Permutation(rng.sample(range(degree), degree))
            for _ in range(rng.randrange(1, 4))))
        assert chain_levels(build_chain(gens)) == build_chain_reference(gens), trial


@pytest.mark.parametrize("name", ["M22", "M24", "D300"])
def test_contains_stops_once_the_residue_is_the_identity(name, monkeypatch):
    # a level-k entry of the chain signature fixes b0..b(k-1), so its sift
    # multiplies by nothing there, and at level k it is the transversal
    # element its image selects: the walk stops before any product.  The
    # membership walk multiplies through chain._images; perm's _images and
    # _mul_raw are counted too, so a product made by any kernel fails the test
    chain = load_verified_chain(name)
    ls = chain_ls(chain)
    calls = []

    def counted(kernel):
        def product(a, b):
            calls.append(None)
            return kernel(a, b)
        return product

    monkeypatch.setattr(chain_module, "_images", counted(perm._images))
    monkeypatch.setattr(perm, "_images", counted(perm._images))
    monkeypatch.setattr(perm, "_mul_raw", counted(mul_raw))
    for block, ann in zip(ls.blocks, ls.provenance.annotations):
        for e in block:
            assert chain.contains(e)
            assert calls == [], (ann.level, e)
    assert ann.level + 1 == len(chain.levels)


def later_level_nonmember(chain, rng):
    """A member times a transposition that fixes b0 and sends b1 outside its
    level-1 orbit: the sift passes level 0 and leaves the orbit at level 1."""
    b0, b1 = chain.base[:2]
    out = next(p for p in range(chain.degree) if p != b0 and p not in chain.levels[1].orbit)
    img = list(range(chain.degree))
    img[b1], img[out] = out, b1
    return chain.element_at(rng.randrange(chain.order)) * Permutation(img)


@pytest.mark.parametrize("name, leaves_later", [
    ("M12", False), ("A5", False), ("C1000", False), ("D300", True)])
def test_contains_agrees_with_the_full_walk(name, leaves_later):
    # D300 has tuple images, and its level-1 orbit is two points, so a
    # nonmember's walk can pass level 0 and leave the orbit at level 1;
    # C1000's chain has one level, so every walk ends after one table
    chain = load_verified_chain(name)
    rng = random.Random(name)
    n = chain.degree
    members = [chain.element_at(rng.randrange(chain.order)) for _ in range(30)]
    members += [Permutation.identity(n)] + [g for lv in chain.levels for g in lv.gens]
    members += [lv.transversal[p] for lv in chain.levels for p in lv.orbit[:20]]
    others = [Permutation(rng.sample(range(n), n)) for _ in range(30)]
    if leaves_later:
        later = [later_level_nonmember(chain, rng) for _ in range(10)]
        assert all(0 < perm._sift(g.img, chain._walk, chain._identity)[2] < len(chain.levels)
                   for g in later)
        # and transversal elements of every level times such a nonmember
        others += later + [lv.transversal[p] * later[0]
                           for lv in chain.levels for p in lv.orbit[:20]]
    assert all(chain.contains(g) for g in members)
    assert [chain.contains(g) for g in others] == [chain.sift(g).is_identity()
                                                   for g in others]
    assert not all(chain.contains(g) for g in others)
