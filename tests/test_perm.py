import itertools
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from logsig import (CycleFormatError, LogSignature, Permutation, TameIndexer,
                    build_chain, build_mls, chain, chain_ls, factorize,
                    factorize_tame, format_cycles, load_group, parse_cycles, perm,
                    pgm, randomize_ls, reconstruct, refine_ls, verify_exhaustive,
                    verify_structural)
from logsig.perm import (_digits_of, _identity_raw, _images, _mul_raw, _order_raw,
                         _products, _raw, _value_of)

perms = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.permutations(list(range(n)))).map(Permutation)
# across the 256-point boundary between bytes and tuple image arrays
wide_perms = st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.permutations(list(range(n)))).map(Permutation)


def test_identity_fixes_everything():
    e = Permutation.identity(5)
    assert all(e(x) == x for x in range(5))
    assert e.is_identity()


def test_compose_applies_right_factor_first():
    # hand evaluation: g=(1,2,3), h=(1,2) on 3 points gives the transposition (1,3)
    g = parse_cycles("(1,2,3)", 3)
    h = parse_cycles("(1,2)", 3)
    assert g * h == parse_cycles("(1,3)", 3)


def test_compose_identity_is_neutral():
    g = parse_cycles("(1,2,3)(4,5)", 5)
    e = Permutation.identity(5)
    assert e * g == g
    assert g * e == g


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)


def test_compose_with_a_non_permutation_is_a_type_error():
    with pytest.raises(TypeError):
        Permutation.identity(3) * 3


def test_inverse_of_three_cycle():
    g = parse_cycles("(1,2,3)", 3)
    assert g.inverse() == parse_cycles("(1,3,2)", 3)
    assert (g * g.inverse()).is_identity()


def test_order_examples():
    assert Permutation.identity(4).order() == 1
    assert parse_cycles("(1,2,3)(4,5)", 5).order() == 6
    assert parse_cycles("(1,2,3,4,5,6,7,8,9,10,11)", 11).order() == 11


def test_power():
    g = parse_cycles("(1,2,3,4,5)", 5)
    assert g ** 5 == Permutation.identity(5)
    assert g ** -1 == g.inverse()
    assert g ** 7 == g * g


def test_parse_identity():
    assert parse_cycles("()", 4) == Permutation.identity(4)


def test_parse_transposition_pairs():
    g = parse_cycles("(2,10)(4,11)(5,7)(8,9)", 11)
    assert g(1) == 9 and g(9) == 1  # 0-based: point 2 <-> point 10
    assert g.order() == 2


def test_format_canonicalizes():
    assert format_cycles(parse_cycles("(3,1,2)", 3)) == "(1,2,3)"
    assert format_cycles(Permutation.identity(6)) == "()"


@pytest.mark.parametrize("bad", [
    "(1,2)(2,3)",       # repeated point
    "(1,99)",           # point out of range
    "(1,2",             # unclosed
    "1,2)",             # missing open
    "(1,x)",            # not a number
    "",                 # empty
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(CycleFormatError):
        parse_cycles(bad, 5)


def test_validating_constructor():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([1, 2, 3])


def test_large_degree_uses_tuple_storage():
    n = 500
    g = parse_cycles("(1,2,3)", n)
    assert g.degree == n
    assert (g * g * g).is_identity()
    assert parse_cycles(format_cycles(g), n) == g


@given(wide_perms)
@example(Permutation(list(range(1, 256)) + [0]))
@example(Permutation(list(range(1, 257)) + [0]))
def test_double_inverse_roundtrip(g):
    assert type(g.inverse().img) is type(g.img)
    assert g.inverse().inverse() == g


@given(perms)
def test_parse_format_roundtrip(g):
    assert parse_cycles(format_cycles(g), g.degree) == g


@given(st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(*(st.permutations(list(range(n))),) * 3)))
def test_composition_associative(triple):
    g, h, k = (Permutation(p) for p in triple)
    assert (g * h) * k == g * (h * k)


@given(wide_perms)
@example(Permutation(list(range(1, 256)) + [0]))
@example(Permutation(list(range(1, 257)) + [0]))
def test_inverse_law(g):
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


wide_pairs = st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.tuples(*(st.permutations(list(range(n))),) * 2)).map(
    lambda t: (Permutation(t[0]), Permutation(t[1])))


@given(wide_pairs)
@example((Permutation(list(range(1, 256)) + [0]), Permutation(range(255, -1, -1))))
@example((Permutation(list(range(1, 257)) + [0]), Permutation(range(256, -1, -1))))
def test_images_and_mul_raw_agree(pair):
    # the two product kernels: one translate and one map over the images
    a, b = pair
    got = _images(a.img, b.img)
    assert type(got) is type(a.img)
    assert got == _mul_raw(a.img, b.img) == _raw([a(x) for x in b.img], a.degree)


@given(perms)
def test_order_is_least_annihilating_exponent(g):
    assert (g ** g.order()).is_identity()
    for d in range(1, g.order()):
        assert not (g ** d).is_identity()


@given(wide_perms)
@example(Permutation.identity(1))
@example(Permutation.identity(256))
@example(Permutation.identity(300))
@example(Permutation(list(range(1, 256)) + [0]))  # order equal to the degree
@example(parse_cycles("(1,2,3,4,5)(6,7,8,9,10,11,12)", 12))  # order 35 > degree
def test_order_raw_is_lcm_of_cycle_lengths(g):
    assert _order_raw(g.img) == math.lcm(*(len(c) for c in g.cycles()))


# -- the product-set kernel and the mixed-radix pair --------------------------

def _random_signature(rng, degree, nblocks):
    blocks = []
    for _ in range(nblocks):
        size = rng.randint(1, 4)
        entries = {}
        while len(entries) < size:
            p = Permutation(rng.sample(range(degree), degree))
            entries.setdefault(p.img, p)
            if len(entries) == math.factorial(degree):
                break
        blocks.append(tuple(entries.values()))
    return LogSignature(degree=degree, blocks=tuple(blocks))


def test_products_match_reconstruct_and_brute_force():
    rng = random.Random(20150704)
    for _ in range(300):
        degree = rng.randint(1, 6)
        ls = _random_signature(rng, degree, rng.randint(0, 4))
        sizes = ls.block_sizes
        raws = [[e.img for e in b] for b in ls.blocks]
        got = list(_products(raws, _identity_raw(degree)))
        assert len(got) == ls.product_count()
        for r, q in enumerate(got):
            digits = _digits_of(r, sizes)
            assert _value_of(digits, sizes) == r
            assert q == reconstruct(ls, digits).img
        brute = []
        for choice in itertools.product(*ls.blocks):
            g = Permutation.identity(degree)
            for e in choice:
                g = g * e
            brute.append(g.img)
        assert got == brute


def test_products_start_from_prefix():
    g = parse_cycles("(1,2,3)", 4)
    blocks = [[parse_cycles("(1,2)", 4).img, parse_cycles("(3,4)", 4).img],
              [parse_cycles("()", 4).img, parse_cycles("(2,4)", 4).img]]
    got = list(_products(blocks, g.img))
    expect = [(g * Permutation._wrap(a) * Permutation._wrap(b)).img
              for a in blocks[0] for b in blocks[1]]
    assert got == expect
    assert list(_products([], g.img)) == [g.img]


def test_products_tuple_images_above_degree_256():
    n = 300
    shift = Permutation([(i + 1) % n for i in range(n)])
    assert type(shift.img) is tuple
    blocks = [[Permutation.identity(n).img, shift.img], [shift.img]]
    got = list(_products(blocks, _identity_raw(n)))
    assert got == [shift.img, (shift * shift).img]
    assert all(type(q) is tuple for q in got)


@pytest.mark.parametrize("degree", [5, 300])
def test_products_last_block_may_hold_packed_strings(degree):
    # a last-block entry longer than the degree is mapped point by point,
    # so a packed string of images gives the packed images of the products
    rng = random.Random(degree)
    a, b, c, d = (Permutation(rng.sample(range(degree), degree)) for _ in range(4))
    packed = c.img + d.img + c.img[:3]
    got = list(_products([[a.img, b.img], [packed]], _identity_raw(degree)))
    assert got == [(x * c).img + (x * d).img + (x * c).img[:3] for x in (a, b)]


def test_products_many_one_entry_blocks_do_not_recurse():
    e = _identity_raw(1)
    assert list(_products([[e]] * 3000, e)) == [e]


def test_digits_of_is_mixed_radix_last_fastest():
    assert _digits_of(0, ()) == ()
    assert [_digits_of(r, (2, 3)) for r in range(6)] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert _value_of((1, 2, 3), (2, 3, 5)) == 1 * 15 + 2 * 5 + 3


# -- the kernel split ---------------------------------------------------------

def test_set_up_makes_no_map_based_product(m11, m12, m24, monkeypatch):
    # _mul_raw is kept for the per-element paths: the digit walk of tame and
    # generic factorization, reconstruct and element_at; chain building,
    # membership, indexing, the oracles, refinement and key generation and
    # loading all multiply through _images
    rng = random.Random(25)
    members = [(c, c.element_at(rng.randrange(c.order))) for c in (m12, m24) for _ in range(20)]
    others = [(c, Permutation(rng.sample(range(c.degree), c.degree))) for c in (m12, m24)]
    refined = build_mls(m12)
    base = chain_ls(m12)
    calls = []

    def counted(module):
        def product(a, b):
            calls.append(module.__name__)
            return _mul_raw(a, b)
        return product

    for module in (perm, chain, factorize):
        monkeypatch.setattr(module, "_mul_raw", counted(module))
    for name in ("M24", "D300"):
        build_chain(load_group(name))
    assert all(c.contains(g) for c, g in members)
    assert not any(c.contains(g) for c, g in others)
    indexer = TameIndexer(refined, m12)
    assert verify_structural(refined, m12).ok and verify_structural(base, m12).ok
    assert verify_exhaustive(refined, m12).ok
    refine_ls(chain_ls(m11), m11)
    pgm._make_key(m12, randomize_ls(base, m12, 1), randomize_ls(base, m12, 2), 0)
    assert calls == []
    # the patch reaches each module that keeps a map-based product
    g = m12.element_at(rng.randrange(m12.order))
    assert reconstruct(refined, factorize_tame(g, indexer)) == g
    assert set(calls) == {"logsig.perm", "logsig.chain", "logsig.factorize"}
