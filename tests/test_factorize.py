import dataclasses
import functools
import gc
import random
import time
import weakref
from itertools import product
from math import prod

import pytest

from logsig import (FactorizationError, LogSignature, Permutation, Provenance,
                    TameIndexer, build_chain, chain_ls, factorize_generic,
                    factorize_tame, load_group, load_verified_chain,
                    mls_solvable, parse_cycles, reconstruct, refine_ls)
from logsig import factorize
from logsig.perm import (_digits_of, _identity_raw, _inv_raw, _mul_raw,
                         _products, _value_of)


def test_identity_factors_to_zero_digits(m11):
    ls = chain_ls(m11)
    idx = TameIndexer(ls, m11)
    digits = factorize_tame(Permutation.identity(11), idx)
    assert digits == (0, 0, 0, 0)


def test_block_entry_has_single_nonzero_digit(m11):
    ls = chain_ls(m11)
    idx = TameIndexer(ls, m11)
    g = ls.blocks[0][4]
    assert factorize_tame(g, idx) == (4, 0, 0, 0)


def test_tame_roundtrip_chain_and_refined(m12):
    rng = random.Random(3)
    for ls in (chain_ls(m12), refine_ls(chain_ls(m12), m12)):
        idx = TameIndexer(ls, m12)
        for _ in range(2000):
            g = m12.element_at(rng.randrange(m12.order))
            digits = factorize_tame(g, idx)
            assert reconstruct(ls, digits) == g


def test_tame_digit_roundtrip(m11):
    ls = refine_ls(chain_ls(m11), m11)
    idx = TameIndexer(ls, m11)
    rng = random.Random(4)
    for _ in range(500):
        digits = tuple(rng.randrange(len(b)) for b in ls.blocks)
        assert factorize_tame(reconstruct(ls, digits), idx) == digits


def test_tame_rejects_nonmember(m11):
    idx = TameIndexer(chain_ls(m11), m11)
    with pytest.raises(FactorizationError):
        factorize_tame(parse_cycles("(1,2)", 11), idx)


def test_tame_needs_annotations(s4):
    with pytest.raises(ValueError):
        TameIndexer(mls_solvable(s4), s4)


@pytest.mark.parametrize("name", ["M11", "D300"])
def test_tame_digits_of_chain_ls_are_chain_index(name):
    # D300 has degree > 256, so its tables hold tuple images and inverses
    # composed in the orbit transversal
    chain = load_verified_chain(name)
    idx = TameIndexer(chain_ls(chain), chain)
    sizes = [len(lv.orbit) for lv in chain.levels]
    for g in chain.elements():
        assert chain.index_of(g) == _value_of(idx.digits(g), sizes)


def test_generic_c2():
    c2 = build_chain(load_group("C2"))
    ls = chain_ls(c2)
    assert factorize_generic(parse_cycles("(1,2)", 2), ls) == (1,)
    assert factorize_generic(Permutation.identity(2), ls) == (0,)


def test_generic_s4_all_elements_distinct_digits(s4):
    ls = mls_solvable(s4)
    seen = set()
    for g in s4.elements():
        digits = factorize_generic(g, ls)
        assert reconstruct(ls, digits) == g
        seen.add(digits)
    assert len(seen) == 24


def test_generic_agrees_with_tame(m11):
    ls = refine_ls(chain_ls(m11), m11)
    idx = TameIndexer(ls, m11)
    rng = random.Random(5)
    for _ in range(200):
        g = m11.element_at(rng.randrange(m11.order))
        assert factorize_generic(g, ls) == factorize_tame(g, idx)


def test_generic_rejects_nonmember(a5):
    with pytest.raises(FactorizationError):
        factorize_generic(parse_cycles("(1,2)", 5), chain_ls(a5))


def test_reconstruct_enumerates_group_bijectively(s4):
    ls = mls_solvable(s4)
    elements = {reconstruct(ls, digits)
                for digits in product(*(range(len(b)) for b in ls.blocks))}
    assert len(elements) == 24
    assert elements == set(s4.elements())


def test_reconstruct_validates_digits(s4):
    ls = mls_solvable(s4)
    with pytest.raises(ValueError):
        reconstruct(ls, (99,) * len(ls.blocks))
    with pytest.raises(ValueError):
        reconstruct(ls, (0,))


def test_trivial_group_empty_signature():
    ls = LogSignature(degree=4, blocks=())
    assert factorize_generic(Permutation.identity(4), ls) == ()
    with pytest.raises(FactorizationError):
        factorize_generic(parse_cycles("(1,2)", 4), ls)
    for g in (Permutation.identity(4), parse_cycles("(1,2)", 4)):
        assert outcome(factorize_generic, g, ls) == outcome(generic_reference, g, ls)


def test_exhaustive_digit_bijection_m11(m11):
    # all 7920 digit tuples hit all 7920 elements exactly once
    ls = refine_ls(chain_ls(m11), m11)
    idx = TameIndexer(ls, m11)
    seen = set()
    for digits in product(*(range(len(b)) for b in ls.blocks)):
        g = reconstruct(ls, digits)
        assert factorize_tame(g, idx) == digits
        seen.add(g.img)
    assert len(seen) == 7920


def generic_reference(g, ls, budget=10_000_000, store_cap=100_000):
    """Meet-in-the-middle factorization that inverts every product of the
    scanned half, with the split, checks and messages of factorize_generic."""
    if g.degree != ls.degree:
        raise ValueError("degree mismatch")
    sizes = ls.block_sizes
    total = prod(sizes)
    if total > budget:
        raise ValueError("%d products exceed the budget of %d" % (total, budget))
    split = min(range(len(sizes) + 1),
                key=lambda t: (max(prod(sizes[:t]), prod(sizes[t:])), t))
    left_n, right_n = prod(sizes[:split]), prod(sizes[split:])
    if min(left_n, right_n) > store_cap:
        raise ValueError("smaller half-product %d exceeds store cap %d"
                         % (min(left_n, right_n), store_cap))
    raws = [[e.img for e in block] for block in ls.blocks]
    scan_right = left_n <= right_n
    stored_raws, scan_raws = ((raws[:split], raws[split:]) if scan_right
                              else (raws[split:], raws[:split]))
    e = _identity_raw(ls.degree)
    stored: dict = {}
    for rank, p in enumerate(_products(stored_raws, e)):
        stored.setdefault(p, rank)
    for rank, p in enumerate(_products(scan_raws, e)):
        p_inv = _inv_raw(p)
        hit = stored.get(_mul_raw(g.img, p_inv) if scan_right else _mul_raw(p_inv, g.img))
        if hit is not None:
            left, right = (hit, rank) if scan_right else (rank, hit)
            return _digits_of(left * right_n + right, sizes)
    raise FactorizationError("element has no factorization; not a group member")


def outcome(fn, g, ls, **limits):
    """Digits, or the type and message of the error raised."""
    try:
        return fn(g, ls, **limits)
    except ValueError as e:  # FactorizationError included
        return type(e), str(e)


def scans_right(ls):
    sizes = ls.block_sizes
    split = min(range(len(sizes) + 1),
                key=lambda t: (max(prod(sizes[:t]), prod(sizes[t:])), t))
    return prod(sizes[:split]) <= prod(sizes[split:])


def doubled(blocks):
    """Every block taken twice in a row.  Chain blocks hold the identity e,
    so e * b == b * e repeats products inside each half."""
    return LogSignature(degree=blocks[0][0].degree,
                        blocks=tuple(b for b in blocks for _ in range(2)))


def copied(ls):
    """An equal signature that shares no object with ``ls``."""
    return LogSignature(degree=ls.degree, group=ls.group, provenance=ls.provenance,
                        blocks=tuple(tuple(Permutation(e.img) for e in b)
                                     for b in ls.blocks))


@functools.cache
def refined_m12():
    m12 = load_verified_chain("M12")
    return refine_ls(chain_ls(m12), m12)


def test_generic_matches_reference():
    from test_signature import c1000_signature
    s3, a5, d300, c1000 = map(load_verified_chain, ("S3", "A5", "D300", "C1000"))
    cases = {"S3": (s3, chain_ls(s3)), "A5": (a5, chain_ls(a5)),
             "D300": (d300, chain_ls(d300)), "C1000": (c1000, c1000_signature(c1000)),
             "S3-doubled": (s3, doubled(chain_ls(s3).blocks)),
             "A5-doubled": (a5, doubled(chain_ls(a5).blocks[::-1]))}
    assert scans_right(cases["A5"][1]) and not scans_right(cases["S3"][1])
    assert scans_right(cases["A5-doubled"][1]) and not scans_right(cases["S3-doubled"][1])
    assert type(_identity_raw(d300.degree)) is type(_identity_raw(c1000.degree)) is tuple
    rng = random.Random(20151008)
    seen = set()
    for name, (chain, ls) in cases.items():
        n = chain.degree
        members = [chain.element_at(rng.randrange(chain.order)) for _ in range(40)]
        others = [Permutation(rng.sample(range(n), n)) for _ in range(10)]
        if name.endswith("-doubled"):
            # every element the products reach has several factorizations,
            # and the first in scan rank order must be returned
            products = [reconstruct(ls, d) for d in product(*map(range, ls.block_sizes))]
            members += dict.fromkeys(products)
        for g in members + others:
            expect = outcome(generic_reference, g, ls)
            assert outcome(factorize_generic, g, ls) == expect, (name, g)
            seen.add(expect[0] is FactorizationError)
    assert seen == {True, False}


def test_generic_split_rule_linear_in_block_count():
    # 1,500 one-entry blocks of the trivial group, as in the CLI's deep-c1
    # case: choosing the split must not cost O(s^2) multiplications per call
    e = Permutation.identity(1)
    ls = LogSignature(degree=1, blocks=((e,),) * 1500)
    assert outcome(factorize_generic, e, ls) == outcome(generic_reference, e, ls)
    start = time.perf_counter()
    for _ in range(20):
        assert factorize_generic(e, ls) == (0,) * 1500
    assert time.perf_counter() - start < 0.1


def test_generic_equal_signatures_share_digits(a5):
    ls, twin = chain_ls(a5), copied(chain_ls(a5))
    assert ls == twin and ls is not twin
    rng = random.Random(9)
    for _ in range(30):
        g = a5.element_at(rng.randrange(a5.order))
        expect = generic_reference(g, ls)
        assert factorize_generic(g, ls) == factorize_generic(g, twin) == expect


def test_generic_checks_run_after_the_index_is_built(a5):
    ls = chain_ls(a5)  # 60 products, halves of 5 and 12
    g = a5.element_at(17)
    assert factorize_generic(g, ls) == generic_reference(g, ls)
    for limits in ({"budget": 59}, {"store_cap": 4}):
        expect = outcome(generic_reference, g, ls, **limits)
        assert expect[0] is ValueError
        assert outcome(factorize_generic, g, ls, **limits) == expect


def test_generic_index_holds_no_strong_reference(a5):
    # a group name no other signature carries, so no equal key is cached
    ls = dataclasses.replace(chain_ls(a5), group="held by no one")
    cached = len(factorize._indexes)
    factorize_generic(Permutation.identity(5), ls)
    assert len(factorize._indexes) == cached + 1
    ref = weakref.ref(ls)
    del ls
    gc.collect()
    assert ref() is None and len(factorize._indexes) == cached


def test_generic_budget_refined_m12(m12):
    # the unannotated refined signature, as a manual file carries it
    ls = dataclasses.replace(refined_m12(), provenance=Provenance("manual"))
    rng = random.Random(12)
    elements = [m12.element_at(rng.randrange(m12.order)) for _ in range(151)]
    factorize_generic(elements[0], ls)
    start = time.perf_counter()
    for g in elements[1:]:
        factorize_generic(g, ls)
    assert time.perf_counter() - start < 0.1
