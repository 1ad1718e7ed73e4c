import dataclasses
import io
import json
import random
import time
import tracemalloc
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from logsig import (CyclicSetSpec, LogSignature, LsFormatError, Permutation,
                    Provenance, TameIndexer, VerificationBudgetError,
                    VerificationReport,
                    build_chain, build_mls, bundled_group_names, chain_ls, dumps_ls,
                    factor_integer,
                    is_minimal, load_verified_chain, loads_ls, ls_length,
                    minimal_length, mls_cyclic, mls_solvable, parse_cycles,
                    read_ls, verify_exhaustive, verify_structural, write_ls)
import logsig.chain
from logsig import signature
from logsig.chain import GeneratorSet
from logsig.factorize import reconstruct
from logsig.perm import _digits_of, _identity_raw, _products, _value_of


def c2_signature():
    e = Permutation.identity(2)
    t = parse_cycles("(1,2)", 2)
    return LogSignature(degree=2, blocks=((e, t),),
                        provenance=Provenance("manual"))


def c2_chain():
    return build_chain(GeneratorSet(2, (parse_cycles("(1,2)", 2),)))


# -- length arithmetic --------------------------------------------------------

def test_length_of_single_block():
    assert ls_length(c2_signature()) == 2


def test_chain_ls_lengths(m11, a5):
    assert ls_length(chain_ls(m11)) == 38
    assert chain_ls(m11).block_sizes == (11, 10, 9, 8)
    assert ls_length(chain_ls(a5)) == 12


def test_minimal_length_values():
    assert minimal_length(factor_integer(2)) == 2
    assert minimal_length(factor_integer(7920)) == 30
    co1 = 2 ** 21 * 3 ** 9 * 5 ** 4 * 7 ** 2 * 11 * 13 * 23
    assert minimal_length(factor_integer(co1)) == 150


def test_is_minimal(a5, m11):
    assert is_minimal(chain_ls(a5), factor_integer(60))
    assert not is_minimal(chain_ls(m11), factor_integer(7920))
    empty = LogSignature(degree=3, blocks=())
    assert is_minimal(empty, factor_integer(1))


def test_is_minimal_rejects_wrong_order(a5):
    with pytest.raises(ValueError):
        is_minimal(chain_ls(a5), factor_integer(61))


# -- exhaustive verification --------------------------------------------------

def test_exhaustive_c2():
    report = verify_exhaustive(c2_signature(), c2_chain())
    assert report.ok and report.products_checked == 2


def test_exhaustive_m12_chain(m12):
    report = verify_exhaustive(chain_ls(m12), m12)
    assert report.ok and report.products_checked == 95_040


def test_empty_signature_of_trivial_group():
    # degree 0 has no point for the oracle to key a product by
    for degree in (0, 1, 3):
        e = Permutation.identity(degree)
        trivial = build_chain(GeneratorSet(degree, (e,)))
        assert trivial.base == ()
        ls = LogSignature(degree=degree, blocks=(), provenance=Provenance("chain", ()))
        assert verify_exhaustive(ls, trivial).ok
        assert verify_structural(ls, trivial).ok
        for ls in (ls, LogSignature(degree=degree, blocks=((e,),))):
            assert verdict(ls, trivial) == full_image_reference(ls) == (True, 1, None)


def tamper(ls, chain, block=0, src=0, dst=1):
    """Duplicate the coset of entry ``src`` over position ``dst``: the new
    entry is src's representative times a nonidentity stabilizer element, so
    entries stay pairwise distinct but two of them represent one coset."""
    level = ls.provenance.annotations[block].level
    sub = chain.subchain(level + 1)
    h = next(g for g in sub.generators.gens if not g.is_identity())
    entries = list(ls.blocks[block])
    entries[dst] = entries[src] * h
    blocks = list(ls.blocks)
    blocks[block] = tuple(entries)
    return LogSignature(degree=ls.degree, blocks=tuple(blocks),
                        group=ls.group, provenance=ls.provenance)


def test_tampered_block_collides(m11):
    ls = tamper(chain_ls(m11), m11, block=0)
    report = verify_exhaustive(ls, m11)
    assert not report.ok
    assert report.collision is not None
    first, second = report.collision
    assert first != second
    # the two witness tuples really do multiply to the same element
    from logsig import reconstruct
    assert reconstruct(ls, first) == reconstruct(ls, second)


def full_image_reference(ls):
    """The oracle's verdict by storing every product's full image array with
    its rank: ``(ok, products_checked, collision)``."""
    sizes = ls.block_sizes
    raws = [[e.img for e in block] for block in ls.blocks]
    seen: dict = {}
    for rank, q in enumerate(_products(raws, _identity_raw(ls.degree))):
        first = seen.setdefault(q, rank)
        if first != rank:
            return False, rank + 1, (_digits_of(first, sizes), _digits_of(rank, sizes))
    return True, len(seen), None


def verdict(ls, chain):
    report = verify_exhaustive(ls, chain)
    return report.ok, report.products_checked, report.collision


def two_to_the_ninth():
    """2^9 on 18 points: nine disjoint transpositions, base length 9."""
    gens = tuple(parse_cycles("(%d,%d)" % (2 * i + 1, 2 * i + 2), 18) for i in range(9))
    return build_chain(GeneratorSet(18, gens))


def c1000_signature(c1000):
    gen = next(g for g in c1000.generators.gens if g.order() == 1000)
    return mls_cyclic(CyclicSetSpec(gen, 1000))


def seeded_tamper(ls, chain, rng):
    """Replace a random entry of a random block by a random group member not
    in that block, or (one time in four, and always when the block holds the
    whole group) only reverse one block, which keeps an exact signature exact."""
    blocks = list(ls.blocks)
    bi = rng.randrange(len(blocks))
    entries = list(blocks[bi])
    if rng.randrange(4) == 0 or len(entries) == chain.order:
        entries.reverse()
    else:
        while True:
            g = chain.element_at(rng.randrange(chain.order))
            if g not in entries:
                break
        entries[rng.randrange(len(entries))] = g
    blocks[bi] = tuple(entries)
    return LogSignature(degree=ls.degree, blocks=tuple(blocks))


def regular_two_cubed():
    """2^3 acting on itself, x -> x xor b: one base point, so its chain
    signature is one block holding all 8 elements."""
    gens = tuple(Permutation([x ^ b for x in range(8)]) for b in (1, 2, 4))
    return build_chain(GeneratorSet(8, gens))


def test_exhaustive_matches_full_image_reference(m11, a5, monkeypatch):
    d300, c1000 = load_verified_chain("D300"), load_verified_chain("C1000")
    two9, two3 = two_to_the_ninth(), regular_two_cubed()
    assert len(two9.base) == 9 and type(_identity_raw(18)) is bytes
    assert type(_identity_raw(300)) is tuple
    assert chain_ls(two3).block_sizes == (two3.order,)
    # D300's solvable signature feeds each class from several heads, on
    # tuple images
    cases = [(m11, chain_ls(m11)), (a5, chain_ls(a5)), (two9, chain_ls(two9)),
             (d300, chain_ls(d300)), (c1000, c1000_signature(c1000)),
             (two3, chain_ls(two3)), (d300, build_mls(d300))]
    assert cases[-1][1].provenance.tag == "solvable"
    rng = random.Random(20151007)
    outcomes = set()
    for i in range(210):
        chain, ls = cases[i % len(cases)]
        bad = seeded_tamper(ls, chain, rng)
        expect = full_image_reference(bad)
        assert verdict(bad, chain) == expect
        # with a chunk of 1 the tail is empty and each product is its own
        # head.  The boundary rule adds no block to it: the last block holds
        # two members or more, so a nonidentity one, which moves a base point
        assert len(bad.blocks[-1]) > 1
        with monkeypatch.context() as mp:
            mp.setattr(signature, "_CHUNK", 1)
            if expect[0]:
                assert verdict(bad, chain) == expect
            else:
                assert failing_verdict_and_tail(bad, chain, mp) == (expect, 0)
        outcomes.add(expect[0])
    assert outcomes == {True, False}


def tail_cut_after_block_1(ls, chain):
    """Assert that the oracle's tail is ``blocks[2:]``: it reaches the
    balance point there, below ``_CHUNK``, and block 1 moves b1, which every
    later entry fixes, as b0."""
    sizes, (b0, b1) = ls.block_sizes, chain.base[:2]
    assert prod(sizes[3:]) ** 2 < chain.order <= prod(sizes[2:]) ** 2
    assert prod(sizes[3:]) < signature._CHUNK
    assert all(e(b0) == b0 and e(b1) == b1 for block in ls.blocks[2:] for e in block)
    assert any(e(b1) != b1 for e in ls.blocks[1])


def failing_verdict_and_tail(ls, chain, monkeypatch):
    """The verdict of a failing check, and the number of blocks in its tail
    as the oracle passes them to ``_tail_ranks``."""
    tail_ranks, tails = signature._tail_ranks, []

    def counted_tail_ranks(blocks, b0):
        tails.append(len(blocks))
        return tail_ranks(blocks, b0)

    with monkeypatch.context() as mp:
        mp.setattr(signature, "_tail_ranks", counted_tail_ranks)
        got = verdict(ls, chain)
    assert not got[0] and len(tails) == 1
    return got, tails[0]


def test_exhaustive_tail_of_every_block_matches_full_image_reference(a5, monkeypatch):
    # A4 times the 5-cycles is exact for A5.  Its last block's 5 products
    # are short of the balance point, so the tail takes both blocks and
    # the one head is the product of no digits
    a4 = tuple(g for g in a5.elements() if g(4) == 4)
    c5 = tuple(parse_cycles("(1,2,3,4,5)", 5) ** k for k in range(5))
    ls = LogSignature(degree=5, blocks=(a4, c5))
    assert verdict(ls, a5) == full_image_reference(ls) == (True, 60, None)
    rng = random.Random(20151011)
    outcomes = set()
    for _ in range(20):
        bad = seeded_tamper(ls, a5, rng)
        expect = full_image_reference(bad)
        if expect[0]:
            assert verdict(bad, a5) == expect
        else:
            assert failing_verdict_and_tail(bad, a5, monkeypatch) == (expect, 2)
        outcomes.add(expect[0])
    assert outcomes == {True, False}


def test_exhaustive_multi_head_m12_matches_full_image_reference(m12):
    ls = chain_ls(m12)
    # the tail is the last three blocks, so the 132 products of blocks 0
    # and 1 are the heads, each in its own class until a tamper joins two
    tail_cut_after_block_1(ls, m12)
    rng = random.Random(20151008)
    outcomes = set()
    for _ in range(10):
        bad = seeded_tamper(ls, m12, rng)
        expect = full_image_reference(bad)
        assert verdict(bad, m12) == expect
        outcomes.add(expect[0])
    assert outcomes == {True, False}


def test_exhaustive_tail_repeat_in_one_head_classes(m22, monkeypatch):
    # the tail is the last three blocks, which fix b0 and b1, so it is one
    # group T and each of the 462 heads feeds its own class.  Replacing the
    # last entry by b3[1] * b4[1] makes T, and so every class, repeat a
    # product: a check that passed one-head classes without checking T
    # would pass it
    ls = chain_ls(m22)
    last = list(ls.blocks[4])
    last[-1] = ls.blocks[3][1] * ls.blocks[4][1]
    bad = LogSignature(degree=ls.degree, blocks=ls.blocks[:4] + (tuple(last),))
    tail_cut_after_block_1(bad, m22)
    expect = full_image_reference(bad)
    assert expect == (False, 5, ((0, 0, 0, 0, 2), (0, 0, 0, 1, 1)))
    assert failing_verdict_and_tail(bad, m22, monkeypatch) == (expect, 3)


def first_repeat_reference(chunks, width):
    """``signature._first_repeat`` by storing every key with its place: key
    j of the last chunk is the first to repeat one, key j0 of chunk i0."""
    seen: dict = {}
    for i, chunk in enumerate(chunks):
        for j, key in enumerate(signature._keys(chunk, width)):
            place = seen.setdefault(key, (i, j))
            if place != (i, j):
                assert i == len(chunks) - 1
                return (j,) + place


def test_exhaustive_first_repeat_inside_or_before_its_chunk(m12, monkeypatch):
    # two seeded tampers of M12's chain signature.  A replaced head entry
    # that repeats a coset, or a replaced tail entry that moves b0 or b1,
    # lets several heads feed one class.  Every failing class's first
    # repeat is checked where it is found: inside the failing chunk, the
    # class's first or a later one, and in the chunk just before it or
    # further back.  A repeat inside a later chunk would need its tail
    # group to repeat a key, but such a group also feeds a class of head 0,
    # which is walked first and holds the least witness in head 0's chunk:
    # that is checked on every draw whose tail repeats a product, three of
    # the 48 draws of this seed
    first_repeat, places = signature._first_repeat, set()

    def checked_first_repeat(chunks, width):
        got = first_repeat(chunks, width)
        assert got == first_repeat_reference(chunks, width)
        places.add((len(chunks) > 1, min(len(chunks) - 1 - got[1], 2)))
        return got

    monkeypatch.setattr(signature, "_first_repeat", checked_first_repeat)
    rng = random.Random(20151010)
    tail_repeats = 0
    for _ in range(48):
        bad = seeded_tamper(seeded_tamper(chain_ls(m12), m12, rng), m12, rng)
        expect = full_image_reference(bad)
        if expect[0]:
            assert verdict(bad, m12) == expect
            continue
        got, k = failing_verdict_and_tail(bad, m12, monkeypatch)
        assert got == expect
        tail = LogSignature(degree=bad.degree, blocks=bad.blocks[-k:])
        if not full_image_reference(tail)[0]:
            assert _value_of(expect[2][1], bad.block_sizes) < tail.product_count()
            tail_repeats += 1
    assert tail_repeats == 3
    # (earlier chunks in the class, chunks back from the failing one, at most 2)
    assert places == {(False, 0), (True, 1), (True, 2)}


# M12's chain signature is checked with a tail of its last three blocks,
# so the product of rank r comes from head r // M12_TAIL, the rank of its
# digits in blocks 0 and 1.  Each pair below lies in one class, the images
# of b0 and b1 under the tampered head; the parameter name ``chunks`` is
# part of the test ids.
M12_TAIL = 10 * 9 * 8


@pytest.mark.parametrize("block, src, dst, chunks", [
    (3, 0, 5, (0, 0)),       # both ranks come from the first head
    (1, 2, 7, (2, 7)),       # a later head repeats an earlier one of its class
    (0, 3, 7, (38, 77)),     # head (7, 0) repeats head (3, 5)
    (0, 0, 11, (5, 121)),    # head (11, 0), of the last block-0 entry, repeats (0, 5)
])
def test_exhaustive_collision_chunks_match_reference(m12, block, src, dst, chunks,
                                                    monkeypatch):
    bad = tamper(chain_ls(m12), m12, block=block, src=src, dst=dst)
    tail_cut_after_block_1(bad, m12)
    ok, checked, collision = expect = full_image_reference(bad)
    assert not ok
    first, second = (_value_of(c, bad.block_sizes) for c in collision)
    assert second + 1 == checked
    assert (first // M12_TAIL, second // M12_TAIL) == chunks
    assert failing_verdict_and_tail(bad, m12, monkeypatch) == (expect, 3)


def test_exhaustive_reports_the_rank_first_of_several_failing_classes(m12):
    # block-0 entry i maps b0 to orbit[i]; each tamper doubles the classes
    # of its source, which join a head of entry dst to one of entry src.
    # A class of entry 1 repeats from entry 9 on; a class of entry 4, first
    # fed by entry 3, repeats from entry 4 on and holds the first collision
    # in rank order
    orbit, b0 = m12.levels[0].orbit, m12.base[0]
    once = tamper(chain_ls(m12), m12, block=0, src=1, dst=9)
    twice = tamper(once, m12, block=0, src=4, dst=3)
    found = []
    for bad in (once, twice):
        ok, checked, collision = expect = full_image_reference(bad)
        assert not ok
        first, second = (reconstruct(bad, c) for c in collision)
        assert first == second
        assert _digits_of(checked - 1, bad.block_sizes) == collision[1]
        found.append((first(b0), collision[1][0]))
        assert verdict(bad, m12) == expect
    # entries 1 and 9 are the same in both, so class orbit[1] fails in both
    assert found == [(orbit[1], 9), (orbit[4], 4)]


def class_walk_reference(ls, chain, k):
    """The classes of a check whose tail is the last ``k`` blocks, from
    every product's full image array: ``(bound, second)`` for each class
    that repeats a product, in the order of their bounds, as the oracle
    walks them.  A product's class is its image of b0 and of the base
    points every tail entry fixes; ``bound`` is the first head whose chunk
    of the class repeats a product on its own, or else the second head, and
    ``second`` is the rank of the class's first repeat."""
    n, b0 = prod(ls.block_sizes[-k:]), chain.base[0]
    pin = [b for b in chain.base if all(e(b) == b for block in ls.blocks[-k:] for e in block)]
    raws = [[e.img for e in block] for block in ls.blocks]
    classes: dict = {}
    for rank, q in enumerate(_products(raws, _identity_raw(ls.degree))):
        classes.setdefault((q[b0], *(q[b] for b in pin)), []).append((rank, q))
    walk = []
    for members in classes.values():
        seen: dict = {}
        second = next((r for r, q in members if seen.setdefault(q, r) != r), None)
        if second is None:
            continue
        heads = sorted({r // n for r, _ in members})
        first = [q for r, q in members if r // n == heads[0]]
        walk.append((heads[0] if len(set(first)) < len(first) else heads[1], second))
    return sorted(walk)


def test_exhaustive_least_witness_after_the_first_walked_class(m12, monkeypatch):
    # a seeded tamper replaces entry 4 of block 2 by a member that moves b0
    # and b1, so the tail splits into groups and several heads feed each
    # class.  The class walked first, from head 1 on, first repeats in
    # head 15's chunk; the next, from head 2 on, repeats in head 2's chunk
    # and holds the least witness; the third starts at head 5, past it
    bad = seeded_tamper(chain_ls(m12), m12, random.Random(16))
    expect = full_image_reference(bad)
    got, k = failing_verdict_and_tail(bad, m12, monkeypatch)
    assert got == expect and k == 3
    walk = class_walk_reference(bad, m12, k)
    assert [(bound, second // M12_TAIL) for bound, second in walk[:3]] == [
        (1, 15), (2, 2), (5, 8)]
    assert min(second for _, second in walk) == walk[1][1] == expect[1] - 1


def test_exhaustive_m22_tamper_walks_one_class(m22, monkeypatch):
    # 21 classes are each fed by a head of block-0 entry 1 and one of the
    # last entry, 21, and repeat a key in the second chunk.  Head (21, 0)
    # equals head (1, 1), so its class is walked first; its witness is in
    # head (21, 0)'s chunk, and every other class's second head comes
    # later, so no other class is walked and only those two heads are made
    first_repeat, calls, made = signature._first_repeat, [], []

    def counted_first_repeat(chunks, width):
        calls.append(len(chunks))
        return first_repeat(chunks, width)

    class KeptHeads(signature._Heads):
        def __init__(self, blocks, ident):
            super().__init__(blocks, ident)
            made.append(self)

    monkeypatch.setattr(signature, "_first_repeat", counted_first_repeat)
    monkeypatch.setattr(signature, "_Heads", KeptHeads)
    assert verdict(tampered_m22(m22), m22) == (
        False, 423_361, ((1, 1, 0, 0, 0), (21, 0, 0, 0, 0)))
    # block 1 holds 21 entries
    assert calls == [2] and [set(heads) for heads in made] == [{1 * 21 + 1, 21 * 21 + 0}]


def test_exhaustive_many_failing_classes_time_budget():
    # each class of C1000 holds one product; a tampered power block repeats
    # products in hundreds of classes, and every class walk reuses the tail
    # ranks built once per call
    c1000 = load_verified_chain("C1000")
    ls = c1000_signature(c1000)
    blocks = list(ls.blocks)
    bi = ls.block_sizes.index(max(ls.block_sizes))
    blocks[bi] = blocks[bi][:1] + tuple(e * blocks[bi][1] for e in blocks[bi][1:])
    bad = LogSignature(degree=ls.degree, blocks=tuple(blocks))
    repeats = Counter(reconstruct(bad, _digits_of(r, bad.block_sizes)) for r in range(1000))
    assert sum(k > 1 for k in repeats.values()) >= 100
    start = time.perf_counter()
    got = verdict(bad, c1000)
    assert time.perf_counter() - start < 0.1
    assert got == full_image_reference(bad)


def tampered_m22(m22):
    """The M22 chain signature with its last block-0 entry replaced by
    b0[1] * b1[1], which repeats the products of digits (1, 1, ...)."""
    ls = chain_ls(m22)
    b0 = list(ls.blocks[0])
    b0[-1] = ls.blocks[0][1] * ls.blocks[1][1]
    return LogSignature(degree=ls.degree, blocks=(tuple(b0),) + ls.blocks[1:])


@pytest.mark.parametrize("tampered, expect", [
    (False, (True, 443_520, None)),
    (True, (False, 423_361, ((1, 1, 0, 0, 0), (21, 0, 0, 0, 0)))),
])
def test_exhaustive_m22_time_and_memory_budget(m22, tampered, expect):
    # the tamper joins each head of the last block-0 entry to one of entry
    # 1 in a class; every other head, a product of blocks 0 and 1, feeds
    # its own class, which is not walked
    ls = tampered_m22(m22) if tampered else chain_ls(m22)
    start = time.perf_counter()
    report = verify_exhaustive(ls, m22)
    assert time.perf_counter() - start < 0.05
    assert (report.ok, report.products_checked, report.collision) == expect
    assert peak_bytes(ls, m22) / report.products_checked < 2


@pytest.mark.parametrize("name", ["A10", "S10"])
def test_exhaustive_alternating_and_symmetric_chain_budget(name):
    # the tail is cut at a level boundary, so each head feeds its own class
    # and no class is walked: one tail group of 2,520 (A10) or 5,040 (S10)
    # keys instead of walks of 181,440 or 362,880 keys per class
    chain = load_verified_chain(name)
    ls = chain_ls(chain)
    start = time.perf_counter()
    report = verify_exhaustive(ls, chain)
    assert time.perf_counter() - start < 0.1
    assert report.ok and report.products_checked == chain.order
    assert peak_bytes(ls, chain) / chain.order < 1


def test_exhaustive_refined_m12_memory_budget(m12):
    ls = build_mls(m12)
    assert ls.provenance.tag == "refined"
    assert peak_bytes(ls, m12) / m12.order < 10


def peak_bytes(ls, chain):
    """The traced peak of one exhaustive check."""
    tracemalloc.start()
    try:
        verify_exhaustive(ls, chain)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_size_product_mismatch_is_immediate_fail(m11):
    ls = chain_ls(m11)
    short = LogSignature(degree=11, blocks=ls.blocks[:3],
                         provenance=Provenance("manual"))
    report = verify_exhaustive(short, m11)
    assert not report.ok and "mismatch" in report.detail
    assert report.collision is None


def test_budget_exceeded_raises(m22):
    with pytest.raises(VerificationBudgetError):
        verify_exhaustive(chain_ls(m22), m22, budget=1000)


def test_budget_error_is_a_value_error():
    # one exception family: every input or budget error is a ValueError,
    # which the CLI turns into exit 2
    assert issubclass(VerificationBudgetError, ValueError)


def nonmember_entry(chain):
    """The chain signature with entry 1 of block 0 set to (1,2), an odd
    permutation, so for a group of even permutations a nonmember."""
    ls = chain_ls(chain)
    entries = list(ls.blocks[0])
    entries[1] = parse_cycles("(1,2)", chain.degree)
    return LogSignature(degree=chain.degree, blocks=(tuple(entries),) + ls.blocks[1:],
                        group=ls.group, provenance=ls.provenance)


def test_nonmember_entry_rejected(a5):
    report = verify_exhaustive(nonmember_entry(a5), a5)
    assert report == VerificationReport(
        ok=False, method="exhaustive", products_checked=0,
        detail="block 0 entry 1 is not a group member")
    # membership is checked before the budget, as the structural oracle
    # checks it, so a nonmember fails rather than exceeding the budget
    assert verify_exhaustive(nonmember_entry(a5), a5, budget=1) == report


def test_chain_signature_entries_are_members_without_a_sift(monkeypatch, m12, a5):
    # a chain's forward images are its transversal elements, so a chain
    # signature's entries are members by a set lookup; entries of another
    # kind, and tuple image arrays, are sifted
    sifted = []
    real = logsig.chain._sift
    monkeypatch.setattr(logsig.chain, "_sift", lambda *a: sifted.append(a) or real(*a))
    for chain in (m12, a5):
        assert signature._member_fault(chain_ls(chain), chain) == ""
        TameIndexer(chain_ls(chain), chain)
        assert verify_exhaustive(chain_ls(chain), chain).ok
    assert sifted == []
    assert signature._member_fault(build_mls(m12), m12) == "" and sifted
    d300 = load_verified_chain("D300")
    sifted.clear()
    assert signature._member_fault(chain_ls(d300), d300) == ""
    assert len(sifted) == sum(map(len, chain_ls(d300).blocks))
    assert (signature._member_fault(nonmember_entry(a5), a5)
            == "block 0 entry 1 is not a group member")


def test_block_entry_permutation_preserves_verdict(a5):
    ls = chain_ls(a5)
    blocks = list(ls.blocks)
    blocks[1] = tuple(reversed(blocks[1]))
    shuffled = LogSignature(degree=5, blocks=tuple(blocks),
                            provenance=Provenance("manual"))
    assert verify_exhaustive(shuffled, a5).ok


def test_coset_representative_freedom(m11):
    # multiplying an entry by a next-level element keeps the signature exact
    ls = chain_ls(m11)
    sub = m11.subchain(2)
    h = next(g for g in sub.generators.gens if not g.is_identity())
    blocks = list(ls.blocks)
    entries = list(blocks[1])
    entries[3] = entries[3] * h
    blocks[1] = tuple(entries)
    twisted = LogSignature(degree=11, blocks=tuple(blocks),
                           group=ls.group, provenance=ls.provenance)
    assert verify_exhaustive(twisted, m11).ok
    assert verify_structural(twisted, m11).ok


# -- structural verification --------------------------------------------------

def test_structural_m24_beyond_exhaustive_budget(m24):
    report = verify_structural(chain_ls(m24), m24)
    assert report.ok


def indexes(ls, chain):
    """Whether a tame index can be built, the third structural verdict."""
    try:
        TameIndexer(ls, chain)
    except ValueError:
        return False
    return True


def test_structural_agrees_with_exhaustive(m11, a5, s4):
    for chain in (m11, a5, s4):
        cases = [chain_ls(chain), tamper(chain_ls(chain), chain, block=0),
                 wrong_level_entry(chain, pos=1)]
        if chain is not s4:  # S4 holds every permutation of degree 4
            cases.append(nonmember_entry(chain))
        for ls in cases:
            verdict = verify_exhaustive(ls, chain).ok
            assert verify_structural(ls, chain).ok == verdict
            assert indexes(ls, chain) == verdict


def wrong_level_entry(chain, pos=3):
    """The chain signature with entry ``pos`` of block 1 replaced by an element
    with the same level-1 base-point image that moves the level-0 base
    point: inexact, though every level still covers its orbit."""
    ls = chain_ls(chain)
    lv1 = chain.levels[1]
    entry = ls.blocks[1][pos]
    candidate = None
    for g in chain.elements():
        if g(lv1.point) == entry(lv1.point) and \
                g(chain.levels[0].point) != chain.levels[0].point:
            candidate = g
            break
    assert candidate is not None
    blocks = list(ls.blocks)
    entries = list(blocks[1])
    entries[pos] = candidate
    blocks[1] = tuple(entries)
    return LogSignature(degree=chain.degree, blocks=tuple(blocks),
                        group=ls.group, provenance=ls.provenance)


def test_structural_detects_wrong_level_group_entry(m11):
    bad = wrong_level_entry(m11)
    report = verify_structural(bad, m11)
    assert not report.ok
    # the replaced entry moves the level-0 base point, so no point that block
    # 1 fixes separates block 0's products, and blocks 0 and 1 outnumber it
    assert report.detail == ("no run can start at block 0: blocks 0 to 1 have "
                             "110 products, more than the degree 11")
    # building a tame index is the same walk and reports the same fault
    with pytest.raises(ValueError) as exc:
        TameIndexer(bad, m11)
    assert str(exc.value) == report.detail


def test_structural_no_separating_point_names_the_block():
    # C4 as {1, r} twice: no point is fixed by r, so block 0 alone is no
    # run, and the 4 products of both blocks send every point to 3 images
    c4 = load_verified_chain("C4")
    r = parse_cycles("(1,2,3,4)", 4)
    ls = LogSignature(degree=4, blocks=((Permutation.identity(4), r),) * 2,
                      provenance=Provenance("chain"))
    assert not verify_exhaustive(ls, c4).ok
    report = verify_structural(ls, c4)
    assert not report.ok and report.products_checked == 0
    assert report.detail.startswith("no run can start at block 0: no separating point")


def test_structural_manual_chain_shape_passes_and_solvable_raises(m11):
    # the entries, not the tag or the annotations, carry the structure
    bare = LogSignature(degree=11, blocks=chain_ls(m11).blocks,
                        provenance=Provenance("manual"))
    report = verify_structural(bare, m11)
    assert report.ok and report.products_checked == sum(
        len(lv.orbit) for lv in m11.levels)
    # an exact solvable signature has no runs: no verdict, not a failure
    d300 = load_verified_chain("D300")
    solvable = build_mls(d300)
    manual = LogSignature(degree=300, blocks=solvable.blocks,
                          provenance=Provenance("manual"))
    for ls in (solvable, manual):
        with pytest.raises(ValueError, match="^no structural verdict for a "
                           "(solvable|manual) signature: no run can start at block 0"):
            verify_structural(ls, d300)


SOLVABLE_EXACT = ("2^3", "Q8", "SL(2,3)", "D3", "D4", "D8", "D12", "D300", "S3",
                  "S4", "A4", "C4", "C12", "C30", "C1000")


@pytest.mark.parametrize("name", SOLVABLE_EXACT)
def test_structural_never_fails_an_exact_solvable_signature(name):
    """Soundness without a tag gate would not do: splitting the levels by
    block-size products puts entries of 2^3 outside the level-2 group and
    entries of D4 and D8 outside the level-1 group.  The runs either
    certify an exact signature or give no verdict."""
    chain = load_verified_chain(name)
    ls = build_mls(chain)
    assert verify_exhaustive(ls, chain).ok
    try:
        report = verify_structural(ls, chain)
    except ValueError as e:
        assert str(e).startswith("no structural verdict for a solvable signature: ")
        assert name not in ("2^3", "Q8", "C4", "C12", "C30", "C1000")
    else:
        assert report.ok, report.detail
        assert name in ("2^3", "Q8", "C4", "C12", "C30", "C1000")


# -- file format ---------------------------------------------------------------

def test_roundtrip_byte_identity(m11, a5, s4):
    for chain in (m11, a5, s4):
        for ls in (chain_ls(chain), mls_solvable(s4)):
            text = dumps_ls(ls)
            again = loads_ls(text)
            assert dumps_ls(again) == text
            assert again == ls


def test_file_io(tmp_path, m11):
    ls = chain_ls(m11)
    path = str(tmp_path / "m11.ls")
    write_ls(ls, path)
    assert read_ls(path) == ls
    buf = io.StringIO()
    write_ls(ls, buf)
    assert read_ls(io.StringIO(buf.getvalue())) == ls


def document(ls):
    """The signature's file document as plain JSON values: ``dumps_ls``
    writes ``json.dumps`` of it."""
    prov = {"tag": ls.provenance.tag}
    if ls.provenance.annotations is not None:
        prov["annotations"] = [
            {k: v for k, v in (("level", a.level), ("set_size", a.set_size),
                               ("step", a.step)) if v is not None}
            for a in ls.provenance.annotations]
    obj = {"degree": ls.degree}
    if ls.group is not None:
        obj["group"] = ls.group
    return {**obj, "provenance": prov,
            "blocks": [[list(e.images) for e in block] for block in ls.blocks]}


@pytest.mark.parametrize("name", bundled_group_names() + ("D300", "S0"))
def test_dumps_writes_json_dumps_text(name):
    # D300's degree is above 256, so its images are tuples; S0's is 0
    chain = load_verified_chain(name)
    for ls in (chain_ls(chain), build_mls(chain)):
        assert dumps_ls(ls) == json.dumps(document(ls), indent=2) + "\n"


def test_dumps_writes_json_dumps_text_of_empty_arrays_and_escapes():
    # degree-0 entries are empty image arrays; a group name outside ASCII is
    # escaped as json.dumps escapes it
    s4 = load_verified_chain("S4")
    for ls in (LogSignature(degree=0, blocks=((Permutation.identity(0),),)),
               LogSignature(degree=0, blocks=()),
               dataclasses.replace(chain_ls(s4), group='Mathieu–Σ "M₁₂"\n')):
        text = dumps_ls(ls)
        assert text == json.dumps(document(ls), indent=2) + "\n"
        assert loads_ls(text) == ls


def old_entry(images, degree, where):
    """The reader's per-entry checks as they were, each image array checked
    a value at a time: the reference for its messages."""
    if not isinstance(images, list) or len(images) != degree:
        raise LsFormatError("%s: expected an image array of length %d" % (where, degree))
    if any(type(x) is not int for x in images):
        raise LsFormatError("%s: images must be integers" % where)
    try:
        return Permutation.from_images(images)
    except ValueError as e:
        raise LsFormatError("%s: %s" % (where, e)) from e


@pytest.mark.parametrize("images", [
    [1, 2, 3, 4], [4, 1, 3, 2], [1, 2, 3], [1, 2, 3, 4, 5], [], "1234", {"1": 2}, 4, None,
    [1, 2, 2, 4], [0, 1, 2, 3], [1, 2, 3, 5], [-1, 2, 3, 4], [1, 2, 3, True],
    [1.0, 2, 3, 4], [1, 2, 3, "4"], [1, 2, 3, [4]], [1, 2, 3, None], [2 ** 70, 1, 2, 3],
])
def test_reader_words_each_entry_as_before(images):
    # the C-level checks accept exactly the arrays the entry-by-entry checks
    # accept, and a rejected array gets their message
    text = json.dumps({"degree": 4, "provenance": {"tag": "manual"},
                       "blocks": [[[1, 2, 3, 4]], [[2, 1, 3, 4], images]]})
    try:
        expect = old_entry(images, 4, "block 1 entry 1")
    except LsFormatError as e:
        with pytest.raises(LsFormatError) as got:
            loads_ls(text)
        assert str(got.value) == str(e)
    else:
        entry = loads_ls(text).blocks[1][1]
        assert entry == expect and entry.img == bytes(x - 1 for x in images)


def test_reader_allocates_nothing_for_a_degree_alone():
    # the sorted points an image array is compared with are built only when
    # an array of the degree's length is read
    for text, error in [
            ('{"degree": 1000000, "provenance": {"tag": "manual"}, "blocks": []}', None),
            ('{"degree": 1000000000, "provenance": {"tag": "manual"}, "blocks": [[[1]]]}',
             "block 0 entry 0: expected an image array of length 1000000000")]:
        tracemalloc.start()
        try:
            try:
                ls = loads_ls(text)
            except LsFormatError as e:
                assert str(e) == error
            else:
                assert error is None and ls.degree == 1_000_000 and ls.blocks == ()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak


def test_writer_allocates_nothing_for_a_degree_alone():
    # the per-point strings are built only when there is an entry to write
    ls = LogSignature(degree=1_000_000, blocks=())
    tracemalloc.start()
    try:
        text = dumps_ls(ls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(document(ls), indent=2) + "\n"
    assert peak < 2 ** 20, peak


def test_reject_non_bijective_image_array():
    text = '{"degree": 3, "provenance": {"tag": "manual"}, "blocks": [[[1, 1, 2]]]}'
    with pytest.raises(LsFormatError):
        loads_ls(text)


def test_reject_wrong_degree_entry():
    text = '{"degree": 3, "provenance": {"tag": "manual"}, "blocks": [[[1, 2]]]}'
    with pytest.raises(LsFormatError):
        loads_ls(text)


def test_reject_bad_json_with_position():
    with pytest.raises(LsFormatError) as exc:
        loads_ls('{"degree": 3,\n  "blocks": }')
    assert "line 2" in str(exc.value)


def test_reject_deeply_nested_json():
    with pytest.raises(LsFormatError, match="nested too deeply"):
        loads_ls("[" * 1000 + "]" * 1000)


def test_reject_overlong_integer():
    # more digits than the interpreter converts to an int by default
    with pytest.raises(LsFormatError, match="too many digits"):
        loads_ls('{"degree": 1' + "0" * 5000 + "}")


def test_reject_unknown_tag():
    text = '{"degree": 2, "provenance": {"tag": "bogus"}, "blocks": [[[1, 2]]]}'
    with pytest.raises(LsFormatError):
        loads_ls(text)


def test_reject_provenance_not_object_and_blocks_not_array():
    for text in ('{"degree": 2, "provenance": ["manual"], "blocks": [[[1, 2]]]}',
                 '{"degree": 2, "provenance": {"tag": "manual"}, "blocks": {}}'):
        with pytest.raises(LsFormatError, match="provenance must be an object"):
            loads_ls(text)


@pytest.mark.parametrize("annotations", [
    5, [{"level": 0, "set_size": "x"}], [{"level": 0, "step": 1.5}]])
def test_reject_malformed_annotations(annotations):
    text = json.dumps({"degree": 2, "blocks": [[[1, 2], [2, 1]]],
                       "provenance": {"tag": "chain", "annotations": annotations}})
    with pytest.raises(LsFormatError):
        loads_ls(text)


@pytest.mark.parametrize("annotation, message", [
    ({"level": -1}, "'level' must be nonnegative"),
    ({"level": 0, "set_size": 0}, "'set_size' must be at least 1"),
    ({"level": 0, "set_size": 2, "step": -3}, "'step' must be at least 1")])
def test_reject_out_of_range_annotations(annotation, message):
    # such a file used to load: refine_ls then read level -1 as out of
    # range, a level of -4 was written back out, and randomize_ls drew
    # right factors from the whole group (subchain(0))
    doc = {"degree": 2, "blocks": [[[1, 2], [2, 1]]],
           "provenance": {"tag": "chain", "annotations": [annotation]}}
    with pytest.raises(LsFormatError, match=message):
        loads_ls(json.dumps(doc))
    doc["provenance"]["annotations"] = [{"level": 0, "set_size": 2, "step": 1}]
    assert loads_ls(json.dumps(doc)).provenance.annotations[0].step == 1


def test_reject_json_booleans_and_a_non_string_group():
    # JSON true and false load as bool, a subclass of int, so each edit
    # below used to load: as level 0, as step 1, as the identity entry
    doc = {"degree": 3, "group": "C3",
           "provenance": {"tag": "refined",
                          "annotations": [{"level": 0, "set_size": 3, "step": 1}]},
           "blocks": [[[1, 2, 3], [2, 3, 1], [3, 1, 2]]]}
    text = json.dumps(doc, indent=2) + "\n"
    assert dumps_ls(loads_ls(text)) == text
    for path, value in [(("degree",), True), (("group",), 5),
                        (("blocks", 0, 0, 0), True),
                        (("provenance", "annotations", 0, "level"), False),
                        (("provenance", "annotations", 0, "set_size"), True),
                        (("provenance", "annotations", 0, "step"), True)]:
        bad = json.loads(text)
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(LsFormatError):
            loads_ls(json.dumps(bad))


def test_empty_block_rejected():
    with pytest.raises(ValueError):
        LogSignature(degree=2, blocks=((),))


def test_duplicate_entry_rejected():
    e = Permutation.identity(2)
    with pytest.raises(ValueError):
        LogSignature(degree=2, blocks=((e, e),))


def test_entry_of_another_degree_rejected():
    with pytest.raises(ValueError, match="block 0 entry of degree 3 in a degree-2"):
        LogSignature(degree=2, blocks=((Permutation.identity(3),),))


def test_failing_report_needs_a_witness():
    with pytest.raises(ValueError, match="without witness"):
        VerificationReport(ok=False, method="exhaustive", products_checked=0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=20))
def test_generated_signature_roundtrips(n):
    from logsig import mls_cyclic, CyclicSetSpec
    x = Permutation(list(range(1, n)) + [0])
    ls = mls_cyclic(CyclicSetSpec(x, n))
    assert loads_ls(dumps_ls(ls)) == ls
