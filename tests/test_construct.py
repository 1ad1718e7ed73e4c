import random

import pytest
from hypothesis import given, settings, strategies as st

from logsig import (CyclicSetSpec, Permutation,
                    ProductDecomposition, build_chain, build_mls, chain_ls,
                    composition_series_solvable, factor_integer, is_minimal,
                    load_group, ls_length, minimal_length,
                    mls_cyclic, mls_solvable, parse_cycles, refine_block,
                    refine_ls, sharply_transitive_check, verify_exhaustive,
                    verify_structural)
from logsig.construct import _prime_multiset, _size_trials


def n_cycle(n):
    return Permutation(list(range(1, n)) + [0])


# -- cyclic sets ----------------------------------------------------------------

def test_cyclic_size_one_is_empty():
    ls = mls_cyclic(CyclicSetSpec(n_cycle(5), 1))
    assert ls.blocks == ()
    assert ls_length(ls) == 0


def test_cyclic_twelve_matches_mixed_radix():
    x = n_cycle(12)
    ls = mls_cyclic(CyclicSetSpec(x, 12))
    assert ls.block_sizes == (2, 2, 3)
    assert ls_length(ls) == 7
    e = Permutation.identity(12)
    assert ls.blocks[0] == (e, x)                    # weight 1
    assert ls.blocks[1] == (e, x ** 2)               # weight 2
    assert ls.blocks[2] == (e, x ** 4, x ** 8)       # weight 4


def test_cyclic_prime_size_single_block():
    ls = mls_cyclic(CyclicSetSpec(n_cycle(11), 11))
    assert ls.block_sizes == (11,)


def test_cyclic_size_cap():
    with pytest.raises(ValueError):
        CyclicSetSpec(n_cycle(5), 6)
    with pytest.raises(ValueError):
        CyclicSetSpec(n_cycle(5), 0)


def products_cover_cyclic_set(ls, x, s):
    """Exhaustive enumeration of all products, tracked at point 0.

    For powers of an s-cycle the image of point 0 identifies the exponent,
    so distinctness at that point is distinctness of the products."""
    images = [0]
    for block in reversed(ls.blocks):
        images = [e.img[p] for e in block for p in images]
    want = {(x ** i).img[0] for i in range(s)}
    return len(images) == s and len(set(images)) == s and set(images) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_cyclic_products_hit_every_power_once(s):
    x = n_cycle(max(s, 2))
    ls = mls_cyclic(CyclicSetSpec(x, s))
    assert ls_length(ls) == sum(_prime_multiset(s)) if s > 1 else ls_length(ls) == 0
    if s > 1:
        assert products_cover_cyclic_set(ls, x, s)


def test_cyclic_small_sizes_full_permutation_check():
    for s in range(2, 36):
        x = n_cycle(s)
        ls = mls_cyclic(CyclicSetSpec(x, s))
        seen = {Permutation.identity(s)}
        frontier = [Permutation.identity(s)]
        for block in ls.blocks:
            frontier = [e * p for e in block for p in frontier]
        assert len(frontier) == s
        assert len(set(frontier)) == s
        assert set(frontier) == {x ** i for i in range(s)}


def test_cyclic_max_exponent_stays_below_size():
    # digit-weighted exponent sums peak at s-1, so products never wrap
    for s in (4, 6, 12, 60, 100, 360, 1000):
        primes = _prime_multiset(s)
        w = 1
        top = 0
        for q in primes:
            top += (q - 1) * w
            w *= q
        assert top == s - 1


# -- transversal signatures -----------------------------------------------------

def test_chain_ls_c2():
    c2 = build_chain(load_group("C2"))
    ls = chain_ls(c2)
    assert ls.block_sizes == (2,)
    assert ls.blocks[0][0].is_identity()


def test_chain_ls_a5_minimal(a5):
    ls = chain_ls(a5)
    assert ls.block_sizes == (5, 4, 3)
    assert is_minimal(ls, factor_integer(60))
    assert verify_exhaustive(ls, a5).ok


def test_chain_ls_m11(m11):
    ls = chain_ls(m11)
    assert ls.block_sizes == (11, 10, 9, 8)
    assert verify_exhaustive(ls, m11).ok
    assert verify_structural(ls, m11).ok


# -- sharp transitivity ----------------------------------------------------------

def test_eleven_cycle_powers_sharply_transitive(m11):
    x = next(g for g in m11.generators.gens if g.order() == 11)
    decomp = ProductDecomposition((CyclicSetSpec(x, 11),), level=0)
    assert sharply_transitive_check(decomp, m11)


def test_fixing_element_pair_rejected():
    c2xc2 = build_chain(load_group("2^3")).subchain(0)
    # {id, g} with g fixing the base point cannot cover a 2-orbit
    chain = build_chain(load_group("2^3"))
    g = parse_cycles("(3,4)", 6)  # fixes point 1, the level-0 base
    assert not sharply_transitive_check([(Permutation.identity(6), g)], chain,
                                        level=0)


def test_transversal_blocks_sharply_transitive(m11, s4):
    for chain in (m11, s4):
        ls = chain_ls(chain)
        for block, ann in zip(ls.blocks, ls.provenance.annotations):
            assert sharply_transitive_check([block], chain, level=ann.level)


def test_size_mismatch_raises(m11):
    x = next(g for g in m11.generators.gens if g.order() == 11)
    with pytest.raises(ValueError):
        sharply_transitive_check([(x,)], m11, level=0)


def test_repeated_image_sets_rejected(m11):
    # random same-size sets with a forced repeated base-point image
    rng = random.Random(5)
    lv = m11.levels[1]
    sub = m11.subchain(1)
    rejected = 0
    for _ in range(60):
        elems = [sub.element_at(rng.randrange(sub.order))
                 for _ in range(len(lv.orbit) - 1)]
        stab = m11.subchain(2)
        h = stab.element_at(rng.randrange(1, stab.order))
        elems.append(elems[0] * h)  # same image of the base point as elems[0]
        if len(set(elems)) != len(elems):
            continue
        assert not sharply_transitive_check([tuple(elems)], m11, level=1)
        rejected += 1
    assert rejected >= 50


# -- refinement -------------------------------------------------------------------

def test_refine_block_prime_orbit_single_cycle(m11):
    decomp = refine_block(m11, 0)
    assert decomp is not None
    assert len(decomp.factors) == 1
    assert decomp.factors[0].size == 11
    assert sharply_transitive_check(decomp, m11)


def test_refine_block_a5_three_orbit(a5):
    decomp = refine_block(a5, 2)
    assert decomp is not None
    assert decomp.factors[0].generator.order() == 3


def test_refine_block_orbit_ten_needs_reordering(m11):
    # (10,) and the ascending (2, 5) come first and find nothing; the
    # (5, 2) ordering succeeds
    assert _size_trials([2, 5]) == [(10,), (2, 5), (5, 2)]
    decomp = refine_block(m11, 1)
    assert decomp is not None
    assert tuple(f.size for f in decomp.factors) == (5, 2)


def test_refine_ls_m11(m11):
    refined = refine_ls(chain_ls(m11), m11)
    assert ls_length(refined) == 30 == minimal_length(factor_integer(7920))
    assert verify_exhaustive(refined, m11).ok
    assert verify_structural(refined, m11).ok
    assert is_minimal(refined, factor_integer(7920))


def test_refine_ls_keeps_unrefinable_blocks_verifiable(m11):
    # an absurdly small cap forces the search to give up but the result
    # must still verify
    refined = refine_ls(chain_ls(m11), m11, cap=1)
    assert verify_exhaustive(refined, m11).ok
    assert ls_length(refined) >= 30


def test_refine_ls_requires_chain_provenance(s4):
    with pytest.raises(ValueError):
        refine_ls(mls_solvable(s4), s4)


def test_size_trials_order():
    assert _size_trials([2, 5]) == [(10,), (2, 5), (5, 2)]
    trials = _size_trials([2, 2, 3])
    assert trials == [(12,), (2, 6), (3, 4), (2, 2, 3),
                      (6, 2), (4, 3), (2, 3, 2), (3, 2, 2)]


# -- composition series and solvable groups ----------------------------------------

def test_c6_series_ascending_tiebreak():
    c6 = build_chain(load_group("C6"))
    series = composition_series_solvable(c6)
    assert series.primes == (2, 3)
    assert [g.order for g in series.subgroups] == [6, 3, 1]


def test_s4_series(s4):
    series = composition_series_solvable(s4)
    assert sorted(series.primes) == [2, 2, 2, 3]
    assert [g.order for g in series.subgroups] == [24, 12, 4, 2, 1]
    # witnesses generate each quotient
    for i, (t, q) in enumerate(zip(series.witnesses, series.primes)):
        upper, lower = series.subgroups[i], series.subgroups[i + 1]
        assert upper.contains(t) and not lower.contains(t)
        assert lower.contains(t ** q)


def test_series_subgroups_are_normal_steps(s4):
    series = composition_series_solvable(s4)
    for i in range(len(series.primes)):
        upper, lower = series.subgroups[i], series.subgroups[i + 1]
        for g in upper.generators.gens:
            gi = g.inverse()
            for x in lower.generators.gens:
                assert lower.contains(g * x * gi)


def test_series_prime_multiset_matches_order(s4):
    series = composition_series_solvable(s4)
    assert sorted(series.primes) == sorted(_prime_multiset(24))


def test_series_rejects_nonsolvable(a5):
    with pytest.raises(ValueError):
        composition_series_solvable(a5)


def test_trivial_series():
    trivial = build_chain(load_group("C1"))
    series = composition_series_solvable(trivial)
    assert series.primes == () and len(series.subgroups) == 1


def test_mls_solvable_c2():
    c2 = build_chain(load_group("C2"))
    ls = mls_solvable(c2)
    assert ls.block_sizes == (2,)
    assert ls.blocks[0][0].is_identity()


def test_mls_solvable_s4(s4):
    ls = mls_solvable(s4)
    assert ls_length(ls) == 9
    assert verify_exhaustive(ls, s4).ok
    assert is_minimal(ls, factor_integer(24))


def test_mls_solvable_elementary_abelian():
    chain = build_chain(load_group("2^3"))
    ls = mls_solvable(chain)
    assert ls_length(ls) == 6
    assert verify_exhaustive(ls, chain).ok


# -- dispatch ----------------------------------------------------------------------

def test_build_mls_c100():
    chain = build_chain(load_group("C100"))
    ls = build_mls(chain)
    assert ls_length(ls) == 14
    assert is_minimal(ls, factor_integer(100))
    assert verify_exhaustive(ls, chain).ok


def test_build_mls_m11(m11):
    ls = build_mls(m11)
    assert ls_length(ls) == 30
    assert is_minimal(ls, factor_integer(7920))


def test_build_mls_a5(a5):
    ls = build_mls(a5)
    assert ls_length(ls) == 12
    assert is_minimal(ls, factor_integer(60))
    assert verify_exhaustive(ls, a5).ok


def test_build_mls_trivial():
    ls = build_mls(build_chain(load_group("C1")))
    assert ls.blocks == ()


def test_decomposition_prepended_to_stabilizer_signature_is_exact(m11):
    # a sharply transitive cover of the top orbit, followed by any signature
    # of the point stabilizer, factors the whole group uniquely
    from logsig import LogSignature, Provenance, verify_exhaustive
    x = next(g for g in m11.generators.gens if g.order() == 11)
    decomp = ProductDecomposition((CyclicSetSpec(x, 11),), level=0)
    assert sharply_transitive_check(decomp, m11)
    stab_blocks = chain_ls(m11).blocks[1:]  # transversals of the deeper levels
    powers = tuple(x ** i for i in range(11))
    ls = LogSignature(degree=11, blocks=(powers,) + stab_blocks,
                      provenance=Provenance("manual"))
    assert verify_exhaustive(ls, m11).ok


def test_refinement_never_increases_length(m11, m12):
    for chain in (m11, m12):
        base = chain_ls(chain)
        assert ls_length(refine_ls(base, chain)) <= ls_length(base)
        assert ls_length(refine_ls(base, chain, cap=1)) <= ls_length(base)
