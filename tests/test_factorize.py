import random
from itertools import product

import pytest

from logsig import (FactorizationError, Permutation, TameIndexer, build_chain,
                    chain_ls, factorize_generic, factorize_tame, load_group,
                    load_verified_chain, mls_solvable, parse_cycles,
                    reconstruct, refine_ls)
from logsig.perm import _value_of


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
    from logsig import LogSignature
    ls = LogSignature(degree=4, blocks=())
    assert factorize_generic(Permutation.identity(4), ls) == ()
    with pytest.raises(FactorizationError):
        factorize_generic(parse_cycles("(1,2)", 4), ls)


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
