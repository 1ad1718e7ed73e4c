import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from logsig import (LogSignature, LsFormatError, Permutation, Provenance,
                    TameIndexer, VerificationBudgetError, build_chain, chain_ls,
                    dumps_ls, factor_integer, is_minimal,
                    loads_ls, ls_length, minimal_length, mls_solvable,
                    parse_cycles, read_ls, verify_exhaustive,
                    verify_structural, write_ls)
from logsig.chain import GeneratorSet


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
    trivial = build_chain(GeneratorSet(3, (Permutation.identity(3),)))
    ls = LogSignature(degree=3, blocks=(), provenance=Provenance("chain", ()))
    assert verify_exhaustive(ls, trivial).ok
    assert verify_structural(ls, trivial).ok


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


def test_nonmember_entry_rejected(a5):
    ls = chain_ls(a5)
    blocks = list(ls.blocks)
    entries = list(blocks[0])
    entries[1] = parse_cycles("(1,2)", 5)  # odd permutation, not in A5
    blocks[0] = tuple(entries)
    bad = LogSignature(degree=5, blocks=tuple(blocks), provenance=ls.provenance)
    with pytest.raises(ValueError):
        verify_exhaustive(bad, a5)


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
        for ls in (chain_ls(chain), tamper(chain_ls(chain), chain, block=0),
                   wrong_level_entry(chain, pos=1)):
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
    assert "outside" in report.detail
    # building a tame index is the same walk and reports the same fault
    with pytest.raises(ValueError) as exc:
        TameIndexer(bad, m11)
    assert str(exc.value) == report.detail


def test_structural_needs_annotations(m11):
    bare = LogSignature(degree=11, blocks=chain_ls(m11).blocks,
                        provenance=Provenance("manual"))
    with pytest.raises(ValueError):
        verify_structural(bare, m11)


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


def test_reject_unknown_tag():
    text = '{"degree": 2, "provenance": {"tag": "bogus"}, "blocks": [[[1, 2]]]}'
    with pytest.raises(LsFormatError):
        loads_ls(text)


@pytest.mark.parametrize("annotations", [
    5, [{"level": 0, "set_size": "x"}], [{"level": 0, "step": 1.5}]])
def test_reject_malformed_annotations(annotations):
    text = json.dumps({"degree": 2, "blocks": [[[1, 2], [2, 1]]],
                       "provenance": {"tag": "chain", "annotations": annotations}})
    with pytest.raises(LsFormatError):
        loads_ls(text)


def test_empty_block_rejected():
    with pytest.raises(ValueError):
        LogSignature(degree=2, blocks=((),))


def test_duplicate_entry_rejected():
    e = Permutation.identity(2)
    with pytest.raises(ValueError):
        LogSignature(degree=2, blocks=((e, e),))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=20))
def test_generated_signature_roundtrips(n):
    from logsig import mls_cyclic, CyclicSetSpec
    x = Permutation(list(range(1, n)) + [0])
    ls = mls_cyclic(CyclicSetSpec(x, n))
    assert loads_ls(dumps_ls(ls)) == ls
