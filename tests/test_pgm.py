import io
import json
import random
from pathlib import Path

import pytest

from logsig import (LsFormatError, PgmKey, TameIndexer, build_chain, build_mls,
                    chain_ls, decrypt, dumps_ls, encrypt, keygen, load_group,
                    randomize_ls, read_key, verify_structural, write_key)


def test_randomize_is_deterministic(m11):
    base = chain_ls(m11)
    a = randomize_ls(base, m11, 123)
    b = randomize_ls(base, m11, 123)
    assert a == b
    assert randomize_ls(base, m11, 124) != a


def test_randomize_preserves_structure(m11):
    base = chain_ls(m11)
    for seed in range(100):
        rls = randomize_ls(base, m11, seed)
        assert verify_structural(rls, m11).ok


def test_randomize_last_block_is_permutation_of_original(m11):
    base = chain_ls(m11)
    rls = randomize_ls(base, m11, 7)
    assert sorted(rls.blocks[-1], key=lambda g: g.img) == \
        sorted(base.blocks[-1], key=lambda g: g.img)


def element_at_reference(ls, chain, seed):
    """``randomize_ls`` with each right factor drawn by ``element_at``."""
    rng = random.Random(seed)
    blocks = []
    for block, a in zip(ls.blocks, ls.provenance.annotations):
        entries = list(block)
        rng.shuffle(entries)
        sub = chain.subchain(a.level + 1)
        if sub.order > 1:
            entries = [e * sub.element_at(rng.randrange(sub.order)) for e in entries]
        blocks.append(tuple(entries))
    return tuple(blocks)


@pytest.mark.parametrize("name", ["m11", "m12", "m24"])
def test_randomize_draws_the_element_at_factors(name, request):
    chain = request.getfixturevalue(name)
    base = chain_ls(chain)
    for seed in (0, 1, 42, 2015, 2 ** 62 + 7):
        assert randomize_ls(base, chain, seed).blocks == element_at_reference(
            base, chain, seed)


def test_randomize_needs_chain_provenance(s4):
    from logsig import mls_solvable
    with pytest.raises(ValueError):
        randomize_ls(mls_solvable(s4), s4, 1)


@pytest.mark.parametrize("name", ["m11", "m12", "m24"])
def test_randomize_refined_signatures(request, name):
    # only a run's last block is multiplied on the right; the others are
    # shuffled, so their entries stay as they are
    chain = request.getfixturevalue(name)
    refined = build_mls(chain)
    levels = [a.level for a in refined.provenance.annotations]
    last = {i for i, level in enumerate(levels) if levels[i + 1:i + 2] != [level]}
    for seed in (0, 7):
        rls = randomize_ls(refined, chain, seed)
        assert rls != refined and rls.block_sizes == refined.block_sizes
        assert verify_structural(rls, chain).ok
        TameIndexer(rls, chain)
        for bi, (block, was) in enumerate(zip(rls.blocks, refined.blocks)):
            if bi not in last:
                assert set(block) == set(was)


def test_keygen_deterministic_and_distinct(m11):
    k1 = keygen(m11, 42)
    k2 = keygen(m11, 42)
    assert k1.alpha == k2.alpha and k1.beta == k2.beta
    k3 = keygen(m11, 43)
    assert k3.alpha != k1.alpha
    assert k1.alpha != k1.beta  # two halves diversified independently


def test_key_file_byte_identical_for_same_seed(m11, tmp_path):
    p1, p2 = str(tmp_path / "k1.json"), str(tmp_path / "k2.json")
    write_key(keygen(m11, 99), p1)
    write_key(keygen(m11, 99), p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_key_file_roundtrip(m11, tmp_path):
    path = str(tmp_path / "key.json")
    key = keygen(m11, 5)
    write_key(key, path)
    again = read_key(path, m11)
    assert again.alpha == key.alpha and again.beta == key.beta
    assert decrypt(again, encrypt(again, 4321)) == 4321


@pytest.mark.parametrize("name", ["M24", "M12"])
def test_key_file_is_json_dumps_text(request, name):
    # the key's object, both signature documents included, as json.dumps
    # writes it with a two-space indent
    key = keygen(request.getfixturevalue(name.lower()), 11)
    buf = io.StringIO()
    write_key(key, buf)
    obj = {"format": "pgm-key-1", "group": name, "seed": 11,
           "alpha": json.loads(dumps_ls(key.alpha)), "beta": json.loads(dumps_ls(key.beta))}
    assert buf.getvalue() == json.dumps(obj, indent=2) + "\n"


def test_key_with_an_overlong_integer_is_malformed(m11):
    # more digits than the interpreter converts to an int by default
    buf = io.StringIO()
    write_key(keygen(m11, 5), buf)
    text = buf.getvalue().replace('"seed": 5', '"seed": 1' + "0" * 5000)
    assert text != buf.getvalue()
    with pytest.raises(LsFormatError, match="too many digits"):
        read_key(io.StringIO(text), m11)


def test_roundtrip_sampled(m11):
    key = keygen(m11, 8)
    rng = random.Random(0)
    for _ in range(500):
        m = rng.randrange(key.message_space)
        assert decrypt(key, encrypt(key, m)) == m


def test_exhaustive_bijectivity_s4(s4):
    key = keygen(s4, 21)
    images = {encrypt(key, m) for m in range(24)}
    assert len(images) == 24
    assert all(decrypt(key, encrypt(key, m)) == m for m in range(24))


def test_identical_halves_give_identity_map(m11):
    alpha = randomize_ls(chain_ls(m11), m11, 77)
    idx = TameIndexer(alpha, m11)
    key = PgmKey(chain=m11, alpha=alpha, beta=alpha,
                 alpha_indexer=idx, beta_indexer=idx, seed=0)
    for m in range(0, 7920, 391):
        assert encrypt(key, m) == m


def test_message_out_of_range(s4):
    key = keygen(s4, 1)
    with pytest.raises(ValueError):
        encrypt(key, 24)
    with pytest.raises(ValueError):
        encrypt(key, -1)
    with pytest.raises(ValueError):
        decrypt(key, 24)


def test_trivial_group_degenerate_key():
    trivial = build_chain(load_group("C1"))
    key = keygen(trivial, 9)
    assert key.message_space == 1
    assert encrypt(key, 0) == 0 and decrypt(key, 0) == 0


def test_keys_are_pure_functions_of_group_and_seed(m11):
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_key(keygen(m11, 314), buf1)
    chain2 = build_chain(m11.generators)
    write_key(keygen(chain2, 314), buf2)
    assert buf1.getvalue() == buf2.getvalue()
