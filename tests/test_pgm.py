import io
import random
from pathlib import Path

import pytest

from logsig import (LsFormatError, PgmKey, TameIndexer, build_chain, chain_ls,
                    decrypt, encrypt, keygen, load_group, randomize_ls, read_key,
                    verify_structural, write_key)


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


def test_randomize_needs_chain_provenance(s4):
    from logsig import mls_solvable
    with pytest.raises(ValueError):
        randomize_ls(mls_solvable(s4), s4, 1)


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
