import copy
import dataclasses
import functools
import gc
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import time
import weakref
from itertools import product
from math import isqrt, prod
from pathlib import Path

import pytest

from logsig import (FactorizationError, LogSignature, Permutation, Provenance,
                    TameIndexer, build_chain, build_mls, chain_ls, dumps_ls,
                    factorize_generic, factorize_tame, load_group,
                    load_verified_chain, loads_ls, mls_solvable, parse_cycles,
                    reconstruct, refine_ls, verify_structural)
from logsig import chain as chain_module, factorize, perm, signature
from logsig.pgm import keygen
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


def test_tame_needs_runs(s4):
    # S4's solvable signature has no runs: its first two blocks already hold
    # more products than there are points to send apart
    with pytest.raises(ValueError, match="^no run can start at block 0: blocks 0 "
                       "to 1 have 6 products, more than the degree 4$"):
        TameIndexer(mls_solvable(s4), s4)


def reannotated(ls, levels):
    """``ls`` read back from its file with the annotations' levels rewritten."""
    doc = json.loads(dumps_ls(ls))
    for a, level in zip(doc["provenance"]["annotations"], levels):
        a["level"] = level
    return loads_ls(json.dumps(doc))


def test_annotations_decide_no_verdict_and_no_digits(m11, m12):
    from test_signature import wrong_level_entry
    rng = random.Random("annotations")
    for ls, chain in ((chain_ls(m11), m11), (refined_m12(), m12), (build_mls(m11), m11)):
        levels = [a.level for a in ls.provenance.annotations]
        elems = [chain.element_at(rng.randrange(chain.order)) for _ in range(30)]
        report = verify_structural(ls, chain)
        tame = [TameIndexer(ls, chain).digits(g) for g in elems]
        generic = [factorize_generic(g, ls) for g in elems]
        for other in (reannotated(ls, levels[::-1]), reannotated(ls, [99] * len(levels))):
            assert other.blocks == ls.blocks
            assert verify_structural(other, chain) == report
            assert [TameIndexer(other, chain).digits(g) for g in elems] == tame
            assert [factorize_generic(g, other) for g in elems] == generic
    bad = wrong_level_entry(m11)
    report = verify_structural(bad, m11)
    assert not report.ok
    other = reannotated(bad, [99] * len(bad.blocks))
    assert verify_structural(other, m11) == report
    with pytest.raises(ValueError) as exc:
        TameIndexer(other, m11)
    assert str(exc.value) == report.detail


@pytest.mark.parametrize("name", ["M11", "M12", "M22", "M24"])
def test_served_runs_are_the_chain_levels(name):
    # lookup's per-element sift walks these runs: in every served signature
    # they are the chain's nontrivial levels, with the base points, in order
    chain = load_verified_chain(name)
    levels = [lv for lv in chain.levels if len(lv.orbit) > 1]
    key = keygen(chain, 7)
    for ls in (chain_ls(chain), build_mls(chain), key.alpha, key.beta):
        runs = TameIndexer(ls, chain)._levels
        assert [point for point, _ in runs] == [lv.point for lv in levels]
        assert [set(table) for _, table in runs] == [set(lv.orbit) for lv in levels]


@pytest.mark.parametrize("name", ["M11", "D300"])
def test_tame_digits_of_chain_ls_are_chain_index(name):
    # D300 has degree > 256, so its tables hold tuple images and inverses
    # composed in the orbit transversal
    chain = load_verified_chain(name)
    idx = TameIndexer(chain_ls(chain), chain)
    sizes = [len(lv.orbit) for lv in chain.levels]
    for g in chain.elements():
        assert chain.index_of(g) == _value_of(idx.digits(g), sizes)


def test_tame_digits_of_key_halves_and_refined_m12_are_pinned(m12):
    # PGM key halves and refined signatures are walked by the digit walk,
    # not the membership walk; their digits on seeded elements are fixed
    key = keygen(m12, 42)
    rng = random.Random("tame digits")
    elems = [m12.element_at(rng.randrange(m12.order)) for _ in range(200)]
    digests = {}
    for name, idx in (("alpha", key.alpha_indexer), ("beta", key.beta_indexer),
                      ("refined", TameIndexer(build_mls(m12), m12))):
        digits = [factorize_tame(g, idx) for g in elems]
        digests[name] = hashlib.sha256(json.dumps(digits).encode()).hexdigest()
    assert digests == {
        "alpha": "9700690a14ae5a4fc92629ea43f86dab0024c407242483fa3965a9ca76f552ec",
        "beta": "a73263e722d5853c454d409fc3d09533e1382f2eee80bc869aff1d69bfbc4975",
        "refined": "c466d8c1ca27d864457877d9fbbc8ed496bbd254d9a1190581972a6b4faa8926",
    }


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


def generic_reference(g, ls, budget=10_000_000):
    """Meet-in-the-middle factorization that inverts every product of the
    scanned half, with the split, budget check and messages of
    factorize_generic's meet-in-the-middle form."""
    if g.degree != ls.degree:
        raise ValueError("degree mismatch")
    sizes = ls.block_sizes
    total = prod(sizes)
    if total > budget:
        raise ValueError("%d products exceed the budget of %d" % (total, budget))
    split = min(range(len(sizes) + 1),
                key=lambda t: (max(prod(sizes[:t]), prod(sizes[t:])), t))
    left_n, right_n = prod(sizes[:split]), prod(sizes[split:])
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
    raise FactorizationError("element has no factorization; it is not a member "
                             "(or the signature is not exact)")


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


def test_generic_checks_run_after_the_index_is_built(s4):
    ls = mls_solvable(s4)  # 24 products and no runs: meet-in-the-middle
    g = s4.element_at(17)
    assert factorize_generic(g, ls) == generic_reference(g, ls)
    assert vars(ls)["_generic_index"].mitm is not None
    expect = outcome(generic_reference, g, ls, budget=23)
    assert expect == (ValueError, "24 products exceed the budget of 23")
    assert outcome(factorize_generic, g, ls, budget=23) == expect


@pytest.mark.parametrize("build", [chain_ls, build_mls])
def test_generic_run_form_past_the_budget_matches_tame(m24, build):
    # 244,823,040 products, past the default budget, which bounds only the
    # products meet-in-the-middle composes: the runs are sifted whatever
    # the product count, one table lookup per run
    ls = build(m24)
    stripped = unannotated(ls)
    assert stripped.product_count() > signature.DEFAULT_BUDGET
    indexer = TameIndexer(ls, m24)
    rng = random.Random(24)
    for g in [m24.element_at(rng.randrange(m24.order)) for _ in range(50)]:
        assert factorize_generic(g, stripped) == factorize_tame(g, indexer)
    assert vars(stripped)["_generic_index"].runs is not None
    e = Permutation.identity(24)
    assert factorize_generic(e, stripped, budget=1) == (0,) * len(ls.blocks)
    with pytest.raises(FactorizationError):
        factorize_generic(parse_cycles("(1,2)", 24), stripped, budget=1)


@pytest.mark.parametrize("name", ["S4", "A4", "SL(2,3)", "D300"])
def test_generic_stored_half_is_at_most_the_square_root(name):
    # left_n * right_n is the product count, so the budget bounds the
    # stored half by its square root: no separate cap is needed
    ls = unannotated(build_mls(load_verified_chain(name)))
    factorize_generic(Permutation.identity(ls.degree), ls)
    _sizes, _total, _right_n, _scan_right, stored, _scan = vars(ls)["_generic_index"].mitm
    assert 1 < len(stored) <= isqrt(ls.product_count())


def test_generic_index_holds_no_strong_reference(a5):
    ls = chain_ls(a5)
    factorize_generic(Permutation.identity(5), ls)
    assert "_generic_index" in vars(ls)
    ref = weakref.ref(ls)
    gc.disable()
    try:
        # with the collector off only reference counting frees the
        # signature, which a cycle through its index would prevent
        del ls
        assert ref() is None
    finally:
        gc.enable()


def test_generic_index_built_once_per_signature(a5, s4, monkeypatch):
    build = factorize._generic_index
    for chain, make, form in ((a5, chain_ls, "runs"), (s4, mls_solvable, "mitm")):
        built = []
        monkeypatch.setattr(factorize, "_generic_index",
                            lambda ls, *split: built.append(ls) or build(ls, *split))
        ls, twin = make(chain), copied(make(chain))
        g = chain.element_at(17)
        for _ in range(10):
            assert factorize_generic(g, ls) == generic_reference(g, ls)
        assert len(built) == 1 and built[0] is ls
        assert getattr(ls._generic_index, form) is not None
        assert factorize_generic(g, twin) == generic_reference(g, ls)
        assert len(built) == 2 and built[1] is twin


def test_generic_list_blocks_factorize_like_tuples(a5):
    ls = chain_ls(a5)
    listed = LogSignature(degree=5, blocks=[list(b) for b in ls.blocks])
    for g in [a5.element_at(r) for r in range(0, 60, 7)] + [parse_cycles("(1,2)", 5)]:
        assert outcome(factorize_generic, g, listed) == outcome(factorize_generic, g, ls)


def test_pickled_signature_hashes_as_a_fresh_one(tmp_path):
    # the hash of bytes and str depends on PYTHONHASHSEED, so a hash kept
    # inside the pickle would differ from the loading process's own
    path = tmp_path / "a5.pickle"
    fresh = ("from logsig import Permutation, chain_ls, factorize_generic, "
             "load_verified_chain\n"
             "ls = chain_ls(load_verified_chain('A5'))\n")
    dump = fresh + ("hash(ls)\n"
                    "factorize_generic(Permutation.identity(5), ls)\n"
                    "open(%r, 'wb').write(pickle.dumps(ls))\n" % str(path))
    load = fresh + ("old = pickle.loads(open(%r, 'rb').read())\n"
                    "assert old == ls and hash(old) == hash(ls) and old in {ls}\n"
                    % str(path))
    src = str(Path(factorize.__file__).resolve().parents[1])
    for seed, code in (("1", dump), ("2", load)):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", "import pickle\n" + code],
                       env=env, check=True)


def test_pickles_and_copies_hold_only_the_fields(m12):
    ls = dataclasses.replace(refined_m12(), provenance=Provenance("manual"))
    before = pickle.dumps(ls)
    g = m12.element_at(12345)
    digits = factorize_generic(g, ls)
    assert "_generic_index" in vars(ls)
    assert pickle.dumps(ls) == before
    loaded = pickle.loads(before)
    assert loaded == ls and hash(loaded) == hash(ls)
    assert factorize_generic(g, loaded) == digits
    for twin in (copy.copy(ls), copy.deepcopy(ls)):
        assert "_generic_index" not in vars(twin) and twin == ls


def test_factorizers_reject_another_degree(m11):
    ls = chain_ls(m11)
    g = Permutation.identity(12)
    for factorizer in (TameIndexer(ls, m11).digits, lambda x: factorize_generic(x, ls)):
        with pytest.raises(ValueError, match="degree mismatch"):
            factorizer(g)


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


def unannotated(ls):
    return dataclasses.replace(ls, provenance=Provenance("manual"))


def _all_products(ls):
    return list(dict.fromkeys(reconstruct(ls, d)
                              for d in product(*map(range, ls.block_sizes))))


def _sampled_products(ls, rng, k):
    return [reconstruct(ls, tuple(rng.randrange(n) for n in ls.block_sizes))
            for _ in range(k)]


def overlapping_run(chain):
    """Blocks {e, (1,2)}, {e, (1,2)(3,4)}, {e, (3,4)} of S4.  The last block
    fixes points 1 and 2, and the middle one sends each to two points, but
    the first two blocks together repeat an image of either, so the
    signature has no runs."""
    e = Permutation.identity(4)
    blocks = tuple((e, parse_cycles(c, 4)) for c in ("(1,2)", "(1,2)(3,4)", "(3,4)"))
    return LogSignature(degree=4, blocks=blocks)


def _generic_cases():
    """name -> (chain name, signature builder, form the index must take)."""
    from test_signature import c1000_signature, nonmember_entry, wrong_level_entry
    cases = {}
    for name in ("M11", "M12", "M22", "A5", "A6", "A7", "A8", "A9", "PSL(2,7)",
                 "PSL(2,11)", "S3", "S4", "A4", "D12", "SL(2,3)", "D300", "C100"):
        cases[name + "-chain"] = (name, lambda c: unannotated(chain_ls(c)), "runs")
    for name in ("M11", "M12", "M22", "A5", "A6", "A7", "A8", "A9", "PSL(2,7)",
                 "PSL(2,11)"):
        cases[name + "-refined"] = (name, lambda c: unannotated(build_mls(c)), "runs")
    # these solvable signatures split into no runs; C100's is one run of 100
    # products, more than its halves' 10 + 10, and C1000's of 1,000 > 40 + 25
    for name in ("S3", "S4", "A4", "D12", "SL(2,3)", "D300", "C100"):
        cases[name + "-solvable"] = (name, lambda c: unannotated(build_mls(c)), "mitm")
    cases["C1000-cyclic"] = ("C1000", c1000_signature, "mitm")
    # inexact or repeating signatures, queried on their own products too
    cases["S3-doubled"] = ("S3", lambda c: doubled(chain_ls(c).blocks), "mitm")
    cases["A5-doubled"] = ("A5", lambda c: doubled(chain_ls(c).blocks[::-1]), "mitm")
    cases["M11-wrong-level"] = ("M11", wrong_level_entry, "mitm")
    cases["A5-wrong-level"] = ("A5", wrong_level_entry, "mitm")
    cases["A5-nonmember-entry"] = ("A5", nonmember_entry, "runs")
    cases["S4-overlapping-run"] = ("S4", overlapping_run, "mitm")
    return cases


GENERIC_CASES = _generic_cases()
OWN_PRODUCTS = ("-doubled", "-wrong-level", "-nonmember-entry", "-overlapping-run")


@pytest.mark.parametrize("name", sorted(GENERIC_CASES))
def test_generic_forms_match_reference(name):
    group, build, form = GENERIC_CASES[name]
    chain = load_verified_chain(group)
    ls = build(chain)
    rng = random.Random(20261019)
    n = chain.degree
    members = [chain.element_at(rng.randrange(chain.order)) for _ in range(20)]
    others = [Permutation(rng.sample(range(n), n)) for _ in range(5)]
    if name.endswith(OWN_PRODUCTS):
        # a doubled signature repeats products, so the first in scan rank
        # order must be returned; an inexact one may miss group members
        members += (_all_products(ls) if ls.product_count() <= 600
                    else _sampled_products(ls, rng, 300))
    for g in members + others:
        assert outcome(factorize_generic, g, ls) == outcome(generic_reference, g, ls), g
    index = vars(ls)["_generic_index"]
    assert (index.runs is not None, index.mitm is not None) == (form == "runs", form == "mitm")


def level_table_reference(sets, point, degree):
    """``signature._level_table`` by inverting every product: each entry
    is the product's digits, inverse and forward image."""
    sizes = [len(s) for s in sets]
    raws = [[e.img for e in s] for s in sets]
    return {q[point]: (_digits_of(rank, sizes), _inv_raw(q), q)
            for rank, q in enumerate(_products(raws, _identity_raw(degree)))}


@pytest.mark.parametrize("name, build", [
    ("D300", chain_ls),  # tuple images, one block per level
    ("M24", chain_ls),
    ("M24", build_mls),  # several blocks per level
    ("M12", build_mls),
])
def test_level_tables_match_inverting_every_product(name, build):
    chain = load_verified_chain(name)
    ls = build(chain)
    levels: dict = {}
    for block, a in zip(ls.blocks, ls.provenance.annotations):
        levels.setdefault(a.level, []).append(block)
    for level, sets in levels.items():
        point = chain.levels[level].point
        table = signature._level_table(sets, point, ls.degree)
        assert table == level_table_reference(sets, point, ls.degree)
        assert len(table) == len(chain.levels[level].orbit)
    # no sets: the one product is the identity
    e = _identity_raw(ls.degree)
    assert signature._level_table([], 0, ls.degree) == {0: ((), e, e)}


def test_generic_run_form_is_fast_when_warm(m12):
    ls = unannotated(refined_m12())
    rng = random.Random(21)
    elements = [m12.element_at(rng.randrange(m12.order)) for _ in range(1000)]
    factorize_generic(elements[0], ls)
    assert vars(ls)["_generic_index"].runs is not None
    start = time.perf_counter()
    for g in elements:
        factorize_generic(g, ls)
    # ~0.013 s on a 2-CPU x86-64 machine; meet-in-the-middle took ~0.1 s
    assert time.perf_counter() - start < 0.03


# -- per-element paths: L - 1 products for L factors --------------------------

def sift_reference(raw, levels):
    """The digit walk as it was before the last level was settled by
    comparison: every level it strips multiplies by the entry's inverse."""
    out = ()
    for passed, (point, table) in enumerate(levels):
        hit = table.get(raw[point])
        if hit is None:
            return raw, out, passed
        out += hit[0]
        raw = _mul_raw(hit[1], raw)
    return raw, out, len(levels)


def off_base_nonmember(g, points, rng):
    """``g`` times a transposition of two points outside ``points``: it
    sends every point of ``points`` where ``g`` does, and is no member of
    a group that ``points`` is a base of."""
    a, b = rng.sample([p for p in range(g.degree) if p not in points], 2)
    img = list(range(g.degree))
    img[a], img[b] = b, a
    return g * Permutation(img), Permutation(img)


@pytest.fixture
def mul_raw_calls(monkeypatch):
    """The modules' map-based products, each call counted."""
    calls = []

    def counted(a, b):
        calls.append(None)
        return _mul_raw(a, b)

    for module in (perm, chain_module, factorize):
        monkeypatch.setattr(module, "_mul_raw", counted)
    return calls


@pytest.mark.parametrize("name, build", [
    ("M12", build_mls), ("M24", chain_ls), ("D300", chain_ls), ("C1000", chain_ls)])
def test_per_element_paths_make_one_product_fewer_than_factors(name, build,
                                                                mul_raw_calls):
    chain = load_verified_chain(name)
    ls = build(chain)
    generic = unannotated(ls)
    indexer = TameIndexer(ls, chain)
    runs = len(indexer._levels)
    rng = random.Random(name)
    for _ in range(10):
        index = rng.randrange(chain.order)
        del mul_raw_calls[:]
        g = chain.element_at(index)
        assert len(mul_raw_calls) == len(chain.levels) - 1
        del mul_raw_calls[:]
        digits = factorize_tame(g, indexer)
        assert len(mul_raw_calls) == runs - 1
        del mul_raw_calls[:]
        assert reconstruct(ls, digits) == g
        assert len(mul_raw_calls) == len(ls.blocks) - 1
        del mul_raw_calls[:]
        assert factorize_generic(g, generic, budget=chain.order) == digits
        assert vars(generic)["_generic_index"].runs is not None
        assert len(mul_raw_calls) == runs - 1
        del mul_raw_calls[:]
        assert chain.index_of(g) == index
        assert len(mul_raw_calls) == len(chain.levels) - 1


@pytest.mark.parametrize("name, build", [
    ("M12", build_mls), ("M24", chain_ls), ("D300", chain_ls), ("C1000", chain_ls)])
def test_a_nonmember_that_agrees_on_the_base_leaves_a_residue(name, build):
    # the last level selects the entry a member would, so only comparing
    # the whole residue with the entry's forward image rejects it
    chain = load_verified_chain(name)
    ls = build(chain)
    indexer = TameIndexer(ls, chain)
    generic = unannotated(ls)
    points = [point for point, _ in indexer._levels]
    assert set(points) <= set(chain.base)
    rng = random.Random(name)
    for _ in range(10):
        member = chain.element_at(rng.randrange(chain.order))
        g, swap = off_base_nonmember(member, chain.base, rng)
        assert [g(p) for p in chain.base] == [member(p) for p in chain.base]
        with pytest.raises(FactorizationError, match="nonidentity residue"):
            factorize_tame(g, indexer)
        with pytest.raises(FactorizationError, match="no factorization"):
            factorize_generic(g, generic, budget=chain.order)
        with pytest.raises(ValueError, match="not a member"):
            chain.index_of(g)
        assert chain.sift(g) == swap and not chain.contains(g)


def _walks():
    """``(name, levels, identity, members, nonmembers)`` for the digit walk
    of M12's chain and refined signature, both halves of an M24 key, and
    the chains of D300 and C1000, whose images are tuples."""
    out = []
    for name in ("M12", "M24", "D300", "C1000"):
        chain = load_verified_chain(name)
        rng = random.Random("walk " + name)
        n = chain.degree
        members = [chain.element_at(rng.randrange(chain.order)) for _ in range(40)]
        members += [Permutation.identity(n)]
        others = [Permutation(rng.sample(range(n), n)) for _ in range(20)]
        others += [off_base_nonmember(g, chain.base, rng)[0] for g in members[:20]]
        walks = [("chain", chain._walk)]
        if name == "M12":
            walks.append(("refined", TameIndexer(build_mls(chain), chain)._levels))
        if name == "M24":
            key = keygen(chain, 7)
            walks += [("alpha", key.alpha_indexer._levels),
                      ("beta", key.beta_indexer._levels)]
        out += [(name + " " + what, levels, chain._identity, members, others)
                for what, levels in walks]
    return out


def test_digit_walk_matches_the_walk_that_multiplies_at_every_level():
    for name, levels, identity, members, others in _walks():
        for g in members + others:
            got = perm._sift(g.img, levels, identity)
            assert got == sift_reference(g.img, levels), (name, g)
            assert (got[0] == identity) == (g in members), (name, g)
