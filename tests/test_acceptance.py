"""Acceptance suite: ten numbered criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion asserts
its expected values exactly (big-integer equality, no tolerances) and its
runtime budget.
"""

import random
import time
from itertools import product
from pathlib import Path

from logsig import (CyclicSetSpec, Permutation, ProductDecomposition,
                    TameIndexer, build_chain, chain_ls, factor_integer,
                    factorize_generic, factorize_tame, is_minimal, keygen,
                    load_group, ls_length, minimal_length,
                    mls_cyclic, mls_solvable, reconstruct, refine_ls,
                    sharply_transitive_check, verify_exhaustive, decrypt,
                    encrypt, write_key)
from logsig.cli import main as cli_main
from logsig.construct import _prime_multiset


def report(num, ok, elapsed, budget, detail):
    print("[criterion %2d] %s  %5.2fs (budget %3ds)  %s"
          % (num, "PASS" if ok else "FAIL", elapsed, budget, detail))
    assert ok
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (num, budget)


# the signatures of criteria 2-5, rebuilt independently for the lower-bound
# check so criterion 8 does not depend on test execution order
import functools


@functools.cache
def signature_pool():
    pool = []  # (label, ls, order, claims_minimal)
    for name in ("A5", "S4", "S5", "M11", "M12", "M22"):
        chain = build_chain(load_group(name))
        pool.append(("chain:" + name, chain_ls(chain), chain.order, False))
    for name in ("C2", "C12", "C100", "D6", "Q8", "2^3", "S4", "SL(2,3)"):
        chain = build_chain(load_group(name))
        pool.append(("solvable:" + name, mls_solvable(chain), chain.order, True))
    for s in range(2, 1001, 7):
        x = Permutation(list(range(1, s)) + [0])
        pool.append(("cyclic:%d" % s, mls_cyclic(CyclicSetSpec(x, s)), s, True))
    for name in ("M11", "M12"):
        chain = build_chain(load_group(name))
        pool.append(("refined:" + name, refine_ls(chain_ls(chain), chain),
                     chain.order, True))
    return pool


def test_criterion_01_orders():
    t0 = time.perf_counter()
    expected = {"M11": 7920, "M12": 95_040, "M22": 443_520,
                "M24": 244_823_040, "A5": 60}
    got = {}
    for name in expected:
        got[name] = build_chain(load_group(name)).order
    elapsed = time.perf_counter() - t0
    report(1, got == expected, elapsed, 1,
           "orders " + ", ".join("%s=%d" % kv for kv in sorted(got.items())))


def test_criterion_02_exhaustive_oracle_and_tampering():
    t0 = time.perf_counter()
    chains = {name: build_chain(load_group(name))
              for name in ("A5", "S4", "S5", "M11", "M12", "M22")}
    ok = True
    for name, chain in chains.items():
        ls = chain_ls(chain)
        rep = verify_exhaustive(ls, chain, budget=500_000)
        ok &= rep.ok and rep.products_checked == chain.order

    # twenty tampered variants: in each, one block entry is replaced by a
    # same-coset partner of another entry (a duplicated coset representative)
    def tampered(chain, ls, block, src, dst):
        level = ls.provenance.annotations[block].level
        sub = chain.subchain(level + 1)
        h = next(g for g in sub.generators.gens if not g.is_identity())
        entries = list(ls.blocks[block])
        entries[dst] = entries[src] * h
        blocks = list(ls.blocks)
        blocks[block] = tuple(entries)
        from logsig import LogSignature
        return LogSignature(degree=ls.degree, blocks=tuple(blocks),
                            group=ls.group, provenance=ls.provenance)

    plan = [("A5", 0), ("A5", 1), ("S4", 0), ("S4", 1),
            ("S5", 0), ("S5", 1), ("S5", 2),
            ("M11", 0), ("M11", 1), ("M11", 2),
            ("M12", 0), ("M12", 1), ("M12", 2), ("M12", 3),
            ("M22", 0), ("M22", 1), ("M22", 2), ("M22", 3)]
    plan += [("M11", 0), ("M12", 1)]  # same blocks, different duplicated position
    assert len(plan) == 20
    seen_positions = {}
    failures = 0
    for name, block in plan:
        chain = chains[name]
        ls = chain_ls(chain)
        n = seen_positions.get((name, block), 0)
        seen_positions[(name, block)] = n + 1
        src, dst = (0, 1) if n == 0 else (1, 2)
        bad = tampered(chain, ls, block, src, dst)
        rep = verify_exhaustive(bad, chain, budget=500_000)
        failures += (not rep.ok) and rep.collision is not None
    ok &= failures == 20
    elapsed = time.perf_counter() - t0
    report(2, ok, elapsed, 30,
           "6 chain signatures pass, %d/20 tampered variants fail with a witness"
           % failures)


def test_criterion_03_solvable_constructions():
    t0 = time.perf_counter()
    names = ("C2", "C12", "C100", "D6", "Q8", "2^3", "S4", "SL(2,3)")
    ok = True
    lengths = []
    for name in names:
        chain = build_chain(load_group(name))
        ls = mls_solvable(chain)
        f = factor_integer(chain.order)
        good = (ls_length(ls) == minimal_length(f)
                and verify_exhaustive(ls, chain).ok)
        ok &= good
        lengths.append("%s=%d" % (name, ls_length(ls)))
    elapsed = time.perf_counter() - t0
    report(3, ok, elapsed, 5, "lengths " + ", ".join(lengths))


def test_criterion_04_cyclic_sets_to_1000():
    t0 = time.perf_counter()
    ok = True
    for s in range(1, 1001):
        x = Permutation(list(range(1, max(s, 2))) + [0])
        ls = mls_cyclic(CyclicSetSpec(x, s))
        ok &= ls_length(ls) == sum(_prime_multiset(s))
        # exhaustive product enumeration tracked at point 0; for the canonical
        # s-cycle the image of 0 under x^a is a, so images are the exponents
        images = [0]
        for block in reversed(ls.blocks):
            images = [e.img[p] for e in block for p in images]
        ok &= len(images) == s and sorted(images) == list(range(s))
        # largest representable exponent: all digits maximal
        w, top = 1, 0
        for q in _prime_multiset(s):
            top += (q - 1) * w
            w *= q
        ok &= top == s - 1 < s if s > 1 else top == 0
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(4, ok, elapsed, 10,
           "all s <= 1000: length = prime-multiset sum, products distinct, "
           "max exponent = s-1")


def test_criterion_05_refinement_of_m11_and_m12():
    t0 = time.perf_counter()
    results = []
    ok = True
    for name, chain_len, target in (("M11", 38, 30), ("M12", 50, 37)):
        chain = build_chain(load_group(name))
        base = chain_ls(chain)
        ok &= ls_length(base) == chain_len
        refined = refine_ls(base, chain)
        f = factor_integer(chain.order)
        ok &= ls_length(refined) == target == minimal_length(f)
        ok &= verify_exhaustive(refined, chain).ok
        ok &= is_minimal(refined, f)
        results.append("%s %d->%d" % (name, chain_len, ls_length(refined)))
    elapsed = time.perf_counter() - t0
    report(5, ok, elapsed, 120, ", ".join(results))


def test_criterion_06_sharp_transitivity():
    t0 = time.perf_counter()
    m11 = build_chain(load_group("M11"))
    x = next(g for g in m11.generators.gens if g.order() == 11)
    ok = sharply_transitive_check(
        ProductDecomposition((CyclicSetSpec(x, 11),), level=0), m11)
    for name in ("A5", "S4", "M11", "M12"):
        chain = build_chain(load_group(name))
        ls = chain_ls(chain)
        for block, ann in zip(ls.blocks, ls.provenance.annotations):
            ok &= sharply_transitive_check([block], chain, level=ann.level)
    # rejection oracle: a set with a repeated base-point image can never be
    # sharply transitive; force the repeat with a stabilizer partner
    rng = random.Random(42)
    rejected = 0
    attempts = 0
    while rejected < 50 and attempts < 500:
        attempts += 1
        level = rng.choice((0, 1))
        lv = m11.levels[level]
        sub = m11.subchain(level)
        stab = m11.subchain(level + 1)
        elems = [sub.element_at(rng.randrange(sub.order))
                 for _ in range(len(lv.orbit) - 1)]
        elems.append(elems[0] * stab.element_at(rng.randrange(1, stab.order)))
        if len(set(elems)) != len(elems):
            continue
        if not sharply_transitive_check([tuple(elems)], m11, level=level):
            rejected += 1
    ok &= rejected >= 50
    elapsed = time.perf_counter() - t0
    report(6, ok, elapsed, 5,
           "11-cycle powers and all transversal blocks accepted, "
           "%d repeated-image sets rejected" % rejected)


def test_criterion_07_claim_table(capsys):
    t0 = time.perf_counter()
    code = cli_main(["--json", "table-check"])
    out = capsys.readouterr().out
    import json
    records = {r["group"]: r for r in map(json.loads, out.strip().splitlines())}
    elapsed = time.perf_counter() - t0
    # verdicts frozen from the independent big-integer oracle
    expected = {"Co1": "pass", "Co2": "pass", "Fi22": "pass", "Fi23": "pass",
                "Fi24'": "pass", "Th": "flagged", "HN": "flagged", "B": "pass",
                "M": "flagged", "O'N": "flagged", "Ly": "flagged",
                "J3": "flagged", "J4": "pass"}
    ok = len(records) == 13 and code == 1
    for group, verdict in expected.items():
        ok &= records[group]["verdict"] == verdict
    with capsys.disabled():
        report(7, ok, elapsed, 1,
               "13 rows checked, exit 1; Co1+Co2 pass, J3 flagged "
               "(7 pass / 6 flagged total)")


def test_criterion_08_length_lower_bound():
    t0 = time.perf_counter()
    pool = signature_pool()
    ok = True
    minimal_hits = 0
    for label, ls, order, claims_minimal in pool:
        bound = minimal_length(factor_integer(order))
        ok &= ls_length(ls) >= bound
        if claims_minimal:
            ok &= ls_length(ls) == bound
        minimal_hits += ls_length(ls) == bound
    elapsed = time.perf_counter() - t0
    report(8, ok, elapsed, 5,
           "%d signatures respect the bound; every minimality-claiming one "
           "meets it (%d total at the bound)" % (len(pool), minimal_hits))


def test_criterion_09_factorization():
    t0 = time.perf_counter()
    m12 = build_chain(load_group("M12"))
    ls12 = refine_ls(chain_ls(m12), m12)
    idx12 = TameIndexer(ls12, m12)
    rng = random.Random(9)
    ok = True
    for _ in range(100_000):
        g = m12.element_at(rng.randrange(m12.order))
        digits = factorize_tame(g, idx12)
        ok = ok and reconstruct(ls12, digits) == g
    sizes = [len(b) for b in ls12.blocks]
    for _ in range(100_000):
        digits = tuple(rng.randrange(r) for r in sizes)
        ok = ok and factorize_tame(reconstruct(ls12, digits), idx12) == digits

    m11 = build_chain(load_group("M11"))
    ls11 = refine_ls(chain_ls(m11), m11)
    idx11 = TameIndexer(ls11, m11)
    for _ in range(1000):
        g = m11.element_at(rng.randrange(m11.order))
        ok = ok and factorize_generic(g, ls11) == factorize_tame(g, idx11)

    s4 = build_chain(load_group("S4"))
    ls4 = mls_solvable(s4)
    elements = {reconstruct(ls4, d)
                for d in product(*(range(len(b)) for b in ls4.blocks))}
    ok = ok and len(elements) == 24 and elements == set(s4.elements())
    elapsed = time.perf_counter() - t0
    report(9, ok, elapsed, 30,
           "2x100k tame roundtrips on M12, 1k tame/generic agreements on M11, "
           "exhaustive bijection on S4")


def test_criterion_10_pgm(tmp_path):
    t0 = time.perf_counter()
    m12 = build_chain(load_group("M12"))
    key = keygen(m12, 2024)
    rng = random.Random(10)
    ok = True
    for _ in range(10_000):
        m = rng.randrange(key.message_space)
        ok = ok and decrypt(key, encrypt(key, m)) == m
    s4 = build_chain(load_group("S4"))
    key4 = keygen(s4, 7)
    ok = ok and all(decrypt(key4, encrypt(key4, m)) == m for m in range(24))
    ok = ok and len({encrypt(key4, m) for m in range(24)}) == 24
    p1, p2 = str(tmp_path / "k1.json"), str(tmp_path / "k2.json")
    write_key(keygen(m12, 77), p1)
    write_key(keygen(m12, 77), p2)
    ok = ok and Path(p1).read_bytes() == Path(p2).read_bytes()
    elapsed = time.perf_counter() - t0
    report(10, ok, elapsed, 30,
           "10k roundtrips on M12, exhaustive bijectivity on S4, "
           "byte-identical keys for equal seeds")
