import gc
import random
import time
from itertools import count, islice

import pytest
from hypothesis import given, settings, strategies as st

import logsig.chain
import logsig.construct
from logsig import (CyclicSetSpec, GeneratorSet, Permutation,
                    ProductDecomposition, build_chain, build_mls, chain_ls,
                    composition_series_solvable, factor_integer, is_minimal,
                    load_group, load_verified_chain, ls_length, minimal_length,
                    mls_cyclic, mls_solvable, parse_cycles, refine_block,
                    refine_ls, sharply_transitive_check, verify_exhaustive,
                    verify_structural)
from logsig.construct import (DEFAULT_SEARCH_CAP, _Candidates, _cover_search,
                              _prime_multiset, _size_trials)
from logsig.perm import _order_raw, _products
from logsig.signature import DEFAULT_BUDGET


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


def a5_fixing_its_first_base_point():
    """A5 on six points, the point 6 it fixes hinted as the first base point."""
    gens = (parse_cycles("(1,2,3)", 6), parse_cycles("(1,2,3,4,5)", 6))
    return build_chain(GeneratorSet(6, gens), base_hint=[5])


def test_chain_ls_skips_a_fixed_hint_point():
    chain = a5_fixing_its_first_base_point()
    assert len(chain.levels[0].orbit) == 1 and chain.order == 60
    ls = chain_ls(chain)
    assert ls.block_sizes == (5, 4, 3)
    assert [a.level for a in ls.provenance.annotations] == [1, 2, 3]
    assert verify_exhaustive(ls, chain).ok
    assert verify_structural(ls, chain).ok


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


def test_sets_outside_the_level_group_judged_by_images(m11):
    # each level-1 transversal entry times a transposition fixing the level's
    # base point keeps its image of that point but is odd, so it lies outside
    # M11 (a subgroup of A11); only the images decide the verdict
    lv = m11.levels[1]
    a, b = [p for p in range(11) if p != lv.point][:2]
    t = Permutation([b if p == a else a if p == b else p for p in range(11)])
    block = tuple(lv.transversal[p] * t for p in lv.orbit)
    assert not any(m11.contains(e) for e in block)
    assert sharply_transitive_check([block], m11, level=1)


def test_size_mismatch_raises(m11):
    x = next(g for g in m11.generators.gens if g.order() == 11)
    with pytest.raises(ValueError):
        sharply_transitive_check([(x,)], m11, level=0)


def test_plain_sets_need_a_level(m11):
    with pytest.raises(ValueError, match="explicit level"):
        sharply_transitive_check([chain_ls(m11).blocks[0]], m11)


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


def test_refine_block_rejects_cap_0(m11):
    with pytest.raises(ValueError, match="at least 1"):
        refine_block(m11, 1, cap=0)


@pytest.mark.parametrize("case", ["s4-hint-0123", "a5-hint-6"])
def test_refine_block_one_point_level_is_empty(s4, case):
    # a one-point level is covered by the empty product, whatever the cap
    if case == "s4-hint-0123":
        chain, level = build_chain(s4.generators, base_hint=[0, 1, 2, 3]), 3
    else:
        chain, level = a5_fixing_its_first_base_point(), 0
    assert len(chain.levels[level].orbit) == 1
    assert refine_block(chain, level, cap=1) == ProductDecomposition((), level)


def test_refine_block_m24_level_0_within_budget(m24):
    # in chain-index order the first 10,000 elements all fix the base point,
    # so no cover could start from them; coset-striding candidates find one
    t0 = time.perf_counter()
    decomp = refine_block(m24, 0, cap=1000)
    elapsed = time.perf_counter() - t0
    assert decomp is not None
    assert tuple(f.size for f in decomp.factors) == (12, 2)
    assert elapsed < 0.5, "M24 level 0 took %.2fs" % elapsed


@pytest.mark.parametrize("name", ["M12", "M24"])
def test_refine_block_pool_reads_stay_within_the_budget(monkeypatch, name):
    # 12 (M12) and 24 (M24) divide no element order; their trials' walks
    # are charged for each element they read, so they run out of nodes
    # instead of reading the whole pool (95,040 and 500,000 elements)
    reads = []

    def counted(raw):
        reads.append(raw)
        return _order_raw(raw)

    monkeypatch.setattr(logsig.construct, "_order_raw", counted)
    assert refine_block(load_verified_chain(name), 0) is not None
    assert len(reads) < 10_000, len(reads)


def coset_striding_pool(chain, cap):
    """The first ``10 * cap`` elements of the chain's group, as image tuples,
    in the order the candidates are drawn: the r-th is ``element_at(i)``
    inverted, where i has r's digits with level 0 least significant."""
    radices = [len(lv.orbit) for lv in chain.levels]
    for r in range(min(10 * cap, chain.order)):
        digits = []
        for n in radices:
            r, d = divmod(r, n)
            digits.append(d)
        i = 0
        for d, n in zip(digits, radices):
            i = i * n + d
        yield tuple(chain.element_at(i).inverse().img)


def full_scan(pool, size, cap):
    """A walk's yields over an eagerly read pool of ``(element, order)``
    pairs: per position, the element if ``size`` divides its order and None
    if not, up to ``cap`` elements."""
    out, taken = [], 0
    for x, o in pool:
        if taken == cap:
            break
        out.append(None if o % size else x)
        taken += o % size == 0
    return out


@pytest.mark.parametrize("cap", [1, 7, 2000])
def test_candidate_walks_match_a_full_scan(m12, cap):
    # walks of one size and of others run interleaved, as the search's nested
    # positions run them; each still yields the full scan's candidates and
    # is charged one node per position the scan reads
    sizes = (2, 3, 4, 6, 12)
    pool = [(bytes(x), Permutation(x).order()) for x in coset_striding_pool(m12, cap)]
    expect = {s: full_scan(pool, s, cap) for s in sizes}
    first = [x for x in expect[2] if x is not None]
    assert first == [x for x, o in pool if o % 2 == 0][:cap] and len(first) == cap
    assert expect[12] == [None] * len(pool)  # M12 has no order 12
    cands = _Candidates(m12, cap)
    walks = [(s, [10 ** 9], []) for s in sizes for _ in range(3)]
    walks = [(s, cands.walk(s, left), left, got) for s, left, got in walks]
    rng = random.Random(cap)
    while walks:
        i = rng.randrange(len(walks))
        s, walk, left, got = walks[i]
        x = next(walk, StopIteration)
        if x is StopIteration:
            assert got == [x for x in expect[s] if x is not None], (s, len(got))
            assert 10 ** 9 - left[0] == len(expect[s])
            walks.pop(i)
        else:
            got.append(x)


class OneNodeCandidates:
    """The candidate pool as it was read one position per step, kept as the
    reference for :meth:`_Candidates.walk`: the same lazy pool of
    ``(element, order)`` pairs, and a walk that reads one position, grows
    the pool by it if need be, charges it one node and yields it if it is
    a candidate.  It raises at a position read with no node left, and
    stops after ``cap`` candidates or at the end of the pool."""

    def __init__(self, group, cap):
        inverses = [[lv.table[p][1] for p in lv.orbit] for lv in reversed(group.levels)]
        self._elements = islice(_products(inverses, group._identity), 10 * cap)
        self._pool = []
        self._cap = cap

    def walk(self, size, left):
        pool, taken = self._pool, 0
        for i in count():
            if i == len(pool):
                raw = next(self._elements, None)
                if raw is None:
                    return
                pool.append((raw, _order_raw(raw)))
            if not left[0]:
                raise logsig.construct._OutOfBudget
            left[0] -= 1
            raw, o = pool[i]
            if o % size:
                continue
            yield raw
            taken += 1
            if taken == self._cap:
                return


def drive_walks(cands, sizes, budgets, seed):
    """Walk ``cands`` as the search does, in random steps: one trial per
    budget, whose nested walks of random sizes share the budget; a step
    may start a new walk, up to three at a time, and reads the next
    candidate of a random walk of the trial.  The trial ends out of budget
    or when its walks are exhausted.  Returns each step's outcome with the
    nodes left and the pool length after it."""
    rng = random.Random(seed)
    out = []
    for budget in budgets:
        left, walks = [budget], []
        while True:
            if not walks or len(walks) < 3 and rng.random() < 0.2:
                walks.append(cands.walk(rng.choice(sizes), left))
            i = rng.randrange(len(walks))
            try:
                step = next(walks[i], "exhausted")
            except logsig.construct._OutOfBudget:
                out.append(("out of budget", left[0], len(cands._pool)))
                break
            out.append((step, left[0], len(cands._pool)))
            if step == "exhausted":
                walks.pop(i)
                if not walks:
                    break
    return out


@pytest.mark.parametrize("name, level, cap, sizes", [
    ("M12", 0, 1, (2, 3, 4, 12)),        # a pool of 10, shorter than the budgets
    ("M12", 0, 7, (2, 3, 4, 6, 12)),     # 12 divides no element order of M12
    ("M12", 0, 2000, (2, 3, 4, 6, 11, 12)),
    ("M22", 0, 1000, (2, 11, 22)),        # nor does 22 any of M22
    ("M24", 3, 1, (3, 7, 21)),
    ("D300", 0, 50, (2, 3, 5, 150)),      # tuple images
])
def test_candidate_walks_match_the_one_node_walk(name, level, cap, sizes):
    # the walk that skips to candidates yields the same elements, charges the
    # same nodes, ends the same way and leaves the pool just as long, so it
    # computes no order the one-node walk would not
    group = load_verified_chain(name).subchain(level)
    budgets = [0, 1, 3, 10, 57, 1000, 30_000]
    got = drive_walks(_Candidates(group, cap), sizes, budgets, seed=cap)
    expect = drive_walks(OneNodeCandidates(group, cap), sizes, budgets, seed=cap)
    assert got == expect
    outcomes = {step[0] for step in got}
    assert "out of budget" in outcomes and "exhausted" in outcomes


@pytest.mark.parametrize("name, level, cap", [
    ("M11", 1, DEFAULT_SEARCH_CAP), ("M12", 2, DEFAULT_SEARCH_CAP),
    ("M22", 0, 1000), ("M24", 0, 1000), ("M24", 3, 1), ("D300", 0, 10),
])
def test_refine_block_with_the_one_node_walk(monkeypatch, name, level, cap):
    # the whole search, trial by trial, and the pool it reads are the same
    # with the reference walk in place of the new one
    chain = load_verified_chain(name)
    runs = []
    for cls in (_Candidates, OneNodeCandidates):
        made = []

        def kept(group, cap, cls=cls, made=made):
            made.append(cls(group, cap))
            return made[-1]

        monkeypatch.setattr(logsig.construct, "_Candidates", kept)
        decomp, trace = trace_trials(monkeypatch, chain, level, cap)
        monkeypatch.undo()
        runs.append((decomp, trace, [len(c._pool) for c in made]))
    assert runs[0] == runs[1]


class OutOfBudget(Exception):
    pass


def refine_reference(chain, level, cap=DEFAULT_SEARCH_CAP):
    """refine_block's search written out eagerly: the whole coset-striding
    pool is built from the element_at formula before the search starts,
    each size's walk over it is a :func:`full_scan`, every position a walk
    reads is a node, and each size trial runs in passes of 1,000, 2,000,
    ... nodes until one finds a cover, all are exhausted or a pass ends with
    4,000,000 nodes visited.  Returns the winning ``(sizes, generators)`` or
    None."""
    point, osize = chain.levels[level].point, len(chain.levels[level].orbit)
    trials = _size_trials(_prime_multiset(osize))
    pool = [(x, Permutation(x).order()) for x in coset_striding_pool(chain.subchain(level), cap)]
    walks = {size: full_scan(pool, size, cap) for trial in trials for size in trial}

    def rec(sizes, pos, images, left):
        if pos < 0:
            return [] if len(images) == osize else None
        for x in walks[sizes[pos]]:
            if left[0] == 0:
                raise OutOfBudget
            left[0] -= 1
            if x is None:
                continue
            new = list(images)
            cur = images
            for _ in range(sizes[pos] - 1):
                cur = [x[p] for p in cur]
                new.extend(cur)
            if len(set(new)) != len(new):
                continue
            found = rec(sizes, pos - 1, new, left)
            if found is not None:
                return found + [x]
        return None

    budget, nodes = 1000, 0
    while trials and nodes < 4_000_000:
        unfinished = []
        for sizes in trials:
            left = [budget]
            try:
                got = rec(sizes, len(sizes) - 1, [point], left)
            except OutOfBudget:
                unfinished.append(sizes)
                got = None
            nodes += budget - left[0]
            if got is not None:
                return sizes, tuple(map(Permutation, got))
        trials = unfinished
        budget *= 2
    return None


def test_refine_block_matches_unpruned_reference():
    outcomes = {}
    # D300's degree is above 256, so its images are tuples, not bytes
    for name in ("M11", "M12", "A5", "S5", "PSL(2,7)", "PSL(2,11)", "Q8", "D300"):
        chain = load_verified_chain(name)
        for level, lv in enumerate(chain.levels):
            if len(_prime_multiset(len(lv.orbit))) < 2:
                continue
            for cap in (1, 3, 10, 100, DEFAULT_SEARCH_CAP):
                decomp = refine_block(chain, level, cap=cap)
                got = None if decomp is None else (
                    tuple(f.size for f in decomp.factors),
                    tuple(f.generator for f in decomp.factors))
                expect = refine_reference(chain, level, cap)
                assert got == expect, (name, level, cap)
                outcomes[name, level, cap] = expect
    # the cases include searches that exhaust every trial and searches won
    # only by a non-ascending ordering, after the ascending one failed
    assert list(outcomes.values()).count(None) == 10
    for name, level in (("M11", 1), ("M12", 2)):
        assert outcomes[name, level, DEFAULT_SEARCH_CAP][0] == (5, 2)
    # here the nodes charged for pool elements that are not candidates
    # decide the winner: (6, 8) runs out of budget and (24, 2) wins
    chain = psl2(47)
    decomp = refine_block(chain, 0, cap=100)
    got = (tuple(f.size for f in decomp.factors), tuple(f.generator for f in decomp.factors))
    assert got == refine_reference(chain, 0, 100) and got[0] == (24, 2)


def trace_trials(monkeypatch, chain, level, cap):
    """refine_block's result and, for each size trial's top-level search in
    run order, its sizes, the nodes its pass allowed, its outcome and the
    nodes (pool elements its walks read) it visited."""
    search = logsig.construct._cover_search
    trace = []

    def traced(walk, sizes, pos, images, osize, left):
        if pos < len(sizes) - 1:
            return search(walk, sizes, pos, images, osize, left)
        start = left[0]
        try:
            got = search(walk, sizes, pos, images, osize, left)
        except logsig.construct._OutOfBudget:
            trace.append((sizes, start, "out of budget", start - left[0]))
            raise
        trace.append((sizes, start, "exhausted" if got is None else "found",
                      start - left[0]))
        return got

    monkeypatch.setattr(logsig.construct, "_cover_search", traced)
    return refine_block(chain, level, cap=cap), trace


def test_refine_block_trial_schedule(monkeypatch, m22):
    # 22 divides no element order of M22, so (22,) reads 1,000 elements and
    # yields none of them
    decomp, trace = trace_trials(monkeypatch, m22, 0, 1000)
    assert tuple(f.size for f in decomp.factors) == (11, 2)
    assert trace == [((22,), 1000, "out of budget", 1000),
                     ((2, 11), 1000, "out of budget", 1000),
                     ((11, 2), 1000, "found", 23)]


def test_refine_block_budget_doubles_each_pass(monkeypatch, m22):
    # the trials still running get twice the nodes in each pass
    monkeypatch.setattr(logsig.construct, "_FIRST_PASS_NODES", 1)
    decomp, trace = trace_trials(monkeypatch, m22, 0, 1000)
    assert tuple(f.size for f in decomp.factors) == (11, 2)
    running = [(22,), (2, 11), (11, 2)]
    assert [t[:3] for t in trace] == (
        [(sizes, budget, "out of budget") for budget in (1, 2, 4, 8, 16) for sizes in running]
        + [((22,), 32, "out of budget"), ((2, 11), 32, "out of budget"), ((11, 2), 32, "found")])


def test_refine_block_drops_an_exhausted_trial(monkeypatch, m24):
    # on M24 level 3 at cap 1 (a pool of 10 elements), (21,) and (3, 7)
    # finish in the pass of 16 nodes and only (7, 3) runs on, until it is
    # exhausted too
    monkeypatch.setattr(logsig.construct, "_FIRST_PASS_NODES", 4)
    decomp, trace = trace_trials(monkeypatch, m24, 3, 1)
    assert decomp is None
    running = [(21,), (3, 7), (7, 3)]
    assert [t[:3] for t in trace] == (
        [(sizes, budget, "out of budget") for budget in (4, 8) for sizes in running]
        + [((21,), 16, "exhausted"), ((3, 7), 16, "exhausted"),
           ((7, 3), 16, "out of budget"), ((7, 3), 32, "exhausted")])


def test_refine_ls_keeps_blocks_when_out_of_budget(monkeypatch, m11):
    # one node per trial and one pass: no composite level can be covered
    monkeypatch.setattr(logsig.construct, "_FIRST_PASS_NODES", 1)
    monkeypatch.setattr(logsig.construct, "_SEARCH_NODES", 1)
    ls = chain_ls(m11)
    refined = refine_ls(ls, m11)
    assert refined.blocks == ls.blocks
    assert [a.set_size for a in refined.provenance.annotations] == [None] * 4
    assert verify_exhaustive(refined, m11).ok
    assert verify_structural(refined, m11).ok


NON_SOLVABLE = (["A%d" % n for n in range(5, 13)] + ["S%d" % n for n in range(5, 13)]
                + ["PSL(2,7)", "PSL(2,11)", "M11", "M12", "M22", "M24"])


def test_build_mls_reaches_the_bound_on_every_non_solvable_group():
    chains = {name: load_verified_chain(name) for name in NON_SOLVABLE}
    t0 = time.perf_counter()
    built = {name: build_mls(chain, cap=1000) for name, chain in chains.items()}
    elapsed = time.perf_counter() - t0
    for name, ls in built.items():
        chain = chains[name]
        assert ls.provenance.tag == "refined", name
        assert ls_length(ls) == minimal_length(factor_integer(chain.order)), name
        assert verify_structural(ls, chain).ok, name
    assert elapsed < 10, "22 groups took %.2fs" % elapsed


def psl2(p):
    """PSL(2,p) on the projective line: points 0..p-1 are the residues and
    point p is infinity, generated by x -> x+1 and x -> -1/x."""
    shift = Permutation([(x + 1) % p for x in range(p)] + [p])
    flip = Permutation([p] + [-pow(x, -1, p) % p for x in range(1, p)] + [0])
    return build_chain(GeneratorSet(p + 1, (shift, flip)))


PRIMES_TO_101 = [p for p in range(5, 102) if all(p % q for q in range(2, p))]


@pytest.fixture(scope="module")
def census():
    """The census groups' chains, their signatures from ``build_mls`` at the
    default cap, and the seconds the 47 builds took."""
    chains = {name: load_verified_chain(name) for name in NON_SOLVABLE}
    chains["M23"] = load_verified_chain("M24").subchain(1)
    # ad-hoc builds keyed apart from the catalog's PSL(2,7) and PSL(2,11)
    chains.update(("psl2(%d)" % p, psl2(p)) for p in PRIMES_TO_101)
    assert chains["M23"].order == 10_200_960 and chains["psl2(101)"].order == 515_100
    assert len(chains) == 47
    t0 = time.perf_counter()
    built = {name: build_mls(chain) for name, chain in chains.items()}
    return chains, built, time.perf_counter() - t0


def test_census_reaches_the_bound_at_the_default_cap(census):
    chains, built, elapsed = census
    for name, ls in built.items():
        chain = chains[name]
        assert ls_length(ls) == minimal_length(factor_integer(chain.order)), name
        assert verify_structural(ls, chain).ok, name
    # under 1 s on a 2-CPU x86-64 machine; reading whole pools took ~25 s
    assert elapsed < 10, "%d groups took %.2fs" % (len(chains), elapsed)


def test_census_oracles_agree_within_the_budget(census):
    # every census group whose order is within the exhaustive budget: all
    # but A11, A12, S11, S12, M23 and M24
    chains, built, _ = census
    within = [name for name, chain in chains.items() if chain.order <= DEFAULT_BUDGET]
    assert len(within) == 41
    t0 = time.perf_counter()
    for name in within:
        chain, ls = chains[name], built[name]
        exhaustive = verify_exhaustive(ls, chain)
        assert exhaustive.ok == verify_structural(ls, chain).ok, name
        assert exhaustive.products_checked == chain.order, name
    # ~0.09 s on a 2-CPU x86-64 machine, where classes keyed by b0's image
    # alone took ~2.9 s
    assert time.perf_counter() - t0 < 1


def test_refine_block_leaves_no_cyclic_garbage(m11):
    # a call's search state is freed by reference counting when it returns,
    # so the cyclic collector finds nothing of it
    refine_block(m11, 1)  # warm-up: whatever is built once and kept is not garbage
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        refine_block(m11, 1)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


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


@pytest.mark.parametrize("name", ["SL(2,3)", "S4", "D300"])
def test_build_mls_computes_one_derived_series(monkeypatch, name):
    chain = load_verified_chain(name)
    derived_series = logsig.chain.derived_series
    calls = []

    def counted(c):
        calls.append(c)
        return derived_series(c)

    # is_solvable reads the name in logsig.chain
    for module in (logsig.chain, logsig.construct):
        monkeypatch.setattr(module, "derived_series", counted)
    ls = build_mls(chain)
    assert calls == [chain]
    assert ls.provenance.tag == "solvable"


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
