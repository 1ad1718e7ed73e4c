"""Building logarithmic signatures: transversal blocks from stabilizer chains,
minimal signatures for cyclic sets and solvable groups, and the refinement
search that replaces a transversal block by a product of cyclic power sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations
from math import prod

from .arith import factor_integer
from .chain import GeneratorSet, StabilizerChain, build_chain, derived_series
from .perm import _TAIL, Permutation, _images, _order_raw, _products, _raw
from .signature import (BlockAnnotation, LogSignature, Provenance, _join,
                        _level_table)

__all__ = [
    "CyclicSetSpec",
    "ProductDecomposition",
    "CompositionSeries",
    "mls_cyclic",
    "composition_series_solvable",
    "mls_solvable",
    "chain_ls",
    "sharply_transitive_check",
    "refine_block",
    "refine_ls",
    "build_mls",
    "DEFAULT_SEARCH_CAP",
]

DEFAULT_SEARCH_CAP = 50_000


@dataclass(frozen=True)
class CyclicSetSpec:
    """The cyclic set {x^0, x^1, ..., x^(size-1)}; size may be any value up to
    the order of x, so the set need not be a subgroup."""

    generator: Permutation
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("cyclic set size must be >= 1")
        if self.size > self.generator.order():
            raise ValueError("size %d exceeds generator order %d"
                             % (self.size, self.generator.order()))

    def elements(self) -> tuple[Permutation, ...]:
        return _powers(self.generator, self.size)


@dataclass(frozen=True)
class ProductDecomposition:
    """Cyclic sets whose ordered product covers one chain level's coset space."""

    factors: tuple[CyclicSetSpec, ...]
    level: int


@dataclass(frozen=True)
class CompositionSeries:
    """Subnormal series G = S[0] > S[1] > ... > S[m] = 1 with prime indices.

    ``witnesses[i]`` lies in S[i] and its image generates the cyclic quotient
    S[i]/S[i+1] of order ``primes[i]``.
    """

    subgroups: tuple[StabilizerChain, ...]
    witnesses: tuple[Permutation, ...]
    primes: tuple[int, ...]


def _prime_multiset(n: int) -> list[int]:
    out: list[int] = []
    for p, a in factor_integer(n).factors:
        out.extend([p] * a)
    return out


def _powers(x: Permutation, n: int) -> tuple[Permutation, ...]:
    """(x^0, x^1, ..., x^(n-1))."""
    out = [Permutation.identity(x.degree)]
    for _ in range(n - 1):
        out.append(x * out[-1])
    return tuple(out)


def _cyclic_blocks(x: Permutation, size: int):
    """Power blocks realizing the mixed-radix split of {x^0..x^(size-1)}.

    With ascending primes q_1..q_k of ``size`` and weights w_1 = 1,
    w_(t+1) = w_t * q_t, block t holds x^(j*w_t) for j < q_t.  Every exponent
    below ``size`` has a unique digit expansion sum(j_t * w_t), and the
    largest representable exponent is size - 1, so products never wrap.
    Yields (entries, w_t) pairs.
    """
    w = 1
    for q in _prime_multiset(size):
        yield _powers(x ** w, q), w
        w *= q


def mls_cyclic(spec: CyclicSetSpec) -> LogSignature:
    """Minimal-length signature of a cyclic set (empty for size 1).

    Length equals the sum of the prime multiset of the size, the attainable
    minimum for a set of that cardinality.
    """
    blocks = tuple(entries for entries, _ in _cyclic_blocks(spec.generator, spec.size))
    return LogSignature(degree=spec.generator.degree, blocks=blocks,
                        provenance=Provenance("cyclic"))


def chain_ls(chain: StabilizerChain) -> LogSignature:
    """One block per chain level: the full transversal, identity entry first,
    remaining representatives by increasing image point.  Levels with a
    one-point orbit contribute nothing and are skipped."""
    blocks = []
    ann = []
    for i, lv in enumerate(chain.levels):
        if len(lv.orbit) == 1:
            continue
        blocks.append(tuple(lv.transversal[p] for p in lv.orbit))
        ann.append(BlockAnnotation(level=i))
    return LogSignature(degree=chain.degree, blocks=tuple(blocks),
                        group=chain.name,
                        provenance=Provenance("chain", tuple(ann)))


def sharply_transitive_check(decomp, chain: StabilizerChain,
                             level: int | None = None) -> bool:
    """Whether a product of element sets hits each orbit point exactly once.

    ``decomp`` is either a :class:`ProductDecomposition` (which carries its
    level) or a plain sequence of element sets plus an explicit ``level``.
    Accepts iff the keys of the structural walk's level table, the images
    (a_1 * ... * a_m)(b) of the base point over the product set (rightmost
    factor first), are exactly the level orbit; as many products as points
    leave no room for repeats.  The sets need not lie in the level group.
    """
    if isinstance(decomp, ProductDecomposition):
        if level is None:
            level = decomp.level
        sets = [f.elements() for f in decomp.factors]
    else:
        if level is None:
            raise ValueError("plain element sets need an explicit level")
        sets = [tuple(s) for s in decomp]
    lv = chain.levels[level]
    count = prod(map(len, sets))
    if count != len(lv.orbit):
        raise ValueError("product of set sizes %d != orbit size %d"
                         % (count, len(lv.orbit)))
    return _level_table(sets, lv.point, chain.degree).keys() == set(lv.orbit)


def _size_trials(primes: list[int]) -> list[tuple[int, ...]]:
    """Cyclic-set size tuples to try: every multiset grouping of the primes,
    fewest sets first, each in ascending size order; the non-ascending
    orderings follow as a second pass."""
    groupings: set[tuple[int, ...]] = {()}
    for x in primes:
        # x joins one part of a grouping of the primes before it, or is a
        # part of its own
        groupings = ({tuple(sorted(g[:i] + (g[i] * x,) + g[i + 1:]))
                      for g in groupings for i in range(len(g))}
                     | {tuple(sorted(g + (x,))) for g in groupings})
    ordered = sorted(groupings, key=lambda t: (len(t), t))
    trials = list(ordered)
    for g in ordered:
        trials.extend(sorted(set(permutations(g)) - {g}))
    return trials


class _Candidates:
    """One lazy pool of level-group elements and their orders, read by
    walks of every set size; its walks do all of the search's node
    accounting.

    The pool is the first ``10 * cap`` products of the inverse transversals,
    the level's own varying fastest, so consecutive elements stride over the
    cosets of its point stabilizer: the r-th is ``element_at(i).inverse()``,
    where i has r's digits with the level's digit least significant.  An
    element is read, and its order computed, only when some walk has run
    past every element read so far.  A size's candidates are the elements
    whose order it divides.  Their positions are kept per size, with the
    first position not yet scanned for it, so no position is scanned twice
    for one size.
    """

    def __init__(self, group: StabilizerChain, cap: int):
        inverses = [[lv.table[p][1] for p in lv.orbit] for lv in reversed(group.levels)]
        self._elements = islice(_products(inverses, group._identity), 10 * cap)
        self._pool: list = []
        self._orders: list[int] = []
        self._hits: dict[int, list[int]] = {}  # size -> its candidates' positions
        self._scanned: dict[int, int] = {}  # size -> first position not scanned
        self._cap = cap

    def walk(self, size: int, left: list):
        """The first ``cap`` candidates of ``size`` in pool order, or as many
        as the pool holds, charged to the budget ``left[0]``.

        This is where the search's nodes are counted.  Every pool position
        a walk passes is one node, whether it holds a candidate or not, and
        a candidate is charged together with the positions before it in
        one subtraction.  A walk that reaches a position with no node left
        raises :class:`_OutOfBudget` there, after reading it.  So it reads
        the pool exactly as far as a walk that reads and charges one
        position per step, and computes no other order.  The budget is
        read again for each candidate, since the nested walks of a trial
        share it."""
        pool, orders, scanned = self._pool, self._orders, self._scanned
        hits = self._hits.setdefault(size, [])
        pos = 0  # the first position this walk has not passed
        for k in range(self._cap):
            horizon = pos + left[0]  # the position reached with no node left
            if k == len(hits):
                # every candidate among the orders computed so far, then
                # the next one up to the horizon, reading on one at a time
                i = scanned.get(size, 0)
                if i < len(orders):
                    hits += [j for j in range(i, len(orders)) if not orders[j] % size]
                    i = len(orders)
                if k == len(hits) and i <= horizon:
                    for raw in islice(self._elements, horizon + 1 - i):
                        o = _order_raw(raw)
                        pool.append(raw)
                        orders.append(o)
                        i += 1
                        if not o % size:
                            hits.append(i - 1)
                            break
                scanned[size] = i
                if k == len(hits):  # no candidate up to the horizon
                    if i > horizon:
                        left[0] = 0
                        raise _OutOfBudget
                    left[0] = horizon - i  # the pool ends at i
                    return
            p = hits[k]
            if p >= horizon:
                left[0] = 0
                raise _OutOfBudget
            left[0] = horizon - p - 1
            pos = p + 1
            yield pool[p]


_FIRST_PASS_NODES = 1_000  # nodes a size trial may visit in the first pass
_SEARCH_NODES = 4_000_000  # no pass starts once this many have been visited


class _OutOfBudget(Exception):
    """A size trial wanted to read more pool positions than its pass allows."""


def _cover_search(walk, sizes, pos: int, images, osize: int, left: list):
    """Raw generators of cyclic sets of ``sizes[:pos + 1]`` whose product
    extends ``images`` to a cover of the orbit, or None.

    ``walk(size, left)`` yields the candidates of a size and charges the
    nodes (:meth:`_Candidates.walk`, where node accounting lives):
    ``left[0]`` holds the nodes the trial may still visit, and the walk
    raises :class:`_OutOfBudget` at the node past them.  A candidate x
    extends ``images`` by their images under x, x^2, ..., x^(size - 1),
    and is dropped at the first power whose images meet earlier ones.
    Choices are appended as the calls return, so they come in block order.
    """
    if pos < 0:
        return [] if len(images) == osize else None
    size = sizes[pos]
    steps = range(size - 1)
    points = set(images)
    for x in walk(size, left):
        table = x + _TAIL[len(x):] if type(x) is bytes else None
        cur, parts, seen = images, [images], points
        for _ in steps:
            # a power maps the distinct images to distinct points, so they
            # repeat nothing iff they miss every earlier power's
            cur = _images(x, cur) if table is None else cur.translate(table)
            if not seen.isdisjoint(cur):
                break
            parts.append(cur)
            seen = seen.union(cur)
        else:
            found = _cover_search(walk, sizes, pos - 1, _join(parts, type(images)),
                                  osize, left)
            if found is not None:
                found.append(x)
                return found
    return None


def refine_block(chain: StabilizerChain, level: int,
                 cap: int = DEFAULT_SEARCH_CAP) -> ProductDecomposition | None:
    """Search the level group for cyclic sets whose product covers the orbit.

    The set sizes group the prime multiset of the orbit size, in
    :func:`_size_trials` order.  The candidates of a size are the first
    ``cap`` elements whose order the size divides among the first ``10 *
    cap`` elements of the level group in :class:`_Candidates`' coset-
    striding order; a cap below 1 raises ValueError.  A node is one pool
    element a walk passes, whether the size divides its order or not, so a
    trial's budget bounds its pool reads; :meth:`_Candidates.walk` counts
    them.  The trials run in passes: in the
    first, each may visit 1,000 nodes, and each pass doubles that.
    A trial that finishes without a cover is dropped, and the first cover
    found wins.  None, a legitimate outcome, means every trial finished
    without a cover, or the pass in which the nodes visited reached
    4,000,000 ended without one.
    """
    if cap < 1:
        raise ValueError("search cap must be at least 1, got %d" % cap)
    lv = chain.levels[level]
    osize = len(lv.orbit)
    trials = _size_trials(_prime_multiset(osize))
    cands = _Candidates(chain.subchain(level), cap)
    start = _raw((lv.point,), chain.degree)
    budget, nodes = _FIRST_PASS_NODES, 0
    while trials and nodes < _SEARCH_NODES:
        running = []
        for sizes in trials:
            left = [budget]
            try:
                got = _cover_search(cands.walk, sizes, len(sizes) - 1, start,
                                    osize, left)
            except _OutOfBudget:
                running.append(sizes)
                got = None
            nodes += budget - left[0]
            if got is not None:
                decomp = ProductDecomposition(tuple(
                    CyclicSetSpec(Permutation._wrap(x), s) for x, s in zip(got, sizes)), level)
                if not sharply_transitive_check(decomp, chain):
                    raise AssertionError("search returned a non-transitive cover")
                return decomp
        trials = running
        budget *= 2
    return None


def refine_ls(ls: LogSignature, chain: StabilizerChain,
              cap: int = DEFAULT_SEARCH_CAP) -> LogSignature:
    """Replace each composite transversal block by cyclic power blocks.

    Blocks whose size is prime (or 1) are kept.  A block whose level search
    (:func:`refine_block`) finds no cover within ``cap`` and its node budget
    is kept as well and remains recognizable in the result's annotations as
    a full-size level block; the result then verifies but is not minimal.
    When every composite block refines, the result meets the minimal-length
    bound.
    """
    if ls.provenance.tag != "chain" or ls.provenance.annotations is None:
        raise ValueError("refinement needs a chain-provenance signature "
                         "with level annotations")
    blocks: list[tuple[Permutation, ...]] = []
    ann: list[BlockAnnotation] = []
    for block, a in zip(ls.blocks, ls.provenance.annotations):
        decomp = None
        if len(_prime_multiset(len(block))) > 1:
            decomp = refine_block(chain, a.level, cap=cap)
        if decomp is None:
            blocks.append(block)
            ann.append(BlockAnnotation(level=a.level))
            continue
        for f in decomp.factors:
            for entries, w in _cyclic_blocks(f.generator, f.size):
                blocks.append(entries)
                ann.append(BlockAnnotation(level=a.level, set_size=f.size, step=w))
    return LogSignature(degree=ls.degree, blocks=tuple(blocks), group=ls.group,
                        provenance=Provenance("refined", tuple(ann)))


def composition_series_solvable(chain: StabilizerChain) -> CompositionSeries:
    """Prime-step refinement of the derived series of a solvable group.

    Each abelian layer is split one prime at a time: take the first listed
    generator of the layer top that is outside the current subgroup, compute
    the order o of its image, and adjoin its (o/p)-th power for the largest
    prime p of o.  Splitting largest-first while ascending makes the primes
    come out ascending when the series is read from the top.  Raises
    ValueError for a group that is not solvable.
    """
    return _composition_series(chain, derived_series(chain))


def _composition_series(chain: StabilizerChain,
                        series: list[StabilizerChain]) -> CompositionSeries:
    """:func:`composition_series_solvable` given the chain's derived series."""
    if series[-1].order > 1:
        raise ValueError("group is not solvable")
    degree = chain.degree
    subgroups: list[StabilizerChain] = [chain]
    witnesses: list[Permutation] = []
    primes: list[int] = []
    for top, bottom in zip(series, series[1:]):
        cur = bottom
        cur_gens = [g for g in bottom.generators.gens if not g.is_identity()]
        steps = []  # (witness, prime, chain below the step)
        while cur.order < top.order:
            t = next(g for g in top.generators.gens if not cur.contains(g))
            # {d : t^d in cur} is d0*Z with d0 | order(t); dividing primes
            # out of the order while the power stays in cur ends at d0
            o = t.order()
            for q in dict.fromkeys(_prime_multiset(o)):
                while o % q == 0 and cur.contains(t ** (o // q)):
                    o //= q
            p = max(_prime_multiset(o))
            u = t ** (o // p)
            below = cur
            cur_gens.append(u)
            cur = build_chain(GeneratorSet(degree, tuple(cur_gens)))
            if cur.order != below.order * p:
                raise AssertionError("abelian layer step did not have prime index")
            steps.append((u, p, below))
        for u, p, below in reversed(steps):
            witnesses.append(u)
            primes.append(p)
            subgroups.append(below)
    return CompositionSeries(tuple(subgroups), tuple(witnesses), tuple(primes))


def mls_solvable(chain: StabilizerChain) -> LogSignature:
    """Minimal signature of a solvable group: one cyclic transversal
    [t^0, ..., t^(q-1)] per composition step, outermost step first."""
    return _series_ls(chain, composition_series_solvable(chain))


def _series_ls(chain: StabilizerChain, series: CompositionSeries) -> LogSignature:
    blocks = tuple(_powers(t, q) for t, q in zip(series.witnesses, series.primes))
    return LogSignature(degree=chain.degree, blocks=blocks,
                        group=chain.name, provenance=Provenance("solvable"))


def build_mls(chain: StabilizerChain, cap: int = DEFAULT_SEARCH_CAP) -> LogSignature:
    """Best-effort minimal signature: solvable groups via their composition
    series, everything else via transversal blocks plus refinement."""
    if chain.order == 1:
        return LogSignature(degree=chain.degree, blocks=(), group=chain.name,
                            provenance=Provenance("chain", ()))
    series = derived_series(chain)
    if series[-1].order == 1:
        return _series_ls(chain, _composition_series(chain, series))
    return refine_ls(chain_ls(chain), chain, cap=cap)
