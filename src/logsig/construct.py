"""Building logarithmic signatures: transversal blocks from stabilizer chains,
minimal signatures for cyclic sets and solvable groups, and the refinement
search that replaces a transversal block by a product of cyclic power sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import prod

from .arith import factor_integer
from .chain import GeneratorSet, StabilizerChain, build_chain, derived_series, is_solvable
from .perm import Permutation, _order_raw
from .signature import BlockAnnotation, LogSignature, Provenance, _cover_fault

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

    def __len__(self) -> int:
        return len(self.primes)


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
    Yields (entries, q_t, w_t) triples.
    """
    w = 1
    for q in _prime_multiset(size):
        yield _powers(x ** w, q), q, w
        w *= q


def mls_cyclic(spec: CyclicSetSpec) -> LogSignature:
    """Minimal-length signature of a cyclic set (empty for size 1).

    Length equals the sum of the prime multiset of the size, the attainable
    minimum for a set of that cardinality.
    """
    blocks = tuple(entries for entries, _, _ in _cyclic_blocks(spec.generator, spec.size))
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
    Expands the multiset {(a_1 * ... * a_m)(b)} of base-point images over the
    product set, the rightmost factor acting first, and accepts iff there
    are no repeats and the images are exactly the level orbit.
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
    if prod(len(s) for s in sets) != len(lv.orbit):
        raise ValueError("product of set sizes %d != orbit size %d"
                         % (prod(len(s) for s in sets), len(lv.orbit)))
    return _cover_fault([[e.img for e in s] for s in sets], lv.point, lv.orbit,
                        chain.degree) is None


def _size_trials(primes: list[int]) -> list[tuple[int, ...]]:
    """Cyclic-set size tuples to try: every multiset grouping of the primes,
    fewest sets first, each in ascending size order; the non-ascending
    orderings follow as a second pass."""
    groupings: set[tuple[int, ...]] = set()

    def rec(rest, parts):
        if not rest:
            groupings.add(tuple(sorted(parts)))
            return
        x, rest2 = rest[0], rest[1:]
        seen = set()
        for i, part in enumerate(parts):
            if part in seen:
                continue
            seen.add(part)
            rec(rest2, parts[:i] + [part * x] + parts[i + 1:])
        rec(rest2, parts + [x])

    rec(primes, [])
    ordered = sorted(groupings, key=lambda t: (len(t), t))
    trials = list(ordered)
    for g in ordered:
        trials.extend(sorted(set(permutations(g)) - {g}))
    return trials


def refine_block(chain: StabilizerChain, level: int,
                 cap: int = DEFAULT_SEARCH_CAP) -> ProductDecomposition | None:
    """Search the level group for cyclic sets whose product covers the orbit.

    The set sizes group the prime multiset of the orbit size.  A single
    cyclic set of full orbit size is tried first, then two sets, three sets
    and so on, each grouping in ascending size order; the other orderings of
    every grouping follow.  Candidates are drawn in element-index order and
    filtered to elements whose order the set size divides, at most ``cap``
    candidates per size; a cap below 1 raises ValueError.  Returning None
    means the search space was exhausted without a cover, which is a
    legitimate outcome.

    Candidate tuples may be partitioned and scanned in parallel as long as
    the selected tuple is still the first success in this deterministic
    order; this implementation scans sequentially.
    """
    if cap < 1:
        raise ValueError("search cap must be at least 1, got %d" % cap)
    lv = chain.levels[level]
    osize = len(lv.orbit)
    trials = _size_trials(_prime_multiset(osize))
    all_sizes = {size for trial in trials for size in trial}

    sub = chain.subchain(level)
    elems: list[tuple] = []  # (raw, order)
    pending = dict.fromkeys(all_sizes, 0)
    for raw in sub._iter_raw():
        o = _order_raw(raw)
        elems.append((raw, o))
        for s in list(pending):
            if o % s == 0:
                pending[s] += 1
                if pending[s] >= cap:
                    del pending[s]
        if not pending or len(elems) >= 10 * cap:
            break

    buckets: dict[int, list] = {}

    def bucket(size):
        if size not in buckets:
            buckets[size] = [raw for raw, o in elems if o % size == 0][:cap]
        return buckets[size]

    orbit_set = set(lv.orbit)
    b = lv.point

    def search(sizes: tuple[int, ...]):
        m = len(sizes)

        def rec(pos, images):
            if pos < 0:
                return [] if len(images) == osize else None
            for x in bucket(sizes[pos]):
                new = list(images)
                cur = images
                for _ in range(sizes[pos] - 1):
                    cur = [x[p] for p in cur]
                    new.extend(cur)
                if len(set(new)) != len(new):
                    continue
                found = rec(pos - 1, new)
                if found is not None:
                    found.append(x)
                    return found
            return None

        # rec appends each position's choice after its inner call returns, so
        # the list comes back already in block order x_1..x_m
        return rec(m - 1, (b,))

    for sizes in trials:
        got = search(sizes)
        if got is not None:
            decomp = ProductDecomposition(
                factors=tuple(CyclicSetSpec(Permutation._wrap(raw), s)
                              for raw, s in zip(got, sizes)),
                level=level)
            if not sharply_transitive_check(decomp, chain):
                raise AssertionError("search returned a non-transitive cover")
            return decomp
    return None


def refine_ls(ls: LogSignature, chain: StabilizerChain,
              cap: int = DEFAULT_SEARCH_CAP) -> LogSignature:
    """Replace each composite transversal block by cyclic power blocks.

    Blocks whose size is prime (or 1) are kept.  A block whose level admits
    no cyclic-set cover within the search caps is kept as well and remains
    recognizable in the result's annotations as a full-size level block; the
    result then verifies but is not minimal.  When every composite block
    refines, the result meets the minimal-length bound.
    """
    if ls.provenance.tag != "chain" or ls.provenance.annotations is None:
        raise ValueError("refinement needs a chain-provenance signature "
                         "with level annotations")
    blocks: list[tuple[Permutation, ...]] = []
    ann: list[BlockAnnotation] = []
    for block, a in zip(ls.blocks, ls.provenance.annotations):
        primes = _prime_multiset(len(block))
        if len(primes) <= 1:
            blocks.append(block)
            ann.append(BlockAnnotation(level=a.level))
            continue
        decomp = refine_block(chain, a.level, cap=cap)
        if decomp is None:
            blocks.append(block)
            ann.append(BlockAnnotation(level=a.level))
            continue
        for f in decomp.factors:
            for entries, _q, w in _cyclic_blocks(f.generator, f.size):
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
    come out ascending when the series is read from the top.
    """
    series = derived_series(chain)
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
    series = composition_series_solvable(chain)
    blocks = tuple(_powers(t, q) for t, q in zip(series.witnesses, series.primes))
    return LogSignature(degree=chain.degree, blocks=blocks,
                        group=chain.name, provenance=Provenance("solvable"))


def build_mls(chain: StabilizerChain, cap: int = DEFAULT_SEARCH_CAP) -> LogSignature:
    """Best-effort minimal signature: solvable groups via their composition
    series, everything else via transversal blocks plus refinement."""
    if chain.order == 1:
        return LogSignature(degree=chain.degree, blocks=(), group=chain.name,
                            provenance=Provenance("chain", ()))
    if is_solvable(chain):
        return mls_solvable(chain)
    return refine_ls(chain_ls(chain), chain, cap=cap)
