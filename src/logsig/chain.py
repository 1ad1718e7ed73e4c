"""Stabilizer chains: base points, orbits, transversals and strong generators.

The chain is built with a deterministic (non-randomized) Schreier-Sims
algorithm so that everything derived from it, transversal blocks in
particular, is reproducible byte for byte.  It provides group order,
membership testing, the canonical bijection between [0, |G|) and the group,
normal closures, derived subgroups and a solvability test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .perm import (Permutation, _digits_of, _identity_raw, _inv_raw, _mul_raw,
                   _products, _sift, _value_of)

__all__ = [
    "GeneratorSet",
    "ChainLevel",
    "StabilizerChain",
    "build_chain",
    "normal_closure",
    "derived_subgroup",
    "derived_series",
    "is_solvable",
]


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered, nonempty list of generators of one degree.

    The order is significant: every chain computation iterates generators in
    list order, which is what makes the pipeline deterministic.
    """

    degree: int
    gens: tuple[Permutation, ...]
    name: str | None = None

    def __post_init__(self):
        if not self.gens:
            raise ValueError("generator set must be nonempty")
        for g in self.gens:
            if g.degree != self.degree:
                raise ValueError(
                    "generator degree %d != set degree %d" % (g.degree, self.degree))


@dataclass(frozen=True)
class ChainLevel:
    """One level of a stabilizer chain.

    ``point`` is the base point; ``orbit`` lists its orbit under this level's
    group with the base point first and the rest increasing, which fixes the
    digit order of the element <-> index bijection.  ``transversal[p]`` is the
    coset representative ``u`` with ``u(point) = p``; the representative of
    the base point itself is the identity.  ``table`` is the sift table read
    by :func:`~logsig.perm._sift`: ``table[p]`` is ``((i,), inverse)`` with
    ``i`` the position of ``p`` in the orbit and ``inverse`` the raw image
    array of ``transversal[p]`` inverted.
    """

    point: int
    orbit: tuple[int, ...]
    transversal: dict[int, Permutation]
    gens: tuple[Permutation, ...]
    table: dict = field(repr=False)


class StabilizerChain:
    """A verified base and strong generating set for a permutation group.

    Immutable after construction; all methods are pure and safe to share
    across threads.
    """

    def __init__(self, degree: int, levels: Sequence[ChainLevel],
                 generators: GeneratorSet):
        self.degree = degree
        self.levels = tuple(levels)
        self.generators = generators
        self.name = generators.name
        order = 1
        for lv in self.levels:
            order *= len(lv.orbit)
        self.order = order
        self.base = tuple(lv.point for lv in self.levels)
        self._walk = tuple((lv.point, lv.table) for lv in self.levels)
        self._identity = _identity_raw(degree)

    def __repr__(self) -> str:
        return "StabilizerChain(degree=%d, base=%r, order=%d)" % (
            self.degree, self.base, self.order)

    # -- membership ------------------------------------------------------

    def sift(self, g: Permutation) -> Permutation:
        """Strip ``g`` through every level; identity residue iff member."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation._wrap(_sift(g.img, self._walk)[0])

    def contains(self, g: Permutation) -> bool:
        """True iff ``g`` is a product of this chain's generators.

        The sift stops once the residue is the identity: every level's table
        maps its own point to the identity, so the later levels would keep
        it, and a level-k member is decided in at most k + 1 products."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        return _sift(g.img, self._walk, self._identity)[0] == self._identity

    def __contains__(self, g: Permutation) -> bool:
        return self.contains(g)

    # -- the canonical bijection [0, order) <-> G --------------------------

    def element_at(self, index: int) -> Permutation:
        """Element with the given mixed-radix index (last level varies fastest).

        ``element_at(0)`` is the identity: digit 0 of every level selects the
        base point's own representative.
        """
        if not 0 <= index < self.order:
            raise IndexError("index %d out of range [0, %d)" % (index, self.order))
        digits = _digits_of(index, [len(lv.orbit) for lv in self.levels])
        raw = _identity_raw(self.degree)
        for lv, d in zip(self.levels, digits):
            raw = _mul_raw(raw, lv.transversal[lv.orbit[d]].img)
        return Permutation._wrap(raw)

    def index_of(self, g: Permutation) -> int:
        """Inverse of :meth:`element_at`; raises ValueError for non-members."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        raw, digits, _ = _sift(g.img, self._walk)
        if raw != self._identity:
            raise ValueError("permutation is not a member of this group")
        return _value_of(digits, [len(lv.orbit) for lv in self.levels])

    def elements(self) -> Iterator[Permutation]:
        """All group elements, lazily, in ``element_at`` order: the rank-order
        products of the transversal blocks, last level varying fastest."""
        return map(Permutation._wrap, self._iter_raw())

    def _iter_raw(self):
        blocks = [[lv.transversal[p].img for p in lv.orbit] for lv in self.levels]
        return _products(blocks, _identity_raw(self.degree))

    # -- derived chains ----------------------------------------------------

    def subchain(self, level: int) -> "StabilizerChain":
        """The chain of the level-``level`` group (stabilizer of the first
        ``level`` base points), sharing level data with this chain."""
        if not 0 <= level <= len(self.levels):
            raise IndexError("level %d out of range" % level)
        if level == 0:
            return self
        gens = self.levels[level].gens if level < len(self.levels) else ()
        return StabilizerChain(
            self.degree, self.levels[level:],
            GeneratorSet(self.degree, gens) if gens else _trivial_genset(self.degree))


def _orbit_transversal(point: int, gens_raw: list, degree: int):
    """BFS orbit of ``point``; FIFO order with generators in list order.

    Returns the transversal ``{p: u}`` and the sift table ``{p: ((), u^-1)}``,
    whose digits are filled in once the orbit order is final.  A new
    representative ``t = s * u`` is inverted by composition,
    ``t^-1 = u^-1 * s^-1``, with each ``s^-1`` computed once.
    """
    e = _identity_raw(degree)
    trans = {point: e}
    table = {point: ((), e)}
    gens_inv = [(s, _inv_raw(s)) for s in gens_raw]
    queue = [point]
    for p in queue:  # grows while it is read: breadth-first order
        up = trans[p]
        up_inv = table[p][1]
        for s, s_inv in gens_inv:
            q = s[p]
            if q not in trans:
                trans[q] = _mul_raw(s, up)
                table[q] = ((), _mul_raw(up_inv, s_inv))
                queue.append(q)
    return trans, table


class _Node:
    __slots__ = ("point", "gens", "trans", "table")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list = []
        self.trans, self.table = _orbit_transversal(point, [], degree)

    def rebuild(self, degree: int):
        self.trans, self.table = _orbit_transversal(self.point, self.gens, degree)


def build_chain(gens: GeneratorSet, base_hint: Iterable[int] | None = None) -> StabilizerChain:
    """Deterministic Schreier-Sims.

    Hint points become the leading base points in the given order; once the
    hint is exhausted, each new base point is the smallest point moved by the
    generator that forced the extension.  For a fixed generator list and hint
    the resulting chain, and everything derived from it, is identical from
    run to run.
    """
    n = gens.degree
    e = _identity_raw(n)
    nodes: list[_Node] = []
    used: set[int] = set()
    for p in base_hint or ():
        if not 0 <= p < n:
            raise ValueError("base hint point %d out of range" % p)
        if p not in used:
            nodes.append(_Node(p, n))
            used.add(p)

    def strip(raw, start):
        raw, _, passed = _sift(raw, [(nd.point, nd.table) for nd in nodes[start:]], e)
        return raw, start + passed

    def add_strong_gen(raw, lo, hi):
        # raw fixes the first `lo` base points; install it at levels lo..hi
        if hi == len(nodes):
            for p in range(n):
                if raw[p] != p and p not in used:
                    nodes.append(_Node(p, n))
                    used.add(p)
                    break
            else:
                raise AssertionError("generator moves no unused point")
        for k in range(lo, hi + 1):
            nodes[k].gens.append(raw)
            nodes[k].rebuild(n)

    for g in gens.gens:
        raw = g.img
        if raw == e:
            continue
        h, j = strip(raw, 0)
        if h != e:
            add_strong_gen(h, 0, j)

    i = len(nodes) - 1
    while i >= 0:
        node = nodes[i]
        restart = False
        for p in sorted(node.trans):
            up = node.trans[p]
            for s in node.gens:
                sch = _mul_raw(node.table[s[p]][1], _mul_raw(s, up))
                if sch == e:
                    continue
                h, j = strip(sch, i + 1)
                if h != e:
                    add_strong_gen(h, i + 1, j)
                    i = j
                    restart = True
                    break
            if restart:
                break
        if not restart:
            i -= 1

    levels = []
    for node in nodes:
        orbit = (node.point,) + tuple(sorted(p for p in node.trans if p != node.point))
        transversal = {p: Permutation._wrap(t) for p, t in node.trans.items()}
        levels.append(ChainLevel(
            point=node.point,
            orbit=orbit,
            transversal=transversal,
            gens=tuple(Permutation._wrap(s) for s in node.gens),
            table={p: ((i,), node.table[p][1]) for i, p in enumerate(orbit)},
        ))
    return StabilizerChain(gens.degree, levels, gens)


def _trivial_genset(degree: int) -> GeneratorSet:
    return GeneratorSet(degree, (Permutation.identity(degree),))


def normal_closure(chain: StabilizerChain, elems: Iterable[Permutation]) -> StabilizerChain:
    """Chain of the normal closure of ``elems`` inside ``chain``'s group."""
    degree = chain.degree
    work = [g for g in elems if not g.is_identity()]
    for g in work:
        if g.degree != degree:
            raise ValueError("degree mismatch")
    closure = build_chain(GeneratorSet(degree, tuple(work)) if work
                          else _trivial_genset(degree))
    ambient = [(g.img, _inv_raw(g.img)) for g in chain.generators.gens]
    changed = True
    while changed:
        changed = False
        for s, s_inv in ambient:
            for x in list(closure.generators.gens):
                conj = Permutation._wrap(_mul_raw(s, _mul_raw(x.img, s_inv)))
                if not closure.contains(conj):
                    work.append(conj)
                    closure = build_chain(GeneratorSet(degree, tuple(work)))
                    changed = True
    return closure


def derived_subgroup(chain: StabilizerChain) -> StabilizerChain:
    """Normal closure of the pairwise commutators of the chain's generators."""
    gens = chain.generators.gens
    comms = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            g, h = gens[i], gens[j]
            c = g.inverse() * h.inverse() * g * h
            if not c.is_identity():
                comms.append(c)
    return normal_closure(chain, comms)


def derived_series(chain: StabilizerChain) -> list[StabilizerChain]:
    """G > G' > G'' > ... until the order stops decreasing or reaches 1."""
    series = [chain]
    while series[-1].order > 1:
        nxt = derived_subgroup(series[-1])
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
    return series


def is_solvable(chain: StabilizerChain) -> bool:
    """True iff the derived series terminates at the trivial group."""
    return derived_series(chain)[-1].order == 1
