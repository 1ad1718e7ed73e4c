"""Stabilizer chains: base points, orbits, transversals and strong generators.

The chain is built with a deterministic (non-randomized) Schreier-Sims
algorithm so that everything derived from it, transversal blocks in
particular, is reproducible byte for byte.  It provides group order,
membership testing, the canonical bijection between [0, |G|) and the group,
normal closures, derived subgroups and a solvability test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, Iterator, Sequence

from .perm import (Permutation, _digits_of, _identity_raw, _images, _inv_raw,
                   _kept, _mul_raw, _products, _sift, _through, _value_of)

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
    the base point itself is the identity.  ``table`` is the table that
    :func:`~logsig.perm._sift` and :func:`_strip` read: ``table[p]`` is
    ``((i,), inverse, forward)`` with ``i`` the position of ``p`` in the
    orbit, ``inverse`` the raw image array of ``transversal[p]`` inverted
    and ``forward`` its own raw image array, the very object the
    transversal wraps.  A residue equal to ``forward`` is stripped to the
    identity, which the membership walk sees at any level, and the digit
    walk at the last, without the product.
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
        return Permutation._wrap(_sift(g.img, self._walk, self._identity)[0])

    def contains(self, g: Permutation) -> bool:
        """True iff ``g`` is a product of this chain's generators: the
        membership walk :func:`_strip` ends in the identity.  A
        transversal element of any level, such as an entry of a chain
        signature, is decided without a product."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        return _strip(g.img, self._walk, self._identity)[0] == self._identity

    def __contains__(self, g: Permutation) -> bool:
        return self.contains(g)

    @cached_property
    def _forwards(self) -> frozenset:
        """The bytes forward images of every level's table: its transversal
        elements, members without a sift.  Built on first use."""
        return frozenset(f for _, table in self._walk for _, _, f in table.values()
                         if type(f) is bytes)

    # -- the canonical bijection [0, order) <-> G --------------------------

    def element_at(self, index: int) -> Permutation:
        """Element with the given mixed-radix index (last level varies fastest).

        ``element_at(0)`` is the identity: digit 0 of every level selects the
        base point's own representative.  The product starts from the first
        level's representative, so ``L`` levels take ``L - 1`` map-based
        products: this is a per-element path.
        """
        if not 0 <= index < self.order:
            raise IndexError("index %d out of range [0, %d)" % (index, self.order))
        digits = _digits_of(index, [len(lv.orbit) for lv in self.levels])
        images = [lv.transversal[lv.orbit[d]].img for lv, d in zip(self.levels, digits)]
        return Permutation._wrap(reduce(_mul_raw, images) if images else self._identity)

    def index_of(self, g: Permutation) -> int:
        """Inverse of :meth:`element_at`; raises ValueError for non-members."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        raw, digits, _ = _sift(g.img, self._walk, self._identity)
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

    Returns the sift table ``{p: ((), u^-1, u)}`` of the transversal, where
    ``u(point) = p`` and the digits are filled in once the orbit order is
    final; the set of BFS tree edges ``(p, k)``: generator ``k`` first
    reached its image of ``p`` from ``p``, so the representative there is
    ``s_k * u_p`` and the Schreier generator of the edge is the identity;
    and the maps (:func:`~logsig.perm._kept`) of the generators and of each
    point's ``u^-1``.  A new representative ``t = s * u`` is ``u`` mapped through
    ``s``'s map, and inverted by composition, ``t^-1 = u^-1 * s^-1``: each
    ``s^-1`` is computed and each map made once.
    """
    e = _identity_raw(degree)
    through = _through(e)
    table = {point: ((), e, e)}
    tree = set()
    gen_maps = [_kept(s) for s in gens_raw]
    gens_inv = [_inv_raw(s) for s in gens_raw]
    inv_maps = {}
    queue = [point]
    for p in queue:  # grows while it is read: breadth-first order
        _, up_inv, up = table[p]
        inv_maps[p] = up_inv_map = _kept(up_inv)
        for k, s in enumerate(gens_raw):
            q = s[p]
            if q not in table:
                table[q] = ((), through(gens_inv[k], up_inv_map),
                            through(up, gen_maps[k]))
                tree.add((p, k))
                queue.append(q)
    return table, tree, (gen_maps, inv_maps)


def _strip(raw, walk, identity):
    """The membership walk of chain building and :meth:`StabilizerChain.contains`:
    ``raw`` stripped through a chain's ``(point, table)`` levels, returned
    as ``(residue, passed)``.  It stops at the first image missing from its
    table, and relies on a chain's tables mapping their own point to the
    identity: a residue that fixes a level's point is multiplied by
    nothing, and one equal to the selected entry's forward image would
    become the identity, so the walk returns ``identity`` with every level
    passed.  The other products are one ``bytes.translate`` each
    (:func:`~logsig.perm._images`): membership is tested while chains,
    indexes, oracles and keys are set up, never per served element.
    """
    for passed, (point, table) in enumerate(walk):
        image = raw[point]
        if image == point:
            continue
        hit = table.get(image)
        if hit is None:
            return raw, passed
        if raw == hit[2]:
            return identity, len(walk)
        raw = _images(hit[1], raw)
    return raw, len(walk)


class _Node:
    """A level under construction.  ``maps`` holds the strong generators
    and the transversal inverses kept (:func:`~logsig.perm._kept`) for the
    Schreier generators, rebuilt with the table."""

    __slots__ = ("point", "gens", "table", "tree", "sifted", "maps")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list = []
        self.sifted: set = set()
        self.rebuild(degree)

    def rebuild(self, degree: int):
        self.table, self.tree, self.maps = _orbit_transversal(self.point, self.gens,
                                                              degree)


def build_chain(gens: GeneratorSet, base_hint: Iterable[int] | None = None) -> StabilizerChain:
    """Deterministic Schreier-Sims.

    Hint points become the leading base points in the given order; once the
    hint is exhausted, each new base point is the smallest point moved by the
    generator that forced the extension.  For a fixed generator list and hint
    the resulting chain, and everything derived from it, is identical from
    run to run.

    Two kinds of Schreier generator are skipped without a sift, which
    leaves every level as it would be with none skipped.  A BFS tree edge's
    generator is the identity (see :func:`_orbit_transversal`).  And each
    level keeps the set of generators that already sifted to the identity
    through the levels below it; installing a strong generator at levels
    lo..hi clears the sets of levels 0..hi-1.  So a remembered generator
    was sifted through the very tables the levels below still hold, and
    its sift, which is deterministic, would end in the identity again.
    """
    n = gens.degree
    e = _identity_raw(n)
    through = _through(e)
    nodes: list[_Node] = []
    # the (point, table) pair of every node, as strip walks them: refreshed
    # when a node is added or rebuilt, the only times a table changes
    walk: list = []
    used: set[int] = set()

    def add_node(p):
        nodes.append(_Node(p, n))
        walk.append((p, nodes[-1].table))
        used.add(p)

    for p in base_hint or ():
        if not 0 <= p < n:
            raise ValueError("base hint point %d out of range" % p)
        if p not in used:
            add_node(p)

    def strip(raw, start):
        raw, passed = _strip(raw, walk[start:], e)
        return raw, start + passed

    def add_strong_gen(raw, lo, hi):
        # raw fixes the first `lo` base points; install it at levels lo..hi
        if hi == len(nodes):
            for p in range(n):
                if raw[p] != p and p not in used:
                    add_node(p)
                    break
            else:
                raise AssertionError("generator moves no unused point")
        for k in range(lo, hi + 1):
            node = nodes[k]
            node.gens.append(raw)
            node.rebuild(n)
            walk[k] = (node.point, node.table)
        for k in range(hi):
            nodes[k].sifted.clear()

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
        table, tree, sifted = node.table, node.tree, node.sifted
        gen_maps, inv_maps = node.maps
        restart = False
        for p in sorted(table):
            up = table[p][2]
            for k, s in enumerate(node.gens):
                if (p, k) in tree:
                    continue
                sch = through(through(up, gen_maps[k]), inv_maps[s[p]])
                if sch == e or sch in sifted:
                    continue
                h, j = strip(sch, i + 1)
                if h != e:
                    add_strong_gen(h, i + 1, j)
                    i = j
                    restart = True
                    break
                sifted.add(sch)
            if restart:
                break
        if not restart:
            i -= 1

    levels = []
    for node in nodes:
        table = node.table
        orbit = (node.point,) + tuple(sorted(p for p in table if p != node.point))
        levels.append(ChainLevel(
            point=node.point,
            orbit=orbit,
            transversal={p: Permutation._wrap(t[2]) for p, t in table.items()},
            gens=tuple(Permutation._wrap(s) for s in node.gens),
            table={p: ((i,),) + table[p][1:] for i, p in enumerate(orbit)},
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
                conj = Permutation._wrap(_images(s, _images(x.img, s_inv)))
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
