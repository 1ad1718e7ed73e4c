"""Logarithmic signatures: ordered block sequences factoring a group uniquely.

A signature ``[A_1, ..., A_s]`` is exact for a group G when every g in G is a
unique product ``a_1 * a_2 * ... * a_s`` taking one factor per block (rightmost
factor applied first, matching the package-wide composition convention).  This
module holds the data structure, its length arithmetic, the two verification
oracles and the canonical file format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain as iterchain, product, repeat
from math import inf, prod
from operator import itemgetter
from typing import IO

from .arith import PrimeFactorization
from .chain import StabilizerChain
from .perm import (Permutation, _digits_of, _identity_raw, _images, _inv_raw,
                   _join, _products, _raw)

__all__ = [
    "BlockAnnotation",
    "Provenance",
    "LogSignature",
    "VerificationReport",
    "LsFormatError",
    "VerificationBudgetError",
    "ls_length",
    "minimal_length",
    "is_minimal",
    "verify_exhaustive",
    "verify_structural",
    "write_ls",
    "read_ls",
    "dumps_ls",
    "loads_ls",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10_000_000


class LsFormatError(ValueError):
    """Malformed signature file."""


class VerificationBudgetError(ValueError):
    """Product count exceeds the exhaustive budget; use verify_structural."""


@dataclass(frozen=True)
class BlockAnnotation:
    """Ties one block to the stabilizer-chain level it helps cover.

    Blocks produced by splitting a level's transversal into cyclic power sets
    also record the size of the cyclic set they came from and their power
    step inside it.
    """

    level: int
    set_size: int | None = None
    step: int | None = None


@dataclass(frozen=True)
class Provenance:
    """How a signature was built: chain | refined | solvable | cyclic | manual."""

    tag: str
    annotations: tuple[BlockAnnotation, ...] | None = None

    def __post_init__(self):
        if self.tag not in ("chain", "refined", "solvable", "cyclic", "manual"):
            raise ValueError("unknown provenance tag %r" % self.tag)


@dataclass(frozen=True)
class LogSignature:
    """Ordered blocks of permutations, one factor taken per block.

    Blocks are nonempty, entries within a block pairwise distinct, all of one
    degree.  ``group`` optionally names the group the signature claims to
    factor; verification always receives the chain explicitly.
    """

    degree: int
    blocks: tuple[tuple[Permutation, ...], ...]
    group: str | None = None
    provenance: Provenance = Provenance("manual")

    def __post_init__(self):
        # on the image arrays, which hash and compare without a Python call
        for bi, block in enumerate(self.blocks):
            if not block:
                raise ValueError("block %d is empty" % bi)
            images = [e.img for e in block]
            if len(set(images)) != len(images):
                raise ValueError("block %d has repeated entries" % bi)
            for n in map(len, images):
                if n != self.degree:
                    raise ValueError("block %d entry of degree %d in a degree-%d signature"
                                     % (bi, n, self.degree))
        ann = self.provenance.annotations
        if ann is not None and len(ann) != len(self.blocks):
            raise ValueError("annotation count %d != block count %d"
                             % (len(ann), len(self.blocks)))

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def product_count(self) -> int:
        return prod(self.block_sizes)

    def __getstate__(self):
        # pickles and copies hold the fields, not the index factorize_generic keeps
        return {k: v for k, v in vars(self).items() if k != "_generic_index"}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verification run.

    A failing report always carries a witness: either ``collision`` (two
    distinct digit tuples whose products agree) or a textual ``detail``
    describing the coverage deficit.
    """

    ok: bool
    method: str
    products_checked: int
    collision: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    detail: str = ""

    def __post_init__(self):
        if not self.ok and self.collision is None and not self.detail:
            raise ValueError("failing report without witness")


def ls_length(ls: LogSignature) -> int:
    """Sum of block sizes."""
    return sum(len(b) for b in ls.blocks)


def minimal_length(f: PrimeFactorization) -> int:
    """The attainable lower bound sum(a_j * p_j) for a group of the given order."""
    return sum(a * p for p, a in f.factors)


def is_minimal(ls: LogSignature, f: PrimeFactorization) -> bool:
    """Whether the signature meets the minimal-length bound for order ``f.value``."""
    if ls.product_count() != f.value:
        raise ValueError("block size product %d != order %d"
                         % (ls.product_count(), f.value))
    return ls_length(ls) == minimal_length(f)


def verify_exhaustive(ls: LogSignature, chain: StabilizerChain,
                      budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Check that the signature's products are pairwise distinct, as if
    every one were enumerated.

    A block entry outside the chain's group fails the report; for members,
    distinctness together with a product count equal to the group order is
    equivalent to exactness.  The budget counts products: a check of more
    than ``budget`` raises, whatever it would cost.  A member is fixed by
    its images of the chain's base, so two products are equal exactly when
    their base images are, and only base images are computed.

    Distinctness is first proven block by block from the right
    (:func:`_distinct_from`).  At block u, let T be the products of the
    later blocks, already shown distinct, ``pin`` the base points every
    later entry fixes, q the first base point some later entry moves and
    Y its images under T.  A product e·t of an entry e of block u and t in
    T sends ``pin`` where e does and q to e(t(q)), so e·t = e'·t' forces
    equal keys (e(y), e(pin)) with y = t(q), y' = t'(q) in Y.  When those
    keys are distinct over the block's entries e and all y in Y (at once
    when the entries' images of ``pin`` are), e = e' and then t = t': the
    products of ``blocks[u:]`` are distinct.  So a signature whose every
    block passes, as every exact chain, refined and cyclic signature in
    the catalog does, passes with no product expanded, and the report
    counts all |G| products as checked.

    At the first block whose keys repeat, or earlier where counting alone
    shows that they will, the check is handed over to the class walk
    (:func:`_class_walk`), which alone decides it and names the least
    witness in rank order; it is told that the later blocks' products are
    already distinct.  A group of order 1, of degree 0 too,
    has one product and passes.
    """
    if ls.degree != chain.degree:
        raise ValueError("degree mismatch")
    total = ls.product_count()
    fault = _member_fault(ls, chain)
    if fault:
        return VerificationReport(ok=False, method="exhaustive", products_checked=0,
                                  detail=fault)
    if total > budget:
        raise VerificationBudgetError(
            "%d products exceed the budget of %d; use verify_structural" % (total, budget))

    if total == 1:  # one product repeats nothing, and a degree-0 group has no base
        return VerificationReport(ok=True, method="exhaustive", products_checked=1)

    raws = [[e.img for e in block] for block in ls.blocks]
    base = list(chain.base)
    # pinned[u]: the base points that every entry of blocks[u:] fixes
    pinned = _fixed_points(ls.blocks, base)
    proven = _distinct_from(raws, base, pinned)
    if not proven:
        return VerificationReport(ok=True, method="exhaustive", products_checked=total)
    return _class_walk(ls, raws, base, pinned, proven)


def _distinct_from(raws, base: list, pinned: list) -> int:
    """The least u for which the products of ``raws[u:]`` are proven
    distinct block by block from the right, as :func:`verify_exhaustive`
    proves them: 0 when every block passes, and otherwise one past the
    first block whose keys (e(y), e(pin)) repeat, or, once no pin is
    left, one past the first block at which counting alone shows that
    some earlier block's keys will.

    Y, the images of q under the later blocks' products T, is carried
    along: while q stays the same from one block to the next, Y becomes
    the union of e(Y) over the block's entries e, one image step per
    entry, which the key check reads too; when q changes to q', every
    later entry fixes q', so Y becomes {e(q')}.  Y misses ``pin``, which
    T fixes, so the entries that agree on ``pin`` send Y into the n -
    |pin| points off their images of ``pin``: when they need more room,
    the keys repeat, and no image is computed.  With no pin, which stays
    so leftward, one group holds every entry, and a block that passes
    multiplies |Y| by its size, so block 0's count is known first."""
    mk = type(raws[0][0])
    n = len(raws[0][0])
    ys = q = None
    for u in range(len(raws) - 1, -1, -1):
        block, pin = raws[u], pinned[u + 1]
        parts = None  # e(Y), one packed string per group that agrees on pin
        # the entries' images of pin; an entry alone passes, as a bijection
        sent = list(map(itemgetter(*pin), block)) if pin else ()
        kinds = len(set(sent))
        if kinds < len(block) > 1:
            groups = [block]
            if kinds > 1:
                agree: dict = {}
                for s, e in zip(sent, block):
                    agree.setdefault(s, []).append(e)
                groups = list(agree.values())
            # with no pin, blocks that pass multiply |Y| by their sizes, so
            # block 0 would need this room times the sizes before u: when
            # that is too much, blocks[u + 1:] are all that can be proven
            more = 1 if pin else prod(map(len, raws[:u]))
            if max(map(len, groups)) * len(ys) * more > n - len(pin):
                return u + 1
            parts = [_join([_images(e, ys) for e in v], mk) for v in groups]
            for s in parts:
                if len(set(s)) < len(s):
                    return u + 1
        if not u:
            break
        nq = q if pinned[u] == pin else next(b for b in base if b not in pinned[u])
        if nq != q:
            ys, q = mk({e[nq] for e in block}), nq
        elif q is not None:
            if parts is None:
                parts = [_images(e, ys) for e in block]
            # one group's images passed the check, so they are Y's, once each
            ys = parts[0] if len(parts) == 1 else mk(set(_join(parts, mk)))
    return 0


def _class_walk(ls: LogSignature, raws, base: list, pinned: list,
                proven: int) -> VerificationReport:
    """The exhaustive check of :func:`verify_exhaustive` by classes of
    products, for a check that the blocks from the right did not decide;
    the products of ``blocks[proven:]`` are known to be distinct.  For
    degree <= 256 a product's key is its base images packed into 8-byte
    ints (the base padded to a multiple of 8 points by repeating one); for
    degree > 256 it is the tuple of base images.

    The trailing blocks (the tail) are expanded once into packed base
    images, grouped by their image y of the first base point b0.  The tail
    grows right to left until it holds ``_CHUNK`` products or the square of
    its count reaches |G|, and then on to a level boundary: up to the next
    block that moves a base point every tail entry fixes (when there is
    one).  Every tail product fixes those points, the pinned ones, so a
    product of a leading product p (a head) and the tail sends them where
    p does.  Products with different images of b0 or of a pinned point
    are different, so the products are split into classes by those
    images, each checked on its own: a head p maps group y into class
    (p(y), p(pinned)).  A head maps keys one to one, so its chunk of a
    class repeats a key exactly when its group does: each group is checked
    once, and a class fed by one head is done when that head's group is.
    A tail inside ``blocks[proven:]`` has distinct products, so its
    groups are not checked again.

    The class keys of all heads are one packed expansion: the points y and
    pinned of every group, padded to whole 8-byte words as the base keys
    are, mapped right to left through the leading blocks, one C-level
    image step per entry, with no head computed.  If no class key repeats
    and no group repeats a key, the check passes there.  Otherwise the
    classes are mapped from the packed keys, and only a class fed by two
    or more heads, or by a group that repeats a key, can repeat one.
    Such a class is walked, storing its keys; it sees its products in
    rank order (mixed radix, digits varying fastest in the last block),
    one chunk per head.  At its first chunk that repeats a key, its chunks
    are scanned again for the first repeat, and the report names the
    least second rank over the classes.  Besides the packed tail and class
    keys, the keys stored at once are one group's or one walked class's.

    A class's first repeat lies in its first head's chunk when that
    head's group repeats a key, and no earlier than its second head's
    chunk otherwise, so the classes are walked in the order of that head,
    their bound.  Once a repeat is found in head c's chunk, every product
    of a later head comes after it: a class walks only its heads up to c,
    and the walk stops at the first class whose bound is past c.  A head
    is made when the walk first reads it, from the kept product of its
    leading digits, so a failing check makes the few heads it reads and
    one that walks every class about one composition per head.
    """
    sizes = ls.block_sizes
    total = ls.product_count()
    ident = _identity_raw(ls.degree)
    mk = type(ident)
    # b0 goes last, into a key's high byte, so the low bytes vary in a class
    pad = -len(base) % 8 if mk is bytes else 0
    points = base[1:] + base[-1:] * pad + base[:1]
    width = len(points)
    # expand the trailing blocks right to left into packed base images,
    # grouped by b0's image y (each string's last point), in rank order:
    # up to the balance point, then on to the next block that moves a
    # base point the tail fixes
    tails, h, n = {base[0]: mk(points)}, len(raws), 1
    while h and (n < _CHUNK and n * n < total
                 or pinned[h] and pinned[h - 1] == pinned[h]):
        h -= 1
        n *= sizes[h]
        parts: dict = {}
        for e in raws[h]:
            for t in tails.values():
                s = _images(e, t)
                parts.setdefault(s[-1], []).append(s)
        tails = {y: _join(v, mk) for y, v in parts.items()}
    # a head maps keys one to one, so the chunk p·T_y of a head p repeats a
    # key iff its group T_y does: each group is checked once, here, unless
    # the tail's products are already known to be distinct
    ys, groups = list(tails), list(tails.values())
    distinct = [h >= proven or len(t) == width
                or len(dict.fromkeys(_keys(t, width))) * width == len(t) for t in groups]
    # every tail product fixes the points of pin, so a product maps them as
    # its head p does: p sends group y into class (p(y), p(pin)).  The
    # points y and pin of every group, padded as the base is, are expanded
    # right to left through the head blocks, as the tail is, into the
    # packed class keys of every head in rank order
    pin, g = pinned[h], len(ys)
    kpad = -(1 + len(pin)) % 8 if mk is bytes else 0
    kwidth = 1 + len(pin) + kpad
    packed = mk(iterchain.from_iterable([y, *pin] + [y] * kpad for y in ys))
    for block in reversed(raws[:h]):
        packed = _join([_images(e, packed) for e in block], mk)
    if (len(set(_keys(packed, kwidth))) * kwidth == len(packed)
            and all(distinct)):
        # each class is fed by one head, through a group with no repeat
        return VerificationReport(ok=True, method="exhaustive", products_checked=total)
    # class key -> the places c * g + j of the heads c feeding it through
    # group ys[j], in rank order
    classes: dict = {}
    for i, key in enumerate(_keys(packed, kwidth)):
        classes.setdefault(key, []).append(i)
    del packed
    # a class first repeats a key in its first head's chunk if that head's
    # group repeats one (fed[False]), and else no earlier than its second
    # head's chunk (fed[True]): the classes that can repeat are walked in
    # the order of that head
    walked = sorted(((fed[distinct[fed[0] % g]] // g, fed) for fed in classes.values()
                     if len(fed) > 1 or not distinct[fed[0] % g]), key=itemgetter(0))
    del classes
    heads = _Heads(raws[:h], ident)

    ranks, best, stop = None, None, total // n
    for bound, fed in walked:
        if bound >= stop:  # its second rank is at least stop * n
            break
        # heads from stop on come after the least second rank found
        fed = [divmod(i, g) for i in fed if i < stop * g]
        seen, count = {}, 0
        for i, (c, j) in enumerate(fed):
            seen.update(zip(_keys(_images(heads[c], groups[j]), width), repeat(None)))
            count += len(groups[j]) // width
            if len(seen) < count:
                seen.clear()  # freed before _first_repeat builds its own
                k, i0, k0 = _first_repeat(
                    [_images(heads[q], groups[z]) for q, z in fed[:i + 1]], width)
                if ranks is None:  # each tail group's ranks, once per call
                    ranks = _tail_ranks(raws[h:], base[0])
                c0, j0 = fed[i0]
                pair = c * n + ranks[ys[j]][k], c0 * n + ranks[ys[j0]][k0]
                best, stop = min(best or pair, pair), c + 1
                break
    if best:
        second, first = best
        return VerificationReport(
            ok=False, method="exhaustive", products_checked=second + 1,
            collision=(_digits_of(first, sizes), _digits_of(second, sizes)),
            detail="identical products at two index tuples")
    return VerificationReport(ok=True, method="exhaustive", products_checked=total)


# the exhaustive oracle's tail stops growing toward the balance point at
# this many products; it may still grow on to a level boundary
_CHUNK = 4096


def _keys(chunk, width: int):
    """The keys of a chunk of packed base images, ``width`` points each."""
    if type(chunk) is bytes:
        chunk, width = memoryview(chunk).cast("Q"), width // 8
    elif len(chunk) == width > 1:  # one tuple key: the chunk itself
        return (chunk,)
    if width == 1:
        return chunk
    return zip(*(chunk[i::width] for i in range(width)))


def _first_repeat(chunks: list, width: int) -> tuple[int, int, int]:
    """Where the first repeated key of a class lies, given its ``chunks`` in
    rank order, of which only the last repeats a key: key ``j`` of the last
    chunk repeats key ``j0`` of chunk ``i0``."""
    *earlier, last = chunks
    # an earlier chunk's key maps to None, one of the last chunk to its place
    seen = dict.fromkeys(iterchain.from_iterable(_keys(s, width) for s in earlier))
    for j, key in enumerate(_keys(last, width)):
        j0 = seen.setdefault(key, j)
        if j0 != j:
            break
    if j0 is not None:
        return j, len(earlier), j0
    for i0, s in enumerate(earlier):
        for j0, k in enumerate(_keys(s, width)):
            if k == key:
                return j, i0, j0


class _Heads(dict):
    """Rank -> the product of ``blocks`` at that rank, digits ordered as
    :func:`_products` orders them, made on its first read.  The product of
    each run of leading digits is kept, made from the one with its last
    digit dropped: heads read in any order cost about one composition
    each, and the heads no one reads are not made."""

    def __init__(self, blocks, ident):
        super().__init__()
        self.blocks = blocks
        # made[k]: the rank of a run of k leading digits -> its product
        self.made = [{0: ident}] + [{} for _ in blocks]

    def __missing__(self, rank):
        blocks, made = self.blocks, self.made
        k, r, digits = len(blocks), rank, []
        while r not in made[k]:  # drop last digits down to a made product
            k -= 1
            r, d = divmod(r, len(blocks[k]))
            digits.append(d)
        p = made[k][r]
        for d in reversed(digits):
            r = r * len(blocks[k]) + d
            p = made[k + 1][r] = _images(p, blocks[k][d])
            k += 1
        self[rank] = p
        return p


def _tail_ranks(blocks, b0: int) -> dict:
    """The ranks of the products of ``blocks``, grouped by their image y of
    ``b0``, each group in rank order: one image of one point per product,
    not a product of full image arrays.  When every entry fixes b0 there
    is one group, whose ranks are its positions."""
    if all(e[b0] == b0 for block in blocks for e in block):
        return {b0: range(prod(map(len, blocks)))}
    images = [b0]
    for block in reversed(blocks):
        images = [e[z] for e in block for z in images]
    ranks: dict = {}
    for r, y in enumerate(images):
        ranks.setdefault(y, []).append(r)
    return ranks


def _index_levels(ls: LogSignature, chain: StabilizerChain):
    """The run index of a signature certified against a chain, as
    :func:`verify_structural` certifies it: ``(levels, fault, checked)``,
    the levels of :func:`_run_levels`, "" or the first fault found (with
    no levels), and the products the tables hold."""
    if ls.degree != chain.degree:
        raise ValueError("degree mismatch")
    fault = _member_fault(ls, chain)
    if fault:
        return [], fault, 0
    levels, fault = _run_levels(ls)
    return levels, fault, sum(len(table) for _, table in levels)


def _member_fault(ls: LogSignature, chain: StabilizerChain) -> str:
    """"" when the block sizes multiply to |G| and every entry is a member,
    which both oracles and the tame index check first; otherwise the first
    fault.  An entry whose bytes image array is one of the chain's forward
    images, as every entry of a chain signature is, is a member by one set
    lookup; a tuple image array is not hashed for it, since its hash costs
    O(degree) and is not cached (with tuples in the set, this took 5.83 ms,
    not 0.54, on C1000's cyclic signature).  Other entries are sifted."""
    if ls.product_count() != chain.order:
        return ("size-product mismatch: blocks enumerate %d products, group "
                "order is %d" % (ls.product_count(), chain.order))
    forwards = chain._forwards
    for bi, block in enumerate(ls.blocks):
        for ei, e in enumerate(block):
            if type(e.img) is bytes and e.img in forwards:
                continue
            if not chain.contains(e):
                return "block %d entry %d is not a group member" % (bi, ei)
    return ""


def _level_table(sets, point: int, degree: int) -> dict:
    """The image of ``point`` under each product of the element sets, mapped
    to the product's digit tuple, inverse and forward image, the three
    fields of a chain table entry.  A product set as large as an orbit maps
    ``point`` one to one onto it iff the keys are its points.

    No product is inverted: the inverses are the products of the inverted
    entries in reverse set order, whose digits are the product's reversed.
    One set's products are its own entries; the forwards of several sets
    come from one :func:`_products` pass, in rank order."""
    raws = [[e.img for e in s] for s in sets]
    inverted = [[_inv_raw(e) for e in s] for s in reversed(raws)]
    # one set's products are its entries, not composed with the identity
    if len(raws) == 1:
        return {f[point]: ((d,), u, f)
                for d, (u, f) in enumerate(zip(inverted[0], raws[0]))}
    e = _identity_raw(degree)
    # each inverse keyed by its own digits, the product's reversed
    inverses = dict(zip(product(*(range(len(s)) for s in inverted)),
                        _products(inverted, e)))
    return {f[point]: (digits, inverses[digits[::-1]], f) for digits, f in
            zip(product(*(range(len(s)) for s in raws)), _products(raws, e))}


def _run_levels(ls: LogSignature, limit: float = inf):
    """The one run index of a signature, read off its entries alone:
    ``(levels, fault)``, a ``(point, table)`` pair per run of
    :func:`_runs` for :func:`~logsig.perm._sift`, each table the run's
    :func:`_level_table`.  At degree 0 the one run is keyed by the empty
    tuple of images, as a merged level (:func:`_sift_levels`) is keyed by
    a tuple.  ``fault`` is :func:`_runs`' own, and the levels are empty
    when it is not ""."""
    runs, fault = _runs(ls, limit)
    blocks, n = ls.blocks, ls.degree
    if runs and runs[0][2] is None:  # degree 0: the images of no point
        e = _identity_raw(0)
        return [(lambda raw: (), {(): ((0,) * len(blocks), e, e)})], ""
    return [(point, _level_table(blocks[a:b], point, n)) for a, b, point in runs], fault


def _runs(ls: LogSignature, limit: float = inf):
    """The runs of a signature, read off its entries alone, without their
    tables: ``(runs, fault)``, a ``(start, stop, point)`` triple per run.

    A run is a stretch ``blocks[start:stop]`` with a point that every
    entry of ``blocks[stop:]`` fixes and that the run's products send to
    distinct points.  So a product sends the first run's point where its
    first-run factor does, which fixes that factor; stripping it, the same
    holds for the next run, and by induction the product map is one to
    one.  In a chain signature the runs are the levels and the points the
    base.  Each run is the shortest that holds more than one product and
    has such a point, which keeps every split that exists reachable;
    one-entry blocks at the end join the last run.  Blocks of one entry
    alone are one run at point 0, or at degree 0 at point None.
    ``fault`` is "" when runs cover the blocks; otherwise it names the
    first block at which no run can start and why (its products outnumber
    the degree before a point separates them, or no point does), or says
    the runs would hold more than ``limit`` products, and the runs are
    empty.
    """
    blocks, n = ls.blocks, ls.degree
    fixed = _fixed_points(blocks, range(n))
    runs: list = []
    start, count, held = 0, 1, 0
    still = set(fixed[0])  # fixed from start on: no run's products separate them
    for stop in range(1, len(blocks) + 1):
        count *= len(blocks[stop - 1])
        if count == 1:
            continue
        if count > n:
            return [], ("no run can start at block %d: blocks %d to %d have %d "
                        "products, more than the degree %d"
                        % (start, start, stop - 1, count, n))
        if held + count > limit:
            return [], "the runs would hold more than %d products" % limit
        point = next((b for b in fixed[stop] if b not in still
                      and _maps_apart(blocks[start:stop], b)), None)
        if point is not None:
            runs.append((start, stop, point))
            start, count, held = stop, 1, held + count
            still = set(fixed[start])
    if count > 1:
        return [], ("no run can start at block %d: no separating point, one "
                    "that every later entry fixes and the run's products send "
                    "apart" % start)
    if start < len(blocks):  # one-entry blocks, which fix every run's point
        if runs:
            runs[-1] = (runs[-1][0], len(blocks), runs[-1][2])
        else:
            runs.append((0, len(blocks), 0 if n else None))
    return runs, ""


def _chain_runs(ls: LogSignature, chain: StabilizerChain) -> list:
    """The runs of :func:`_runs` as ``(start, stop, level)``, each with the
    chain level whose base point is its point, for a signature of members
    whose block sizes multiply to |G| (:func:`_member_fault`) and whose
    run points are, in order, the base points of the chain's levels with
    more than one orbit point, as in every chain, refined and key
    signature.  The blocks of a run then lie in its level group and their
    products cover its orbit.  Any other signature raises ValueError
    naming the fault."""
    if ls.degree != chain.degree:
        raise ValueError("degree mismatch")
    fault = _member_fault(ls, chain)
    if not fault:
        runs, fault = _runs(ls)
    if fault:
        raise ValueError(fault)
    levels = [i for i, lv in enumerate(chain.levels) if len(lv.orbit) > 1]
    points = [point for _, _, point in runs]
    base = [chain.levels[i].point for i in levels]
    if points != base:
        raise ValueError("the run points %s are not the base points %s of the "
                         "chain's levels" % (points, base))
    return [(a, b, i) for (a, b, _), i in zip(runs, levels)]


def _sift_levels(levels, degree: int) -> list:
    """The levels :func:`~logsig.perm._sift`'s digit walk reads for the run
    index ``levels`` of :func:`_run_levels`: its last m >= 2 runs merged
    into one level, for the largest m whose runs hold at most as many
    products as the whole index holds entries (the sum of its table
    sizes).  So the levels hold at most twice the index's entries.  When
    no m qualifies they are ``levels``.

    The merged level is ``(key, table)``: ``key`` is an itemgetter of the
    runs' points and ``table`` maps the images ``key`` reads off each of
    the runs' products to its digits and forward image, from one
    :func:`_products` pass over the runs' forwards, in rank order.  Every
    later run's entries fix an earlier run's point, so a residue's images
    select a product exactly when the runs, stripped one by one, would
    select its factors, and the walk settles the merged runs with one
    lookup and one comparison.  No inverse is kept: a residue that differs
    from the forward image there is multiplied by its inverse, made then,
    which only a non-member pays for."""
    sizes = [len(table) for _, table in levels]
    entries, m, count = sum(sizes), 1, sizes[-1] if sizes else 1
    while m < len(sizes):
        merged = count * sizes[-m - 1]
        if merged > entries:
            break
        m, count = m + 1, merged
    if m < 2:
        return levels
    tail = [table.values() for _, table in levels[-m:]]
    key = itemgetter(*(point for point, _ in levels[-m:]))
    digits = product(*([d for d, _, _ in hits] for hits in tail))
    forwards = _products([[f for _, _, f in hits] for hits in tail], _identity_raw(degree))
    table = {key(f): (sum(ds, ()), f) for ds, f in zip(digits, forwards)}
    return levels[:-m] + [(key, table)]


def _fixed_points(blocks, points) -> list:
    """``fixed[u]``: the points of ``points`` that every entry of
    ``blocks[u:]`` fixes, in order, for u from 0 to ``len(blocks)``.  An
    entry that fixes them all is passed by one C-level comparison of its
    images of them."""
    f = list(points)
    fixed = [f]
    for block in reversed(blocks):
        if f:
            get, want = itemgetter(*f), tuple(f) if len(f) > 1 else f[0]
            for e in block:
                img = e.img
                if get(img) != want:
                    f = [x for x in f if img[x] == x]
                    if not f:
                        break
                    get, want = itemgetter(*f), tuple(f) if len(f) > 1 else f[0]
        fixed.append(f)
    fixed.reverse()
    return fixed


def _maps_apart(blocks, point: int) -> bool:
    """Whether the products of ``blocks`` send ``point`` to distinct points.
    Each suffix's products must already, so the check stops at the first
    suffix that repeats an image."""
    images = [point]
    for block in reversed(blocks):
        images = [e.img[z] for e in block for z in images]
        if len(set(images)) < len(images):
            return False
    return True


def verify_structural(ls: LogSignature, chain: StabilizerChain) -> VerificationReport:
    """Certify exactness from runs read off the entries, not by enumeration.

    The block sizes must multiply to |G|, every entry must be a member,
    and the blocks must split into runs (:func:`_run_levels`), which prove
    the product map one to one: |G| distinct products of members are the
    whole group.  This is complete for transversal-shaped signatures,
    since every suffix of a level's blocks still sends its base point
    apart.  It costs a membership sift per entry and each run's products,
    at most the degree; the annotations are not read.  A fault fails the
    report only under a ``chain`` or ``refined`` tag, which claims that
    shape; under any other tag (an exact solvable signature may have no
    runs) no verdict is reached and ValueError is raised.  The index is
    :class:`~logsig.factorize.TameIndexer`'s, so a signature passes
    exactly when it can be indexed.
    """
    _, fault, checked = _index_levels(ls, chain)
    if fault and ls.provenance.tag not in ("chain", "refined"):
        raise ValueError("no structural verdict for a %s signature: %s"
                         % (ls.provenance.tag, fault))
    return VerificationReport(ok=not fault, method="structural",
                              products_checked=checked, detail=fault)


# -- canonical file format --------------------------------------------------
#
# UTF-8 JSON with keys in fixed order: degree, group (omitted when absent),
# provenance, blocks.  Each element is its 1-based image array.  Serialization
# is canonical (two-space indent, "\n" at the end) so identical signatures
# produce identical bytes.

def _annotation_obj(a: BlockAnnotation) -> dict:
    obj: dict = {"level": a.level}
    if a.set_size is not None:
        obj["set_size"] = a.set_size
    if a.step is not None:
        obj["step"] = a.step
    return obj


def _ls_head(ls: LogSignature) -> dict:
    """The document's fields before ``blocks``."""
    obj: dict = {"degree": ls.degree}
    if ls.group is not None:
        obj["group"] = ls.group
    prov: dict = {"tag": ls.provenance.tag}
    if ls.provenance.annotations is not None:
        prov["annotations"] = [_annotation_obj(a) for a in ls.provenance.annotations]
    obj["provenance"] = prov
    return obj


def _with_members(head: str, members, depth: int) -> str:
    """``head``, an object's text as ``json.dumps(obj, indent=2)`` writes
    it ``depth`` levels deep, with ``(key, text)`` members appended whose
    texts are written ``depth + 1`` levels deep: the text ``json.dumps``
    writes for the object with those members added."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    return (head[:-len(pad) - 1]
            + "".join("," + inner + json.dumps(k) + ": " + text for k, text in members)
            + pad + "}")


def _ls_text(ls: LogSignature, depth: int = 0) -> str:
    """The signature's document, exactly as ``json.dumps(obj, indent=2)``
    writes it nested ``depth`` levels deep, every line after the first
    indented ``2 * depth`` more spaces.

    json's indenting encoder is pure Python and writes an image array one
    point at a time; here each array is one ``join`` over precomputed
    point strings, which carry their line breaks and indents.  The fields
    before ``blocks`` are few and go through ``json.dumps``."""
    pad = ["\n" + "  " * (depth + k) for k in range(5)]
    # one per point, built only when there is an entry to write
    lines = [pad[4] + str(p + 1) for p in range(ls.degree)] if ls.blocks else []
    close = pad[3] + "]"
    blocks = ["[" + pad[3] + ("," + pad[3]).join(
        ["[" + ",".join(map(lines.__getitem__, e.img)) + close if lines else "[]"
         for e in block]) + pad[2] + "]" for block in ls.blocks]
    head = json.dumps(_ls_head(ls), indent=2).replace("\n", pad[0])
    body = "[" + pad[2] + ("," + pad[2]).join(blocks) + pad[1] + "]" if blocks else "[]"
    return _with_members(head, [("blocks", body)], depth)


def dumps_ls(ls: LogSignature) -> str:
    """The canonical file text: exactly ``json.dumps(obj, indent=2) + "\n"``
    of the signature's document, written by :func:`_ls_text`."""
    return _ls_text(ls) + "\n"


def _parse_annotation(obj, where: str) -> BlockAnnotation:
    if not isinstance(obj, dict) or type(obj.get("level")) is not int:
        raise LsFormatError("%s: annotation must be an object with an integer 'level'"
                            % where)
    if obj["level"] < 0:
        raise LsFormatError("%s: annotation 'level' must be nonnegative" % where)
    for key in ("set_size", "step"):
        value = obj.get(key)
        if value is None:
            continue
        if type(value) is not int:
            raise LsFormatError("%s: annotation %r must be an integer" % (where, key))
        if value < 1:
            raise LsFormatError("%s: annotation %r must be at least 1" % (where, key))
    return BlockAnnotation(level=obj["level"],
                           set_size=obj.get("set_size"),
                           step=obj.get("step"))


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise LsFormatError("line %d column %d: %s" % (e.lineno, e.colno, e.msg)) from e
    except RecursionError as e:
        raise LsFormatError("JSON nested too deeply") from e
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise LsFormatError("JSON integer has too many digits") from e


def _ls_from_obj(obj) -> LogSignature:
    # integers are tested by exact type: JSON true and false load as bool
    if not isinstance(obj, dict):
        raise LsFormatError("top level must be an object")
    try:
        degree = obj["degree"]
        prov_obj = obj["provenance"]
        blocks_obj = obj["blocks"]
    except KeyError as e:
        raise LsFormatError("missing required field %s" % e) from e
    if type(degree) is not int or degree < 0:
        raise LsFormatError("degree must be a nonnegative integer")
    if "group" in obj and not isinstance(obj["group"], str):
        raise LsFormatError("group must be a string")
    if not isinstance(prov_obj, dict) or not isinstance(blocks_obj, list):
        raise LsFormatError("provenance must be an object and blocks an array")
    ann = None
    if "annotations" in prov_obj:
        if not isinstance(prov_obj["annotations"], list):
            raise LsFormatError("provenance annotations must be an array")
        ann = tuple(_parse_annotation(a, "provenance") for a in prov_obj["annotations"])
    try:
        provenance = Provenance(tag=prov_obj.get("tag", "manual"), annotations=ann)
    except ValueError as e:
        raise LsFormatError(str(e)) from e
    # an image array is checked in C-level steps: its length and types,
    # then its sorted values against 1..degree, which are built when the
    # first array of that length is read, so a degree allocates nothing
    # before then; one pass makes its 0-based image array
    blocks, points = [], None
    for bi, block_obj in enumerate(blocks_obj):
        if not isinstance(block_obj, list):
            raise LsFormatError("block %d must be an array" % bi)
        entries = []
        for ei, images in enumerate(block_obj):
            if type(images) is not list or len(images) != degree:
                raise LsFormatError("block %d entry %d: expected an image array of "
                                    "length %d" % (bi, ei, degree))
            if not set(map(type, images)) <= {int}:
                raise LsFormatError("block %d entry %d: images must be integers" % (bi, ei))
            if points is None:
                points = list(range(1, degree + 1))
            if sorted(images) != points:
                raise LsFormatError("block %d entry %d: images do not form a bijection "
                                    "of 0..%d" % (bi, ei, degree - 1))
            entries.append(Permutation._wrap(_raw([x - 1 for x in images], degree)))
        blocks.append(tuple(entries))
    try:
        return LogSignature(degree=degree, blocks=tuple(blocks),
                            group=obj.get("group"), provenance=provenance)
    except ValueError as e:
        raise LsFormatError(str(e)) from e


def loads_ls(text: str) -> LogSignature:
    return _ls_from_obj(_parse_json(text))


def _write_text(text: str, sink: str | IO[str]) -> None:
    """Write to a path (UTF-8) or to an open text stream."""
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sink.write(text)


def _read_text(source: str | IO[str]) -> str:
    """Read a path (UTF-8) or an open text stream to the end."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    return source.read()


def write_ls(ls: LogSignature, sink: str | IO[str]) -> None:
    _write_text(dumps_ls(ls), sink)


def read_ls(source: str | IO[str]) -> LogSignature:
    return loads_ls(_read_text(source))
