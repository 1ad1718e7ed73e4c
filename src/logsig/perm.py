"""Permutations of {0..n-1} with the composition convention (g*h)(x) = g(h(x)).

In any product written left to right the rightmost factor acts first.  Points
are 0-based throughout the in-memory API; disjoint-cycle *text* and the file
formats use 1-based points, and :func:`parse_cycles` / :func:`format_cycles`
convert at that boundary.
"""

from __future__ import annotations

import math
from itertools import chain as iterchain
from operator import itemgetter
from typing import Iterable

__all__ = ["Permutation", "parse_cycles", "format_cycles", "CycleFormatError"]


class CycleFormatError(ValueError):
    """Malformed disjoint-cycle notation."""


# Image arrays are stored as ``bytes`` for degree <= 256 and as a tuple of
# ints otherwise.  Both are hashable, compact and O(1)-indexable.  The
# helpers below are the only places that care which one they got, apart
# from the exhaustive oracle's key packing (``signature.verify_exhaustive``
# and ``signature._keys``) and the membership shortcut that hashes only
# bytes (``StabilizerChain._forwards``).

def _raw(images: Iterable[int], degree: int):
    if degree <= 256:
        return bytes(images)
    return tuple(images)


# The map-based product, kept for the per-element paths only: ``_sift``'s
# digit walk (tame and generic factorization), ``factorize.reconstruct`` and
# ``StabilizerChain.element_at``.  Each makes at most L - 1 of them for an
# element of L factors: the products start from the first factor, and the
# walk settles its last level by comparison.  That level may merge the last
# runs of a signature's index (``signature._sift_levels``): M24's and
# M22's last two, so factorizing an M24 element through its 7 runs takes
# 5 products.  Every other product (chain building, membership, the
# prefixes of ``_products``, the oracle's heads, PGM key draws,
# ``Permutation`` arithmetic) goes through ``_images``, which gives the
# same bytes about nine times faster at degree 24.  The benchmark
# keeps every op latency, so a faster per-element path reads as a memory
# regression until it keeps them bounded (ROADMAP item 6).  In ``perfbench``
# runs (30 s each, 2-CPU x86-64), ``_sift``'s product step through
# ``_images`` took ``lookup`` ``ops_per_s`` from 35.2k to 51.1k and its
# ``peak_rss_mib`` from 60.9 to 69.7, 59.0 to 71.7 and 61.1 to 74.2 MiB
# (seeds 1-3), past the 0.2 bound on two seeds.  With the per-element
# products through ``_images`` (seed 1), ``construct`` went 86.1k -> 298.7k
# ``ops_per_s`` at 61.0 -> 63.7 MiB and ``verify`` 152.1k -> 346.2k at
# 45.9 -> 46.4 MiB.
def _mul_raw(a, b):
    if type(a) is bytes:
        return bytes(map(a.__getitem__, b))
    # tuple images have degree > 256, so the getter returns a tuple
    return itemgetter(*b)(a)


# appended to a bytes image array to make it a 256-entry translate table
_TAIL = bytes(range(256))


def _products(raw_blocks, pre):
    """Yield ``pre * b_1[d_1] * ... * b_s[d_s]`` for every digit tuple.

    Products come in rank order: mixed radix with the last block varying
    fastest, so the product at rank r has digits ``_digits_of(r, sizes)``.
    A leading prefix is recomputed only when its digit changes, which costs
    one composition per product plus one per change of a leading digit.
    With no blocks the only product is ``pre``.

    Each entry of the last block is mapped point by point through its
    prefix, as :func:`_images` maps it, so it may be any sequence of
    points, longer than the degree too: a packed string of several image
    arrays yields the packed images of the products.
    """
    k = len(raw_blocks) - 1
    if k < 0:
        yield pre
        return
    last = raw_blocks[k]
    through = _through(pre)
    digits = [0] * k
    prefix = [pre]
    for i in range(k):
        prefix.append(_images(prefix[i], raw_blocks[i][0]))
    while True:
        table = _kept(prefix[k])
        for e in last:
            yield through(e, table)
        i = k - 1
        while i >= 0 and digits[i] + 1 == len(raw_blocks[i]):
            digits[i] = 0
            i -= 1
        if i < 0:
            return
        digits[i] += 1
        for j in range(i, k):
            prefix[j + 1] = _images(prefix[j], raw_blocks[j][digits[j]])


def _images(p, points):
    """The images under ``p`` of a packed string of points, as
    :func:`_products` maps one entry of its last block through one prefix.

    One C-level step whatever the string's length: the exhaustive oracle
    expands its tail and its class keys with it, one call per block entry,
    and maps a tail group into a class through one head."""
    if type(p) is bytes:
        return points.translate(p + _TAIL[len(p):])
    return _gathered(points, p)


def _gathered(points, p):
    """:func:`_images` of a tuple image array, arguments swapped."""
    # itemgetter of one point returns the point, not a tuple
    return itemgetter(*points)(p) if len(points) > 1 else (p[points[0]],)


def _kept(raw):
    """``raw`` as a map for :func:`_through`: a bytes image array as its
    256-entry translate table, a tuple as it is."""
    return raw + _TAIL[len(raw):] if type(raw) is bytes else raw


def _through(e):
    """``f(points, kept)``, the images like ``e`` of ``points`` through a map
    :func:`_kept` made: for bytes, ``bytes.translate`` with no Python frame."""
    return bytes.translate if type(e) is bytes else _gathered


def _join(parts, mk):
    """One packed string of image strings of type ``mk``: bytes or tuple."""
    return b"".join(parts) if mk is bytes else tuple(iterchain.from_iterable(parts))


def _digits_of(rank: int, sizes) -> tuple[int, ...]:
    """Mixed-radix digits of ``rank``, the last size least significant."""
    out = []
    for r in reversed(sizes):
        rank, d = divmod(rank, r)
        out.append(d)
    out.reverse()
    return tuple(out)


def _value_of(digits, sizes) -> int:
    """Inverse of :func:`_digits_of`."""
    value = 0
    for d, r in zip(digits, sizes):
        value = value * r + d
    return value


def _sift(raw, levels, identity):
    """Strip ``raw`` level by level: the one walk from an element to its digits.

    ``levels`` is a sequence of ``(point, table)`` pairs with
    ``table[image] = (digits, inverse, forward)``, ``forward`` the entry's
    own image array and ``inverse`` its inverse, as a chain's tables and
    :func:`~logsig.signature._level_table` build them.  At each level the
    image of ``point`` selects an entry, its digits are appended and its
    inverse is multiplied on the left.  Returns ``(residue, digits,
    passed)``; the walk stops at the first image missing from its table, so
    ``passed`` is the number of levels stripped.  Every table holds its own
    point, so a walk that stops early leaves a nonidentity residue.

    The walk serves every tame and generic factorization, a per-element
    path: its products are the map-based :func:`_mul_raw` (see the comment
    there), one per level but the last.  The last level is settled by one
    lookup and one comparison: the residue after it is the identity
    exactly when the residue before it equals the selected entry's forward
    image.  Only a non-member that differs from it is multiplied there.
    That level's ``point`` may be a function that reads a tuple of images:
    the points of several merged runs
    (:func:`~logsig.signature._sift_levels`), whose entries are ``(digits,
    forward)`` and whose miss leaves ``passed`` at its index, or no point
    at all at degree 0.
    """
    out = ()
    last = len(levels) - 1
    for passed, (point, table) in enumerate(levels):
        if passed == last:
            break
        hit = table.get(raw[point])
        if hit is None:
            return raw, out, passed
        out += hit[0]
        raw = _mul_raw(hit[1], raw)
    else:  # no levels
        return raw, out, 0
    hit = table.get(raw[point] if type(point) is int else point(raw))
    if hit is None:
        return raw, out, last
    out += hit[0]
    if raw == hit[-1]:
        return identity, out, len(levels)
    return _mul_raw(_inv_raw(hit[-1]), raw), out, len(levels)


def _inv_raw(a):
    n = len(a)
    if type(a) is bytes:
        # the translate table that sends a[i] to i, cut to the degree
        return bytes.maketrans(a, _TAIL[:n])[:n]
    out = [0] * n
    for i, j in enumerate(a):
        out[j] = i
    return _raw(out, n)


def _identity_raw(n: int):
    return _raw(range(n), n)


def _order_raw(a) -> int:
    """Least t >= 1 with a**t the identity.

    A bytes image array is multiplied by ``a`` through one translate table
    until it is the identity, for at most ``len(a)`` steps; an order above
    the degree, and a tuple image array, take the lcm of the cycle lengths.
    """
    n = len(a)
    if type(a) is bytes:
        identity = _TAIL[:n]
        table = a + _TAIL[n:]
        cur = a
        for t in range(1, n + 1):
            if cur == identity:
                return t
            cur = cur.translate(table)
    out = 1
    seen = bytearray(n)
    for i in range(n):
        if seen[i] or a[i] == i:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = 1
            j = a[j]
            length += 1
        out = math.lcm(out, length)
    return out


class Permutation:
    """An immutable bijection of {0..n-1}, stored as its image array.

    ``g.img[x]`` is the image of point ``x``; ``g * h`` applies ``h`` first.
    Instances are hashable and totally determined by the image array.
    """

    __slots__ = ("img",)

    def __init__(self, images: Iterable[int]):
        seq = list(images)
        n = len(seq)
        if sorted(seq) != list(range(n)):
            raise ValueError("images do not form a bijection of 0..%d" % (n - 1))
        self.img = _raw(seq, n)

    @classmethod
    def _wrap(cls, raw) -> "Permutation":
        # internal: trusted raw image array, skips validation
        p = object.__new__(cls)
        p.img = raw
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._wrap(_identity_raw(degree))

    @classmethod
    def from_images(cls, images_1based: Iterable[int]) -> "Permutation":
        """Build from a 1-based image list, as used by the file formats."""
        return cls(x - 1 for x in images_1based)

    @property
    def degree(self) -> int:
        return len(self.img)

    @property
    def images(self) -> tuple[int, ...]:
        """1-based image tuple (external convention)."""
        return tuple(x + 1 for x in self.img)

    def __call__(self, point: int) -> int:
        return self.img[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.img) != len(other.img):
            raise ValueError("degree mismatch: %d vs %d" % (len(self.img), len(other.img)))
        return Permutation._wrap(_images(self.img, other.img))

    def __pow__(self, exponent: int) -> "Permutation":
        n = len(self.img)
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _identity_raw(n)
        base = self.img
        e = exponent
        while e:
            if e & 1:
                result = _images(base, result)
            base = _images(base, base)
            e >>= 1
        return Permutation._wrap(result)

    def inverse(self) -> "Permutation":
        return Permutation._wrap(_inv_raw(self.img))

    def is_identity(self) -> bool:
        return self.img == _identity_raw(len(self.img))

    def order(self) -> int:
        """Least t >= 1 with self**t equal to the identity (lcm of cycle lengths)."""
        return _order_raw(self.img)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical nontrivial cycles: each starts at its least point, sorted by it."""
        img = self.img
        seen = set()
        out = []
        for i in range(len(img)):
            if i in seen or img[i] == i:
                continue
            cyc = [i]
            j = img[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = img[j]
            out.append(tuple(cyc))
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.img == other.img

    def __hash__(self) -> int:
        return hash(self.img)

    def __repr__(self) -> str:
        return "Permutation[%d](%s)" % (self.degree, format_cycles(self))


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint-cycle notation, e.g. ``"(1,4,3,8)(2,5,6,9)"``.

    Fixed points are omitted; ``"()"`` denotes the identity.  Raises
    :class:`CycleFormatError` on repeated points, points outside 1..degree
    or malformed parentheses.
    """
    img = list(range(degree))
    seen: set[int] = set()
    s = "".join(text.split())
    if not s:
        raise CycleFormatError("empty permutation text")
    pos = 0
    while pos < len(s):
        if s[pos] != "(":
            raise CycleFormatError("expected '(' at position %d in %r" % (pos, text))
        end = s.find(")", pos)
        if end < 0:
            raise CycleFormatError("unclosed '(' at position %d in %r" % (pos, text))
        body = s[pos + 1:end]
        pos = end + 1
        if not body:
            continue
        points = []
        for tok in body.split(","):
            if not tok.isdigit():
                raise CycleFormatError("bad point %r in %r" % (tok, text))
            p = int(tok)
            if not 1 <= p <= degree:
                raise CycleFormatError("point %d out of range 1..%d" % (p, degree))
            if p - 1 in seen:
                raise CycleFormatError("repeated point %d in %r" % (p, text))
            seen.add(p - 1)
            points.append(p - 1)
        for i, p in enumerate(points):
            img[p] = points[(i + 1) % len(points)]
    return Permutation(img)


def format_cycles(g: Permutation) -> str:
    """Canonical 1-based cycle text; inverse of :func:`parse_cycles`."""
    cycs = g.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycs)
