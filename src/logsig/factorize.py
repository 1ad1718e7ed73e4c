"""Recovering the unique factorization of a group element with respect to a
signature: constant lookups per level for transversal-structured (tame)
signatures, meet-in-the-middle for everything else.
"""

from __future__ import annotations

import weakref
from itertools import accumulate
from operator import mul

from .chain import StabilizerChain
from .perm import (Permutation, _digits_of, _identity_raw, _inv_raw, _mul_raw,
                   _products, _sift)
from .signature import LogSignature, _index_levels

__all__ = ["TameIndexer", "FactorizationError", "factorize_tame",
           "factorize_generic", "reconstruct"]


class FactorizationError(ValueError):
    """Element has no factorization: not a member, or the signature is corrupt."""


class TameIndexer:
    """Per-level lookup tables turning base-point images into block digits.

    For each chain level covered by the signature, the table maps the image
    of the level's base point under a product-set element to that element's
    digit tuple and inverse, so factorization reads one digit group per level
    and strips it off, at cost O(levels * degree) per element.  Construction
    expands each level's product set, which is at most orbit-sized.

    Building the tables is the walk of the structural oracle, so
    construction certifies the signature: it raises ValueError with the
    fault :func:`~logsig.signature.verify_structural` reports for it.
    """

    def __init__(self, ls: LogSignature, chain: StabilizerChain):
        self._levels, fault, _ = _index_levels(ls, chain)
        if fault:
            raise ValueError(fault)
        self.ls = ls
        self.chain = chain
        self._identity = _identity_raw(ls.degree)

    def digits(self, g: Permutation) -> tuple[int, ...]:
        if g.degree != self.ls.degree:
            raise ValueError("degree mismatch")
        raw, out, passed = _sift(g.img, self._levels)
        if passed < len(self._levels):
            raise FactorizationError(
                "no block entry matches image of point %d; element is not "
                "a member (or the signature is corrupt)" % self._levels[passed][0])
        if raw != self._identity:
            raise FactorizationError("nonidentity residue; element is not a member")
        return out


def factorize_tame(g: Permutation, indexer: TameIndexer) -> tuple[int, ...]:
    """Digit tuple of ``g``: one entry per block, ``reconstruct`` inverts it."""
    return indexer.digits(g)


def reconstruct(ls: LogSignature, digits: tuple[int, ...]) -> Permutation:
    """Product of the selected entries, leftmost block outermost."""
    if len(digits) != len(ls.blocks):
        raise ValueError("expected %d digits, got %d" % (len(ls.blocks), len(digits)))
    raw = _identity_raw(ls.degree)
    for block, d in zip(ls.blocks, digits):
        if not 0 <= d < len(block):
            raise ValueError("digit %d out of range for a block of %d" % (d, len(block)))
        raw = _mul_raw(raw, block[d].img)
    return Permutation._wrap(raw)


def _generic_index(ls: LogSignature, split: int, scan_right: bool):
    """The g-independent half of a meet-in-the-middle split ``g = left * right``.

    Returns ``(stored, scan)``.  Scanning the right half, ``stored`` maps
    each left product to its first rank and ``scan`` lists the right
    products' inverses, so scanning ``g * right^-1`` finds ``left``.
    Scanning the left half, ``stored`` maps each right product's inverse to
    its first rank and ``scan`` lists the left products, so scanning
    ``g^-1 * left`` finds ``right^-1``.  Either way ``scan`` is in rank
    order, so the first hit is the one the direct scan finds.
    """
    raws = [[e.img for e in block] for block in ls.blocks]
    e = _identity_raw(ls.degree)
    left = _products(raws[:split], e)
    right = map(_inv_raw, _products(raws[split:], e))
    stored_half, scan_half = (left, right) if scan_right else (right, left)
    stored: dict = {}
    for rank, p in enumerate(stored_half):
        stored.setdefault(p, rank)
    return stored, list(scan_half)


# one index per live signature; an index holds no reference to its signature,
# and two threads that build one for the same signature build equal ones
_indexes: "weakref.WeakKeyDictionary[LogSignature, tuple[dict, list]]" = \
    weakref.WeakKeyDictionary()


def factorize_generic(g: Permutation, ls: LogSignature,
                      budget: int = 10_000_000,
                      store_cap: int = 100_000) -> tuple[int, ...]:
    """Meet-in-the-middle factorization over a balanced block split.

    The blocks are split so the two half-products are as balanced as
    possible; the smaller half is expanded into a lookup table (at most
    ``store_cap`` products), the larger is scanned in enumeration order.
    Agrees with :func:`factorize_tame` wherever both apply.

    Both halves are independent of ``g``: they are built into an index on
    the first call and reused while the signature lives.  The index holds
    at most ``store_cap`` stored products plus the larger half's images,
    and a call maps the larger half through ``g`` (or ``g^-1``) in one
    pass, in the same scan order, so the first hit is unchanged.
    """
    if g.degree != ls.degree:
        raise ValueError("degree mismatch")
    sizes = ls.block_sizes
    prefix = list(accumulate(sizes, mul, initial=1))
    total = prefix[-1]
    if total > budget:
        raise ValueError("%d products exceed the budget of %d" % (total, budget))
    split = min(range(len(sizes) + 1),
                key=lambda t: (max(prefix[t], total // prefix[t]), t))
    left_n, right_n = prefix[split], total // prefix[split]
    if min(left_n, right_n) > store_cap:
        raise ValueError("smaller half-product %d exceeds store cap %d"
                         % (min(left_n, right_n), store_cap))
    scan_right = left_n <= right_n
    index = _indexes.get(ls)
    if index is None:
        index = _indexes[ls] = _generic_index(ls, split, scan_right)
    stored, scan = index
    pre = g.img if scan_right else _inv_raw(g.img)
    for rank, p in enumerate(_products([scan], pre)):
        hit = stored.get(p)
        if hit is not None:
            left, right = (hit, rank) if scan_right else (rank, hit)
            return _digits_of(left * right_n + right, sizes)
    raise FactorizationError("element has no factorization; not a group member")
