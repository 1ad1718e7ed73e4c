"""Recovering the unique factorization of a group element with respect to a
signature: constant lookups per level for transversal-structured (tame)
signatures, meet-in-the-middle for everything else.
"""

from __future__ import annotations

from math import prod

from .chain import StabilizerChain
from .perm import Permutation, _digits_of, _identity_raw, _inv_raw, _mul_raw, _products
from .signature import LogSignature, _levels_of

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
    """

    def __init__(self, ls: LogSignature, chain: StabilizerChain):
        grouped = _levels_of(ls)
        if ls.degree != chain.degree:
            raise ValueError("degree mismatch")
        self.ls = ls
        self.chain = chain
        self._levels = []
        for level, block_ids in sorted(grouped.items()):
            if not 0 <= level < len(chain.levels):
                raise ValueError("annotated level %d outside the chain's %d levels"
                                 % (level, len(chain.levels)))
            lv = chain.levels[level]
            raws = [[e.img for e in ls.blocks[bi]] for bi in block_ids]
            sizes = [len(r) for r in raws]
            if prod(sizes) != len(lv.orbit):
                raise ValueError("level %d blocks enumerate %d products, orbit has %d"
                                 % (level, prod(sizes), len(lv.orbit)))
            table: dict[int, tuple[tuple[int, ...], object]] = {}
            for rank, q in enumerate(_products(raws, _identity_raw(ls.degree))):
                image = q[lv.point]
                if image in table:
                    raise ValueError("level %d products repeat image %d; "
                                     "signature is corrupt" % (level, image))
                table[image] = (_digits_of(rank, sizes), _inv_raw(q))
            self._levels.append((lv.point, table))

    def digits(self, g: Permutation) -> tuple[int, ...]:
        if g.degree != self.ls.degree:
            raise ValueError("degree mismatch")
        raw = g.img
        out: tuple[int, ...] = ()
        for point, table in self._levels:
            hit = table.get(raw[point])
            if hit is None:
                raise FactorizationError(
                    "no block entry matches image of point %d; element is not "
                    "a member (or the signature is corrupt)" % point)
            digits, inv_pre = hit
            out += digits
            raw = _mul_raw(inv_pre, raw)
        if any(i != j for i, j in enumerate(raw)):
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


def factorize_generic(g: Permutation, ls: LogSignature,
                      budget: int = 10_000_000,
                      store_cap: int = 100_000) -> tuple[int, ...]:
    """Meet-in-the-middle factorization over a balanced block split.

    The blocks are split so the two half-products are as balanced as
    possible; the smaller half is expanded into a lookup table (at most
    ``store_cap`` products), the larger is scanned in enumeration order.
    Agrees with :func:`factorize_tame` wherever both apply.
    """
    if g.degree != ls.degree:
        raise ValueError("degree mismatch")
    sizes = ls.block_sizes
    total = prod(sizes)
    if total > budget:
        raise ValueError("%d products exceed the budget of %d" % (total, budget))
    split = min(range(len(sizes) + 1),
                key=lambda t: (max(prod(sizes[:t]), prod(sizes[t:])), t))
    left_n, right_n = prod(sizes[:split]), prod(sizes[split:])
    if min(left_n, right_n) > store_cap:
        raise ValueError("smaller half-product %d exceeds store cap %d"
                         % (min(left_n, right_n), store_cap))
    # store the smaller half's products by rank, then scan the other half in
    # rank order for the partner that completes g
    raws = [[e.img for e in block] for block in ls.blocks]
    scan_right = left_n <= right_n
    stored_raws, scan_raws = ((raws[:split], raws[split:]) if scan_right
                              else (raws[split:], raws[:split]))
    e = _identity_raw(ls.degree)
    graw = g.img
    stored: dict = {}
    for rank, p in enumerate(_products(stored_raws, e)):
        stored.setdefault(p, rank)
    for rank, p in enumerate(_products(scan_raws, e)):
        p_inv = _inv_raw(p)
        hit = stored.get(_mul_raw(graw, p_inv) if scan_right else _mul_raw(p_inv, graw))
        if hit is not None:
            left, right = (hit, rank) if scan_right else (rank, hit)
            return _digits_of(left * right_n + right, sizes)
    raise FactorizationError("element has no factorization; not a group member")
