"""Recovering the unique factorization of a group element with respect to a
signature by a sift through runs read off its entries: certified against a
chain (tame), or without one (generic), which falls back to
meet-in-the-middle where there are no runs.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .chain import StabilizerChain
from .perm import (Permutation, _digits_of, _identity_raw, _inv_raw, _mul_raw,
                   _products, _sift)
from .signature import DEFAULT_BUDGET, LogSignature, _index_levels, _run_levels

__all__ = ["TameIndexer", "FactorizationError", "factorize_tame",
           "factorize_generic", "reconstruct"]


class FactorizationError(ValueError):
    """Element has no factorization: not a member, or the signature is corrupt."""


class TameIndexer:
    """Per-run lookup tables turning point images into block digits.

    The runs are read off the entries (in a chain or refined signature
    they are the chain's nontrivial levels, at its base points).  Each
    run's table maps the image of its point under a product of the run's
    blocks to the product's digits and inverse, so factorization strips
    one digit group per run, at cost O(runs * degree) per element.

    The index is the structural oracle's, so construction certifies the
    signature whatever its tag or annotations: it raises ValueError with
    the fault :func:`~logsig.signature.verify_structural` reports for it.
    """

    def __init__(self, ls: LogSignature, chain: StabilizerChain):
        self._levels, fault, _ = _index_levels(ls, chain)
        if fault:
            raise ValueError(fault)
        self.ls = ls
        self._identity = _identity_raw(ls.degree)

    def digits(self, g: Permutation) -> tuple[int, ...]:
        if g.degree != self.ls.degree:
            raise ValueError("degree mismatch")
        raw, out, passed = _sift(g.img, self._levels, self._identity)
        if passed < len(self._levels):
            raise FactorizationError(
                "no block entry matches image of point %d; element is not "
                "a member (or the signature is corrupt)" % (self._levels[passed][0] + 1))
        if raw != self._identity:
            raise FactorizationError("nonidentity residue; element is not a member")
        return out


def factorize_tame(g: Permutation, indexer: TameIndexer) -> tuple[int, ...]:
    """Digit tuple of ``g``: one entry per block, ``reconstruct`` inverts it."""
    return indexer.digits(g)


def reconstruct(ls: LogSignature, digits: tuple[int, ...]) -> Permutation:
    """Product of the selected entries, leftmost block outermost.

    It starts from the first entry's image, not the identity, so ``L``
    blocks take ``L - 1`` products, each a map-based ``_mul_raw``: this is
    a per-element path."""
    if len(digits) != len(ls.blocks):
        raise ValueError("expected %d digits, got %d" % (len(ls.blocks), len(digits)))
    images = []
    for block, d in zip(ls.blocks, digits):
        if not 0 <= d < len(block):
            raise ValueError("digit %d out of range for a block of %d" % (d, len(block)))
        images.append(block[d].img)
    return Permutation._wrap(reduce(_mul_raw, images) if images
                             else _identity_raw(ls.degree))


class _GenericIndex(NamedTuple):
    """Everything a generic factorization reads that does not depend on g,
    in one of two forms.  ``runs`` is the run form: the ``(point, table)``
    pairs :func:`~logsig.perm._sift` walks, and the identity a member
    leaves.  ``mitm`` is the meet-in-the-middle form ``(sizes, total,
    right_n, scan_right, stored, scan)``: the block sizes, the product
    count, the right half's size, which half is scanned, and the two
    halves."""

    runs: tuple | None
    mitm: tuple | None


def _generic_index(ls: LogSignature, budget: int) -> _GenericIndex:
    """The per-signature index of :func:`factorize_generic`.

    The run form is taken when :func:`~logsig.signature._run_levels`
    finds runs whose tables hold at most ``left_n + right_n`` products, as
    many as the meet-in-the-middle form's two halves: the index tame
    factorization reads, without the chain's certificate.  It is built
    whatever the product count.  Otherwise ``budget`` is checked against
    the product count before the meet-in-the-middle form is built; since
    ``left_n * right_n`` is the product count, the stored half holds at
    most its square root.

    In the meet-in-the-middle form, scanning the right half, ``stored``
    maps each left product to its first rank and ``scan`` lists the right
    products' inverses, so scanning ``g * right^-1`` finds ``left``.
    Scanning the left half, ``stored`` maps each right product's inverse to
    its first rank and ``scan`` lists the left products, so scanning
    ``g^-1 * left`` finds ``right^-1``.  Either way ``scan`` is in rank
    order, so the first hit is the one the direct scan finds.
    """
    sizes = ls.block_sizes
    prefix = list(accumulate(sizes, mul, initial=1))
    total = prefix[-1]
    split = min(range(len(sizes) + 1),
                key=lambda t: (max(prefix[t], total // prefix[t]), t))
    left_n, right_n = prefix[split], total // prefix[split]
    e = _identity_raw(ls.degree)
    levels, fault = _run_levels(ls, left_n + right_n)
    if not fault:
        return _GenericIndex((levels, e), None)
    if total > budget:
        raise ValueError("%d products exceed the budget of %d" % (total, budget))
    raws = [[x.img for x in block] for block in ls.blocks]
    left = _products(raws[:split], e)
    right = map(_inv_raw, _products(raws[split:], e))
    scan_right = left_n <= right_n
    stored_half, scan_half = (left, right) if scan_right else (right, left)
    stored: dict = {}
    for rank, p in enumerate(stored_half):
        stored.setdefault(p, rank)
    return _GenericIndex(None, (sizes, total, right_n, scan_right, stored,
                                list(scan_half)))


def factorize_generic(g: Permutation, ls: LogSignature,
                      budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Factorization of ``g`` without a chain: sifting through runs read
    off the entries where they exist, meet-in-the-middle otherwise.

    The run form needs a split of the blocks into runs, each with a point
    that every entry after the run fixes and that the run's products send
    to distinct points.  A product then sends the first run's point where
    its first-run factor does, so that factor is read off one table;
    stripping it, induction on the runs shows the product map is one to
    one, and the sift finds the element's only factorization.  A missed
    lookup or a nonidentity residue means there is none.

    Otherwise the blocks are split so the two half-products are as
    balanced as possible; the smaller half is expanded into a lookup table,
    the larger is scanned in enumeration order, and the first hit is
    returned.  The run form is taken only when its tables hold no more
    products than the two halves.  Both forms give the same digits
    wherever both apply, and agree with :func:`factorize_tame`.

    ``budget`` bounds the products meet-in-the-middle composes: it is
    checked against the product count before that form is built and on
    every call that scans it.  The run form, at most one product per run
    per element from tables of at most ``left_n + right_n`` products, is
    not limited.  The index is independent of ``g``: it is built on the
    first call and kept on the signature object, outside its fields, so
    the signature's value, equality and hash never change.
    """
    if g.degree != ls.degree:
        raise ValueError("degree mismatch")
    index = getattr(ls, "_generic_index", None)
    if index is None:
        # two threads that race here store equal indexes
        index = _generic_index(ls, budget)
        object.__setattr__(ls, "_generic_index", index)
    runs, mitm = index
    if runs is not None:
        levels, identity = runs
        raw, digits, passed = _sift(g.img, levels, identity)
        if passed == len(levels) and raw == identity:
            return digits
    else:
        sizes, total, right_n, scan_right, stored, scan = mitm
        if total > budget:
            raise ValueError("%d products exceed the budget of %d" % (total, budget))
        pre = g.img if scan_right else _inv_raw(g.img)
        for rank, p in enumerate(_products([scan], pre)):
            hit = stored.get(p)
            if hit is not None:
                left, right = (hit, rank) if scan_right else (rank, hit)
                return _digits_of(left * right_n + right, sizes)
    raise FactorizationError("element has no factorization; it is not a member "
                             "(or the signature is not exact)")
