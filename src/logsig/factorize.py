"""Recovering the unique factorization of a group element with respect to a
signature by a sift through runs read off its entries: certified against a
chain (tame), or without one (generic), which falls back to
meet-in-the-middle where there are no runs.
"""

from __future__ import annotations

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
        raw, out, passed = _sift(g.img, self._levels)
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
    """Product of the selected entries, leftmost block outermost."""
    if len(digits) != len(ls.blocks):
        raise ValueError("expected %d digits, got %d" % (len(ls.blocks), len(digits)))
    raw = _identity_raw(ls.degree)
    for block, d in zip(ls.blocks, digits):
        if not 0 <= d < len(block):
            raise ValueError("digit %d out of range for a block of %d" % (d, len(block)))
        raw = _mul_raw(raw, block[d].img)
    return Permutation._wrap(raw)


class _GenericIndex(NamedTuple):
    """Everything a generic factorization reads that does not depend on g:
    the block sizes, the product count, the balanced split's two half
    sizes, and one of two forms.  ``runs`` is the run form: the ``(point,
    table)`` pairs :func:`~logsig.perm._sift` walks, and the identity a
    member leaves.  ``mitm`` is the meet-in-the-middle form ``(stored,
    scan)``."""

    sizes: tuple[int, ...]
    total: int
    left_n: int
    right_n: int
    runs: tuple | None
    mitm: tuple | None


def _check_limits(total: int, left_n: int, right_n: int, budget: int) -> None:
    if total > budget:
        raise ValueError("%d products exceed the budget of %d" % (total, budget))
    if min(left_n, right_n) > _STORE_CAP:
        raise ValueError("smaller half-product %d exceeds store cap %d"
                         % (min(left_n, right_n), _STORE_CAP))


def _generic_index(ls: LogSignature, budget: int) -> _GenericIndex:
    """The per-signature index of :func:`factorize_generic`.

    The limits are checked before either form is built.  The run form is
    taken when :func:`~logsig.signature._run_levels` finds runs whose
    tables hold at most ``left_n + right_n`` products, as many as the
    meet-in-the-middle form's two halves: the index tame factorization
    reads, without the chain's certificate.

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
    _check_limits(total, left_n, right_n, budget)
    e = _identity_raw(ls.degree)
    levels, fault = _run_levels(ls, left_n + right_n)
    if not fault:
        return _GenericIndex(sizes, total, left_n, right_n, (levels, e), None)
    raws = [[x.img for x in block] for block in ls.blocks]
    left = _products(raws[:split], e)
    right = map(_inv_raw, _products(raws[split:], e))
    stored_half, scan_half = (left, right) if left_n <= right_n else (right, left)
    stored: dict = {}
    for rank, p in enumerate(stored_half):
        stored.setdefault(p, rank)
    return _GenericIndex(sizes, total, left_n, right_n, None, (stored, list(scan_half)))


_STORE_CAP = 100_000  # most products the stored half of a split may hold


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
    balanced as possible; the smaller half is expanded into a lookup table
    (at most 100,000 products), the larger is scanned in enumeration
    order, and the first hit is returned.  The run form is taken only when
    its tables hold no more products than the two halves.  Both forms give
    the same digits wherever both apply, and agree with
    :func:`factorize_tame`.

    The index is independent of ``g``: it holds the block sizes, the
    product count, the split's half sizes and one form.  It is built on
    the first call and kept on the signature object, outside its fields,
    so the signature's value, equality and hash never change.  Every call
    checks ``budget`` and the store cap against the product count and the
    smaller half, as meet-in-the-middle needs, whichever form it reads.
    """
    if g.degree != ls.degree:
        raise ValueError("degree mismatch")
    index = getattr(ls, "_generic_index", None)
    if index is None:
        # two threads that race here store equal indexes
        index = _generic_index(ls, budget)
        object.__setattr__(ls, "_generic_index", index)
    sizes, total, left_n, right_n, runs, mitm = index
    _check_limits(total, left_n, right_n, budget)
    if runs is not None:
        levels, identity = runs
        raw, digits, passed = _sift(g.img, levels)
        if passed == len(levels) and raw == identity:
            return digits
    else:
        stored, scan = mitm
        scan_right = left_n <= right_n
        pre = g.img if scan_right else _inv_raw(g.img)
        for rank, p in enumerate(_products([scan], pre)):
            hit = stored.get(p)
            if hit is not None:
                left, right = (hit, rank) if scan_right else (rank, hit)
                return _digits_of(left * right_n + right, sizes)
    raise FactorizationError("element has no factorization; it is not a member "
                             "(or the signature is not exact)")
