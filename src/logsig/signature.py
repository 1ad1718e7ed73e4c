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
from math import prod
from typing import IO

from .arith import PrimeFactorization
from .chain import StabilizerChain
from .perm import Permutation, _digits_of, _identity_raw, _inv_raw, _products

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


class VerificationBudgetError(RuntimeError):
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
        for bi, block in enumerate(self.blocks):
            if not block:
                raise ValueError("block %d is empty" % bi)
            if len(set(block)) != len(block):
                raise ValueError("block %d has repeated entries" % bi)
            for e in block:
                if e.degree != self.degree:
                    raise ValueError(
                        "block %d entry of degree %d in a degree-%d signature"
                        % (bi, e.degree, self.degree))
        ann = self.provenance.annotations
        if ann is not None and len(ann) != len(self.blocks):
            raise ValueError("annotation count %d != block count %d"
                             % (len(ann), len(self.blocks)))

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def product_count(self) -> int:
        return prod(self.block_sizes)


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
    """Enumerate every product of the signature and check pairwise distinctness.

    All block entries are required to be members of the chain's group, so
    distinctness together with a product count equal to the group order is
    equivalent to exactness.  Products are enumerated once, in rank order
    (mixed radix, digits varying fastest in the last block), and a reported
    collision is the first one in that order.

    The index space may be partitioned by the first block's digit and checked
    in parallel workers merging per-worker seen-sets; the verdict does not
    depend on the partitioning.  This implementation runs single-threaded.
    """
    if ls.degree != chain.degree:
        raise ValueError("degree mismatch")
    sizes = ls.block_sizes
    total = ls.product_count()
    if total != chain.order:
        return VerificationReport(
            ok=False, method="exhaustive", products_checked=0,
            detail="size-product mismatch: blocks enumerate %d products, group order is %d"
                   % (total, chain.order))
    if total > budget:
        raise VerificationBudgetError(
            "%d products exceed the budget of %d; use verify_structural" % (total, budget))
    for bi, block in enumerate(ls.blocks):
        for e in block:
            if not chain.contains(e):
                raise ValueError("block %d entry %s is not a group member"
                                 % (bi, e))

    raws = [[e.img for e in block] for block in ls.blocks]
    seen: dict = {}
    for rank, q in enumerate(_products(raws, _identity_raw(ls.degree))):
        first = seen.setdefault(q, rank)
        if first != rank:
            return VerificationReport(
                ok=False, method="exhaustive", products_checked=rank + 1,
                collision=(_digits_of(first, sizes), _digits_of(rank, sizes)),
                detail="identical products at two index tuples")
    return VerificationReport(ok=True, method="exhaustive", products_checked=len(seen))


def _index_levels(ls: LogSignature, chain: StabilizerChain):
    """The one walk over a tame signature's levels: ``(levels, fault, checked)``.

    ``levels`` holds a ``(point, table)`` pair per annotated level for
    :func:`~logsig.perm._sift`; the table maps the base-point image of each
    product of the level's blocks to its digit tuple and inverse.  The walk
    stops at the first fault: annotated levels other than the chain's
    nontrivial ones, an entry outside its level's group, a product count
    other than the orbit size, or a repeated image.  ``fault`` is "" for an
    exact signature; ``checked`` counts the products expanded.  Raises
    ValueError for a degree mismatch and missing or out-of-order annotations.
    """
    if ls.degree != chain.degree:
        raise ValueError("degree mismatch")
    ann = ls.provenance.annotations
    if ls.provenance.tag not in ("chain", "refined") or ann is None:
        raise ValueError("structural verification and tame factorization need "
                         "chain or refined provenance with level annotations")
    grouped: dict[int, list[int]] = {}
    prev = -1
    for bi, a in enumerate(ann):
        if a.level < prev:
            raise ValueError("block annotations out of level order")
        prev = a.level
        grouped.setdefault(a.level, []).append(bi)
    needed = [i for i, lv in enumerate(chain.levels) if len(lv.orbit) > 1]
    if list(grouped) != needed:
        return [], ("annotated levels %s do not match chain levels %s"
                    % (list(grouped), needed)), 0
    levels: list = []
    checked = 0
    for level, block_ids in grouped.items():
        lv = chain.levels[level]
        for bi in block_ids:
            for e in ls.blocks[bi]:
                if not chain.sift(e, start=level).is_identity():
                    return levels, ("block %d entry %s is outside the level-%d group"
                                    % (bi, e, level)), checked
        sizes = [len(ls.blocks[bi]) for bi in block_ids]
        if prod(sizes) != len(lv.orbit):
            return levels, ("level %d blocks enumerate %d products, orbit has %d "
                            "points" % (level, prod(sizes), len(lv.orbit))), checked
        raws = [[e.img for e in ls.blocks[bi]] for bi in block_ids]
        table = {q[lv.point]: (_digits_of(rank, sizes), _inv_raw(q))
                 for rank, q in enumerate(_products(raws, _identity_raw(ls.degree)))}
        checked += len(lv.orbit)
        # every product lies in the level group, so its image lies in the
        # orbit: with as many products as points, distinct images cover it
        if len(table) != len(lv.orbit):
            return levels, ("level %d products repeat a base-point image"
                            % level), checked
        levels.append((lv.point, table))
    return levels, "", checked


def _cover_fault(raw_sets, point: int, orbit, degree: int) -> str | None:
    """Why the product set of ``raw_sets`` does not map ``point`` one to one
    onto ``orbit``, or None when it does."""
    images = [q[point] for q in _products(raw_sets, _identity_raw(degree))]
    if len(set(images)) != len(images):
        return "repeat a base-point image"
    if set(images) != set(orbit):
        return "do not cover the orbit"
    return None


def verify_structural(ls: LogSignature, chain: StabilizerChain) -> VerificationReport:
    """Certify exactness level by level instead of by full enumeration.

    For each annotated level the covering blocks must consist of elements of
    that level's group, and the product set of those blocks must hit every
    point of the level orbit exactly once through the level's base point.
    Together with the chain's own exactness this is sound and complete for
    transversal-structured signatures, at cost O(length * degree) plus the
    expansion of each level's product set (at most the orbit size).  The
    walk is shared with :class:`~logsig.factorize.TameIndexer`, so a
    signature passes exactly when it can be indexed.
    """
    _, fault, checked = _index_levels(ls, chain)
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


def _ls_obj(ls: LogSignature) -> dict:
    obj: dict = {"degree": ls.degree}
    if ls.group is not None:
        obj["group"] = ls.group
    prov: dict = {"tag": ls.provenance.tag}
    if ls.provenance.annotations is not None:
        prov["annotations"] = [_annotation_obj(a) for a in ls.provenance.annotations]
    obj["provenance"] = prov
    obj["blocks"] = [[list(e.images) for e in block] for block in ls.blocks]
    return obj


def dumps_ls(ls: LogSignature) -> str:
    return json.dumps(_ls_obj(ls), indent=2) + "\n"


def _parse_annotation(obj, where: str) -> BlockAnnotation:
    if not isinstance(obj, dict) or not isinstance(obj.get("level"), int):
        raise LsFormatError("%s: annotation must be an object with an integer 'level'"
                            % where)
    for key in ("set_size", "step"):
        if obj.get(key) is not None and not isinstance(obj[key], int):
            raise LsFormatError("%s: annotation %r must be an integer" % (where, key))
    return BlockAnnotation(level=obj["level"],
                           set_size=obj.get("set_size"),
                           step=obj.get("step"))


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise LsFormatError("line %d column %d: %s" % (e.lineno, e.colno, e.msg)) from e


def _ls_from_obj(obj) -> LogSignature:
    if not isinstance(obj, dict):
        raise LsFormatError("top level must be an object")
    try:
        degree = obj["degree"]
        prov_obj = obj["provenance"]
        blocks_obj = obj["blocks"]
    except KeyError as e:
        raise LsFormatError("missing required field %s" % e) from e
    if not isinstance(degree, int) or degree < 0:
        raise LsFormatError("degree must be a nonnegative integer")
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
    blocks = []
    for bi, block_obj in enumerate(blocks_obj):
        if not isinstance(block_obj, list):
            raise LsFormatError("block %d must be an array" % bi)
        entries = []
        for ei, images in enumerate(block_obj):
            where = "block %d entry %d" % (bi, ei)
            if not isinstance(images, list) or len(images) != degree:
                raise LsFormatError("%s: expected an image array of length %d"
                                    % (where, degree))
            try:
                entries.append(Permutation.from_images(images))
            except (ValueError, TypeError) as e:
                raise LsFormatError("%s: %s" % (where, e)) from e
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
