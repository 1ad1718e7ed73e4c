"""Bundled groups and the sporadic-group arithmetic checker.

Every entry is a set of permutations and the order they must generate.
Fixed groups (the Mathieu groups and two linear groups) are read from
generator files in ``data/``; parametric families (cyclic, dihedral,
symmetric, alternating) and a few small named groups are built on demand.  The
``data/sporadic_claims.json`` table transcribes published arithmetic claims
about minimal logarithmic signatures of thirteen sporadic groups;
:func:`check_claim_arithmetic` validates each row with exact integers and
reports discrepancies without ever correcting them.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from importlib import resources
from math import factorial, prod
from typing import IO

from .arith import factor_integer, is_probable_prime
from .chain import GeneratorSet, StabilizerChain, build_chain
from .perm import Permutation, format_cycles, parse_cycles
from .signature import _read_text, _write_text, minimal_length

__all__ = [
    "CatalogError",
    "GroupSpec",
    "SporadicClaim",
    "ClaimReport",
    "bundled_group_names",
    "get_spec",
    "load_group",
    "load_verified_chain",
    "read_group_file",
    "write_group_file",
    "sporadic_claims",
    "check_claim_arithmetic",
    "sporadic_minimal_lengths",
]


class CatalogError(ValueError):
    """Unknown group name, unreadable file, or corrupted bundled data."""


@dataclass(frozen=True)
class GroupSpec:
    """A named group: its generators and the order they must generate."""

    name: str
    generators: GeneratorSet
    expected_order: int


def _spec(name: str, gens: tuple[Permutation, ...], order: int) -> GroupSpec:
    return GroupSpec(name, GeneratorSet(gens[0].degree, gens, name=name), order)


def _data_text(fname: str) -> str:
    return resources.files(__package__).joinpath("data", fname).read_text("utf-8")


# name -> (file, expected order)
_FILE_GROUPS = {
    "M11": ("m11.grp", 7920),  # classical generators; 4-transitive on 11 points
    "M12": ("m12.grp", 95040),  # classical generators; sharply 5-transitive
    "M22": ("m22.grp", 443520),  # two-point stabilizer of the degree-24 group, relabeled
    "M24": ("m24.grp", 244823040),  # classical generators; 5-transitive on 24 points
    "PSL(2,7)": ("psl27.grp", 168),  # projective line over F7: x+1 and -1/x
    "PSL(2,11)": ("psl211.grp", 660),  # projective line over F11: x+1 and -1/x
}


def _cycle(degree: int, first: int, last: int) -> Permutation:
    """The cycle (first, first+1, ..., last) of 0-based points; the rest are fixed."""
    img = list(range(degree))
    img[first:last + 1] = [*range(first + 1, last + 1), first]
    return Permutation(img)


def _cyclic_spec(n: int) -> GroupSpec:
    # a single n-cycle
    if n < 1:
        raise CatalogError("cyclic groups C<n> need n >= 1")
    return _spec("C%d" % n, (_cycle(n, 0, n - 1),), n)


def _dihedral_spec(n: int) -> GroupSpec:
    # rotation and the reflection x -> -x fixing point 1
    if n < 3:
        raise CatalogError("dihedral groups need at least 3 points")
    reflection = Permutation([0, *range(n - 1, 0, -1)])
    return _spec("D%d" % n, (_cycle(n, 0, n - 1), reflection), 2 * n)


def _symmetric_spec(n: int) -> GroupSpec:
    # a transposition and an n-cycle; below three points the cycle alone
    d = max(n, 1)
    cycle = _cycle(d, 0, d - 1)
    return _spec("S%d" % n, (_cycle(d, 0, 1), cycle) if n > 2 else (cycle,), factorial(n))


def _alternating_spec(n: int) -> GroupSpec:
    # a 3-cycle and the longest even cycle through consecutive points
    name = "A%d" % n
    if n <= 2:
        return _spec(name, (Permutation.identity(max(n, 1)),), 1)
    if n == 3:
        return _spec(name, (_cycle(3, 0, 2),), 3)
    return _spec(name, (_cycle(n, 0, 2), _cycle(n, 1 - n % 2, n - 1)), factorial(n) // 2)


def _q8_spec() -> GroupSpec:
    # quaternion units acting on themselves by left multiplication:
    # 1:1, 2:-1, 3:i, 4:-i, 5:j, 6:-j, 7:k, 8:-k
    return _spec("Q8", (parse_cycles("(1,3,2,4)(5,7,6,8)", 8),
                        parse_cycles("(1,5,2,6)(3,8,4,7)", 8)), 8)


def _sl23_spec() -> GroupSpec:
    # 2x2 matrices over F3 acting on the eight nonzero vectors of F3^2,
    # labeled in lexicographic order
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}

    def mat_perm(m):
        return Permutation(idx[((m[0][0] * x + m[0][1] * y) % 3,
                                (m[1][0] * x + m[1][1] * y) % 3)] for x, y in vecs)

    return _spec("SL(2,3)", (mat_perm([[0, 2], [1, 0]]),    # order 4
                             mat_perm([[1, 1], [0, 1]])),   # order 3
                 24)


def _elementary_2cubed_spec() -> GroupSpec:
    # three disjoint transpositions
    return _spec("2^3", tuple(parse_cycles(c, 6) for c in ("(1,2)", "(3,4)", "(5,6)")), 8)


_NAMED_BUILDERS = {
    "Q8": _q8_spec,
    "SL(2,3)": _sl23_spec,
    "2^3": _elementary_2cubed_spec,
}

_FAMILIES = {"C": _cyclic_spec, "D": _dihedral_spec, "S": _symmetric_spec, "A": _alternating_spec}

_PARAMETRIC = re.compile(r"^([CDSA])(\d+)$")

# largest degree accepted from a parametric name or a generator file header
_MAX_DEGREE = 10 ** 6


def bundled_group_names() -> tuple[str, ...]:
    """Fixed catalog names; parametric C<n>, D<n>, S<n>, A<n> also resolve."""
    return tuple(sorted(_FILE_GROUPS)) + tuple(sorted(_NAMED_BUILDERS))


def get_spec(name: str) -> GroupSpec:
    if name in _FILE_GROUPS:
        fname, order = _FILE_GROUPS[name]
        return GroupSpec(name, read_group_file_text(_data_text(fname), name), order)
    if name in _NAMED_BUILDERS:
        return _NAMED_BUILDERS[name]()
    m = _PARAMETRIC.match(name)
    if m:
        kind, n = m.group(1), int(m.group(2))
        if n > _MAX_DEGREE:
            raise CatalogError("parametric degree %d too large" % n)
        return _FAMILIES[kind](n)
    raise CatalogError("unknown group %r; bundled names: %s, plus C<n>, D<n>, "
                       "S<n>, A<n>" % (name, ", ".join(bundled_group_names())))


def load_group(name_or_path: str) -> GeneratorSet:
    """Resolve a catalog name, falling back to a generator file path."""
    try:
        spec = get_spec(name_or_path)
    except CatalogError:
        if os.path.exists(name_or_path):
            return read_group_file(name_or_path)
        raise
    return spec.generators


def load_verified_chain(name: str, base_hint=None) -> StabilizerChain:
    """Build the chain and assert the catalog's expected order.

    A mismatch signals corrupted bundled data and raises CatalogError.
    """
    spec = get_spec(name)
    chain = build_chain(spec.generators, base_hint)
    if chain.order != spec.expected_order:
        raise CatalogError("group %s built with order %d, expected %d "
                           "(corrupted data?)" % (name, chain.order, spec.expected_order))
    return chain


# -- generator file format ----------------------------------------------------
#
# UTF-8 text.  First significant line: "degree N".  Every following nonempty
# line that does not start with '#' is one generator in disjoint-cycle
# notation with 1-based points.

def read_group_file_text(text: str, name: str | None = None) -> GeneratorSet:
    degree = None
    gens = []
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if degree is None:
            m = re.match(r"^degree\s+(\d+)$", line)
            if not m:
                raise CatalogError("line %d: expected 'degree N', got %r"
                                   % (lineno, line))
            degree = int(m.group(1))
            if degree > _MAX_DEGREE:
                raise CatalogError("line %d: degree %d exceeds %d"
                                   % (lineno, degree, _MAX_DEGREE))
            continue
        try:
            gens.append(parse_cycles(line, degree))
        except ValueError as e:
            raise CatalogError("line %d: %s" % (lineno, e)) from e
    if degree is None:
        raise CatalogError("missing 'degree N' header line")
    if not gens:
        gens.append(Permutation.identity(degree))
    return GeneratorSet(degree, tuple(gens), name=name)


def read_group_file(source: str | IO[str]) -> GeneratorSet:
    """Parse a generator file; a path also names the set after its stem."""
    name = os.path.splitext(os.path.basename(source))[0] if isinstance(source, str) else None
    return read_group_file_text(_read_text(source), name=name)


def write_group_file(gens: GeneratorSet, sink: str | IO[str]) -> None:
    """Canonical form: degree header, one generator per line, no comments."""
    lines = ["degree %d" % gens.degree]
    lines += [format_cycles(g) for g in gens.gens]
    _write_text("\n".join(lines) + "\n", sink)


# -- sporadic-group claims ----------------------------------------------------

@dataclass(frozen=True)
class SporadicClaim:
    """One transcribed row: claimed order, stabilizer, index and factorization.

    ``stabilizer_order`` is evaluated from named constituent orders bundled
    with their own source notes (the claims rarely print it directly).
    """

    group: str
    order_factorization: tuple[tuple[int, int], ...]
    stabilizer: str
    stabilizer_order: int
    claimed_index: int
    index_factorization: tuple[tuple[int, int], ...]

    @property
    def claimed_order(self) -> int:
        return prod(p ** a for p, a in self.order_factorization)


@dataclass(frozen=True)
class ClaimReport:
    """Exact-integer validation of one claim row; never raises, only reports."""

    group: str
    factorization_matches_index: bool
    index_times_stabilizer_matches_order: bool
    order_product_wellformed: bool
    details: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (self.factorization_matches_index
                and self.index_times_stabilizer_matches_order
                and self.order_product_wellformed)


def _claims_doc() -> dict:
    return json.loads(_data_text("sporadic_claims.json"))


def sporadic_claims() -> tuple[SporadicClaim, ...]:
    doc = _claims_doc()
    constituents = {k: v["order"] for k, v in doc["constituents"].items()}
    rows = []
    for row in doc["rows"]:
        stab = 1
        for term in row["stabilizer_order_terms"]:
            if "group" in term:
                stab *= constituents[term["group"]]
            else:
                stab *= term["base"] ** term["exp"]
        rows.append(SporadicClaim(
            group=row["group"],
            order_factorization=tuple((p, a) for p, a in row["order_factorization"]),
            stabilizer=row["stabilizer"],
            stabilizer_order=stab,
            claimed_index=row["claimed_index"],
            index_factorization=tuple((p, a) for p, a in row["index_factorization"]),
        ))
    return tuple(rows)


def _wellformed(factors: tuple[tuple[int, int], ...]) -> list[str]:
    problems = []
    last = 1
    for p, a in factors:
        if not is_probable_prime(p):
            problems.append("base %d is not prime" % p)
        if p <= last:
            problems.append("primes not strictly increasing at %d" % p)
        if a < 1:
            problems.append("exponent %d < 1 for prime %d" % (a, p))
        last = p
    return problems


def check_claim_arithmetic(claim: SporadicClaim) -> ClaimReport:
    """Three exact checks per row.

    (a) the claimed index factorization multiplies to the claimed index;
    (b) claimed index times stabilizer order equals the claimed group order;
    (c) the claimed order is a well-formed prime power product.
    """
    details = []
    fact_val = prod(p ** a for p, a in claim.index_factorization)
    a_ok = fact_val == claim.claimed_index
    if not a_ok:
        details.append("index factorization evaluates to %d, claimed index is %d"
                       % (fact_val, claim.claimed_index))
    b_ok = claim.claimed_index * claim.stabilizer_order == claim.claimed_order
    if not b_ok:
        details.append("index %d times stabilizer order %d is %d, claimed order is %d"
                       % (claim.claimed_index, claim.stabilizer_order,
                          claim.claimed_index * claim.stabilizer_order,
                          claim.claimed_order))
    problems = _wellformed(claim.order_factorization)
    c_ok = not problems
    details.extend(problems)
    return ClaimReport(group=claim.group,
                       factorization_matches_index=a_ok,
                       index_times_stabilizer_matches_order=b_ok,
                       order_product_wellformed=c_ok,
                       details=tuple(details))


def sporadic_minimal_lengths() -> tuple[tuple[str, int, int], ...]:
    """(group, order, minimal signature length) for every printed order,
    applying the length bound sum(a_j * p_j) to the order as printed."""
    out = []
    for row in _claims_doc()["printed_orders"]:
        order = prod(p ** a for p, a in row["order_factorization"])
        out.append((row["group"], order, minimal_length(factor_integer(order))))
    return tuple(out)
