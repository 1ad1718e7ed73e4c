import dataclasses
import hashlib
import io
from math import prod

import pytest

from logsig import (CatalogError, GeneratorSet, GroupSpec, SporadicClaim,
                    build_chain, check_claim_arithmetic, get_spec, load_group,
                    load_verified_chain, read_group_file, sporadic_claims,
                    sporadic_minimal_lengths, write_group_file)
from logsig import catalog
from logsig.catalog import _data_text, bundled_group_names
from logsig.cli import main

# every fixed catalog entry plus a sample of the parametric families
ORDERS = {
    "M11": 7920, "M12": 95040, "M22": 443520, "M24": 244823040,
    "PSL(2,7)": 168, "PSL(2,11)": 660,
    "Q8": 8, "SL(2,3)": 24, "2^3": 8,
    "C1": 1, "C2": 2, "C12": 12, "C100": 100,
    "D3": 6, "D6": 12, "D10": 20,
    "S2": 2, "S4": 24, "S5": 120, "S6": 720,
    "A3": 3, "A4": 12, "A5": 60, "A6": 360, "A7": 2520,
}


@pytest.mark.parametrize("name,order", sorted(ORDERS.items()))
def test_bundled_chain_orders(name, order):
    spec = get_spec(name)
    assert spec.expected_order == order
    chain = load_verified_chain(name)
    assert chain.order == order
    assert chain.name == name


@pytest.mark.parametrize("name", sorted(ORDERS) + ["S0", "S1", "A0", "A1", "A2"])
def test_spec_holds_named_permutations(name):
    spec = get_spec(name)
    assert [f.name for f in dataclasses.fields(GroupSpec)] == [
        "name", "generators", "expected_order"]
    assert spec.name == name and type(spec.expected_order) is int
    assert isinstance(spec.generators, GeneratorSet) and spec.generators.name == name
    assert load_group(name) == spec.generators


def test_bundled_file_parsed_once_per_generator_line(monkeypatch):
    calls = {"parse_cycles": 0, "format_cycles": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for fn in (catalog.parse_cycles, catalog.format_cycles):
        monkeypatch.setattr(catalog, fn.__name__, counted(fn))
    assert len(load_group("M24").gens) == 3
    assert calls == {"parse_cycles": 3, "format_cycles": 0}


def test_order_mismatch_reports_corrupted_data(monkeypatch, capsys):
    monkeypatch.setitem(catalog._FILE_GROUPS, "M11", ("m11.grp", 7921))
    with pytest.raises(CatalogError, match="built with order 7920, expected 7921 "
                                           r"\(corrupted data\?\)"):
        load_verified_chain("M11")
    assert main(["info", "--group", "M11"]) == 2
    assert "corrupted data" in capsys.readouterr().err


def test_q8_is_nonabelian_of_order_8():
    q8 = load_verified_chain("Q8")
    a, b = q8.generators.gens
    assert a * b != b * a
    assert a.order() == 4 and b.order() == 4
    # a single element of order 2: the quaternion -1
    squares = {g * g for g in q8.elements()}
    assert len([g for g in q8.elements() if g.order() == 2]) == 1


def test_unknown_name():
    with pytest.raises(CatalogError):
        get_spec("E8")
    with pytest.raises(CatalogError):
        load_group("nonexistent-group")


def test_load_group_from_file(tmp_path):
    path = tmp_path / "k4.grp"
    path.write_text("# klein four group\ndegree 4\n(1,2)(3,4)\n(1,3)(2,4)\n")
    gens = load_group(str(path))
    assert gens.degree == 4 and len(gens.gens) == 2
    assert gens.name == "k4"
    assert build_chain(gens).order == 4


def test_group_file_rejects_missing_header():
    with pytest.raises(CatalogError):
        read_group_file(io.StringIO("(1,2)\n"))


def test_group_file_rejects_bad_generator_line():
    with pytest.raises(CatalogError) as exc:
        read_group_file(io.StringIO("degree 4\n(1,99)\n"))
    assert "line 2" in str(exc.value)


def test_group_file_canonical_roundtrip():
    gens = load_group("M11")
    buf = io.StringIO()
    write_group_file(gens, buf)
    again = read_group_file(io.StringIO(buf.getvalue()))
    assert again.gens == gens.gens
    buf2 = io.StringIO()
    write_group_file(again, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_claims_transcription_is_frozen():
    digest = hashlib.sha256(_data_text("sporadic_claims.json").encode()).hexdigest()
    assert digest == "4d5a976f4b205cc4b7b5f938968d64e8a98cb1d0dfa9d880e67f36ca6cdcbd81"


# verdicts frozen from an independent big-integer evaluation of every row:
# (factorization matches index, index * stabilizer = order, well-formed)
EXPECTED_CHECKS = {
    "Co1":   (True, True, True),
    "Co2":   (True, True, True),
    "Fi22":  (True, True, True),
    "Fi23":  (True, True, True),
    "Fi24'": (True, True, True),
    "Th":    (False, True, True),
    "HN":    (False, True, True),
    "B":     (True, True, True),
    "M":     (True, False, True),
    "O'N":   (False, True, True),
    "Ly":    (True, False, True),
    "J3":    (False, False, True),
    "J4":    (True, True, True),
}


def test_all_thirteen_rows_present():
    assert [c.group for c in sporadic_claims()] == list(EXPECTED_CHECKS)


def test_claim_arithmetic_verdicts():
    for claim in sporadic_claims():
        report = check_claim_arithmetic(claim)
        assert (report.factorization_matches_index,
                report.index_times_stabilizer_matches_order,
                report.order_product_wellformed) == EXPECTED_CHECKS[claim.group], \
            claim.group
        assert report.ok == all(EXPECTED_CHECKS[claim.group])
        if not report.ok:
            assert report.details


def test_co1_row_values():
    co1 = next(c for c in sporadic_claims() if c.group == "Co1")
    assert co1.claimed_index == 8_292_375
    assert co1.index_factorization == ((3, 6), (5, 3), (7, 1), (13, 1))
    assert co1.stabilizer == "2^11:M24"
    assert co1.stabilizer_order == 2 ** 11 * 244_823_040


def test_co2_row_values():
    co2 = next(c for c in sporadic_claims() if c.group == "Co2")
    assert co2.claimed_index == 46_575
    assert co2.index_factorization == ((3, 4), (5, 2), (23, 1))
    assert co2.claimed_order == 42_305_421_312_000


def test_j3_row_is_internally_inconsistent():
    j3 = next(c for c in sporadic_claims() if c.group == "J3")
    report = check_claim_arithmetic(j3)
    assert not report.factorization_matches_index   # 2^2*3^2*17*19 = 11,628
    assert not report.index_times_stabilizer_matches_order
    assert 2 ** 2 * 3 ** 2 * 17 * 19 == 11_628 != j3.claimed_index == 23_256


def test_check_is_total_never_raises():
    for claim in sporadic_claims():
        check_claim_arithmetic(claim)  # must not throw on inconsistent rows


@pytest.mark.parametrize("factors, detail", [
    (((4, 1),), "base 4 is not prime"),
    (((3, 1), (2, 1)), "primes not strictly increasing at 2"),
    (((2, 0),), "exponent 0 < 1 for prime 2"),
])
def test_malformed_order_factorization_flagged(factors, detail):
    # index and stabilizer agree with the order, so only check (c) fails
    claim = SporadicClaim(group="X", order_factorization=factors, stabilizer="1",
                          stabilizer_order=1, claimed_index=prod(p ** a for p, a in factors),
                          index_factorization=factors)
    report = check_claim_arithmetic(claim)
    assert not report.ok and not report.order_product_wellformed
    assert report.factorization_matches_index
    assert report.index_times_stabilizer_matches_order
    assert report.details == (detail,)


def test_minimal_length_table():
    table = {name: (order, ml) for name, order, ml in sporadic_minimal_lengths()}
    assert table["Fi22"] == (64_561_751_654_400, 102)
    assert table["Co1"][1] == 150
    assert table["M"][1] == 637
    assert table["He"][1] == 77
    assert len(table) == 15


def test_bundled_names_resolve():
    for name in bundled_group_names():
        assert get_spec(name).name == name
