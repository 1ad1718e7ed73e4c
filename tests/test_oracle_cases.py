"""``tools/oracle_cases.py`` times the exhaustive oracle and the layers
beside it (membership, chain building, the file format, refinement, the
structural oracle and the per-element paths) on a fixed case list, so that
changes to them can be compared on the same checks; it must keep running
against the library."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "oracle_cases.py"


def oracle_cases(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv],
                          capture_output=True, text=True, timeout=120)


def test_oracle_cases_prints_a_row_per_case():
    # both failing shapes: a head entry that repeats a coset, and a tail
    # entry that makes the tail repeat a product
    done = oracle_cases("M11 refined", "M22 tampered", "M12 tail-tampered")
    assert done.returncode == 0 and done.stderr == ""
    header, *rows = done.stdout.splitlines()
    assert header.split()[:2] == ["case", "verdict"]
    assert header.split()[-9:] == ["member_ms", "chain_ms", "codec_ms", "refine_ms",
                                   "structural", "structural_ms", "tame_us",
                                   "generic_us", "reconstruct_us"]
    assert [row[:17].strip() for row in rows] == [
        "M11 refined", "M22 tampered", "M12 tail-tampered"]
    assert rows[0].split()[2:4] == ["pass", "7920"]
    assert rows[1].split()[2:6] == ["fail", "at", "423361", "443520"]
    assert rows[2].split()[2:6] == ["fail", "at", "10", "95040"]
    # the tampered signatures keep their chain tag: the structural oracle
    # fails them, and the calls are timed like the passing ones; no tame
    # index builds for them, but their digits still reconstruct, and
    # generic factorization times their members, factorized or not; only
    # the refined case times refinement
    assert [row.split()[-5] for row in rows] == ["pass", "fail", "fail"]
    assert [row.split()[-3] for row in rows] == [rows[0].split()[-3], "n/a", "n/a"]
    assert [row.split()[-6] for row in rows] == [rows[0].split()[-6], "n/a", "n/a"]
    assert all(float(x) > 0 for row in rows
               for x in row.split()[-9:-6] + row.split()[-4:-3] + row.split()[-2:])
    assert float(rows[0].split()[-3]) > 0 and float(rows[0].split()[-6]) > 0


def test_oracle_cases_structural_column_reads_no_verdict():
    # C1000's cyclic signature has runs; D300's solvable one has none, so
    # verify_structural raises and no tame index builds, and the row says n/a
    done = oracle_cases("C1000 cyclic", "D300 solvable", "M24 chain")
    assert done.returncode == 0 and done.stderr == ""
    rows = [row.split() for row in done.stdout.splitlines()[1:]]
    assert [row[-5] for row in rows] == ["pass", "n/a", "pass"]
    assert [row[-3] == "n/a" for row in rows] == [False, True, False]
    assert [row[-6] for row in rows] == ["n/a"] * 3  # none of them is refined
    assert all(float(row[-7]) > 0 for row in rows)
    # the first two factorize generically by meet-in-the-middle, within the
    # budget; M24's 244,823,040 products are past it, but the budget bounds
    # only meet-in-the-middle, and its runs are sifted
    assert all(float(row[-2]) > 0 for row in rows)


def test_oracle_cases_rejects_an_unknown_case():
    done = oracle_cases("M11 chain")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: unknown case 'M11 chain'; the cases are: ")
