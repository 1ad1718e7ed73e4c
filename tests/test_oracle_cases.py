"""``tools/oracle_cases.py`` times the exhaustive oracle on a fixed case
list, so that changes to the oracle can be compared on the same checks; it
must keep running against the library."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "oracle_cases.py"


def oracle_cases(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv],
                          capture_output=True, text=True, timeout=120)


def test_oracle_cases_prints_a_row_per_case():
    done = oracle_cases("M11 refined", "M22 tampered")
    assert done.returncode == 0 and done.stderr == ""
    header, *rows = done.stdout.splitlines()
    assert header.split()[:2] == ["case", "verdict"]
    assert [row[:14].strip() for row in rows] == ["M11 refined", "M22 tampered"]
    assert rows[0].split()[2:4] == ["pass", "7920"]
    assert rows[1].split()[2:6] == ["fail", "at", "423361", "443520"]


def test_oracle_cases_rejects_an_unknown_case():
    done = oracle_cases("M11 chain")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: unknown case 'M11 chain'; the cases are: ")
