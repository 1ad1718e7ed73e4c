import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from logsig import (LogSignature, Provenance, chain_ls, dumps_ls, keygen,
                    load_verified_chain, write_key, write_ls)
from logsig.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_m11(capsys):
    code, out, _ = run(capsys, "info", "--group", "M11")
    assert code == 0
    assert "7920" in out and "2^4 * 3^2 * 5 * 11" in out and "30" in out


def test_info_c2(capsys):
    code, out, _ = run(capsys, "info", "--group", "C2")
    assert code == 0
    assert "order:          2" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "--json", "info", "--group", "A5")
    assert code == 0
    record = json.loads(out)
    assert record["order"] == 60 and record["minimal_length"] == 12


def test_info_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("degree 4\n(1,99)\n")
    code, _, err = run(capsys, "info", "--group-file", str(bad))
    assert code == 2
    assert "error" in err


def test_info_unknown_group(capsys):
    code, _, err = run(capsys, "info", "--group", "X99")
    assert code == 2


def test_construct_auto_m11(capsys, tmp_path):
    out_path = str(tmp_path / "m11.ls")
    code, out, _ = run(capsys, "construct", "--group", "M11",
                       "--method", "auto", "--out", out_path)
    assert code == 0
    assert "minimal: true" in out and "length: 30" in out


def test_construct_solvable_s4(capsys):
    code, out, _ = run(capsys, "construct", "--group", "S4",
                       "--method", "solvable")
    assert code == 0
    assert "length: 9" in out


def test_construct_solvable_rejects_a5(capsys):
    code, _, err = run(capsys, "construct", "--group", "A5",
                       "--method", "solvable")
    assert code == 2


def test_construct_chain_a5(capsys):
    code, out, _ = run(capsys, "construct", "--group", "A5", "--method", "chain")
    assert code == 0
    assert "length: 12" in out and "minimal: true" in out


def test_construct_cyclic_c100(capsys):
    code, out, _ = run(capsys, "construct", "--group", "C100",
                       "--method", "cyclic")
    assert code == 0
    assert "length: 14" in out


def test_construct_cyclic_rejects_m24_without_enumerating(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "construct", "--group", "M24", "--method", "cyclic")
    assert code == 2 and "not cyclic" in err
    assert time.perf_counter() - start < 1.0


def test_verify_pass_and_fail(capsys, tmp_path, m11):
    ls = chain_ls(m11)
    good = str(tmp_path / "good.ls")
    write_ls(ls, good)
    code, out, _ = run(capsys, "verify", "--group", "M11", "--ls", good,
                       "--mode", "exhaustive")
    assert code == 0 and "pass" in out

    from test_signature import tamper
    bad = str(tmp_path / "bad.ls")
    write_ls(tamper(ls, m11), bad)
    code, out, _ = run(capsys, "verify", "--group", "M11", "--ls", bad,
                       "--mode", "exhaustive")
    assert code == 1 and "collision" in out


def test_verify_overbudget_advises_structural(capsys, tmp_path, m22):
    path = str(tmp_path / "m22.ls")
    write_ls(chain_ls(m22), path)
    code, _, err = run(capsys, "verify", "--group", "M22", "--ls", path,
                       "--mode", "exhaustive", "--budget", "1000")
    assert code == 2
    assert "verify_structural" in err
    code, out, _ = run(capsys, "verify", "--group", "M22", "--ls", path,
                       "--mode", "auto", "--budget", "1000")
    assert code == 0 and "structural" in out


def test_verify_malformed_file(capsys, tmp_path):
    path = tmp_path / "junk.ls"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--group", "M11", "--ls", str(path))
    assert code == 2


def test_factorize_identity(capsys, tmp_path, m11):
    path = str(tmp_path / "m11.ls")
    write_ls(chain_ls(m11), path)
    code, out, _ = run(capsys, "factorize", "--group", "M11", "--ls", path,
                       "--element", "()")
    assert code == 0
    assert "[0, 0, 0, 0]" in out


def test_factorize_generator(capsys, tmp_path, m11):
    path = str(tmp_path / "m11.ls")
    write_ls(chain_ls(m11), path)
    code, out, _ = run(capsys, "factorize", "--group", "M11", "--ls", path,
                       "--element", "(1,2,3,4,5,6,7,8,9,10,11)")
    assert code == 0 and "reconstructs: true" in out


def test_factorize_nonmember(capsys, tmp_path, m11):
    path = str(tmp_path / "m11.ls")
    write_ls(chain_ls(m11), path)
    code, out, _ = run(capsys, "factorize", "--group", "M11", "--ls", path,
                       "--element", "(1,2)")
    assert code == 1


def test_table_check_flags_rows(capsys):
    code, out, _ = run(capsys, "table-check")
    assert code == 1
    lines = out.strip().splitlines()
    assert any(l.startswith("Co1") and "pass" in l for l in lines)
    assert any(l.startswith("J3") and "FLAGGED" in l for l in lines)


def test_table_check_single_row(capsys):
    code, out, _ = run(capsys, "table-check", "--row", "Co1")
    assert code == 0 and "pass" in out


def test_table_check_json_records(capsys):
    code, out, _ = run(capsys, "--json", "table-check")
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 13
    by_group = {r["group"]: r for r in records}
    assert by_group["Co1"]["verdict"] == "pass"
    assert by_group["Co2"]["verdict"] == "pass"
    assert by_group["J3"]["verdict"] == "flagged"


def test_table_check_unknown_row(capsys):
    code, _, err = run(capsys, "table-check", "--row", "Zz")
    assert code == 2


def test_pgm_lifecycle(capsys, tmp_path):
    key_path = str(tmp_path / "key.json")
    code, out, _ = run(capsys, "pgm", "keygen", "--group", "M11",
                       "--seed", "42", "--out", key_path)
    assert code == 0
    code, out, _ = run(capsys, "pgm", "encrypt", "--group", "M11",
                       "--key", key_path, "4321")
    assert code == 0
    cipher = int(out.strip())
    code, out, _ = run(capsys, "pgm", "decrypt", "--group", "M11",
                       "--key", key_path, str(cipher))
    assert code == 0
    assert int(out.strip()) == 4321


def test_pgm_keygen_reproducible(capsys, tmp_path):
    p1, p2 = str(tmp_path / "k1.json"), str(tmp_path / "k2.json")
    run(capsys, "pgm", "keygen", "--group", "M11", "--seed", "7", "--out", p1)
    run(capsys, "pgm", "keygen", "--group", "M11", "--seed", "7", "--out", p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_pgm_message_out_of_range(capsys, tmp_path):
    key_path = str(tmp_path / "key.json")
    run(capsys, "pgm", "keygen", "--group", "S4", "--seed", "1",
        "--out", key_path)
    code, _, err = run(capsys, "pgm", "encrypt", "--group", "S4",
                       "--key", key_path, "24")
    assert code == 2


def test_pgm_missing_args(capsys):
    code, _, err = run(capsys, "pgm", "encrypt", "--group", "S4")
    assert code == 2


# -- malformed inputs: exit 2 with a message, never a traceback ----------------

def _reversed_s4(tmp_path):
    ls = chain_ls(load_verified_chain("S4"))
    rev = LogSignature(degree=ls.degree, blocks=ls.blocks[::-1], group=ls.group,
                       provenance=Provenance("chain", ls.provenance.annotations[::-1]))
    path = str(tmp_path / "s4-reversed.ls")
    write_ls(rev, path)
    return path


def _s4_with_level(tmp_path, level):
    doc = json.loads(dumps_ls(chain_ls(load_verified_chain("S4"))))
    doc["provenance"]["annotations"][-1]["level"] = level
    path = tmp_path / "s4-level.ls"
    path.write_text(json.dumps(doc))
    return str(path)


def _s4_annotations_5(tmp_path):
    doc = json.loads(dumps_ls(chain_ls(load_verified_chain("S4"))))
    doc["provenance"]["annotations"] = 5
    path = tmp_path / "s4-annotations.ls"
    path.write_text(json.dumps(doc))
    return str(path)


def _bytes_file(tmp_path, data):
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    return str(path)


def _m11_file(tmp_path):
    path = str(tmp_path / "m11.ls")
    write_ls(chain_ls(load_verified_chain("M11")), path)
    return path


def _inexact_m11_file(tmp_path):
    from test_signature import wrong_level_entry
    path = str(tmp_path / "m11-inexact.ls")
    write_ls(wrong_level_entry(load_verified_chain("M11")), path)
    return path


def _key_file(tmp_path, doc):
    path = tmp_path / "key.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _key_without_alpha(tmp_path):
    path = str(tmp_path / "m11.key")
    write_key(keygen(load_verified_chain("M11"), 5), path)
    doc = json.loads(Path(path).read_text())
    del doc["alpha"]
    return _key_file(tmp_path, doc)


def _m12_key(tmp_path):
    path = str(tmp_path / "m12.key")
    write_key(keygen(load_verified_chain("M12"), 5), path)
    return path


def _deep_c1(tmp_path):
    # 1500 one-entry blocks, deeper than the default recursion limit; the
    # file is well formed and exact for the trivial group
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"degree": 1, "provenance": {"tag": "manual"},
                                "blocks": [[[1]]] * 1500}))
    return str(path)


MALFORMED = {
    "factorize-reversed-annotations": lambda t: [
        "factorize", "--group", "S4", "--ls", _reversed_s4(t), "--element", "(1,2)"],
    "verify-reversed-annotations": lambda t: [
        "verify", "--group", "S4", "--ls", _reversed_s4(t), "--mode", "structural"],
    "factorize-level-beyond-chain": lambda t: [
        "factorize", "--group", "S4", "--ls", _s4_with_level(t, 99), "--element", "()"],
    "factorize-level-not-integer": lambda t: [
        "factorize", "--group", "S4", "--ls", _s4_with_level(t, "2"), "--element", "()"],
    "factorize-inexact-m11": lambda t: [
        "factorize", "--group", "M11", "--ls", _inexact_m11_file(t), "--element", "()"],
    "construct-search-cap-0": lambda t: [
        "construct", "--group", "M11", "--search-cap", "0"],
    "factorize-wrong-degree": lambda t: [
        "factorize", "--group", "M12", "--ls", _m11_file(t), "--element", "()"],
    "verify-wrong-degree": lambda t: [
        "verify", "--group", "M12", "--ls", _m11_file(t)],
    "encrypt-list-key": lambda t: [
        "pgm", "encrypt", "--group", "M11", "--key", _key_file(t, [1, 2]), "3"],
    "decrypt-key-without-alpha": lambda t: [
        "pgm", "decrypt", "--group", "M11", "--key", _key_without_alpha(t), "3"],
    "encrypt-wrong-group-key": lambda t: [
        "pgm", "encrypt", "--group", "M11", "--key", _m12_key(t), "3"],
    "decrypt-wrong-group-key": lambda t: [
        "pgm", "decrypt", "--group", "M11", "--key", _m12_key(t), "3"],
    "verify-c0": lambda t: [
        "verify", "--group", "C0", "--ls", _m11_file(t)],
    "factorize-c0": lambda t: [
        "factorize", "--group", "C0", "--ls", _m11_file(t), "--element", "()"],
    "verify-deep-c1": lambda t: [
        "verify", "--group", "C1", "--ls", _deep_c1(t), "--mode", "exhaustive"],
    "factorize-deep-c1": lambda t: [
        "factorize", "--group", "C1", "--ls", _deep_c1(t), "--element", "()"],
    "verify-non-utf8": lambda t: [
        "verify", "--group", "S4", "--ls", _bytes_file(t, b"\xff\xfe{}")],
    "factorize-non-utf8": lambda t: [
        "factorize", "--group", "S4", "--ls", _bytes_file(t, b"\xff\xfe{}"),
        "--element", "()"],
    "encrypt-non-utf8-key": lambda t: [
        "pgm", "encrypt", "--group", "S4", "--key", _bytes_file(t, b"\xff\xfe{}"), "3"],
    "info-non-utf8-group-file": lambda t: [
        "info", "--group-file", _bytes_file(t, b"degree 4\n(1,2)\xff\n")],
    "info-oversized-degree": lambda t: [
        "info", "--group-file", _bytes_file(t, b"degree 3000000\n")],
    "construct-out-missing-dir": lambda t: [
        "construct", "--group", "S4", "--method", "chain",
        "--out", str(t / "missing" / "s4.ls")],
    "keygen-out-missing-dir": lambda t: [
        "pgm", "keygen", "--group", "S4", "--seed", "1",
        "--out", str(t / "missing" / "s4.key")],
    "verify-annotations-not-array": lambda t: [
        "verify", "--group", "S4", "--ls", _s4_annotations_5(t)],
    "factorize-annotations-not-array": lambda t: [
        "factorize", "--group", "S4", "--ls", _s4_annotations_5(t), "--element", "()"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_inputs_exit_cleanly(capsys, tmp_path, case):
    code, _, err = run(capsys, *MALFORMED[case](tmp_path))
    assert "Traceback" not in err
    if "deep" in case:
        assert code == 0
    else:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


def test_c0_message_names_the_bound(capsys):
    code, _, err = run(capsys, "info", "--group", "C0")
    assert code == 2 and "n >= 1" in err


# -- property: any mutation of a valid input file exits 0, 1 or 2 ----------------

def _valid_inputs():
    s4 = load_verified_chain("S4")
    key = io.StringIO()
    write_key(keygen(s4, 3), key)
    return {"ls": dumps_ls(chain_ls(s4)).encode(), "key": key.getvalue().encode(),
            "grp": b"degree 4\n(1,2,3,4)\n(1,2)\n"}


_VALID = _valid_inputs()
# type swaps; numbers stay small so a mutated file never asks for more work
_SWAPS = (None, True, 0, -1, 1.5, "x", [], {}, [0], {"x": 0})


def _json_paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _json_paths(v, path + (k,))


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """A valid file after one JSON field type swap, or after 1-3 byte
    replacements, deletions and truncations."""
    if data.startswith(b"{") and draw(st.booleans()):
        doc = json.loads(data)
        path = draw(st.sampled_from(list(_json_paths(doc))))
        value = draw(st.sampled_from(_SWAPS))
        if not path:
            return json.dumps(value).encode()
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = value
        return json.dumps(doc).encode()
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        i = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(("replace", "delete", "truncate")))
        if op == "replace":
            data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]
        elif op == "delete":
            data = data[:i] + data[i + 1:]
        else:
            data = data[:i]
    return data


def _commands(kind: str, path: str, out: str) -> list[list[str]]:
    if kind == "ls":
        return [["verify", "--group", "S4", "--ls", path],
                ["verify", "--group", "S4", "--ls", path, "--mode", "structural"],
                ["factorize", "--group", "S4", "--ls", path, "--element", "(1,2,3)"]]
    if kind == "key":
        return [["pgm", action, "--group", "S4", "--key", path, "5"]
                for action in ("encrypt", "decrypt")]
    return [["info", "--group-file", path],
            ["pgm", "keygen", "--group-file", path, "--seed", "1", "--out", out]] + [
            ["construct", "--group-file", path, "--method", method, "--out", out]
            for method in ("auto", "chain", "solvable", "cyclic")]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(_VALID)), row=st.text(max_size=4), data=st.data())
def test_every_subcommand_survives_mutated_files(capsys, tmp_path, kind, row, data):
    path = tmp_path / ("input." + kind)
    path.write_bytes(data.draw(_mutated(_VALID[kind])))
    argvs = _commands(kind, str(path), str(tmp_path / "output"))
    for argv in argvs + [["table-check", "--row", row]]:
        assert main(argv) in (0, 1, 2), argv
    capsys.readouterr()
