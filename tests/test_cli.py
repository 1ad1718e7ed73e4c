import dataclasses
import io
import json
import random
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from logsig import (LogSignature, Provenance, chain_ls, dumps_ls, format_cycles,
                    keygen, load_verified_chain, mls_solvable, write_key, write_ls)
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


def test_info_list(capsys):
    code, out, _ = run(capsys, "info", "--list")
    lines = out.splitlines()
    assert code == 0
    assert {"M11", "M24", "SL(2,3)", "2^3"} <= set(lines)
    assert lines[-1] == "C<n>, D<n>, S<n>, A<n>"


def test_info_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("degree 4\n(1,99)\n")
    code, _, err = run(capsys, "info", "--group-file", str(bad))
    assert code == 2
    assert "error" in err


def test_out_of_memory_exits_2_with_one_line(capsys, tmp_path, monkeypatch):
    group = tmp_path / "c3.grp"
    group.write_text("degree 3\n(1,2,3)\n")

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("logsig.cli.build_chain", exhausted)
    code, out, err = run(capsys, "info", "--group-file", str(group))
    assert (code, out, err) == (2, "", "error: out of memory\n")
    assert "Traceback" not in err


def test_info_unknown_group(capsys):
    code, _, err = run(capsys, "info", "--group", "X99")
    assert code == 2


def test_construct_auto_m11(capsys, tmp_path):
    out_path = str(tmp_path / "m11.ls")
    code, out, _ = run(capsys, "construct", "--group", "M11",
                       "--method", "auto", "--out", out_path)
    assert code == 0
    assert "minimal: true" in out and "length: 30" in out


@pytest.mark.parametrize("group, length", [("M22", 43), ("M24", 75), ("A12", 61)])
def test_construct_auto_reaches_the_bound_at_the_default_cap(capsys, tmp_path, group,
                                                             length):
    out_path = str(tmp_path / "out.ls")
    start = time.perf_counter()
    code, out, _ = run(capsys, "construct", "--group", group, "--method", "auto",
                       "--out", out_path)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "length: %d (bound %d)" % (length, length) in out and "minimal: true" in out
    assert elapsed < 3, "%s took %.2fs" % (group, elapsed)
    mode = "exhaustive" if group == "M22" else "structural"
    code, out, _ = run(capsys, "verify", "--group", group, "--ls", out_path,
                       "--mode", mode)
    assert code == 0 and "pass (%s" % mode in out


def test_construct_solvable_s4(capsys):
    code, out, _ = run(capsys, "construct", "--group", "S4",
                       "--method", "solvable")
    assert code == 0
    assert "length: 9" in out


def test_construct_solvable_rejects_a5(capsys):
    code, _, err = run(capsys, "construct", "--group", "A5",
                       "--method", "solvable")
    assert code == 2
    assert err == "error: group is not solvable\n"


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


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "exhaustive", "--budget", "0"],
    ["verify", "--mode", "auto", "--budget", "-5"],
    ["verify", "--mode", "structural", "--budget", "0"],
    ["factorize", "--element", "()", "--budget", "0"],
    ["factorize", "--element", "()", "--budget", "-5"],
])
def test_budget_below_one_exits_2(capsys, tmp_path, argv):
    # used to fall back to structural (auto) or to report that 7920
    # products exceed the budget of 0 (exhaustive)
    code, out, err = run(capsys, *argv, "--group", "M11", "--ls", _m11_file(tmp_path))
    assert code == 2 and out == ""
    assert err == "error: --budget must be at least 1, got %s\n" % argv[-1]


def test_verify_nonmember_entry_fails_in_every_mode(capsys, tmp_path):
    # A4's chain signature with block 0, entry 1 set to the odd (1,2)
    path = tmp_path / "a4.ls"
    assert run(capsys, "construct", "--group", "A4", "--method", "chain",
               "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    doc["blocks"][0][1] = [2, 1, 3, 4]
    path.write_text(json.dumps(doc))
    for mode in ("structural", "exhaustive", "auto"):
        code, out, err = run(capsys, "--json", "verify", "--group", "A4",
                             "--ls", str(path), "--mode", mode)
        record = json.loads(out)
        assert code == 1 and err == "" and record["verdict"] == "fail", mode
    assert record == {"verdict": "fail", "method": "exhaustive", "products_checked": 0,
                      "collision": None,
                      "detail": "block 0 entry 1 is not a group member"}


@pytest.mark.parametrize("degree", [0, 1])
def test_verify_trivial_group_file_in_every_mode(capsys, tmp_path, degree):
    # a degree-0 group has no point for the exhaustive oracle to key by
    group = tmp_path / "trivial.grp"
    group.write_text("degree %d\n" % degree)
    path = str(tmp_path / "trivial.ls")
    assert run(capsys, "construct", "--group-file", str(group), "--out", path)[0] == 0
    for mode, method, checked in (("exhaustive", "exhaustive", 1),
                                  ("auto", "exhaustive", 1),
                                  ("structural", "structural", 0)):
        code, out, err = run(capsys, "--json", "verify", "--group-file", str(group),
                             "--ls", path, "--mode", mode)
        assert "Traceback" not in err
        assert (code, err) == (0, ""), mode
        assert json.loads(out) == {"verdict": "pass", "method": method,
                                   "products_checked": checked, "collision": None,
                                   "detail": ""}


@pytest.mark.parametrize("tag", ["chain", "manual"])
def test_degree_0_signature_of_one_entry_passes_every_command(capsys, tmp_path, tag):
    # its one product is the whole group of order 1, which has no point
    group = tmp_path / "trivial.grp"
    group.write_text("degree 0\n")
    path = tmp_path / "trivial.ls"
    path.write_text(json.dumps({"degree": 0, "provenance": {"tag": tag},
                                "blocks": [[[]]]}))
    for mode in ("exhaustive", "structural"):
        code, out, err = run(capsys, "--json", "verify", "--group-file", str(group),
                             "--ls", str(path), "--mode", mode)
        assert (code, err) == (0, ""), mode
        assert json.loads(out) == {"verdict": "pass", "method": mode,
                                   "products_checked": 1, "collision": None,
                                   "detail": ""}
    code, out, err = run(capsys, "--json", "factorize", "--group-file", str(group),
                         "--ls", str(path), "--element", "()")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"verdict": "pass", "digits": [0], "reconstructs": True}


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


def test_factorize_failure_names_a_1_based_point(capsys, tmp_path):
    path = str(tmp_path / "2^3.ls")
    write_ls(chain_ls(load_verified_chain("2^3")), path)
    # (1,3) maps level 0's base point, point 1, outside its orbit {1, 2}
    code, out, _ = run(capsys, "factorize", "--group", "2^3", "--ls", path,
                       "--element", "(1,3)")
    assert code == 1
    assert out.startswith("fail: no block entry matches image of point 1;")


def test_structural_verify_names_a_short_level(capsys, tmp_path, m11):
    ls = chain_ls(m11)
    path = str(tmp_path / "m11-short.ls")
    write_ls(dataclasses.replace(ls, blocks=(ls.blocks[0][1:],) + ls.blocks[1:]), path)
    code, out, _ = run(capsys, "verify", "--group", "M11", "--ls", path,
                       "--mode", "structural")
    assert code == 1
    assert "size-product mismatch: blocks enumerate 7200 products, group order is 7920" in out


def _m12_files(tmp_path):
    """The refined M12 signature written with its annotations and as a
    manual file without them, which only generic factorization reads."""
    from test_factorize import refined_m12
    ls = refined_m12()
    refined, manual = str(tmp_path / "m12-refined.ls"), str(tmp_path / "m12-manual.ls")
    write_ls(ls, refined)
    write_ls(dataclasses.replace(ls, provenance=Provenance("manual")), manual)
    return refined, manual


def test_factorize_generic_matches_tame(capsys, tmp_path, m12):
    refined, manual = _m12_files(tmp_path)
    rng = random.Random(7)
    for _ in range(3):
        element = format_cycles(m12.element_at(rng.randrange(m12.order)))
        records = []
        for path in (refined, manual):
            code, out, _ = run(capsys, "--json", "factorize", "--group", "M12",
                               "--ls", path, "--element", element)
            assert code == 0
            records.append(json.loads(out))
        assert records[0] == records[1] and records[1]["reconstructs"]


@pytest.mark.parametrize("method", ["chain", "auto"])
def test_factorize_generic_m24_past_the_budget(capsys, tmp_path, m24, method):
    # a manual M24 file has 244,823,040 products, past the default budget,
    # which bounds only meet-in-the-middle: its runs are sifted instead
    path = str(tmp_path / "m24.ls")
    code, _, _ = run(capsys, "construct", "--group", "M24", "--method", method,
                     "--out", path)
    assert code == 0
    doc = json.loads(Path(path).read_text())
    doc["provenance"] = {"tag": "manual"}
    manual = _json_file(tmp_path, doc)
    rng = random.Random(24)
    for _ in range(3):
        element = format_cycles(m24.element_at(rng.randrange(m24.order)))
        records = []
        for ls in (path, manual):
            code, out, _ = run(capsys, "--json", "factorize", "--group", "M24",
                               "--ls", ls, "--element", element)
            assert code == 0
            records.append(json.loads(out))
        assert records[0] == records[1] and records[1]["reconstructs"] is True


def test_factorize_generic_nonmember(capsys, tmp_path):
    _, manual = _m12_files(tmp_path)
    code, out, _ = run(capsys, "factorize", "--group", "M12", "--ls", manual,
                       "--element", "(1,2)")
    assert code == 1 and out.startswith("fail: ")


def test_factorize_generic_failure_allows_an_inexact_signature(capsys, tmp_path, s4):
    # block 0, entry 1 replaced by entry 2 times block 1's entry 1: the
    # manual signature misses (1,2), which is a member of S4
    ls = chain_ls(s4)
    b0 = list(ls.blocks[0])
    b0[1] = ls.blocks[0][2] * ls.blocks[1][1]
    path = str(tmp_path / "s4.ls")
    write_ls(LogSignature(degree=4, blocks=(tuple(b0),) + ls.blocks[1:]), path)
    code, out, _ = run(capsys, "factorize", "--group", "S4", "--ls", path,
                       "--element", "(1,2)")
    assert code == 1
    assert out == ("fail: element has no factorization; it is not a member "
                   "(or the signature is not exact)\n")


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


def test_readme_command_lines(capsys, tmp_path, monkeypatch):
    # every `logsig ...` line of README's Command line block, in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [l for l in block.splitlines() if l.startswith("logsig ")]
    assert len(lines) == 12
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == (1 if line.split("#")[0].split() == ["logsig", "table-check"]
                        else 0), (line, err)
        if "# -> " in line:
            assert out == line.split("# -> ")[1] + "\n", line


# -- malformed inputs: exit 2 with a message, never a traceback ----------------

def _reversed_s4(tmp_path):
    ls = chain_ls(load_verified_chain("S4"))
    rev = LogSignature(degree=ls.degree, blocks=ls.blocks[::-1], group=ls.group,
                       provenance=Provenance("chain", ls.provenance.annotations[::-1]))
    path = str(tmp_path / "s4-reversed.ls")
    write_ls(rev, path)
    return path


def _s4_ls_doc():
    return json.loads(dumps_ls(chain_ls(load_verified_chain("S4"))))


def _s4_ls_file(tmp_path, edit):
    """The S4 chain signature's file after ``edit`` changed its document."""
    doc = _s4_ls_doc()
    edit(doc)
    return _json_file(tmp_path, doc)


def _s4_with_level(tmp_path, level):
    def edit(doc):
        doc["provenance"]["annotations"][-1]["level"] = level
    return _s4_ls_file(tmp_path, edit)


def _s4_annotations_5(tmp_path):
    return _s4_ls_file(tmp_path, lambda d: d["provenance"].update(annotations=5))


def _bytes_file(tmp_path, data):
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    return str(path)


def _m11_file(tmp_path):
    path = str(tmp_path / "m11.ls")
    write_ls(chain_ls(load_verified_chain("M11")), path)
    return path


def _s4_solvable_file(tmp_path):
    path = str(tmp_path / "s4-solvable.ls")
    write_ls(mls_solvable(load_verified_chain("S4")), path)
    return path


def _inexact_m11_file(tmp_path):
    from test_signature import wrong_level_entry
    path = str(tmp_path / "m11-inexact.ls")
    write_ls(wrong_level_entry(load_verified_chain("M11")), path)
    return path


def _json_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _key_without_alpha(tmp_path):
    path = str(tmp_path / "m11.key")
    write_key(keygen(load_verified_chain("M11"), 5), path)
    doc = json.loads(Path(path).read_text())
    del doc["alpha"]
    return _json_file(tmp_path, doc)


def _m12_key(tmp_path):
    path = str(tmp_path / "m12.key")
    write_key(keygen(load_verified_chain("M12"), 5), path)
    return path


def _s4_key_doc():
    buf = io.StringIO()
    write_key(keygen(load_verified_chain("S4"), 3), buf)
    return json.loads(buf.getvalue())


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
    "factorize-level-not-integer": lambda t: [
        "factorize", "--group", "S4", "--ls", _s4_with_level(t, "2"), "--element", "()"],
    "factorize-inexact-m11": lambda t: [
        "factorize", "--group", "M11", "--ls", _inexact_m11_file(t), "--element", "()"],
    "factorize-wrong-degree": lambda t: [
        "factorize", "--group", "M12", "--ls", _m11_file(t), "--element", "()"],
    "verify-wrong-degree": lambda t: [
        "verify", "--group", "M12", "--ls", _m11_file(t)],
    "verify-wrong-degree-structural": lambda t: [
        "verify", "--group", "M12", "--ls", _m11_file(t), "--mode", "structural"],
    "encrypt-list-key": lambda t: [
        "pgm", "encrypt", "--group", "M11", "--key", _json_file(t, [1, 2]), "3"],
    "decrypt-key-without-alpha": lambda t: [
        "pgm", "decrypt", "--group", "M11", "--key", _key_without_alpha(t), "3"],
    "encrypt-wrong-group-key": lambda t: [
        "pgm", "encrypt", "--group", "M11", "--key", _m12_key(t), "3"],
    "decrypt-wrong-group-key": lambda t: [
        "pgm", "decrypt", "--group", "M11", "--key", _m12_key(t), "3"],
    "verify-c0": lambda t: [
        "verify", "--group", "C0", "--ls", _m11_file(t)],
    # S4's solvable signature has no runs, so meet-in-the-middle needs its
    # 24 products within the budget
    "factorize-generic-over-budget": lambda t: [
        "factorize", "--group", "S4", "--ls", _s4_solvable_file(t), "--element", "()",
        "--budget", "10"],
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
    # each file below used to load: JSON true passed as the integer 1, and
    # a group or seed of another type was kept
    "factorize-c3-image-true": lambda t: [
        "factorize", "--group", "C3", "--element", "(1,2,3)", "--ls", _json_file(t, {
            "degree": 3, "provenance": {"tag": "manual"},
            "blocks": [[[True, 2, 3], [2, 3, 1], [3, 1, 2]]]})],
    "verify-c1-degree-true": lambda t: [
        "verify", "--group", "C1", "--ls", _json_file(t, {
            "degree": True, "provenance": {"tag": "manual"}, "blocks": [[[1]]]})],
    "verify-level-true": lambda t: [
        "verify", "--group", "S4", "--ls", _s4_with_level(t, True), "--mode", "structural"],
    "verify-group-not-string": lambda t: [
        "verify", "--group", "S4", "--ls", _json_file(t, {**_s4_ls_doc(), "group": 5})],
    "encrypt-seed-true": lambda t: [
        "pgm", "encrypt", "--group", "S4", "--key", _json_file(t, {
            **_s4_key_doc(), "seed": True}), "5"],
    "decrypt-seed-string": lambda t: [
        "pgm", "decrypt", "--group", "S4", "--key", _json_file(t, {
            **_s4_key_doc(), "seed": "3"}), "5"],
    "info-no-group": lambda t: ["info"],
    "info-d2": lambda t: ["info", "--group", "D2"],
    "info-c-degree-too-large": lambda t: ["info", "--group", "C1000001"],
    "verify-top-level-array": lambda t: [
        "verify", "--group", "S4", "--ls", _json_file(t, [_s4_ls_doc()])],
    "verify-blocks-missing": lambda t: [
        "verify", "--group", "S4", "--ls", _s4_ls_file(t, lambda d: d.pop("blocks"))],
    "verify-annotation-count": lambda t: [
        "verify", "--group", "S4", "--ls",
        _s4_ls_file(t, lambda d: d["provenance"]["annotations"].pop())],
    "verify-repeated-entry": lambda t: [
        "verify", "--group", "S4", "--ls",
        _s4_ls_file(t, lambda d: d["blocks"][0].append(d["blocks"][0][0]))],
    "encrypt-unknown-key-format": lambda t: [
        "pgm", "encrypt", "--group", "S4", "--key", _json_file(t, {
            **_s4_key_doc(), "format": "logsig-key/0"}), "5"],
    # each file below used to load, and a later step read the bad value
    "verify-annotation-level-negative": lambda t: [
        "verify", "--group", "S4", "--ls", _s4_with_level(t, -1)],
    "factorize-annotation-level-negative": lambda t: [
        "factorize", "--group", "S4", "--ls", _s4_with_level(t, -4), "--element", "()"],
    "verify-annotation-set-size-0": lambda t: [
        "verify", "--group", "S4", "--ls",
        _s4_ls_file(t, lambda d: d["provenance"]["annotations"][0].update(set_size=0))],
    "factorize-annotation-step-negative": lambda t: [
        "factorize", "--group", "S4", "--element", "()", "--ls",
        _s4_ls_file(t, lambda d: d["provenance"]["annotations"][0].update(step=-3))],
}

# the message of each case that reaches a check no other case reaches
MALFORMED_MESSAGES = {
    "info-no-group": "info needs --group or --group-file",
    "info-d2": "dihedral groups need at least 3 points",
    "info-c-degree-too-large": "parametric degree 1000001 too large",
    "verify-top-level-array": "top level must be an object",
    "verify-blocks-missing": "missing required field 'blocks'",
    "verify-annotation-count": "annotation count 2 != block count 3",
    "verify-repeated-entry": "block 0 has repeated entries",
    "encrypt-unknown-key-format": "unsupported key format 'logsig-key/0'",
    "factorize-generic-over-budget": "24 products exceed the budget of 10",
    "factorize-wrong-degree": "m11.ls has degree 11, group M12 has degree 12",
    "verify-wrong-degree": "m11.ls has degree 11, group M12 has degree 12",
    "verify-wrong-degree-structural": "m11.ls has degree 11, group M12 has degree 12",
    "verify-annotation-level-negative": "annotation 'level' must be nonnegative",
    "factorize-annotation-level-negative": "annotation 'level' must be nonnegative",
    "verify-annotation-set-size-0": "annotation 'set_size' must be at least 1",
    "factorize-annotation-step-negative": "annotation 'step' must be at least 1",
}


# the whole message of each case whose file the readers reject, the
# directory written as <tmp>: the signature and key readers check an image
# array in C-level steps and word each failure as they did entry by entry
READ_ERRORS = {
    "decrypt-key-without-alpha": "<tmp>/doc.json: key file needs both 'alpha' and 'beta'",
    "decrypt-seed-string": "<tmp>/doc.json: key seed must be an integer",
    "decrypt-wrong-group-key": "<tmp>/m12.key: key is for group 'M12', not 'M11'",
    "encrypt-list-key": "<tmp>/doc.json: key file must hold a JSON object",
    "encrypt-non-utf8-key":
        "<tmp>/input.bin: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    "encrypt-seed-true": "<tmp>/doc.json: key seed must be an integer",
    "encrypt-unknown-key-format": "<tmp>/doc.json: unsupported key format 'logsig-key/0'",
    "encrypt-wrong-group-key": "<tmp>/m12.key: key is for group 'M12', not 'M11'",
    "factorize-annotation-level-negative":
        "<tmp>/doc.json: provenance: annotation 'level' must be nonnegative",
    "factorize-annotation-step-negative":
        "<tmp>/doc.json: provenance: annotation 'step' must be at least 1",
    "factorize-annotations-not-array":
        "<tmp>/doc.json: provenance annotations must be an array",
    "factorize-c3-image-true": "<tmp>/doc.json: block 0 entry 0: images must be integers",
    "factorize-level-not-integer":
        "<tmp>/doc.json: provenance: annotation must be an object with an integer 'level'",
    "factorize-non-utf8":
        "<tmp>/input.bin: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    "info-non-utf8-group-file":
        "<tmp>/input.bin: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte",
    "info-oversized-degree": "<tmp>/input.bin: line 1: degree 3000000 exceeds 1000000",
    "verify-annotation-count": "<tmp>/doc.json: annotation count 2 != block count 3",
    "verify-annotation-level-negative":
        "<tmp>/doc.json: provenance: annotation 'level' must be nonnegative",
    "verify-annotation-set-size-0":
        "<tmp>/doc.json: provenance: annotation 'set_size' must be at least 1",
    "verify-annotations-not-array":
        "<tmp>/doc.json: provenance annotations must be an array",
    "verify-blocks-missing": "<tmp>/doc.json: missing required field 'blocks'",
    "verify-c1-degree-true": "<tmp>/doc.json: degree must be a nonnegative integer",
    "verify-group-not-string": "<tmp>/doc.json: group must be a string",
    "verify-level-true":
        "<tmp>/doc.json: provenance: annotation must be an object with an integer 'level'",
    "verify-non-utf8":
        "<tmp>/input.bin: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    "verify-repeated-entry": "<tmp>/doc.json: block 0 has repeated entries",
    "verify-top-level-array": "<tmp>/doc.json: top level must be an object",
}


@pytest.mark.parametrize("case", sorted(READ_ERRORS))
def test_malformed_files_keep_their_messages(capsys, tmp_path, case):
    code, _, err = run(capsys, *MALFORMED[case](tmp_path))
    assert code == 2
    assert (err.replace(str(tmp_path), "<tmp>")
            == "error: cannot read %s\n" % READ_ERRORS[case])


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_inputs_exit_cleanly(capsys, tmp_path, case):
    code, _, err = run(capsys, *MALFORMED[case](tmp_path))
    assert "Traceback" not in err
    if "deep" in case:
        assert code == 0
    else:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert MALFORMED_MESSAGES.get(case, "") in err


def test_reversed_s4_fails_structurally(capsys, tmp_path):
    # the annotations are not read: the reversed blocks have no runs, and
    # the file's chain tag makes that a failure, which exhaustive confirms
    path = _reversed_s4(tmp_path)
    code, out, _ = run(capsys, "verify", "--group", "S4", "--ls", path,
                       "--mode", "structural")
    assert code == 1 and out == ("fail (structural, 0 products checked)\nno run can "
                                 "start at block 0: blocks 0 to 1 have 6 products, "
                                 "more than the degree 4\n")
    code, out, _ = run(capsys, "--json", "verify", "--group", "S4", "--ls", path,
                       "--mode", "exhaustive")
    assert code == 1 and json.loads(out)["collision"] == [[0, 0, 2], [0, 1, 1]]


def test_factorize_reads_no_level_annotation(capsys, tmp_path):
    # a level past the chain is a detail of the file, not of the signature
    code, out, _ = run(capsys, "factorize", "--group", "S4",
                       "--ls", _s4_with_level(tmp_path, 99), "--element", "(1,2)")
    assert code == 0 and out.endswith("reconstructs: true\n")


def test_c0_message_names_the_bound(capsys):
    code, _, err = run(capsys, "info", "--group", "C0")
    assert code == 2 and "n >= 1" in err


@pytest.mark.parametrize("command", ["verify", "encrypt"])
def test_deeply_nested_json_names_the_file(capsys, tmp_path, command):
    nested = "[" * 1000 + "]" * 1000
    path = tmp_path / "nested.json"
    if command == "verify":
        path.write_text(nested)
        argv = ["verify", "--group", "M11", "--ls", str(path)]
    else:
        path.write_text(json.dumps({**_s4_key_doc(), "alpha": None}).replace("null", nested))
        argv = ["pgm", "encrypt", "--group", "S4", "--key", str(path), "5"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: cannot read %s: JSON nested too deeply\n" % path


@pytest.mark.parametrize("command", ["verify", "encrypt"])
def test_overlong_integer_names_the_file(capsys, tmp_path, command):
    # more digits than the interpreter converts to an int by default
    path = tmp_path / "long.json"
    if command == "verify":
        path.write_text('{"degree": 1' + "0" * 5000 + "}")
        argv = ["verify", "--group", "M11", "--ls", str(path)]
    else:
        path.write_text(json.dumps({**_s4_key_doc(), "seed": 0}).replace(
            '"seed": 0', '"seed": 1' + "0" * 5000))
        argv = ["pgm", "encrypt", "--group", "S4", "--key", str(path), "5"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: cannot read %s: JSON integer has too many digits\n" % path


@pytest.mark.parametrize("half", ["alpha", "beta"])
def test_key_half_with_a_repeated_image_is_named(capsys, tmp_path, half):
    buf = io.StringIO()
    write_key(keygen(load_verified_chain("M12"), 42), buf)
    doc = json.loads(buf.getvalue())
    blocks = doc[half]["blocks"]
    blocks[0][1], blocks[1][1] = blocks[1][1], blocks[0][1]
    path = _json_file(tmp_path, doc)
    code, _, err = run(capsys, "pgm", "encrypt", "--group", "M12", "--key", path, "5")
    assert code == 2
    # the swap leaves block 0 with an entry that moves level 1's base point,
    # so no run can end at block 0, and blocks 0 and 1 outnumber the points
    assert err == ("error: cannot read %s: key half %s: no run can start at block "
                   "0: blocks 0 to 1 have 132 products, more than the degree 12\n"
                   % (path, half))


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
