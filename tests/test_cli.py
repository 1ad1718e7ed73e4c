import json

import pytest

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
    assert open(p1, "rb").read() == open(p2, "rb").read()


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


def _m11_file(tmp_path):
    path = str(tmp_path / "m11.ls")
    write_ls(chain_ls(load_verified_chain("M11")), path)
    return path


def _key_file(tmp_path, doc):
    path = tmp_path / "key.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _key_without_alpha(tmp_path):
    path = str(tmp_path / "m11.key")
    write_key(keygen(load_verified_chain("M11"), 5), path)
    doc = json.loads(open(path).read())
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_inputs_exit_cleanly(capsys, tmp_path, case):
    code, _, err = run(capsys, *MALFORMED[case](tmp_path))
    assert "Traceback" not in err
    if "deep" in case:
        assert code == 0
    else:
        assert code == 2
        assert err.startswith("error: ")


def test_c0_message_names_the_bound(capsys):
    code, _, err = run(capsys, "info", "--group", "C0")
    assert code == 2 and "n >= 1" in err
