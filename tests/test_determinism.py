"""Byte-level determinism: SHA-256 digests of files the library writes.

The digests pin the catalog's generator sets and the outputs of the
construction paths (refinement, the solvable composition series, cyclic
sets) and of PGM key generation.  A change that alters these bytes on
purpose updates the digest here and says why in its change notes.
"""

import functools
import hashlib
import io
import json
import time

import pytest

from logsig import (CyclicSetSpec, build_mls, bundled_group_names, chain_ls,
                    dumps_ls, get_spec, load_group, load_verified_chain,
                    mls_cyclic, refine_ls)
from logsig.pgm import keygen, write_key


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_catalog_generator_sets():
    # the parametric builders at their small and degenerate sizes too
    names = list(bundled_group_names()) + [
        "C1", "C2", "C7", "C100", "D3", "D4", "D11", "D300",
        "S0", "S1", "S2", "S3", "S7", "A0", "A1", "A2", "A3", "A4", "A5", "A12"]
    rows = []
    for name in names:
        gens = load_group(name)
        rows.append([name, gens.name, gens.degree, [list(g.images) for g in gens.gens],
                     get_spec(name).expected_order])
    assert (sha256(json.dumps(rows))
            == "0d3af4aa6521701aeeee14033b6ec80147fe4e083486279c2c2aef621c5ff06a")


@pytest.mark.parametrize("name, digest", [
    ("M11", "afdfe36e33ec410c6772caf0071f9bb161b7c7f96d816d5f86069cca7f9dd859"),
    ("M12", "d29ae38ebd03d9d56431e4da970217bdcfc6f80b31b7953371236fc8fabb3850"),
    ("S4", "a29392ebca9d37caf905e31f92b1898a7c11420a3c5d9aeb84dbeb4666134772"),
    ("SL(2,3)", "10df70708fee9a67f4adeb1cae9da84a2a5b3b47dd608a2895012e407a1b9392"),
    ("D300", "cc15000661eaa04b497d60c785c3438b0ef253278bda32d84cae8595134a3d1a"),
    ("C100", "987774b4d418f867ffb5a99484a1b6de2da651b5f95f2452076823e8fc7390b7"),
])
def test_build_mls_bytes(name, digest):
    assert sha256(dumps_ls(build_mls(load_verified_chain(name)))) == digest


def test_mls_cyclic_bytes():
    c100 = load_verified_chain("C100")
    # the generator `construct --method cyclic` picks
    gen = next(g for g in c100.elements() if g.order() == c100.order)
    assert (sha256(dumps_ls(mls_cyclic(CyclicSetSpec(gen, 100))))
            == "bfd5da94730d32f65b4aa6c2fef250e2ea77b088f6e4160d7e1441d0bb5d1156")


def test_keygen_bytes(m12):
    out = io.StringIO()
    write_key(keygen(m12, 42), out)
    assert (sha256(out.getvalue())
            == "50d12e8e0232e50d319f51eb73a672512b874bc58b37dd44837f97d110c0ed09")


@functools.cache
def refined_at_cap_1000(name):
    """The refined signature's file text and the seconds refinement took."""
    chain = load_verified_chain(name)
    ls = chain_ls(chain)
    t0 = time.perf_counter()
    refined = refine_ls(ls, chain, cap=1000)
    return dumps_ls(refined), time.perf_counter() - t0


@pytest.mark.parametrize("name, digest", [
    ("M24", "83b71522b2a35eb71e694e08d036300ac3a4b6758ee314a8e95ab657daa89892"),
    ("M22", "7354a20200a3b174ca9de5675774d056003a754fb4bc7dee951b9768efc21621"),
])
def test_refine_cap_1000_bytes(name, digest):
    assert sha256(refined_at_cap_1000(name)[0]) == digest


@pytest.mark.parametrize("name", ["M24", "M22"])
def test_refine_cap_1000_budget(name):
    # ~0.1 s each on a 2-CPU x86-64 machine
    elapsed = refined_at_cap_1000(name)[1]
    assert elapsed < 1.5, "%s refinement at cap=1000 took %.2fs" % (name, elapsed)
