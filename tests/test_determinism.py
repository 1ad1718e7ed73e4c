"""Byte-level determinism: SHA-256 digests of files the library writes.

The digests pin the outputs of the construction paths (refinement, the
solvable composition series, cyclic sets) and of PGM key generation.  A
change that alters these bytes on purpose updates the digest here and says
why in its change notes.
"""

import hashlib
import io

import pytest

from logsig import (CyclicSetSpec, build_mls, dumps_ls, load_verified_chain,
                    mls_cyclic)
from logsig.pgm import keygen, write_key


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, digest", [
    ("M11", "ac41aaa0a191b87e781ced33a735db201382948d8cb965d3b84e6f6684cee2b6"),
    ("M12", "00d4570042b21064dd934545e229c4660abba3613e1219cf73c677316c2c5469"),
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
