"""A demonstration-grade secret-key cipher over a permutation group.

The key is a pair of randomized transversal signatures for one group; a
message index is pushed through the first signature's index-to-element map
and pulled back through the second one's element-to-index map.  Demonstration
only: no security claims, no padding, no key wrapping.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import IO

from .chain import StabilizerChain
from .construct import chain_ls
from .factorize import TameIndexer, factorize_tame, reconstruct
from .perm import Permutation, _digits_of, _images, _value_of
from .signature import (LogSignature, LsFormatError, _ls_from_obj, _ls_text,
                        _parse_json, _read_text, _with_members, _write_text)

__all__ = ["PgmKey", "randomize_ls", "keygen", "encrypt", "decrypt",
           "write_key", "read_key", "KEY_FORMAT"]

KEY_FORMAT = "pgm-key-1"


def randomize_ls(ls: LogSignature, chain: StabilizerChain, seed: int) -> LogSignature:
    """Diversify a transversal signature without losing its structure.

    Per block: a seeded shuffle of the entries, then every entry of a
    non-final level is multiplied on the right by a seeded element of the
    next level's group.  Right multiplication by a stabilizer element keeps
    each entry's base-point image, so cosets, tameness and the structural
    verdict are all preserved; only the digit assignment changes.

    The element at a drawn index is the one :meth:`StabilizerChain.element_at`
    gives, the product of the transversal elements its digits select, but
    composed through :func:`~logsig.perm._images`: keys are set up, not
    served per element.
    """
    ann = ls.provenance.annotations
    if ls.provenance.tag != "chain" or ann is None:
        raise ValueError("randomization needs a chain-provenance signature")
    rng = random.Random(seed)
    blocks = []
    for block, a in zip(ls.blocks, ann):
        entries = list(block)
        rng.shuffle(entries)
        sub = chain.subchain(a.level + 1)
        if sub.order > 1:
            sizes = [len(lv.orbit) for lv in sub.levels]
            reps = [[lv.transversal[p].img for p in lv.orbit] for lv in sub.levels]
            for i, e in enumerate(entries):
                raw = e.img
                for t, d in zip(reps, _digits_of(rng.randrange(sub.order), sizes)):
                    raw = _images(raw, t[d])
                entries[i] = Permutation._wrap(raw)
        blocks.append(tuple(entries))
    return LogSignature(degree=ls.degree, blocks=tuple(blocks), group=ls.group,
                        provenance=ls.provenance)


@dataclass(frozen=True)
class PgmKey:
    """Two verified tame signatures of one group plus their indexers."""

    chain: StabilizerChain
    alpha: LogSignature
    beta: LogSignature
    alpha_indexer: TameIndexer
    beta_indexer: TameIndexer
    seed: int

    @property
    def message_space(self) -> int:
        return self.chain.order


def keygen(chain: StabilizerChain, seed: int) -> PgmKey:
    """Derive two sub-seeds, randomize the transversal signature twice and
    verify both halves.  Pure function of (group, seed)."""
    rng = random.Random(seed)
    seed_a = rng.getrandbits(63)
    seed_b = rng.getrandbits(63)
    base = chain_ls(chain)
    return _make_key(chain, randomize_ls(base, chain, seed_a),
                     randomize_ls(base, chain, seed_b), seed)


def _make_key(chain: StabilizerChain, alpha: LogSignature, beta: LogSignature,
              seed: int) -> PgmKey:
    """Index both halves against ``chain``; indexing verifies them structurally."""
    indexers = []
    for part, name in ((alpha, "alpha"), (beta, "beta")):
        try:
            indexers.append(TameIndexer(part, chain))
        except ValueError as e:
            raise LsFormatError("key half %s: %s" % (name, e)) from e
    return PgmKey(chain, alpha, beta, *indexers, seed=seed)


def encrypt(key: PgmKey, message: int) -> int:
    """message -> digits under alpha -> group element -> digits under beta -> int."""
    if not 0 <= message < key.message_space:
        raise ValueError("message %d outside [0, %d)" % (message, key.message_space))
    element = reconstruct(key.alpha, _digits_of(message, key.alpha.block_sizes))
    return _value_of(factorize_tame(element, key.beta_indexer), key.beta.block_sizes)


def decrypt(key: PgmKey, ciphertext: int) -> int:
    if not 0 <= ciphertext < key.message_space:
        raise ValueError("ciphertext %d outside [0, %d)" % (ciphertext, key.message_space))
    element = reconstruct(key.beta, _digits_of(ciphertext, key.beta.block_sizes))
    return _value_of(factorize_tame(element, key.alpha_indexer), key.alpha.block_sizes)


def write_key(key: PgmKey, sink: str | IO[str]) -> None:
    """Header (format, group, seed) plus the two signature documents:
    exactly ``json.dumps(obj, indent=2) + "\n"`` of the key's object, with
    the documents written by :func:`~logsig.signature._ls_text`."""
    head = json.dumps({"format": KEY_FORMAT, "group": key.chain.name, "seed": key.seed},
                      indent=2)
    members = [("alpha", _ls_text(key.alpha, 1)), ("beta", _ls_text(key.beta, 1))]
    _write_text(_with_members(head, members, 0) + "\n", sink)


def read_key(source: str | IO[str], chain: StabilizerChain) -> PgmKey:
    """Load a key for ``chain``'s group; both halves are verified again.

    Raises LsFormatError for malformed files, keys of another group and
    halves that fail structural verification.
    """
    obj = _parse_json(_read_text(source))
    if not isinstance(obj, dict):
        raise LsFormatError("key file must hold a JSON object")
    if obj.get("format") != KEY_FORMAT:
        raise LsFormatError("unsupported key format %r" % obj.get("format"))
    if obj.get("group") != chain.name:
        raise LsFormatError("key is for group %r, not %r" % (obj.get("group"), chain.name))
    if "alpha" not in obj or "beta" not in obj:
        raise LsFormatError("key file needs both 'alpha' and 'beta'")
    seed = obj.get("seed", 0)
    if type(seed) is not int:  # not bool, which JSON true and false load as
        raise LsFormatError("key seed must be an integer")
    return _make_key(chain, _ls_from_obj(obj["alpha"]), _ls_from_obj(obj["beta"]),
                     seed)
