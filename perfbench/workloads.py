"""Set-up and the three workloads of the benchmark, with their output checks.

Every call into ``logsig`` goes through a module attribute (``pgm.encrypt``,
not a name bound at import), so the tracer's wrappers see it.  Inputs come
from the run's seed only.  Each workload is a closed loop run by one thread:
a pass is a fixed list of steps, the next starts when the previous one is
done.  Only the calls into the library sit inside a timed step; input
generation and every output check run outside it, and the tracer is
installed only inside traced steps.

Every step keeps its own list of times, one per set-up or pass, so a
reported time is a sum of per-step medians: a slowdown of the machine that
lasts a few seconds moves one sample of a few steps, not the result.  A
fixed calibration loop runs at the start of every set-up and pass and at
most every half second after, so each time can be read against the speed
the machine had while it was taken.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import itertools
import json
import os
import random
import tempfile
import tracemalloc
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

from logsig import arith, catalog, cli, construct, factorize, perm, pgm, signature

GROUPS = ("M11", "M12", "M22", "M24")
REFINED = ("M11", "M12")  # refined at the default cap in every set-up
KEY_GROUPS = ("M24", "M12")
# claim rows that are inconsistent as printed; the checker must flag exactly these
EXPECTED_FLAGGED = frozenset({"Th", "HN", "M", "O'N", "Ly", "J3"})
# first collision of the tampered M22 signature, in enumeration order
TAMPERED_COLLISION_AT = 423_361
LOOKUP_MIX = (("enc-M24", 35), ("dec-M24", 35), ("enc-M12", 15), ("fac-M12r", 15))
LOOKUP_CHUNK = 2_000  # ops per timed lookup step
EXHAUSTIVE_LIMIT = 500_000  # construct verifies exhaustively up to this many products
CALIBRATION_EVERY_S = 0.5


@dataclass(frozen=True)
class Sizes:
    """How much work one set-up and one pass of each workload do."""

    setups: int
    warmup_ops: int  # set-up ops per PGM key and fixture
    construct: tuple[tuple[str, int | None], ...]  # group, refinement cap (None: default)
    construct_batch: int  # timed tame factorizations per built signature after each step
    generic_ops: tuple[tuple[str, int], ...]
    lookup_ops: int


FULL = Sizes(setups=3, warmup_ops=16,
             construct=(("M24", 1000), ("M22", 1000), ("M12", None), ("M11", None)),
             construct_batch=400,
             generic_ops=(("M11", 850), ("M12", 150)),
             lookup_ops=40_000)

TINY = Sizes(setups=1, warmup_ops=2,
             construct=(("M11", None),),
             construct_batch=2,
             generic_ops=(("M11", 9), ("M12", 3)),
             lookup_ops=400)


_CALIBRATION_PERMS = [bytes(random.Random(i).sample(range(24), 24)) for i in range(64)]


@dataclass
class Fixtures:
    chains: dict
    chain_sigs: dict
    refined: dict
    unannotated: dict
    indexers: dict
    keys: dict


class Step:
    """A timed step, recorded under its name; traced when the run traces it."""

    def __init__(self, run: "Run", name: str, traced: bool, record: bool = True):
        self.run, self.name, self.traced, self.record = run, name, traced, record

    def __enter__(self):
        self.run.calibrate()
        if self.traced:
            self.run.tracer.install()
            self._span = self.run.tracer.begin(self.name)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        seconds = perf_counter() - self._t0
        if self.traced:
            self.run.tracer.finish(self._span)
            self.run.tracer.uninstall()
        if self.record:
            self.run.record(self.name, seconds)
        return False


class Run:
    """State of one benchmark run: its checks, step times and op latencies."""

    def __init__(self, seed: int, sizes: Sizes, tracer=None):
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # step name -> (phase, seconds), one per set-up or pass; phases count
        # set-ups and passes in order, and index ``calibration``
        self.steps: dict[str, list[tuple[int, float]]] = {}
        self.step_count: dict[str, int] = {}  # ops or products done by one instance of a step
        self.op_ns: dict[str, list[int]] = {}  # op kind -> latencies over the run
        self.pass_ns: list[tuple[int, list[int]]] = []  # (phase, latencies of its timed ops)
        self.lengths: list[tuple[int, int]] = []  # (length, minimal bound)
        self.bytes_per_product = None
        self.calibration: list[list[float]] = []  # per phase, calibration loop seconds
        self._last_calibration = 0.0

    def begin_phase(self) -> int:
        """Start a set-up or a pass: time the calibration loop at once."""
        self.calibration.append([])
        self.calibrate(force=True)
        return len(self.calibration) - 1

    def calibrate(self, force: bool = False) -> None:
        """Time a fixed pure-Python loop shaped like the library's hot loops
        (permutation products as bytes, dict stores), unless one ran less
        than ``CALIBRATION_EVERY_S`` ago.  The collector is off meanwhile,
        so no collection of the program's objects lands in the loop."""
        if not force and perf_counter() - self._last_calibration < CALIBRATION_EVERY_S:
            return
        perms = _CALIBRATION_PERMS
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            x = perms[0]
            seen = {}
            for i in range(30_000):
                x = bytes(map(x.__getitem__, perms[i & 63]))
                seen[x] = i
            self._last_calibration = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.calibration[-1].append(self._last_calibration - t0)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def step(self, name: str, traced: bool = False, record: bool = True) -> Step:
        return Step(self, name, traced, record)

    def record(self, name: str, seconds: float, count: int | None = None) -> None:
        self.steps.setdefault(name, []).append((len(self.calibration) - 1, seconds))
        if count is not None:
            self.step_count[name] = count

    def verify_exhaustive(self, ls, chain):
        t0 = perf_counter()
        report = signature.verify_exhaustive(ls, chain)
        self.record("exhaustive.%s.%s" % (ls.group, ls.provenance.tag),
                    perf_counter() - t0, report.products_checked)
        return report

    def timed_ops(self, step: str, ops: list[tuple[str, object, object]]) -> list:
        """Run each (kind, fn, arg) op as ``fn(arg)``, timing each call, and
        record the busy time under ``step``.  A call that raises yields
        None, which its output check then rejects."""
        latencies = self.op_ns
        this_pass = self.pass_ns[-1][1]
        out = []
        busy = 0
        for kind, fn, a in ops:
            t0 = perf_counter_ns()
            try:
                r = fn(a)
            except Exception:
                r = None
            dt = perf_counter_ns() - t0
            busy += dt
            latencies.setdefault(kind, []).append(dt)
            this_pass.append(dt)
            out.append(r)
        self.record(step, busy / 1e9, len(out))
        return out


def _strip(ls):
    """The signature as an unannotated file would carry it."""
    return dataclasses.replace(ls, provenance=signature.Provenance("manual"))


def _elements(chain, rng: random.Random, n: int) -> list:
    return [chain.element_at(rng.randrange(chain.order)) for _ in range(n)]


def _bound(chain) -> int:
    return signature.minimal_length(arith.factor_integer(chain.order))


def _check_refined(run: Run, name: str, chain, structural, exhaustive) -> None:
    run.expect(structural.ok, "%s: structural oracle rejects the refined signature" % name)
    if exhaustive is not None:
        run.expect(exhaustive.ok == structural.ok
                   and exhaustive.products_checked == chain.order,
                   "%s: the two oracles disagree" % name)


def _check_claims(run: Run, claims) -> None:
    run.expect(len(claims) == 13 and {r.group for r in claims if not r.ok} == EXPECTED_FLAGGED,
               "claim table verdicts changed")


def setup(run: Run, traced: bool) -> Fixtures:
    """Build the fixtures every workload draws on and warm them up: the four
    Mathieu chains, their transversal signatures, M11/M12 refined at the
    default cap and checked by both oracles, file round trips, tame indexers,
    PGM keys for M24 and M12, the claim table, and a few seeded operations
    on each fixture."""
    n = run.sizes.warmup_ops
    rng = random.Random("setup-%d" % run.seed)
    run.begin_phase()
    key_seeds = {g: rng.getrandbits(32) for g in KEY_GROUPS}
    with run.step("setup.chains", traced):
        chains = {g: catalog.load_verified_chain(g) for g in GROUPS}
        chain_sigs = {g: construct.chain_ls(c) for g, c in chains.items()}
    with run.step("setup.refine", traced):
        refined = {g: construct.refine_ls(chain_sigs[g], chains[g]) for g in REFINED}
    with run.step("setup.oracles", traced):
        structural = {g: signature.verify_structural(refined[g], chains[g]) for g in REFINED}
        exhaustive = {g: run.verify_exhaustive(refined[g], chains[g]) for g in REFINED}
    with run.step("setup.files", traced):
        round_trip = {g: signature.loads_ls(signature.dumps_ls(refined[g])) for g in REFINED}
        unannotated = {g: signature.loads_ls(signature.dumps_ls(_strip(refined[g])))
                       for g in REFINED}
        claims = [catalog.check_claim_arithmetic(c) for c in catalog.sporadic_claims()]
    with run.step("setup.indexers", traced):
        indexers = {g: factorize.TameIndexer(refined[g], chains[g]) for g in REFINED}
        keys = {g: pgm.keygen(chains[g], key_seeds[g]) for g in KEY_GROUPS}
    messages = {g: [rng.randrange(chains[g].order) for _ in range(n)] for g in KEY_GROUPS}
    elements = {g: _elements(chains[g], rng, n) for g in REFINED}
    with run.step("setup.warmup", traced):
        enc = {g: [pgm.encrypt(keys[g], m) for m in messages[g]] for g in KEY_GROUPS}
        dec = {g: [pgm.decrypt(keys[g], c) for c in enc[g]] for g in KEY_GROUPS}
        tame = {g: [factorize.factorize_tame(e, indexers[g]) for e in elements[g]]
                for g in REFINED}
        generic = {g: [factorize.factorize_generic(e, unannotated[g]) for e in elements[g]]
                   for g in REFINED}

    for g in REFINED:
        chain = chains[g]
        _check_refined(run, g, chain, structural[g], exhaustive[g])
        run.expect(signature.ls_length(refined[g]) == _bound(chain),
                   "%s: refined signature is not minimal" % g)
        run.expect(round_trip[g] == refined[g], "%s: dumps/loads round trip differs" % g)
        run.expect(unannotated[g] == _strip(refined[g]),
                   "%s: unannotated round trip differs" % g)
        for e, dt, dg in zip(elements[g], tame[g], generic[g]):
            run.expect(dt == dg and factorize.reconstruct(refined[g], dt) == e,
                       "%s: tame and generic factorizations disagree" % g)
    for g in KEY_GROUPS:
        for m, d in zip(messages[g], dec[g]):
            run.expect(d == m, "%s: decrypt(encrypt(m)) != m during warm-up" % g)
    _check_claims(run, claims)
    return Fixtures(chains, chain_sigs, refined, unannotated, indexers, keys)


# -- construct ----------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, list[dict]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--json"] + argv)
    return code, [json.loads(line) for line in buf.getvalue().splitlines() if line]


def _batches(items: list, n: int) -> list[list]:
    """``items`` cut into ``n`` consecutive, nearly equal batches."""
    return [items[len(items) * i // n:len(items) * (i + 1) // n] for i in range(n)]


def construct_pass(run: Run, fx: Fixtures, rng: random.Random, traced: bool,
                   workdir: str) -> None:
    """Build, refine, verify and serialize a signature for each group, check
    the claim table, then drive the CLI end to end (construct, verify both
    ways and factorize on M11; PGM on M24).  Each signature, once built,
    factorizes a batch of seeded elements after every later step of the
    pass; these tame factorizations are the pass's per-element operations,
    and spreading them over the pass makes their latency sample all of it."""
    sizes = run.sizes
    cli_element = perm.format_cycles(_elements(fx.chains["M11"], rng, 1)[0])
    pgm_seed, message = rng.getrandbits(32), rng.randrange(fx.chains["M24"].order)
    ls_path = os.path.join(workdir, "m11.ls")
    key_path = os.path.join(workdir, "m24.key")
    built = {}
    served = []  # (group, signature, its tame indexer), in the order built
    op_checks = []  # (group, signature, elements, digits)
    windows = itertools.count()

    def serve():
        batches = [(g, r, idx, _elements(fx.chains[g], rng, sizes.construct_batch))
                   for g, r, idx in served]
        name = "%02d" % next(windows)
        with run.step("pass.serve" + name, traced):
            for g, r, idx, batch in batches:
                fn = lambda e, idx=idx: factorize.factorize_tame(e, idx)
                digits = run.timed_ops("ops.%s-%s" % (g, name),
                                       [("tame-" + g, fn, e) for e in batch])
                op_checks.append((g, r, batch, digits))

    for g, cap in sizes.construct:
        with run.step("pass.%s.refine" % g, traced):
            chain = catalog.load_verified_chain(g)
            ls = construct.chain_ls(chain)
            if cap is None:
                r = construct.refine_ls(ls, chain)
            else:
                r = construct.refine_ls(ls, chain, cap=cap)
        if served:
            serve()
        with run.step("pass.%s.verify" % g, traced):
            st = signature.verify_structural(r, chain)
            ex = (run.verify_exhaustive(r, chain)
                  if r.product_count() <= EXHAUSTIVE_LIMIT else None)
        if served:
            serve()
        with run.step("pass.%s.use" % g, traced):
            back = signature.loads_ls(signature.dumps_ls(r))
            idx = factorize.TameIndexer(r, chain)
        built[g] = (chain, r, st, ex, back)
        served.append((g, r, idx))
        serve()
    with run.step("pass.claims", traced):
        claims = [catalog.check_claim_arithmetic(c) for c in catalog.sporadic_claims()]
    serve()
    with run.step("pass.cli", traced):
        pipeline = run.tracer.begin("cli.pipeline") if traced else None
        steps = [
            _cli(["construct", "--group", "M11", "--out", ls_path]),
            _cli(["verify", "--group", "M11", "--ls", ls_path, "--mode", "exhaustive"]),
            _cli(["verify", "--group", "M11", "--ls", ls_path, "--mode", "structural"]),
            _cli(["factorize", "--group", "M11", "--ls", ls_path, "--element", cli_element]),
            _cli(["pgm", "keygen", "--group", "M24", "--seed", str(pgm_seed),
                  "--out", key_path]),
            _cli(["pgm", "encrypt", "--group", "M24", "--key", key_path, str(message)]),
        ]
        code, records = steps[-1]
        cipher = records[0]["output"] if code == 0 and records else 0
        steps.append(_cli(["pgm", "decrypt", "--group", "M24", "--key", key_path,
                           str(cipher)]))
        if pipeline is not None:
            run.tracer.finish(pipeline)
    serve()

    run.lengths = []
    for g, (chain, r, st, ex, back) in built.items():
        run.lengths.append((signature.ls_length(r), _bound(chain)))
        run.expect(r.product_count() == chain.order,
                   "%s: block sizes do not multiply to the order" % g)
        _check_refined(run, g, chain, st, ex)
        run.expect(back == r, "%s: dumps/loads round trip differs" % g)
    for g, r, batch, digits in op_checks:
        for e, d in zip(batch, digits):
            run.expect(d is not None and factorize.reconstruct(r, d) == e,
                       "%s: tame factorization does not reconstruct" % g)
    _check_claims(run, claims)
    for i, (code, _records) in enumerate(steps):
        run.expect(code == 0, "cli step %d exited %d" % (i, code))
    factorized, decrypted = steps[3][1], steps[-1][1]
    run.expect(bool(factorized) and factorized[0].get("reconstructs") is True,
               "cli factorize does not reconstruct")
    run.expect(bool(decrypted) and decrypted[0].get("output") == message,
               "cli pgm decrypt(encrypt(m)) != m")


# -- verify -------------------------------------------------------------------

def tampered_m22(fx: Fixtures):
    """The M22 transversal signature with its last block-0 entry replaced by
    b0[1] * b1[1], which duplicates the products of digit (1, 1, ...).  It
    carries no annotations, so its exhaustive span is labelled M22.manual."""
    ls = fx.chain_sigs["M22"]
    b0 = list(ls.blocks[0])
    b0[-1] = ls.blocks[0][1] * ls.blocks[1][1]
    return signature.LogSignature(degree=ls.degree, blocks=(tuple(b0),) + ls.blocks[1:],
                                  group="M22")


def verify_pass(run: Run, fx: Fixtures, rng: random.Random, traced: bool, tampered) -> None:
    """Both verdicts of the exhaustive oracle (pass in full, fail early),
    each followed by a batch of meet-in-the-middle factorizations of seeded
    elements, so the op latency samples the whole pass."""
    elements = {g: _elements(fx.chains[g], rng, n) for g, n in run.sizes.generic_ops}
    batches = {g: _batches(elements[g], 3) for g in elements}
    m12, m22 = fx.chains["M12"], fx.chains["M22"]
    reports = []
    digits = {g: [] for g in elements}
    for i, (name, ls, chain) in enumerate((("M12.refined", fx.refined["M12"], m12),
                                            ("M22.chain", fx.chain_sigs["M22"], m22),
                                            ("M22.tampered", tampered, m22))):
        with run.step("pass." + name, traced):
            reports.append(run.verify_exhaustive(ls, chain))
        for g, batch in batches.items():
            sig = fx.unannotated[g]
            fn = lambda e: factorize.factorize_generic(e, sig)
            with run.step("pass.generic-%s-%d" % (g, i), traced):
                digits[g] += run.timed_ops("ops.generic-%s-%d" % (g, i),
                                           [("generic-" + g, fn, e) for e in batch[i]])
    rep_m12, rep_m22, rep_bad = reports

    run.expect(rep_m12.ok and rep_m12.products_checked == m12.order,
               "M12 refined: exhaustive oracle rejects it")
    run.expect(rep_m22.ok and rep_m22.products_checked == m22.order
               and signature.verify_structural(fx.chain_sigs["M22"], m22).ok,
               "M22 chain: the two oracles disagree")
    collision = rep_bad.collision
    run.expect(not rep_bad.ok and rep_bad.products_checked == TAMPERED_COLLISION_AT
               and collision is not None
               and factorize.reconstruct(tampered, collision[0])
               == factorize.reconstruct(tampered, collision[1]),
               "tampered M22: no valid collision witness at product %d" % TAMPERED_COLLISION_AT)
    for g, _n in run.sizes.generic_ops:
        for e, d in zip(elements[g], digits[g]):
            run.expect(d is not None
                       and factorize.reconstruct(fx.unannotated[g], d) == e
                       and d == factorize.factorize_tame(e, fx.indexers[g]),
                       "%s: generic factorization wrong or disagrees with tame" % g)


# -- lookup -------------------------------------------------------------------

def lookup_stream(run: Run, fx: Fixtures, rng: random.Random) -> list[tuple[str, object]]:
    """The pass's operations: each kind's share of the mix, in a seeded order."""
    n = run.sizes.lookup_ops
    m24, m12 = fx.chains["M24"], fx.chains["M12"]
    kinds = [kind for kind, share in LOOKUP_MIX for _ in range(n * share // 100)]
    rng.shuffle(kinds)
    draw = {"enc-M24": lambda: rng.randrange(m24.order),
            "dec-M24": lambda: rng.randrange(m24.order),
            "enc-M12": lambda: rng.randrange(m12.order),
            "fac-M12r": lambda: m12.element_at(rng.randrange(m12.order))}
    return [(kind, draw[kind]()) for kind in kinds]


def lookup_pass(run: Run, fx: Fixtures, rng: random.Random, traced: bool) -> None:
    """A seeded mix of per-element operations: PGM encrypt/decrypt on M24,
    encrypt on M12, and tame factorization on the refined M12 signature."""
    stream = lookup_stream(run, fx, rng)
    k24, k12, idx = fx.keys["M24"], fx.keys["M12"], fx.indexers["M12"]
    out = []
    with run.step("pass.lookup", traced, record=False):
        fns = {"enc-M24": lambda a: pgm.encrypt(k24, a),
               "dec-M24": lambda a: pgm.decrypt(k24, a),
               "enc-M12": lambda a: pgm.encrypt(k12, a),
               "fac-M12r": lambda a: factorize.factorize_tame(a, idx)}
        for c in range(0, len(stream), LOOKUP_CHUNK):
            chunk = [(kind, fns[kind], a) for kind, a in stream[c:c + LOOKUP_CHUNK]]
            name = "%02d" % (c // LOOKUP_CHUNK)
            run.calibrate()
            t_chunk = perf_counter()
            out += run.timed_ops("ops.chunk" + name, chunk)
            run.record("pass.chunk" + name, perf_counter() - t_chunk)

    r12 = fx.refined["M12"]
    for (kind, a), r in zip(stream, out):
        if r is None:
            ok = False
        elif kind == "enc-M24":
            ok = pgm.decrypt(k24, r) == a
        elif kind == "dec-M24":
            ok = pgm.encrypt(k24, r) == a
        elif kind == "enc-M12":
            ok = pgm.decrypt(k12, r) == a
        else:
            ok = factorize.reconstruct(r12, r) == a
        run.expect(ok, "%s: wrong output for input %s" % (kind, a))


# -- driving a workload ------------------------------------------------------

WORKLOADS = ("construct", "verify", "lookup")


def run_workload(run: Run, workload: str, seconds: float, out_dir: str) -> list[tuple[bool, float]]:
    """Set up ``sizes.setups`` times, then run passes until ``seconds`` of
    passes have gone by.  With a tracer, set-ups are traced and passes
    alternate untraced/traced, so the run also measures its own overhead.
    Returns (traced, seconds) for each pass."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    tracing = run.tracer is not None
    for _ in range(run.sizes.setups):
        fx = setup(run, tracing)
    if workload != "construct":
        run.lengths = [(signature.ls_length(fx.refined[g]), _bound(fx.chains[g]))
                       for g in REFINED]
    rng = random.Random("%s-%d" % (workload, run.seed))
    tampered = tampered_m22(fx)
    passes: list[tuple[bool, float]] = []
    min_passes = 2 if tracing else 1
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        t_end = perf_counter() + seconds
        while len(passes) < min_passes or perf_counter() < t_end:
            traced = tracing and len(passes) % 2 == 1
            phase = run.begin_phase()
            run.pass_ns.append((phase, []))
            if workload == "construct":
                construct_pass(run, fx, rng, traced, workdir)
            elif workload == "verify":
                verify_pass(run, fx, rng, traced, tampered)
            else:
                lookup_pass(run, fx, rng, traced)
            passes.append((traced, sum(sec for k, v in run.steps.items() if k.startswith("pass.")
                                       for ph, sec in v if ph == phase)))
    if tracing:
        run.bytes_per_product = _bytes_per_product(fx)
    return passes


def _bytes_per_product(fx: Fixtures) -> float:
    """Peak Python heap of one exhaustive check of refined M12, per product."""
    tracemalloc.start()
    try:
        report = signature.verify_exhaustive(fx.refined["M12"], fx.chains["M12"])
        _cur, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / report.products_checked
