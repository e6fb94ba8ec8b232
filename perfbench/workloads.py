"""The three benchmark workloads: seeded inputs, the timed op, and the
canonical form of each op's output that the golden file stores.

Every library call goes through a module attribute (``census.realize``, not a
name imported once), so that the tracer's wrappers are the ones called.

realize_sweep
    ``census.realize(P, m)`` over a fixed list of (q, d, m) shapes with
    |L| = q^(md) <= 125.  Successive runs of a shape take P in turn from a
    pool of the lexicographically first monic irreducibles of degree d with
    no zero coefficient; the seed picks where the turns start and the order
    of each pass over the shapes.
census_grid
    ``census.full_report(P, m)`` (no realization) for every (q, d, m) whose
    candidate grid q^(floor(md/2)+1) * (q-1) is at most GRID_CAP.  P is
    picked as for realize_sweep.
module_queries
    One query builds a ``DrinfeldModule`` and runs ``charpoly``,
    ``classify`` or ``endomorphism_order``, then serialises the result as
    the matching CLI subcommand does.  The query pool is fixed (POOL_SEED);
    the seed picks the order in which the pool is walked.  Building the
    fields, including the modulus search and the Frobenius tables, is
    set-up.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import random
import statistics

import drinfeld2.census as census
import drinfeld2.drinfeld as drinfeld
import drinfeld2.ff as ff
import drinfeld2.frobenius as frobenius
import drinfeld2.polyring as polyring

# The package re-exports the function `classify` under the submodule's name.
classify = importlib.import_module("drinfeld2.classify")

# (q, d, m); the |L| = 81 and 125 sweeps take most of the time.
SWEEP_SHAPES = (
    (3, 1, 2), (3, 1, 3), (3, 3, 1), (5, 1, 2), (7, 1, 2), (7, 2, 1),
    (9, 1, 1), (3, 1, 4), (5, 3, 1), (9, 2, 1),
)
GRID_CAP = 3000
GRID_DEGREES = (1, 2, 3, 4)
QS = (3, 5, 7, 9)
P_POOL = 3  # P is drawn from the first P_POOL dense monic irreducibles of degree d

# (p, s, n): L = F_{p^(s*n)} built as a degree-n extension of F_{p^s}.
QUERY_FIELDS = (
    (3, 1, 6), (3, 1, 7), (3, 1, 8), (3, 1, 9),
    (5, 1, 4), (5, 1, 5), (5, 1, 6),
    (3, 2, 3),
)
QUERY_KINDS = ("charpoly", "classify", "endring")
QUERIES_PER_FIELD = 240
POOL_SEED = 20041223


def digest(obj):
    """Short digest of the canonical JSON form of obj."""
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def base_field(q):
    return ff.field_make(3, 2) if q == 9 else ff.field_make(q, 1)


def grid_size(q, d, m):
    return q ** ((m * d) // 2 + 1) * (q - 1)


def census_shapes():
    return [
        (q, d, m)
        for q in QS
        for d in GRID_DEGREES
        for m in itertools.takewhile(
            lambda m, q=q, d=d: grid_size(q, d, m) <= GRID_CAP, itertools.count(1)
        )
    ]


def p_pool(base, d):
    # Only P with no zero coefficient: a sparse P (T, T^2 + 1) makes cheaper
    # ops, up to a quarter cheaper, so the cost of a run would depend on the seed.
    dense = (P for P in polyring.monic_irreducibles(base, d) if all(P.coeffs))
    return list(itertools.islice(dense, P_POOL))


def family_key(q, P, m):
    return "%d:%s:%d" % (q, ",".join(map(str, P.coeffs)), m)


def stream(state):
    """The workload's timed ops, endlessly.  A pass takes one op from each
    slot of state["slots"] (a tuple of alternatives), each slot's next
    alternative in turn from a seeded start, and runs them in a seeded
    order.  Taking turns, not drawing, makes a few passes cover the
    alternatives evenly."""
    slots, rng = state["slots"], state["rng"]
    start = [rng.randrange(len(alternatives)) for alternatives in slots]
    for k in itertools.count():
        order = [alts[(i + k) % len(alts)] for alts, i in zip(slots, start)]
        rng.shuffle(order)
        yield from order


class Op:
    """One timed call.  `shape` groups ops of equal size; `work` is the
    op's share of the workload's work counter."""

    __slots__ = ("shape", "key", "work", "args")

    def __init__(self, shape, key, work, args):
        self.shape, self.key, self.work, self.args = shape, key, work, args


# --- family workloads (realize_sweep, census_grid) ---------------------------


def _family_alternatives(shapes, work):
    """For each shape, one op per P in its pool."""
    pools = {}
    out = []
    for q, d, m in shapes:
        if (q, d) not in pools:
            pools[(q, d)] = p_pool(base_field(q), d)
        out.append(tuple(Op((q, d, m), family_key(q, P, m), work(q, d, m), (P, m))
                         for P in pools[(q, d)]))
    return out


class FamilyWorkload:
    """A fixed list of shapes, walked in passes in a seeded order.  A timed
    pass runs each shape `repeats(q, d, m)` times, and successive runs of a
    shape take the P of its pool in turn, so a shape's median is taken over
    the pool.  The traced run takes one seeded draw per shape.

    The rate is reported over one pass of every shape once: the pass's work
    divided by the sum of the per-shape median times, so neither the repeats
    nor a run that stops part-way through a pass change the mix."""

    needs_full_pass = True
    setup_repeats = 9  # set-up is repeated and its median reported

    def setup(self, seed):
        rng = random.Random(seed)
        alternatives = _family_alternatives(self.shapes, self.work)
        return {
            "ops": [rng.choice(alts) for alts in alternatives],
            "slots": [alts for alts in alternatives for _ in range(self.repeats(*alts[0].shape))],
            "rng": rng,
        }

    @staticmethod
    def repeats(q, d, m):
        return 1

    def trace_ops(self, state):
        return [op for op in state["ops"] if op.shape in self.trace_shapes]

    def check(self, op, out, golden):
        return digest(self.canon(out)) == golden[op.key]

    def rates(self, samples, state):
        by_shape = {}
        for op, dt in samples:
            by_shape.setdefault(op.shape, []).append(dt)
        med = {s: statistics.median(v) for s, v in by_shape.items()}
        work = sum(self.work(*s) for s in self.shapes)
        pass_s = sum(med[s] for s in self.shapes)
        return work / pass_s, statistics.median(med.values()), None


class RealizeSweep(FamilyWorkload):
    name = "realize_sweep"
    work_unit = "modules"
    # traced: every shape but the |L| = 125 sweep, to keep the traced run short
    shapes = SWEEP_SHAPES
    trace_shapes = frozenset(s for s in SWEEP_SHAPES if s != (5, 3, 1))

    @staticmethod
    def work(q, d, m):
        order = q ** (m * d)
        return order * (order - 1)

    @staticmethod
    def repeats(q, d, m):
        # op_p50_ms falls among the sweeps with |L| = 25 to 49, which take
        # 0.2 to 0.9 s; with one sample each a run, it read their noise.
        return 3 if q ** (m * d) <= 49 else 1

    @staticmethod
    def call(op):
        return census.realize(*op.args)

    @staticmethod
    def canon(out):
        realized, admissible, ordinary, missing = out
        return {
            "realized": sorted(realized),
            "admissible": sorted(admissible),
            "ordinary": sorted(ordinary),
            "missing": missing,
        }


class CensusGrid(FamilyWorkload):
    name = "census_grid"
    work_unit = "candidates"
    shapes = census_shapes()
    trace_shapes = frozenset(s for s in shapes if grid_size(*s) <= 1000)
    work = staticmethod(grid_size)

    @staticmethod
    def call(op):
        return census.full_report(*op.args)

    @staticmethod
    def canon(report):
        return report.to_json()


# --- module_queries -----------------------------------------------------------


def build_query_fields():
    fields = []
    for p, s, n in QUERY_FIELDS:
        L = ff.ext_make(ff.field_make(p, s), n)
        L.frob_iter(L.one, 1)  # builds the Frobenius tables
        fields.append(L)
    return fields


def query_pool(fields):
    """The fixed list of (field index, gamma, g, delta, kind)."""
    rng = random.Random(POOL_SEED)
    pool = []
    for fi, L in enumerate(fields):
        q, n = L.base.order, L.degree
        divisors = [k for k in range(1, n + 1) if n % k == 0]
        for i in range(QUERIES_PER_FIELD):
            k = rng.choice(divisors)
            gamma = L.pow(rng.randrange(1, L.order), (L.order - 1) // (q**k - 1))
            g = rng.randrange(L.order)
            delta = rng.randrange(1, L.order)
            pool.append((fi, gamma, g, delta, QUERY_KINDS[i % len(QUERY_KINDS)]))
    return pool


def run_query(L, gamma, g, delta, kind):
    """What the charpoly / classify / endring subcommands compute and print."""
    dm = drinfeld.DrinfeldModule(L, gamma, g, delta)
    if kind == "classify":
        report = classify.classify(dm)
        cp = report.charpoly
        payload = {"module": dm.to_json(), "report": report.to_json()}
    else:
        cp = frobenius.charpoly(dm)
        payload = {"module": dm.to_json(), "charpoly": cp.to_json()}
        if kind == "endring":
            kind_, g_, omega, conductors, flagged = classify.endomorphism_order(cp)
            payload.update(
                end_ring_kind=kind_.value,
                conductor_g=None if g_ is None else g_.to_human(),
                omega=None if omega is None else omega.to_human(),
                admissible_conductors=[f.to_human() for f in conductors],
                non_coprime_conductors=[f.to_human() for f in flagged],
            )
    return json.dumps(payload, indent=2), dm, cp


class ModuleQueries:
    name = "module_queries"
    work_unit = "queries"
    needs_full_pass = False
    setup_repeats = 3  # field construction takes seconds, so fewer repeats
    trace_queries = 400

    def setup(self, seed):
        fields = build_query_fields()
        pool = query_pool(fields)
        ops = [
            Op(fields[fi].order, i, 1, (fields[fi], gamma, g, delta, kind))
            for i, (fi, gamma, g, delta, kind) in enumerate(pool)
        ]
        return {"ops": ops, "slots": [(op,) for op in ops], "rng": random.Random(seed)}

    def trace_ops(self, state):
        return list(itertools.islice(stream(state), self.trace_queries))

    @staticmethod
    def call(op):
        return run_query(*op.args)

    @staticmethod
    def check(op, out, golden):
        text, dm, cp = out
        return digest(text) == golden[op.key] and frobenius.verify(dm, cp)

    def rates(self, samples, state):
        times = sorted(dt for _, dt in samples)
        cuts = statistics.quantiles(times, n=10, method="inclusive")
        return len(times) / sum(times), statistics.median(times), cuts[8]


WORKLOADS = {w.name: w for w in (RealizeSweep(), CensusGrid(), ModuleQueries())}
