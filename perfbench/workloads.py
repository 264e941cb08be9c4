"""Seeded workloads: input generators, timed operations and verdict checks.

Each workload is a fixed deck of job kinds.  ``<workload>_bases(rng)``
draws a pool of base jobs from the deck, so the deck's proportions hold
exactly in the pool, and cost proxies are held in bands so that every seed
builds jobs of like size.  ``op_stream`` cycles over the pool in a fresh
order each pass and translates every base by a random shift before handing
it to the library, so no operation repeats an input.  Translation leaves
every checked property unchanged.

Each result is checked, untimed, against what the construction guarantees
(refined covers are exact, perturbed twins are not, planted splits cancel),
and each returned witness is re-evaluated exactly for the translated input.
A base's gate checks its construction once against the oracle wherever the
full period fits under the oracle cap.

Only generated inputs reach the library.  The generators use their own
arithmetic (trial division, numpy scans) to pick parameters and expected
answers; the oracle and ``cover_count`` are called only to check.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Iterator

import numpy as np

from coverkit import (
    ExpSumSequence,
    MultiSequence,
    PeriodicValueTable,
    System,
    WeightedSequence,
    cover_count,
    decide_periodic_by_divisibility,
    expsum_cover_check,
    is_exact_m_cover,
    is_periodic_mod_vec,
    least_period,
    min_on_window,
    multidim_value,
    non_exact_witness,
    verify_covering_function,
    weighted_average_check,
    window_zero_check,
)
from coverkit.covering import DEFAULT_ORACLE_CAP
from coverkit.oracle import brute_cover_verdict, brute_tables_zero_verdict

# values at or past this magnitude keep a scan off the int64 kernels and on
# the exact Fraction path; the library's guard is the same power of two
EXACT_PATH_SCALE = 2**62

WINDOW_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
BASE_720720 = 720720  # 2^4 * 3^2 * 5 * 7 * 11 * 13
PRIMORIAL_30030 = 30030

Checker = Callable[[Any], "str | None"]


def no_gate() -> None:
    """For bases whose answer rests on their construction alone."""


@dataclass(frozen=True)
class Op:
    """One timed library call, the untimed check of what it returned, and
    the one-time oracle gate of the base it was made from."""

    kind: str
    call: Callable[[], Any]
    check: Checker
    gate: Callable[[], None] = no_gate


MakeOp = Callable[[random.Random], Op]


# ---------------------------------------------------------------------------
# arithmetic the generators and checks use, independent of the library


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factor(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def phi(n: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in factor(n).items())


def window_length(moduli) -> int:
    """Sum of phi(d) over the union of the divisors of the moduli: the
    number of distinct fractions r/n, the window the criteria scan."""
    return sum(phi(d) for d in set().union(*(divisors(n) for n in moduli)))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def union_size_by_gcds(moduli: list[int]) -> int:
    """|union of (1/n)Z/Z| by inclusion-exclusion: the intersection of the
    groups for a set of moduli is the group of their gcd."""
    total = 0
    for r in range(1, len(moduli) + 1):
        for subset in combinations(moduli, r):
            total += (-1) ** (r + 1) * math.gcd(*subset)
    return total


def cover_array(seqs: list[tuple], N: int) -> tuple[np.ndarray, int]:
    """(D*w(x) for x in [0, N) as int64, D) for (a, n[, weight]) entries."""
    weights = [Fraction(s[2]) if len(s) > 2 else Fraction(1) for s in seqs]
    D = math.lcm(*(w.denominator for w in weights))
    out = np.zeros(N, dtype=np.int64)
    for s, w in zip(seqs, weights):
        out[s[0] % s[1] :: s[1]] += int(w * D)
    return out, D


def least_period_of(arr: np.ndarray) -> int:
    """Least period of a sequence given over one of its periods: the periods
    dividing N are the multiples of the least one, so strip primes from N
    while the quotient is still a period."""
    d = len(arr)
    for p in factor(len(arr)):
        while d % p == 0 and np.array_equal(arr, np.roll(arr, -(d // p))):
            d //= p
    return d


def lcm_of(moduli) -> int:
    return math.lcm(*moduli)


# ---------------------------------------------------------------------------
# generators


def refined_cover(rng, m: int, primes, fits: Callable[[int], bool], max_k: int, min_k: int):
    """An exact m-cover: m copies of Z, then repeatedly a mod n is replaced
    by the p classes a + j*n mod p*n."""
    while True:
        seqs = [(0, 1)] * m
        for _ in range(8 * max_k):
            i = rng.randrange(len(seqs))
            a, n = seqs[i]
            p = rng.choice(primes)
            if len(seqs) + p - 1 > max_k or not fits(n * p):
                continue
            seqs[i : i + 1] = [(a + j * n, n * p) for j in range(p)]
        if len(seqs) >= min_k:
            return seqs


def perturbed(rng, seqs):
    """Twin of a cover with one class moved to another residue of its
    modulus: the old class is then covered one time too few, so the twin is
    never an exact cover and never an m-fold cover."""
    idx = [i for i, s in enumerate(seqs) if s[1] > 1]
    i = rng.choice(idx)
    a, n = seqs[i][:2]
    out = list(seqs)
    out[i] = (a + rng.randrange(1, n), n) + tuple(seqs[i][2:])
    return out


def shifted(seqs, t: int):
    return [(s[0] + t,) + tuple(s[1:]) for s in seqs]


def as_system(seqs) -> System:
    return System.of(*seqs)


def cancelling_tables(rng, pairs, char: int, scale: int = 1):
    """Periodic tables whose sum vanishes: each random table of period n is
    paired with its negation tiled to period n*c."""
    tables = []
    for n, c in pairs:
        if char:
            vals = [rng.randrange(char) for _ in range(n)]
        else:
            vals = [rng.randint(-9, 9) * scale for _ in range(n)]
        tables.append(vals)
        tables.append([-v for v in vals] * c)
    return tables


def broken(rng, tables, char: int, scale: int = 1):
    """The same tables with one value changed, so the sum no longer vanishes."""
    out = [list(t) for t in tables]
    t = rng.randrange(len(out))
    out[t][rng.randrange(len(out[t]))] += scale if not char else rng.randrange(1, char)
    return out


def to_tables(tables, char: int) -> list[PeriodicValueTable]:
    return [PeriodicValueTable(len(t), tuple(t), char) for t in tables]


def rotated(tables, t: int):
    return [v[t % len(v) :] + v[: t % len(v)] for v in tables]


def table_sum_at(tables, x: int, char: int):
    s = sum(Fraction(v[x % len(v)]) for v in tables)
    return s % char if char else s


def prime_not_dividing(rng, periods) -> int:
    return rng.choice([p for p in (5, 7, 11, 13, 101, 1009) if all(n % p for n in periods)])


def smooth_divisors(base: int, lo: int, hi: int) -> list[int]:
    return [d for d in divisors(base) if lo <= d <= hi]


# ---------------------------------------------------------------------------
# checks.  A result is checked against what the base's construction
# guarantees; the base's gate, run once after the timed loop (so that its
# full-period scans stay out of the loop's peak memory), checks that
# construction against the oracle wherever the full period fits under the
# oracle cap.


def verdict_check(want_ok: bool, witness_ok: Callable[[int], bool]) -> Checker:
    def check(v) -> str | None:
        if v.ok != want_ok:
            return f"verdict {v.ok}, expected {want_ok}"
        if not v.ok and (v.witness is None or not witness_ok(v.witness)):
            return f"witness {v.witness} does not falsify"
        return None

    return check


def equals(want) -> Checker:
    return lambda got: None if got == want else f"got {got!r}, expected {want!r}"


def agree(claim: bool, oracle_ok: bool, what: str) -> None:
    if claim != oracle_ok:
        raise AssertionError(f"generator bug: {what} built as {claim}, oracle says {oracle_ok}")


def cover_gate(seqs, m: int, want_ok: bool) -> Callable[[], None]:
    """The oracle on a cover or twin whose lcm fits under the cap."""

    def gate() -> None:
        system = as_system(seqs)
        if system.lcm() <= DEFAULT_ORACLE_CAP:
            agree(want_ok, brute_cover_verdict(system, PeriodicValueTable.constant(m)).ok, "cover")

    return functools.cache(gate)


def tables_gate(psis, vanishing: bool) -> Callable[[], None]:
    """The oracle on tables whose common period fits under the cap."""

    def gate() -> None:
        if lcm_of(t.period for t in psis) <= DEFAULT_ORACLE_CAP:
            agree(vanishing, brute_tables_zero_verdict(psis).ok, "tables")

    return functools.cache(gate)


def banded(draw: Callable[[], tuple], size: Callable[[tuple], int], lo: int, hi: int) -> tuple:
    """Redraw until the cost proxy lies in [lo, hi], so every seed builds
    jobs of like size and per-seed averages agree."""
    while True:
        item = draw()
        if lo <= size(item) <= hi:
            return item


# ---------------------------------------------------------------------------
# window: the window criteria on moduli up to a few thousand


def _window_cover(rng, m: int):
    return refined_cover(rng, m, WINDOW_PRIMES, lambda n: n <= 4000, 40, 8)


def verify_base(rng, twin: bool, exact_path: bool = False) -> MakeOp:
    """verify_covering_function on a refined m-cover or its twin.  The
    exact-path variant starts the window past 2**62 and fixes m and the
    window length, which set its cost."""
    if exact_path:
        m = 2
        seqs = banded(lambda: _window_cover(rng, m), lambda s: window_length([q[1] for q in s]), 3000, 3500)
    else:
        m = rng.randint(1, 3)
        seqs = _window_cover(rng, m)
    if twin:
        seqs = perturbed(rng, seqs)
    gate = cover_gate(seqs, m, not twin)
    target = PeriodicValueTable.constant(m)
    kind = "verify-exact-path" if exact_path else "verify"

    def make(rng) -> Op:
        system = as_system(shifted(seqs, rng.randrange(10**6)))
        start = rng.randrange(10**6) + (EXACT_PATH_SCALE if exact_path else 0)
        return Op(
            kind,
            lambda: verify_covering_function(system, target, start),
            verdict_check(not twin, lambda x: x >= start and cover_count(system, x) != m),
            gate,
        )

    return make


def exact_cover_base(rng, twin: bool) -> MakeOp:
    m = rng.randint(1, 3)
    seqs = _window_cover(rng, m)
    if twin:
        seqs = perturbed(rng, seqs)
    gate = cover_gate(seqs, m, not twin)

    def make(rng) -> Op:
        system = as_system(shifted(seqs, rng.randrange(10**6)))
        return Op("exact-cover", lambda: is_exact_m_cover(system, m), equals(not twin), gate)

    return make


def zero_base(rng, fp: bool, vanishing: bool, exact_path: bool = False) -> MakeOp:
    """window_zero_check on two cancelling pairs of tables, or on the same
    tables with one value changed.  Over Q every table value is converted to
    a Fraction, so the total table length sets the cost; on the exact path
    (values times 2**62) the window length times the table count does."""

    def draw():
        pairs = [(rng.randint(50, 400), rng.choice((1, 2, 3))) for _ in range(2)]
        return pairs, [n * c for n, c in pairs] + [n for n, _ in pairs]

    if exact_path:
        pairs, periods = banded(draw, lambda d: window_length(d[1]), 2000, 2400)
    else:
        pairs, periods = banded(draw, lambda d: sum(d[1]), 900, 1100)
    p = prime_not_dividing(rng, periods) if fp else 0
    scale = EXACT_PATH_SCALE if exact_path else 1
    tables = cancelling_tables(rng, pairs, p, scale)
    if not vanishing:
        tables = broken(rng, tables, p, scale)
    psis = to_tables(tables, p)
    gate = no_gate if exact_path else tables_gate(psis, vanishing)
    kind = "zero-exact-path" if exact_path else ("zero-fp" if p else "zero-q")

    def make(rng) -> Op:
        start = rng.randrange(10**9)
        return Op(
            kind,
            lambda: window_zero_check(psis, start),
            verdict_check(vanishing, lambda x: x >= start and table_sum_at(tables, x, p) != 0),
            gate,
        )

    return make


def witness_base(rng) -> MakeOp:
    """non_exact_witness on random classes, with m above k - f(lcm) so that
    a witness is guaranteed; the window length is held to 4000-6000."""

    def draw():
        k = rng.randint(4, 10)
        return [(rng.randrange(n), n) for n in (rng.randint(2, 3000) for _ in range(k))]

    seqs = banded(draw, lambda s: window_length([q[1] for q in s]), 4000, 6000)
    exps: dict[int, int] = {}
    for _, n in seqs:
        for p, e in factor(n).items():
            exps[p] = max(exps.get(p, 0), e)
    bound = len(seqs) - sum(e * (p - 1) for p, e in exps.items())
    m = max(1, bound + 1) + rng.randrange(2)

    def make(rng) -> Op:
        system = as_system(shifted(seqs, rng.randrange(10**6)))
        return Op(
            "witness",
            lambda: non_exact_witness(system, m),
            lambda x: None if x >= 0 and cover_count(system, x) != m else f"x={x} is no witness",
        )

    return make


def expsum_base(rng, twin: bool) -> MakeOp:
    """expsum_cover_check on the two-term sums whose zero sets are the
    classes of a refined cover with moduli dividing 24 (or of its twin).
    Building the zero-set tables costs about the sum of the cubed moduli,
    which is held to 1000-4000."""
    m = rng.randint(1, 2)
    seqs = banded(
        lambda: refined_cover(rng, m, (2, 3), lambda n: 24 % n == 0, 6, 4),
        lambda s: sum(q[1] ** 3 for q in s),
        1000,
        4000,
    )
    if twin:
        seqs = perturbed(rng, seqs)

    @functools.cache
    def gate() -> None:
        agree(not twin, bool(cover_array(seqs, 24)[0].min() >= m), "m-fold cover")

    mults = [rng.choice([u for u in range(1, max(n, 2)) if math.gcd(u, n) == 1]) for _, n in seqs]
    exp_seqs = [
        ExpSumSequence.from_arith_sequence(WeightedSequence(a, n), u)
        for (a, n), u in zip(seqs, mults)
    ]
    system = as_system(seqs)

    def make(rng) -> Op:
        start = rng.randrange(10**6)
        return Op(
            "expsum",
            lambda: expsum_cover_check(exp_seqs, m, start),
            verdict_check(not twin, lambda x: x >= start and cover_count(system, x) < m),
            gate,
        )

    return make


def window_bases(rng) -> list[MakeOp]:
    """Deck of 40: 24 checks under 0.5 ms, 7 witness searches near 1 ms,
    7 jobs of 3-6 ms (tables over Q, expsum) and 2 exact-path jobs (1 in
    20) of 10-40 ms.  The 90th latency percentile then falls inside the
    3-6 ms group, not on the edge between two groups."""
    deck: list[Callable[[], MakeOp]] = (
        [lambda: verify_base(rng, False)] * 6
        + [lambda: verify_base(rng, True)] * 6
        + [lambda: exact_cover_base(rng, False)] * 3
        + [lambda: exact_cover_base(rng, True)] * 3
        + [lambda: zero_base(rng, True, True)] * 4
        + [lambda: zero_base(rng, True, False)] * 2
        + [lambda: witness_base(rng)] * 7
        + [lambda: zero_base(rng, False, True)] * 3
        + [lambda: zero_base(rng, False, False)] * 2
        + [lambda: expsum_base(rng, False), lambda: expsum_base(rng, True)]
        + [lambda: verify_base(rng, rng.random() < 0.5, True)]
        + [lambda: zero_base(rng, False, rng.random() < 0.5, True)]
    )
    return [build() for _ in range(10) for build in deck]


# ---------------------------------------------------------------------------
# full-scan: full-period operations, N from about 1e4 to the oracle cap


def brute_cover_base(rng, twin: bool) -> MakeOp:
    """brute_cover_verdict on a refined cover with moduli dividing 720720,
    full period 1e5 to 720720 (refinement guarantees the verdict)."""
    m = rng.randint(1, 2)
    fits = lambda n: BASE_720720 % n == 0  # noqa: E731
    seqs = banded(
        lambda: refined_cover(rng, m, (2, 3, 5, 7, 11, 13), fits, 60, 8),
        lambda s: lcm_of(q[1] for q in s),
        10**5,
        BASE_720720,
    )
    if twin:
        seqs = perturbed(rng, seqs)
    target = PeriodicValueTable.constant(m)

    def make(rng) -> Op:
        system = as_system(shifted(seqs, rng.randrange(10**6)))
        return Op(
            "brute-cover",
            lambda: brute_cover_verdict(system, target),
            verdict_check(not twin, lambda x: cover_count(system, x) != m),
        )

    return make


def brute_tables_base(rng, fp: bool, vanishing: bool, exact_path: bool = False) -> MakeOp:
    """brute_tables_zero_verdict on cancelling tables (or a broken copy).
    int64 path: periods dividing 720720, common period 2e5 to 720720 and
    4000-8000 table values.  Exact path: values times 2**62, common period
    30030."""
    base = PRIMORIAL_30030 if exact_path else BASE_720720
    periods_from = smooth_divisors(base, 30 if exact_path else 100, 3000)

    def draw():
        pairs = []
        for _ in range(2 if exact_path else 3):
            n = rng.choice(periods_from)
            pairs.append((n, rng.choice([c for c in (1, 2, 3) if base % (n * c) == 0])))
        return pairs, [n * c for n, c in pairs] + [n for n, _ in pairs]

    if exact_path:
        pairs, periods = banded(draw, lambda d: lcm_of(d[1]), base, base)
    else:
        pairs, periods = banded(
            draw, lambda d: lcm_of(d[1]) if 4000 <= sum(d[1]) <= 8000 else 0, 2 * 10**5, base
        )
    p = prime_not_dividing(rng, periods) if fp else 0
    scale = EXACT_PATH_SCALE if exact_path else 1
    tables = cancelling_tables(rng, pairs, p, scale)
    if not vanishing:
        tables = broken(rng, tables, p, scale)
    kind = "brute-tables-exact-path" if exact_path else "brute-tables"

    def make(rng) -> Op:
        rot = rotated(tables, rng.randrange(10**6))
        psis = to_tables(rot, p)
        return Op(
            kind,
            lambda: brute_tables_zero_verdict(psis),
            verdict_check(vanishing, lambda x: table_sum_at(rot, x, p) != 0),
        )

    return make


def _box(rng, dim: int) -> tuple[int, ...]:
    sides = smooth_divisors(5040, 8, 5040)
    return banded(lambda: tuple(rng.choice(sides) for _ in range(dim)), math.prod, 6 * 10**5, 66 * 10**4)


def multidim_base(rng, dim: int, periodic: bool, decide: bool) -> MakeOp:
    """Four distinct moduli dividing a box B of 6e5-6.6e5 points, one of
    them B itself, with nonzero weights.  Maximal moduli are then distinct, so w is periodic mod n0 iff
    every modulus divides n0: true for n0 = B, false for n0 = B with one
    side divided by a prime.  The scanned box is B either way."""
    box = _box(rng, dim)
    moduli = {box}
    while len(moduli) < 4:
        moduli.add(tuple(rng.choice(divisors(b)) for b in box))
    weights = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2)]
    seqs = [(tuple(rng.randrange(c) for c in n), n, rng.choice(weights)) for n in sorted(moduli)]
    n0 = list(box)
    if not periodic:
        t = rng.randrange(dim)
        n0[t] //= rng.choice(list(factor(box[t])))
    n0 = tuple(n0)

    def make(rng) -> Op:
        shift = [rng.randrange(10**6) for _ in range(dim)]
        ms = [MultiSequence(tuple(a + s for a, s in zip(r, shift)), n, w) for r, n, w in seqs]
        if decide:
            return Op(
                "decide-periodic", lambda: decide_periodic_by_divisibility(ms, n0), equals(periodic)
            )

        def witness_ok(pair) -> bool:
            x, y = pair
            steps = [(t, yt - xt) for t, (xt, yt) in enumerate(zip(x, y)) if yt != xt]
            return (
                len(steps) == 1
                and steps[0][1] == n0[steps[0][0]]
                and multidim_value(ms, x) != multidim_value(ms, y)
            )

        def check(v):
            if v.ok != periodic:
                return f"verdict {v.ok}, expected {periodic}"
            if not v.ok and not witness_ok(v.witness):
                return f"witness {v.witness} does not falsify"
            return None

        return Op("periodic", lambda: is_periodic_mod_vec(ms, n0), check)

    return make


def min_window_base(rng, with_cover: bool) -> MakeOp:
    """min_on_window on 4-6 random classes with moduli dividing 720720 and
    full period 1e5 to 2e5, half of them joined to a small exact cover (so
    the minimum is at least l = 1).  The minimum is checked against a scan
    by the benchmark's own arithmetic."""
    moduli_from = smooth_divisors(BASE_720720, 2, 5000)
    head = [(0, 2), (1, 4), (3, 4)] if with_cover else []
    seqs = banded(
        lambda: head + [(rng.randrange(n), n) for n in rng.sample(moduli_from, rng.randint(4, 6))],
        lambda s: lcm_of(q[1] for q in s),
        10**5,
        2 * 10**5,
    )
    gmin = int(cover_array(seqs, lcm_of(s[1] for s in seqs))[0].min())
    l = 1 if with_cover else 0
    mults = [rng.choice([u for u in range(1, max(n, 2)) if math.gcd(u, n) == 1]) for _, n in seqs]

    def make(rng) -> Op:
        system = as_system(shifted(seqs, rng.randrange(10**6)))
        start = rng.randrange(10**6)

        def check(got):
            W, wmin, got_gmin = got
            if W < 1 or wmin != gmin or got_gmin != gmin:
                return f"got {got}, global minimum is {gmin}"
            return None

        return Op("min-window", lambda: min_on_window(system, mults, l, start), check)

    return make


def average_base(rng, base: int, lo: int, hi: int, exact_path: bool = False) -> MakeOp:
    """weighted_average_check (always true) on 6 weighted classes with
    moduli dividing ``base`` and full period in [lo, hi]; on the exact path
    the weights are near 2**62."""
    moduli_from = smooth_divisors(base, 2, 5040)
    moduli = banded(lambda: rng.sample(moduli_from, 6), lcm_of, lo, hi)
    big = EXACT_PATH_SCALE if exact_path else 0
    seqs = [(rng.randrange(n), n, big + rng.choice((-3, -2, -1, 1, 2, 3))) for n in moduli]
    kind = "average-exact-path" if exact_path else "average"

    def make(rng) -> Op:
        system = as_system(shifted(seqs, rng.randrange(10**6)))
        return Op(kind, lambda: weighted_average_check(system), equals(True))

    return make


def full_scan_bases(rng) -> list[MakeOp]:
    """Deck of 40, by rising cost: 12 full-period cover scans (1-5 ms); 16
    jobs of about 10 ms, half box scans (array work) and half mean-value
    checks over 7560 points (rational work), so that the median, which
    falls mid-way through them, moves with neither kind of slow phase
    alone; 2 minimum windows, 4 table scans (25-40 ms), 4 mean-value checks
    over about 28000 points (50-70 ms) and 2 exact-path scans (1 in 20,
    100-350 ms)."""
    deck: list[Callable[[], MakeOp]] = (
        [lambda: brute_cover_base(rng, False)] * 6
        + [lambda: brute_cover_base(rng, True)] * 6
        + [lambda dim=dim: multidim_base(rng, dim, True, False) for dim in (2, 3, 2)]
        + [lambda dim=dim: multidim_base(rng, dim, False, False) for dim in (3, 2)]
        + [lambda dim=dim: multidim_base(rng, dim, True, True) for dim in (3, 2)]
        + [lambda: multidim_base(rng, 3, False, True)]
        + [lambda: average_base(rng, 7560, 7560, 7560)] * 8
        + [lambda: min_window_base(rng, False), lambda: min_window_base(rng, True)]
        + [lambda: brute_tables_base(rng, False, True), lambda: brute_tables_base(rng, False, False)]
        + [lambda: brute_tables_base(rng, True, True), lambda: brute_tables_base(rng, True, False)]
        + [lambda: average_base(rng, BASE_720720, 27000, 30000)] * 4
        + [lambda: brute_tables_base(rng, False, True, True)]
        + [lambda: average_base(rng, PRIMORIAL_30030, PRIMORIAL_30030, PRIMORIAL_30030, True)]
    )
    return [build() for _ in range(8) for build in deck]


# ---------------------------------------------------------------------------
# least-period: cyclotomic coefficient tests on weighted systems

LP_BASES = (27720, 55440, 10080)
LP_WEIGHTS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(5, 4))


def planted_split(rng, n: int, p: int, w: Fraction):
    """a(n)*w together with (a+j*n)(p*n)*(-w) for j < p: the p refined classes
    partition a(n), so the pair contributes nothing to w anywhere."""
    a = rng.randrange(n)
    return [(a, n, w)] + [(a + j * n, p * n, -w) for j in range(p)]


def least_period_system(rng, base: int, split: bool, k: int):
    small = smooth_divisors(base, 1, 100)
    seqs = []
    if split:
        n, p = rng.choice([(n, p) for n in small for p in (2, 3, 5, 7) if n * p in small])
        seqs = planted_split(rng, n, p, rng.choice(LP_WEIGHTS))
    while len(seqs) < k:
        n = rng.choice(small)
        seqs.append((rng.randrange(n), n, rng.choice(LP_WEIGHTS)))
    return seqs


def least_period_cost(seqs) -> int:
    """Cost proxy of least_period: for each denominator q it tests phi(q)
    coefficients, each a dense level-q element summed over the classes
    whose modulus q divides."""
    moduli = [s[1] for s in seqs]
    qs = set().union(*(divisors(n) for n in moduli))
    return sum(phi(q) * q * sum(1 for n in moduli if n % q == 0) for q in qs)


def least_period_base(rng, base: int, split: bool, cost: int) -> MakeOp:
    seqs = banded(
        lambda: least_period_system(rng, base, split, rng.randint(4, 16)),
        least_period_cost,
        cost * 9 // 10,
        cost * 11 // 10,
    )
    want = least_period_of(cover_array(seqs, lcm_of(s[1] for s in seqs))[0])

    def make(rng) -> Op:
        system = as_system(shifted(seqs, rng.randrange(10**6)))
        return Op("least-period", lambda: least_period(system), equals(want))

    return make


def least_period_bases(rng) -> list[MakeOp]:
    """Deck of 30: each base, with or without a split, at five cost levels
    (k from 4 to 16 as the level allows).  The median and the 90th
    percentile then fall mid-way through the third and fifth levels."""
    deck = [
        (base, split, cost)
        for base in LP_BASES
        for split in (False, True)
        for cost in (3500, 6000, 9500, 13500, 18000)
    ]
    return [least_period_base(rng, *slot) for _ in range(5) for slot in deck]


# ---------------------------------------------------------------------------
# cli: one request per fresh process through coverkit.cli:main


@dataclass(frozen=True)
class CliRequest:
    """argv after the program name, plus the files it names."""

    kind: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...]  # (name, text)
    check: Callable[[int, str], "str | None"]


def result_line(output: str) -> dict[str, str]:
    lines = output.strip().splitlines()
    if not lines or not lines[-1].startswith("result|"):
        return {}
    return dict(part.split("=", 1) for part in lines[-1].split("|")[1:])


def cli_expect(code: int, verdict: str, witness_ok: Callable[[int], bool] | None = None):
    def check(got_code: int, output: str) -> str | None:
        line = result_line(output)
        if got_code != code or line.get("verdict") != verdict:
            return f"exit {got_code}, result {line}; expected exit {code}, verdict {verdict}"
        if witness_ok is not None and not witness_ok(int(line["witness"])):
            return f"witness {line['witness']} does not falsify"
        return None

    return check


def system_text(seqs) -> str:
    def vec(v):
        return ",".join(map(str, v)) if isinstance(v, tuple) else str(v)

    return "".join(
        f"{vec(s[0])} {vec(s[1])}" + (f" {s[2]}" if len(s) > 2 else "") + "\n" for s in seqs
    )


def cli_cover_request(rng, i: int, twin: bool, verify: bool) -> CliRequest:
    m = rng.randint(1, 2)
    seqs = refined_cover(rng, m, (2, 3, 5), lambda n: n <= 60, 12, 4)
    if twin:
        seqs = perturbed(rng, seqs)
    system = as_system(seqs)
    name = f"cover{i}.txt"
    witness_ok = (lambda x: cover_count(system, x) != m) if twin else None
    if verify:
        argv = ("verify", name, "--target-const", str(m))
        check = cli_expect(1, "mismatch", witness_ok) if twin else cli_expect(0, "matches")
    else:
        argv = ("exact-cover", name, "--m", str(m))
        check = cli_expect(1, "not-exact-cover", witness_ok) if twin else cli_expect(0, "exact-cover")
    return CliRequest(argv[0], argv, ((name, system_text(seqs)),), check)


def cli_least_period_request(rng, i: int) -> CliRequest:
    seqs = least_period_system(rng, 360, rng.random() < 0.5, rng.randint(4, 8))
    arr, _ = cover_array(seqs, lcm_of(s[1] for s in seqs))
    name = f"lp{i}.txt"
    return CliRequest(
        "least-period",
        ("least-period", name),
        ((name, system_text(seqs)),),
        cli_expect(0, str(least_period_of(arr))),
    )


def cli_expsum_request(rng, i: int) -> CliRequest:
    m = 1
    seqs = refined_cover(rng, m, (2, 3), lambda n: 12 % n == 0, 5, 3)
    twin = rng.random() < 0.5
    if twin:
        seqs = perturbed(rng, seqs)
    level = 12
    lines = [f"level {level}"]
    for a, n in seqs:
        # zero set of 1 - zeta_n^(-a) e(x/n) is exactly the class a mod n
        lines += [f"modulus {n}", "0 1", f"1 -z^{(-a * (level // n)) % level}"]
    system = as_system(seqs)
    name = f"expsum{i}.txt"
    check = (
        cli_expect(1, "uncovered", lambda x: cover_count(system, x) < m)
        if twin
        else cli_expect(0, "covers")
    )
    return CliRequest(
        "expsum-cover", ("expsum-cover", name, "--m", str(m)), ((name, "\n".join(lines) + "\n"),), check
    )


def cli_multidim_request(rng, i: int) -> CliRequest:
    box = (rng.choice((12, 20, 24, 30)), rng.choice((12, 18, 28, 30)))
    moduli = {box}
    while len(moduli) < 4:
        moduli.add(tuple(rng.choice(divisors(b)) for b in box))
    seqs = [(tuple(rng.randrange(c) for c in n), n, rng.choice((1, -1, 2))) for n in sorted(moduli)]
    periodic = rng.random() < 0.5
    n0 = list(box)
    if not periodic:
        n0[0] //= rng.choice(list(factor(box[0])))
    name = f"multi{i}.txt"
    return CliRequest(
        "multidim-period",
        ("multidim-period", name, "--n0", ",".join(map(str, n0))),
        ((name, system_text(seqs)),),
        cli_expect(0, "periodic") if periodic else cli_expect(1, "not-periodic"),
    )


def cli_window_size_request(rng, i: int) -> CliRequest:
    """Two moduli 6*P1 and 6*P2 in [4e11, 5e11], P1 and P2 distinct primes:
    the factorizations then cost alike for every seed."""
    primes: list[int] = []
    while len(primes) < 2:
        P = rng.randrange(4 * 10**11 // 6, 5 * 10**11 // 6)
        if is_prime(P) and P not in primes:
            primes.append(P)
    moduli = [6 * P for P in primes]
    name = f"ws{i}.txt"
    return CliRequest(
        "window-size",
        ("window-size", name),
        ((name, system_text([(0, n) for n in moduli])),),
        cli_expect(0, str(union_size_by_gcds(moduli))),
    )


def cli_requests(rng) -> list[CliRequest]:
    out: list[CliRequest] = []
    for _ in range(8):
        i = len(out)
        out += [
            cli_cover_request(rng, i, rng.random() < 0.5, False),
            cli_cover_request(rng, i + 1, rng.random() < 0.5, True),
            cli_least_period_request(rng, i + 2),
            cli_expsum_request(rng, i + 3),
            cli_multidim_request(rng, i + 4),
            cli_window_size_request(rng, i + 5),
        ]
    return out


def run_in_process(argv) -> tuple[int, str]:
    """coverkit.cli.run_command on argv with stdout captured."""
    from coverkit.cli import run_command

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(list(argv))
    return code, buf.getvalue()


def cli_bases(requests: list[CliRequest], runner, workdir) -> list[MakeOp]:
    """Write each request's files into workdir and make its operation; the
    runner executes an argv and returns (exit code, output)."""

    def base(req: CliRequest) -> MakeOp:
        paths = {}
        for name, text in req.files:
            paths[name] = str(workdir / name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = tuple(paths.get(a, a) for a in req.argv)
        return lambda rng: Op(req.kind, lambda: runner(argv), lambda got: req.check(*got))

    return [base(r) for r in requests]


# ---------------------------------------------------------------------------


def op_stream(bases: list[MakeOp], rng: random.Random) -> Iterator[Op]:
    """Closed-loop request order: every pass visits each base once, in a
    freshly shuffled order."""
    while True:
        order = list(bases)
        rng.shuffle(order)
        for make in order:
            yield make(rng)
