"""Seeded call streams for the three benchmark workloads.

A workload is a list of slots.  A slot is a tuple of interchangeable calls
(or groups of calls) of similar cost; every round draws one entry per slot
and shuffles the calls, so each round has the same cost profile whatever
the seed, while the seed still decides which instances run and in which
order.  A run is a whole number of rounds.

Every call draws only from the documented domain: p split in Q(sqrt(d)),
d a negative fundamental discriminant, and class order h <= DEFAULT_H_MAX
(24).  The known crash for h > 24 stays out: its smallest instance spends
about 15 s in the series engine before it fails.
"""

import random


def _gs(p, d, n):
    return ("gross-stark", "--p", str(p), "--disc", str(d), "--prec", str(n))


def _interp(p, d, n):
    return ("interp", "--p", str(p), "--disc", str(d), "--prec", str(n))


def _hecke(p, d, nq):
    return ("hecke", "--p", str(p), "--disc", str(d), "--qexp-terms", str(nq))


def _lambda(p, n):
    return ("lambda", "--p", str(p), "--prec", str(n))


def _walg(k):
    return ("w-algebra", "--trials", str(k))


# gs-grid: warm Bernoulli cache, F = |d| p from 20 to 645.  Each slot holds
# instances within about 10% of one cost, and the slots step evenly from
# 0.2 s to 1.2 s, so the median and the tail fall in a dense run of costs.
# The two descent instances (4 p^h > 10^7) run in every round so both
# Cornacchia branches are always exercised.
GS_GRID = (
    (_gs(3, -8, 40), _gs(5, -4, 40)),
    (_gs(7, -3, 40), _gs(3, -11, 24)),
    (_gs(5, -24, 12), _gs(3, -20, 40), _gs(3, -35, 12)),
    (_gs(3, -23, 12), _gs(5, -11, 12), _gs(11, -8, 12), _gs(3, -11, 40)),
    (_gs(3, -56, 12), _gs(5, -24, 24), _gs(7, -24, 12)),
    (_gs(5, -11, 24), _gs(7, -20, 12)),
    (_gs(11, -7, 12), _gs(11, -8, 24), _gs(3, -23, 24)),
    (_gs(3, -68, 12), _gs(7, -20, 24), _gs(3, -56, 24), _gs(5, -19, 12),
     _gs(3, -47, 12), _gs(3, -35, 24)),
    (_gs(7, -24, 24), _gs(3, -104, 12), _gs(11, -24, 12)),
    (_gs(11, -7, 24), _gs(5, -11, 40), _gs(3, -68, 24), _gs(3, -23, 40)),
    (_gs(5, -56, 12), _gs(5, -39, 12), _gs(3, -59, 12), _gs(5, -19, 24)),
    (_gs(3, -95, 12), _gs(5, -51, 12), _gs(3, -71, 12), _gs(3, -47, 24),
     _gs(3, -152, 12)),
    (_gs(3, -215, 12),),   # h = 14, 4 * 3^14 > 10^7
    (_gs(5, -119, 12),),   # h = 10, 4 * 5^10 > 10^7
)

# cold-start: the smallest F (20 to 33), so filling the Bernoulli table,
# whose size depends only on N, dominates every call.  Per round one call
# at N = 20, two at 30 and one at 40, two of each command, so every round
# has the same number of checks.  The median falls among the N = 30 calls
# and the tail (with so few samples, a low percentile) among N = 20.
_COLD_PAIRS = [(3, -8), (3, -11), (5, -4), (7, -3)]


def _cold_slot(n_low, n_high):
    return tuple((a(p, d, n_low), b(q, e, n_high))
                 for a, b in ((_gs, _interp), (_interp, _gs))
                 for p, d in _COLD_PAIRS for q, e in _COLD_PAIRS)


COLD_START = (_cold_slot(20, 30), _cold_slot(30, 40))

# algebra: no series engine.  Four lambda, six hecke and two w-algebra calls
# per round, so the median falls among the hecke calls and the tail among
# the w-algebra calls.  The hecke calls are the split pairs and lengths
# (600 to 1000 terms) that cost 0.10 to 0.17 s, a narrow band, so the
# median does not depend on which of them the seed draws.
_HECKE = tuple(_hecke(p, d, nq) for nq, pairs in (
    (600, [(3, -11), (3, -23), (3, -47), (5, -11), (5, -19), (5, -31),
           (7, -19), (11, -7), (11, -19)]),
    (800, [(3, -8), (3, -20), (3, -35), (3, -47), (5, -4), (5, -11),
           (5, -19), (5, -31), (7, -3), (7, -19), (11, -7), (11, -19)]),
    (1000, [(3, -20), (3, -35), (5, -4), (5, -19), (5, -31), (7, -3),
            (7, -19), (7, -20), (11, -7), (11, -8), (11, -19)]),
) for p, d in pairs)
_LAMBDA = tuple(_lambda(p, n) for p in (3, 5, 7) for n in (12, 16, 20, 24, 30))
_WALG = (_walg(30),)   # one length: the tail is the 6th of 16 such calls
ALGEBRA = (_LAMBDA,) * 4 + (_HECKE,) * 6 + (_WALG,) * 2

WORKLOADS = {"gs-grid": GS_GRID, "cold-start": COLD_START, "algebra": ALGEBRA}

# Seconds one round takes on the reference machine (2-core Xeon VM, Python
# 3.11.7, sympy 1.14).  A run of S seconds is round(S / this) rounds, at
# least one: the same work on every commit, so a faster program keeps the
# same call mix and the same sample count behind each percentile.
ROUND_SECONDS = {"gs-grid": 13.0, "cold-start": 9.5, "algebra": 3.3}

# Calls that run in a fresh interpreter with an empty cache directory.
FRESH_PROCESS = {"cold-start"}
# Calls that get a warm disk cache, filled before timing by this call.
WARM_CACHE_FILL = {"gs-grid": _gs(5, -4, 40)}
# Untimed calls per one-process workload, about a second in all, so lazy
# set-up and the interpreter's first-call slowness are not timed.
WARM_UP = {"gs-grid": (_gs(5, -4, 12), _gs(3, -47, 12)),
           "algebra": (_lambda(3, 12), _hecke(5, -19, 800), _walg(25))}


def _groups(slot):
    """A slot's entries as groups of calls; a bare call is a group of one."""
    return [entry if isinstance(entry[0], tuple) else (entry,)
            for entry in slot]


def rounds(workload, seed):
    """Endless stream of rounds (lists of argv tuples) for workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    slots = [_groups(slot) for slot in WORKLOADS[workload]]
    while True:
        calls = [call for slot in slots for call in rng.choice(slot)]
        rng.shuffle(calls)
        yield calls


def pool(workload):
    """Every distinct call the workload can draw, in a stable order."""
    return sorted({call for slot in WORKLOADS[workload]
                   for group in _groups(slot) for call in group})
