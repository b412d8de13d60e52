"""Workload table, seeded inputs and the independent oracles.

Each workload is sized so that one layer of `kronscale` does most of its
work (see `layers.json` for which per-layer metric should move which
end-to-end metric).  A shared host can switch between speeds up to 1.8x
apart, for under a second or for minutes at a time, so each run spreads
its samples over many short builds in fresh interpreters, every build
answers every query, and times are scaled to a nominal host speed
(hostspeed.py).  Inputs come only from the workload
seed; `kronscale` receives the generated matrices, graph and sieve
generator and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "perm" or "kpath"
    why: str
    # fresh-interpreter builds, and queries each build answers, per second
    # of --seconds
    build_rate: float
    query_rate: float
    # permanent: build_permanent_circuit(n, b=b, g=g), s = n / (3 b g)
    n: int = 0
    b: int = 1
    g: int = 1
    # k-path: kpath_detect(method, k) on complete digraphs of these sizes
    method: str = ""
    k: int = 0
    components: tuple = ()

    @property
    def s(self) -> int:
        return self.n // (3 * self.b * self.g) if self.kind == "perm" else 0

    def builds(self, seconds: int) -> int:
        """Builds in a run of `seconds`; at least two."""
        return max(2, round(seconds * self.build_rate))

    def queries(self, seconds: int) -> int:
        """Queries per build in a run of `seconds`; at least 20 so the
        median has ten samples beyond it."""
        return max(20, round(seconds * self.query_rate))

    def params(self, seconds: int) -> dict:
        counts = {"builds": self.builds(seconds), "queries": self.queries(seconds)}
        if self.kind == "perm":
            return {"n": self.n, "b": self.b, "g": self.g, "s": self.s, **counts}
        return {"method": self.method, "k": self.k,
                "components": list(self.components), **counts}


WORKLOADS = {w.name: w for w in (
    Workload(
        "perm6-s2", "perm", n=6, b=1, g=1, build_rate=4.0, query_rate=1.5,
        why="build_permanent_circuit(6,b=1,g=1): s=2 on P_3 factors, 4 fresh builds/s, "
            "each checking 1.5 matrices/s by Ryser; scheme set-up and the Yates "
            "transform dominate the build"),
    Workload(
        "kpath-tri", "kpath", method="tri", k=5, components=(5, 2),
        build_rate=0.4, query_rate=0.5,
        why="kpath_detect(tri,k=5) over GF(2^32) on complete digraphs of 5,2 "
            "vertices (no 5-path), 0.4 builds/s, 0.5 trials/s per build; the arc "
            "re-sum in 7 P_3 instantiations dominates the build"),
)}

# every k-path run also checks, untimed, that its route detects the path
# with YES_K arcs in a complete digraph on YES_COMPONENTS
YES_COMPONENTS, YES_K = (4,), 3


def random_matrices(seed: int, n: int, count: int, p: int) -> list:
    """`count` n x n matrices with entries uniform in [0, p)."""
    rnd = random.Random(f"perm:{seed}")
    return [tuple(tuple(rnd.randrange(p) for _ in range(n)) for _ in range(n))
            for _ in range(count)]


def component_digraph(seed: int, components) -> tuple:
    """Disjoint complete digraphs on the given component sizes, with a
    seeded vertex numbering.  Returns (vertex count, sorted 1-based arcs)."""
    n = sum(components)
    labels = list(range(1, n + 1))
    random.Random(f"graph:{seed}").shuffle(labels)
    arcs = []
    start = 0
    for size in components:
        members = labels[start:start + size]
        start += size
        arcs.extend((u, v) for u in members for v in members if u != v)
    return n, tuple(sorted(arcs))


def sieve_seed(seed: int) -> int:
    """64-bit seed for the sieve generator handed to kpath_detect."""
    return random.Random(f"sieve:{seed}").getrandbits(64)


def has_simple_path(n: int, arcs, k: int) -> bool:
    """Brute force: is there a directed simple path with k arcs?"""
    out = {v: [] for v in range(1, n + 1)}
    for u, v in arcs:
        out[u].append(v)

    def extend(v, used, length):
        if length == k:
            return True
        return any(extend(w, used | {w}, length + 1)
                   for w in out[v] if w not in used)

    return any(extend(v, {v}, 0) for v in range(1, n + 1))


def permanent_by_permutations(entries, p: int) -> int:
    """Permanent mod p as the sum over all permutations (tiny n only)."""
    from itertools import permutations
    n = len(entries)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod = prod * entries[i][j] % p
        total = (total + prod) % p
    return total
