"""Matchings-connectivity machinery: fingerprints, basis matchings, the
tensor H_q, GF(2) basis identities, type factorization, and brute-force
join-formula validation over nice tree decompositions.

Degenerate-case conventions (each validated by the exhaustive checks in
verify_basis_identity / verify_factorization / verify_join rather than
assumed):

* a doubled edge counts as a single 2-cycle (needed for the basis identity
  at |X| = 2);
* the empty edge multiset satisfies the cycle CONDITION used by the DP
  tables, the H tensors and the factorization (leaf table entries and
  inert blocks contribute 1); the public is_single_cycle keeps the strict
  reading where an empty union is not a cycle;
* contraction collapses pass-through vertices carrying two cross edges,
  so the basis expansion runs over chain endpoints; crossing-free types
  factor blockwise only when at most one block carries edges, and the
  verifier enforces that guard explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations, product

from .errors import (InternalError, ParityError, ParseError, TooLarge, content_lines,
                     int_fields)
from .fields import prime_field
from .tensor import Tensor

GF2 = prime_field(2)


def _cycle_cond(edges) -> bool:
    """Cycle condition on an edge multiset; the empty multiset passes
    (degenerate convention, see module docstring)."""
    if not edges:
        return True
    deg: dict = {}
    for (u, v) in edges:
        deg[u] = deg.get(u, 0) + (2 if u == v else 1)
        if u != v:
            deg[v] = deg.get(v, 0) + 1
    ok = all(d == 2 for d in deg.values())
    if ok:
        # connectivity walk over the multigraph
        adj: dict = {}
        for idx, (u, v) in enumerate(edges):
            adj.setdefault(u, []).append((idx, v))
            adj.setdefault(v, []).append((idx, u))
        used = [False] * len(edges)
        start = edges[0][0]
        stack = [start]
        seen = {start}
        while stack:
            v = stack.pop()
            for idx, w in adj[v]:
                if not used[idx]:
                    used[idx] = True
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        ok = all(used) and seen == set(deg)
    return ok


def is_single_cycle(m1, m2, m3) -> bool:
    """True iff the multigraph union of the three matchings is exactly one
    cycle covering all touched vertices (strict: an empty union is not)."""
    edges = list(m1) + list(m2) + list(m3)
    if not edges:
        return False
    return _cycle_cond(edges)


def _zx_edges(x_list):
    x = sorted(x_list)
    out = []
    for i in range(1, len(x) + 1):
        for j in range(i + 1, len(x) + 1):
            if j // 2 == i // 2 + 1:
                out.append((x[i - 1], x[j - 1]))
    return out


def basis_matchings(x_list):
    """The 2^(|X|/2-1) perfect matchings of Z_X, indexed by their bit
    strings (list position = int(a, 2); |X| <= 2 has the single index 0)."""
    x = tuple(sorted(x_list))
    if len(x) % 2 != 0:
        raise ParityError(f"|X| = {len(x)} is odd")
    return [m for _, m in _basis_indexed(x)]


def _basis_indexed(x: tuple):
    """[(bits, matching)] with bits the index string (low bit = outermost
    recursion level, appended last)."""
    if not x:
        return [("", frozenset())]
    if len(x) == 2:
        return [("", frozenset({(x[0], x[1])}))]
    out = []
    for bits, m in _basis_indexed(x[:-2]):
        out.append((bits + "0", m | {(x[-2], x[-1])}))
    for bits, m in _basis_indexed(x[:-3] + (x[-2],)):
        out.append((bits + "1", m | {(x[-3], x[-1])}))
    out.sort(key=lambda bm: bm[0])
    return out


def basis_index(matching) -> str:
    x = tuple(sorted(v for e in matching for v in e))
    for bits, m in _basis_indexed(x):
        if m == frozenset(matching):
            return bits
    raise ValueError("not a basis matching")


def complement_matching(matching) -> frozenset:
    """The matching indexed by the complemented bit string over the same
    vertex set."""
    x = tuple(sorted(v for e in matching for v in e))
    bits = basis_index(matching)
    flipped = "".join("1" if b == "0" else "0" for b in bits)
    for cand_bits, m in _basis_indexed(x):
        if cand_bits == flipped:
            return m
    raise InternalError("complement bits missing")


def all_perfect_matchings(vertices):
    verts = tuple(sorted(vertices))
    if not verts:
        return [frozenset()]
    if len(verts) % 2 != 0:
        raise ParityError("odd vertex set has no perfect matching")
    first, rest = verts[0], verts[1:]
    out = []
    for i, other in enumerate(rest):
        for m in all_perfect_matchings(rest[:i] + rest[i + 1:]):
            out.append(m | {(first, other)})
    return out


def verify_basis_identity(x_list):
    """Check Lemma-style basis expansion over all pairs of perfect
    matchings of K_X; returns None or the first failing pair."""
    x = tuple(sorted(x_list))
    pms = all_perfect_matchings(x)
    indexed = _basis_indexed(x)
    by_bits = dict(indexed)
    for m1 in pms:
        for m2 in pms:
            lhs = 1 if _cycle_cond(list(m1) + list(m2)) else 0
            rhs = 0
            for bits, bm in indexed:
                flipped = "".join("1" if b == "0" else "0" for b in bits)
                co = by_bits[flipped]
                t1 = _cycle_cond(list(m1) + list(bm))
                t2 = _cycle_cond(list(m2) + list(co))
                rhs ^= int(t1) & int(t2)
            if lhs != rhs:
                return (m1, m2)
    return None


def basis_cut_bound(x_list) -> bool:
    """Observation: every basis matching has at most 2 edges crossing any
    prefix cut of the sorted vertex list."""
    x = tuple(sorted(x_list))
    for m in basis_matchings(x):
        for cut in range(1, len(x)):
            left = set(x[:cut])
            crossing = sum(1 for (u, v) in m if (u in left) != (v in left))
            if crossing > 2:
                return False
    return True


# ---------------------------------------------------------------------------
# fingerprints and the tensor H_q

def enumerate_fingerprints(universe):
    """All (d, M) with d: universe -> {0,1,2} and M a basis matching of
    Z_{d^{-1}(1)}; d is a tuple aligned with sorted(universe)."""
    verts = tuple(sorted(universe))
    out = []
    for ones in _even_subsets(verts):
        rest = [v for v in verts if v not in ones]
        for m in basis_matchings(ones):
            for bits in range(1 << len(rest)):
                d = {}
                for v in ones:
                    d[v] = 1
                for i, v in enumerate(rest):
                    d[v] = 2 if (bits >> i) & 1 else 0
                out.append((tuple(d[v] for v in verts), m))
    return out


def _even_subsets(verts):
    out = []
    for size in range(0, len(verts) + 1, 2):
        out.extend(combinations(verts, size))
    return out


def fingerprint_ground(q: int):
    """Tensor ground for H_q: two degree bits per vertex plus one bit per
    vertex pair (matching edges)."""
    ground = []
    for v in range(1, q + 1):
        ground.append(("d", v, 0))
        ground.append(("d", v, 1))
    for u in range(1, q + 1):
        for v in range(u + 1, q + 1):
            ground.append(("m", u, v))
    return tuple(ground)


def encode_fingerprint(q: int, d, m) -> int:
    ground = fingerprint_ground(q)
    pos = {label: i for i, label in enumerate(ground)}
    mask = 0
    for i, dv in enumerate(d, start=1):
        if dv >= 1:
            mask |= 1 << pos[("d", i, 0)]
        if dv == 2:
            mask |= 1 << pos[("d", i, 1)]
    for (u, v) in m:
        mask |= 1 << pos[("m", min(u, v), max(u, v))]
    return mask


def build_H(q: int) -> Tensor:
    """The matchings connectivity tensor over GF(2): triples of fingerprints
    with pointwise d1+d2 = d3 whose matching union satisfies the cycle
    condition (all coefficients are one)."""
    if q > 8:
        raise TooLarge("build_H capped at q <= 8")
    universe = tuple(range(1, q + 1))
    per_vertex = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)]
    entries = {}
    for combo in product(per_vertex, repeat=q):
        d1 = tuple(c[0] for c in combo)
        d2 = tuple(c[1] for c in combo)
        d3 = tuple(a + b for a, b in zip(d1, d2))
        x1 = [v for v in universe if d1[v - 1] == 1]
        x2 = [v for v in universe if d2[v - 1] == 1]
        x3 = [v for v in universe if d3[v - 1] == 1]
        if len(x1) % 2 or len(x2) % 2 or len(x3) % 2:
            continue
        for m1 in basis_matchings(x1):
            for m2 in basis_matchings(x2):
                for m3 in basis_matchings(x3):
                    if _cycle_cond(list(m1) + list(m2) + list(m3)):
                        entries[(encode_fingerprint(q, d1, m1), encode_fingerprint(q, d2, m2),
                                 encode_fingerprint(q, d3, m3))] = GF2.one
    return Tensor(GF2, fingerprint_ground(q), entries)


# ---------------------------------------------------------------------------
# type factorization (Kronecker scaling of H)

def _blocks_for(q: int, b: int):
    blocks = []
    v = 1
    while v <= q:
        blocks.append(tuple(range(v, min(v + b, q + 1))))
        v += b
    return blocks


def _chains(cross_edges):
    """Chain structure of the cross edges: cross_edges is a list of
    (edge, slot).  Returns (open_chains, closed_count, c2_slots) where an
    open chain is (endpoint_u, endpoint_w, end_slot_u, end_slot_w)."""
    incid: dict = {}
    for idx, ((u, v), slot) in enumerate(cross_edges):
        incid.setdefault(u, []).append((idx, v, slot))
        incid.setdefault(v, []).append((idx, u, slot))
    for v, lst in incid.items():
        if len(lst) > 2:
            raise InternalError("vertex with more than two cross edges")
    c1 = sorted(v for v, lst in incid.items() if len(lst) == 1)
    used = [False] * len(cross_edges)
    open_chains = []
    for start in c1:
        cand = [t for t in incid[start] if not used[t[0]]]
        if not cand:
            continue
        idx, nxt, slot = cand[0]
        used[idx] = True
        first_slot = slot
        cur = nxt
        prev_idx = idx
        while len(incid[cur]) == 2:
            idx2, nxt2, slot2 = next(t for t in incid[cur] if t[0] != prev_idx)
            if used[idx2]:
                break
            used[idx2] = True
            prev_idx = idx2
            cur, slot = nxt2, slot2
        open_chains.append((start, cur, first_slot, slot))
    closed = 0
    for idx in range(len(cross_edges)):
        if not used[idx]:
            # walk the closed component
            closed += 1
            stack = [idx]
            used[idx] = True
            frontier = list(cross_edges[idx][0])
            while frontier:
                v = frontier.pop()
                for (i2, w, _) in incid.get(v, ()):
                    if not used[i2]:
                        used[i2] = True
                        frontier.append(w)
    c2_slots = {v: tuple(sorted(t[2] for t in lst))
                for v, lst in incid.items() if len(lst) == 2}
    return open_chains, closed, c2_slots


def _exit_pairings(block_set, a_edges):
    """Local pairings for A-edges leaving the block.

    Legal exit profiles (parity of cut crossings): two left exits pair
    together, two right exits pair together, and a single left plus a
    single right exit (under a pass-over edge) pair with each other.
    Returns the pairing edges or None if the profile is illegal.
    """
    lo, hi = min(block_set), max(block_set)
    left, right = [], []
    passes = 0
    for (u, v) in a_edges:
        inside = (u in block_set, v in block_set)
        if inside == (True, True):
            continue
        if inside == (False, False):
            if (u < lo) != (v < lo) and (u > hi) != (v > hi):
                # spans the block without touching it
                if min(u, v) < lo and max(u, v) > hi:
                    passes += 1
            continue
        mine, other = (u, v) if inside[0] else (v, u)
        if other < lo:
            left.append(mine)
        else:
            right.append(mine)
    if (len(left) + passes) % 2 or (len(right) + passes) % 2:
        return None
    pairs = []
    if len(left) == 2:
        pairs.append((min(left), max(left)))
        left = []
    if len(right) == 2:
        pairs.append((min(right), max(right)))
        right = []
    if len(left) == 1 and len(right) == 1:
        a, c = left[0], right[0]
        pairs.append((min(a, c), max(a, c)))
        left = right = []
    if left or right:
        return None
    return pairs


def _reroute_block(block, triple, cross_sets, a_edges):
    """Per-block rerouted fingerprints for one (triple, A) pair.

    Intra edges keep their slots; in-block A edges and exit pairings are
    connectors whose slots come from a deterministic search.  Degrees are
    re-derived rather than inherited: x/y saturation marks (original d=2)
    persist, every slot covers each vertex at most once, and the z degree
    is forced to the x+y sum with z-slot edges covering exactly the
    derived degree-one vertices.  The first assignment in slot order wins;
    None means the block structure cannot be encoded as fingerprints,
    which the verifier surfaces as a failure.
    """
    block_set = set(block)
    intra = [set(), set(), set()]
    for i in range(3):
        d_i, m_i = triple[i]
        intra[i] = {e for e in m_i if e[0] in block_set and e[1] in block_set}
    sat = [
        {v for v in block if triple[0][0][v - 1] == 2},
        {v for v in block if triple[1][0][v - 1] == 2},
    ]
    local_a = [e for e in a_edges if e[0] in block_set and e[1] in block_set]
    pairs = _exit_pairings(block_set, a_edges)
    if pairs is None:
        return None
    connectors = sorted(local_a + pairs)

    def finish(slot_of):
        m_hat = [set(intra[i]) for i in range(3)]
        for e, s in zip(connectors, slot_of):
            m_hat[s].add(e)
        cover = [dict(), dict(), dict()]
        for i in range(3):
            for (u, v) in m_hat[i]:
                for z in (u, v):
                    cover[i][z] = cover[i].get(z, 0) + 1
                    if cover[i][z] > 1:
                        return None
        d_hat = [{}, {}, {}]
        for v in block:
            for i in (0, 1):
                if v in sat[i]:
                    if cover[i].get(v):
                        return None
                    d_hat[i][v] = 2
                else:
                    d_hat[i][v] = cover[i].get(v, 0)
            z = d_hat[0][v] + d_hat[1][v]
            if z > 2:
                return None
            d_hat[2][v] = z
            if (z == 1) != bool(cover[2].get(v)):
                return None
            if z != 1 and cover[2].get(v):
                return None
        return tuple((tuple(d_hat[i][v] for v in block), frozenset(m_hat[i]))
                     for i in range(3))

    for assignment in product((0, 1, 2), repeat=len(connectors)):
        fps = finish(assignment)
        if fps is not None:
            return fps
    return None


@dataclass
class FactorizationReport:
    q: int
    b: int
    ok: bool
    basis_expansion_ok: bool
    reroute_ok: bool
    sum_ok: bool
    triples_checked: int
    type_count: int
    type_bound: int
    failures: list = dataclass_field(default_factory=list)
    notes: tuple = ()


def verify_factorization(q: int, b: int) -> FactorizationReport:
    """Three-stage exhaustive verification of the Kronecker scaling of H_q.

    (i) the chain-contracted basis expansion of the cycle indicator,
    (ii) the rerouting equivalence per block, and (iii) the full type sum
    against build_H(q), all coefficient-exact mod 2.
    """
    if q > 6 or b > 3:
        raise TooLarge("verify_factorization capped at q <= 6, b <= 3")
    universe = tuple(range(1, q + 1))
    blocks = _blocks_for(q, b)
    r = len(blocks)
    block_of = {}
    for j, blk in enumerate(blocks):
        for v in blk:
            block_of[v] = j
    h_cache = {}

    def h_lookup(size, fps):
        tensor = h_cache.get(size)
        if tensor is None:
            tensor = build_H(size)
            h_cache[size] = tensor
        key = tuple(encode_fingerprint(size, d, m) for d, m in fps)
        return 1 if key in tensor.entries else 0

    def relabel(block, fp):
        d, m = fp
        order = {v: i + 1 for i, v in enumerate(block)}
        return (d, frozenset((min(order[u], order[v]), max(order[u], order[v]))
                             for (u, v) in m))

    per_vertex = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)]
    basis_cache: dict = {}

    def basis_of(x):
        x = tuple(sorted(x))
        if x not in basis_cache:
            basis_cache[x] = _basis_indexed(x)
        return basis_cache[x]

    report = FactorizationReport(
        q=q, b=b, ok=True, basis_expansion_ok=True, reroute_ok=True,
        sum_ok=True, triples_checked=0, type_count=0,
        type_bound=(20 * b) ** (12 * r),
        notes=("empty-union cycle convention in effect",
               "crossing-free types factor under a single-active-block guard"))
    types_seen = set()

    def cross_of(m):
        return frozenset(e for e in m if block_of[e[0]] != block_of[e[1]])

    for combo in product(per_vertex, repeat=q):
        d1 = tuple(c[0] for c in combo)
        d2 = tuple(c[1] for c in combo)
        d3 = tuple(a + bb for a, bb in zip(d1, d2))
        x1 = [v for v in universe if d1[v - 1] == 1]
        x2 = [v for v in universe if d2[v - 1] == 1]
        x3 = [v for v in universe if d3[v - 1] == 1]
        if len(x1) % 2 or len(x2) % 2 or len(x3) % 2:
            continue
        for _, m1 in basis_of(x1):
            for _, m2 in basis_of(x2):
                for _, m3 in basis_of(x3):
                    triple = ((d1, m1), (d2, m2), (d3, m3))
                    report.triples_checked += 1
                    _check_triple(triple, blocks, block_of, relabel, h_lookup,
                                  cross_of, types_seen, report)
    report.type_count = len(types_seen)
    report.ok = (report.basis_expansion_ok and report.reroute_ok
                 and report.sum_ok
                 and report.type_count <= report.type_bound)
    return report


def _check_triple(triple, blocks, block_of, relabel, h_lookup, cross_of,
                  types_seen, report):
    (d1, m1), (d2, m2), (d3, m3) = triple
    union = list(m1) + list(m2) + list(m3)
    lhs = 1 if _cycle_cond(union) else 0
    cross_sets = [cross_of(m1), cross_of(m2), cross_of(m3)]
    tau = (cross_sets[0], cross_sets[1], cross_sets[2])
    types_seen.add(tau)
    cross_list = [(e, i + 1) for i in range(3) for e in sorted(cross_sets[i])]
    intra = [e for e in union if block_of[e[0]] == block_of[e[1]]]
    rhs = 0
    reroute_ok = True
    expansion = None

    if not cross_list:
        # crossing-free type: blockwise restriction with the activity guard
        active = {block_of[e[0]] for e in intra}
        if len(active) <= 1:
            prod = 1
            for j, blk in enumerate(blocks):
                fps = []
                for i in range(3):
                    d_i, m_i = triple[i]
                    dd = tuple(d_i[v - 1] for v in blk)
                    mm = frozenset(e for e in m_i
                                   if block_of[e[0]] == j and block_of[e[1]] == j)
                    fps.append(relabel(blk, (dd, mm)))
                prod &= h_lookup(len(blk), fps)
            rhs = prod
    else:
        open_chains, closed, _ = _chains(cross_list)
        vprime = sorted(v for (u, w, _, _) in open_chains for v in (u, w))
        if closed == 0 and vprime:
            expansion = 0
            chain_edges = [(min(u, w), max(u, w)) for (u, w, _, _) in open_chains]
            for bits, a_matching in _basis_indexed(tuple(vprime)):
                comp = complement_matching(a_matching) if a_matching else frozenset()
                if not _cycle_cond(chain_edges + list(comp)):
                    continue
                a_edges = sorted(a_matching)
                rerouted = intra + a_edges
                global_single = 1 if (rerouted and _cycle_cond(rerouted)) else 0
                expansion ^= global_single
                # tether guard: blocks A touches must form one component
                # under cross-block A edges, and every block carrying intra
                # edges must be A-touched; otherwise locally-closed blocks
                # could fake a single global cycle
                touched = set()
                parent: dict = {}

                def find(x):
                    while parent.get(x, x) != x:
                        parent[x] = parent.get(parent[x], parent[x])
                        x = parent[x]
                    return x

                for (u, w) in a_edges:
                    bu, bw = block_of[u], block_of[w]
                    touched.add(bu)
                    touched.add(bw)
                    parent[find(bu)] = find(bw)
                tethered = (len({find(t) for t in touched}) <= 1
                            and {block_of[e[0]] for e in intra} <= touched)
                term = 1 if tethered else 0
                if term:
                    for j, blk in enumerate(blocks):
                        fps = _reroute_block(blk, triple, cross_sets, a_edges)
                        if fps is None:
                            term = 0
                            break
                        term &= h_lookup(len(blk), [relabel(blk, fp) for fp in fps])
                rhs ^= term
                if term != global_single:
                    reroute_ok = False
        elif closed == 1 and not vprime:
            # a closed chain of cross edges is the whole cycle candidate
            rhs = 1 if not intra else 0
        else:
            rhs = 0

    if expansion is not None and expansion != lhs:
        report.basis_expansion_ok = False
        if len(report.failures) < 10:
            report.failures.append(("basis-expansion", triple))
    if not reroute_ok:
        report.reroute_ok = False
        if len(report.failures) < 10:
            report.failures.append(("reroute", triple))
    if lhs != rhs:
        report.sum_ok = False
        if len(report.failures) < 10:
            report.failures.append(("sum", triple))


# ---------------------------------------------------------------------------
# nice tree decompositions and the join formula

@dataclass(frozen=True)
class Bag:
    ident: int
    parent: int
    kind: str               # leaf | intro-vertex | intro-edge | forget | join
    label: tuple            # (v,) or (u, v) or ()
    members: tuple


@dataclass(frozen=True)
class NiceTreeDecomposition:
    bags: tuple

    def children(self):
        out: dict = {i: [] for i in range(len(self.bags))}
        for bag in self.bags:
            if bag.parent >= 0:
                out[bag.parent].append(bag.ident)
        return out

    def root(self) -> int:
        roots = [bag.ident for bag in self.bags if bag.parent < 0]
        if len(roots) != 1:
            raise ParseError(f"expected one root, found {len(roots)}")
        return roots[0]


def validate_td(g_edges, td: NiceTreeDecomposition):
    """Structural checks per the nice-decomposition definition."""
    children = td.children()
    root = td.root()
    if td.bags[root].members:
        raise ParseError("root bag must be empty")
    introduced = []
    for bag in td.bags:
        kids = children[bag.ident]
        if bag.kind == "leaf":
            if kids or bag.members:
                raise ParseError(f"bag {bag.ident}: bad leaf")
        elif bag.kind == "intro-vertex":
            (child,) = kids
            cm = set(td.bags[child].members)
            if set(bag.members) != cm | set(bag.label) or bag.label[0] in cm:
                raise ParseError(f"bag {bag.ident}: bad vertex introduction")
        elif bag.kind == "intro-edge":
            (child,) = kids
            u, v = bag.label
            if set(bag.members) != set(td.bags[child].members):
                raise ParseError(f"bag {bag.ident}: intro-edge changes members")
            if u not in bag.members or v not in bag.members:
                raise ParseError(f"bag {bag.ident}: edge endpoints not in bag")
            introduced.append(tuple(sorted((u, v))))
        elif bag.kind == "forget":
            (child,) = kids
            cm = set(td.bags[child].members)
            if set(bag.members) != cm - set(bag.label) or bag.label[0] not in cm:
                raise ParseError(f"bag {bag.ident}: bad forget")
        elif bag.kind == "join":
            j1, j2 = kids
            if not (set(bag.members) == set(td.bags[j1].members)
                    == set(td.bags[j2].members)):
                raise ParseError(f"bag {bag.ident}: join bags must share members")
        else:
            raise ParseError(f"bag {bag.ident}: unknown kind {bag.kind}")
    edge_set = sorted(tuple(sorted(e)) for e in g_edges)
    if sorted(introduced) != edge_set:
        raise ParseError("every edge must be introduced exactly once")


def parse_td_file(text: str) -> NiceTreeDecomposition:
    """One bag per line: 'bag <id> <parent> <kind> [label...] {members}'."""
    bags = []
    for lineno, line in content_lines(text):
        toks = line.split()
        if toks[0] != "bag" or len(toks) < 4:
            raise ParseError("expected 'bag <id> <parent> <kind> ...' record", lineno)
        ident, parent = int_fields(toks[1:3], "integer bag id and parent", lineno)
        kind = toks[3]
        members = ()
        label = ()
        for tok in toks[4:]:
            if tok.startswith("{"):
                body = tok.strip("{}")
                elems = body.split(",") if body else []
                members = tuple(int_fields(elems, "integer members", lineno))
            else:
                label = label + tuple(int_fields([tok], "an integer label", lineno))
        bags.append(Bag(ident, parent, kind, label, tuple(sorted(members))))
    bags.sort(key=lambda b: b.ident)
    for i, bag in enumerate(bags):
        if bag.ident != i:
            raise ParseError("bag ids must be consecutive from 0")
    return NiceTreeDecomposition(tuple(bags))


def _subtree_edges(td: NiceTreeDecomposition):
    children = td.children()
    edges: dict = {}

    def rec(i):
        own = []
        bag = td.bags[i]
        for c in children[i]:
            own.extend(rec(c))
        if bag.kind == "intro-edge":
            own.append(tuple(sorted(bag.label)))
        edges[i] = list(own)
        return own

    rec(td.root())
    return edges


def _subtree_vertices(td: NiceTreeDecomposition):
    children = td.children()
    verts: dict = {}

    def rec(i):
        bag = td.bags[i]
        own = set(bag.members)
        for c in children[i]:
            own |= rec(c)
        verts[i] = own
        return own

    rec(td.root())
    return verts


def bruteforce_tables(td: NiceTreeDecomposition, weights: dict):
    """t_i[d, w, M] parities by direct enumeration of X subseteq E_i.

    d is a tuple over sorted bag members, w the total weight, M a basis
    matching of the degree-one vertices; X must have bag-degrees d, degree
    2 off the bag, and no cycles unless every bag vertex has degree 1.
    """
    edges_by_bag = _subtree_edges(td)
    verts_by_bag = _subtree_vertices(td)
    tables = {}
    for bag in td.bags:
        e_list = edges_by_bag[bag.ident]
        if len(e_list) > 20:
            raise TooLarge(f"bag {bag.ident} subtree has {len(e_list)} edges")
        members = bag.members
        inner = verts_by_bag[bag.ident] - set(members)
        table: dict = {}
        for pick in range(1 << len(e_list)):
            chosen = [e_list[i] for i in range(len(e_list)) if (pick >> i) & 1]
            deg: dict = {}
            for (u, v) in chosen:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if any(deg.get(v, 0) != 2 for v in inner):
                continue
            if any(deg.get(v, 0) > 2 for v in members):
                continue
            d = tuple(deg.get(v, 0) for v in members)
            ones = [v for v in members if deg.get(v, 0) == 1]
            if len(ones) % 2:
                continue
            # cycles allowed only once every bag vertex has degree one
            # (vacuously at the empty root bag)
            all_deg1 = all(deg.get(v, 0) == 1 for v in members)
            if not all_deg1 and _has_cycle(chosen):
                continue
            w = sum(weights[e] for e in chosen)
            for m in basis_matchings(ones):
                if _cycle_cond(chosen + sorted(m)):
                    key = (d, w, m)
                    table[key] = table.get(key, 0) ^ 1
        tables[bag.ident] = {k: v for k, v in table.items() if v}
    return tables


def _has_cycle(edges) -> bool:
    parent: dict = {}

    def find(v):
        while parent.get(v, v) != v:
            parent[v] = parent.get(parent[v], parent[v])
            v = parent[v]
        return v

    for (u, v) in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def verify_join(td: NiceTreeDecomposition, weights: dict):
    """Check the join recurrence against brute-force tables at every join
    bag; returns None or the first failing (bag, d, w, M)."""
    tables = bruteforce_tables(td, weights)
    children = td.children()
    for bag in td.bags:
        if bag.kind != "join":
            continue
        j1, j2 = children[bag.ident]
        t1, t2 = tables[j1], tables[j2]
        keys = set(tables[bag.ident])
        for (dj, wj, mj) in t1:
            for (dk, wk, mk) in t2:
                d = tuple(a + bb for a, bb in zip(dj, dk))
                if any(x > 2 for x in d):
                    continue
                keys.add((d, wj + wk, None))
        checked = set()
        for (d, w, _) in keys:
            ones = [v for v, dv in zip(bag.members, d) if dv == 1]
            if len(ones) % 2:
                continue
            for m in basis_matchings(ones):
                if (d, w, m) in checked:
                    continue
                checked.add((d, w, m))
                lhs = tables[bag.ident].get((d, w, m), 0)
                rhs = 0
                for (dj, wj, mj), pj in t1.items():
                    wk = w - wj
                    dk = tuple(a - bb for a, bb in zip(d, dj))
                    if any(x < 0 for x in dk):
                        continue
                    mj_bar = complement_matching(mj) if mj else frozenset()
                    for mk in basis_matchings([v for v, dv in
                                               zip(bag.members, dk) if dv == 1]):
                        pk = t2.get((dk, wk, mk), 0)
                        if not pk:
                            continue
                        mk_bar = complement_matching(mk) if mk else frozenset()
                        if _cycle_cond(sorted(mj_bar) + sorted(mk_bar) + sorted(m)):
                            rhs ^= pj & pk
                if lhs != rhs:
                    return (bag.ident, d, w, m)
    return None
