"""Exact chromatic polynomials.

Two independent routes are provided: deletion-contraction
(`chromatic_polynomial`) and the alternating sum over edge subsets
(`chromatic_incl_excl`).  They must agree; tests lean on that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError
from .graphs import DEFAULT_SUBSET_CAP, Graph, _bridge_mask, _components, component_count


@dataclass(frozen=True)
class Polynomial:
    """Integer polynomial, coefficients ascending by degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + Polynomial(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(tuple(out))

    def __pow__(self, k: int) -> "Polynomial":
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, m: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * m + c
        return value

    def format(self, var: str = "m") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{var}" + (f"^{k}" if k > 1 else "")
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list[str]) -> "Polynomial":
        return Polynomial(tuple(int(c) for c in data))


def _monomial(k: int) -> Polynomial:
    return Polynomial((0,) * k + (1,))


# cache keyed by a refinement-relabeled edge tuple; dict equality compares
# the full structure, so a hash collision can never produce a wrong hit.
# concurrent insertion is safe: values for equal keys are equal and single
# dict assignments are atomic under the interpreter lock
_CACHE: dict[tuple[int, tuple[tuple[int, int], ...]], Polynomial] = {}


def _refined_key(n: int, edges: tuple[tuple[int, int], ...]):
    """Relabel vertices by iterated degree refinement for cache lookups.

    Isomorphic graphs often (not always) map to the same key; equal keys
    always mean isomorphic graphs, which is what correctness needs.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colors = [len(a) for a in adj]
    for _ in range(n):
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            break
        colors = new
    order = sorted(range(n), key=lambda v: (colors[v], v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    relabeled = tuple(
        sorted((pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in edges)
    )
    return (n, relabeled)


def _contract(n: int, edges: tuple[tuple[int, int], ...], e: tuple[int, int]):
    """Merge v into u, dropping loops and parallel copies (simple convention)."""
    u, v = e

    def remap(x: int) -> int:
        if x == v:
            x = u
        return x - 1 if x > v else x

    out = set()
    for a, b in edges:
        if (a, b) == e:
            continue
        ra, rb = remap(a), remap(b)
        if ra == rb:
            continue
        out.add((ra, rb) if ra < rb else (rb, ra))
    return n - 1, tuple(sorted(out))


def _chrom(n: int, edges: tuple[tuple[int, int], ...]) -> Polynomial:
    if not edges:
        return _monomial(n)

    comps = _components(n, edges)
    if len(comps) > 1:
        result = Polynomial.one()
        for comp in comps:
            pos = {v: i for i, v in enumerate(comp)}
            sub = tuple(
                sorted((pos[u], pos[v]) for u, v in edges if u in pos and v in pos)
            )
            result = result * _chrom(len(comp), sub)
        return result

    if len(edges) == n - 1:
        # tree: m (m-1)^(n-1)
        return Polynomial.x() * (Polynomial.x() - Polynomial.one()) ** (n - 1)

    key = _refined_key(n, edges)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit

    bridges = _bridge_mask(n, edges)
    pick = next(i for i in range(len(edges)) if not bridges >> i & 1)
    e = edges[pick]
    deleted = edges[:pick] + edges[pick + 1:]
    cn, cedges = _contract(n, edges, e)
    result = _chrom(n, deleted) - _chrom(cn, cedges)
    _CACHE[key] = result
    return result


def chromatic_polynomial(g: Graph) -> Polynomial:
    """P(G, m) by deletion-contraction with memoized subproblems."""
    return _chrom(g.n, g.edges)


def chromatic_incl_excl(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> Polynomial:
    """P(G, m) as the alternating sum over edge subsets of m^{c(A)}.

    The sum has 2^|E| terms; graphs with more than `cap` edges are refused.
    """
    ne = len(g.edges)
    if ne > cap:
        raise BudgetExceededError("2^|E| subset terms", 2**ne, 2**cap)
    counts = [0] * (g.n + 1)
    for mask in range(1 << ne):
        counts[component_count(g, mask)] += 1 if mask.bit_count() % 2 == 0 else -1
    return Polynomial(tuple(counts))
