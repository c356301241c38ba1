"""Exact chromatic polynomials.

`chromatic_polynomial` multiplies over the blocks of the graph and counts
each 2-connected block by a forward pass over set partitions of its
frontier, along the steps of `graphs._search_plan`, so its cost follows the
width of each block rather than its cycle space.  The tests check it
against an alternating sum over edge subsets and brute-force colourings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _blocks, _search_plan, component_count


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
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c:
                mag = "" if abs(c) == 1 and k else str(abs(c)) + ("*" if k else "")
                power = "" if k == 0 else var if k == 1 else f"{var}^{k}"
                terms.append(("- " if c < 0 else "+ ") + mag + power)
        if not terms:
            return "0"
        text = " ".join(terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list[str]) -> "Polynomial":
        return Polynomial(tuple(int(c) for c in data))


def chromatic_polynomial(g: Graph) -> Polynomial:
    """P(G, m) = m^c(G) times P(B)/m over the blocks B of G.

    c(G) is the number of components.  A bridge gives the factor m - 1 and
    every other block is counted by `_block_quotient`.
    """
    result = Polynomial.one()
    bridges = 0
    for block in _blocks(g, g.full_mask()):
        if len(block) == 1:
            bridges += 1
        else:
            result = result * _block_quotient(g, block)
    # (m - 1)^bridges, top coefficient down: C(b, i - 1) = C(b, i) i / (b - i + 1)
    coeffs = [1]
    for i in range(bridges, 0, -1):
        coeffs.append(-coeffs[-1] * i // (bridges - i + 1))
    result = result * Polynomial(tuple(reversed(coeffs)))
    return Polynomial((0,) * component_count(g, g.full_mask()) + result.coeffs)


def _block_quotient(g: Graph, block: list[int]) -> Polynomial:
    """P(B)/m for the block B of g whose edge indices are `block`.

    The search places B's vertices in the order of `_search_plan` and keeps
    one state per set partition of the frontier into colour classes,
    labelled in first-use order along the frontier.  A state's value is the
    number of proper colourings of the placed vertices that induce its
    partition, as coefficients ascending in m.  A placed vertex joins a
    frontier class it has no edge to, or takes one of the m - k colours on
    none of the k frontier classes.  A colour used only off the frontier
    needs no state: no later vertex is adjacent to it.
    """
    vertices = sorted({v for i in block for v in g.edges[i]})
    rename = {v: k for k, v in enumerate(vertices)}
    sub = Graph(len(vertices), [(rename[g.edges[i][0]], rename[g.edges[i][1]]) for i in block])
    _, steps = _search_plan(sub)
    n = len(vertices)
    # values are n + 1 coefficients ascending in m; degrees stay at most n
    states: dict[tuple[int, ...], list[int]] = {(): [1] + [0] * n}
    for back, kept in steps:
        nbrs = [s for s, _, _ in back]
        out: dict[tuple[int, ...], list[int]] = {}
        for labels, value in states.items():
            used = max(labels) + 1 if labels else 0
            banned = {labels[i] for i in nbrs}
            for c in range(used + 1):
                if c in banned:
                    continue
                # a colour on no frontier class (c == used) has m - used choices
                ways = value if c < used else [y - used * x for x, y in zip(value, [0] + value)]
                ext = labels + (c,)
                first: dict[int, int] = {}
                key = tuple([first.setdefault(ext[i], len(first)) for i in kept])
                prev = out.get(key)
                out[key] = ways if prev is None else [x + y for x, y in zip(prev, ways)]
        states = out
    (value,) = states.values()
    return Polynomial(tuple(value[1:]))  # B has a vertex, so m divides P(B)
