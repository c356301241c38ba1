"""Exact chromatic polynomials, and their values at one m.

`chromatic_polynomial` multiplies over the blocks of the graph and counts
each 2-connected block by a forward pass over set partitions of its
frontier, along the steps of `graphs._search_plan`, so its cost follows the
width of each block rather than its cycle space.  `chromatic_value` runs the
same product and the same pass with exact integers at one m as values, so
P(G, m) at one m never builds the polynomial.  The tests check both against
an alternating sum over edge subsets and brute-force colourings.
"""

from __future__ import annotations

import operator
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
    """P(G, m) = m^c(G) (m - 1)^bridges times P(B)/m over the other blocks
    B of G, each counted by `_block_quotient` with coefficient lists as
    values.

    c(G) is the number of components.
    """
    bridges, blocks = _split(g)
    result = Polynomial.one()
    for b in blocks:
        # P(B)/m has degree b.n - 1, so b.n coefficients hold every value
        result = result * Polynomial(tuple(_block_quotient(b, [1] + [0] * (b.n - 1),
                                                           _poly_new_colour, _poly_add)))
    # (m - 1)^bridges, top coefficient down: C(b, i - 1) = C(b, i) i / (b - i + 1)
    coeffs = [1]
    for i in range(bridges, 0, -1):
        coeffs.append(-coeffs[-1] * i // (bridges - i + 1))
    result = result * Polynomial(tuple(reversed(coeffs)))
    return Polynomial((0,) * component_count(g, g.full_mask()) + result.coeffs)


def chromatic_value(g: Graph, m: int) -> int:
    """P(G, m) at one integer m, by the block product of
    `chromatic_polynomial` with exact integers as values, so no polynomial
    is built.  Nothing is divided by m: P(G, 0) is 0 for n >= 1 and 1 for
    the graph with no vertex."""
    bridges, blocks = _split(g)
    value = m ** component_count(g, g.full_mask()) * (m - 1) ** bridges
    for b in blocks:
        value *= _block_quotient(b, 1, lambda v, used: v * (m - used), operator.add)
    return value


def _poly_new_colour(value: list[int], used: int) -> list[int]:
    """value * (m - used) on coefficients ascending in m, kept to the length
    of value: the search calls it only while value's top coefficient is 0."""
    return [y - used * x for x, y in zip(value, [0] + value)]


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    return [x + y for x, y in zip(a, b)]


def _split(g: Graph) -> tuple[int, list[Graph]]:
    """The bridges of g and its other blocks, each as a graph on its own
    vertices; g itself when its one block holds every vertex and edge, so
    the search plan built for g serves every search of g."""
    bridges = 0
    out = []
    for block in _blocks(g):
        if len(block) == 1:
            bridges += 1
            continue
        vertices = sorted({v for i in block for v in g.edges[i]})
        if len(block) == g.m and len(vertices) == g.n:
            out.append(g)
            continue
        rename = {v: k for k, v in enumerate(vertices)}
        out.append(Graph(len(vertices), [(rename[g.edges[i][0]], rename[g.edges[i][1]])
                                         for i in block]))
    return bridges, out


def _block_quotient(b: Graph, one, new_colour, add):
    """P(B)/m for the 2-connected graph B = b, in the values that `one`,
    `new_colour` and `add` make: exact integers at one m, or coefficients
    ascending in m.

    The search places B's vertices in the order of `_search_plan` and keeps
    one state per set partition of the frontier into colour classes,
    labelled in first-use order along the frontier.  A state's value is the
    number of proper colourings of the placed vertices that induce its
    partition, divided by m.  The first vertex takes any colour, which the
    division by m leaves as `one`.  A later vertex joins a frontier class it
    has no edge to, or takes one of the m - k colours on none of the k
    frontier classes: `new_colour(value, k)`.  A colour used only off the
    frontier needs no state: no later vertex is adjacent to it.
    """
    _, steps = _search_plan(b)
    states = {(0,) * len(steps[0][1]): one}
    for back, kept in steps[1:]:
        nbrs = [s for s, _, _ in back]
        out = {}
        for labels, value in states.items():
            used = max(labels) + 1 if labels else 0
            banned = {labels[i] for i in nbrs}
            for c in range(used + 1):
                if c in banned:
                    continue
                ways = value if c < used else new_colour(value, used)
                ext = labels + (c,)
                first: dict[int, int] = {}
                key = tuple([first.setdefault(ext[i], len(first)) for i in kept])
                prev = out.get(key)
                out[key] = ways if prev is None else add(prev, ways)
        states = out
    (value,) = states.values()
    return value
