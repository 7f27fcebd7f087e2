"""Constructors for the named graph families: melonic graphs and cycle
graphs with multiple edges.

Melonic graphs are grown from the D-dipole, make_melonic(MelonicRecipe(D=D)),
by repeatedly cutting an edge and splicing in a two-vertex remnant joined by
the remaining D-1 colors; a recipe records the cut sequence so construction
is reproducible.  The recipe alone fixes the closed form
(asymptotics.melonic_faces), so no graph is tested for melonicity here.
Cycle graphs alternate m-dipoles and n-dipoles around a ring, realized as
identity permutations for the m-colors and the cyclic shift for the n-colors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .graphs import ColoredGraph, is_json_int, json_fields
from .permutations import Perm, identity

Step = tuple[int, int]  # (color, white vertex), both 1-based


@dataclass(frozen=True)
class MelonicRecipe:
    """Cut sequence generating a melonic graph with k = len(steps) + 1.

    Each step (color, white_vertex) names the edge to cut: the unique edge of
    that color at that white vertex, in the graph built so far.  Step t is
    applied to a graph with t white vertices, so white_vertex must be <= t.
    """

    D: int
    steps: tuple[Step, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "D", operator.index(self.D))
        if self.D < 1:
            raise ValueError(f"D must be positive, got {self.D}")
        steps = tuple((operator.index(c), operator.index(v)) for c, v in self.steps)
        object.__setattr__(self, "steps", steps)
        if self.steps and self.D < 3:
            raise ValueError(
                f"melonic growth needs D >= 3 (got D={self.D}); for D <= 2 the "
                "unique-minimal-covering property breaks down"
            )
        for t, (color, vertex) in enumerate(self.steps, start=1):
            if not 1 <= color <= self.D:
                raise ValueError(f"step {t}: color {color} out of range 1..{self.D}")
            if not 1 <= vertex <= t:
                raise ValueError(f"step {t}: white vertex {vertex} does not exist yet (k={t})")

    @property
    def k(self) -> int:
        return len(self.steps) + 1


@dataclass(frozen=True)
class CycleSpec:
    """An (m,n)-cycle graph: k m-dipoles and k n-dipoles with disjoint colors.

    Each color set may be given as any iterable of integers; one that repeats
    a color is refused before it is kept as a frozenset."""

    k: int
    m_colors: frozenset[int]
    n_colors: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "k", operator.index(self.k))
        for name in ("m_colors", "n_colors"):
            colors = set()
            for color in map(operator.index, getattr(self, name)):
                if color in colors:
                    raise ValueError(f"{name} repeats color {color}")
                colors.add(color)
            object.__setattr__(self, name, frozenset(colors))
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if not self.m_colors or not self.n_colors:
            raise ValueError("both color sets must be nonempty")
        if self.m_colors & self.n_colors:
            raise ValueError(f"color sets overlap: {sorted(self.m_colors & self.n_colors)}")
        D = len(self.m_colors) + len(self.n_colors)
        if self.m_colors | self.n_colors != set(range(1, D + 1)):
            raise ValueError(f"color sets must partition 1..{D}, got "
                             f"{sorted(self.m_colors | self.n_colors)}")

    @property
    def m(self) -> int:
        return len(self.m_colors)

    @property
    def n(self) -> int:
        return len(self.n_colors)

    @property
    def D(self) -> int:
        return self.m + self.n


def melonic_rows(recipe: MelonicRecipe) -> tuple[Perm, ...]:
    """The sigma rows of the melonic graph grown from a dipole by the
    recipe's cut sequence.

    Cutting the color-c edge at white vertex w inserts a fresh white/black
    pair joined by every color except c; the severed half-edges reattach so
    that the new pair sits on the old edge.
    """
    D = recipe.D
    sigma = [[0] for _ in range(D)]  # dipole: every color maps white 0 -> black 0
    for color, vertex in recipe.steps:
        c, w = color - 1, vertex - 1
        new = len(sigma[0])  # label of the inserted white/black pair
        old_black = sigma[c][w]
        for i in range(D):
            sigma[i].append(new if i != c else old_black)
        sigma[c][w] = new
    return tuple(tuple(s) for s in sigma)


def make_melonic(recipe: MelonicRecipe) -> ColoredGraph:
    """The melonic graph of melonic_rows(recipe)."""
    return ColoredGraph(k=recipe.k, sigma=melonic_rows(recipe))


def random_melonic_recipe(rng, D: int, k: int) -> MelonicRecipe:
    """Uniformly random cut at each stage; k-1 steps, seeded via rng."""
    steps = []
    for t in range(1, k):
        steps.append((int(rng.integers(1, D + 1)), int(rng.integers(1, t + 1))))
    return MelonicRecipe(D=D, steps=tuple(steps))


def cycle_rows(spec: CycleSpec) -> tuple[Perm, ...]:
    """The sigma rows of an (m,n)-cycle: the identity for the m-colors, the
    k-cycle j -> j+1 for the n-colors, each one tuple shared by its colors."""
    k = spec.k
    ident, shift = identity(k), tuple(range(1, k)) + (0,)
    return tuple(ident if color in spec.m_colors else shift for color in range(1, spec.D + 1))


def make_cycle_graph(spec: CycleSpec) -> ColoredGraph:
    """The (m,n)-cycle graph of cycle_rows(spec)."""
    return ColoredGraph(k=spec.k, sigma=cycle_rows(spec))


# ---------------------------------------------------------------------------
# JSON mirrors of CycleSpec and MelonicRecipe
# ---------------------------------------------------------------------------

def cycle_spec_from_json_dict(data) -> CycleSpec:
    k, m_colors, n_colors = json_fields(data, "cycle spec", ("k", "m_colors", "n_colors"))
    for key, colors in (("m_colors", m_colors), ("n_colors", n_colors)):
        if not isinstance(colors, list) or not all(is_json_int(x) for x in colors):
            raise ValueError(f"field '{key}' must be a list of integers")
    json_fields(data, "cycle spec", ints=("k",))
    return CycleSpec(k=k, m_colors=m_colors, n_colors=n_colors)


def cycle_spec_to_json_dict(spec: CycleSpec) -> dict:
    return {"k": spec.k, "m_colors": sorted(spec.m_colors), "n_colors": sorted(spec.n_colors)}


def melonic_recipe_from_json_dict(data) -> MelonicRecipe:
    D, steps = json_fields(data, "melonic recipe", ("D", "steps"), ints=("D",))
    if (not isinstance(steps, list)
            or not all(isinstance(s, list) and len(s) == 2
                       and all(is_json_int(x) for x in s) for s in steps)):
        raise ValueError("field 'steps' must be a list of [color, white_vertex] pairs")
    return MelonicRecipe(D=D, steps=tuple((c, v) for c, v in steps))


def melonic_recipe_to_json_dict(recipe: MelonicRecipe) -> dict:
    return {"D": recipe.D, "steps": [[c, v] for c, v in recipe.steps]}
