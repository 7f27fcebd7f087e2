"""Colored graphs and their coverings, encoded as permutation tuples.

A D-colored graph on k white and k black vertices is stored as D
permutations: sigma[i] maps white vertex j to the black vertex sharing the
color-(i+1) edge with it.  A covering adds one more permutation tau (the
color-0 edges).  A (0,i)-face is an alternating color-0/color-i cycle, which
under this encoding is exactly a cycle of tau^-1 * sigma_i, so face counting
reduces to permutation cycle counting.

All values are immutable after construction; invalid permutation data is
rejected at construction time.  Disconnected graphs are accepted here (the
enumeration layer refuses them) so that degenerate cases stay unit-testable.

json_fields is the one check of the object, required fields and integer
fields of every JSON input: graph, cycle spec, melonic recipe, tensor spec.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .permutations import Perm, is_perm


@dataclass(frozen=True)
class ColoredGraph:
    """D-colored bipartite graph on 2k vertices; sigma rows are colors 1..D."""

    k: int
    sigma: tuple[Perm, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if len(self.sigma) < 1:
            raise ValueError("a colored graph needs at least one color")
        object.__setattr__(self, "sigma", tuple(tuple(p) for p in self.sigma))
        checked = set()  # the ids of the rows checked: a row shared by colors is checked once
        for i, p in enumerate(self.sigma):
            if id(p) in checked:
                continue
            if len(p) != self.k:
                raise ValueError(f"sigma[{i + 1}] has length {len(p)}, expected k={self.k}")
            if not is_perm(p):
                raise ValueError(f"sigma[{i + 1}] is not a bijection on 0..{self.k - 1}")
            checked.add(id(p))

    @property
    def D(self) -> int:
        return len(self.sigma)


def is_connected(B: ColoredGraph) -> bool:
    """Union-find over the 2k vertices with edges (white j, black sigma_i(j))."""
    k = B.k
    parent = list(range(2 * k))  # whites 0..k-1, blacks k..2k-1

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in B.sigma:
        for j in range(k):
            a, b = find(j), find(k + s[j])
            if a != b:
                parent[a] = b
    root = find(0)
    return all(find(v) == root for v in range(2 * k))


# ---------------------------------------------------------------------------
# JSON interface: {"k": int, "D": int, "sigma": [[1-based images], ...]}
# ---------------------------------------------------------------------------

def is_json_int(x) -> bool:
    """True for a JSON integer.  bool is an int in Python, but JSON true and
    false are not numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def e_notation(log10: float) -> str:
    """10^log10 in the form f"{x:.3e}" gives, from the logarithm alone: a
    count in a refusal may be too large for a float, or for str of an int."""
    exponent = math.floor(log10)
    mantissa = round(10.0 ** (log10 - exponent), 3)
    if mantissa >= 10.0:
        mantissa, exponent = 1.0, exponent + 1
    return f"{mantissa:.3f}e{exponent:+03d}"


# A ratio's text may not carry a decimal exponent beyond Python's own limit on
# the digits of an int read from text (sys.int_info.default_max_str_digits):
# Fraction('1e9999999') would build 10^9999999 before anything could refuse it.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?[0_]*([\d_]*)\s*\Z", re.IGNORECASE)  # digits past sign and 0s


def side_ratios(c, D: int) -> tuple[Fraction, ...]:
    """The D side ratios c_i of a c_1 N x ... x c_D N tensor, as exact Fractions.

    The one reader of side ratios.  An entry may be an int, a Fraction, a
    float (read as its exact value) or a decimal or 'p/q' string.  bool,
    non-finite, zero and negative entries are refused, naming the entry as
    'c[i]', and so is text whose decimal exponent is beyond MAX_DECIMAL_EXPONENT.
    """
    c = tuple(c)
    if len(c) != D:
        raise ValueError(f"expected {D} side ratios, got {len(c)}")
    out = []
    for i, x in enumerate(c, start=1):
        if isinstance(x, str):
            exponent = _EXPONENT.search(x)
            digits = exponent[1].replace("_", "") if exponent else ""
            if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                    or int(digits or 0) > MAX_DECIMAL_EXPONENT):
                raise ValueError(f"side ratio 'c[{i}]' has a decimal exponent outside "
                                 f"-{MAX_DECIMAL_EXPONENT}..{MAX_DECIMAL_EXPONENT}")
        try:
            ratio = None if isinstance(x, bool) else Fraction(x)
        except (ValueError, TypeError, ZeroDivisionError, OverflowError):
            ratio = None
        if ratio is None or ratio.numerator <= 0:  # a Fraction's sign is its numerator's
            raise ValueError(f"side ratio 'c[{i}]' must be a positive finite number or "
                             f"'p/q' ratio, got {x!r}")
        out.append(ratio)
    return tuple(out)


def json_fields(data, what: str, required=(), ints=(), positive=False) -> tuple:
    """The values of the required fields of data, the JSON object of a `what`.

    It refuses, in this order, data that is not an object, the first field of
    required that data lacks, and the first field of ints that data holds and
    that is not a JSON integer, or with positive not a positive one.  A reader
    that checks other fields before an integer field calls it again for that
    field alone, so that a multiply-malformed input names its first fault.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} JSON is missing field '{key}'")
    for key in ints:
        if key in data and not (is_json_int(data[key]) and (data[key] > 0 or not positive)):
            noun = "a positive integer" if positive else "an integer"
            raise ValueError(f"field '{key}' must be {noun}, got {data[key]!r}")
    return tuple(data[key] for key in required)


def graph_to_json_dict(B: ColoredGraph) -> dict:
    return {"k": B.k, "D": B.D, "sigma": [[j + 1 for j in s] for s in B.sigma]}


def graph_from_json_dict(data) -> ColoredGraph:
    k, D, sigma = json_fields(data, "graph", ("k", "D", "sigma"), ints=("k", "D"), positive=True)
    if not isinstance(sigma, list):
        raise ValueError("field 'sigma' must be a list of rows")
    if len(sigma) != D:
        raise ValueError(f"field 'sigma' has {len(sigma)} rows but field 'D' is {D}")
    rows = []
    for i, row in enumerate(sigma):
        if not isinstance(row, list) or len(row) != k or not all(is_json_int(x) for x in row):
            raise ValueError(f"sigma[{i + 1}] must be a list of {k} integers")
        p = tuple(x - 1 for x in row)
        if not is_perm(p):
            raise ValueError(f"sigma[{i + 1}] is not a bijection on 1..{k}")
        rows.append(p)
    return ColoredGraph(k=k, sigma=tuple(rows))
