"""README's `## Library` example runs, and its comments state what it returns."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_matches_its_comments():
    text = README.read_text()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M).group(1)
    scope: dict = {}
    exec(compile(block, f"{README}:Library", "exec"), scope)
    mcs = scope["mcs"]
    assert mcs is scope["covering_pass"](scope["B"])
    assert (mcs.gamma, mcs.count) == (4, 5)
    assert sum(scope["hist"].values()) == 6
    assert sum(scope["zero_faces"]) == mcs.gamma
    pred, generic = scope["pred"], scope["predict"](scope["B"], [1, 1])
    assert (pred.gamma, pred.coefficient) == (generic.gamma, generic.coefficient) == (4, 5.0)
    assert generic.family == "generic"
    assert scope["face_sum"](scope["minimal_faces"](scope["B"]),
                             scope["side_ratios"](["1.1", 1], 2)) == Fraction(6061, 1000)
    assert isinstance(scope["exact"], int)
