"""tools/digests.py prints the sha256 of every seeded artifact; its output is
committed as tools/digests.txt. A change that moves a digest on purpose
regenerates the file in the same commit:

    python3 tools/digests.py > tools/digests.txt
"""

import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import scipy

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def first_difference(expected: list[str], actual: list[str]) -> str:
    """The first line where ``actual`` departs from ``expected``, both texts,
    and the two line counts when they differ; empty when the lists are equal."""
    for number, (want, got) in enumerate(zip_longest(expected, actual), start=1):
        if want != got:
            counts = (f"; {len(expected)} lines pinned, {len(actual)} printed"
                      if len(expected) != len(actual) else "")
            return f"line {number}: pinned {want!r}, printed {got!r}{counts}"
    return ""


def test_first_difference_names_the_line_and_the_counts():
    assert first_difference(["a", "b"], ["a", "b"]) == ""
    assert first_difference(["a", "b"], ["a", "c"]) == "line 2: pinned 'b', printed 'c'"
    assert first_difference(["a"], ["a", "b"]) == (
        "line 2: pinned None, printed 'b'; 1 lines pinned, 2 printed")


def test_seeded_digests_match_the_pinned_file():
    proc = subprocess.run([sys.executable, str(TOOLS / "digests.py")],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    expected = (TOOLS / "digests.txt").read_text().splitlines()
    diff = first_difference(expected, proc.stdout.splitlines())
    assert not diff, (f"tools/digests.txt {diff} (numpy {np.__version__}, "
                      f"scipy {scipy.__version__})")
