"""``tools/output_digest.py``: one SHA-256 over the output of many commands."""

import importlib.util
from pathlib import Path

from perfbench.corpus import latin, rings

from builders import two_swaps

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_output_digest_is_repeatable_and_reads_every_command():
    tool = load_tool()
    three = [
        ("latin4c2q4", latin(4, 2, 4).doc, True),
        ("rings2", rings(2, 4).doc, False),
        ("two-swaps", two_swaps().to_dict(), True),
    ]
    first, codes = tool.digest(three, tool.WITHOUT_FILES[:2])
    again, same = tool.digest(three, tool.WITHOUT_FILES[:2])
    assert (first, codes) == (again, same)
    assert sum(codes.values()) == 18 + 13 + 18 + 2
    assert codes[0] > codes[1] > 0  # mincost and plain poset refuse the rings
    fewer, _ = tool.digest(three[:2], tool.WITHOUT_FILES[:2])
    assert fewer != first
