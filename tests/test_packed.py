"""The row key against Python-int references, and the layering rules that
keep ordering and matching of bit rows inside ``_packed``."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_match_rows, reference_tally_rows, reference_value_order
from qemclust._packed import match_rows, tally_rows, value_order

SRC = Path(__file__).resolve().parent.parent / "src" / "qemclust"

# 1 to 4 uint64 words per row, with the word boundaries drawn often
WIDTHS = st.sampled_from([63, 64, 65, 128, 129, 192, 193]) | st.integers(1, 200)


def _rows(values: list[int], width: int) -> np.ndarray:
    """(n, width) uint8 bits of Python ints, most significant bit first."""
    bits = [[(v >> (width - 1 - i)) & 1 for i in range(width)] for v in values]
    return np.array(bits, dtype=np.uint8).reshape(len(values), width)


def _values(rows: np.ndarray) -> list[int]:
    return [int("".join(map(str, row)) or "0", 2) for row in rows.tolist()]


@st.composite
def row_values(draw):
    """A width, row values with repeats (n may be 0 or 1), and queries that
    repeat rows or miss them. Values are often built from a few words per
    64-bit position, so rows share leading or trailing words."""
    width = draw(WIDTHS)
    n_words = -(-width // 64)
    words = [draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3)) for _ in range(n_words)]
    folded = st.tuples(*map(st.sampled_from, words)).map(
        lambda ws: sum(w << (64 * (n_words - 1 - j)) for j, w in enumerate(ws)) & ((1 << width) - 1)
    )
    value = folded | st.integers(0, (1 << width) - 1)
    pool = draw(st.lists(value, min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool), max_size=40))
    queries = draw(st.lists(st.sampled_from(pool) | value, max_size=6))
    return width, values, queries


class TestRowKeyMatchesPythonInts:
    @given(row_values())
    @settings(max_examples=300, deadline=None)
    def test_value_order(self, case):
        width, values, _ = case
        assert value_order(_rows(values, width)).tolist() == reference_value_order(values)

    @given(row_values())
    @settings(max_examples=300, deadline=None)
    def test_match_rows(self, case):
        width, values, queries = case
        found = match_rows(_rows(values, width), _rows(queries, width))
        assert found.tolist() == reference_match_rows(values, queries)

    @given(row_values())
    @settings(max_examples=300, deadline=None)
    def test_tally_rows(self, case):
        width, values, _ = case
        rows, counts = tally_rows(_rows(values, width))
        assert rows.dtype == np.uint8 and rows.shape == (len(counts), width)
        assert (_values(rows), counts.tolist()) == reference_tally_rows(values)


def _calls(path: Path):
    """(called name, call node) of every call in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            yield getattr(func, "attr", getattr(func, "id", None)), node


class TestLayering:
    def test_packed_imports_nothing_from_the_package(self):
        tree = ast.parse((SRC / "_packed.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and not (node.module or "").startswith("qemclust"), ast.unparse(node)
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("qemclust") for a in node.names), ast.unparse(node)

    @pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
    def test_rows_are_ordered_and_matched_by_the_row_key(self, path):
        for name, call in _calls(path):
            assert name != "lexsort", ast.unparse(call)
            if name == "unique":
                assert all(kw.arg != "axis" for kw in call.keywords), ast.unparse(call)

    def test_the_k_loop_never_regroups_centroids(self):
        # the redistribution kernel merges equal centroids; the engine
        # reads its merged pass results as they are
        for name, call in _calls(SRC / "engine.py"):
            assert name not in ("unique", "bincount"), ast.unparse(call)
