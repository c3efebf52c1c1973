"""The row key against Python-int references, the sorted views the
simulator hands over, the bit rows a run unpacks, and the layering rules
that keep ordering and matching of rows inside ``_packed``."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_match_rows, reference_tally_rows, reference_value_order
from qemclust import (
    BitString,
    MitigationConfig,
    NoiseSpec,
    OutcomeDistribution,
    SyntheticSpec,
    apply_bitflip,
    generate_ideal,
    mitigate,
    sample_shots,
)
from qemclust._packed import __all__ as PACKED_EXPORTS
from qemclust._packed import PackedDistribution, _pack_words, _tally, _unpack_words, match_rows, sorted_view
from qemclust.clustering import EmptyClusterError, qubitwise_majority_vote, select_initial_centroids
from qemclust.estimator import _spiked_ideal
from qemclust.io import read_counts, write_counts

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
        values = list(dict.fromkeys(values))  # a distribution's rows are distinct
        view = sorted_view(_pack_words(_rows(values, width)), np.arange(len(values), dtype=np.float64))
        assert view.weights.astype(int).tolist() == reference_value_order(values)
        assert _ints(view.words) == sorted(values)

    @given(row_values())
    @settings(max_examples=300, deadline=None)
    def test_match_rows(self, case):
        width, values, queries = case
        values = list(dict.fromkeys(values))  # distinct rows; queries may repeat
        found = match_rows(_pack_words(_rows(values, width)), _pack_words(_rows(queries, width)))
        assert found.tolist() == reference_match_rows(values, queries)

    @given(row_values())
    @settings(max_examples=300, deadline=None)
    def test_tally_rows(self, case):
        width, values, _ = case
        words, counts = _tally(_pack_words(_rows(values, width)), width)
        assert words.dtype == np.uint64 and words.shape == (len(counts), -(-width // 64))
        assert (_ints(words), counts.tolist()) == reference_tally_rows(values)

    @pytest.mark.parametrize("width", range(1, 17))
    def test_tally_rows_around_the_counted_path(self, width):
        # the counted path takes 2**width <= 4 * n: n from just short of it to past it
        rng = np.random.default_rng(width)
        at = -(-(1 << width) // 4)
        for n in (at - 1, at, at + 1):
            pool = rng.integers(0, 1 << width, size=3)
            for values in (rng.integers(0, 1 << width, size=n), rng.choice(pool, size=n), np.full(n, pool[0])):
                bits = ((values[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)
                words, counts = _tally(_pack_words(bits), width)
                want_values, want_counts = reference_tally_rows(values.tolist())
                assert counts.dtype == np.intp and counts.tolist() == want_counts
                assert words.dtype == np.uint64 and words.shape == (len(want_values), 1) and words.flags.c_contiguous
                assert words[:, 0].tolist() == want_values

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_pack_words_at_every_width(self, n):
        rng = np.random.default_rng(n)
        for width in range(1, 201):
            bits = rng.integers(0, 2, size=(n, width), dtype=np.uint8)
            words = _pack_words(bits)
            assert words.dtype == np.uint64 and words.shape == (n, -(-width // 64)) and words.flags.c_contiguous
            assert _ints(words) == _values(bits)
            back = _unpack_words(words, width)  # and back
            assert back.dtype == np.uint8 and back.flags.c_contiguous and back.tobytes() == bits.tobytes()
            assert back.shape == bits.shape


def _word_rows(rng, width: int, n: int, pool: int) -> np.ndarray:
    """(n, words) uint64 rows whose every word is one of ``pool`` draws for
    its position, so rows share leading and trailing words. Every word
    below the top one is even."""
    n_words = -(-width // 64)
    pools = rng.integers(0, 2**64, size=(n_words, pool), dtype=np.uint64) & ~np.uint64(1)
    pools[0] = rng.integers(0, 2 ** (width - 64 * (n_words - 1)), size=pool, dtype=np.uint64)
    return np.column_stack([rng.choice(pools[j], size=n) for j in range(n_words)])


def _ints(words: np.ndarray) -> list[int]:
    values = words[:, 0].tolist()
    for column in words[:, 1:].T.tolist():
        values = [(v << 64) | w for v, w in zip(values, column)]
    return values


class TestHammingMatchesPythonInts:
    @given(st.data(), st.sampled_from([1, 63, 64, 65, 127, 128, 129, 300]))
    @settings(max_examples=200, deadline=None)
    def test_hamming_to(self, data, width):
        values = st.integers(0, (1 << width) - 1)
        observed = data.draw(st.lists(values, min_size=1, max_size=20, unique=True))
        centroids = data.draw(st.lists(st.sampled_from(observed) | values, min_size=1, max_size=8))
        packed = PackedDistribution(OutcomeDistribution(width, {BitString(v, width): 1.0 for v in observed}), 0.1)
        got = packed.hamming_to(_pack_words(_rows(centroids, width)))
        # the packed rows are in value order
        assert got.tolist() == [[bin(a ^ c).count("1") for a in sorted(observed)] for c in centroids]


class TestMatchRowsAtScale:
    """Thousands of distinct rows of three to five words, repeated
    queries that all hit, all miss, or both; the smaller side is the rows
    or the queries, and the rows' words come from a sorted view or are
    packed in the order they were drawn."""

    @pytest.mark.parametrize("view", [False, True], ids=["packed", "view"])
    @pytest.mark.parametrize("smaller", ["queries", "rows"])
    @pytest.mark.parametrize("queries", ["hit", "miss", "mixed"])
    @pytest.mark.parametrize("width", [129, 192, 300])
    def test_matches_python_ints(self, width, queries, smaller, view):
        rng = np.random.default_rng(width)
        n, m = (6000, 2000) if smaller == "queries" else (2000, 6000)
        drawn = _word_rows(rng, width, n, 40)
        rows = drawn[np.sort(np.unique(drawn, axis=0, return_index=True)[1])]  # distinct, in drawn order
        hits = rows[rng.integers(0, len(rows), size=m)]
        # a row with one lower word made odd: equal to no row, but sharing
        # every other word with one
        misses = rows[rng.integers(0, len(rows), size=m)]
        misses[np.arange(m), rng.integers(1, rows.shape[1], size=m)] |= np.uint64(1)
        picked = {"hit": hits, "miss": misses, "mixed": np.where(rng.random(m)[:, None] < 0.5, hits, misses)}[queries]
        if view:
            rows = sorted_view(rows, np.ones(len(rows))).words
        values, query_values = _ints(rows), _ints(picked)
        assert len(set(values)) == len(values) > 1000 and len(set(query_values)) < m
        found = match_rows(rows, picked)
        want = reference_match_rows(values, query_values)
        assert found.tolist() == want
        assert {"hit": min(want) >= 0, "miss": max(want) == -1, "mixed": min(want) == -1 < max(want)}[queries]


def _assert_view_is_recomputed(dist: OutcomeDistribution) -> None:
    """The distribution's cached view equals one built from scratch."""
    view = dist._view
    assert view is not None
    words, weights = dist._words, dist._weights
    values = _ints(words)
    order = reference_value_order(values)
    if order == list(range(len(words))):  # in order already: the distribution's own arrays
        assert view.words is words and view.weights is weights
    want = _pack_words(_rows([values[i] for i in order], dist.width))  # no bit set past the width
    assert view.words.dtype == np.uint64 and view.words.flags.c_contiguous
    assert view.words.shape == want.shape and view.words.tobytes() == want.tobytes()
    assert view.weights.dtype == np.float64 and view.weights.tobytes() == weights[order].tobytes()
    assert view.total.hex() == float(weights[order].sum()).hex()


class TestSortedViews:
    @pytest.mark.parametrize("width", [1, 14, 62, 63, 64, 65, 100, 300])
    def test_the_simulator_hands_over_its_views(self, width):
        rng = np.random.default_rng(width)
        ideal = generate_ideal(SyntheticSpec(width, min(5, 2**width), rng))
        counts = sample_shots(ideal, 400, rng)
        noisy = apply_bitflip(counts, NoiseSpec(0.1, rng))
        for dist in (ideal, counts, noisy):
            dist._sorted()
            _assert_view_is_recomputed(dist)
            assert dist._view.words is dist._words

    @pytest.mark.parametrize("width", [2, 6, 12])
    def test_the_corpus_ideal_hands_over_its_view(self, width):
        dist = _spiked_ideal(width, np.random.default_rng(width))
        dist._sorted()
        _assert_view_is_recomputed(dist)

    @pytest.mark.parametrize("width", [1, 14, 64, 65, 300])
    def test_a_view_is_built_once_on_first_use(self, width):
        rng = np.random.default_rng(width)
        words = np.unique(_word_rows(rng, width, 50, 3), axis=0)
        for order in (np.arange(len(words)), rng.permutation(len(words))):
            dist = OutcomeDistribution._from_words(width, words[order], rng.random(len(words)))
            assert dist._view is None
            view = dist._sorted()
            _assert_view_is_recomputed(dist)
            assert dist._sorted() is view

    @pytest.mark.parametrize("width", [1, 14, 64, 65, 100])
    def test_a_run_unpacks_a_compact_copy_of_the_view(self, tmp_path, width):
        rng = np.random.default_rng(width)
        noisy = apply_bitflip(sample_shots(generate_ideal(SyntheticSpec(width, min(5, 2**width), rng)), 400, rng),
                              NoiseSpec(0.1, rng))
        path = tmp_path / "counts.json"
        write_counts(noisy, str(path))
        read = read_counts(str(path))[0]
        mitigated = mitigate(noisy, MitigationConfig(flip_rate=0.1, fixed_k=2)).final
        assert mitigated._view is None  # the run below makes its view
        for dist in (noisy, read, mitigated):
            packed = PackedDistribution(dist, 0.1)
            view = dist._sorted()
            bits = packed.bits
            assert bits.dtype == np.uint8 and bits.shape == (len(dist), width) and bits.flags.c_contiguous
            assert (bits if bits.base is None else bits.base).nbytes == bits.nbytes
            assert bits.tobytes() == _unpack_words(view.words, width).tobytes()
            assert bits.tobytes() == _rows(sorted(b.value for b in dist), width).tobytes()

    READERS = {
        "sample_shots": lambda dist: sample_shots(dist, 10, 0),
        "apply_bitflip": lambda dist: apply_bitflip(dist, NoiseSpec(0.1, 0)),
        "select_initial_centroids": lambda dist: select_initial_centroids(dist, 1),
        "qubitwise_majority_vote": qubitwise_majority_vote,
    }

    @pytest.mark.parametrize("weight, total", [(0.0, "0.0"), (1e308, "inf")])
    @pytest.mark.parametrize("reader", READERS)
    def test_readers_of_the_view_need_a_positive_finite_total(self, reader, weight, total):
        dist = OutcomeDistribution.from_counts({"01": weight, "10": weight})
        if reader == "qubitwise_majority_vote" and weight == 0.0:
            error, message = EmptyClusterError, "majority vote over zero total weight"
        else:
            error, message = ValueError, f"distribution needs a positive finite total weight, got {total}"
        with pytest.raises(ValueError) as raised:
            self.READERS[reader](dist)
        assert type(raised.value) is error and str(raised.value) == message


def _calls(path: Path):
    """(called name, call node) of every call in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            yield getattr(func, "attr", getattr(func, "id", None)), node


BLAS_CALLS = {"dot", "matmul", "inner", "tensordot", "vdot", "vecdot", "matvec", "vecmat"}


def _nodes_in_functions(path: Path):
    """(enclosing function name or None, node) of every node in a source file."""

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        yield func, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), None)


def _callers(name: str) -> set[tuple[str, str | None]]:
    """(module, enclosing function) of every call of ``name`` in src/."""
    return {
        (path.stem, func)
        for path in sorted(SRC.glob("*.py"))
        for func, node in _nodes_in_functions(path)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    }


def _blas_products(path: Path):
    """(enclosing function, source) of every product in a source file that
    may call a BLAS kernel: ``@``, ``@=``, the numpy product calls, and
    ``einsum`` given ``optimize``, which hands contractions to ``tensordot``."""
    for func, node in _nodes_in_functions(path):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield func, ast.unparse(node)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in BLAS_CALLS or (name == "einsum" and any(kw.arg == "optimize" for kw in node.keywords)):
                yield func, ast.unparse(node)


class TestLayering:
    def test_src_calls_no_blas_kernel(self):
        # a BLAS kernel's summation order depends on the CPU, and so would
        # the last bits of every float it adds
        found = [(path.name, func, code) for path in sorted(SRC.glob("*.py")) for func, code in _blas_products(path)]
        assert found == []

    def test_the_blas_scan_sees_every_product_form(self, tmp_path):
        path = tmp_path / "products.py"
        path.write_text(
            "def f(a, b):\n"
            "    a @ b\n"
            "    a @= b\n"
            "    np.dot(a, b), a.dot(b), np.matmul(a, b), np.inner(a, b), np.tensordot(a, b), np.vdot(a, b)\n"
            "    np.vecdot(a, b), np.matvec(a, b), np.vecmat(a, b)\n"
            "    np.einsum('i,ij->j', a, b, optimize=True)\n"
            "    np.einsum('i,ij->j', a, b)\n",
            encoding="utf-8",
        )
        assert len(list(_blas_products(path))) == 12

    def test_the_rate_bound_has_one_owner(self):
        # noise owns the bit-flip rate range (RATE_MAX, is_rate, check_rate)
        found = [
            (path.name, node.lineno)
            for path in sorted(SRC.glob("*.py"))
            if path.name != "noise.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 0.5
        ]
        assert found == []

    def test_packed_imports_nothing_from_the_package(self):
        tree = ast.parse((SRC / "_packed.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and not (node.module or "").startswith("qemclust"), ast.unparse(node)
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("qemclust") for a in node.names), ast.unparse(node)

    def test_only_runs_build_a_run_cache(self):
        # a run binds one rate; code that only reads a distribution reads its view
        built, tables = set(), []
        for path in sorted(SRC.glob("*.py")):
            for func, node in _nodes_in_functions(path):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PackedDistribution":
                    built.add((path.stem, func))
                elif isinstance(node, ast.FunctionDef) and node.name == "_likelihood_table":
                    tables.append(path.stem)
        assert built == {("engine", "mitigate"), ("clustering", "cluster"), ("redistribution", "redistribute")}
        assert tables == ["_packed"]

    def test_every_export_is_used_by_the_package(self):
        # an export that only tests import is test scaffolding in src/
        imported = set()
        for path in SRC.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module in ("_packed", "qemclust._packed"):
                    imported.update(a.name for a in node.names)
        assert sorted(set(PACKED_EXPORTS) - imported) == []

    @pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
    def test_rows_are_ordered_and_matched_by_the_row_key(self, path):
        for name, call in _calls(path):
            assert name != "lexsort", ast.unparse(call)
            if name == "unique":
                assert all(kw.arg != "axis" for kw in call.keywords), ast.unparse(call)

    def test_bits_are_unpacked_only_where_they_are_read(self):
        # a row set is kept as words; a run (for its votes), a standalone
        # vote and the weight-map writer unpack bits
        assert _callers("_unpack_words") == {
            ("_packed", "__init__"), ("clustering", "qubitwise_majority_vote"), ("io", "_dump_weights"),
        }

    def test_bits_are_packed_only_where_they_are_made(self):
        # a centroid is a words row outside its vote: only a vote that
        # moved, a standalone vote, the reader's parsed text and the wide
        # random draws have bit rows to pack
        assert _callers("_pack_words") == {
            ("clustering", "_cluster_packed"), ("clustering", "qubitwise_majority_vote"),
            ("io", "_read_weights"), ("noise", "_distinct_rows"),
        }

    def test_the_weight_map_writer_has_no_per_entry_loop(self):
        # every entry is a row of one byte template filled by one %; only
        # the distinct weights are formatted, by map
        tree = ast.parse((SRC / "io.py").read_text(encoding="utf-8"))
        func = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_dump_weights")
        loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        assert [ast.unparse(n) for n in ast.walk(func) if isinstance(n, loops)] == []

    def test_the_k_loop_never_regroups_centroids(self):
        # the redistribution kernel merges equal centroids; the engine
        # reads its merged pass results as they are
        for name, call in _calls(SRC / "engine.py"):
            assert name not in ("unique", "bincount"), ast.unparse(call)
