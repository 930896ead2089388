"""Space tests: file round trips, graph invariants, synthesis, calibration."""

import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrnas import metrics, nn, space
from ltrnas.space import (
    ArchGraph,
    Architecture,
    BenchmarkRecord,
    CalibrationError,
    SpaceMeta,
    SpaceParseError,
    SpaceValidationError,
    SynthConfig,
    SyntheticLandscape,
    calibrate_weak_labels,
    encode_architecture,
    generate_synthetic_space,
    load_space,
    save_space,
    _validate_graph,
)

VOCAB = ("input", "output", "add", "conv1x1", "conv3x3")


def chain_arch(arch_id, ops=("conv3x3",), hparams=(0.5, -0.5)):
    nodes = ("input", *ops, "output")
    edges = tuple((i, i + 1) for i in range(len(nodes) - 1))
    return Architecture(id=arch_id, cells=(ArchGraph(nodes=nodes, edges=edges),), hparams=hparams)


def record(arch_id, val=90.0, test=89.0, ws=None, ops=("conv3x3",)):
    return BenchmarkRecord(
        arch=chain_arch(arch_id, ops=ops), val_acc=val, test_acc=test, ws_acc=ws, flops=10.0, params=1.0
    )


def write_space_file(tmp_path, header, lines):
    path = tmp_path / "space.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for line in lines:
            fh.write((line if isinstance(line, str) else json.dumps(line)) + "\n")
    return path


def record_obj(arch_id, **overrides):
    obj = {
        "id": arch_id,
        "cells": [{"nodes": ["input", "conv3x3", "output"], "edges": [[0, 1], [1, 2]]}],
        "hparams": [0.5, -0.5],
        "val_acc": 90.0,
        "test_acc": 89.0,
        "flops": 10.0,
        "params": 1.0,
    }
    obj.update(overrides)
    return obj


HEADER = {"name": "toy", "vocab": list(VOCAB), "hparam_dim": 2}


class TestLoadSpace:
    def test_valid_three_records(self, tmp_path):
        path = write_space_file(tmp_path, HEADER, [record_obj(f"a{i}") for i in range(3)])
        sp = load_space(path)
        assert len(sp) == 3
        assert sp.ids == ("a0", "a1", "a2")

    def test_cyclic_graph_names_offender(self, tmp_path):
        bad = record_obj("cyclic", cells=[{
            "nodes": ["input", "conv3x3", "conv1x1", "output"],
            "edges": [[0, 1], [1, 2], [2, 1], [2, 3]],
        }])
        path = write_space_file(tmp_path, HEADER, [record_obj("ok"), bad])
        with pytest.raises(SpaceValidationError, match="cyclic"):
            load_space(path)

    def test_out_of_range_accuracy(self, tmp_path):
        path = write_space_file(tmp_path, HEADER, [record_obj("hot", val_acc=101.0)])
        with pytest.raises(SpaceValidationError, match="val_acc"):
            load_space(path)

    def test_duplicate_id(self, tmp_path):
        path = write_space_file(tmp_path, HEADER, [record_obj("dup"), record_obj("dup")])
        with pytest.raises(SpaceValidationError, match="duplicate"):
            load_space(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = write_space_file(tmp_path, HEADER, [record_obj("ok"), "{not json"])
        with pytest.raises(SpaceParseError, match=":3"):
            load_space(path)

    def test_unknown_op_rejected(self, tmp_path):
        bad = record_obj("weird")
        bad["cells"][0]["nodes"] = ["input", "conv7x7", "output"]
        path = write_space_file(tmp_path, HEADER, [bad])
        with pytest.raises(SpaceValidationError, match="conv7x7"):
            load_space(path)

    @pytest.mark.parametrize("hparams, where", [("[NaN, 0.5]", "hparams[0]"), ("[0.5, -Infinity]", "hparams[1]")])
    def test_non_finite_hparam_rejected(self, tmp_path, hparams, where):
        line = json.dumps(record_obj("nonfinite")).replace("[0.5, -0.5]", hparams)
        path = write_space_file(tmp_path, HEADER, [record_obj("ok"), line])
        with pytest.raises(SpaceValidationError, match=re.escape(f"nonfinite: {where}=")):
            load_space(path)

    @pytest.mark.parametrize("edges", [[[0, 1], [1, 2.0]], [[0, 1], [1, 1.9]], [[False, 1], [1, 2]], [[0, 1], [1, "2"]]])
    def test_non_integer_edge_endpoint_rejected(self, tmp_path, edges):
        bad = record_obj("truncated", cells=[{"nodes": ["input", "conv3x3", "output"], "edges": edges}])
        path = write_space_file(tmp_path, HEADER, [record_obj("ok"), bad])
        with pytest.raises(SpaceParseError, match=r":3: .*non-integer endpoint"):
            load_space(path)

    @pytest.mark.parametrize("dim", [2.7, 2.0, True, "2"])
    def test_non_integer_hparam_dim_rejected(self, tmp_path, dim):
        path = write_space_file(tmp_path, {**HEADER, "hparam_dim": dim}, [record_obj("ok")])
        with pytest.raises(SpaceParseError, match=r":1: hparam_dim .* is not an integer"):
            load_space(path)

    @pytest.mark.parametrize("field, value", [
        ("val_acc", True), ("test_acc", False), ("ws_acc", True), ("flops", False), ("params", True),
        ("hparams", [True, 0.5]), ("hparams", [0.5, False]), ("val_acc", "90.0"),
    ])
    def test_boolean_number_rejected_with_line(self, tmp_path, field, value):
        # float() takes true as 1.0 and false as 0.0, so these would load silently
        path = write_space_file(tmp_path, HEADER, [record_obj("ok"), record_obj("flag", **{field: value})])
        with pytest.raises(SpaceParseError, match=rf":3: .*{field} .* is not a JSON number"):
            load_space(path)

    def test_records_share_op_names_and_edge_pairs(self, tmp_path):
        path = tmp_path / "space.jsonl"
        save_space(generate_synthetic_space(SynthConfig(size=60, n_cells=2, seed=3)), path)
        sp = load_space(path)
        vocab = {op: op for op in sp.meta.vocab}
        pairs = {}
        for rec in sp.records.values():
            for cell in rec.arch.cells:
                assert all(op is vocab[op] for op in cell.nodes)
                assert all(pairs.setdefault(e, e) is e for e in cell.edges)

    def test_retained_memory_per_record(self, tmp_path):
        # the bench's space shape; the parsed records, not the file, stay in memory
        path = tmp_path / "space.jsonl"
        cfg = SynthConfig(size=2000, node_range=(5, 11), vocab_size=9, seed=1)
        save_space(calibrate_weak_labels(generate_synthetic_space(cfg), 0.6, seed=1), path)
        tracemalloc.start()
        sp = load_space(path)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(sp) == 2000
        assert held / len(sp) < 1200

    def test_round_trip_identical(self, tmp_path):
        cfg = SynthConfig(size=40, seed=5)
        sp = calibrate_weak_labels(generate_synthetic_space(cfg), 0.8, seed=2)
        p1 = tmp_path / "one.jsonl"
        p2 = tmp_path / "two.jsonl"
        save_space(sp, p1)
        save_space(load_space(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PERCENT = st.floats(0.0, 100.0)


@st.composite
def _cells(draw, n_cells):
    """Valid cells: a chain input -> ops -> output plus forward skip edges."""
    cells = []
    for _ in range(n_cells):
        ops = draw(st.lists(st.sampled_from(VOCAB[2:]), max_size=4))
        n = len(ops) + 2
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
        edges = tuple(sorted({(i, i + 1) for i in range(n - 1)} | {(i, j) for i, j in pairs if i + 1 < j}))
        cells.append(ArchGraph(nodes=("input", *ops, "output"), edges=edges))
    return tuple(cells)


@st.composite
def _spaces(draw):
    n_cells = draw(st.integers(1, 3))
    hparam_dim = draw(st.integers(0, 3))
    ids = draw(st.lists(st.text(alphabet=["a", "b", "\x00", "é", "\"", "Ω"], max_size=4),
                        min_size=1, max_size=6, unique=True))
    records = {}
    for rid in ids:
        arch = Architecture(
            id=rid,
            cells=draw(_cells(n_cells)),
            hparams=tuple(draw(st.lists(_FINITE, min_size=hparam_dim, max_size=hparam_dim))),
        )
        records[rid] = BenchmarkRecord(
            arch=arch, val_acc=draw(_PERCENT), test_acc=draw(_PERCENT), ws_acc=draw(st.none() | _PERCENT),
            flops=draw(st.floats(0.0, 1e12)), params=draw(st.floats(0.0, 1e12)),
        )
    return space.SearchSpace(meta=SpaceMeta(name=draw(st.text(max_size=5)), vocab=VOCAB, hparam_dim=hparam_dim),
                             records=records)


class TestSpaceRoundTrip:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_spaces())
    def test_save_load_save_is_byte_identical(self, sp):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "one.jsonl"), Path(tmp, "two.jsonl")
            save_space(sp, first)
            loaded = load_space(first)
            save_space(loaded, second)
            assert loaded == sp
            assert first.read_bytes() == second.read_bytes()


def _graph_errors(g):
    """The message `_validate_graph` must raise for `g` (None if valid),
    checked in its order against a brute-force transitive closure."""
    n = len(g.nodes)
    if n == 0:
        return "empty graph"
    if g.nodes.count("input") != 1 or g.nodes.count("output") != 1:
        return "graph must contain exactly one input and one output node"
    for s, d in g.edges:
        if not (0 <= s < n and 0 <= d < n):
            return f"edge ({s}, {d}) out of range for {n} nodes"
        if s == d:
            return f"self-edge on node {s}"
    path = np.zeros((n, n), dtype=bool)
    for s, d in g.edges:
        path[s, d] = True
    for _ in range(n):
        path |= (path.astype(int) @ path.astype(int)) > 0
    if path.diagonal().any():
        return "graph contains a cycle"
    src, dst = g.nodes.index("input"), g.nodes.index("output")
    missing = [v for v in range(n) if v != src and not path[src, v]]
    if missing:
        return f"nodes {missing} unreachable from input"
    missing = [v for v in range(n) if v != dst and not path[v, dst]]
    if missing:
        return f"nodes {missing} cannot reach output"
    return None


@st.composite
def _graphs(draw):
    """Graphs of 0-7 nodes: mostly one input and one output with edges along
    a random topological order, sometimes spanning a chain through it, plus
    at times any other edge (a back edge, a self-edge, out of range) or
    arbitrary node labels."""
    n = draw(st.integers(0, 7))
    order = draw(st.permutations(range(n)))
    if n >= 2 and draw(st.integers(0, 4)):
        nodes = draw(st.lists(st.sampled_from(["add", "conv3x3"]), min_size=n, max_size=n))
        nodes[order[0]], nodes[order[-1]] = "input", "output"
        if draw(st.booleans()):
            order = draw(st.permutations(order))
    else:
        nodes = draw(st.lists(st.sampled_from(["input", "output", "add"]), min_size=n, max_size=n))
    forward = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(forward), max_size=10)) if forward else []
    if draw(st.booleans()):
        edges += [(order[a], order[a + 1]) for a in range(n - 1)]
    if draw(st.integers(0, 3)) == 0:
        edges.insert(draw(st.integers(0, len(edges))), draw(st.tuples(st.integers(-1, n), st.integers(-1, n))))
    return ArchGraph(nodes=tuple(nodes), edges=tuple(draw(st.permutations(edges))))


class TestGraphInvariants:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_graphs())
    def test_matches_transitive_closure(self, g):
        expected = _graph_errors(g)
        if expected is None:
            _validate_graph(g)
        else:
            with pytest.raises(SpaceValidationError) as err:
                _validate_graph(g)
            assert str(err.value) == expected

    def test_requires_single_input_output(self):
        g = ArchGraph(nodes=("input", "input", "output"), edges=((0, 2), (1, 2)))
        with pytest.raises(SpaceValidationError, match="exactly one"):
            _validate_graph(g)

    def test_unreachable_node(self):
        g = ArchGraph(nodes=("input", "conv3x3", "output"), edges=((0, 2), (1, 2)))
        with pytest.raises(SpaceValidationError, match="unreachable"):
            _validate_graph(g)

    def test_dead_end_node(self):
        g = ArchGraph(nodes=("input", "conv3x3", "output"), edges=((0, 1), (0, 2)))
        with pytest.raises(SpaceValidationError, match="cannot reach output"):
            _validate_graph(g)

    def test_self_edge(self):
        g = ArchGraph(nodes=("input", "conv3x3", "output"), edges=((0, 1), (1, 1), (1, 2)))
        with pytest.raises(SpaceValidationError, match="self-edge"):
            _validate_graph(g)

    def test_edge_out_of_range(self):
        g = ArchGraph(nodes=("input", "output"), edges=((0, 5),))
        with pytest.raises(SpaceValidationError, match="out of range"):
            _validate_graph(g)


def _incoming(enc):
    """The uint8 incoming adjacency (self-loops included) that `nn.pack` builds for one encoding's first cell."""
    return nn.pack([enc]).prop[0][0]


class TestEncode:
    def test_chain_encoding(self):
        arch = chain_arch("x")
        enc = encode_architecture(arch, VOCAB)
        assert enc.ops == ((0, 4, 1),)
        assert enc.edges[0] is arch.cells[0].edges
        assert enc.hparams is arch.hparams
        assert enc.vocab_size == len(VOCAB)
        # 2 edges + 3 self-loops, each edge in its destination's row
        adj = _incoming(enc)
        assert adj.dtype == np.uint8 and adj.sum() == 5
        assert np.all(np.diag(adj) == 1)
        assert adj[1, 0] == adj[2, 1] == 1
        np.testing.assert_array_equal(enc.hparams, [0.5, -0.5])

    def test_relabeling_equivariance(self):
        a = Architecture(
            id="fwd",
            cells=(ArchGraph(nodes=("input", "conv3x3", "conv1x1", "output"),
                             edges=((0, 1), (0, 2), (1, 3), (2, 3))),),
            hparams=(),
        )
        perm = [2, 0, 3, 1]  # new index of each old node
        nodes_p = [None] * 4
        for old, new in enumerate(perm):
            nodes_p[new] = a.cells[0].nodes[old]
        edges_p = tuple((perm[s], perm[d]) for s, d in a.cells[0].edges)
        b = Architecture(id="perm", cells=(ArchGraph(nodes=tuple(nodes_p), edges=edges_p),), hparams=())
        ea = encode_architecture(a, VOCAB)
        eb = encode_architecture(b, VOCAB)
        p = np.asarray(perm)
        np.testing.assert_array_equal(ea.ops[0], np.asarray(eb.ops[0])[p])
        np.testing.assert_array_equal(_incoming(ea), _incoming(eb)[np.ix_(p, p)])

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_cells(1), st.data())
    def test_relabeling_equivariance_property(self, cells, data):
        # each node's op index and adjacency entries move with its new index
        (cell,) = cells
        n = len(cell.nodes)
        perm = data.draw(st.permutations(range(n)))  # new index of each old node
        nodes_p = [None] * n
        for old, new in enumerate(perm):
            nodes_p[new] = cell.nodes[old]
        relabeled = ArchGraph(nodes=tuple(nodes_p), edges=tuple((perm[s], perm[d]) for s, d in cell.edges))
        _validate_graph(cell)
        _validate_graph(relabeled)
        ea = encode_architecture(Architecture(id="a", cells=cells, hparams=()), VOCAB)
        eb = encode_architecture(Architecture(id="b", cells=(relabeled,), hparams=()), VOCAB)
        p = np.asarray(perm)
        np.testing.assert_array_equal(ea.ops[0], np.asarray(eb.ops[0])[p])
        np.testing.assert_array_equal(_incoming(ea), _incoming(eb)[np.ix_(p, p)])

    def test_unknown_label(self):
        with pytest.raises(SpaceValidationError, match="conv7x7"):
            encode_architecture(chain_arch("x", ops=("conv7x7",)), VOCAB)

    def test_injective_on_distinct_graphs(self):
        e1 = encode_architecture(chain_arch("a", ops=("conv3x3",)), VOCAB)
        e2 = encode_architecture(chain_arch("b", ops=("conv1x1",)), VOCAB)
        assert e1.ops != e2.ops


class TestSynthetic:
    def test_determinism(self, tmp_path):
        cfg = SynthConfig(size=100, seed=7)
        s1 = generate_synthetic_space(cfg)
        s2 = generate_synthetic_space(cfg)
        p1 = tmp_path / "s1.jsonl"
        p2 = tmp_path / "s2.jsonl"
        save_space(s1, p1)
        save_space(s2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_size_one_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(size=1)

    def test_degenerate_configs_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(size=10, vocab_size=2)
        with pytest.raises(ValueError):
            SynthConfig(size=10, node_range=(6, 5))

    def test_skewed_distribution_q20_below_mode(self):
        sp = generate_synthetic_space(SynthConfig(size=5000, seed=1))
        vals = np.array([r.val_acc for r in sp.records.values()])
        counts, edges = np.histogram(vals, bins=20)
        mode_left = edges[int(np.argmax(counts))]
        assert np.quantile(vals, 0.2, method="linear") < mode_left

    def test_all_records_valid_and_costs_scale_with_nodes(self):
        sp = generate_synthetic_space(SynthConfig(size=300, seed=3))
        nodes = np.array([sum(len(c.nodes) for c in r.arch.cells) for r in sp.records.values()])
        flops = np.array([r.flops for r in sp.records.values()])
        params = np.array([r.params for r in sp.records.values()])
        assert metrics.pearson(nodes, flops) > 0.5
        assert metrics.pearson(nodes, params) > 0.5

    def test_landscape_oracle_matches_generation(self):
        cfg = SynthConfig(size=50, seed=9)
        sp = generate_synthetic_space(cfg)
        landscape = SyntheticLandscape(cfg)
        for rec in sp.records.values():
            base = landscape.base_accuracy(rec.arch)
            # val/test are base plus independent noise of sd 0.2
            assert abs(rec.val_acc - base) < 5 * 0.2 + 1e-9
            assert abs(rec.test_acc - base) < 5 * 0.2 + 1e-9


@pytest.fixture(scope="module")
def sp5000():
    return generate_synthetic_space(SynthConfig(size=5000, seed=1))


class TestCalibration:
    def test_tau_one_is_exact_monotone(self, sp5000):
        cal = calibrate_weak_labels(sp5000, 1.0, seed=4)
        ws = np.array([r.ws_acc for r in cal.records.values()])
        vals = np.array([r.val_acc for r in cal.records.values()])
        assert metrics.kendall_tau(ws, vals) == pytest.approx(1.0)
        order = np.argsort(vals)
        assert np.all(np.diff(ws[order]) >= 0)

    def test_tau_zero(self, sp5000):
        cal = calibrate_weak_labels(sp5000, 0.0, seed=4)
        ws = np.array([r.ws_acc for r in cal.records.values()])
        vals = np.array([r.val_acc for r in cal.records.values()])
        assert abs(metrics.kendall_tau(ws, vals)) <= 0.05

    def test_tau_target_hit(self, sp5000):
        cal = calibrate_weak_labels(sp5000, 0.6, seed=4)
        ws = np.array([r.ws_acc for r in cal.records.values()])
        vals = np.array([r.val_acc for r in cal.records.values()])
        assert 0.55 <= metrics.kendall_tau(ws, vals) <= 0.65

    def test_only_ws_changes(self, sp5000):
        cal = calibrate_weak_labels(sp5000, 0.7, seed=4)
        for rid in sp5000.records:
            a, b = sp5000.records[rid], cal.records[rid]
            assert (a.val_acc, a.test_acc, a.flops, a.params) == (b.val_acc, b.test_acc, b.flops, b.params)
            assert a.arch == b.arch

    def test_validates_no_record_again(self, sp5000, monkeypatch):
        # the records were validated when the space was built; calibration
        # changes only ws_acc, and keeps it finite and inside [0, 100]
        calls = []
        monkeypatch.setattr(space, "_validate_record", lambda *a, **k: calls.append(a))
        cal = calibrate_weak_labels(sp5000, 0.6, seed=4)
        assert calls == []
        assert list(cal.records) == list(sp5000.records)
        ws = np.array([r.ws_acc for r in cal.records.values()])
        assert np.all(np.isfinite(ws)) and ws.min() >= 0.0 and ws.max() <= 100.0

    def test_deterministic_per_seed(self, sp5000):
        c1 = calibrate_weak_labels(sp5000, 0.6, seed=4)
        c2 = calibrate_weak_labels(sp5000, 0.6, seed=4)
        ws1 = [r.ws_acc for r in c1.records.values()]
        ws2 = [r.ws_acc for r in c2.records.values()]
        assert ws1 == ws2

    def test_invalid_target(self, sp5000):
        with pytest.raises(ValueError):
            calibrate_weak_labels(sp5000, 1.5, seed=0)

    def test_zero_variance_rejected(self):
        meta = SpaceMeta(name="flat", vocab=VOCAB, hparam_dim=2)
        recs = {}
        for i in range(5):
            r = record(f"f{i}", val=80.0, test=80.0)
            recs[r.arch.id] = r
        flat = space.SearchSpace(meta=meta, records=recs)
        with pytest.raises(CalibrationError):
            calibrate_weak_labels(flat, 0.6, seed=0)

    @pytest.mark.parametrize("size, target", [(2, 0.6), (3, 0.5)])
    def test_tiny_space_names_size_and_target(self, size, target):
        # two records have tau +-1 only, three +-1/3 or +-1; widening the noise
        # on two records clips both labels to one bound, where tau is undefined
        sp = generate_synthetic_space(SynthConfig(size=size, seed=1))
        with pytest.raises(CalibrationError, match=f"of {size} records to tau {target}:"):
            calibrate_weak_labels(sp, target, seed=1)


# ---------------------------------------------------------------------------
# Reference copy of the synthetic sampler and landscape features in their
# earlier, numpy-per-scalar form. The current code must make the same draws
# and the same float arithmetic, since they fix every synthetic space's bytes.
# ---------------------------------------------------------------------------

def _reference_node_depths(cell):
    n = len(cell.nodes)
    depth = np.zeros(n)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for s, d in cell.edges:
        succ[s].append(d)
        indeg[d] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    while queue:
        v = queue.pop()
        for w in succ[v]:
            depth[w] = max(depth[w], depth[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return depth


def _reference_sample(landscape, arch_id, rng):
    lo, hi = landscape.cfg.node_range
    vocab = landscape.vocab
    cells = []
    for _ in range(landscape.cfg.n_cells):
        n = int(rng.integers(lo, hi + 1))
        nodes = ["input"] + [vocab[2 + int(k)] for k in rng.integers(0, len(vocab) - 2, size=n - 2)] + ["output"]
        edges = set()
        for v in range(1, n):
            edges.add((int(rng.integers(0, v)), v))
        has_successor = {s for s, _ in edges}
        for v in range(n - 1):
            if v not in has_successor:
                edges.add((v, int(rng.integers(v + 1, n))))
        free = [(s, d) for s in range(n - 1) for d in range(s + 1, n) if (s, d) not in edges]
        edges.update(pair for pair, u in zip(free, rng.random(len(free))) if u < 1.0 / n)
        cells.append(ArchGraph(nodes=tuple(nodes), edges=tuple(sorted(edges))))
    hparams = tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=landscape.cfg.hparam_dim))
    return Architecture(id=arch_id, cells=tuple(cells), hparams=hparams)


def _reference_base_accuracy(landscape, arch):
    vocab = landscape.vocab
    hist = np.zeros(len(vocab) - 2)
    depth_terms = []
    for cell in arch.cells:
        for op in cell.nodes:
            if op not in ("input", "output"):
                hist[vocab.index(op) - 2] += 1
        depths = _reference_node_depths(cell)
        depth_terms.append(float(depths.mean() / max(len(cell.nodes) - 1, 1)))
    total_middle = hist.sum()
    if total_middle > 0:
        hist /= total_middle
    op_term = float(hist @ landscape.op_weights)
    depth_term = float(np.mean(depth_terms))
    if landscape.cfg.hparam_dim:
        hp_term = float(np.asarray(arch.hparams) @ landscape.hparam_weights) / math.sqrt(landscape.cfg.hparam_dim)
    else:
        hp_term = 0.0
    z = (landscape._SKEW_SHIFT + landscape._GAIN_OPS * op_term
         + landscape._GAIN_DEPTH * (depth_term - 0.5) + landscape._GAIN_HPARAMS * hp_term)
    return landscape._ACC_FLOOR + landscape._ACC_SPAN / (1.0 + math.exp(-z))


@st.composite
def _synth_configs(draw):
    lo = draw(st.integers(3, 16))
    return SynthConfig(size=draw(st.integers(2, 40)), node_range=(lo, draw(st.integers(lo, 16))),
                       vocab_size=draw(st.integers(3, 14)), hparam_dim=draw(st.integers(0, 4)),
                       n_cells=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)))


class TestSynthMatchesReference:
    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(_synth_configs())
    def test_same_architectures_and_bit_equal_accuracies(self, cfg):
        sp = generate_synthetic_space(cfg)
        landscape = SyntheticLandscape(cfg)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x51A5]))
        for rid, rec in sp.records.items():
            arch = _reference_sample(landscape, rid, rng)
            base = _reference_base_accuracy(landscape, arch)
            val = float(np.clip(base + rng.normal(0.0, landscape.NOISE_SD), 0.0, 100.0))
            test = float(np.clip(base + rng.normal(0.0, landscape.NOISE_SD), 0.0, 100.0))
            assert rec.arch == arch
            assert landscape.base_accuracy(arch).hex() == base.hex()
            assert (rec.val_acc.hex(), rec.test_acc.hex()) == (val.hex(), test.hex())

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(_spaces())
    def test_save_space_lines_are_json_dumps(self, sp):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "space.jsonl")
            save_space(sp, path)
            header, *lines = path.read_text(encoding="utf-8").splitlines()
        meta = {"name": sp.meta.name, "vocab": list(sp.meta.vocab), "hparam_dim": sp.meta.hparam_dim}
        assert header == json.dumps(meta, sort_keys=True)
        assert len(lines) == len(sp)
        for line, rec in zip(lines, sp.records.values()):
            obj = {
                "id": rec.arch.id,
                "cells": [{"nodes": list(c.nodes), "edges": [list(e) for e in c.edges]} for c in rec.arch.cells],
                "hparams": list(rec.arch.hparams),
                "val_acc": rec.val_acc, "test_acc": rec.test_acc, "flops": rec.flops, "params": rec.params,
            }
            if rec.ws_acc is not None:
                obj["ws_acc"] = rec.ws_acc
            assert line == json.dumps(obj, sort_keys=True)
