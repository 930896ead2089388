"""Space tests: file round trips, graph invariants, synthesis, calibration."""

import json

import numpy as np
import pytest

from ltrnas import metrics, space
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
    validate_graph,
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

    def test_round_trip_identical(self, tmp_path):
        cfg = SynthConfig(size=40, seed=5)
        sp = calibrate_weak_labels(generate_synthetic_space(cfg), 0.8, seed=2)
        p1 = tmp_path / "one.jsonl"
        p2 = tmp_path / "two.jsonl"
        save_space(sp, p1)
        save_space(load_space(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestGraphInvariants:
    def test_requires_single_input_output(self):
        g = ArchGraph(nodes=("input", "input", "output"), edges=((0, 2), (1, 2)))
        with pytest.raises(SpaceValidationError, match="exactly one"):
            validate_graph(g)

    def test_unreachable_node(self):
        g = ArchGraph(nodes=("input", "conv3x3", "output"), edges=((0, 2), (1, 2)))
        with pytest.raises(SpaceValidationError, match="unreachable"):
            validate_graph(g)

    def test_dead_end_node(self):
        g = ArchGraph(nodes=("input", "conv3x3", "output"), edges=((0, 1), (0, 2)))
        with pytest.raises(SpaceValidationError, match="cannot reach output"):
            validate_graph(g)

    def test_self_edge(self):
        g = ArchGraph(nodes=("input", "conv3x3", "output"), edges=((0, 1), (1, 1), (1, 2)))
        with pytest.raises(SpaceValidationError, match="self-edge"):
            validate_graph(g)

    def test_edge_out_of_range(self):
        g = ArchGraph(nodes=("input", "output"), edges=((0, 5),))
        with pytest.raises(SpaceValidationError, match="out of range"):
            validate_graph(g)


class TestEncode:
    def test_chain_encoding(self):
        enc = encode_architecture(chain_arch("x"), VOCAB)
        cell = enc.cells[0]
        assert cell.onehot.shape == (3, 5)
        assert np.all(cell.onehot.sum(axis=1) == 1.0)
        # 2 edges + 3 self-loops
        assert cell.adjacency.sum() == 5.0
        assert np.all(np.diag(cell.adjacency) == 1.0)
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
        np.testing.assert_array_equal(ea.cells[0].onehot, eb.cells[0].onehot[p])
        np.testing.assert_array_equal(ea.cells[0].adjacency, eb.cells[0].adjacency[np.ix_(p, p)])

    def test_unknown_label(self):
        with pytest.raises(SpaceValidationError, match="conv7x7"):
            encode_architecture(chain_arch("x", ops=("conv7x7",)), VOCAB)

    def test_injective_on_distinct_graphs(self):
        e1 = encode_architecture(chain_arch("a", ops=("conv3x3",)), VOCAB)
        e2 = encode_architecture(chain_arch("b", ops=("conv1x1",)), VOCAB)
        assert not np.array_equal(e1.cells[0].onehot, e2.cells[0].onehot)


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
