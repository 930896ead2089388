"""Model tests: exact gradients against finite differences, determinism,
batch independence, sort-pooling, optimizer and checkpoint behavior."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ltrnas import nn, space
from ltrnas.nn import (
    HEADS,
    ModelConfig,
    ParamStore,
    adam_step,
    backward,
    build_model,
    checkpoint_bytes,
    clone_model,
    cosine_lr,
    forward,
    forward_heads,
    load_checkpoint,
    save_checkpoint,
)

TINY = ModelConfig(
    vocab_size=4,
    hparam_dim=2,
    conv_channels=(5, 4),
    sortpool_nodes=3,
    conv1d_channels=2,
    hparam_proj=2,
    head_hidden=3,
    dropout=0.1,
    seed=11,
)

# TINY over two cells: each cell has its own encoder pass, and the readouts
# are sliced apart again in backward
TINY_TWO_CELLS = ModelConfig(**{**TINY.__dict__, "n_cells": 2})


@pytest.fixture(scope="module")
def tiny_encs():
    cfg = space.SynthConfig(size=24, node_range=(3, 5), vocab_size=4, hparam_dim=2, seed=5)
    sp = space.generate_synthetic_space(cfg)
    return [space.encode_architecture(r.arch, sp.meta.vocab) for r in sp.records.values()]


@pytest.fixture(scope="module")
def two_cell_encs():
    cfg = space.SynthConfig(size=24, node_range=(3, 5), vocab_size=4, hparam_dim=2, n_cells=2, seed=7)
    sp = space.generate_synthetic_space(cfg)
    return [space.encode_architecture(r.arch, sp.meta.vocab) for r in sp.records.values()]


@pytest.fixture(scope="module")
def mixed_encs():
    """Per cell count: a model config and encodings with 3 to 7 nodes per
    cell; sort-pooling keeps 5 rows, so some cells leave pooled slots empty."""
    out = {}
    for n_cells, cfg in ((1, TINY), (2, TINY_TWO_CELLS)):
        cfg = ModelConfig(**{**cfg.__dict__, "sortpool_nodes": 5})
        synth = space.SynthConfig(size=30, node_range=(3, 7), vocab_size=4, hparam_dim=2, n_cells=n_cells, seed=8)
        sp = space.generate_synthetic_space(synth)
        out[n_cells] = cfg, [space.encode_architecture(r.arch, sp.meta.vocab) for r in sp.records.values()]
    return out


@pytest.fixture(scope="module")
def wide_encs():
    cfg = space.SynthConfig(size=24, node_range=(5, 8), vocab_size=7, hparam_dim=2, seed=6)
    sp = space.generate_synthetic_space(cfg)
    return [space.encode_architecture(r.arch, sp.meta.vocab) for r in sp.records.values()]


class TestBuildModel:
    def test_deterministic_init(self):
        m1 = build_model(TINY)
        m2 = build_model(TINY)
        for name in m1.store.names():
            np.testing.assert_array_equal(m1.store.params[name], m2.store.params[name])

    def test_conv_weight_shapes(self):
        cfg = ModelConfig(vocab_size=6, hparam_dim=0, conv_channels=(128, 128, 128, 128))
        m = build_model(cfg)
        assert m.store.params["conv0.weight"].shape == (6, 128)
        for layer in (1, 2, 3):
            assert m.store.params[f"conv{layer}.weight"].shape == (128, 128)

    def test_invalid_dropout(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=4, hparam_dim=0, dropout=1.0)

    @pytest.mark.parametrize("field", ["sortpool_nodes", "conv1d_channels", "head_hidden"])
    def test_invalid_layer_size(self, field):
        with pytest.raises(ValueError, match="layer sizes"):
            ModelConfig(vocab_size=4, hparam_dim=0, **{field: 0})

    def test_param_count_pure_function_of_config(self):
        a = build_model(TINY).store.params
        b = build_model(ModelConfig(**{**TINY.__dict__, "seed": 99})).store.params
        assert sum(v.size for v in a.values()) == sum(v.size for v in b.values())

    def test_fan_in_bounds(self):
        m = build_model(TINY)
        w = m.store.params["conv0.weight"]
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(TINY.vocab_size))


class TestForward:
    def test_batch_independence_bitwise(self, tiny_encs):
        m = build_model(TINY)
        batch, _ = forward(m, nn.pack(tiny_encs[:20]), "rank")
        solo, _ = forward(m, nn.pack([tiny_encs[13]]), "rank")
        assert solo[0] == batch[13]

    def test_batch_independence_bitwise_two_cells(self, two_cell_encs):
        m = build_model(TINY_TWO_CELLS)
        batch, _ = forward(m, nn.pack(two_cell_encs[:20]), "rank")
        solo = np.array([forward(m, nn.pack([enc]), "rank")[0][0] for enc in two_cell_encs[:20]])
        np.testing.assert_array_equal(solo.view(np.int64), batch.view(np.int64))

    def test_eval_deterministic(self, tiny_encs):
        m = build_model(TINY)
        s1, _ = forward(m, nn.pack(tiny_encs[:8]), "rank")
        s2, _ = forward(m, nn.pack(tiny_encs[:8]), "rank")
        np.testing.assert_array_equal(s1, s2)

    def test_zero_weight_model_scores_output_bias(self, tiny_encs):
        m = build_model(TINY)
        for name in m.store.names():
            m.store.params[name][...] = 0.0
        m.store.params["head_rank.b2"][...] = 1.75
        s, _ = forward(m, nn.pack(tiny_encs[:6]), "rank")
        np.testing.assert_allclose(s, 1.75)

    def test_isomorphic_node_orders_score_equal(self):
        vocab = ("input", "output", "add", "conv1x1", "conv3x3")
        a = space.Architecture(
            id="fwd",
            cells=(space.ArchGraph(
                nodes=("input", "conv3x3", "conv1x1", "add", "output"),
                edges=((0, 1), (0, 2), (1, 3), (2, 3), (3, 4)),
            ),),
            hparams=(0.3, -0.2),
        )
        perm = [4, 2, 0, 1, 3]
        nodes_p = [None] * 5
        for old, new in enumerate(perm):
            nodes_p[new] = a.cells[0].nodes[old]
        edges_p = tuple(sorted((perm[s], perm[d]) for s, d in a.cells[0].edges))
        b = space.Architecture(
            id="perm", cells=(space.ArchGraph(nodes=tuple(nodes_p), edges=edges_p),), hparams=a.hparams
        )
        cfg = ModelConfig(vocab_size=5, hparam_dim=2, conv_channels=(6, 6), sortpool_nodes=4,
                          conv1d_channels=3, hparam_proj=3, head_hidden=5, seed=3)
        m = build_model(cfg)
        sa, _ = forward(m, nn.pack([space.encode_architecture(a, vocab)]), "rank")
        sb, _ = forward(m, nn.pack([space.encode_architecture(b, vocab)]), "rank")
        assert sa[0] == pytest.approx(sb[0], abs=1e-12)

    def test_propagation_rows_are_convex_combinations(self, tiny_encs):
        # row weights of the normalized propagation matrix sum to 1
        prop = nn.pack(tiny_encs[:1]).take([0]).prop[0][0]
        np.testing.assert_allclose(prop.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(prop >= 0)

    def test_dimension_mismatch_rejected(self, tiny_encs, wide_encs):
        m = build_model(TINY)
        with pytest.raises(ValueError, match="vocab"):
            forward(m, nn.pack([wide_encs[0]]), "rank")

    def test_unknown_head(self, tiny_encs):
        m = build_model(TINY)
        with pytest.raises(ValueError, match="head"):
            forward(m, nn.pack(tiny_encs[:2]), "accuracy")

    def test_train_mode_needs_seed(self, tiny_encs):
        m = build_model(TINY)
        with pytest.raises(ValueError, match="seed"):
            forward(m, nn.pack(tiny_encs[:2]), "rank", train_mode=True)


class TestPacked:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from([1, 2]), st.lists(st.integers(0, 29), min_size=1, max_size=12))
    def test_packed_sequence_and_single_items_bitwise(self, mixed_encs, n_cells, picks):
        # eval scores a batch this small as one padded chunk, train as one padded
        # dense batch (the same numbers without dropout): all must agree with
        # items scored alone
        cfg, encs = mixed_encs[n_cells]
        model = build_model(ModelConfig(**{**cfg.__dict__, "dropout": 0.0}))
        model.store.params["nodeconv.bias"][0] = 0.3  # empty pooled slots pass the ReLU
        batch = [encs[i] for i in picks]
        packed = nn.pack(encs).select(picks)
        runs = [forward_heads(model, nn.pack(batch), HEADS)[0], forward_heads(model, packed, HEADS)[0],
                forward_heads(model, packed, HEADS, train_mode=True)[0]]
        for head in HEADS:
            alone = np.array([forward(model, nn.pack([enc]), head)[0][0] for enc in batch])
            for scores in runs:
                np.testing.assert_array_equal(scores[head].view(np.int64), alone.view(np.int64))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from([1, 2]), st.sampled_from([1, 6, 25]), st.lists(st.integers(0, 29), min_size=1, max_size=12))
    def test_eval_chunk_boundaries_are_invisible(self, mixed_encs, n_cells, budget, picks):
        # under a small row budget a batch runs whole if its padded rows fit,
        # else each node-count group runs in consecutive unpadded chunks
        cfg, encs = mixed_encs[n_cells]
        model = build_model(ModelConfig(**{**cfg.__dict__, "dropout": 0.0}))
        model.store.params["nodeconv.bias"][0] = 0.3
        packed = nn.pack(encs).select(picks)
        alone = {head: np.array([forward(model, nn.pack([encs[i]]), head)[0][0] for i in picks]) for head in HEADS}
        chunks, dense = [], nn._dense_forward
        def counted(model, chunk, *args):
            chunks.append(chunk.nodes)
            return dense(model, chunk, *args)
        with mock.patch.object(nn, "EVAL_ROWS", budget), mock.patch.object(nn, "_dense_forward", counted):
            scores, _ = forward_heads(model, packed, HEADS)
        for head in HEADS:
            np.testing.assert_array_equal(scores[head].view(np.int64), alone[head].view(np.int64))
        if len(picks) * packed.nodes.max(axis=0).sum() <= budget:
            assert len(chunks) == 1
            return
        keys, counts = np.unique(packed.nodes, axis=0, return_counts=True)
        assert len(chunks) == sum(-(-c // max(1, budget // k.sum())) for k, c in zip(keys, counts))
        for nodes in chunks:
            assert (nodes == nodes[0]).all()
            assert len(nodes) == 1 or nodes.sum() <= budget

    @pytest.mark.parametrize("budget", [5, 10, 35])
    def test_eval_group_runs_in_ceil_rows_over_budget_chunks(self, mixed_encs, budget):
        cfg, encs = mixed_encs[1]
        model = build_model(cfg)
        group = [enc for enc in encs if len(enc.ops[0]) == 5][:7]
        assert len(group) == 7
        calls, dense = [], nn._dense_forward
        def counted(*args):
            calls.append(1)
            return dense(*args)
        with mock.patch.object(nn, "EVAL_ROWS", budget), mock.patch.object(nn, "_dense_forward", counted):
            forward(model, nn.pack(group))
        assert len(calls) == math.ceil(7 * 5 / budget)

    @pytest.mark.parametrize("n_cells", [1, 2])
    def test_train_scores_are_eval_scores_bitwise(self, mixed_encs, n_cells):
        # without dropout, train mode's one padded batch scores what eval's
        # unpadded node-count chunks score: one pooling path serves both
        cfg, encs = mixed_encs[n_cells]
        model = build_model(ModelConfig(**{**cfg.__dict__, "dropout": 0.0}))
        model.store.params["nodeconv.bias"][0] = 0.3
        packed = nn.pack(encs).select(np.tile(np.arange(len(encs)), 10))
        assert len(packed) * packed.nodes.max(axis=0).sum() > nn.EVAL_ROWS
        assert len(np.unique(packed.nodes, axis=0)) > 2
        evaluated, _ = forward_heads(model, packed, HEADS)
        trained, _ = forward_heads(model, packed, HEADS, train_mode=True)
        for head in HEADS:
            np.testing.assert_array_equal(trained[head].view(np.int64), evaluated[head].view(np.int64))

    def test_eval_memory_flat_in_pool_size(self):
        # the bench model over pools of 5-11 nodes: one eval forward's peak
        # allocation stays within the chunk budget however many items it scores
        synth = space.SynthConfig(size=1000, node_range=(5, 11), vocab_size=9, seed=4)
        sp = space.generate_synthetic_space(synth)
        packed = nn.pack([space.encode_architecture(r.arch, sp.meta.vocab) for r in sp.records.values()])
        model = build_model(ModelConfig(vocab_size=9, hparam_dim=2, conv_channels=(64,) * 4, sortpool_nodes=12,
                                        conv1d_channels=16, hparam_proj=8, head_hidden=64))
        forward(model, packed.select(np.arange(100)))
        peaks = []
        for pool in (packed, packed.select(np.tile(np.arange(1000), 3))):
            tracemalloc.start()
            forward(model, pool)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1_000_000, peaks

    @pytest.mark.parametrize("n_cells", [1, 2])
    def test_backward_is_the_sum_of_node_count_groups(self, mixed_encs, n_cells):
        # without dropout, one padded batch's gradients are the sum of its
        # node-count sub-batches' (which have no padding), up to rounding; the
        # same batch run twice gives the same bits
        cfg, encs = mixed_encs[n_cells]
        model = build_model(ModelConfig(**{**cfg.__dict__, "dropout": 0.0}))
        batch = encs[:20]
        rng = np.random.default_rng(3)
        ups = {head: rng.standard_normal(len(batch)) for head in HEADS}

        def grads(idx):
            model.store.release()
            _, ctx = forward_heads(model, nn.pack([batch[i] for i in idx]), HEADS, train_mode=True)
            backward(model, {head: u[idx] for head, u in ups.items()}, ctx)
            return {k: v.copy() for k, v in model.store.grads.items()}

        dense = grads(range(len(batch)))
        for name, grad in grads(range(len(batch))).items():
            np.testing.assert_array_equal(grad.view(np.int64), dense[name].view(np.int64), err_msg=name)
        keys = [tuple(map(len, enc.ops)) for enc in batch]
        assert len(set(keys)) > 2
        parts = [grads([i for i, k in enumerate(keys) if k == key]) for key in sorted(set(keys))]
        for name, grad in dense.items():
            np.testing.assert_allclose(grad, sum(part[name] for part in parts), rtol=1e-12, err_msg=name)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        st.tuples(st.integers(2, 5), st.integers(3, 6), st.integers(1, 3)).flatmap(
            lambda shape: st.tuples(
                arrays(np.float64, shape, elements=st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5])),
                arrays(np.intp, shape[0], elements=st.integers(1, shape[1])),
            )
        )
    )
    def test_padding_sorts_after_every_real_row(self, case):
        # the encoder's padding rows are +-0.0, which would sort ahead of a
        # real row whose last channel is negative if padding were not keyed last;
        # a selected padding row projects as the empty slot of an unpadded item
        z, nodes = case
        z[1, : nodes[1], -1] = -1.0
        z[np.arange(z.shape[1]) >= nodes[:, None]] = -0.0
        weight, bias = _pool_weights(z.shape[2])
        for k in (z.shape[1] - 1, z.shape[1] + 1):
            selected = nn._sort_order(z, k, nodes)
            projected = nn._project_pooled(z, selected, weight, bias, k)
            for b, n in enumerate(nodes):
                alone_selected = nn._sort_order(z[b : b + 1, :n], k, np.array([n]))
                alone = nn._project_pooled(z[b : b + 1, :n], alone_selected, weight, bias, k)
                np.testing.assert_array_equal(selected[b, : min(n, k)], alone_selected[0])
                np.testing.assert_array_equal(projected[b].view(np.int64), alone[0].view(np.int64))

    def test_take_of_a_taken_batch_raises(self, mixed_encs):
        # a taken batch is already row-normalized, so taking from it again
        # would normalize twice
        _, encs = mixed_encs[1]
        part = nn.pack(encs).take([0, 1, 2])
        with pytest.raises(ValueError, match="taken batch"):
            part.take([0])
        with pytest.raises(ValueError, match="taken batch"):
            forward(build_model(TINY), part)

    def test_take_trims_padding(self, mixed_encs):
        _, encs = mixed_encs[1]
        packed = nn.pack(encs)
        small = [i for i, enc in enumerate(encs) if len(enc.ops[0]) <= 4]
        part = packed.take(small)
        assert len(part) == len(small)
        assert part.prop[0].shape[1:] == (4, 4)

    def test_rejects_mixed_encodings(self, tiny_encs, wide_encs, two_cell_encs):
        with pytest.raises(ValueError, match="vocab"):
            nn.pack([tiny_encs[0], wide_encs[0]])
        with pytest.raises(ValueError, match="cell count"):
            nn.pack([tiny_encs[0], two_cell_encs[0]])
        with pytest.raises(ValueError, match="empty"):
            nn.pack([])

    def test_rejects_out_of_range_ops_and_edges(self, tiny_encs):
        for ops, edges, what in [
            ((0, 4, 1), ((0, 1), (1, 2)), "op index"), ((0, -1, 1), ((0, 1), (1, 2)), "op index"),
            ((0, 2, 1), ((0, 1), (1, 3)), "edge endpoint"), ((0, 2, 1), ((-1, 1), (1, 2)), "edge endpoint"),
        ]:
            bad = space.EncodedArch(ops=(ops,), edges=(edges,), hparams=(0.0, 0.0), vocab_size=4)
            with pytest.raises(ValueError, match=f"{what} out of range"):
                nn.pack([tiny_encs[0], bad])

    @pytest.mark.parametrize("n_cells", [1, 2])
    def test_take_gives_convex_rows_and_plus_zero_padding(self, mixed_encs, n_cells):
        # the pack keeps uint8 adjacency; take row-normalizes what it copies, and
        # a padding row (no self-loop) must come out +0.0, not 0/0
        _, encs = mixed_encs[n_cells]
        packed = nn.pack(encs)
        assert all(q.dtype == np.uint8 for q in packed.prop)
        picks = np.arange(len(encs))[::-1]
        for part in (packed.take(picks), packed.select(picks).take(np.arange(len(picks)))):
            for c, prop in enumerate(part.prop):
                assert prop.dtype == np.float64
                real = np.arange(prop.shape[1]) < part.nodes[:, c, None]
                assert not real.all()
                np.testing.assert_allclose(prop[real].sum(axis=1), 1.0, atol=1e-12)
                assert np.all(prop[real] >= 0.0)
                np.testing.assert_array_equal(prop[~real].view(np.int64), 0)


class TestRowSelection:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from([1, 2]), st.lists(st.integers(0, 29), min_size=1, max_size=20), st.data())
    def test_take_of_a_selection_is_take_of_the_composed_positions(self, mixed_encs, n_cells, picks, data):
        _, encs = mixed_encs[n_cells]
        packed = nn.pack(encs)
        part = data.draw(st.lists(st.integers(0, len(picks) - 1), min_size=1, max_size=12))
        chosen = packed.select(picks)
        assert len(chosen) == len(picks)
        assert all(mine is whole for mine, whole in zip(chosen.ops + chosen.prop, packed.ops + packed.prop))
        for twice in (chosen.take(part), chosen.select(part).take(np.arange(len(part)))):
            once = packed.take(np.asarray(picks)[part])
            for a, b in zip((*twice.ops, *twice.prop, twice.nodes, twice.hparams),
                            (*once.ops, *once.prop, once.nodes, once.hparams)):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("budget", [6, 1024])
    def test_selection_scores_bitwise_those_of_a_packed_copy(self, mixed_encs, budget):
        cfg, encs = mixed_encs[2]
        model = build_model(cfg)
        picks = [29, 3, 3, 17, 0, 8, 21, 12, 5]
        with mock.patch.object(nn, "EVAL_ROWS", budget):
            selected, _ = forward_heads(model, nn.pack(encs).select(picks), HEADS)
            copied, _ = forward_heads(model, nn.pack([encs[i] for i in picks]), HEADS)
        for head in HEADS:
            np.testing.assert_array_equal(selected[head].view(np.int64), copied[head].view(np.int64))


class TestDropout:
    def test_reproducible_per_seed(self, tiny_encs):
        m = build_model(TINY)
        s1, _ = forward(m, nn.pack(tiny_encs[:6]), "rank", train_mode=True, dropout_seed=42)
        s2, _ = forward(m, nn.pack(tiny_encs[:6]), "rank", train_mode=True, dropout_seed=42)
        np.testing.assert_array_equal(s1, s2)
        # some seed must draw a different mask (a single tiny head can
        # coincide for one particular pair of seeds)
        others = [forward(m, nn.pack(tiny_encs[:6]), "rank", train_mode=True, dropout_seed=s)[0] for s in range(43, 53)]
        assert any(not np.array_equal(s1, s3) for s3 in others)

    def test_expectation_matches_eval(self, tiny_encs):
        # inverted dropout: mean over seeds of the train-mode score equals the
        # eval score within Monte-Carlo error (3 sigma at 10k samples)
        m = build_model(TINY)
        batch = nn.pack(tiny_encs[:2])
        eval_scores, _ = forward(m, batch, "rank")
        n = 10_000
        samples = np.empty((n, len(batch)))
        for s in range(n):
            samples[s], _ = forward(m, batch, "rank", train_mode=True, dropout_seed=s)
        mc_mean = samples.mean(axis=0)
        mc_sem = samples.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mc_mean - eval_scores) <= 3.0 * mc_sem + 1e-12)


def _pool_weights(c: int, out: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """A node-wise conv weight (c, out) whose every column picks one channel
    scaled by a power of two, and a bias of quarter steps: each projected
    value is one exact product plus the bias, whatever GEMM computes it."""
    rng = np.random.default_rng(c)
    weight = np.zeros((c, out))
    weight[rng.integers(0, c, size=out), np.arange(out)] = rng.choice([-2.0, -0.5, 0.5, 1.0], size=out)
    return weight, rng.integers(1, 5, size=out) / 4.0


def _reference_pool(z: np.ndarray, k: int, weight: np.ndarray, bias: np.ndarray):
    """Brute-force sort-pooling of one item's (n, c) rows: the selected
    order, the k pooled rows (+0.0 past the selection) and their projection."""
    n = len(z)
    order = sorted(range(n), key=lambda i: (tuple(-z[i, ::-1]), i))[:k]
    pooled = np.zeros((k, z.shape[1]))
    pooled[: len(order)] = z[order]
    return order, pooled, pooled @ weight + bias


class TestSortPool:
    def test_identity_when_sorted(self):
        z = np.array([[[0.1, 3.0], [0.2, 2.0], [0.3, 1.0]]])
        weight, bias = _pool_weights(2)
        sel = nn._sort_order(z, 3, np.array([3]))
        np.testing.assert_array_equal(sel, [[0, 1, 2]])
        np.testing.assert_array_equal(nn._project_pooled(z, sel, weight, bias, 3), z @ weight + bias)

    def test_zero_padding(self):
        # slots past an item's rows hold what a +0.0 row projects to: the bias
        z = np.array([[[1.0, 5.0], [2.0, 7.0]]])
        weight, bias = _pool_weights(2)
        sel = nn._sort_order(z, 4, np.array([2]))
        np.testing.assert_array_equal(sel, [[1, 0]])
        projected = nn._project_pooled(z, sel, weight, bias, 4)
        np.testing.assert_array_equal(projected[0, :2], z[0, [1, 0]] @ weight + bias)
        np.testing.assert_array_equal(projected[0, 2:], np.broadcast_to(np.zeros(2) @ weight + bias, (2, 3)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            c = int(rng.integers(1, 5))
            k = int(rng.integers(1, 10))
            z = np.round(rng.standard_normal((n, c)), 1)
            weight, bias = _pool_weights(c)
            order, _, ref = _reference_pool(z, k, weight, bias)
            sel = nn._sort_order(z[None], k, np.array([n]))
            np.testing.assert_array_equal(sel[0], order)
            np.testing.assert_array_equal(nn._project_pooled(z[None], sel, weight, bias, k)[0], ref)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        st.tuples(st.integers(3, 6), st.integers(2, 7), st.integers(2, 4)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]))
        )
    )
    def test_batched_matches_brute_force(self, z):
        # few distinct values make ties common; the first three items are
        # forced to be one of each kind: tied rows that are identical, tied
        # rows that differ in another channel, and no ties at all
        batch_n, n, c = z.shape
        z[0, 1] = z[0, 0]
        z[1, 1, -1] = z[1, 0, -1]
        z[1, 1, 0] = -1.0 if z[1, 0, 0] == 1.0 else 1.0
        z[2, :, -1] = np.arange(n) * 0.25
        weight, bias = _pool_weights(c)
        for k in (n - 1, n, n + 2):
            selected = nn._sort_order(z, k, np.full(batch_n, n))
            projected = nn._project_pooled(z, selected, weight, bias, k)
            assert selected.shape == (batch_n, min(n, k))
            assert projected.shape == (batch_n, k, 3)
            for b in range(batch_n):
                order, pooled, ref = _reference_pool(z[b], k, weight, bias)
                np.testing.assert_array_equal(selected[b], order)
                # bitwise, so -0.0 rows stay -0.0 and the pooled rows project as
                # the +0.0-padded rows of the reference do
                np.testing.assert_array_equal(z[b, selected[b]].view(np.int64), pooled[: len(order)].view(np.int64))
                np.testing.assert_array_equal(projected[b].view(np.int64), ref.view(np.int64))


def _fd_check(model_cfg, encs, batch_size, h=1e-5):
    """Max relative error of backward against central finite differences of
    J(theta) = sum over heads/items of u * score, with fixed dropout masks."""
    model = build_model(model_cfg)
    rng = np.random.default_rng(model_cfg.seed + 1000)
    batch = nn.pack(encs[:batch_size])
    ups = {head: rng.standard_normal(len(batch)) for head in HEADS}

    def objective():
        scores, _ = forward_heads(model, batch, HEADS, train_mode=True, dropout_seed=7)
        return sum(float(ups[head] @ scores[head]) for head in HEADS)

    scores, ctx = forward_heads(model, batch, HEADS, train_mode=True, dropout_seed=7)
    backward(model, ups, ctx)
    worst = 0.0
    for name in model.store.names():
        p = model.store.params[name]
        grad = model.store.grads[name]
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = p[idx]
            p[idx] = keep + h
            up = objective()
            p[idx] = keep - h
            down = objective()
            p[idx] = keep
            fd = (up - down) / (2 * h)
            rel = abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


class TestBackward:
    def test_finite_differences(self, tiny_encs):
        # random tiny model, under 200 parameters, checked through every layer
        assert sum(v.size for v in build_model(TINY).store.params.values()) <= 200
        assert _fd_check(TINY, tiny_encs, batch_size=3) < 1e-4

    def test_finite_differences_two_cells(self, two_cell_encs):
        assert _fd_check(TINY_TWO_CELLS, two_cell_encs, batch_size=3) < 1e-4

    def test_zero_upstream_zero_grads(self, tiny_encs):
        m = build_model(TINY)
        _, ctx = forward(m, nn.pack(tiny_encs[:4]), "rank", train_mode=True, dropout_seed=1)
        backward(m, {"rank": np.zeros(4)}, ctx)
        for name in m.store.names():
            assert np.all(m.store.grads[name] == 0.0)

    def test_linearity_across_items(self, tiny_encs):
        # without dropout, a 2-batch's gradients under upstream (1, 0) are those
        # of its first item alone, and under (u0, u1) the sum of two single-item
        # calls; the items differ in node count, so one of them is padded
        m = build_model(ModelConfig(**{**TINY.__dict__, "dropout": 0.0}))
        pair = next([a, b] for a in tiny_encs for b in tiny_encs if len(a.ops[0]) < len(b.ops[0]))

        def grads(encs, ups):
            m.store.release()
            _, ctx = forward(m, nn.pack(encs), "rank", train_mode=True)
            backward(m, {"rank": np.array(ups)}, ctx)
            return {k: v.copy() for k, v in m.store.grads.items()}

        first = grads(pair[:1], [1.0])
        for name, grad in grads(pair, [1.0, 0.0]).items():
            np.testing.assert_allclose(grad, first[name], rtol=1e-12, err_msg=name)
        singles = [grads([enc], [u]) for enc, u in zip(pair, (0.7, -1.3))]
        for name, grad in grads(pair, [0.7, -1.3]).items():
            np.testing.assert_allclose(grad, singles[0][name] + singles[1][name], rtol=1e-12, err_msg=name)

    def test_gradients_accumulate(self, tiny_encs):
        m = build_model(TINY)
        _, ctx = forward(m, nn.pack(tiny_encs[:2]), "rank", train_mode=True, dropout_seed=5)
        backward(m, {"rank": np.array([1.0, 2.0])}, ctx)
        once = {k: v.copy() for k, v in m.store.grads.items()}
        _, ctx = forward(m, nn.pack(tiny_encs[:2]), "rank", train_mode=True, dropout_seed=5)
        backward(m, {"rank": np.array([1.0, 2.0])}, ctx)
        for name in once:
            np.testing.assert_allclose(m.store.grads[name], 2.0 * once[name], rtol=1e-12)

    def test_upstream_for_a_head_not_run_rejected(self, tiny_encs):
        m = build_model(TINY)
        _, ctx = forward(m, nn.pack(tiny_encs[:2]), "rank", train_mode=True, dropout_seed=1)
        with pytest.raises(ValueError, match="'ws'"):
            backward(m, {"rank": np.ones(2), "ws": np.ones(2)}, ctx)
        assert not np.any(m.store.state())

    def test_eval_context_rejected(self, tiny_encs):
        m = build_model(TINY)
        _, ctx = forward(m, nn.pack(tiny_encs[:2]), "rank")
        with pytest.raises(ValueError, match="train mode"):
            backward(m, {"rank": np.zeros(2)}, ctx)

    def test_stale_context_rejected(self, tiny_encs):
        m = build_model(TINY)
        s, ctx = forward(m, nn.pack(tiny_encs[:2]), "rank", train_mode=True, dropout_seed=3)
        backward(m, {"rank": np.ones(2)}, ctx)
        adam_step(m.store, lr=0.01, names=m.store.names())
        with pytest.raises(ValueError, match="stale"):
            backward(m, {"rank": np.ones(2)}, ctx)


class TestAdam:
    def test_zero_grad_no_motion(self):
        store = ParamStore({"w": (2,)}, np.array([1.0, -2.0]))
        adam_step(store, lr=0.1, names=["w"], weight_decay=0.0)
        np.testing.assert_array_equal(store.params["w"], [1.0, -2.0])

    def test_first_step_hand_value(self):
        store = ParamStore({"w": (1,)}, np.array([1.0]))
        store.grads["w"][...] = 1.0
        adam_step(store, lr=0.1, names=["w"])
        assert store.params["w"][0] == pytest.approx(0.9, abs=1e-6)

    def test_deterministic(self):
        def run():
            store = ParamStore({"w": (4,)}, np.arange(4.0))
            for step in range(5):
                store.grads["w"][...] = np.sin(np.arange(4.0) + step)
                adam_step(store, lr=0.05, names=["w"], weight_decay=0.01)
            return store.params["w"].copy()

        np.testing.assert_array_equal(run(), run())

    def test_grads_cleared_and_step_counted(self):
        store = ParamStore({"w": (1,)}, np.array([1.0]))
        store.grads["w"][...] = 3.0
        adam_step(store, lr=0.1, names=["w"])
        assert store.step == 1
        assert np.all(store.grads["w"] == 0.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            adam_step(ParamStore({"w": (1,)}), lr=0.0, names=["w"])

    def test_name_filter_freezes_others(self):
        store = ParamStore({"a": (1,), "b": (1,)}, np.array([1.0, 1.0]))
        store.grads["a"][...] = 1.0
        store.grads["b"][...] = 1.0
        adam_step(store, lr=0.1, weight_decay=0.5, names=["a"])
        assert store.params["a"][0] != 1.0
        assert store.params["b"][0] == 1.0

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        st.sets(st.sampled_from(build_model(TINY).store.names()), min_size=1),
        st.sampled_from([0.0, 0.0005, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    @example({"conv0.weight", "head_flops.b2", "head_rank.w1", "nodeconv.bias"}, 0.0005, 1)  # four runs
    def test_runs_bitwise_the_per_tensor_update(self, names, weight_decay, seed):
        # the reference: the per-tensor update on separately allocated arrays
        store = build_model(TINY).store
        params = {k: v.copy() for k, v in store.params.items()}
        grads, moment1, moment2 = ({k: np.zeros_like(v) for k, v in params.items()} for _ in range(3))
        rng = np.random.default_rng(seed)
        for step in range(1, 4):
            for name, grad in store.grads.items():
                grad[...] = grads[name][...] = rng.standard_normal(grad.shape)
            adam_step(store, lr=0.01, names=sorted(names), weight_decay=weight_decay)
            bc1, bc2 = 1.0 - nn.ADAM_BETA1**step, 1.0 - nn.ADAM_BETA2**step
            for name in sorted(names):
                grad = grads[name] + weight_decay * params[name] if weight_decay else grads[name]
                m, v = moment1[name], moment2[name]
                m *= nn.ADAM_BETA1
                m += (1.0 - nn.ADAM_BETA1) * grad
                v *= nn.ADAM_BETA2
                v += (1.0 - nn.ADAM_BETA2) * grad * grad
                params[name] -= 0.01 * (m / bc1) / (np.sqrt(v / bc2) + nn.ADAM_EPS)
                grads[name][...] = 0.0
            for name, value in params.items():
                np.testing.assert_array_equal(store.params[name].view(np.int64), value.view(np.int64), err_msg=name)
            reference = [np.concatenate([part[k].ravel() for k in sorted(part)]) for part in (grads, moment1, moment2)]
            np.testing.assert_array_equal(store.state().view(np.int64), np.stack(reference).view(np.int64))

    def test_training_sets_are_few_runs(self):
        # pretrain skips the rank head (2 runs); finetune skips three auxiliary heads (3 runs)
        store = build_model(TINY).store
        pretrain_set = nn.trained_params(TINY, ("ws", "flops", "params"))
        finetune_set = nn.trained_params(TINY, ("rank",))
        assert [len(store.runs(s)) for s in (pretrain_set, finetune_set, store.names(), [])] == [2, 3, 1, 0]

    def test_trained_params_are_the_encoder_and_the_named_heads(self):
        names = build_model(TINY).store.names()
        assert sorted(nn.trained_params(TINY, ("rank",))) == [
            n for n in names if not n.startswith(("head_ws.", "head_flops.", "head_params."))]
        assert sorted(nn.trained_params(TINY, ("ws", "flops", "params"))) == [
            n for n in names if not n.startswith("head_rank.")]
        assert sorted(nn.trained_params(TINY, HEADS)) == names
        with pytest.raises(ValueError, match=r"unknown heads \['acc'\]"):
            nn.trained_params(TINY, ("rank", "acc"))


class TestFlatStore:
    def test_params_alias_the_flat_buffer(self):
        # the views, in sorted-name order, tile the buffer exactly
        store = build_model(TINY).store
        assert store.names() == sorted(store.names())
        store.flat[...] = np.arange(store.flat.size)
        np.testing.assert_array_equal(np.concatenate([v.ravel() for v in store.params.values()]),
                                      np.arange(store.flat.size))
        store.params["head_rank.b2"][...] = -1.0
        assert (store.flat == -1.0).sum() == 1

    def test_optimizer_state_only_while_training(self, tmp_path, tiny_encs):
        m = build_model(TINY)
        save_checkpoint(m, tmp_path / "model.json")
        for model in (m, load_checkpoint(tmp_path / "model.json"), clone_model(m)):
            assert model.store._state is None
        _, ctx = forward(m, nn.pack(tiny_encs[:3]), "rank", train_mode=True, dropout_seed=1)
        assert m.store._state is None  # a forward pass, train mode included, allocates nothing
        backward(m, {"rank": np.ones(3)}, ctx)
        assert m.store._state.shape == (3, m.store.flat.size)
        adam_step(m.store, lr=0.01, names=m.store.names())
        assert clone_model(m).store._state is None
        m.store.release()
        assert m.store._state is None and m.store.step == 0

    def test_loaded_model_retains_about_its_parameter_bytes(self, tmp_path):
        # the bench's model (68,716 parameters); no gradient or moment copies
        cfg = ModelConfig(vocab_size=9, hparam_dim=2, conv_channels=(64,) * 4, sortpool_nodes=12,
                          conv1d_channels=16, hparam_proj=8, head_hidden=64)
        path = tmp_path / "bench-shaped.json"
        save_checkpoint(build_model(cfg), path)
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_checkpoint(path)
        retained = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        assert loaded.store.flat.nbytes == 68_716 * 8
        assert retained <= 1.2 * loaded.store.flat.nbytes, retained


class TestCosine:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.005) == pytest.approx(0.005)
        assert cosine_lr(100, 100, 0.005) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(50, 100, 0.005) == pytest.approx(0.0025)

    def test_invalid(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 0.1)
        with pytest.raises(ValueError):
            cosine_lr(5, 4, 0.1)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path, tiny_encs):
        m = build_model(TINY, ("input", "output", "conv", "pool"))
        nn.set_hparam_stats(m, nn.pack(tiny_encs).hparams)
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert checkpoint_bytes(loaded) == path.read_bytes()
        assert loaded.config == m.config
        assert loaded.vocab == m.vocab == ("input", "output", "conv", "pool")
        assert loaded.hp_fitted == m.hp_fitted
        np.testing.assert_array_equal(loaded.hp_mean, m.hp_mean)
        for name in m.store.names():
            np.testing.assert_array_equal(loaded.store.params[name], m.store.params[name])
        s1, _ = forward(m, nn.pack(tiny_encs[:5]), "rank")
        s2, _ = forward(loaded, nn.pack(tiny_encs[:5]), "rank")
        np.testing.assert_array_equal(s1, s2)

    def test_serialization_deterministic(self):
        assert checkpoint_bytes(build_model(TINY)) == checkpoint_bytes(build_model(TINY))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["[1, 2]", '"ltrnas-checkpoint"', "null", "7"])
    def test_rejects_non_object_document(self, tmp_path, text):
        path = tmp_path / "bogus.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a ranking-model checkpoint"):
            load_checkpoint(path)

    def test_rejects_version_1(self, tmp_path):
        doc = json.loads(checkpoint_bytes(build_model(TINY)))
        del doc["vocab"]
        doc["version"] = 1
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="predates the recorded op vocabulary; re-run pretrain"):
            load_checkpoint(path)

    @pytest.mark.parametrize("vocab", [["input", "output", "conv"], ["input", "output", "conv", "conv"], [1, 2, 3, 4]])
    def test_rejects_bad_vocabulary(self, tmp_path, vocab):
        doc = json.loads(checkpoint_bytes(build_model(TINY)))
        doc["vocab"] = vocab
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="vocabulary"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="vocabulary"):
            build_model(TINY, vocab)

    @staticmethod
    def _corrupt(tmp_path, name, change):
        """Path of a TINY checkpoint whose array `name` went through `change`."""
        doc = json.loads(checkpoint_bytes(build_model(TINY)))
        holder = doc["params"] if name in doc["params"] else doc
        holder[name] = nn._encode_array(change(nn._decode_array(holder[name])))
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("name", ["conv0.weight", "hp_mean"])
    def test_rejects_misshaped_array(self, tmp_path, name):
        # an extra vocabulary row would let the layer-0 row gather score silently
        path = self._corrupt(tmp_path, name, lambda a: np.concatenate([a, a[:1]]))
        with pytest.raises(ValueError, match=f"{name} has shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["head_rank.w1", "hp_std"])
    def test_rejects_non_finite_values(self, tmp_path, name):
        def poison(a):
            a.flat[0] = np.nan
            return a

        with pytest.raises(ValueError, match=f"{name} has non-finite"):
            load_checkpoint(self._corrupt(tmp_path, name, poison))

    def test_clone_is_independent(self, tiny_encs):
        m = build_model(TINY)
        c = clone_model(m)
        c.store.params["head_rank.b2"][...] = 9.0
        assert m.store.params["head_rank.b2"][0] != 9.0
