"""Training-procedure tests: losses, lambda coefficients, both trainers."""

import dataclasses
import inspect
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrnas import ltr, metrics, nn, search, space
from ltrnas.ltr import (
    Standardizer,
    TrainConfig,
    finetune,
    lambdarank_lambdas,
    multitask_mse,
    pretrain,
    ranknet_lambdas,
    weak_view,
)

MODEL_CFG = nn.ModelConfig(
    vocab_size=7,
    hparam_dim=2,
    conv_channels=(24, 24),
    sortpool_nodes=8,
    conv1d_channels=8,
    hparam_proj=6,
    head_hidden=24,
    dropout=0.1,
    seed=5,
)


@pytest.fixture(scope="module")
def weak_space():
    cfg = space.SynthConfig(size=300, seed=33)
    return space.calibrate_weak_labels(space.generate_synthetic_space(cfg), 0.9, seed=2)


def labeled(records, vocab):
    """`finetune`'s pack, ids and revealed accuracies for `records`."""
    packed = nn.pack([space.encode_architecture(r.arch, vocab) for r in records])
    return packed, [r.arch.id for r in records], [r.val_acc for r in records]


def brute_force_lambdarank(scores, rels, sigma, ids):
    """Oracle: loop every ordered pair, recompute NDCG per swap from scratch."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))
    pos = {item: p for p, item in enumerate(order)}
    ranked_rels = np.asarray([rels[i] for i in order], dtype=np.float64)
    idcg = metrics.dcg(np.sort(ranked_rels)[::-1])
    base = metrics.dcg(ranked_rels) / idcg if idcg > 0 else 1.0
    coeff = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if rels[i] > rels[j]:
                lam = -sigma / (1.0 + np.exp(sigma * (scores[i] - scores[j])))
                swapped = ranked_rels.copy()
                swapped[pos[i]], swapped[pos[j]] = swapped[pos[j]], swapped[pos[i]]
                after = metrics.dcg(swapped) / idcg if idcg > 0 else 1.0
                delta = abs(after - base)
                coeff[i] += lam * delta
                coeff[j] -= lam * delta
    return coeff


class TestStandardizer:
    def test_hand_values(self):
        scale = Standardizer.fit([1.0, 2.0, 3.0], "ws")
        assert scale.mean == pytest.approx(2.0)
        assert scale.std == pytest.approx(0.8165, abs=1e-4)
        np.testing.assert_allclose(scale([1.0, 2.0, 3.0]), [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_normalized_moments(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(10, 90, size=200)
        z = Standardizer.fit(vals, "x")(vals)
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-9

    def test_already_normalized_is_identity(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(500)
        z = (z - z.mean()) / z.std()
        np.testing.assert_allclose(Standardizer.fit(z, "x")(z), z, atol=1e-9)

    def test_constant_channel_rejected(self):
        with pytest.raises(ValueError, match="^validation accuracy needs >= 2 distinct values$"):
            Standardizer.fit([3.0, 3.0, 3.0], "validation accuracy")


class TestMultitaskMse:
    def test_perfect_predictions(self):
        preds = {c: np.array([1.0, 2.0]) for c in ltr.CHANNELS}
        loss, grads = multitask_mse(preds, preds)
        assert loss == 0.0
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_hand_value(self):
        preds = {"ws": np.array([1.0]), "flops": np.array([2.0]), "params": np.array([3.0])}
        labels = {"ws": np.array([0.0]), "flops": np.array([0.0]), "params": np.array([0.0])}
        loss, _ = multitask_mse(preds, labels)
        assert loss == pytest.approx(14.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        preds = {c: rng.standard_normal(6) for c in ltr.CHANNELS}
        labels = {c: rng.standard_normal(6) for c in ltr.CHANNELS}
        loss, grads = multitask_mse(preds, labels)
        h = 1e-6
        for c in ltr.CHANNELS:
            for i in range(6):
                up = {k: v.copy() for k, v in preds.items()}
                dn = {k: v.copy() for k, v in preds.items()}
                up[c][i] += h
                dn[c][i] -= h
                fd = (multitask_mse(up, labels)[0] - multitask_mse(dn, labels)[0]) / (2 * h)
                assert grads[c][i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_shape_mismatch(self):
        preds = {"ws": np.zeros(2), "flops": np.zeros(2), "params": np.zeros(2)}
        labels = {"ws": np.zeros(3), "flops": np.zeros(2), "params": np.zeros(2)}
        with pytest.raises(ValueError):
            multitask_mse(preds, labels)


def loop_pair_sums(s, r, sigma, delta=None):
    """Reference coefficients: the pair matrix filled one entry at a time in
    Python floats with libm's exp (0.0 where it overflows), then the row sums
    minus the column sums."""
    n = len(s)
    pair = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if r[i] > r[j]:
                t = -sigma * (float(s[i]) - float(s[j]))
                try:
                    value = -sigma * (1.0 / (1.0 + math.exp(-t)))
                except OverflowError:
                    value = -sigma * 0.0
                pair[i, j] = value if delta is None else value * delta[i, j]
    return pair.sum(axis=1) - pair.sum(axis=0)


def random_batches(seed, count=150):
    """Score lists wide enough that some exp(-t) overflow, with ±0.0 scores
    and tied relevances."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(2, 41))
        s = rng.standard_normal(n) * (1.0, 30.0, 600.0)[trial % 3]
        s[rng.random(n) < 0.1] = (0.0, -0.0)[trial % 2]
        r = rng.integers(0, 6, size=n) * 1.5
        ids = [f"x{k:02d}" for k in rng.permutation(n)]
        yield s, r, ids, (0.5, 1.0, 2.0)[trial % 3]


class TestExpit:
    # scipy.special.expit 1.17.1 at the same points, which this function replaced
    @pytest.mark.parametrize("t, want", [
        (-709.5, 7.38014831401258e-309),  # subnormal: exp(709.5) is just below overflow
        (-710.0, 0.0),  # exp(710) overflows
        (-745.0, 0.0),
        (math.inf, 1.0),
        (-math.inf, 0.0),
        (0.0, 0.5),
        (-0.0, 0.5),
    ])
    def test_pinned_scipy_values(self, t, want):
        got = ltr._expit(np.array([t, t]))
        assert got.tobytes() == np.array([want, want]).tobytes()


class TestLambdasBitwise:
    def test_ranknet_matches_loop(self):
        for s, r, _, sigma in random_batches(21):
            assert ranknet_lambdas(s, r, sigma).tobytes() == loop_pair_sums(s, r, sigma).tobytes()

    def test_lambdarank_matches_loop(self):
        for s, r, ids, sigma in random_batches(22):
            order = sorted(range(len(s)), key=lambda i: (-s[i], ids[i]))
            pos = np.empty(len(s), dtype=int)
            pos[order] = np.arange(len(s))
            delta = metrics.pairwise_delta_ndcg(r[order])[pos[:, None], pos[None, :]]
            got = lambdarank_lambdas(s, r, sigma, ids=ids)
            assert got.tobytes() == loop_pair_sums(s, r, sigma, delta).tobytes()


class TestRanknetLambdas:
    def test_equal_relevances_all_zero(self):
        coeffs = ranknet_lambdas([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(coeffs, 0.0)

    def test_tied_scores_pair_value(self):
        # single pair with s_i = s_j: lambda_ij = -0.5, so coeff = (-0.5, +0.5)
        coeffs = ranknet_lambdas([1.0, 1.0], [2.0, 1.0], sigma=1.0)
        np.testing.assert_allclose(coeffs, [-0.5, 0.5])

    def test_well_ordered_pair_vanishes(self):
        coeffs = ranknet_lambdas([50.0, 0.0], [2.0, 1.0], sigma=1.0)
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-20)

    def test_score_shift_invariance(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal(12)
        r = rng.integers(0, 4, size=12).astype(float)
        np.testing.assert_allclose(
            ranknet_lambdas(s, r, sigma=1.5), ranknet_lambdas(s + 100.0, r, sigma=1.5), atol=1e-12
        )


class TestLambdarankLambdas:
    def test_factorization_identity(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal(12)
        r = rng.integers(0, 4, size=12).astype(float)
        ids = [f"i{k:02d}" for k in range(12)]
        order = sorted(range(12), key=lambda i: (-s[i], ids[i]))
        pos = np.empty(12, dtype=int)
        pos[order] = np.arange(12)
        ranked_rels = r[order]
        lam_full = lambdarank_lambdas(s, r, sigma=1.0, ids=ids)
        # rebuild from the definition: ranknet pair values times delta_ndcg
        coeff = np.zeros(12)
        for i in range(12):
            for j in range(12):
                if r[i] > r[j]:
                    pair = -1.0 / (1.0 + np.exp(s[i] - s[j]))
                    pair *= metrics.delta_ndcg(ranked_rels, int(pos[i]), int(pos[j]))
                    coeff[i] += pair
                    coeff[j] -= pair
        np.testing.assert_allclose(lam_full, coeff, atol=1e-12)

    def test_equal_relevance_contributes_nothing(self):
        coeffs = lambdarank_lambdas([3.0, 1.0], [2.0, 2.0], ids=["x0", "x1"])
        np.testing.assert_array_equal(coeffs, 0.0)

    def test_matches_brute_force_recompute(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            n = 5
            s = rng.standard_normal(n)
            r = rng.integers(0, 4, size=n).astype(float)
            ids = [f"x{k}" for k in range(n)]
            got = lambdarank_lambdas(s, r, sigma=1.0, ids=ids)
            want = brute_force_lambdarank(s, r, 1.0, ids)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_score_shift_invariance(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal(9)
        r = rng.integers(0, 4, size=9).astype(float)
        ids = [f"x{k}" for k in range(9)]
        np.testing.assert_allclose(
            lambdarank_lambdas(s, r, ids=ids), lambdarank_lambdas(s + 42.0, r, ids=ids), atol=1e-12
        )


class TestViews:
    def test_weak_view_hygiene(self, weak_space):
        # pretraining sees a pack plus weak labels and costs, never an accuracy
        ids = weak_space.ids[:3]
        packed, weak = weak_view(weak_space, ids)
        assert {f.name for f in dataclasses.fields(nn.Packed)} == {"ops", "prop", "nodes", "hparams", "vocab_size", "rows"}
        assert set(weak) == set(ltr.CHANNELS)
        recs = [weak_space.records[r] for r in ids]
        np.testing.assert_array_equal(weak["ws"], [r.ws_acc for r in recs])
        np.testing.assert_array_equal(weak["flops"], [r.flops for r in recs])
        np.testing.assert_array_equal(weak["params"], [r.params for r in recs])
        assert len(packed) == 3

    def test_labeled_view_hygiene(self):
        # finetuning receives the labeled architectures, their ids and revealed
        # validation accuracy, and nothing else
        assert list(inspect.signature(finetune).parameters) == ["model", "packed", "ids", "accs", "cfg", "loss"]

    def test_weak_view_requires_labels(self):
        sp = space.generate_synthetic_space(space.SynthConfig(size=10, seed=1))
        with pytest.raises(ValueError, match="weak label"):
            weak_view(sp, sp.ids)


class TestPretrain:
    def test_deterministic_checkpoints(self, weak_space):
        packed, weak = weak_view(weak_space, weak_space.ids[:60])
        cfg = TrainConfig(epochs=2, lr0=0.001, weight_decay=1e-5, seed=11)
        m1 = pretrain(nn.build_model(MODEL_CFG), packed, weak, cfg).model
        m2 = pretrain(nn.build_model(MODEL_CFG), packed, weak, cfg).model
        assert nn.checkpoint_bytes(m1) == nn.checkpoint_bytes(m2)

    def test_loss_decreases_on_learnable_space(self, weak_space):
        packed, weak = weak_view(weak_space, weak_space.ids[:10])
        model = nn.build_model(MODEL_CFG)
        cfg = TrainConfig(epochs=1, lr0=0.001, weight_decay=1e-5, seed=11)
        labels = {ch: Standardizer.fit(v, ch)(v) for ch, v in weak.items()}

        def eval_loss(m):
            preds, _ = nn.forward_heads(m, packed, ltr.CHANNELS)
            return multitask_mse(preds, labels)[0]

        before = eval_loss(model)
        after = eval_loss(pretrain(model, packed, weak, cfg).model)
        assert after < before

    def test_input_model_untouched(self, weak_space):
        model = nn.build_model(MODEL_CFG)
        frozen = nn.checkpoint_bytes(model)
        pretrain(model, *weak_view(weak_space, weak_space.ids[:20]),
                 TrainConfig(epochs=1, lr0=0.001, weight_decay=1e-5, seed=1))
        assert nn.checkpoint_bytes(model) == frozen

    def test_returned_model_holds_no_optimizer_state(self, weak_space):
        packed, weak = weak_view(weak_space, weak_space.ids[:20])
        model = pretrain(nn.build_model(MODEL_CFG), packed, weak, TrainConfig(epochs=1, seed=1)).model
        assert model.store._state is None and model.store.step == 0

    def test_high_fidelity_labels_reach_high_r2(self):
        # tau = 1.0 weak labels: the ws head should explain most of the variance
        cfg = space.SynthConfig(size=1200, node_range=(5, 7), vocab_size=6, seed=21)
        sp = space.calibrate_weak_labels(space.generate_synthetic_space(cfg), 1.0, seed=2)
        packed, weak = weak_view(sp, sp.ids)
        mcfg = nn.ModelConfig(
            vocab_size=len(sp.meta.vocab), hparam_dim=sp.meta.hparam_dim,
            conv_channels=(48,) * 4, sortpool_nodes=8, conv1d_channels=12,
            hparam_proj=8, head_hidden=48, dropout=0.1, seed=5,
        )
        result = pretrain(nn.build_model(mcfg), packed, weak,
                          TrainConfig(epochs=50, lr0=0.005, weight_decay=1e-5, seed=9))
        assert result.r2["ws"] >= 0.9
        assert result.r2["flops"] > 0.98
        assert result.r2["params"] > 0.98


class TestFinetune:
    def test_two_records_learn_the_order(self, weak_space):
        ids = list(weak_space.ids)
        recs = sorted(weak_space.records.values(), key=lambda r: r.val_acc)
        pair = [recs[10], recs[-10]]
        packed, pair_ids, accs = labeled(pair, weak_space.meta.vocab)
        result = finetune(nn.build_model(MODEL_CFG), packed, pair_ids, accs, TrainConfig(epochs=60, seed=3))
        scores, _ = nn.forward(result.model, packed, "rank")
        assert scores[1] > scores[0]

    def test_needs_two_records(self, weak_space):
        examples = labeled([next(iter(weak_space.records.values()))], weak_space.meta.vocab)
        with pytest.raises(ValueError):
            finetune(nn.build_model(MODEL_CFG), *examples, TrainConfig(epochs=1, seed=0))

    def test_lengths_must_match(self, weak_space):
        packed, ids, accs = labeled([weak_space.records[r] for r in weak_space.ids[:4]], weak_space.meta.vocab)
        for args in [(packed, ids[:3], accs), (packed, ids, accs[:3]), (packed.select([0, 1, 2]), ids, accs)]:
            with pytest.raises(ValueError, match="architectures"):
                finetune(nn.build_model(MODEL_CFG), *args, TrainConfig(epochs=1, seed=0))

    def test_row_selection_trains_like_a_fresh_pack(self, weak_space):
        # a search finetunes on rows of the space-wide pack; those must train
        # bit for bit like a pack of just the labeled encodings
        view = search.SearchView(weak_space)
        picked = list(weak_space.ids[5:45:2])
        accs = [view.reveal_val(r) for r in picked]
        fresh = nn.pack([space.encode_architecture(weak_space.records[r].arch, weak_space.meta.vocab) for r in picked])
        cfg = TrainConfig(epochs=4, early_stop_patience=None, seed=6)
        for loss in ("lambdarank", "mse"):
            selected = finetune(nn.build_model(MODEL_CFG), view.pool(picked).batch, picked, accs, cfg, loss).model
            packed = finetune(nn.build_model(MODEL_CFG), fresh, picked, accs, cfg, loss).model
            assert nn.checkpoint_bytes(selected) == nn.checkpoint_bytes(packed)

    def test_improves_over_untrained_median(self, weak_space):
        # median over 10 seeds of held-out NDCG: finetuned beats untrained
        rng = np.random.default_rng(12)
        ids = list(weak_space.ids)
        eval_ids = ids[200:]
        eval_encs = nn.pack([space.encode_architecture(weak_space.records[r].arch, weak_space.meta.vocab)
                             for r in eval_ids])
        eval_vals = np.array([weak_space.records[r].val_acc for r in eval_ids])

        def probe_ndcg(model, rmap):
            scores, _ = nn.forward(model, eval_encs, "rank")
            rels = metrics.map_relevance(rmap, eval_vals)
            return metrics.ndcg(scores, rels, eval_ids)

        trained, untrained = [], []
        for seed in range(10):
            pick = rng.choice(200, size=100, replace=False)
            examples = labeled([weak_space.records[ids[i]] for i in pick], weak_space.meta.vocab)
            model = nn.build_model(nn.ModelConfig(**{**MODEL_CFG.__dict__, "seed": seed}))
            result = finetune(model, *examples, TrainConfig(epochs=40, early_stop_patience=10, seed=seed))
            rmap = result.relevance_map
            trained.append(probe_ndcg(result.model, rmap))
            untrained.append(probe_ndcg(model, rmap))
        assert np.median(trained) > np.median(untrained)

    def test_early_stop_halts_before_epoch_limit(self, weak_space):
        # a 2-value holdout NDCG can improve at most twice, so patience of 50
        # must trigger well before 300 epochs
        records = [weak_space.records[r] for r in weak_space.ids[:12]]
        examples = labeled(records, weak_space.meta.vocab)
        cfg = TrainConfig(epochs=300, early_stop_patience=50, seed=3)
        result = finetune(nn.build_model(MODEL_CFG), *examples, cfg)
        assert result.stopped_epoch < cfg.epochs

    def test_returns_the_best_epoch_without_optimizer_state(self, weak_space, monkeypatch):
        # stopped by patience, so the last epoch is not the best one: the
        # returned parameters are the snapshot, and their holdout NDCG is the
        # best. This holdout reads 1.0, so the saturation exit is turned off.
        monkeypatch.setattr(ltr, "_ndcg_saturates", lambda rels: False)
        records = [weak_space.records[r] for r in weak_space.ids[:40]]
        packed, ids, accs = labeled(records, weak_space.meta.vocab)
        result = finetune(nn.build_model(MODEL_CFG), packed, ids, accs,
                          TrainConfig(epochs=300, early_stop_patience=5, seed=3))
        assert result.stopped_epoch < 300
        assert result.model.store._state is None and result.model.store.step == 0
        _, hold = ltr._stratified_holdout(np.array(accs))
        rels = metrics.map_relevance(result.relevance_map, np.array(accs)[hold])
        scores, _ = nn.forward(result.model, packed.select(hold), "rank")
        assert metrics.ndcg(scores, rels, [ids[i] for i in hold]) == result.best_ndcg
        assert [r.ndcg for r in result.curve if r.split == "holdout"][-1] < result.best_ndcg

    @pytest.mark.parametrize("loss", list(ltr.FINETUNE_LOSSES))
    def test_saturated_holdout_stops_with_the_model_of_a_full_run(self, weak_space, monkeypatch, loss):
        # once the holdout NDCG reads 1.0 patience can only run out, so the
        # exit returns the same model and the same curve as far as it goes
        examples = labeled([weak_space.records[r] for r in weak_space.ids[:20]], weak_space.meta.vocab)
        cfg = TrainConfig(epochs=40, early_stop_patience=10, seed=0)
        early = finetune(nn.build_model(MODEL_CFG), *examples, cfg, loss)
        monkeypatch.setattr(ltr, "_ndcg_saturates", lambda rels: False)
        full = finetune(nn.build_model(MODEL_CFG), *examples, cfg, loss)
        assert early.best_ndcg == full.best_ndcg == early.curve[-1].ndcg == 1.0
        assert early.stopped_epoch == early.curve[-1].epoch < full.stopped_epoch
        assert early.curve == full.curve[: len(early.curve)]
        assert nn.checkpoint_bytes(early.model) == nn.checkpoint_bytes(full.model)

    def test_degenerate_relevance_falls_back_to_uniform(self, weak_space, caplog):
        recs = list(weak_space.records.values())[:8]
        flat = [space.BenchmarkRecord(arch=r.arch, val_acc=50.0, test_acc=r.test_acc,
                                      ws_acc=r.ws_acc, flops=r.flops, params=r.params) for r in recs]
        examples = labeled(flat, weak_space.meta.vocab)
        with caplog.at_level("WARNING"):
            result = finetune(nn.build_model(MODEL_CFG), *examples, TrainConfig(epochs=2, seed=0))
        assert result.relevance_map is None
        assert "degenerate relevance" in caplog.text

    def test_auxiliary_heads_frozen(self, weak_space):
        records = [weak_space.records[r] for r in weak_space.ids[:20]]
        examples = labeled(records, weak_space.meta.vocab)
        model = nn.build_model(MODEL_CFG)
        result = finetune(model, *examples, TrainConfig(epochs=3, seed=3))
        for name in model.store.names():
            if name.startswith(("head_ws", "head_flops", "head_params")):
                np.testing.assert_array_equal(result.model.store.params[name], model.store.params[name])
        assert not np.array_equal(result.model.store.params["head_rank.w1"], model.store.params["head_rank.w1"])

    def test_deterministic(self, weak_space):
        records = [weak_space.records[r] for r in weak_space.ids[:30]]
        examples = labeled(records, weak_space.meta.vocab)
        cfg = TrainConfig(epochs=4, seed=9)
        m1 = finetune(nn.build_model(MODEL_CFG), *examples, cfg).model
        m2 = finetune(nn.build_model(MODEL_CFG), *examples, cfg).model
        assert nn.checkpoint_bytes(m1) == nn.checkpoint_bytes(m2)


@st.composite
def near_tied_rels(draw):
    """2-7 relevances in [0, 20] drawn near a few levels: equal, a few ulps
    apart, or apart by a small step."""
    rels = []
    for _ in range(draw(st.integers(2, 7))):
        rel = draw(st.sampled_from([0.0, 0.7, 5.0, 13.25, 19.5]))
        rel += draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-5, 0.3]))
        for _ in range(draw(st.integers(0, 2))):
            rel = np.nextafter(rel, np.inf)
        rels.append(rel)
    return np.array(rels)


class TestNdcgSaturates:
    def test_uniform_and_all_zero_holdouts_saturate(self):
        assert ltr._ndcg_saturates(np.zeros(4))
        assert ltr._ndcg_saturates(np.full(3, 7.5))

    def test_spread_relevances_saturate_and_near_ties_do_not(self):
        assert ltr._ndcg_saturates(np.array([0.0, 4.2, 11.0, 20.0, 0.0]))
        assert not ltr._ndcg_saturates(np.array([0.0, 20.0, np.nextafter(20.0, 0.0)]))
        assert not ltr._ndcg_saturates(np.array([3.0, 3.0 + 1e-13]))

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(near_tied_rels())
    def test_no_order_reads_above_the_ideal_once_saturated(self, rels):
        # brute force over every order: when the exit would fire, the orders
        # that rank the relevances in descending sequence read one value and
        # every other order reads below 1.0, so nothing can beat a best of 1.0
        if not ltr._ndcg_saturates(rels):
            return
        n = len(rels)
        ids = [f"a{i}" for i in range(n)]
        ideal = np.sort(rels)[::-1]
        ideal_readings = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", metrics.DegenerateRelevanceWarning)
            for order in itertools.permutations(range(n)):
                scores = np.empty(n)
                scores[list(order)] = np.arange(n, 0, -1.0)
                reading = metrics.ndcg(scores, rels, ids)
                if np.array_equal(rels[list(order)], ideal):
                    ideal_readings.add(reading)
                else:
                    assert reading < 1.0, (rels.tolist(), order)
        assert len(ideal_readings) == 1


def count_train_calls(monkeypatch):
    """Replace the module bindings the traced bench wraps with counting ones."""
    calls = dict.fromkeys(["train_forward", "eval_forward", "backward", "adam_step", "lambdarank_lambdas"], 0)

    def wrap(module, name, key):
        original = getattr(module, name)
        signature = inspect.signature(original)

        def counting(*args, **kwargs):
            calls[key(signature.bind(*args, **kwargs).arguments) if callable(key) else key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    wrap(nn, "forward_heads", lambda a: "train_forward" if a.get("train_mode") else "eval_forward")
    wrap(nn, "backward", "backward")
    wrap(nn, "adam_step", "adam_step")
    wrap(ltr, "lambdarank_lambdas", "lambdarank_lambdas")
    return calls


class TestTrainStepCalls:
    # The traced bench times train steps (nn.step_ms_*) and the lambdas
    # (ltr.lambdas_s) by wrapping these module bindings, so each train step
    # must reach them through the modules at call time, once per batch.

    def test_pretrain_one_call_per_batch(self, weak_space, monkeypatch):
        calls = count_train_calls(monkeypatch)
        pretrain(nn.build_model(MODEL_CFG), *weak_view(weak_space, weak_space.ids[:60]),  # 6 held out, 54 in
                 TrainConfig(epochs=2, seed=11))                                           # batches of 20, 20, 14
        assert calls == {"train_forward": 6, "eval_forward": 1, "backward": 6, "adam_step": 6,
                         "lambdarank_lambdas": 0}

    @pytest.mark.parametrize("loss", ["lambdarank", "ranknet", "mse"])
    def test_finetune_one_call_per_batch(self, weak_space, monkeypatch, loss):
        calls = count_train_calls(monkeypatch)
        examples = labeled([weak_space.records[r] for r in weak_space.ids[:30]], weak_space.meta.vocab)
        # 3 held out, 27 in batches of 20 and 7; one holdout eval per epoch
        finetune(nn.build_model(MODEL_CFG), *examples, TrainConfig(epochs=3, early_stop_patience=None, seed=4), loss)
        assert calls == {"train_forward": 6, "eval_forward": 3, "backward": 6, "adam_step": 6,
                         "lambdarank_lambdas": 6 if loss == "lambdarank" else 0}
