"""Search-loop tests: budget accounting, exploit/explore split, selection,
finalize, and the random and ws-greedy baselines."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from ltrnas import ltr, nn, search, space
from ltrnas.search import (
    EvalProbe,
    SearchConfig,
    SearchView,
    finalize,
    iterative_search,
    make_probe,
    select_top_k,
    ws_greedy_baseline,
)

MODEL_CFG = nn.ModelConfig(
    vocab_size=7,
    hparam_dim=2,
    conv_channels=(16, 16),
    sortpool_nodes=8,
    conv1d_channels=6,
    hparam_proj=4,
    head_hidden=16,
    dropout=0.1,
    seed=5,
)

FAST_TRAIN = ltr.TrainConfig(epochs=6, early_stop_patience=None, seed=0)


@pytest.fixture(scope="module")
def bench():
    cfg = space.SynthConfig(size=150, seed=44)
    return space.calibrate_weak_labels(space.generate_synthetic_space(cfg), 0.7, seed=3)


@pytest.fixture(scope="module")
def model():
    return nn.build_model(MODEL_CFG)


class TestSearchView:
    def test_no_test_accuracy_anywhere(self, bench):
        view = SearchView(bench)
        leaked = [attr for attr in vars(view) if "test" in attr]
        assert leaked == []
        assert view.reveal_val(view.ids[0]) == bench.records[view.ids[0]].val_acc

    @pytest.mark.parametrize("budget", [40, 1024])
    def test_pool_is_a_row_selection_scored_like_a_packed_copy(self, bench, model, budget):
        view = SearchView(bench)
        ids = list(view.ids[::-3])
        pool, other = view.pool(ids), view.pool(view.ids[:7])
        assert len(pool) == len(pool.batch) == len(ids)
        for mine, theirs in zip(pool.batch.prop, other.batch.prop):
            assert np.shares_memory(mine, theirs)
        with mock.patch.object(nn, "EVAL_ROWS", budget):
            scores, _ = nn.forward(model, pool.batch)
            copied, _ = nn.forward(model, nn.pack([space.encode_architecture(bench.records[rid].arch, bench.meta.vocab)
                                                   for rid in ids]))
        np.testing.assert_array_equal(scores.view(np.int64), copied.view(np.int64))


class TestIterativeSearch:
    def test_budget_accounting_and_uniqueness(self, bench, model):
        cfg = SearchConfig(per_round=8, rounds=3, exploit_fraction=0.5, top_k=4, seed=1)
        _, trace = iterative_search(SearchView(bench), model, cfg, FAST_TRAIN)
        ids = trace.sampled_ids()
        assert len(ids) == 8 * 3 + 4
        assert len(set(ids)) == len(ids)
        per_round = {}
        for e in trace.entries:
            per_round.setdefault(e.round, []).append(e)
        for rnd in (1, 2, 3):
            assert len(per_round[rnd]) == 8
        assert len(per_round[4]) == 4
        assert all(e.origin == "topk" for e in per_round[4])

    def test_alpha_zero_all_random(self, bench, model):
        cfg = SearchConfig(per_round=6, rounds=3, exploit_fraction=0.0, top_k=2, seed=2)
        _, trace = iterative_search(SearchView(bench), model, cfg, FAST_TRAIN)
        origins = {e.origin for e in trace.entries if e.round <= 3}
        assert origins == {"random"}

    def test_alpha_one_round_two_is_exploit(self, bench, model):
        cfg = SearchConfig(per_round=6, rounds=2, exploit_fraction=1.0, top_k=2, seed=3)
        final_model, trace = iterative_search(SearchView(bench), model, cfg, FAST_TRAIN)
        round2 = [e for e in trace.entries if e.round == 2]
        assert all(e.origin == "model" for e in round2)

    def test_first_round_random(self, bench, model):
        cfg = SearchConfig(per_round=5, rounds=2, exploit_fraction=1.0, top_k=2, seed=4)
        _, trace = iterative_search(SearchView(bench), model, cfg, FAST_TRAIN)
        assert all(e.origin == "random" for e in trace.entries if e.round == 1)

    def test_paper_budget_110_distinct_ids(self, bench, model):
        # 20 per round x 5 rounds + top-10 = the 110-architecture budget
        cfg = SearchConfig(per_round=20, rounds=5, exploit_fraction=0.5, top_k=10, seed=11)
        _, trace = iterative_search(SearchView(bench), model, cfg, FAST_TRAIN)
        ids = trace.sampled_ids()
        assert len(ids) == 110
        assert len(set(ids)) == 110

    def test_budget_exceeds_space(self, bench, model):
        cfg = SearchConfig(per_round=80, rounds=2, top_k=10, seed=0)
        with pytest.raises(ValueError, match="budget"):
            iterative_search(SearchView(bench), model, cfg, FAST_TRAIN)

    def test_deterministic_trace(self, bench, model):
        cfg = SearchConfig(per_round=6, rounds=2, exploit_fraction=0.5, top_k=3, seed=7)
        probe = make_probe(bench, 40, seed=7)
        _, t1 = iterative_search(SearchView(bench), model, cfg, FAST_TRAIN, probe=probe)
        _, t2 = iterative_search(SearchView(bench), model, cfg, FAST_TRAIN, probe=probe)
        assert t1.entries == t2.entries
        assert t1.final_top_k == t2.final_top_k
        assert t1.round_metrics == t2.round_metrics

    def test_monotone_best_val(self, bench, model):
        cfg = SearchConfig(per_round=6, rounds=4, exploit_fraction=0.5, top_k=2, seed=8)
        _, trace = iterative_search(SearchView(bench), model, cfg, FAST_TRAIN)
        bests = [m.best_val_so_far for m in trace.round_metrics]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_model_needs_train_config(self, bench, model):
        cfg = SearchConfig(per_round=6, rounds=2, top_k=2, seed=0)
        with pytest.raises(ValueError, match="finetune config"):
            iterative_search(SearchView(bench), model, cfg)

    def test_no_exploit_picks_score_only_the_final_pool(self, bench, model, monkeypatch):
        calls = []

        def counting(m, pool, k):
            calls.append(k)
            return select_top_k(m, pool, k)

        monkeypatch.setattr(search, "select_top_k", counting)
        cfg = SearchConfig(per_round=6, rounds=3, exploit_fraction=0.0, top_k=2, seed=2)
        iterative_search(SearchView(bench), model, cfg, FAST_TRAIN)
        assert calls == [2]

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_no_exploit_picks_match_random_baseline_draws(self, bench, model, alpha):
        # int(alpha * 6) == 0: every iterative pick comes from the same
        # uniform stream as the random baseline's
        cfg = SearchConfig(per_round=6, rounds=3, exploit_fraction=alpha, top_k=2, seed=2)
        _, trace = iterative_search(SearchView(bench), model, cfg, FAST_TRAIN)
        _, rand = iterative_search(SearchView(bench), None, cfg)
        assert [e for e in trace.entries if e.round <= 3] == [e for e in rand.entries if e.round <= 3]
        assert [m.best_val_so_far for m in trace.round_metrics] == [
            m.best_val_so_far for m in rand.round_metrics
        ]

    def test_probe_snapshots_populated(self, bench, model):
        cfg = SearchConfig(per_round=6, rounds=2, exploit_fraction=0.5, top_k=2, seed=9)
        probe = make_probe(bench, 50, seed=9)
        _, trace = iterative_search(SearchView(bench), model, cfg, FAST_TRAIN, probe=probe)
        assert all(m.ndcg is not None and 0.0 <= m.ndcg <= 1.0 for m in trace.round_metrics)
        assert all(m.tau is not None and -1.0 <= m.tau <= 1.0 for m in trace.round_metrics)


class TestSelectTopK:
    def test_whole_pool_score_ordered(self, bench, model):
        view = SearchView(bench)
        pool = view.pool(view.ids[:12])
        top = select_top_k(model, pool, 12)
        scores = [s for _, s in top]
        assert scores == sorted(scores, reverse=True)
        assert {rid for rid, _ in top} == set(pool.ids)

    def test_zero_model_ties_break_by_id(self, bench):
        zero = nn.build_model(MODEL_CFG)
        for name in zero.store.names():
            zero.store.params[name][...] = 0.0
        view = SearchView(bench)
        pool = view.pool(view.ids[:20])
        top = select_top_k(zero, pool, 5)
        assert [rid for rid, _ in top] == sorted(pool.ids)[:5]

    def test_pool_too_small(self, bench, model):
        view = SearchView(bench)
        pool = view.pool(view.ids[:3])
        with pytest.raises(ValueError):
            select_top_k(model, pool, 4)

    def test_trained_model_beats_pool_mean(self, bench):
        # select_top_k with a finetuned model: mean true accuracy of the
        # selected k exceeds the pool mean (seeded, single deterministic run)
        rng = np.random.default_rng(5)
        ids = list(bench.ids)
        lab = [ids[i] for i in rng.choice(len(ids), 60, replace=False)]
        view = SearchView(bench)
        result = ltr.finetune(nn.build_model(MODEL_CFG), view.pool(lab).batch, lab, [view.reveal_val(r) for r in lab],
                              ltr.TrainConfig(epochs=30, early_stop_patience=10, seed=1))
        top = select_top_k(result.model, view.pool(view.ids), 10)
        top_mean = np.mean([bench.records[rid].val_acc for rid, _ in top])
        pool_mean = np.mean([r.val_acc for r in bench.records.values()])
        assert top_mean > pool_mean


class TestFinalize:
    def test_picks_best_val_and_reports_its_test(self, bench, model):
        cfg = SearchConfig(per_round=6, rounds=2, exploit_fraction=0.5, top_k=3, seed=10)
        _, trace = iterative_search(SearchView(bench), model, cfg, FAST_TRAIN)
        before = dataclasses.replace(trace, entries=list(trace.entries), round_metrics=list(trace.round_metrics))
        arch, test_acc = finalize(trace, bench)
        assert trace == before  # finalize reads the trace and writes nothing to it
        best = max(trace.entries, key=lambda e: e.val_acc)
        assert trace.best().arch_id == best.arch_id == arch.id
        assert test_acc == bench.records[arch.id].test_acc
        # reported value is the chosen arch's test accuracy, not the best test seen
        best_test_seen = max(bench.records[e.arch_id].test_acc for e in trace.entries)
        assert test_acc <= best_test_seen

    def test_tie_breaks_to_lowest_id(self, bench):
        trace = search.SearchTrace()
        for rid in ("b", "a", "c"):
            trace.entries.append(search.TraceEntry(round=1, arch_id=rid, origin="random", val_acc=50.0))
        sp = _space_with_equal_vals(bench)
        arch, _ = finalize(trace, sp)
        assert arch.id == "a"

    def test_empty_trace(self, bench):
        with pytest.raises(ValueError):
            finalize(search.SearchTrace(), bench)


class TestSearchTrace:
    def test_best_through_round_and_final_top_k(self):
        trace = search.SearchTrace([
            search.TraceEntry(1, "b", "random", 60.0), search.TraceEntry(1, "c", "random", 70.0),
            search.TraceEntry(2, "a", "model", 70.0), search.TraceEntry(3, "d", "topk", 80.0),
            search.TraceEntry(3, "e", "topk", 10.0),
        ])
        assert [trace.best(r).arch_id for r in (1, 2, 3)] == ["c", "a", "d"]  # 70.0 tie: lower id
        assert trace.best() == trace.best(3)
        assert trace.final_top_k == ("d", "e")
        with pytest.raises(ValueError, match="empty trace"):
            trace.best(0)


def _space_with_equal_vals(bench):
    recs = {}
    for rid, arch_id in zip(list(bench.records)[:3], ("a", "b", "c")):
        rec = bench.records[rid]
        arch = space.Architecture(id=arch_id, cells=rec.arch.cells, hparams=rec.arch.hparams)
        recs[arch_id] = space.BenchmarkRecord(arch=arch, val_acc=50.0, test_acc=rec.test_acc,
                                              ws_acc=rec.ws_acc, flops=rec.flops, params=rec.params)
    return space.SearchSpace(meta=bench.meta, records=recs)


class TestRandomSearch:
    def test_all_random_origins(self, bench):
        cfg = SearchConfig(per_round=6, rounds=3, top_k=3, seed=5)
        final_model, trace = iterative_search(SearchView(bench), None, cfg)
        assert final_model is None
        assert len(trace.sampled_ids()) == 21
        assert all(e.origin in ("random", "topk") for e in trace.entries)
        assert len(set(trace.sampled_ids())) == 21
        assert all(m.ndcg is None and m.tau is None for m in trace.round_metrics)


class TestWsGreedy:
    def test_whole_space(self, bench):
        trace = ws_greedy_baseline(bench, len(bench))
        assert len(trace.entries) == len(bench)

    def test_perfect_proxy_zero_regret(self, bench):
        # weak labels equal to val_acc: greedy top-1 has zero validation regret
        recs = {}
        for rid, rec in bench.records.items():
            recs[rid] = space.BenchmarkRecord(arch=rec.arch, val_acc=rec.val_acc, test_acc=rec.test_acc,
                                              ws_acc=rec.val_acc, flops=rec.flops, params=rec.params)
        perfect = space.SearchSpace(meta=bench.meta, records=recs)
        trace = ws_greedy_baseline(perfect, 10)
        best_val = max(r.val_acc for r in perfect.records.values())
        assert max(e.val_acc for e in trace.entries) == best_val

    def test_sorted_by_weak_label(self, bench):
        trace = ws_greedy_baseline(bench, 20)
        ws = [bench.records[e.arch_id].ws_acc for e in trace.entries]
        assert ws == sorted(ws, reverse=True)

    def test_equal_weak_labels_in_id_order(self, bench):
        # two weak-label levels, records stored in descending id order: the
        # selection is by level, and within a level by ascending id
        ids = sorted(bench.ids, reverse=True)
        recs = {
            rid: dataclasses.replace(bench.records[rid], ws_acc=70.0 if k % 3 else 60.0)
            for k, rid in enumerate(ids)
        }
        trace = ws_greedy_baseline(space.SearchSpace(meta=bench.meta, records=recs), 60)
        expected = sorted(recs.values(), key=lambda r: (-r.ws_acc, r.arch.id))[:60]
        assert [e.arch_id for e in trace.entries] == [r.arch.id for r in expected]
        assert [recs[e.arch_id].ws_acc for e in trace.entries] == [70.0] * 60

    def test_missing_labels_rejected(self):
        sp = space.generate_synthetic_space(space.SynthConfig(size=10, seed=0))
        with pytest.raises(ValueError, match="weak label"):
            ws_greedy_baseline(sp, 5)


class TestProbe:
    def test_probe_fixed_by_seed(self, bench):
        p1 = make_probe(bench, 30, seed=1)
        p2 = make_probe(bench, 30, seed=1)
        assert p1.ids == p2.ids
        p3 = make_probe(bench, 30, seed=2)
        assert p1.ids != p3.ids


def test_every_finetuning_method_names_a_finetune_loss():
    # a misspelt loss in a METHODS row fails here, not mid-search
    for name, method in search.METHODS.items():
        assert (method.loss is None) == (method.start is None), name
        assert method.loss is None or method.loss in ltr.FINETUNE_LOSSES, name


# (method, whether a pretrained model is given, the model the hand-written
# set-up starts from, its finetune loss); every METHODS row, and full without
# a pretrained model
RUNNER_CASES = [
    ("full", True, "pretrained", "lambdarank"),
    ("full", False, "fresh", "lambdarank"),
    ("vanilla-mse", True, "fresh", "mse"),
    ("ranknet", True, "pretrained", "ranknet"),
    ("ws-greedy", True, None, None),
    ("random", True, None, None),
]


class TestRunMethod:
    def test_cases_cover_every_method(self):
        assert {name for name, *_ in RUNNER_CASES} == set(search.METHODS)

    @pytest.mark.parametrize("name, given, start, loss", RUNNER_CASES)
    def test_equals_the_hand_written_set_up(self, bench, name, given, start, loss):
        cfg = SearchConfig(per_round=8, rounds=2, top_k=3, seed=7)
        train_cfg = dataclasses.replace(FAST_TRAIN, epochs=3)
        fresh = dataclasses.replace(MODEL_CFG, seed=11)
        pretrained = nn.build_model(dataclasses.replace(MODEL_CFG, seed=12), bench.meta.vocab) if given else None
        got_model, got = search.run_method(search.METHODS[name], bench, budget=12, cfg=cfg, pretrained=pretrained,
                                           fresh=fresh, train_cfg=train_cfg, probe_size=20)
        if name == "ws-greedy":
            want_model, want = None, ws_greedy_baseline(bench, 12)
        elif start is None:
            want_model, want = iterative_search(SearchView(bench), None, cfg)
        else:
            base = pretrained if start == "pretrained" else nn.build_model(fresh, bench.meta.vocab)
            want_model, want = iterative_search(SearchView(bench), base, cfg, train_cfg, loss=loss,
                                                probe=make_probe(bench, 20, seed=cfg.seed))
        assert got == want
        if want_model is None:
            assert got_model is None
        else:
            assert nn.checkpoint_bytes(got_model) == nn.checkpoint_bytes(want_model)
            assert got.round_metrics[-1].ndcg is not None
