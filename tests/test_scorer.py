import numpy as np
import pytest

from hierstream.scoring.histogram import HistogramConfig
from hierstream.scoring.losses import softmax
from hierstream.scoring.rnn import ScorerConfig, ScorerModel, infer_scores, stream_scores
from oracles import (
    dict_backward,
    numeric_gradient,
    per_frame_forward,
    per_frame_window_loss,
    relative_error,
    time_major_backward,
)


def small_cfg(**overrides):
    base = dict(feature_dim=3, recurrent_layers=2, hidden_dim=6,
                histogram=HistogramConfig(bins=5), bptt_window=32)
    base.update(overrides)
    return ScorerConfig(**base)


def with_random_biases(model, seed):
    """``model`` with every bias drawn at random. ``ScorerModel.init`` gives
    zero biases, and with those a test cannot see where a bias enters a sum."""
    rng = np.random.default_rng(seed)
    for value in model.params.values():
        if value.ndim == 1:
            value[...] = rng.normal(0, 0.5, value.shape)
    return model


def random_targets(rng, T, bins):
    return (
        rng.integers(0, 3, T),
        rng.dirichlet(np.ones(bins), T),
        rng.random(T) < 0.6,
        rng.dirichlet(np.ones(bins), T),
        rng.random(T) < 0.6,
    )


class TestForward:
    def test_one_output_per_frame(self):
        model = ScorerModel.init(small_cfg(), seed=0)
        scores = infer_scores(model, np.zeros((7, 3)), np.arange(7) / 2.0)
        assert len(scores) == 7
        assert scores[3].timestamp == pytest.approx(1.5)

    def test_distributions_normalized(self):
        model = ScorerModel.init(small_cfg(), seed=1)
        rng = np.random.default_rng(0)
        for fs in infer_scores(model, rng.normal(0, 1, (9, 3)), np.arange(9.0)):
            assert abs(fs.state_probs.sum() - 1.0) <= 1e-6
            assert abs(fs.step_progress_dist.sum() - 1.0) <= 1e-6
            assert abs(fs.substep_progress_dist.sum() - 1.0) <= 1e-6

    def test_zero_weights_give_uniform_heads(self):
        model = ScorerModel.init(small_cfg())
        model.params = {k: np.zeros_like(v) for k, v in model.params.items()}
        fs = infer_scores(model, np.ones((4, 3)), np.arange(4.0))[2]
        np.testing.assert_allclose(fs.state_probs, 1 / 3, atol=1e-12)
        np.testing.assert_allclose(fs.step_progress_dist, 1 / 5, atol=1e-12)

    def test_prefix_property_exact(self):
        model = ScorerModel.init(small_cfg(), seed=2)
        rng = np.random.default_rng(3)
        feats = rng.normal(0, 1, (20, 3))
        full = infer_scores(model, feats, np.arange(len(feats), dtype=float))
        for cut in (1, 7, 13, 20):
            prefix = infer_scores(model, feats[:cut], np.arange(cut, dtype=float))
            for a, b in zip(prefix, full[:cut]):
                np.testing.assert_array_equal(a.state_probs, b.state_probs)
                np.testing.assert_array_equal(a.step_progress_dist, b.step_progress_dist)
                np.testing.assert_array_equal(a.substep_progress_dist, b.substep_progress_dist)

    def test_frame_by_frame_equals_infer_scores(self):
        # The streamed loop scores one frame at a time with a carried hidden
        # state; it must equal batch inference bit for bit.
        model = with_random_biases(ScorerModel.init(small_cfg(recurrent_layers=3, hidden_dim=64), seed=6), 7)
        feats = np.random.default_rng(8).normal(0, 1, (40, 3))
        batch = infer_scores(model, feats, np.arange(len(feats), dtype=float))
        h = model.zero_state()
        for t, fs in enumerate(batch):
            cache = model.forward(feats[t:t + 1], h)
            h = cache["h_last"]
            np.testing.assert_array_equal(softmax(cache["state_logits"])[0], fs.state_probs)
            np.testing.assert_array_equal(softmax(cache["step_logits"])[0], fs.step_progress_dist)
            np.testing.assert_array_equal(softmax(cache["sub_logits"])[0], fs.substep_progress_dist)

    def test_step_is_the_per_frame_body_of_forward(self):
        model = with_random_biases(ScorerModel.init(small_cfg(recurrent_layers=3, hidden_dim=8), seed=4), 4)
        feats = np.random.default_rng(5).normal(0, 1, (12, 3))
        cache = model.forward(feats)
        h = model.zero_state()
        for t in range(len(feats)):
            h, *logits = model.step(feats[t], h)
            for name, z in zip(("state", "step", "sub"), logits):
                np.testing.assert_array_equal(z, cache[f"{name}_logits"][t])
            for layer in range(3):
                np.testing.assert_array_equal(h[layer], cache["hidden"][layer, t])
        for a, b in zip(h, cache["h_last"]):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("layers,hidden,frames", [(1, 5, 9), (2, 13, 17), (3, 64, 20), (2, 256, 6)])
    def test_layer_by_layer_forward_equals_stepping(self, layers, hidden, frames):
        # Odd sizes too: forward feeds row views of its caches to the same
        # matvecs that step feeds fresh arrays.
        model = ScorerModel.init(small_cfg(recurrent_layers=layers, hidden_dim=hidden), seed=hidden)
        model = with_random_biases(model, hidden)
        rng = np.random.default_rng(layers)
        feats, h0 = rng.normal(0, 1, (frames, 3)), [rng.normal(0, 0.5, hidden) for _ in range(layers)]
        cache, h = model.forward(feats, h0), h0
        for t in range(frames):
            h, *logits = model.step(feats[t], h)
            for name, z in zip(("state", "step", "sub"), logits):
                np.testing.assert_array_equal(z, cache[f"{name}_logits"][t])
            np.testing.assert_array_equal(np.array(h), cache["hidden"][:, t])
        np.testing.assert_array_equal(np.array(h), np.array(cache["h_last"]))

    def test_feature_dim_checked(self):
        model = ScorerModel.init(small_cfg(), seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((4, 5)))

    def test_step_checks_one_hidden_state_per_layer(self):
        model = ScorerModel.init(small_cfg(recurrent_layers=2, hidden_dim=8), seed=0)
        for h in (model.zero_state()[:1], model.zero_state() * 2):
            with pytest.raises(ValueError):
                model.step(np.zeros(3), h)
            with pytest.raises(ValueError, match="expected 2 hidden states"):
                model.forward(np.zeros((4, 3)), h)


def laid_out(feats, layout):
    """The same values in C order, Fortran order, or as a strided view."""
    if layout == "F":
        return np.asfortranarray(feats)
    if layout == "strided":
        wide = np.zeros((2 * len(feats), 2 * feats.shape[1]))
        wide[::2, ::2] = feats
        return wide[::2, ::2]
    return feats


class TestForwardOracle:
    """forward and step against the per-frame forward with one ``@`` per
    matvec, bit for bit."""

    CASES = [  # layers, hidden, frames, layout, h0
        (2, 6, 0, "C", None), (2, 6, 0, "C", "lists"), (2, 6, 1, "C", None),
        (1, 5, 1, "strided", "lists"), (2, 7, 12000, "C", None), (3, 13, 40, "F", "lists"),
        (2, 256, 30, "strided", "arrays"), (1, 9, 25, "F", "arrays"),
    ]

    @staticmethod
    def case(layers, hidden, frames, layout, h0_kind):
        model = ScorerModel.init(small_cfg(recurrent_layers=layers, hidden_dim=hidden), seed=hidden)
        model = with_random_biases(model, hidden)
        rng = np.random.default_rng(frames)
        feats = laid_out(rng.normal(0, 1, (frames, 3)), layout)
        h0 = None
        if h0_kind is not None:
            h0 = [rng.normal(0, 0.5, hidden) for _ in range(layers)]
            h0 = [h.tolist() for h in h0] if h0_kind == "lists" else h0
        return model, feats, h0

    @pytest.mark.parametrize("layers,hidden,frames,layout,h0", CASES)
    def test_forward_matches_per_frame_oracle(self, layers, hidden, frames, layout, h0):
        model, feats, h0 = self.case(layers, hidden, frames, layout, h0)
        cache, want = model.forward(feats, h0), per_frame_forward(model, feats, h0)
        for key in ("features", "hidden", "state_logits", "step_logits", "sub_logits"):
            assert cache[key].shape == want[key].shape
            np.testing.assert_array_equal(cache[key], want[key])
        np.testing.assert_array_equal(np.array(cache["h_last"]), np.array(want["h_last"]))
        for got, given in zip(cache["h_last"], h0 or []):
            assert not np.shares_memory(got, given)

    @pytest.mark.parametrize("layers,hidden,frames,layout,h0", CASES)
    def test_step_matches_per_frame_oracle(self, layers, hidden, frames, layout, h0):
        model, feats, h0 = self.case(layers, hidden, frames, layout, h0)
        want, h, got = per_frame_forward(model, feats, h0), h0 or model.zero_state(), []
        for t in range(frames):
            h, *logits = model.step(feats[t], h)
            got.append(logits)
        for name, z in zip(("state", "step", "sub"), zip(*got)):
            np.testing.assert_array_equal(np.array(z), want[f"{name}_logits"])
        np.testing.assert_array_equal(np.array(h), np.array(want["h_last"]))

    def test_h_last_never_aliases_h0(self):
        model = ScorerModel.init(small_cfg(recurrent_layers=2, hidden_dim=8), seed=0)
        h0 = [np.full(8, 0.25), np.full(8, -0.5)]
        for frames in (0, 1, 5):
            h_last = model.forward(np.zeros((frames, 3)), h0)["h_last"]
            assert not any(np.shares_memory(a, b) for a in h_last for b in h0)
            for a in h_last:
                a += 1.0
            np.testing.assert_array_equal(h0[0], 0.25)

    def test_oracle_cases_would_catch_a_gemm(self):
        # At h=256 the GEMM ``rows @ w.T`` rounds differently from per-row
        # ``w @ row``, so a GEMM forward fails the oracle tests above.
        model, feats, h0 = self.case(*self.CASES[6])
        want = per_frame_forward(model, feats, h0)
        p = model.params
        gemm = want["hidden"][-1] @ p["w_step"].T + p["b_step"]
        assert not np.array_equal(gemm, want["step_logits"])
        gemm = want["hidden"][0] @ p["wh1"].T
        assert not np.array_equal(gemm, np.array([p["wh1"] @ r for r in want["hidden"][0]]))


HEADS = ("state_logits", "step_logits", "sub_logits")


class TestOneRow:
    """forward over one row, the streaming case, takes a path of its own; it
    must give the bytes of that row inside a whole window."""

    @staticmethod
    def case(layers, hidden, frames=24):
        model = ScorerModel.init(small_cfg(recurrent_layers=layers, hidden_dim=hidden), seed=hidden)
        model, rng = with_random_biases(model, hidden + 1), np.random.default_rng(hidden)
        return model, rng.normal(0, 1, (frames, 3)), [rng.normal(0, 0.5, hidden) for _ in range(layers)]

    @pytest.mark.parametrize("layers,hidden", [(1, 5), (2, 32), (3, 256)])
    def test_one_row_forward_equals_window_rows_bit_for_bit(self, layers, hidden):
        model, feats, h0 = self.case(layers, hidden)
        whole, h = model.forward(feats, h0), h0
        for t in range(len(feats)):
            cache = model.forward(feats[t:t + 1], h)
            for key in HEADS:
                assert cache[key].shape == (1, whole[key].shape[1])
                assert cache[key].tobytes() == whole[key][t:t + 1].tobytes(), key
            assert cache["hidden"].tobytes() == whole["hidden"][:, t:t + 1].tobytes()
            assert not any(np.shares_memory(a, b) for a in cache["h_last"] for b in h)
            h = cache["h_last"]
        assert np.array(h).tobytes() == np.array(whole["h_last"]).tobytes()

    @pytest.mark.parametrize("layers,hidden", [(1, 5), (2, 32), (3, 256)])
    def test_backward_on_one_row_cache_equals_first_window_row(self, layers, hidden):
        model, feats, h0 = self.case(layers, hidden)
        whole, one = model.forward(feats, h0), model.forward(feats[:1], h0)
        first = {"features": whole["features"][:1], "hidden": whole["hidden"][:, :1],
                 **{key: whole[key][:1] for key in HEADS}}
        rng = np.random.default_rng(layers)
        d_logits = {name: rng.normal(0, 1, one[f"{name}_logits"].shape) for name in ("state", "step", "sub")}
        got, want = model.backward(one, d_logits, h0), model.backward(first, d_logits, h0)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_state_sequence_checked_in_forward_step_and_backward(self):
        model, feats, h0 = self.case(2, 8, frames=5)
        cache = model.forward(feats, h0)
        d_logits = {name: np.ones(cache[f"{name}_logits"].shape) for name in ("state", "step", "sub")}
        for bad in ([], np.zeros((3, 8))):
            calls = (lambda: model.forward(feats, bad), lambda: model.forward(feats[:1], bad),
                     lambda: model.step(feats[0], bad), lambda: model.backward(cache, d_logits, bad))
            for call in calls:
                with pytest.raises(ValueError, match=f"expected 2 hidden states, got {len(bad)}"):
                    call()
        # An (L, H) array or a tuple of states is read as the list is.
        want = model.backward(cache, d_logits, h0)
        for same in (np.array(h0), tuple(h0)):
            for rows in (feats, feats[:1]):
                got, ref = model.forward(rows, same), model.forward(rows, h0)
                for key in ("hidden",) + HEADS:
                    assert got[key].tobytes() == ref[key].tobytes(), key
            for a, b in zip(model.step(feats[0], same), model.step(feats[0], h0)):
                assert np.array(a).tobytes() == np.array(b).tobytes()
            got = model.backward(cache, d_logits, same)
            assert all(got[name].tobytes() == want[name].tobytes() for name in want)

    def test_stream_scores_equal_infer_scores_at_train_size(self):
        # The benchmark's train workload streams an h=256, L=3 scorer.
        model = with_random_biases(ScorerModel.init(ScorerConfig(feature_dim=8, hidden_dim=256), seed=5), 6)
        rng = np.random.default_rng(6)
        feats, ts = rng.normal(0, 1, (60, 8)), np.arange(60) / 4.0
        streamed, batch = list(stream_scores(model, ts, feats)), infer_scores(model, feats, ts)
        assert len(streamed) == len(batch)
        for a, b in zip(streamed, batch):
            assert a.timestamp == b.timestamp
            for name in ("state_probs", "step_progress_dist", "substep_progress_dist"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestInferTimestamps:
    def test_one_timestamp_per_feature_row(self):
        model = ScorerModel.init(small_cfg(), seed=0)
        with pytest.raises(ValueError, match="10 timestamps for 3 feature rows"):
            infer_scores(model, np.zeros((3, 3)), timestamps=np.arange(10.0))
        with pytest.raises(ValueError, match="2 timestamps for 3 feature rows"):
            infer_scores(model, np.zeros((3, 3)), timestamps=[0.0, 1.0])

    @pytest.mark.parametrize("timestamps,why", [
        ([2.0, 1.0, np.nan], "frame 2: timestamp 1.0 does not follow 2.0"),
        ([0.0, np.nan, 1.0], "frame 2: timestamp nan is not finite"),
        ([0.0, 1.0, np.inf], "frame 3: timestamp inf is not finite"),
        ([0.0, 1.0, 1.0], "frame 3: timestamp 1.0 does not follow 1.0"),
    ])
    def test_readers_timestamp_rule(self, timestamps, why):
        model = ScorerModel.init(small_cfg(), seed=0)
        with pytest.raises(ValueError, match=why):
            infer_scores(model, np.zeros((3, 3)), timestamps=timestamps)

    def test_valid_timestamps_kept(self):
        model = ScorerModel.init(small_cfg(), seed=0)
        scores = infer_scores(model, np.zeros((3, 3)), timestamps=[0.5, 0.75, 2.0])
        assert [fs.timestamp for fs in scores] == [0.5, 0.75, 2.0]


class TestStreamScores:
    def test_one_timestamp_per_feature_row(self):
        model = ScorerModel.init(small_cfg(), seed=0)
        with pytest.raises(ValueError, match="2 timestamps for 3 feature rows"):
            next(stream_scores(model, [0.0, 1.0], np.zeros((3, 3))))
        with pytest.raises(ValueError, match="frame 3: timestamp 1.0 does not follow 1.0"):
            next(stream_scores(model, [0.0, 1.0, 1.0], np.zeros((3, 3))))

    def test_scores_a_row_only_when_asked(self):
        # The last row has the wrong width: nothing fails until it is scored.
        model = ScorerModel.init(small_cfg(), seed=0)
        frames = stream_scores(model, [0.0, 0.5, 1.0], [np.zeros(3), np.ones(3), np.zeros(5)])
        assert [next(frames).timestamp, next(frames).timestamp] == [0.0, 0.5]
        with pytest.raises(ValueError, match=r"expected \(T, 3\) features"):
            next(frames)


class TestGradients:
    def test_full_model_gradcheck(self):
        rng = np.random.default_rng(7)
        for trial in range(8):
            D = int(rng.integers(2, 5))
            H = int(rng.integers(3, 9))
            L = int(rng.integers(1, 4))
            T = int(rng.integers(2, 13))
            cfg = ScorerConfig(feature_dim=D, recurrent_layers=L, hidden_dim=H,
                               histogram=HistogramConfig(bins=4), bptt_window=T + 1)
            model = ScorerModel.init(cfg, seed=trial)
            feats = rng.normal(0, 1, (T, D))
            targets = random_targets(rng, T, 4)

            cache = model.forward(feats)
            _, d_logits = model.window_loss(cache, *targets)
            grads = model.backward(cache, d_logits)

            def loss_fn():
                c = model.forward(feats)
                return model.window_loss(c, *targets)[0]

            for name, param in model.params.items():
                numeric = numeric_gradient(loss_fn, param)
                assert relative_error(grads[name], numeric) < 1e-3, name

    def test_truncation_stops_gradient_at_window_edge(self):
        # Backward with a carried-in hidden state must not touch gradients
        # of the frames that produced it.
        cfg = small_cfg()
        model = ScorerModel.init(cfg, seed=4)
        rng = np.random.default_rng(5)
        feats = rng.normal(0, 1, (6, 3))
        targets = random_targets(rng, 3, 5)

        first = model.forward(feats[:3])
        second = model.forward(feats[3:], h0=first["h_last"])
        _, d_logits = model.window_loss(second, *targets)
        grads = model.backward(second, d_logits, h0=first["h_last"])
        assert all(np.isfinite(g).all() for g in grads.values())


class TestAgainstPerFrameOracles:
    """Layer-major ``backward`` and row-wise ``window_loss`` against the
    frame-by-frame references in ``oracles``. GEMMs sum in another order
    than per-frame outer products, so gradients agree to 1e-12 relative to
    each array's largest entry, not bit for bit."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(11)
        for trial in range(40):
            L = 1 + trial % 3
            T = 1 if trial % 5 == 0 else int(rng.integers(2, 20))
            H, D, bins = int(rng.integers(1, 10)), int(rng.integers(1, 5)), int(rng.integers(2, 7))
            cfg = ScorerConfig(feature_dim=D, recurrent_layers=L, hidden_dim=H,
                               histogram=HistogramConfig(bins=bins))
            model = ScorerModel.init(cfg, seed=trial)
            h0 = [rng.normal(0, 1, H) for _ in range(L)] if trial % 2 else None
            cache = model.forward(rng.normal(0, 1, (T, D)), h0)
            state, step, step_mask, sub, sub_mask = random_targets(rng, T, bins)
            if trial % 4 == 0:
                step_mask = np.zeros(T, dtype=bool)
            if trial % 6 == 0:
                sub_mask = np.zeros(T, dtype=bool)
            yield model, cache, h0, (state, step, step_mask, sub, sub_mask)

    def test_backward_matches_time_major(self):
        for model, cache, h0, targets in self.cases():
            _, d_logits = model.window_loss(cache, *targets)
            grads = model.backward(cache, d_logits, h0)
            ref = time_major_backward(model, cache, d_logits, h0)
            assert grads.keys() == ref.keys()
            for name in ref:
                np.testing.assert_allclose(grads[name], ref[name], rtol=1e-12,
                                           atol=1e-12 * np.abs(ref[name]).max(), err_msg=name)

    def test_backward_adds_into_accumulator_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for model, cache, h0, targets in self.cases():
            _, d_logits = model.window_loss(cache, *targets)
            fresh = model.backward(cache, d_logits, h0)
            ref = dict_backward(model, cache, d_logits, h0)
            assert fresh.keys() == ref.keys() == model.params.keys()
            acc = {k: rng.normal(0, 1, v.shape) for k, v in model.params.items()}
            want = {k: acc[k] + fresh[k] for k in acc}
            assert model.backward(cache, d_logits, h0, into=acc) is acc
            for name in ref:
                assert np.array_equal(fresh[name], ref[name]), name
                assert np.array_equal(acc[name], want[name]), name

    def test_window_loss_matches_per_frame(self):
        for model, cache, _, targets in self.cases():
            loss, d_logits = model.window_loss(cache, *targets)
            ref_loss, ref_d = per_frame_window_loss(model, cache, *targets)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            assert d_logits.keys() == ref_d.keys()
            for name in ref_d:
                np.testing.assert_allclose(d_logits[name], ref_d[name], rtol=1e-12, err_msg=name)

    def test_window_loss_checks_target_shapes(self):
        cfg = small_cfg()
        model = ScorerModel.init(cfg, seed=0)
        rng = np.random.default_rng(2)
        cache = model.forward(rng.normal(0, 1, (4, 3)))
        state, step, step_mask, sub, sub_mask = random_targets(rng, 4, 5)
        for bad in (
            (state[:3], step, step_mask, sub, sub_mask),
            (state, step[:, :4], step_mask, sub, sub_mask),
            (state, step, step_mask[:3], sub, sub_mask),
            (state, step, step_mask, sub[:3], sub_mask),
        ):
            with pytest.raises(ValueError):
                model.window_loss(cache, *bad)


class TestBlock:
    """Training's time-major (T, B) blocks against the (T, ·) window path.
    Columns are videos; a column whose video ends early is padded at its end
    with rows that are in no mask."""

    @staticmethod
    def block_case(rng, L, H, D=3, bins=5, lengths=(7, 4, 7)):
        cfg = ScorerConfig(feature_dim=D, recurrent_layers=L, hidden_dim=H, histogram=HistogramConfig(bins=bins))
        model = ScorerModel.init(cfg, seed=L * H)
        T, B = max(lengths), len(lengths)
        feats, frames = np.zeros((T, B, D)), np.arange(T)[:, None] < np.array(lengths)
        feats[frames] = rng.normal(0, 1, (frames.sum(), D))
        state, step, step_mask, sub, sub_mask = random_targets(rng, T * B, bins)
        targets = (state.reshape(T, B), step.reshape(T, B, bins), (step_mask.reshape(T, B) & frames),
                   sub.reshape(T, B, bins), (sub_mask.reshape(T, B) & frames))
        h0 = [rng.normal(0, 0.5, (B, H)) for _ in range(L)]
        return model, feats, frames, targets, h0

    def test_forward_block_matches_forward_per_column(self):
        rng = np.random.default_rng(21)
        for L in (1, 2, 3):
            model, feats, _, _, h0 = self.block_case(rng, L, H=7)
            block = model.forward_block(feats, h0)
            for b in range(feats.shape[1]):
                window = model.forward(feats[:, b], [h[b] for h in h0])
                for key in ("hidden", "state_logits", "step_logits", "sub_logits"):
                    got = block[key][:, :, b] if key == "hidden" else block[key][:, b]
                    np.testing.assert_allclose(got, window[key], rtol=1e-12, atol=1e-12, err_msg=key)
                for got, want in zip(block["h_last"], window["h_last"]):
                    np.testing.assert_allclose(got[b], want, rtol=1e-12, atol=1e-12)

    def test_window_loss_per_column_and_zero_on_padding(self):
        rng = np.random.default_rng(22)
        model, feats, frames, targets, h0 = self.block_case(rng, 2, H=5)
        cache = model.forward_block(feats, h0)
        loss, d_logits = model.window_loss(cache, *targets, frames=frames)
        assert loss.shape == (feats.shape[1],)
        for b, n in enumerate(frames.sum(axis=0)):
            column = {k: cache[k][:n, b] for k in ("state_logits", "step_logits", "sub_logits")}
            want, want_d = model.window_loss(column, *(t[:n, b] for t in targets))
            assert loss[b] == pytest.approx(want, rel=1e-12)
            for name in want_d:
                np.testing.assert_allclose(d_logits[name][:n, b], want_d[name], rtol=1e-12, err_msg=name)
                assert not d_logits[name][n:, b].any(), name

    @pytest.mark.parametrize("H", [32, 256, 768])
    def test_one_column_block_backward_equals_window_bit_for_bit(self, H):
        # The carry of a one-column block is a (1, H) @ wh, which BLAS
        # computes as the window's gemv; every GEMM sees the same rows.
        rng = np.random.default_rng(H)
        model, feats, frames, targets, h0 = self.block_case(rng, 3, H, lengths=(6,))
        cache = model.forward_block(feats, h0)
        _, d_logits = model.window_loss(cache, *targets, frames=frames)
        window = {"features": cache["features"][:, 0], "hidden": cache["hidden"][:, :, 0]}
        got = model.backward(cache, d_logits, h0)
        want = model.backward(window, {k: v[:, 0] for k, v in d_logits.items()}, [h[0] for h in h0])
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    def test_block_gradcheck(self):
        rng = np.random.default_rng(23)
        for L in (1, 2, 3):
            model, feats, frames, targets, h0 = self.block_case(rng, L, H=4)
            cache = model.forward_block(feats, h0)
            _, d_logits = model.window_loss(cache, *targets, frames=frames)
            grads = model.backward(cache, d_logits, h0)

            def loss_fn():
                return model.window_loss(model.forward_block(feats, h0), *targets, frames=frames)[0].sum()

            for name, param in model.params.items():
                assert relative_error(grads[name], numeric_gradient(loss_fn, param)) < 1e-6, name


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        model = ScorerModel.init(small_cfg(), seed=9)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = ScorerModel.load(path)
        assert loaded.cfg.hidden_dim == model.cfg.hidden_dim
        assert loaded.cfg.histogram == model.cfg.histogram
        for k in model.params:
            np.testing.assert_array_equal(model.params[k], loaded.params[k])
        feats = np.random.default_rng(1).normal(0, 1, (5, 3))
        a = infer_scores(model, feats, np.arange(len(feats), dtype=float))
        b = infer_scores(loaded, feats, np.arange(len(feats), dtype=float))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.state_probs, y.state_probs)

    def test_meta_is_plain_strings(self, tmp_path):
        # Readable without pickle, and by loaders that take dict(meta.tolist()).
        path = tmp_path / "model.npz"
        ScorerModel.init(small_cfg(), seed=9).save(path)
        with np.load(path, allow_pickle=False) as data:
            assert data["__meta__"].dtype.kind == "U"
            meta = dict(data["__meta__"].tolist())
        assert meta == {"feature_dim": "3", "recurrent_layers": "2", "hidden_dim": "6",
                        "bins": "5", "sigma": repr(HistogramConfig().sigma)}

    def test_pickled_meta_of_older_files_refused_naming_file(self, tmp_path):
        model = ScorerModel.init(small_cfg(), seed=9)
        cfg = model.cfg
        meta = dict(feature_dim=cfg.feature_dim, recurrent_layers=cfg.recurrent_layers,
                    hidden_dim=cfg.hidden_dim, bins=cfg.histogram.bins, sigma=cfg.histogram.sigma)
        path = tmp_path / "model.npz"
        np.savez(path, __meta__=np.array(list(meta.items()), dtype=object), **model.params)
        with pytest.raises(ValueError, match="save the model again") as caught:
            ScorerModel.load(path)
        assert str(caught.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("wh1"), "parameter wh1 is missing"),
        (lambda p: p.update(wh1=np.eye(5)), r"parameter wh1 is float64 \(5, 5\), the meta implies float64 \(6, 6\)"),
        (lambda p: p.update(wh1=np.eye(6, dtype=np.int64)), r"parameter wh1 is int64 \(6, 6\)"),
        (lambda p: p["wh1"].__setitem__((2, 3), np.nan), "parameter wh1 holds a non-finite value"),
        (lambda p: p.update(wh2=np.eye(6)), "parameter wh2 is not one of this model's"),
    ], ids=["missing", "shape", "dtype", "nan", "extra"])
    def test_parameters_not_matching_meta_refused_naming_file(self, tmp_path, edit, message):
        model = ScorerModel.init(small_cfg(), seed=9)
        edit(model.params)
        path = tmp_path / "model.npz"
        model.save(path)
        with pytest.raises(ValueError, match=message) as caught:
            ScorerModel.load(path)
        assert str(caught.value).startswith(f"{path}: ")

    @staticmethod
    def saved_with_meta(tmp_path, **edits):
        """A saved small model whose meta entries are replaced by ``edits``,
        None removing one."""
        model = ScorerModel.init(small_cfg(), seed=9)
        path = tmp_path / "model.npz"
        model.save(path)
        with np.load(path) as data:
            meta = dict(data["__meta__"].tolist())
        meta.update(edits)
        meta = np.array([(k, v) for k, v in meta.items() if v is not None])
        np.savez(path, __meta__=meta, **model.params)
        return path

    def test_missing_meta_refused_naming_file(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, **ScorerModel.init(small_cfg()).params)
        with pytest.raises(ValueError, match="no __meta__ entry") as caught:
            ScorerModel.load(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_meta_without_a_key_refused_naming_file(self, tmp_path):
        path = self.saved_with_meta(tmp_path, recurrent_layers=None)
        with pytest.raises(ValueError, match="meta has no recurrent_layers") as caught:
            ScorerModel.load(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_non_integer_hidden_dim_refused_naming_file(self, tmp_path):
        path = self.saved_with_meta(tmp_path, hidden_dim="6.5")
        with pytest.raises(ValueError, match="bad meta: invalid literal for int.*'6.5'") as caught:
            ScorerModel.load(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_meta_the_config_refuses_named_by_file(self, tmp_path):
        path = self.saved_with_meta(tmp_path, sigma="0.0")
        with pytest.raises(ValueError, match="bad meta: sigma must be positive, got 0.0") as caught:
            ScorerModel.load(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_non_finite_sigma_refused_naming_file(self, tmp_path):
        path = self.saved_with_meta(tmp_path, sigma="nan")
        with pytest.raises(ValueError, match="bad meta: sigma must be positive, got nan") as caught:
            ScorerModel.load(path)
        assert str(caught.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("content", [b"", b"not an archive", b"PK\x03\x04", "npy"],
                             ids=["empty", "text", "zip-magic-only", "npy"])
    def test_file_that_is_no_archive_refused_naming_file(self, tmp_path, content):
        path = tmp_path / "model.npz"
        if content == "npy":  # one plain array, which np.load returns without an archive
            with path.open("wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            path.write_bytes(content)
        with pytest.raises(ValueError) as caught:
            ScorerModel.load(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_archive_flagged_encrypted_refused_naming_file(self, tmp_path):
        path = tmp_path / "model.npz"
        ScorerModel.init(small_cfg()).save(path)
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"PK\x01\x02") + 8] |= 1  # the first central-directory entry's encryption bit
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="encrypted") as caught:
            ScorerModel.load(path)
        assert str(caught.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("savez", [np.savez, np.savez_compressed], ids=["stored", "compressed"])
    def test_damaged_archive_refused_naming_file(self, tmp_path, savez):
        # Seeded mutations of a saved h=8 model: every fourth one truncated,
        # the rest with 1-7 random bytes overwritten. Each is refused with a
        # ValueError that names the file, or, where it hit only zip fields
        # that no reader checks, loads the very same weights.
        model = ScorerModel.init(small_cfg(hidden_dim=8), seed=9)
        clean = tmp_path / "clean.npz"
        model.save(clean)
        with np.load(clean) as data:
            savez(clean, **{k: data[k] for k in data.files})
        raw = clean.read_bytes()
        rng = np.random.default_rng(33)
        refused = 0
        for i in range(400):
            mutated = bytearray(raw)
            if i % 4 == 0:
                del mutated[int(rng.integers(len(raw))):]
            else:
                for _ in range(int(rng.integers(1, 8))):
                    mutated[int(rng.integers(len(raw)))] = int(rng.integers(256))
            path = tmp_path / f"model{i}.npz"
            path.write_bytes(mutated)
            try:
                loaded = ScorerModel.load(path)
            except ValueError as e:
                assert str(e).startswith(f"{path}: "), str(e)
                refused += 1
                continue
            for k in model.params:
                np.testing.assert_array_equal(loaded.params[k], model.params[k])
        assert refused > 380

    def test_crafted_meta_refused_without_running_it(self, tmp_path):
        marker = tmp_path / "ran"

        class Payload:
            def __reduce__(self):
                return exec, (f"open({str(marker)!r}, 'w').close()",)

        path = tmp_path / "model.npz"
        np.savez(path, __meta__=np.array([Payload()], dtype=object),
                 **ScorerModel.init(small_cfg()).params)
        with pytest.raises(ValueError) as caught:
            ScorerModel.load(path)
        assert str(caught.value).startswith(f"{path}: ")
        assert not marker.exists()
        np.load(path, allow_pickle=True)["__meta__"]  # an unrestricted load does run it
        assert marker.exists()


def test_config_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        ScorerConfig(feature_dim=0)
    with pytest.raises(ValueError):
        ScorerConfig(feature_dim=4, hidden_dim=-1)


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0), ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("weight_decay", -0.01), ("weight_decay", float("nan")),
])
def test_config_rejects_bad_rates(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        ScorerConfig(feature_dim=4, **{field: value})
