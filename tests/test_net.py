import math

import numpy as np
import pytest

from fd import gradcheck_model

from bookpred import net
from bookpred.corpus import SuccessLabel
from bookpred.net import AdamState, ModelConfig, adam_step, init_params
from bookpred.readability import ReadabilityScaler


def small_config(**overrides):
    defaults = dict(
        input_dim=8,
        window_sizes=(2, 3),
        filters_per_window=3,
        hidden_units=6,
        dropout_p=0.0,
        n_chunks=10,
        use_readability=True,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


class TestInitParams:
    def test_deterministic(self):
        cfg = small_config()
        a = init_params(cfg, seed=5)
        b = init_params(cfg, seed=5)
        for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_seed_changes_weights(self):
        cfg = small_config()
        a = init_params(cfg, seed=5)
        b = init_params(cfg, seed=6)
        assert not np.array_equal(a.dense1_w, b.dense1_w)

    def test_default_fused_width(self):
        cfg = ModelConfig(input_dim=512)
        assert cfg.pooled_dim == 80
        assert cfg.fused_dim == 85  # 4 windows x 20 filters + 5 scores

    def test_biases_exactly_zero(self):
        params = init_params(small_config(), seed=1)
        for name, tensor in params.tensors():
            if name.endswith("_b") or name.endswith("_bias"):
                assert np.all(tensor == 0.0)

    def test_shapes(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        assert params.conv_kernels[0].shape == (3, 2, 8)
        assert params.conv_kernels[1].shape == (3, 3, 8)
        assert params.dense1_w.shape == (6, 3 * 2 + 5)
        assert params.dense2_w.shape == (2, 6)

    def test_window_larger_than_chunks_rejected(self):
        with pytest.raises(ValueError):
            small_config(window_sizes=(2, 11))


class TestForward:
    def test_zero_input_logits_equal_output_bias(self):
        cfg = small_config(use_readability=False)
        params = init_params(cfg, seed=2)
        params.dense2_b = np.array([0.3, -0.7])
        logits, cache = net.forward(params, np.zeros((10, 8)), train_mode=False)
        assert cache is None
        assert np.allclose(logits, [0.3, -0.7])

    def test_eval_mode_ignores_rng(self):
        cfg = small_config(dropout_p=0.6)
        params = init_params(cfg, seed=3)
        x = np.random.default_rng(0).standard_normal((10, 8))
        r = np.random.default_rng(1).standard_normal(5)
        l1, _ = net.forward(params, x, r, train_mode=False, rng=np.random.default_rng(11))
        l2, _ = net.forward(params, x, r, train_mode=False, rng=np.random.default_rng(99))
        assert np.array_equal(l1, l2)

    def test_train_mode_returns_cache(self):
        cfg = small_config()
        params = init_params(cfg, seed=3)
        x = np.random.default_rng(0).standard_normal((10, 8))
        r = np.zeros(5)
        _, cache = net.forward(params, x, r, train_mode=True)
        assert cache is not None
        assert cache.pooled.shape == (6,)

    def test_positive_homogeneity_of_one_filter(self):
        cfg = small_config(use_readability=False)
        params = init_params(cfg, seed=4)
        x = np.random.default_rng(2).standard_normal((10, 8))
        _, cache = net.forward(params, x, train_mode=True)
        base = cache.pooled.copy()
        doubled = params.copy()
        doubled.conv_kernels[0][1] *= 2.0
        doubled.conv_biases[0][1] *= 2.0
        _, cache2 = net.forward(doubled, x, train_mode=True)
        if base[1] > 0:
            assert cache2.pooled[1] == pytest.approx(2.0 * base[1])
        other = [i for i in range(6) if i != 1]
        assert np.allclose(cache2.pooled[other], base[other])

    def test_dimension_mismatch_rejected(self):
        params = init_params(small_config(), seed=0)
        with pytest.raises(ValueError):
            net.forward(params, np.zeros((10, 9)), np.zeros(5))
        with pytest.raises(ValueError):
            net.forward(params, np.zeros((9, 8)), np.zeros(5))

    def test_readability_required_iff_configured(self):
        with_r = init_params(small_config(use_readability=True), seed=0)
        without_r = init_params(small_config(use_readability=False), seed=0)
        x = np.zeros((10, 8))
        with pytest.raises(ValueError):
            net.forward(with_r, x)
        with pytest.raises(ValueError):
            net.forward(without_r, x, np.zeros(5))

    def test_max_pool_tie_breaks_to_lowest_index(self):
        cfg = small_config(window_sizes=(1,), filters_per_window=1, use_readability=False)
        params = init_params(cfg, seed=0)
        params.conv_kernels[0][:] = 0.0
        params.conv_kernels[0][0, 0, 0] = 1.0
        x = np.zeros((10, 8))
        x[:, 0] = [1.0, 3.0, 3.0, 0.0, 3.0, 0, 0, 0, 0, 0]
        _, cache = net.forward(params, x, train_mode=True)
        assert cache.argmax[0][0] == 1

    def test_window_size_one_is_chunk_permutation_invariant(self):
        cfg = small_config(window_sizes=(1,), filters_per_window=4, use_readability=False)
        params = init_params(cfg, seed=6)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 8))
        _, c1 = net.forward(params, x, train_mode=True)
        _, c2 = net.forward(params, x[rng.permutation(10)], train_mode=True)
        assert np.allclose(np.sort(c1.pooled), np.sort(c2.pooled))
        assert np.allclose(c1.pooled, c2.pooled)


class TestDropout:
    def test_inverted_dropout_preserves_expectation(self):
        # 10,000 masks put the sampling noise right around the 2% band,
        # so the mask stream is pinned to a seed with margin
        cfg = small_config(dropout_p=0.6, use_readability=False)
        params = init_params(cfg, seed=9)
        x = np.abs(np.random.default_rng(3).standard_normal((10, 8))) + 0.5
        _, ref = net.forward(params, x, train_mode=True, rng=np.random.default_rng(0))
        pooled = ref.pooled
        rng = np.random.default_rng(8)
        total = np.zeros_like(pooled)
        n = 10_000
        for _ in range(n):
            _, cache = net.forward(params, x, train_mode=True, rng=rng)
            total += cache.fused
        mean = total / n
        big = np.abs(pooled) > 0.05
        assert big.any()
        assert np.all(np.abs(mean[big] - pooled[big]) <= 0.02 * np.abs(pooled[big]))

    def test_train_mode_with_dropout_needs_rng(self):
        params = init_params(small_config(dropout_p=0.5, use_readability=False), seed=0)
        with pytest.raises(ValueError):
            net.forward(params, np.zeros((10, 8)), train_mode=True, rng=None)


class TestLoss:
    def test_uniform_logits(self):
        assert net.loss(np.zeros(2), SuccessLabel.SUCCESSFUL) == pytest.approx(math.log(2))
        assert net.loss(np.zeros(2), SuccessLabel.UNSUCCESSFUL) == pytest.approx(math.log(2))

    def test_confident_correct_is_near_zero(self):
        assert net.loss(np.array([20.0, -20.0]), SuccessLabel.UNSUCCESSFUL) < 1e-12

    def test_shift_invariance(self):
        for z in (-50.0, 0.0, 123.0):
            a = net.loss(np.array([z, z + 1.7]), SuccessLabel.SUCCESSFUL)
            b = net.loss(np.array([0.0, 1.7]), SuccessLabel.SUCCESSFUL)
            assert a == pytest.approx(b)

    def test_extreme_logits_stable(self):
        val = net.loss(np.array([1000.0, -1000.0]), SuccessLabel.SUCCESSFUL)
        assert np.isfinite(val)
        assert val == pytest.approx(2000.0)


class TestBackward:
    def test_gradcheck_no_dropout(self):
        cfg = small_config()
        assert gradcheck_model(cfg, seed=11) < 1e-4

    def test_gradcheck_with_dropout(self):
        cfg = small_config(dropout_p=0.6)
        assert gradcheck_model(cfg, seed=12, dropout_seed=55) < 1e-4

    def test_gradcheck_without_readability(self):
        cfg = small_config(use_readability=False)
        assert gradcheck_model(cfg, seed=13) < 1e-4

    def test_gradcheck_book2vec(self):
        cfg = ModelConfig(
            input_dim=7,
            arch="book2vec",
            window_sizes=(),
            filters_per_window=0,
            hidden_units=5,
            dropout_p=0.0,
            n_chunks=1,
            use_readability=False,
        )
        assert gradcheck_model(cfg, seed=14) < 1e-4

    def test_dead_relu_paths_get_zero_gradient(self):
        cfg = small_config(window_sizes=(2,), filters_per_window=2, use_readability=False)
        params = init_params(cfg, seed=15)
        # force filter 0 to always be negative pre-ReLU
        params.conv_kernels[0][0] = 0.0
        params.conv_biases[0][0] = -5.0
        x = np.random.default_rng(4).standard_normal((10, 8))
        _, cache = net.forward(params, x, train_mode=True)
        grads, _ = net.backward(params, cache, SuccessLabel.SUCCESSFUL)
        assert np.all(grads["conv2_kernel"][0] == 0.0)
        assert grads["conv2_bias"][0] == 0.0

    def test_readability_gradient_matches_dense_chain(self):
        cfg = small_config()
        params = init_params(cfg, seed=16)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 8))
        r = rng.standard_normal(5)
        _, cache = net.forward(params, x, r, train_mode=True)
        grads, d_read = net.backward(params, cache, SuccessLabel.UNSUCCESSFUL)
        probs = np.exp([-net.loss(net.forward(params, x, r)[0], lbl) for lbl in
                        (SuccessLabel.UNSUCCESSFUL, SuccessLabel.SUCCESSFUL)])
        dlogits = probs.copy()
        dlogits[0] -= 1.0
        dz1 = (params.dense2_w.T @ dlogits) * (cache.z1 > 0)
        expected = (params.dense1_w.T @ dz1)[-5:]
        assert np.allclose(d_read, expected)


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        cfg = small_config(use_readability=False)
        params = init_params(cfg, seed=17)
        state = AdamState.zeros(params)
        grads = {name: np.full_like(t, 0.25) for name, t in params.tensors()}
        grads["dense1_w"][0, 0] = -0.5
        new_params, new_state = adam_step(params, grads, state)
        assert new_state.t == 1
        for (name, before), (_, after) in zip(params.tensors(), new_params.tensors()):
            delta = after - before
            expected = -net.ADAM_LR * np.sign(grads[name])
            assert np.all(np.abs(delta - expected) < 1e-6)

    def test_zero_gradient_leaves_params(self):
        params = init_params(small_config(), seed=18)
        state = AdamState.zeros(params)
        grads = {name: np.zeros_like(t) for name, t in params.tensors()}
        new_params, new_state = adam_step(params, grads, state)
        assert new_state.t == 1
        for (_, before), (_, after) in zip(params.tensors(), new_params.tensors()):
            assert np.array_equal(before, after)

    def test_deterministic_trajectory(self):
        cfg = small_config(use_readability=False)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 8))

        def run():
            params = init_params(cfg, seed=19)
            state = AdamState.zeros(params)
            for _ in range(5):
                _, cache = net.forward(params, x, train_mode=True)
                grads, _ = net.backward(params, cache, SuccessLabel.SUCCESSFUL)
                params, state = adam_step(params, grads, state)
            return params

        a, b = run(), run()
        for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_moment_shapes_match_params(self):
        params = init_params(small_config(), seed=20)
        state = AdamState.zeros(params)
        for name, tensor in params.tensors():
            assert state.m[name].shape == tensor.shape
            assert state.v[name].shape == tensor.shape

    def test_hyperparameter_defaults(self):
        assert net.ADAM_LR == pytest.approx(0.0009)
        assert net.ADAM_BETA1 == pytest.approx(0.9)
        assert net.ADAM_BETA2 == pytest.approx(0.999)
        assert net.ADAM_EPS == pytest.approx(1e-8)


class TestPredict:
    def test_tie_goes_to_successful(self):
        cfg = small_config(use_readability=False)
        params = init_params(cfg, seed=21)
        for name, tensor in params.tensors():
            tensor[:] = 0.0
        label, prob = net.predict(params, np.zeros((10, 8)))
        assert label is SuccessLabel.SUCCESSFUL
        assert prob == pytest.approx(0.5)

    def test_softmax_probability(self):
        cfg = small_config(use_readability=False)
        params = init_params(cfg, seed=22)
        for name, tensor in params.tensors():
            tensor[:] = 0.0
        params.dense2_b = np.array([0.0, math.log(3.0)])
        label, prob = net.predict(params, np.zeros((10, 8)))
        assert label is SuccessLabel.SUCCESSFUL
        assert prob == pytest.approx(0.75)

    def test_deterministic(self):
        cfg = small_config()
        params = init_params(cfg, seed=23)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 8))
        r = rng.standard_normal(5)
        assert net.predict(params, x, r) == net.predict(params, x, r)


class TestBook2Vec:
    def test_zero_input_zero_logits(self):
        params = init_params(ModelConfig(input_dim=16, arch="book2vec", hidden_units=50), seed=0)
        logits, _ = net.forward(params, np.zeros(16))
        assert np.allclose(logits, 0.0)

    def test_default_hidden_units(self):
        params = init_params(ModelConfig(input_dim=16, arch="book2vec"), seed=0)
        assert params.config.hidden_units == 50
        assert params.dense1_w.shape == (50, 16)

    def test_shares_optimizer_machinery(self):
        params = init_params(ModelConfig(input_dim=6, arch="book2vec", hidden_units=4), seed=1)
        state = AdamState.zeros(params)
        x = np.random.default_rng(8).standard_normal(6)
        _, cache = net.forward(params, x, train_mode=True)
        grads, _ = net.backward(params, cache, SuccessLabel.UNSUCCESSFUL)
        new_params, _ = adam_step(params, grads, state)
        assert not np.array_equal(new_params.dense1_w, params.dense1_w)


class TestReadabilityOutputGradient:
    def test_severed_path_gives_exact_zero(self):
        cfg = small_config()
        params = init_params(cfg, seed=24)
        params.dense1_w[:, -5:] = 0.0
        x = np.random.default_rng(9).standard_normal((10, 8))
        grad = net.readability_output_gradient(params, x, np.zeros(5))
        assert np.all(grad == 0.0)

    def test_matches_finite_differences_logit_and_probability(self):
        cfg = small_config()
        params = init_params(cfg, seed=25)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((10, 8))
        r = rng.standard_normal(5)
        success = net.label_index(SuccessLabel.SUCCESSFUL)
        eps = 1e-5

        def outputs(rv):
            logits, _ = net.forward(params, x, rv)
            e = np.exp(logits - logits.max())
            return logits[success], (e / e.sum())[success]

        for target, pick in (("logit", 0), ("probability", 1)):
            grad = net.readability_output_gradient(params, x, r, target=target)
            for i in range(5):
                up = r.copy()
                up[i] += eps
                down = r.copy()
                down[i] -= eps
                numeric = (outputs(up)[pick] - outputs(down)[pick]) / (2 * eps)
                assert grad[i] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_requires_readability_model(self):
        params = init_params(small_config(use_readability=False), seed=26)
        with pytest.raises(ValueError):
            net.readability_output_gradient(params, np.zeros((10, 8)), np.zeros(5))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = small_config()
        params = init_params(cfg, seed=27)
        scaler = ReadabilityScaler(mean=np.arange(5.0), std=np.arange(1.0, 6.0))
        path = tmp_path / "model.bpmd"
        net.save_checkpoint(path, params, scaler, extra={"section": "first:1000"})
        loaded, loaded_scaler, extra = net.load_checkpoint(path)
        assert loaded.config == cfg
        assert extra == {"section": "first:1000"}
        assert np.array_equal(loaded_scaler.mean, scaler.mean)
        assert np.array_equal(loaded_scaler.std, scaler.std)
        for (_, ta), (_, tb) in zip(params.tensors(), loaded.tensors()):
            assert np.allclose(ta, tb, atol=1e-7)  # float32 storage

    def test_no_scaler(self, tmp_path):
        params = init_params(ModelConfig(input_dim=4, arch="book2vec", hidden_units=3), seed=0)
        path = tmp_path / "model.bpmd"
        net.save_checkpoint(path, params)
        _, scaler, _ = net.load_checkpoint(path)
        assert scaler is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bpmd"
        net.save_checkpoint(path, init_params(small_config(), seed=0))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(net.CheckpointError):
            net.load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "model.bpmd"
        net.save_checkpoint(path, init_params(small_config(), seed=0))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(net.CheckpointError):
            net.load_checkpoint(path)

    def test_save_is_deterministic(self, tmp_path):
        params = init_params(small_config(), seed=28)
        a = tmp_path / "a.bpmd"
        b = tmp_path / "b.bpmd"
        net.save_checkpoint(a, params, extra={"k": 1})
        net.save_checkpoint(b, params, extra={"k": 1})
        assert a.read_bytes() == b.read_bytes()
