"""Differential tests: the batched net core against the per-example
reference in ``net_reference``.

Floating-point sums run in a different order in the two (stacked-kernel
conv, matrix-matrix dense layers), so values are compared at rtol 1e-12,
with an absolute floor of 1e-12 times the tensor's largest magnitude for
entries that cancel to near zero. Argmax indices and dropout masks are
compared exactly.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import net_reference as ref
from bookpred import net
from bookpred.corpus import SuccessLabel
from bookpred.net import ModelConfig

RTOL = 1e-12


def assert_close(actual, desired):
    desired = np.asarray(desired)
    floor = RTOL * np.abs(desired).max() if desired.size else 0.0
    np.testing.assert_allclose(actual, desired, rtol=RTOL, atol=floor)


@st.composite
def cases(draw):
    """(config, n_books, batch_size, repeated_rows, seed)."""
    if draw(st.booleans()):
        n_chunks = draw(st.integers(1, 9))
        windows = draw(st.lists(st.integers(1, n_chunks), min_size=1, max_size=3, unique=True))
        cfg = ModelConfig(
            input_dim=draw(st.integers(1, 9)),
            window_sizes=tuple(windows),
            filters_per_window=draw(st.integers(1, 4)),
            hidden_units=draw(st.integers(1, 6)),
            dropout_p=draw(st.sampled_from((0.0, 0.6))),
            n_chunks=n_chunks,
            use_readability=draw(st.booleans()),
        )
    else:
        cfg = net.init_params(ModelConfig(input_dim=draw(st.integers(1, 9)), arch="book2vec",
                                          hidden_units=draw(st.integers(1, 6))), seed=0).config
    return (cfg, draw(st.integers(1, 7)), draw(st.integers(1, 4)), draw(st.booleans()),
            draw(st.integers(0, 2**16)))


CNN_WINDOW_1 = ModelConfig(input_dim=6, window_sizes=(1, 3), filters_per_window=3,
                           hidden_units=5, dropout_p=0.6, n_chunks=8, use_readability=True)
CNN_PLAIN = ModelConfig(input_dim=5, window_sizes=(2,), filters_per_window=2,
                        hidden_units=4, dropout_p=0.0, n_chunks=4, use_readability=False)
BOOK2VEC = net.init_params(
    ModelConfig(input_dim=7, arch="book2vec", hidden_units=3), seed=0
).config


def make_inputs(cfg, n_books, seed):
    rng = np.random.default_rng(seed)
    params = net.init_params(cfg, seed=seed)
    for name, tensor in params.tensors():  # biases off zero, as in fd.py
        if name.endswith("_b") or name.endswith("_bias"):
            tensor += rng.standard_normal(tensor.shape) * 0.1
    shape = (cfg.input_dim,) if cfg.arch == "book2vec" else (cfg.n_chunks, cfg.input_dim)
    x = rng.standard_normal((n_books,) + shape)
    r = rng.standard_normal((n_books, net.N_READABILITY)) if cfg.use_readability else None
    labels = [SuccessLabel.SUCCESSFUL if v else SuccessLabel.UNSUCCESSFUL
              for v in rng.integers(0, 2, n_books)]
    return params, x, r, labels, rng


@settings(max_examples=80, derandomize=True, deadline=None)
@given(cases())
@example((CNN_WINDOW_1, 5, 2, False, 1))  # window 1, partial last batch of B = 1
@example((CNN_PLAIN, 6, 4, True, 2))  # repeated rows, no readability, no dropout
@example((BOOK2VEC, 3, 1, False, 3))  # book2vec, B = 1
def test_train_steps_match_per_example_reference(case):
    cfg, n_books, batch_size, repeated, seed = case
    params, x, r, labels, rng = make_inputs(cfg, n_books, seed)
    order = rng.permutation(n_books)
    ref_rng = np.random.default_rng(seed + 1)
    new_rng = np.random.default_rng(seed + 1)
    for start in range(0, n_books, batch_size):
        rows = order[start : start + batch_size]
        if repeated:
            rows = rng.integers(0, n_books, len(rows))
        batch_labels = [labels[i] for i in rows]
        ref_logits, ref_caches, ref_grads, ref_d_read = ref.batch_step(
            params, x, r, batch_labels, rows, ref_rng)
        logits, cache = net.forward(params, x, r, train_mode=True, rng=new_rng, rows=rows)
        grads, d_read = net.backward(params, cache, batch_labels)

        assert_close(logits, ref_logits)
        assert_close(cache.pooled, [c.pooled for c in ref_caches])
        for i in range(len(cfg.window_sizes) if cfg.arch == "cnn" else 0):
            assert np.array_equal(cache.argmax[i], [c.argmax[i] for c in ref_caches])
        if ref_caches[0].keep_mask is None:
            assert cache.keep_mask is None
        else:
            assert np.array_equal(cache.keep_mask, [c.keep_mask for c in ref_caches])
        assert grads.keys() == ref_grads.keys()
        for name, g in ref_grads.items():
            assert_close(grads[name], g)
        if cfg.use_readability:
            assert_close(d_read, ref_d_read)
        else:
            assert d_read is None


@settings(max_examples=40, derandomize=True, deadline=None)
@given(cases())
@example((CNN_WINDOW_1, 5, 2, False, 4))
def test_eval_paths_match_per_example_reference(case):
    cfg, n_books, _, _, seed = case
    params, x, r, _, _ = make_inputs(cfg, n_books, seed)
    success = net.label_index(SuccessLabel.SUCCESSFUL)
    preds = net.predict(params, x, r)
    assert len(preds) == n_books
    for i, (label, prob) in enumerate(preds):
        ri = None if r is None else r[i]
        logits, cache = ref.forward(params, x[i], ri, train_mode=False, rng=None)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        assert label is (SuccessLabel.SUCCESSFUL if p[success] >= p[1 - success]
                         else SuccessLabel.UNSUCCESSFUL)
        assert_close(prob, p.max())
        single_label, single_prob = net.predict(params, x[i], ri)
        assert single_label is label
        assert_close(single_prob, prob)
        if cfg.use_readability:
            d_logit = np.zeros(2)
            d_logit[success] = 1.0
            _, expected = ref.backward_from_dlogits(params, cache, d_logit)
            assert_close(net.readability_output_gradient(params, x, r)[i], expected)
