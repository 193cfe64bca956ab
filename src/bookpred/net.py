"""From-scratch neural classifiers over chunked sentence embeddings.

Two architectures share the parameter container, loss, optimizer, and
checkpoint format:

* ``cnn`` — multi-window 1-D convolution along the chunk axis, ReLU,
  max-over-time pooling per filter, inverted dropout on the pooled
  vector, optional concatenation of the 5 scaled readability scores,
  then a two-layer dense head producing 2 logits;
* ``book2vec`` — the same dense head applied directly to one averaged
  book vector.

``ModelConfig`` is the one model configuration type: its field defaults are
the paper's hyperparameters, ``pipeline.TrainConfig.model`` holds one, and
checkpoints store it. One codec (``LEAF_TYPES``, ``build_config``,
``from_json``) reads every config tree from CLI text and from checkpoint JSON.

Every pass runs batch-first, one array pass per (B, n_chunks, dim)
mini-batch; a single example is the B = 1 case. The convolution is one
matmul per example against all kernels stacked into one matrix, plus
shifted adds per window; backprop gathers the rows at each argmax.

Everything is float64 numpy; backpropagation is exact (gradients are
validated against central finite differences in the test suite).
"""

from __future__ import annotations

import json
import math
import struct
import typing
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .corpus import LABEL_ORDER, SectionSpec, SuccessLabel
from .embedding import write_atomically
from .readability import ReadabilityScaler

__all__ = [
    "ModelConfig",
    "ModelParams",
    "AdamState",
    "ForwardCache",
    "CheckpointError",
    "LEAF_TYPES",
    "build_config",
    "from_json",
    "init_params",
    "forward",
    "loss",
    "backward",
    "adam_step",
    "predict",
    "readability_output_gradient",
    "save_checkpoint",
    "load_checkpoint",
]

N_READABILITY = 5
N_CLASSES = 2


def label_index(label: SuccessLabel) -> int:
    return LABEL_ORDER.index(label)


def _label_indices(labels) -> np.ndarray:
    return np.array([label_index(label) for label in labels], dtype=int)


# The fields a book2vec config fixes: one averaged vector per book goes
# straight into the dense head.
_BOOK2VEC_SHAPE = dict(
    window_sizes=(), filters_per_window=0, dropout_p=0.0, n_chunks=1, use_readability=False
)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; the defaults are the paper's.

    ``input_dim`` 0 means "not known yet": training sets it from the
    featurized inputs, and no tensor can be built before it does. A
    book2vec config is normalised to its fixed shape: no windows, no
    filters, no dropout, one chunk and no readability fusion.
    """

    input_dim: int = 0
    arch: str = "cnn"  # "cnn" | "book2vec"
    window_sizes: tuple[int, ...] = (2, 3, 5, 7)
    filters_per_window: int = 20
    hidden_units: int = 50
    dropout_p: float = 0.6
    n_chunks: int = 50
    use_readability: bool = True

    def __post_init__(self) -> None:
        if self.arch not in ("cnn", "book2vec"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.arch == "book2vec":
            for name, value in _BOOK2VEC_SHAPE.items():
                object.__setattr__(self, name, value)
        if self.input_dim < 0:
            raise ValueError("input_dim must not be negative")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be positive")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError(f"dropout_p {self.dropout_p} outside [0, 1)")
        if self.arch == "cnn":
            if not self.window_sizes:
                raise ValueError("cnn needs at least one window size")
            if min(self.window_sizes) < 1 or len(set(self.window_sizes)) < len(self.window_sizes):
                raise ValueError("window sizes must be positive and distinct")
            if max(self.window_sizes) > self.n_chunks:
                raise ValueError(
                    f"window size {max(self.window_sizes)} exceeds n_chunks {self.n_chunks}"
                )
            if self.filters_per_window < 1:
                raise ValueError("filters_per_window must be positive")

    @property
    def pooled_dim(self) -> int:
        return self.filters_per_window * len(self.window_sizes)

    @property
    def fused_dim(self) -> int:
        """Width of the vector entering the dense head."""
        if self.arch == "book2vec":
            return self.input_dim
        return self.pooled_dim + (N_READABILITY if self.use_readability else 0)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """``asdict`` of a config, read back from JSON by ``from_json``. Every
        field must be present; a violation is a ``ValueError`` naming the key."""
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(d) - set(names))
        missing = [name for name in names if name not in d]
        if unknown or missing:
            raise ValueError(f"model config keys unknown: {unknown}, missing: {missing}")
        return build_config(cls, lambda key, kind: from_json(key, kind, d[key]))


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text.lower() in ("true", "1", "yes")


def _nonempty(text: str) -> str:
    if not text:
        raise ValueError("expected a value, got ''")
    return text


# A config field whose type is a key here is a leaf, any other field a sub-config. Each leaf
# type maps to its key=value text parser and the JSON types its value may be stored as.
LEAF_TYPES = {
    int: (int, (int,)),
    float: (float, (int, float)),
    str: (_nonempty, (str,)),
    bool: (_parse_bool, (bool,)),
    Path | None: (lambda text: Path(_nonempty(text)), (str,)),
    SectionSpec: (SectionSpec.parse, (str,)),
    tuple[int, ...]: (lambda text: tuple(int(w) for w in text.split(",")) if text else (), (list,)),
}


def build_config(cls, read, prefix: str = ""):
    """A ``cls`` whose leaf ``key`` of type ``kind`` is ``read(key, kind)``,
    or its field default when that is None. Each sub-config is built once,
    with all of its values, so its own checks see the final values."""
    values = {}
    for name, kind in typing.get_type_hints(cls).items():
        key = prefix + name
        value = read(key, kind) if kind in LEAF_TYPES else build_config(kind, read, key + ".")
        if value is not None:
            values[name] = value
    return cls(**values)


def from_json(key: str, kind, value):
    """``value`` read from JSON as a ``kind`` leaf: its JSON type must be one
    ``LEAF_TYPES`` allows (a bool is no int), and a list's items are ints. A
    violation is a ``ValueError`` that names ``key``."""
    parse, allowed = LEAF_TYPES[kind]
    if type(value) not in allowed:
        raise ValueError(f"{key} must be {'/'.join(t.__name__ for t in allowed)}, got {value!r}")
    if kind == tuple[int, ...]:
        return tuple(from_json(key, int, item) for item in value)
    try:
        return parse(value) if type(value) is str else value
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


@dataclass
class ModelParams:
    """All trainable tensors, aligned with ``config.window_sizes``."""

    config: ModelConfig
    conv_kernels: list[np.ndarray]  # per window: (filters, w, input_dim)
    conv_biases: list[np.ndarray]  # per window: (filters,)
    dense1_w: np.ndarray  # (hidden_units, fused_dim)
    dense1_b: np.ndarray  # (hidden_units,)
    dense2_w: np.ndarray  # (2, hidden_units)
    dense2_b: np.ndarray  # (2,)

    def tensors(self):
        """Yield (name, array) in fixed declaration order."""
        for w, kernel, bias in zip(
            self.config.window_sizes, self.conv_kernels, self.conv_biases
        ):
            yield f"conv{w}_kernel", kernel
            yield f"conv{w}_bias", bias
        yield "dense1_w", self.dense1_w
        yield "dense1_b", self.dense1_b
        yield "dense2_w", self.dense2_w
        yield "dense2_b", self.dense2_b

    def copy(self) -> "ModelParams":
        return ModelParams.from_tensors(
            self.config, {name: t.copy() for name, t in self.tensors()}
        )

    @classmethod
    def from_tensors(cls, config: ModelConfig, new: dict[str, np.ndarray]) -> "ModelParams":
        kernels = [new[f"conv{w}_kernel"] for w in config.window_sizes]
        biases = [new[f"conv{w}_bias"] for w in config.window_sizes]
        return cls(
            config=config,
            conv_kernels=kernels,
            conv_biases=biases,
            dense1_w=new["dense1_w"],
            dense1_b=new["dense1_b"],
            dense2_w=new["dense2_w"],
            dense2_b=new["dense2_b"],
        )


@dataclass
class ForwardCache:
    """Intermediates of a forward pass, for backprop. Per-example arrays
    lead with a batch axis of length B, squeezed out for a single example."""

    x: np.ndarray  # the input array as given to forward (batch axis first)
    rows: np.ndarray  # (B,) row of x holding each batch example
    argmax: list[np.ndarray]  # per window: (B, filters) max-over-time index
    pooled: np.ndarray  # (B, pooled_dim) concatenated pooled features, pre-dropout
    keep_mask: np.ndarray | None  # (B, pooled_dim) dropout keep mask (train mode, p > 0)
    fused: np.ndarray  # (B, fused_dim) rows entering dense1
    z1: np.ndarray  # (B, hidden_units) dense1 pre-activation
    h: np.ndarray  # (B, hidden_units) dense1 post-ReLU

    def per_example(self, fn) -> "ForwardCache":
        """The cache with ``fn`` applied to every per-example array."""
        return replace(
            self,
            argmax=[fn(a) for a in self.argmax],
            pooled=fn(self.pooled),
            keep_mask=None if self.keep_mask is None else fn(self.keep_mask),
            fused=fn(self.fused),
            z1=fn(self.z1),
            h=fn(self.h),
        )


def _tensor_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every tensor, in ``ModelParams.tensors`` order."""
    if config.input_dim < 1:
        raise ValueError("input_dim must be positive to build tensors")
    shapes: list[tuple[str, tuple[int, ...]]] = []
    if config.arch == "cnn":
        f = config.filters_per_window
        for w in config.window_sizes:
            shapes += [(f"conv{w}_kernel", (f, w, config.input_dim)), (f"conv{w}_bias", (f,))]
    h = config.hidden_units
    shapes += [
        ("dense1_w", (h, config.fused_dim)),
        ("dense1_b", (h,)),
        ("dense2_w", (N_CLASSES, h)),
        ("dense2_b", (N_CLASSES,)),
    ]
    return shapes


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    Each tensor draws from uniform [-a, a] with a = sqrt(6/(fan_in +
    fan_out)), treating a conv kernel as a linear map from its w*dim
    receptive field onto its filters.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in _tensor_shapes(config):
        if len(shape) == 1:  # a bias
            tensors[name] = np.zeros(shape)
        else:
            fan_out, fan_in = shape[0], math.prod(shape[1:])
            a = math.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-a, a, size=shape)
    return ModelParams.from_tensors(config, tensors)


def _as_batch(cfg: ModelConfig, x, readability_scaled, rows):
    """Validate the inputs and give them a batch axis: returns (x, the batch's
    readability rows or None, the rows of x in the batch, whether one example
    was passed)."""
    x = np.asarray(x, dtype=float)
    shape = (cfg.input_dim,) if cfg.arch == "book2vec" else (cfg.n_chunks, cfg.input_dim)
    single = x.ndim == len(shape)
    x = x[None] if single else x
    if x.shape[1:] != shape:
        raise ValueError(f"expected input shape {shape}, got {x.shape[1:]}")
    rows = np.arange(len(x)) if rows is None else np.asarray(rows, dtype=int)
    if (readability_scaled is not None) != cfg.use_readability:
        raise ValueError(
            f"{cfg.arch} model was configured with use_readability={cfg.use_readability}"
        )
    if not cfg.use_readability:
        return x, None, rows, single
    readability = np.asarray(readability_scaled, dtype=float)
    readability = readability[None] if single else readability
    if readability.shape != (len(x), N_READABILITY):
        raise ValueError(
            f"readability vector must have shape ({N_READABILITY},), got {readability.shape[1:]}"
        )
    return x, readability[rows], rows, single


def _forward(params, x, readability, rows, train_mode, rng) -> tuple[np.ndarray, ForwardCache]:
    """(B, 2) logits and the cache for the examples ``x[rows]``."""
    cfg = params.config
    argmax: list[np.ndarray] = []
    keep_mask = None
    if cfg.arch == "book2vec":
        fused = x[rows]
        pooled = np.zeros((len(rows), 0))
    else:
        # (input_dim, sum of w*filters): window w owns w*filters columns,
        # shift s of its filter j in column s*filters + j
        kernels = np.concatenate(
            [k.transpose(1, 0, 2).reshape(-1, k.shape[2]) for k in params.conv_kernels]
        ).T
        # one matmul per example reads x in place; x[rows] would copy the batch
        conv = np.empty((len(rows), cfg.n_chunks, kernels.shape[1]))
        for b, i in enumerate(rows):
            np.matmul(x[i], kernels, out=conv[b])
        pooled_parts = []
        f = cfg.filters_per_window
        col = 0
        for w, bias in zip(cfg.window_sizes, params.conv_biases):
            # window w at time t sums shift s's response at chunk t + s
            t = cfg.n_chunks - w + 1
            pre = conv[:, :t, col : col + f].copy()
            for s in range(1, w):
                pre += conv[:, s : s + t, col + s * f : col + (s + 1) * f]
            pre += bias
            col += w * f
            relu_map = np.maximum(pre, 0.0, out=pre)  # (B, t, filters)
            idx = np.argmax(relu_map, axis=1)  # ties break to the lowest index
            argmax.append(idx)
            pooled_parts.append(np.take_along_axis(relu_map, idx[:, None], axis=1)[:, 0])
        pooled = np.concatenate(pooled_parts, axis=1)

        dropped = pooled
        if train_mode and cfg.dropout_p > 0.0:
            if rng is None:
                raise ValueError("train-mode forward with dropout needs an rng")
            keep_prob = 1.0 - cfg.dropout_p
            # one (B, P) draw is the same stream as B draws of P
            keep_mask = rng.random(pooled.shape) < keep_prob
            dropped = pooled * keep_mask / keep_prob
        fused = dropped if readability is None else np.concatenate([dropped, readability], 1)

    z1 = fused @ params.dense1_w.T + params.dense1_b
    h = np.maximum(z1, 0.0)
    logits = h @ params.dense2_w.T + params.dense2_b
    return logits, ForwardCache(x, rows, argmax, pooled, keep_mask, fused, z1, h)


def forward(
    params: ModelParams,
    x: np.ndarray,
    readability_scaled: np.ndarray | None = None,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Compute the logits; in train mode also return the backprop cache.

    ``x`` is one example, (n_chunks, input_dim) for the cnn or
    (input_dim,) for book2vec, giving 2 logits, or a batch of examples
    along a leading axis, giving (B, 2); ``rows`` picks the batch out of
    ``x`` without copying it. ``readability_scaled`` (the already-scaled
    5-vector per example) is required exactly when the model was built
    with readability fusion. Eval-mode output is a pure function of
    (params, inputs).
    """
    x, readability, rows, single = _as_batch(params.config, x, readability_scaled, rows)
    logits, cache = _forward(params, x, readability, rows, train_mode, rng)
    if single:
        cache = cache.per_example(lambda a: a[0])
    return (logits[0] if single else logits), (cache if train_mode else None)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def loss(logits: np.ndarray, label):
    """Softmax cross-entropy over the 2 logits (natural log),
    log-sum-exp stabilized; for (B, 2) logits and B labels, the B
    per-example losses."""
    logits = np.asarray(logits, dtype=float)
    single = logits.ndim == 1
    batch = logits.reshape(-1, N_CLASSES)
    shifted = batch - batch.max(axis=1, keepdims=True)
    labels = _label_indices([label] if single else label)
    losses = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(len(batch)), labels]
    return float(losses[0]) if single else losses


def _backprop_dense(params: ModelParams, cache: ForwardCache, dlogits: np.ndarray):
    """Per-example gradients on the dense1 pre-activation and on the fused
    rows, from (B, 2) gradients on the logits."""
    dz1 = (dlogits @ params.dense2_w) * (cache.z1 > 0.0)
    return dz1, dz1 @ params.dense1_w


def backward(
    params: ModelParams, cache: ForwardCache, label
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Exact gradients of the cross-entropy loss for every tensor,
    plus the gradient with respect to the readability inputs.

    For a batch, ``label`` holds the B labels, the tensor gradients are
    the batch mean and the readability gradients are per example, (B, 5).
    The cache must come from a train-mode forward on the same params; the
    dropout mask is replayed from it.
    """
    cfg = params.config
    single = cache.h.ndim == 1
    if single:
        cache = cache.per_example(lambda a: a[None])
    labels = _label_indices([label] if single else label)
    dlogits = _softmax(cache.h @ params.dense2_w.T + params.dense2_b)
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dz1, dfused = _backprop_dense(params, cache, dlogits)
    scale = 1.0 / len(labels)
    grads = {
        "dense2_w": (dlogits.T @ cache.h) * scale,
        "dense2_b": dlogits.sum(axis=0) * scale,
        "dense1_w": (dz1.T @ cache.fused) * scale,
        "dense1_b": dz1.sum(axis=0) * scale,
    }
    if cfg.arch == "book2vec":
        return grads, None

    p = cfg.pooled_dim
    d_readability = dfused[:, p:] if cfg.use_readability else None
    dpooled = dfused[:, :p]
    if cache.keep_mask is not None:
        dpooled = dpooled * cache.keep_mask / (1.0 - cfg.dropout_p)
    # Max-over-time routes each filter's gradient to its argmax time step
    # only, and the ReLU gate zeroes it when that step's pre-activation is
    # not positive (exactly when the pooled value is 0), so the kernel
    # gradient gathers one window of input rows per example and filter.
    g_all = dpooled * (cache.pooled > 0.0)
    rows = cache.rows[:, None]
    f = cfg.filters_per_window
    for i, w in enumerate(cfg.window_sizes):
        g = g_all[:, i * f : (i + 1) * f]  # (B, filters)
        kernel = np.empty((f, w, cfg.input_dim))
        for s in range(w):
            kernel[:, s] = np.einsum("bj,bjd->jd", g, cache.x[rows, cache.argmax[i] + s])
        grads[f"conv{w}_kernel"] = kernel * scale
        grads[f"conv{w}_bias"] = g.sum(axis=0) * scale
    return grads, (d_readability[0] if single and d_readability is not None else d_readability)


def readability_output_gradient(
    params: ModelParams,
    x: np.ndarray,
    readability_scaled: np.ndarray,
    target: str = "logit",
) -> np.ndarray:
    """Gradient of the Successful output with respect to the 5 scaled
    readability inputs, in eval mode (no dropout); (B, 5) for a batch.

    ``target="logit"`` differentiates the Successful-class logit;
    ``target="probability"`` differentiates its softmax probability.
    """
    if not params.config.use_readability:
        raise ValueError("model was trained without readability fusion")
    if target not in ("logit", "probability"):
        raise ValueError(f"unknown attribution target {target!r}")
    x, readability, rows, single = _as_batch(params.config, x, readability_scaled, None)
    logits, cache = _forward(params, x, readability, rows, train_mode=False, rng=None)
    success = label_index(SuccessLabel.SUCCESSFUL)
    other = 1 - success
    dlogits = np.zeros_like(logits)
    if target == "logit":
        dlogits[:, success] = 1.0
    else:
        p = _softmax(logits)
        dlogits[:, success] = p[:, success] * (1.0 - p[:, success])
        dlogits[:, other] = -p[:, success] * p[:, other]
    d_readability = _backprop_dense(params, cache, dlogits)[1][:, -N_READABILITY:]
    return d_readability[0] if single else d_readability


# The paper's Adam settings.
ADAM_LR = 0.0009
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moment accumulators, one pair per parameter tensor."""

    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        m = {name: np.zeros_like(t) for name, t in params.tensors()}
        v = {name: np.zeros_like(t) for name, t in params.tensors()}
        return cls(t=0, m=m, v=v)


def adam_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: AdamState
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    t = state.t + 1
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    new_tensors: dict[str, np.ndarray] = {}
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, theta in params.tensors():
        g = grads[name]
        m = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        new_tensors[name] = theta - ADAM_LR * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[name] = m
        new_v[name] = v
    return ModelParams.from_tensors(params.config, new_tensors), AdamState(t, new_m, new_v)


def predict(
    params: ModelParams,
    x: np.ndarray,
    readability_scaled: np.ndarray | None = None,
):
    """Eval-mode prediction: (label, probability of that label); for a
    batch, a list of B such pairs.

    Ties go to Successful, the majority class.
    """
    x, readability, rows, single = _as_batch(params.config, x, readability_scaled, None)
    p = _softmax(_forward(params, x, readability, rows, train_mode=False, rng=None)[0])
    success = label_index(SuccessLabel.SUCCESSFUL)
    preds = [
        (SuccessLabel.SUCCESSFUL, ps) if ps >= po else (SuccessLabel.UNSUCCESSFUL, po)
        for ps, po in zip(p[:, success].tolist(), p[:, 1 - success].tolist())
    ]
    return preds[0] if single else preds


# ----------------------------------------------------------------------
# Checkpoint format: magic BPMD, version u32, u32 JSON length, JSON
# metadata (model config + caller extras), parameter tensors in
# declaration order as little-endian float32, then the readability
# scaler (5 + 5 float64) when present.
# ----------------------------------------------------------------------

CHECKPOINT_MAGIC = b"BPMD"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    scaler: ReadabilityScaler | None = None,
    extra: dict | None = None,
) -> None:
    meta = {
        "config": asdict(params.config),
        "extra": extra or {},
        "has_scaler": scaler is not None,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(meta_bytes))
    parts = [header, meta_bytes]
    parts += [np.asarray(t, dtype="<f4").tobytes() for _, t in params.tensors()]
    if scaler is not None:
        parts += [np.asarray(a, dtype="<f8").tobytes() for a in (scaler.mean, scaler.std)]
    write_atomically(path, parts)


def load_checkpoint(
    path: str | Path,
) -> tuple[ModelParams, ReadabilityScaler | None, dict]:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
    version, meta_len = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    offset = 12
    if len(raw) < offset + meta_len:
        raise CheckpointError(f"{path}: truncated metadata")
    try:
        meta = json.loads(raw[offset : offset + meta_len].decode("utf-8"))
        config = ModelConfig.from_dict(meta["config"])
        has_scaler = from_json("has_scaler", bool, meta["has_scaler"])
        extra = meta["extra"]
        shapes = _tensor_shapes(config)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: bad metadata ({exc})") from None
    if not isinstance(extra, dict):
        raise CheckpointError(f"{path}: bad metadata (extra must be an object, got {extra!r})")
    offset += meta_len

    # The declared config fixes the file length; check it before any
    # tensor is allocated, so an edited shape cannot ask for huge arrays.
    expected = offset + 4 * sum(math.prod(shape) for _, shape in shapes)
    expected += 8 * 2 * N_READABILITY if has_scaler else 0
    if len(raw) != expected:
        raise CheckpointError(
            f"{path}: declared model needs {expected} bytes, file has {len(raw)}"
        )
    tensors: dict[str, np.ndarray] = {}
    for name, shape in shapes:
        count = math.prod(shape)
        values = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: tensor {name} holds NaN or Inf")
        tensors[name] = values.astype(float).reshape(shape)
        offset += 4 * count
    params = ModelParams.from_tensors(config, tensors)

    scaler = None
    if has_scaler:
        mean = np.frombuffer(raw, dtype="<f8", count=N_READABILITY, offset=offset).copy()
        std = np.frombuffer(
            raw, dtype="<f8", count=N_READABILITY, offset=offset + 8 * N_READABILITY
        ).copy()
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise CheckpointError(f"{path}: readability scaler holds NaN, Inf or a std <= 0")
        scaler = ReadabilityScaler(mean=mean, std=std)
    return params, scaler, extra
