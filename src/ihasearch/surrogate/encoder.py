"""From-scratch transformer-encoder regressor (numpy, hand-written gradients).

Architecture: nine per-field scalar lifts into d_enc plus a learned positional
table, four pre-LN blocks (multi-head self-attention over packed layer tokens,
GELU feed-forward), masked mean pooling and a scalar head.  Padding tokens are
invisible: their key columns are masked out of every attention row and the
pool averages active rows only.  Dropout (training and MC inference) hits the
attention probability matrices and the feed-forward outputs, nothing else.

Everything runs in float64; backward passes are exact analytic gradients of
the mean-L1 objective (verified against central finite differences in the
test suite).

Active length.  A padded position adds exact zeros to every output: the -1e30
key bias makes its attention weights 0.0, the pool masks it out, and its
gradients are 0.0.  So forward computes only the first
Lt = min(L, max(24, 8 * ceil(last / 8))) positions of a (B, L) batch, where
last is one past the highest position active in any row, and backward works
from that trimmed cache.  Predictions, losses, gradients and the dropout
generator's state stay identical to the bit to a full-length pass (the test
suite checks this against a full-length reference) because four rules hold:

1. Dropout masks are drawn at the full (B, H, L, L) and (B, L, d) shapes and
   sliced, so the generator's stream does not change.
2. Lt is a multiple of 8.  numpy's contiguous sums unroll by 8, so any other
   length regroups the softmax and dscores row sums.
3. Lt is at least 24.  numpy runs (B, L, K) @ (K, N) as one GEMM per sample
   with M = L rows, and OpenBLAS rounds differently for M <= 18 when the
   weight is transposed.
4. The weight-gradient contractions run over all B * L rows, with the
   trimmed rows scattered into zeros.  OpenBLAS splits K = B * L into
   blocks; dropping interior zero rows would move the block edges.

Within Lt, the GELU's erf (the costliest elementwise op) is evaluated on
active rows only, and padded rows get a CDF of 0.0.  A position's values
reach other positions only as an attention key or value, where its weight is
exactly 0.0, so any finite value leaves every output unchanged.
"""
from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace

import numpy as np
from scipy.special import erf

from .features import FieldNormalizer, N_FIELDS

_LN_EPS = 1e-5
_NEG = -1e30  # additive key-mask bias; exact -inf breaks (0 * -inf) in backward paths
_MIN_ACTIVE = 24  # floor of the computed length; see the module docstring


@dataclass(frozen=True)
class EncoderConfig:
    n_fields: int = N_FIELDS
    d_enc: int = 64
    n_blocks: int = 4
    n_heads: int = 4
    ffn_mult: int = 4
    p_drop: float = 0.2
    max_layers: int = 40

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "p_drop" and (type(v) is not int or v < 1):
                raise ValueError(f"encoder {f.name} must be a positive int, got {v!r}")
        if self.d_enc % self.n_heads:
            raise ValueError(f"n_heads={self.n_heads} must divide d_enc={self.d_enc}")
        if type(self.p_drop) not in (int, float) or not 0.0 <= self.p_drop < 1.0:
            raise ValueError(f"p_drop must be in [0, 1), got {self.p_drop!r}")

    @property
    def d_head(self) -> int:
        return self.d_enc // self.n_heads

    @property
    def d_ffn(self) -> int:
        return self.ffn_mult * self.d_enc


def _gelu_cdf(u: np.ndarray) -> np.ndarray:
    """Standard normal CDF (exact erf form)."""
    return 0.5 * (1.0 + erf(u / np.sqrt(2.0)))


def _gelu(u: np.ndarray) -> np.ndarray:
    return u * _gelu_cdf(u)


def _gelu_cdf_rows(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """_gelu_cdf on the (B,L) rows of u that `rows` selects, 0.0 elsewhere."""
    cdf = np.zeros_like(u)
    cdf[rows] = _gelu_cdf(u[rows])
    return cdf


def _gelu_grad(u: np.ndarray, cdf: np.ndarray | None = None) -> np.ndarray:
    if cdf is None:
        cdf = _gelu_cdf(u)
    phi = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    return cdf + u * phi


def active_length(mask: np.ndarray) -> int:
    """Positions of a (B, L) batch that forward computes: one past the last
    position active in any row, rounded up to a multiple of 8, floored at 24
    and capped at L (see the module docstring for why each step is exact)."""
    L = mask.shape[1]
    last = int(np.flatnonzero(mask.any(axis=0))[-1]) + 1
    return min(L, max(_MIN_ACTIVE, -(-last // 8) * 8))


def _padded(x: np.ndarray, length: int) -> np.ndarray:
    """(B,Lt,d) -> (B,length,d), the positions past Lt filled with zeros:
    the weight-gradient contractions run over every position (rule 4)."""
    B, Lt, d = x.shape
    if Lt == length:
        return x
    out = np.zeros((B, length, d))
    out[:, :Lt] = x
    return out


def _contract(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(B,L,d) x (B,L,e) -> (d,e) weight-gradient contraction as one dgemm."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv)

def _layer_norm_backward(dy: np.ndarray, cache, g: np.ndarray):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=(0, 1))
    db = dy.sum(axis=(0, 1))
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def init_params(config: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    d, f = config.d_enc, config.d_ffn
    p: dict[str, np.ndarray] = {}
    p["lift_w"] = rng.normal(0.0, 0.5, (config.n_fields, d))
    p["lift_b"] = np.zeros((config.n_fields, d))
    p["pos"] = rng.normal(0.0, 0.5, (config.max_layers, d))
    for i in range(config.n_blocks):
        pre = f"b{i}."
        p[pre + "ln1_g"] = np.ones(d)
        p[pre + "ln1_b"] = np.zeros(d)
        for name in ("wq", "wk", "wv", "wo"):
            p[pre + name] = rng.normal(0.0, d ** -0.5, (d, d))
        for name in ("bq", "bk", "bv", "bo"):
            p[pre + name] = np.zeros(d)
        p[pre + "ln2_g"] = np.ones(d)
        p[pre + "ln2_b"] = np.zeros(d)
        p[pre + "w1"] = rng.normal(0.0, d ** -0.5, (d, f))
        p[pre + "b1"] = np.zeros(f)
        p[pre + "w2"] = rng.normal(0.0, f ** -0.5, (f, d))
        p[pre + "b2"] = np.zeros(d)
    p["head_w"] = rng.normal(0.0, d ** -0.5, d)
    p["head_b"] = np.zeros(1)
    return p


def _param_layout(config: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in init_params' and save's order;
    the stand-in generator's normal() draws nothing."""
    no_draw = SimpleNamespace(normal=lambda loc, scale, size: np.broadcast_to(0.0, size))
    return [(name, p.shape) for name, p in init_params(config, no_draw).items()]


class EncoderSurrogate:
    """Bundles config, parameters and the fitted field normalizer."""

    def __init__(self, config: EncoderConfig, params: dict[str, np.ndarray], normalizer: FieldNormalizer | None = None):
        self.config = config
        self.params = params
        self.normalizer = normalizer

    @classmethod
    def init(cls, config: EncoderConfig | None = None, seed: int = 0) -> "EncoderSurrogate":
        config = config or EncoderConfig()
        return cls(config, init_params(config, np.random.default_rng(seed)))

    def param_count(self) -> int:
        return int(sum(v.size for v in self.params.values()))

    def copy(self) -> "EncoderSurrogate":
        norm = None
        if self.normalizer is not None:
            norm = FieldNormalizer(self.normalizer.lo.copy(), self.normalizer.hi.copy())
        return EncoderSurrogate(self.config, {k: v.copy() for k, v in self.params.items()}, norm)

    # --- forward -------------------------------------------------------------

    def _check_inputs(self, tokens: np.ndarray, mask: np.ndarray):
        c = self.config
        if tokens.ndim != 3 or tokens.shape[2] != c.n_fields:
            raise ValueError(f"tokens must be (B, L, {c.n_fields}), got {tokens.shape}")
        if tokens.shape[1] > c.max_layers:
            raise ValueError(f"sequence {tokens.shape[1]} exceeds positional table {c.max_layers}")
        if mask.shape != tokens.shape[:2]:
            raise ValueError(f"mask shape {mask.shape} does not match tokens {tokens.shape[:2]}")
        if (mask.sum(axis=1) < 1).any():
            raise ValueError("every sample needs at least one active token")

    def forward(
        self,
        tokens: np.ndarray,
        mask: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
        want_cache: bool = False,
    ):
        """Predictions (B,) for padded token batches. train=True activates
        dropout and requires an rng; want_cache keeps every intermediate for
        the backward pass.  Only the first active_length(mask) positions are
        computed (see the module docstring)."""
        c = self.config
        p = self.params
        tokens = np.asarray(tokens, dtype=float)
        mask = np.asarray(mask, dtype=float)
        self._check_inputs(tokens, mask)
        dropout = train and c.p_drop > 0
        if dropout and rng is None:
            raise ValueError("training-mode forward needs an rng for dropout")
        B, L, _ = tokens.shape
        keep = 1.0 - c.p_drop if train else 1.0
        Lt = active_length(mask)
        counts = mask.sum(axis=1)
        tokens, mask = tokens[:, :Lt], mask[:, :Lt]
        active = mask != 0

        z = tokens @ p["lift_w"] + p["lift_b"].sum(axis=0) + p["pos"][:Lt]
        key_bias = (1.0 - mask)[:, None, None, :] * _NEG  # (B,1,1,Lt)
        cache: dict = {"tokens": tokens, "mask": mask, "length": L, "blocks": []}
        for i in range(c.n_blocks):
            pre = f"b{i}."
            zh1, ln1c = _layer_norm(z, p[pre + "ln1_g"], p[pre + "ln1_b"])
            bc: dict = {"zh1": zh1, "ln1": ln1c}
            q = (zh1 @ p[pre + "wq"] + p[pre + "bq"]).reshape(B, Lt, c.n_heads, c.d_head).transpose(0, 2, 1, 3)
            k = (zh1 @ p[pre + "wk"] + p[pre + "bk"]).reshape(B, Lt, c.n_heads, c.d_head).transpose(0, 2, 1, 3)
            v = (zh1 @ p[pre + "wv"] + p[pre + "bv"]).reshape(B, Lt, c.n_heads, c.d_head).transpose(0, 2, 1, 3)
            scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(c.d_head) + key_bias
            shifted = scores - scores.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            probs = e / e.sum(axis=-1, keepdims=True)
            if dropout:
                # drawn at the full length so the generator's stream is unchanged
                draw = rng.random((B, c.n_heads, L, L))[:, :, :Lt, :Lt]
                dm = (draw >= c.p_drop).astype(float)
                probs_used = probs * dm / keep
            else:
                dm = None
                probs_used = probs
            o = (probs_used @ v).transpose(0, 2, 1, 3).reshape(B, Lt, c.d_enc)
            attn_out = o @ p[pre + "wo"] + p[pre + "bo"]
            h = z + attn_out
            bc.update(q=q, k=k, v=v, probs=probs, probs_used=probs_used, attn_drop=dm, o=o)

            zh2, ln2c = _layer_norm(h, p[pre + "ln2_g"], p[pre + "ln2_b"])
            u = zh2 @ p[pre + "w1"] + p[pre + "b1"]
            cdf = _gelu_cdf_rows(u, active)
            a = u * cdf
            ff = a @ p[pre + "w2"] + p[pre + "b2"]
            if dropout:
                dm2 = (rng.random((B, L, c.d_enc))[:, :Lt] >= c.p_drop).astype(float)
                ff_used = ff * dm2 / keep
            else:
                dm2 = None
                ff_used = ff
            z = h + ff_used
            bc.update(zh2=zh2, ln2=ln2c, u=u, cdf=cdf, a=a, ffn_drop=dm2)
            cache["blocks"].append(bc)

        pooled = (z * mask[..., None]).sum(axis=1) / counts[:, None]
        y = pooled @ p["head_w"] + p["head_b"][0]
        cache.update(pooled=pooled, counts=counts, keep=keep)
        if want_cache:
            return y, cache
        return y

    # --- backward ------------------------------------------------------------

    def backward(self, cache: dict, dy: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of sum_b dy_b * y_b with respect to every parameter."""
        c = self.config
        p = self.params
        mask = cache["mask"]
        keep = cache["keep"]
        L = cache["length"]
        B, Lt = mask.shape
        grads: dict[str, np.ndarray] = {}

        grads["head_w"] = cache["pooled"].T @ dy
        grads["head_b"] = np.array([dy.sum()])
        dpooled = dy[:, None] * p["head_w"][None, :]
        dz = dpooled[:, None, :] * (mask / cache["counts"][:, None])[..., None]

        for i in reversed(range(c.n_blocks)):
            pre = f"b{i}."
            bc = cache["blocks"][i]
            # z_out = h + dropout(ffn(ln2(h)))
            dff = dz * bc["ffn_drop"] / keep if bc["ffn_drop"] is not None else dz
            grads[pre + "w2"] = _contract(_padded(bc["a"], L), _padded(dff, L))
            grads[pre + "b2"] = dff.sum(axis=(0, 1))
            da = dff @ p[pre + "w2"].T
            du = da * _gelu_grad(bc["u"], bc["cdf"])
            grads[pre + "w1"] = _contract(_padded(bc["zh2"], L), _padded(du, L))
            grads[pre + "b1"] = du.sum(axis=(0, 1))
            dzh2 = du @ p[pre + "w1"].T
            dx, dg, db = _layer_norm_backward(dzh2, bc["ln2"], p[pre + "ln2_g"])
            grads[pre + "ln2_g"], grads[pre + "ln2_b"] = dg, db
            dh = dz + dx

            # h = z_in + attn_out
            grads[pre + "wo"] = _contract(_padded(bc["o"], L), _padded(dh, L))
            grads[pre + "bo"] = dh.sum(axis=(0, 1))
            do = (dh @ p[pre + "wo"].T).reshape(B, Lt, c.n_heads, c.d_head).transpose(0, 2, 1, 3)
            dprobs_used = do @ bc["v"].transpose(0, 1, 3, 2)
            dv = bc["probs_used"].transpose(0, 1, 3, 2) @ do
            dprobs = dprobs_used * bc["attn_drop"] / keep if bc["attn_drop"] is not None else dprobs_used
            dscores = bc["probs"] * (dprobs - (dprobs * bc["probs"]).sum(axis=-1, keepdims=True))
            dscores = dscores / np.sqrt(c.d_head)
            dq = dscores @ bc["k"]
            dk = dscores.transpose(0, 1, 3, 2) @ bc["q"]

            def flat(t):
                return t.transpose(0, 2, 1, 3).reshape(B, Lt, c.d_enc)

            dqf, dkf, dvf = flat(dq), flat(dk), flat(dv)
            zh1 = _padded(bc["zh1"], L)
            grads[pre + "wq"] = _contract(zh1, _padded(dqf, L))
            grads[pre + "wk"] = _contract(zh1, _padded(dkf, L))
            grads[pre + "wv"] = _contract(zh1, _padded(dvf, L))
            grads[pre + "bq"] = dqf.sum(axis=(0, 1))
            grads[pre + "bk"] = dkf.sum(axis=(0, 1))
            grads[pre + "bv"] = dvf.sum(axis=(0, 1))
            dzh1 = dqf @ p[pre + "wq"].T + dkf @ p[pre + "wk"].T + dvf @ p[pre + "wv"].T
            dx, dg, db = _layer_norm_backward(dzh1, bc["ln1"], p[pre + "ln1_g"])
            grads[pre + "ln1_g"], grads[pre + "ln1_b"] = dg, db
            dz = dh + dx

        grads["pos"] = np.zeros_like(p["pos"])
        grads["pos"][:Lt] = dz.sum(axis=0)
        grads["lift_w"] = _contract(_padded(cache["tokens"], L), _padded(dz, L))
        db_shared = dz.sum(axis=(0, 1))
        grads["lift_b"] = np.tile(db_shared, (c.n_fields, 1))
        return grads

    def loss_and_grads(
        self,
        tokens: np.ndarray,
        mask: np.ndarray,
        labels: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ):
        """Mean-L1 loss and its parameter gradients on one batch."""
        y, cache = self.forward(tokens, mask, train=train, rng=rng, want_cache=True)
        labels = np.asarray(labels, dtype=float)
        resid = y - labels
        loss = float(np.abs(resid).mean())
        dy = np.sign(resid) / resid.shape[0]
        return loss, self.backward(cache, dy)

    # --- inference -----------------------------------------------------------

    def predict(self, tokens: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self.forward(tokens, mask, train=False)

    def _featurized(self, genomes):
        # looked up per call, so that a wrapped features.featurize_batch
        # (benchmarks/tracing.py) is the one called
        from .features import featurize_batch

        if self.normalizer is None:
            raise ValueError("surrogate has no fitted normalizer; train or load first")
        return featurize_batch(genomes, self.normalizer, self.config.max_layers)

    def predict_genomes(self, genomes) -> np.ndarray:
        return self.predict(*self._featurized(genomes))

    def mc_predict(self, tokens: np.ndarray, mask: np.ndarray, n_mc: int = 10, seed: int = 0):
        """Mean and spread of n_mc stochastic (dropout-on) forward passes.

        With p_drop == 0 every pass coincides, so sigma is exactly zero.
        """
        if n_mc < 1:
            raise ValueError("n_mc must be >= 1")
        if self.config.p_drop == 0 or n_mc == 1:
            mu = self.forward(tokens, mask, train=False)
            return mu, np.zeros_like(mu)
        rng = np.random.default_rng(seed)
        draws = np.stack([self.forward(tokens, mask, train=True, rng=rng) for _ in range(n_mc)])
        return draws.mean(axis=0), draws.std(axis=0)

    def mc_predict_genomes(self, genomes, n_mc: int = 10, seed: int = 0):
        return self.mc_predict(*self._featurized(genomes), n_mc=n_mc, seed=seed)

    # --- checkpointing ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Single self-describing .npz: config, parameter names/shapes in
        order, one flat float64 vector, normalizer stats."""
        names = list(self.params.keys())
        meta = {
            "format": "ihasearch-encoder-v1",
            "config": asdict(self.config),
            "names": names,
            "shapes": [list(self.params[n].shape) for n in names],
            "normalizer": self.normalizer is not None,
        }
        flat = np.concatenate([self.params[n].ravel() for n in names])
        arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), "theta": flat}
        if self.normalizer is not None:
            arrays["norm_lo"] = self.normalizer.lo
            arrays["norm_hi"] = self.normalizer.hi
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path: str) -> "EncoderSurrogate":
        """Read a ``save`` checkpoint: OSError if the file cannot be read,
        ValueError for any file that is not such a checkpoint (not an .npz,
        ``meta`` not an object, a bad config, or arrays, names or shapes
        other than the layout ``init_params`` gives for that config)."""
        try:
            with np.load(path) as z:  # a .npy file loads as an array: TypeError
                arrays = {k: z[k] for k in z.files}
        except (zipfile.BadZipFile, EOFError, TypeError) as exc:
            raise ValueError(f"{path} is not an .npz archive: {exc}") from exc
        meta = json.loads(arrays["meta"].tobytes().decode()) if "meta" in arrays else None
        if not isinstance(meta, dict) or meta.get("format") != "ihasearch-encoder-v1":
            raise ValueError(f"not an encoder checkpoint: {path}")
        try:
            config = EncoderConfig(**meta["config"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad encoder config in {path}: {exc!r}") from exc
        if config.n_fields != N_FIELDS:
            raise ValueError(f"n_fields={config.n_fields}; the featurizer makes {N_FIELDS}")
        theta = arrays.get("theta")
        if theta is None or theta.dtype != np.float64 or theta.ndim != 1:
            raise ValueError("theta must be a flat float64 array")
        # a layout needs at least this many values: checked before building it
        if max(config.d_ffn, config.max_layers, config.n_blocks) > theta.size:
            raise ValueError(f"{config} is too large for the {theta.size} stored values")
        layout = _param_layout(config)
        if (meta.get("names") != [name for name, _ in layout]
                or meta.get("shapes") != [list(shape) for _, shape in layout]):
            raise ValueError(f"stored parameter names or shapes do not fit {config}")
        sizes = [math.prod(shape) for _, shape in layout]
        if theta.size != sum(sizes):
            raise ValueError(f"theta must hold {sum(sizes)} float64 values for {config}")
        bounds = np.cumsum([0] + sizes)
        params = {name: theta[lo:hi].reshape(shape).copy()
                  for (name, shape), lo, hi in zip(layout, bounds, bounds[1:])}
        if type(meta.get("normalizer")) is not bool:
            raise ValueError("meta must say whether a normalizer is stored")
        norm = None
        if meta["normalizer"]:
            stats = [arrays.get(key) for key in ("norm_lo", "norm_hi")]
            if any(a is None or a.dtype != np.float64 or a.shape != (N_FIELDS,) for a in stats):
                raise ValueError(f"norm_lo and norm_hi must be ({N_FIELDS},) float64 arrays")
            norm = FieldNormalizer(*stats)
        return cls(config, params, norm)
