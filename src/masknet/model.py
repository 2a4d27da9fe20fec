"""Model topologies and the prediction head.

Four topologies share one store/forward/backward interface:

- serial:   MaskBlock on the embedding, then MaskBlocks stacked on each other;
            every block's mask reads the same instance embedding
- parallel: a bank of MaskBlocks on the shared embedding, concatenated and fed
            to a plain ReLU MLP
- dnn:      embedding -> ReLU MLP baseline (no masks, no LN)
- linear:   per-feature logistic regression baseline (no embeddings)

The head is a single affine + sigmoid.  Head weights start at zero so the
initial prediction is exactly 0.5 and the initial log loss is ln 2, a handy
training anchor.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import CATEGORICAL, Dataset, FeatureSchema, Field
from .embedding import embed_bwd, embed_fwd, embedding_tables, init_embedding
from .errors import CheckpointError, ConfigError, SchemaError, check_finite_fields
from .layers import DEFAULT_LN_EPS, ln_emb_bwd, ln_emb_fwd
from .maskblock import (
    Ablation,
    BlockParams,
    block_output_width,
    block_relu_pre,
    maskblock_bwd,
    maskblock_fwd,
)
from .numeric import ParamStore, affine_bwd, affine_fwd, make_rng, relu_bwd, relu_fwd, sigmoid

INIT_STREAM = 0

TOPOLOGIES = ("serial", "parallel", "dnn", "linear")

# Rows per `forward` call in `predict`.  At 256 rows each activation of an
# 8-field, k=10 model is 160-320 KB, so one tile's working set stays inside a
# 2 MB L2 cache; a 4096-row forward streams every activation through memory,
# and its cache keeps them all alive at once.  BLAS runs a call of a handful
# of rows (18 or fewer with OpenBLAS; one row is a GEMV) through other
# kernels, whose last bits differ, so `predict` never leaves such a sliver:
# its last call takes the rest of the rows.
SCORE_TILE = 256

# BlockParams fields (and maskblock grad keys) -> parameter name suffixes
_BLOCK_KEYS = {
    "w1": "mask.w1",
    "b1": "mask.b1",
    "w2": "mask.w2",
    "b2": "mask.b2",
    "w": "ffn.w",
    "g": "ln.g",
    "b": "ln.b",
}


@dataclass(frozen=True)
class ModelSpec:
    """Full topology description; widths are per block, u = len(block_widths)."""

    topology: str = "serial"
    block_widths: tuple[int, ...] = (64, 64, 64)
    top_widths: tuple[int, ...] = (64, 64)  # parallel-only MLP on the merged blocks
    embed_dim: int = 10  # k
    reduction: int = 2  # r = t/z of the mask unit
    ablation: Ablation = field(default_factory=Ablation)
    mask_bias_init: float = 0.0  # initial projection bias; 1.0 gives near-identity masks
    dnn_bias: bool = True  # False makes dnn an exact twin of serial {no_mask, no_ln}
    ln_eps: float = DEFAULT_LN_EPS
    seed: int = 0

    def __post_init__(self) -> None:
        check_finite_fields(self)
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}")
        if self.topology != "linear":
            if self.embed_dim < 1:
                raise ConfigError("embed_dim must be >= 1")
            if not self.block_widths or any(w < 1 for w in self.block_widths):
                raise ConfigError(f"bad block widths {self.block_widths}")
        if self.reduction < 1 or int(self.reduction) != self.reduction:
            raise ConfigError(f"reduction ratio must be a positive integer, got {self.reduction}")
        if any(w < 1 for w in self.top_widths):
            raise ConfigError(f"top_widths must be >= 1, got {self.top_widths}")
        if not self.ln_eps > 0:
            raise ConfigError(f"ln_eps must be > 0, got {self.ln_eps!r}")

    @property
    def u(self) -> int:
        return len(self.block_widths)


class Model:
    """Parameters plus hand-derived forward/backward for one topology.

    Construction draws every initial value from a single seeded generator in
    a fixed order, so identical (spec, schema) pairs are bit-identical.
    Inference is read-only; training mutates the store exclusively through
    `backward` + the optimizer.
    """

    def __init__(self, spec: ModelSpec, schema: FeatureSchema, *, draw_init: bool = True):
        """draw_init=False leaves every value unset, for a caller that fills
        the whole store (a checkpoint load)."""
        self.spec = spec
        self.schema = schema
        rng = make_rng(spec.seed, INIT_STREAM) if draw_init else _Undrawn()
        self.store = ParamStore(self._init_arrays(rng))
        p = self.store.params
        self._blocks: list[BlockParams] = []
        if spec.topology in ("serial", "parallel"):
            self._blocks = [
                BlockParams(**{key: p.get(f"block{i}.{suffix}") for key, suffix in _BLOCK_KEYS.items()})
                for i in range(1, spec.u + 1)
            ]
        if spec.topology != "linear":
            self._emb, self._emb_grad = embedding_tables(self.store, schema, spec.embed_dim)

    # ----- construction ----------------------------------------------------

    def _init_arrays(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Initial value of every parameter, in store order.  The embedding
        tables come first, so they form one block of the store."""
        spec, schema = self.spec, self.schema
        ab = spec.ablation
        k = spec.embed_dim

        if spec.topology == "linear":
            arrays = {
                f"lin.{fld.name}": np.zeros(fld.vocab_size + 1 if fld.kind == CATEGORICAL else 1)
                for fld in schema.fields
            }
            arrays["lin.w0"] = np.zeros(1)
            return arrays

        arrays = init_embedding(schema, k, rng)
        m = schema.f * k

        if spec.topology == "dnn":
            width = m
            for l, q in enumerate(spec.block_widths, start=1):
                arrays[f"mlp{l}.w"] = rng.normal(0.0, 1.0 / np.sqrt(width), size=(q, width))
                if spec.dnn_bias:
                    arrays[f"mlp{l}.b"] = np.zeros(q)
                width = q
            return arrays | _head_arrays(width)

        if not ab.no_ln:
            arrays["ln_emb.g"] = np.ones((schema.f, k))
            arrays["ln_emb.b"] = np.zeros((schema.f, k))

        width = m
        out_widths = []
        for i, q in enumerate(spec.block_widths, start=1):
            z = m if spec.topology == "parallel" or i == 1 else width
            if not ab.no_mask:
                t = spec.reduction * z
                arrays[f"block{i}.mask.w1"] = rng.normal(0.0, 1.0 / np.sqrt(m), size=(t, m))
                arrays[f"block{i}.mask.b1"] = np.zeros(t)
                arrays[f"block{i}.mask.w2"] = rng.normal(0.0, 1.0 / np.sqrt(t), size=(z, t))
                arrays[f"block{i}.mask.b2"] = np.full(z, spec.mask_bias_init)
            if not ab.no_ffn:
                arrays[f"block{i}.ffn.w"] = rng.normal(0.0, 1.0 / np.sqrt(z), size=(q, z))
                if not ab.no_ln:
                    arrays[f"block{i}.ln.g"] = np.ones(q)
                    arrays[f"block{i}.ln.b"] = np.zeros(q)
            width = block_output_width(z, q, ab)
            out_widths.append(width)

        if spec.topology == "parallel":
            width = sum(out_widths)
            for l, q in enumerate(spec.top_widths, start=1):
                arrays[f"mlp{l}.w"] = rng.normal(0.0, 1.0 / np.sqrt(width), size=(q, width))
                arrays[f"mlp{l}.b"] = np.zeros(q)
                width = q
        return arrays | _head_arrays(width)

    def block_params(self, i: int) -> BlockParams:
        """1-based accessor, mirroring block parameter names."""
        return self._blocks[i - 1]

    # ----- forward ---------------------------------------------------------

    def forward(self, cat: np.ndarray, num: np.ndarray) -> tuple[np.ndarray, dict]:
        """Predicted click probabilities for a batch: returns (probs (B,), cache).

        The cache carries every intermediate needed by `backward` plus the
        pre-ReLU arrays used for kink detection in gradient checking.
        """
        p = self.store.params
        spec = self.spec
        ab = spec.ablation
        cache: dict = {"cat": cat, "num": num, "relu_pre": []}

        if spec.topology == "linear":
            logit = np.full(cat.shape[0] if cat.size else num.shape[0], p["lin.w0"][0])
            for a, fld in enumerate(self.schema.categorical):
                logit = logit + p[f"lin.{fld.name}"][cat[:, a]]
            for j, fld in enumerate(self.schema.numerical):
                logit = logit + p[f"lin.{fld.name}"][0] * num[:, j]
        else:
            v_emb = embed_fwd(self._emb, self.schema, cat, num)
            cache["v_emb"] = v_emb
            if spec.topology == "dnn":
                h = self._mlp_fwd(v_emb, len(spec.block_widths), cache)
            else:
                # the first serial block and every parallel block mask the
                # per-field-normalized embedding (the raw one when LN is ablated)
                emb_target = v_emb
                if not ab.no_ln:
                    emb_target, cache["ln_cache"] = ln_emb_fwd(
                        v_emb, p["ln_emb.g"], p["ln_emb.b"], spec.embed_dim, spec.ln_eps
                    )
                bcaches = []
                if spec.topology == "serial":
                    h = emb_target
                    for bp in self._blocks:
                        h, bc = maskblock_fwd(v_emb, h, bp, ab, spec.ln_eps)
                        cache["relu_pre"] += block_relu_pre(bc, ab)
                        bcaches.append(bc)
                else:  # parallel
                    outs = []
                    for bp in self._blocks:
                        out, bc = maskblock_fwd(v_emb, emb_target, bp, ab, spec.ln_eps)
                        cache["relu_pre"] += block_relu_pre(bc, ab)
                        bcaches.append(bc)
                        outs.append(out)
                    cache["merge_widths"] = [o.shape[1] for o in outs]
                    merged = np.concatenate(outs, axis=1)
                    h = self._mlp_fwd(merged, len(spec.top_widths), cache)
                cache["blocks"] = bcaches
            cache["head_in"] = h
            logit = h @ p["head.w"] + p["head.w0"][0]

        probs = sigmoid(logit)
        cache["probs"] = probs
        return probs, cache

    def _mlp_fwd(self, x: np.ndarray, depth: int, cache: dict) -> np.ndarray:
        p = self.store.params
        steps = []
        h = x
        for l in range(1, depth + 1):
            z = affine_fwd(h, p[f"mlp{l}.w"], p.get(f"mlp{l}.b"))
            steps.append((h, z))
            cache["relu_pre"].append(z)
            h = relu_fwd(z)
        cache["mlp"] = steps
        return h

    # ----- backward --------------------------------------------------------

    def backward(self, cache: dict, dlogit: np.ndarray) -> None:
        """Accumulate dL/dtheta into store.grads given dL/dlogit per instance."""
        p, g = self.store.params, self.store.grads
        spec = self.spec
        ab = spec.ablation
        cat, num = cache["cat"], cache["num"]

        if spec.topology == "linear":
            g["lin.w0"] += dlogit.sum()
            for a, fld in enumerate(self.schema.categorical):
                np.add.at(g[f"lin.{fld.name}"], cat[:, a], dlogit)
            for j, fld in enumerate(self.schema.numerical):
                g[f"lin.{fld.name}"] += (dlogit * num[:, j]).sum()
            return

        h = cache["head_in"]
        g["head.w"] += h.T @ dlogit
        g["head.w0"] += dlogit.sum()
        dh = dlogit[:, None] * p["head.w"][None, :]

        if spec.topology == "dnn":
            dv_emb = self._mlp_bwd(dh, cache)
        elif spec.topology == "serial":
            dv_emb = np.zeros_like(cache["v_emb"])
            dprev = dh
            for i in range(spec.u, 0, -1):
                dv, dprev, grads = maskblock_bwd(dprev, cache["blocks"][i - 1], self._blocks[i - 1], ab)
                self._accumulate_block(i, grads)
                if dv is not None:
                    dv_emb += dv
            dv_emb += self._ln_emb_bwd(dprev, cache)
        else:  # parallel
            dmerged = self._mlp_bwd(dh, cache)
            dv_emb = np.zeros_like(cache["v_emb"])
            dln_e = np.zeros_like(cache["v_emb"])
            off = 0
            for i, w in enumerate(cache["merge_widths"], start=1):
                dout = dmerged[:, off : off + w]
                off += w
                dv, dtarget, grads = maskblock_bwd(dout, cache["blocks"][i - 1], self._blocks[i - 1], ab)
                self._accumulate_block(i, grads)
                if dv is not None:
                    dv_emb += dv
                dln_e += dtarget
            dv_emb += self._ln_emb_bwd(dln_e, cache)

        embed_bwd(dv_emb, self._emb_grad, self.schema, cat, num)

    def _ln_emb_bwd(self, dtarget: np.ndarray, cache: dict) -> np.ndarray:
        """Route the gradient on the blocks' embedding target back to v_emb."""
        if self.spec.ablation.no_ln:
            return dtarget
        g = self.store.grads
        dx, dg, db = ln_emb_bwd(dtarget, cache["ln_cache"], self.store.params["ln_emb.g"])
        g["ln_emb.g"] += dg
        g["ln_emb.b"] += db
        return dx

    def _accumulate_block(self, i: int, grads: dict[str, np.ndarray]) -> None:
        for key, val in grads.items():
            self.store.grads[f"block{i}.{_BLOCK_KEYS[key]}"] += val

    def _mlp_bwd(self, dh: np.ndarray, cache: dict) -> np.ndarray:
        g = self.store.grads
        for l in range(len(cache["mlp"]), 0, -1):
            x, z = cache["mlp"][l - 1]
            dz = relu_bwd(dh, z)
            has_bias = f"mlp{l}.b" in g
            dh, dw, db = affine_bwd(dz, x, self.store.params[f"mlp{l}.w"], with_bias=has_bias)
            g[f"mlp{l}.w"] += dw
            if has_bias:
                g[f"mlp{l}.b"] += db
        return dh

    # ----- convenience -----------------------------------------------------

    def predict(self, ds: Dataset, batch_size: int = 4096) -> np.ndarray:
        """Probabilities over a dataset; forward-only, caches discarded.

        Scores tiles of min(batch_size, SCORE_TILE) rows; the last call takes
        the rest once it fits in min(batch_size, 2*SCORE_TILE - 1) rows.
        """
        tile = min(batch_size, SCORE_TILE)
        rest = min(batch_size, 2 * SCORE_TILE - 1)
        out = np.empty(ds.n)
        lo = 0
        while lo < ds.n:
            hi = ds.n if ds.n - lo <= rest else lo + tile
            out[lo:hi], _ = self.forward(ds.cat[lo:hi], ds.num[lo:hi])
            lo = hi
        return out

    def mask_values(self, cat: np.ndarray, num: np.ndarray) -> list[np.ndarray]:
        """Per-block mask vectors for a batch (serial/parallel models only)."""
        if self.spec.topology not in ("serial", "parallel") or self.spec.ablation.no_mask:
            raise ConfigError(f"model {self.spec.topology!r} (ablation={self.spec.ablation.names()}) has no mask units")
        _, cache = self.forward(cat, num)
        return [bc["mask"] for bc in cache["blocks"]]


class _Undrawn:
    """Stands in for the initialisation generator: arrays of the right shape,
    nothing drawn."""

    @staticmethod
    def normal(loc: float, scale: float, size: tuple[int, ...]) -> np.ndarray:
        return np.empty(size)


def _head_arrays(width: int) -> dict[str, np.ndarray]:
    return {"head.w": np.zeros(width), "head.w0": np.zeros(1)}


def relu_pattern(cache: dict) -> np.ndarray | None:
    """Concatenated activation signs of every ReLU site, for kink detection."""
    pre = cache["relu_pre"]
    if not pre:
        return None
    return np.concatenate([(a > 0.0).ravel() for a in pre])


# ---------------------------------------------------------------------------
# Parameter accounting
# ---------------------------------------------------------------------------


def param_count(model: Model) -> int:
    """Exact trainable-parameter count (equals enumeration over the store)."""
    return model.store.size()


def param_breakdown(model: Model) -> dict[str, int]:
    """Counts grouped by the first dotted name component (emb, block1, mlp2, ...)."""
    out: dict[str, int] = {}
    for name, arr in model.store.params.items():
        group = name.split(".", 1)[0]
        out[group] = out.get(group, 0) + arr.size
    return out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "masknet-checkpoint"
CHECKPOINT_VERSION = 1
_HEADER_SHAPE = {
    "format": CHECKPOINT_FORMAT,
    "version": CHECKPOINT_VERSION,
    "spec": asdict(ModelSpec()),
    "schema": [{"name": "", "kind": "", "vocab": [""]}],
    "arrays": [{"name": "", "shape": [0]}],
}


def _checked(what: str, value, shape):
    """`value` if it has the JSON shape of `shape`: an object with exactly its
    keys, a list whose items match its one item (a tuple gives a tuple), or a
    scalar of its type (an int passes for a float); else CheckpointError.
    A list of scalars (a vocabulary may hold 10^5 tokens) is checked in one
    pass; item by item only to name the item at fault."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise CheckpointError(f"{what} is not an object")
        if value.keys() != shape.keys():
            key = min(value.keys() ^ shape.keys())
            raise CheckpointError(f"{what} has {'no' if key in shape else 'unknown'} entry {key!r}")
        return {key: _checked(f"{what}.{key}", value[key], sub) for key, sub in shape.items()}
    if isinstance(shape, (list, tuple)):
        if not isinstance(value, list):
            raise CheckpointError(f"{what} is not a list")
        if isinstance(shape[0], dict) or set(map(type, value)) - {type(shape[0])}:
            return type(shape)(_checked(f"{what}[{i}]", item, shape[0]) for i, item in enumerate(value))
        return type(shape)(value)
    if type(value) is not type(shape) and not (type(shape) is float and type(value) is int):
        raise CheckpointError(f"{what} is not of type {type(shape).__name__}")
    return value


def save_checkpoint(model: Model, path: str) -> None:
    """One file: a JSON header line (spec, schema, array manifest) followed by
    the raw little-endian float64 array bytes in manifest order, which is the
    order of the store's parameter buffer."""
    store = model.store
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "spec": asdict(model.spec),
        "schema": [
            {"name": f.name, "kind": f.kind, "vocab": list(f.vocab)} for f in model.schema.fields
        ],
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in store.params.items()],
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.write(np.ascontiguousarray(store.param_buf, dtype="<f8"))


def load_checkpoint(path: str) -> Model:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {header.get('version')}")
    header = _checked(f"{path}: checkpoint header", header, _HEADER_SHAPE)
    try:
        schema = FeatureSchema(tuple(Field(f["name"], f["kind"], tuple(f["vocab"])) for f in header["schema"]))
        spec = ModelSpec(**header["spec"] | {"ablation": Ablation(**header["spec"]["ablation"])})
    except (ConfigError, SchemaError) as exc:
        raise CheckpointError(f"{path}: checkpoint header: {exc}") from None
    model = Model(spec, schema, draw_init=False)

    store = model.store
    manifest = header["arrays"]
    if [a["name"] for a in manifest] != store.names():
        raise CheckpointError(f"{path}: array manifest does not match the rebuilt model")
    for entry in manifest:
        shape = list(store.params[entry["name"]].shape)
        if shape != entry["shape"]:
            raise CheckpointError(f"{path}: shape mismatch for {entry['name']}: {entry['shape']} vs {shape}")
    if len(blob) < store.size() * 8:
        raise CheckpointError(f"{path}: truncated checkpoint payload")
    if len(blob) > store.size() * 8:
        raise CheckpointError(f"{path}: trailing bytes in checkpoint payload")
    store.param_buf[...] = np.frombuffer(blob, dtype="<f8")
    return model
