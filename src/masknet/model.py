"""Model topologies and the prediction head.

Every topology is one composition path, fixed by three facts that `Model`
reads off the spec once:

    embedding -> [per-field LN] -> MaskBlocks -> [concat] -> ReLU MLP -> head

- serial:   MaskBlocks chained: the first masks the (normalized) embedding,
            each later one the previous block's output; no MLP
- parallel: MaskBlocks banked on the shared embedding, their outputs
            concatenated and fed to a ReLU MLP of `top_widths`
- dnn:      no blocks and no LN: embedding -> ReLU MLP of `block_widths`
- linear:   per-feature logistic regression: k=1 embedding tables whose rows
            are the weights, summed with a bias `lin.w0`

Every mask unit reads the raw instance embedding.  The head is a single
affine + sigmoid.  Head weights start at zero so the initial prediction is
exactly 0.5 and the initial log loss is ln 2, a handy training anchor.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from itertools import accumulate

import numpy as np

from .data import CATEGORICAL, Dataset, FeatureSchema, Field
from .embedding import embed_bwd, embed_fwd, embedding_param_names, embedding_tables, init_embedding
from .errors import CheckpointError, ConfigError, SchemaError, check_finite_fields
from .layers import DEFAULT_LN_EPS, ln_emb_bwd, ln_emb_fwd
from .maskblock import Ablation, BlockParams, block_arrays, maskblock_bwd, maskblock_fwd
from .numeric import ParamStore, affine_bwd, affine_fwd, make_rng, relu_bwd, relu_fwd, sigmoid

INIT_STREAM = 0

TOPOLOGIES = ("serial", "parallel", "dnn", "linear")

# Rows per `forward` call in `predict` and `train.train_step`.  At 256 rows
# each activation of an 8-field, k=10 model is 160-320 KB, so one tile's
# working set stays inside a 2 MB L2 cache; a 4096-row forward streams every
# activation through memory, and its cache keeps them all alive at once.  BLAS
# runs a call of a handful of rows (18 or fewer with OpenBLAS; one row is a
# GEMV) through other kernels, whose last bits differ, so `row_tiles` never
# leaves such a sliver: its last tile takes the rest of the rows.
SCORE_TILE = 256


def row_tiles(n: int, batch_size: int | None = None) -> Iterator[slice]:
    """The row slices of n rows that each get one `forward` call: tiles of
    min(batch_size, SCORE_TILE) rows, the last taking the rest once it fits
    in min(batch_size, 2*SCORE_TILE - 1) rows.  No batch_size: no cap."""
    tile, rest = SCORE_TILE, 2 * SCORE_TILE - 1
    if batch_size is not None:
        tile, rest = min(batch_size, tile), min(batch_size, rest)
    lo = 0
    while lo < n:
        hi = n if n - lo <= rest else lo + tile
        yield slice(lo, hi)
        lo = hi


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
        # The topology as three facts: the MaskBlock widths; whether the
        # blocks bank on the embedding and are concatenated (parallel) or
        # chain, each masking the previous block's output (serial); and the
        # widths of the ReLU MLP between the blocks and the head.
        self.mask_block_widths = spec.block_widths if spec.topology in ("serial", "parallel") else ()
        self.banked = spec.topology == "parallel"
        self.mlp_widths = {"parallel": spec.top_widths, "dnn": spec.block_widths}.get(spec.topology, ())
        rng = make_rng(spec.seed, INIT_STREAM) if draw_init else _Undrawn()
        self.store = ParamStore(self._init_arrays(rng))
        names = [f"block{i}" for i in range(1, len(self.mask_block_widths) + 1)]
        self._blocks = [BlockParams.named(self.store.params, n) for n in names]
        self._block_grads = [BlockParams.named(self.store.grads, n) for n in names]
        self.has_mask_units = any(bp.w1 is not None for bp in self._blocks)
        # banked: the columns of the merged output that each block fills (a
        # block with no FFN passes on its m-wide masked embedding)
        m = schema.f * spec.embed_dim
        self._merge_bounds = [0, *accumulate(m if bp.w is None else len(bp.w) for bp in self._blocks)]
        prefix, k = ("lin", 1) if spec.topology == "linear" else ("emb", spec.embed_dim)
        self._emb, self._emb_grad = embedding_tables(self.store, schema, k, prefix)

    # ----- construction ----------------------------------------------------

    def _init_arrays(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Initial value of every parameter, in store order.  The embedding
        tables come first, so they form one block of the store."""
        spec, schema = self.spec, self.schema
        ab = spec.ablation
        k = spec.embed_dim

        if spec.topology == "linear":
            # one weight per category (OOV included) or numerical field
            arrays = {
                name: np.zeros(fld.vocab_size + 1 if fld.kind == CATEGORICAL else 1)
                for name, fld in zip(embedding_param_names(schema, "lin"), schema.fields)
            }
            arrays["lin.w0"] = np.zeros(1)
            return arrays

        arrays = init_embedding(schema, k, rng)
        m = schema.f * k
        if self.mask_block_widths and not ab.no_ln:
            arrays["ln_emb.g"] = np.ones((schema.f, k))
            arrays["ln_emb.b"] = np.zeros((schema.f, k))

        width = m
        out_widths = []
        for i, q in enumerate(self.mask_block_widths, start=1):
            z = m if self.banked else width
            block, width = block_arrays(f"block{i}", m, z, q, ab, spec.reduction, spec.mask_bias_init, rng)
            arrays |= block
            out_widths.append(width)
        if self.banked:
            width = sum(out_widths)

        for l, q in enumerate(self.mlp_widths, start=1):
            arrays[f"mlp{l}.w"] = rng.normal(0.0, 1.0 / np.sqrt(width), size=(q, width))
            if spec.dnn_bias or self.banked:  # the parallel MLP always has biases
                arrays[f"mlp{l}.b"] = np.zeros(q)
            width = q
        arrays["head.w"] = np.zeros(width)
        arrays["head.w0"] = np.zeros(1)
        return arrays

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
        cache: dict = {"cat": cat, "num": num, "relu_pre": []}
        v_emb = embed_fwd(self._emb, self.schema, cat, num)

        if spec.topology == "linear":
            # the bias, then the categorical weights, then the numerical terms
            rows = self.schema.table_rows
            logit = np.full(len(v_emb), p["lin.w0"][0])
            for pos in (*rows.cat_pos, *rows.num_pos):
                logit += v_emb[:, pos]
        else:
            cache["v_emb"] = v_emb
            # the first chained block and every banked block mask the
            # per-field-normalized embedding (the raw one when LN is ablated)
            target = v_emb
            if "ln_emb.g" in p:
                target, cache["ln_cache"] = ln_emb_fwd(
                    v_emb, p["ln_emb.g"], p["ln_emb.b"], spec.embed_dim, spec.ln_eps
                )
            h, outs, cache["blocks"] = target, [], []
            for bp in self._blocks:
                h, bc = maskblock_fwd(v_emb, target if self.banked else h, bp, spec.ln_eps)
                cache["relu_pre"] += bc["relu_pre"]
                cache["blocks"].append(bc)
                outs.append(h)
            if self.banked:
                h = np.concatenate(outs, axis=1)
            cache["mlp"] = []
            for l in range(1, len(self.mlp_widths) + 1):
                z = affine_fwd(h, p[f"mlp{l}.w"], p.get(f"mlp{l}.b"))
                cache["mlp"].append((h, z))
                cache["relu_pre"].append(z)
                h = relu_fwd(z)
            cache["head_in"] = h
            logit = h @ p["head.w"] + p["head.w0"][0]

        return sigmoid(logit), cache

    # ----- backward --------------------------------------------------------

    def backward(self, cache: dict, dlogit: np.ndarray) -> None:
        """Accumulate dL/dtheta into store.grads given dL/dlogit per instance."""
        p, g = self.store.params, self.store.grads

        if self.spec.topology == "linear":
            g["lin.w0"] += dlogit.sum()
            dv_emb = np.broadcast_to(dlogit[:, None], (len(dlogit), self.schema.f))
        else:
            h = cache["head_in"]
            g["head.w"] += h.T @ dlogit
            g["head.w0"] += dlogit.sum()
            dh = dlogit[:, None] * p["head.w"][None, :]
            for l in range(len(cache["mlp"]), 0, -1):
                x, z = cache["mlp"][l - 1]
                has_bias = f"mlp{l}.b" in g
                dh, dw, db = affine_bwd(relu_bwd(dh, z), x, p[f"mlp{l}.w"], with_bias=has_bias)
                g[f"mlp{l}.w"] += dw
                if has_bias:
                    g[f"mlp{l}.b"] += db
            dv_emb = self._blocks_bwd(dh, cache) if self._blocks else dh

        embed_bwd(dv_emb, self._emb_grad, self.schema, cache["cat"], cache["num"])

    def _blocks_bwd(self, dh: np.ndarray, cache: dict) -> np.ndarray:
        """dL/dv_emb from the gradient on the blocks' output: through every
        mask unit, and through the targets and the per-field LN."""
        dv_emb = np.zeros_like(cache["v_emb"])
        steps = list(zip(self._blocks, self._block_grads, cache["blocks"]))
        if self.banked:
            dtarget = np.zeros_like(dv_emb)
            bounds = self._merge_bounds
            for (bp, bg, bc), lo, hi in zip(steps, bounds, bounds[1:]):
                dtarget += maskblock_bwd(dh[:, lo:hi], bc, bp, bg, dv_emb)
        else:
            dtarget = dh
            for bp, bg, bc in reversed(steps):
                dtarget = maskblock_bwd(dtarget, bc, bp, bg, dv_emb)
        if "ln_cache" in cache:
            g = self.store.grads
            dtarget, dg, db = ln_emb_bwd(dtarget, cache["ln_cache"], self.store.params["ln_emb.g"])
            g["ln_emb.g"] += dg
            g["ln_emb.b"] += db
        dv_emb += dtarget
        return dv_emb

    # ----- convenience -----------------------------------------------------

    def predict(self, ds: Dataset, batch_size: int = 4096) -> np.ndarray:
        """Probabilities over a dataset; forward-only, caches discarded.

        One `forward` call per tile of `row_tiles(ds.n, batch_size)`, the
        rule `train.train_step` also tiles by, so one tile's activations are
        alive at a time.
        """
        if batch_size < 1:
            raise ConfigError(f"predict needs batch_size >= 1, got {batch_size}")
        out = np.empty(ds.n)
        for rows in row_tiles(ds.n, batch_size):
            out[rows], _ = self.forward(ds.cat[rows], ds.num[rows])
        return out

    def mask_values(self, cat: np.ndarray, num: np.ndarray) -> list[np.ndarray]:
        """Per-block mask vectors for a batch, (B, z) each (serial/parallel
        models only).

        One `forward` call per tile of `row_tiles(len(cat))`, the tiles
        `predict` scores in.  Only the tile's masks outlive its forward cache,
        so one tile's cache is alive at a time.
        """
        if not self.has_mask_units:
            raise ConfigError(f"model {self.spec.topology!r} (ablation={self.spec.ablation.names()}) has no mask units")
        out = [np.empty((len(cat), len(bp.w2))) for bp in self._blocks]
        for rows in row_tiles(len(cat)):
            tile = [bc["mask"] for bc in self.forward(cat[rows], num[rows])[1]["blocks"]]
            for masks, mask in zip(out, tile):
                masks[rows] = mask
        return out


class _Undrawn:
    """Stands in for the initialisation generator: arrays of the right shape,
    nothing drawn."""

    @staticmethod
    def normal(loc: float, scale: float, size: tuple[int, ...]) -> np.ndarray:
        return np.empty(size)


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
