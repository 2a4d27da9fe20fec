"""Independent oracles for the test suite.

Everything here is written directly from the model formulas with explicit
loops and scalar arithmetic, deliberately sharing no code with the package's
vectorized/cached implementations.  Comparisons against these are the
ground-truth checks; keep them naive.
"""

import csv
import io
import math

import numpy as np

from masknet.errors import IngestError, SchemaError
from masknet.numeric import SIGMOID_FLOOR
from masknet.train import l2_penalty, logloss


def o_affine(w, b, x):
    """w (m, t), x (t,) -> (m,) via explicit sums."""
    m, t = w.shape
    out = np.zeros(m)
    for i in range(m):
        s = 0.0
        for j in range(t):
            s += w[i, j] * x[j]
        out[i] = s + (b[i] if b is not None else 0.0)
    return out


def o_relu(x):
    return np.array([v if v > 0.0 else 0.0 for v in x])


def o_sigmoid(s):
    return 1.0 / (1.0 + math.exp(-s)) if s >= 0 else math.exp(s) / (1.0 + math.exp(s))


def o_layer_norm(x, g, b, eps):
    h = len(x)
    mu = sum(x) / h
    var = sum((v - mu) ** 2 for v in x) / h
    denom = math.sqrt(var + eps)
    return np.array([g[i] * (x[i] - mu) / denom + b[i] for i in range(h)])


def o_ln_emb(v_emb, g, b, k, eps):
    f = len(v_emb) // k
    parts = []
    for i in range(f):
        sl = v_emb[i * k : (i + 1) * k]
        parts.extend(o_layer_norm(sl, g[i], b[i], eps))
    return np.array(parts)


def o_instance_mask(v_emb, w1, b1, w2, b2):
    return o_affine(w2, b2, o_relu(o_affine(w1, b1, v_emb)))


def o_embed(schema, params, cat_row, num_row, k):
    """One-hot matmul per categorical field; scaled vector per numerical."""
    parts = []
    ci = ni = 0
    for fld in schema.fields:
        table = params[f"emb.{fld.name}"]
        if fld.kind == "categorical":
            w = table.T  # (k, vocab+1): column per category
            onehot = np.zeros(w.shape[1])
            onehot[cat_row[ci]] = 1.0
            parts.extend(o_affine(w, None, onehot))
            ci += 1
        else:
            parts.extend(table[a] * num_row[ni] for a in range(k))
            ni += 1
    return np.array(parts)


def o_embed_bwd(dv, grad_table, schema, cat, num):
    """The embedding backward as a walk over the fields, counting its own
    rows (vocab + 1 per categorical field, one per numerical): a scatter-add
    per categorical field, a value-weighted batch sum per numerical one."""
    k = grad_table.shape[1]
    row = ci = ni = 0
    for pos, fld in enumerate(schema.fields):
        dslice = dv[:, pos * k : (pos + 1) * k]
        if fld.kind == "categorical":
            np.add.at(grad_table[row : row + fld.vocab_size + 1], cat[:, ci], dslice)
            row += fld.vocab_size + 1
            ci += 1
        else:
            grad_table[row] += (num[:, ni, None] * dslice).sum(axis=0)
            row += 1
            ni += 1


def _block_arrays(params, i):
    pre = f"block{i}."
    return (
        params[pre + "mask.w1"],
        params[pre + "mask.b1"],
        params[pre + "mask.w2"],
        params[pre + "mask.b2"],
        params.get(pre + "ffn.w"),
        params.get(pre + "ln.g"),
        params.get(pre + "ln.b"),
    )


def o_block_on_embedding(v_emb, params, i, k, eps):
    w1, b1, w2, b2, w, g, b = _block_arrays(params, i)
    ln_e = o_ln_emb(v_emb, params["ln_emb.g"], params["ln_emb.b"], k, eps)
    mask = o_instance_mask(v_emb, w1, b1, w2, b2)
    masked = np.array([mask[a] * ln_e[a] for a in range(len(mask))])
    return o_relu(o_layer_norm(o_affine(w, None, masked), g, b, eps))


def o_block_on_block(v_emb, v_prev, params, i, eps):
    w1, b1, w2, b2, w, g, b = _block_arrays(params, i)
    mask = o_instance_mask(v_emb, w1, b1, w2, b2)
    masked = np.array([mask[a] * v_prev[a] for a in range(len(mask))])
    return o_relu(o_layer_norm(o_affine(w, None, masked), g, b, eps))


def o_head(x, params):
    w = params["head.w"]
    s = params["head.w0"][0]
    for i in range(len(w)):
        s += w[i] * x[i]
    return o_sigmoid(s)


def o_forward_serial(model, cat_row, num_row):
    p = model.store.params
    k, eps = model.spec.embed_dim, model.spec.ln_eps
    v_emb = o_embed(model.schema, p, cat_row, num_row, k)
    h = o_block_on_embedding(v_emb, p, 1, k, eps)
    for i in range(2, model.spec.u + 1):
        h = o_block_on_block(v_emb, h, p, i, eps)
    return o_head(h, p)


def o_forward_parallel(model, cat_row, num_row):
    p = model.store.params
    k, eps = model.spec.embed_dim, model.spec.ln_eps
    v_emb = o_embed(model.schema, p, cat_row, num_row, k)
    merged = np.concatenate(
        [o_block_on_embedding(v_emb, p, i, k, eps) for i in range(1, model.spec.u + 1)]
    )
    h = merged
    for l in range(1, len(model.spec.top_widths) + 1):
        h = o_relu(o_affine(p[f"mlp{l}.w"], p[f"mlp{l}.b"], h))
    return o_head(h, p)


def o_forward_dnn(model, cat_row, num_row):
    p = model.store.params
    v_emb = o_embed(model.schema, p, cat_row, num_row, model.spec.embed_dim)
    h = v_emb
    for l in range(1, len(model.spec.block_widths) + 1):
        h = o_relu(o_affine(p[f"mlp{l}.w"], p.get(f"mlp{l}.b"), h))
    return o_head(h, p)


def brute_force_auc(scores, labels):
    """O(n^2) enumeration over every positive/negative pair; ties count half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for s in pos:
        wins += float((s > neg).sum()) + 0.5 * float((s == neg).sum())
    return wins / (len(pos) * len(neg))


def adam_trace(theta0, grad_seq, lr, beta1, beta2, eps):
    """Scalar Adam, stepped by hand: returns the list of parameter values."""
    theta = theta0
    m = v = 0.0
    out = []
    for t, g in enumerate(grad_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def o_adam_arrays(params, grads, m, v, t, lr, beta1, beta2, eps):
    """One Adam step over per-array dicts, array by array, in place: the
    update written as whole-array expressions with no shared buffer."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name in params:
        g = grads[name]
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
        params[name] = params[name] - lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


def o_ingest(text, columns, delimiter, train_rows=None):
    """Row-by-row CSV ingest: records in file order with the physical line
    each starts on, blank lines skipped, cells stripped, vocabularies in
    first-seen order over the sorted distinct training rows, and each row
    parsed label, logit, then numerical fields, with the non-finite checks
    once every row has parsed.  Returns (fields, cat, num, labels, logits),
    fields as (name, kind, vocab) triples in header order."""
    by_name = {c.name: c for c in columns}
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    header = [h.strip() for h in next(reader)]
    assert sorted(header) == sorted(by_name)
    cols = [by_name[h] for h in header]
    rows, lines = [], []
    start = reader.line_num + 1
    for record in reader:
        line, start = start, reader.line_num + 1
        if not record:
            continue
        if len(record) != len(cols):
            raise IngestError(f"line {line}: expected {len(cols)} cells, got {len(record)}")
        rows.append([cell.strip() for cell in record])
        lines.append(line)
    if train_rows is None:
        train_rows = range(len(rows))
    vocab_rows = sorted(set(int(i) for i in train_rows))
    fields = []
    for j, c in enumerate(cols):
        if c.kind == "categorical":
            vocab = []
            for i in vocab_rows:
                if rows[i][j] not in vocab:
                    vocab.append(rows[i][j])
            fields.append((c.name, c.kind, tuple(vocab)))
        elif c.kind == "numerical":
            fields.append((c.name, c.kind, ()))
    cat_j = [j for j, c in enumerate(cols) if c.kind == "categorical"]
    num_j = [j for j, c in enumerate(cols) if c.kind == "numerical"]
    label_j = [j for j, c in enumerate(cols) if c.kind == "label"][0]
    logit_j = [j for j, c in enumerate(cols) if c.kind == "logit"]
    cat, num, labels, logits = [], [], [], []
    for row, line in zip(rows, lines):
        tok = row[label_j]
        try:
            v = float(tok)
        except ValueError:
            raise IngestError(f"line {line}: label {tok!r} is not a number") from None
        if v != 0.0 and v != 1.0:
            raise SchemaError(f"line {line}: label must be 0 or 1, got {tok!r}")
        labels.append(v)
        for j in logit_j:
            try:
                logits.append(float(row[j]))
            except ValueError:
                raise IngestError(f"line {line}: logit {row[j]!r} is not a number") from None
        codes = []
        for j in cat_j:
            vocab = fields[[f[0] for f in fields].index(cols[j].name)][2]
            codes.append(vocab.index(row[j]) if row[j] in vocab else len(vocab))
        cat.append(codes)
        values = []
        for j in num_j:
            try:
                values.append(float(row[j]))
            except ValueError:
                raise IngestError(f"line {line}: field {cols[j].name!r} value {row[j]!r} is not a number") from None
        num.append(values)
    checks = [(f"field {cols[j].name!r}", j, [r[a] for r in num]) for a, j in enumerate(num_j)]
    checks += [(f"logit {cols[j].name!r}", j, logits) for j in logit_j]
    for what, j, values in checks:
        for i, v in enumerate(values):
            if not math.isfinite(v):
                raise IngestError(f"line {lines[i]}: {what} value {rows[i][j]!r} is not finite")
    return (
        fields,
        np.array(cat, dtype=np.int64).reshape(len(rows), len(cat_j)),
        np.array(num, dtype=np.float64).reshape(len(rows), len(num_j)),
        np.array(labels, dtype=np.float64),
        np.array(logits, dtype=np.float64) if logit_j else None,
    )


def o_dataset_to_csv(ds, delimiter):
    """One csv.writer row per instance, built cell by cell: category tokens
    (<OOV> for the OOV index), repr of each float, the label as an int."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    header = [f.name for f in ds.schema.fields] + ["label"]
    writer.writerow(header + (["true_logit"] if ds.logits is not None else []))
    for i in range(ds.n):
        row, ci, ni = [], 0, 0
        for fld in ds.schema.fields:
            if fld.kind == "categorical":
                index = int(ds.cat[i, ci])
                row.append(fld.vocab[index] if index < len(fld.vocab) else "<OOV>")
                ci += 1
            else:
                row.append(repr(float(ds.num[i, ni])))
                ni += 1
        row.append(str(int(ds.labels[i])))
        if ds.logits is not None:
            row.append(repr(float(ds.logits[i])))
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Whole-array reference formulations.  The package computes the same
# arithmetic with bare ufuncs; these keep numpy's own spelling of it, so a
# comparison with np.array_equal pins that the bits did not change.
# ---------------------------------------------------------------------------


def o_layer_norm_np(x, g, b, eps):
    """Layer norm over the last axis through ndarray.mean and ndarray.var;
    returns (y, xhat, inv_std)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return g * xhat + b, xhat, inv_std


def o_layer_norm_bwd_np(dy, xhat, inv_std, g):
    """(dx, dg, db) of layer norm through ndarray.mean."""
    lead = tuple(range(dy.ndim - g.ndim))
    dxhat = dy * g
    dx = inv_std * (
        dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, (dy * xhat).sum(axis=lead), dy.sum(axis=lead)


def o_sigmoid_sign_split(s):
    """The sign-split logistic by boolean indexing, clipped like the package's."""
    arr = np.asarray(s, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    es = np.exp(arr[~pos])
    out[~pos] = es / (1.0 + es)
    return np.clip(out, SIGMOID_FLOOR, 1.0 - SIGMOID_FLOOR)


def sigmoid_bwd(dy, y):
    """dL/ds for y = sigmoid(s)."""
    return dy * y * (1.0 - y)


# ---------------------------------------------------------------------------
# Accounting and the training objective, written out for the tests that
# pin them
# ---------------------------------------------------------------------------


def mask_unit_param_count(m, z, r):
    """Closed-form parameter count of one mask unit (t = r*z)."""
    t = r * z
    return t * m + t + z * t + z


def group_count(model, prefix):
    """Total size of parameters whose dotted name starts with `prefix`."""
    return sum(
        arr.size
        for name, arr in model.store.params.items()
        if name == prefix or name.startswith(prefix + ".")
    )


def objective(model, cat, num, labels, lam):
    """Mean log loss plus lam * ||theta||^2 over every trainable parameter."""
    probs, _ = model.forward(cat, num)
    return logloss(probs, labels) + l2_penalty(model.store, lam)
