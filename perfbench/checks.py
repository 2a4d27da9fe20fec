"""Output checks, each against a computation made apart from the program or
against a property the method must have.  A check appends a message to
`failures` instead of raising, so one run reports every check that failed."""

from __future__ import annotations

import math
import sys

import numpy as np

from workloads import BULK_BATCH, TOPOLOGIES, PassResult, Size, mevaluate

LN2 = math.log(2.0)


def auc_by_counting(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney U over n_pos * n_neg: for each positive, the negatives
    scored below it plus half those tied with it.  The counts are integers,
    so the result is exact; it shares no code with the program's rank-sum AUC."""
    pos = scores[labels == 1.0]
    neg = np.sort(scores[labels == 0.0])
    below = np.searchsorted(neg, pos, side="left")
    not_above = np.searchsorted(neg, pos, side="right")
    u = int(below.sum()) + 0.5 * int((not_above - below).sum())
    return u / (len(pos) * len(neg))


def _expect(failures: list[str], ok: bool, msg: str) -> None:
    if not ok:
        failures.append(msg)


def check_generated(res: PassResult, failures: list[str]) -> None:
    """The CSV holds the generated rows, and the manifest's AUCs are right."""
    full = res.gen.full
    lines = res.gen.csv_text.splitlines()
    header = lines[0].split(",")
    _expect(failures, len(lines) - 1 == full.n, f"csv has {len(lines) - 1} rows, generated {full.n}")
    cat_cols = [header.index(f.name) for f in full.schema.categorical]
    num_cols = [header.index(f.name) for f in full.schema.numerical]
    logit_col, label_col = header.index("true_logit"), header.index("label")
    bad = 0
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        bad += any(cells[j] != f"v{full.cat[i, a]}" for a, j in enumerate(cat_cols))
        bad += any(float(cells[j]) != full.num[i, a] for a, j in enumerate(num_cols))
        bad += float(cells[logit_col]) != full.logits[i] or float(cells[label_col]) != full.labels[i]
    _expect(failures, bad == 0, f"{bad} csv rows differ from the generated data")

    man = res.gen.manifest
    test = res.splits[2]
    for key, value in (
        ("bayes_auc_full", auc_by_counting(full.logits, full.labels)),
        ("bayes_auc_test", auc_by_counting(test.logits, test.labels)),
    ):
        _expect(failures, abs(float(man[key]) - value) <= 5.1e-7, f"manifest {key}={man[key]} vs {value:.9f}")
    _expect(failures, man["instances"] == str(full.n), f"manifest instances={man['instances']}")


def split_rows(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The documented split: PCG64 seeded with (seed, stream 1) permutes the
    rows; the last two tenths (floor) are valid and test, the rest train,
    each kept in file order."""
    perm = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1]))).permutation(n)
    tenth = n // 10
    return np.sort(perm[: n - 2 * tenth]), np.sort(perm[n - 2 * tenth : n - tenth]), np.sort(perm[n - tenth :])


def check_ingest(res: PassResult, seed: int, failures: list[str]) -> int:
    """Encode the CSV independently and compare with the ingested splits:
    vocabularies in first-seen order over the training lines, index
    len(vocab) for unseen categories, numerical columns z-scored with the
    training split's population statistics.  Returns the OOV cell count."""
    lines = res.gen.csv_text.splitlines()
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    logit_col, label_col = header.index("true_logit"), header.index("label")
    ids = split_rows(len(cells), seed)
    sizes = [ds.n for ds in res.splits]
    if sizes != [len(i) for i in ids]:
        failures.append(f"split sizes {sizes} differ from the 8:1:1 floor rule")
        return 0

    schema = res.schema
    oov = 0
    for a, fld in enumerate(schema.categorical):
        j = header.index(fld.name)
        vocab: dict[str, int] = {}
        for i in ids[0]:
            vocab.setdefault(cells[i][j], len(vocab))
        _expect(failures, tuple(vocab) == fld.vocab, f"field {fld.name}: vocabulary differs")
        for ds, split_ids in zip(res.splits, ids):
            want = np.array([vocab.get(cells[i][j], len(vocab)) for i in split_ids])
            _expect(failures, np.array_equal(ds.cat[:, a], want), f"field {fld.name}: {ds.split} indices differ")
            oov += int((want == len(vocab)).sum())
    for ds, split_ids in zip(res.splits, ids):
        labels = np.array([float(cells[i][label_col]) for i in split_ids])
        logits = np.array([float(cells[i][logit_col]) for i in split_ids])
        _expect(failures, np.array_equal(ds.labels, labels), f"{ds.split} labels differ")
        _expect(failures, np.array_equal(ds.logits, logits), f"{ds.split} true logits differ")
    for a, fld in enumerate(schema.numerical):
        j = header.index(fld.name)
        raw = [float(cells[i][j]) for i in ids[0]]
        mean = math.fsum(raw) / len(raw)
        std = math.sqrt(math.fsum((x - mean) ** 2 for x in raw) / len(raw))
        std = std if std >= 1e-12 else 1.0
        for ds, split_ids in zip(res.splits, ids):
            want = np.array([(float(cells[i][j]) - mean) / std for i in split_ids])
            err = float(np.max(np.abs(ds.num[:, a] - want) / np.maximum(1.0, np.abs(want))))
            _expect(failures, err <= 1e-12, f"field {fld.name}: {ds.split} standardized cells off by {err:.3e}")
    return oov


def directional_fd(model, ds, rows: int, seed: int) -> tuple[float, float, float, int]:
    """(analytic, central-difference) derivative of the mean log loss along a
    random unit direction in parameter space, the latter from two
    Model.forward calls at +-h; the central difference's rounding floor; and
    the number of rows left out.

    The two losses are rounded to a few ulps each, so the central difference
    cannot resolve the derivative closer than about eps * |loss| / h (1e-11
    at h = 1e-5).  A trained model's gradient is small, and along a random
    direction in some 10^6 dimensions the derivative now and then falls to
    1e-6, where that floor alone is 1e-5 relative.  The floor returned is
    64 ulps of the larger loss over h; the largest error seen was 2 ulps.

    A row whose ReLU activation pattern differs between the two ends
    straddles a kink, where central differences do not estimate the
    derivative; such rows are left out and both sides recomputed.
    Parameters and gradients are left as found."""
    store = model.store
    base = {k: v.copy() for k, v in store.params.items()}
    saved_grads = {k: v.copy() for k, v in store.grads.items()}
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 903])))
    d = {k: rng.standard_normal(v.shape) for k, v in base.items()}
    norm = math.sqrt(sum(float((x * x).sum()) for x in d.values()))
    h = 1e-5
    keep = np.arange(min(rows, ds.n))

    def at(step: float, cat, num, y) -> tuple[float, list[np.ndarray]]:
        for k, param in store.params.items():
            param[...] = base[k] + (step / norm) * d[k]
        probs, cache = model.forward(cat, num)
        loss = float(-np.mean(y * np.log(probs) + (1.0 - y) * np.log(1.0 - probs)))
        return loss, [(a > 0.0).reshape(len(y), -1) for a in cache["relu_pre"]]

    try:
        while True:
            cat, num, y = ds.cat[keep], ds.num[keep], ds.labels[keep]
            for k, param in store.params.items():
                param[...] = base[k]
            for g in store.grads.values():
                g.fill(0.0)
            probs, cache = model.forward(cat, num)
            model.backward(cache, (probs - y) / len(y))
            analytic = sum(float((store.grads[k] * d[k]).sum()) for k in d) / norm
            (lp, pat_p), (lm, pat_m) = at(h, cat, num, y), at(-h, cat, num, y)
            straddling = np.zeros(len(keep), dtype=bool)
            for a, b in zip(pat_p, pat_m):
                straddling |= (a != b).any(axis=1)
            if not straddling.any():
                floor = 64.0 * np.finfo(float).eps * max(abs(lp), abs(lm)) / h
                return analytic, (lp - lm) / (2.0 * h), floor, min(rows, ds.n) - len(keep)
            keep = keep[~straddling]
    finally:
        for k, param in store.params.items():
            param[...] = base[k]
        for k, g in store.grads.items():
            g[...] = saved_grads[k]


def check_models(res: PassResult, size: Size, seed: int, failures: list[str]) -> dict[str, float]:
    """Per trained model: ln 2 first-batch loss, reported AUCs equal to ours,
    below the Bayes ceiling, above the chance floor, gradient along a random
    direction.  Returns the program's test AUC per topology."""
    tr, va, te = res.splits
    bayes = auc_by_counting(te.logits, te.labels)
    test_auc = {}
    for t in TOPOLOGIES:
        tm = res.trained[t]
        hist = tm.history
        _expect(failures, abs(hist.first_batch_loss - LN2) <= 1e-12, f"{t}: first-batch loss {hist.first_batch_loss!r} != ln 2")
        valid_auc = auc_by_counting(tm.model.predict(va), va.labels)
        _expect(failures, abs(hist.best_valid_auc - valid_auc) <= 1e-12, f"{t}: best valid AUC {hist.best_valid_auc!r} vs {valid_auc!r}")
        _expect(failures, hist.rows[hist.best_epoch - 1][2] == hist.best_valid_auc, f"{t}: best epoch row disagrees")
        pred = tm.model.predict(te)
        reported = mevaluate.auc(pred, te.labels)
        ours = auc_by_counting(pred, te.labels)
        _expect(failures, abs(reported - ours) <= 1e-12, f"{t}: test AUC {reported!r} vs {ours!r}")
        _expect(failures, reported < bayes, f"{t}: test AUC {reported:.4f} reaches the Bayes ceiling {bayes:.4f}")
        if size.auc_floor is not None:
            _expect(failures, reported > size.auc_floor, f"{t}: test AUC {reported:.4f} not above {size.auc_floor}")
        analytic, numeric, floor, left_out = directional_fd(tm.model, va, 256, seed)
        err = abs(analytic - numeric)
        tol = 1e-6 * max(abs(analytic), abs(numeric)) + floor
        print(
            f"# check {t}: test AUC {reported:.4f} (Bayes {bayes:.4f}), directional derivative "
            f"{analytic:.6e}, error {err:.2e} of tolerance {tol:.2e} ({left_out} rows at a ReLU kink left out)",
            file=sys.stderr,
        )
        _expect(failures, err <= tol, f"{t}: directional derivative {analytic:.6e} vs finite difference {numeric:.6e}")
        test_auc[t] = reported
    return test_auc


def check_scoring(res: PassResult, failures: list[str]) -> None:
    """Checkpoint round trip is bit-exact; batch 1, 64 and 4096 agree."""
    te = res.splits[2]
    sc = res.scoring
    original = res.trained["serial"].model.predict(te)
    bulk_test = sc.bulk_preds[-1]  # the test split is the last bulk set
    _expect(failures, np.array_equal(original, bulk_test), "loaded checkpoint predicts differently from the trained model")
    _expect(failures, sc.mismatched_rounds == 0, f"{sc.mismatched_rounds} scoring rounds differ from the first")
    worst = 0.0
    for outs, rows in zip((sc.out64, sc.out1), res.request_rows):
        for out, r in zip(outs, rows):
            if out is not None:
                worst = max(worst, float(np.max(np.abs(out - bulk_test[r]))))
    _expect(failures, worst <= 1e-12, f"batch 1/64 predictions differ from batch {BULK_BATCH} by {worst:.3e}")


def check_same_outputs(untraced: PassResult, traced: PassResult, failures: list[str]) -> None:
    """Tracing wraps calls but must not change what the program computes."""
    te = untraced.splits[2]
    for t in TOPOLOGIES:
        a = untraced.trained[t].model.predict(te)
        b = traced.trained[t].model.predict(te)
        _expect(failures, np.array_equal(a, b), f"{t}: the traced run trained a different model")
    same = all(np.array_equal(a, b) for a, b in zip(untraced.scoring.bulk_preds, traced.scoring.bulk_preds))
    _expect(failures, same, "the traced run scored differently")
