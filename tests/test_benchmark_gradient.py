"""The benchmark's gradient check, `directional_fd` in `perfbench/checks.py`,
on small models.  It compares the analytic derivative along a random
direction with a central difference of two `Model.forward` losses, and it
reads `cache["relu_pre"]`, one array per ReLU site with the batch axis first,
to leave out rows at a kink.  So these tests pin that cache contract as well
as the gradients.  The benchmark's modules are loaded as they are, with
`perfbench/` on the import path."""

import sys
from pathlib import Path

import pytest

from conftest import ABLATION_SUBSETS, random_batch, small_schema
from masknet.data import Dataset
from masknet.maskblock import Ablation
from masknet.model import Model, ModelSpec
from masknet.numeric import make_rng

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402

ROWS = 64

# dnn, and serial and parallel under every subset of the ablations
SPECS = {"dnn": ModelSpec(topology="dnn", block_widths=(6, 4), embed_dim=3, seed=3)}
_WIDTHS = {"serial": dict(block_widths=(6, 4)), "parallel": dict(block_widths=(5, 4), top_widths=(6,))}
for _topology, _widths in _WIDTHS.items():
    for _names in ABLATION_SUBSETS:
        SPECS["_".join((_topology, *_names))] = ModelSpec(
            topology=_topology, **_widths, embed_dim=3, ablation=Ablation.from_names(_names), seed=3
        )


@pytest.mark.parametrize("case", list(SPECS))
def test_directional_derivative_within_the_benchmark_tolerance(case):
    schema = small_schema(f_cat=2, f_num=2, vocab=4)
    model = Model(SPECS[case], schema)
    rng = make_rng(5, 3)
    # the zero-init head would stop every gradient upstream of it
    model.store.params["head.w"] += rng.normal(size=model.store.params["head.w"].shape)
    cat, num, labels = random_batch(schema, rng, n=ROWS)
    ds = Dataset(schema, cat, num, labels, split="valid")
    analytic, numeric, floor, left_out = checks.directional_fd(model, ds, ROWS, seed=7)
    tol = 1e-6 * max(abs(analytic), abs(numeric)) + floor  # check_models' tolerance
    assert abs(analytic - numeric) <= tol, (analytic, numeric, tol)
    assert abs(analytic) > 1e3 * floor and left_out < ROWS
