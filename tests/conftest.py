import sys
import tempfile
from dataclasses import fields
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

from masknet.data import CATEGORICAL, NUMERICAL, Field, FeatureSchema
from masknet.maskblock import Ablation
from masknet.numeric import make_rng

# Property tests replay the same examples on every run (derandomize), keep no
# example database, and have no per-example deadline, which a loaded machine
# would miss.
settings.register_profile("replay", derandomize=True, database=None, deadline=None)
settings.load_profile("replay")
# Hypothesis also caches the constants it reads from the package's source,
# from collection on; that goes to a directory removed when the run ends.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


# Every subset of the block ablations, as name tuples, the empty one first.
_PARTS = [f.name for f in fields(Ablation)]
ABLATION_SUBSETS = [names for n in range(len(_PARTS) + 1) for names in combinations(_PARTS, n)]


@pytest.fixture
def rng():
    return make_rng(1234, 77)


def small_schema(f_cat=2, f_num=1, vocab=3):
    fields = [Field(f"c{i}", CATEGORICAL, tuple(f"t{j}" for j in range(vocab))) for i in range(f_cat)]
    fields += [Field(f"x{i}", NUMERICAL) for i in range(f_num)]
    return FeatureSchema(tuple(fields))


def random_batch(schema, rng, n=4, oov=True):
    """Random encoded batch conforming to a schema; includes OOV indices."""
    hi = [f.vocab_size + (1 if oov else 0) for f in schema.categorical]
    cat = np.column_stack([rng.integers(0, h, size=n) for h in hi]).astype(np.int64) if hi else np.zeros((n, 0), dtype=np.int64)
    num = rng.normal(size=(n, len(schema.numerical)))
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    return cat, num, labels
