import os
from pathlib import Path

import numpy as np
import pytest

from tailrho import FgmModel, pseudo_observations

# Tests that run `python -m tailrho` in a subprocess import this checkout's
# src/ as well, installed or not.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def fgm_pseudo_sample():
    """Factory: rank-transformed FGM sample for a given (theta, n, seed)."""

    def make(theta, n, seed, denominator="n"):
        rng = np.random.default_rng(seed)
        xy = FgmModel(theta).sample(n, rng)
        return pseudo_observations(xy[:, 0], xy[:, 1], denominator=denominator)

    return make
