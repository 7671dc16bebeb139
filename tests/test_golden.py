"""Bit-level golden values for the Monte Carlo summaries.

Each case hashes the exact hexadecimal form of every CellSummary field, so a
refactor of the replicate, pool or reduction code that changes even the last
bit of one number fails here.  They were moved on purpose by the streams
keyed by 64-replicate chunks, the BLAS-free row sums and the products in
place of `pow`, and last by sorting each replicate's first margin before the
inversion and summing its rank products in increasing second coordinate; a
deliberate change of random stream or of reduction order must update them
and say so in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from tailrho import ExperimentConfig, degree_sweep, run_table
from definitions import estimate_limit_variance


def digest(rows) -> str:
    """SHA-256 of the fields of every row, floats as float.hex."""
    lines = []
    for row in rows:
        fields = dataclasses.astuple(row) if dataclasses.is_dataclass(row) else (row,)
        lines.append(",".join(v.hex() if isinstance(v, float) else repr(v) for v in fields))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


GRID = ExperimentConfig(
    thetas=(-1.0, 0.0, 0.5), ns=(15, 40), ps=(0.1, 1.0), reps=40, seed=2024
)
GRID_DIGEST = "0fa2f736a84ec3315d8a887fcacbe2b1a2b9061c5c0c62d8a649986dcb727f79"
SWEEP_DIGEST = "b5c31353f880b050bb962eef410c7976731bb1452f7ea099f9072d51d191dfd4"
SINGLE_REP_DIGEST = "eda16013cf86d039b6571181b77ba023c3377e41b6ddcd96ffca1a5017d00b62"
LIMIT_VARIANCE_DIGEST = "295cef679d62d00f491438861a9b332bbfda0858b4f84f9d08f2e364683649fd"


@pytest.mark.parametrize("workers", [1, 2])
def test_run_table(workers):
    assert digest(run_table(GRID, workers=workers)) == GRID_DIGEST


def test_degree_sweep_sixty_degrees():
    rows = degree_sweep(-0.5, 30, 0.5, 1, 60, reps=25, seed=99, workers=2)
    assert digest(rows) == SWEEP_DIGEST


def test_single_replicate_sweep():
    rows = degree_sweep(1.0, 20, 1.0, 1, 5, reps=1, seed=3, workers=1)
    assert all(row.var_emp is None and row.var_bern is None for row in rows)
    assert digest(rows) == SINGLE_REP_DIGEST


def test_limit_variance():
    value = estimate_limit_variance(0.5, 0.5, n=300, reps=200, seed=8, workers=2)
    assert digest([value]) == LIMIT_VARIANCE_DIGEST
