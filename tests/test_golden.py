"""Bit-level golden values for the Monte Carlo summaries.

Each case hashes the exact hexadecimal form of every CellSummary field, so a
refactor of the replicate, pool or reduction code that changes even the last
bit of one number fails here.  They were moved on purpose by the streams
keyed by 64-replicate chunks, the BLAS-free row sums and the products in
place of `pow`, by sorting each replicate's first margin before the
inversion and summing its rank products in increasing second coordinate,
and last by keying each stream by the cell's (theta, n) instead of its grid
position; a deliberate change of random stream or of reduction order must update them
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
GRID_DIGEST = "9fc4f9f611601cc3738a445ed8c9e56772090519fe3ddc67b0b13ccc0eaec152"
SWEEP_DIGEST = "043e89f3e583dfbd6ab47974f03fc8c7f92667117603ac0a8cbdf4cd7cfc274f"
SINGLE_REP_DIGEST = "43e4fed59871eccf9556cd0f3c149f9c3f01d1d673a5c288388d0181719ea75f"
LIMIT_VARIANCE_DIGEST = "d0d390d9cb84be2551e5ae5a1099ff6a3f9dcbec493ecbe6c20373f5eeee55b0"


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
