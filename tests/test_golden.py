"""Bit-level golden values for the Monte Carlo summaries.

Each case hashes the exact hexadecimal form of every CellSummary field, so a
refactor of the replicate, pool or reduction code that changes even the last
bit of one number fails here.  The digests were captured before the summary
and pool code was consolidated; a deliberate change of random stream or of
reduction order must update them and say so in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from tailrho import ExperimentConfig, degree_sweep, estimate_limit_variance, run_table


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
GRID_DIGEST = "09a0b8b849b9ae669221921029cc71ba0004b52da14ea63cffe429580f258863"
SWEEP_DIGEST = "f5c88dcecd9c770cb720236d374e278b1174be697274181053ea1427f5457fcb"
SINGLE_REP_DIGEST = "b8f5515ed6a076d19951360715d0705d25c7362faee3dcdf583e9b10abca33a4"
LIMIT_VARIANCE_DIGEST = "b7248fb057f4d711af18e521b3e5cbdf1b9d2f9f616b4f70e40e95ca36f93c96"


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
