"""Traced run: per-layer metrics from spans recorded in the benchmark's files.

The layers are tailrho's modules: mc, fgm, copula, estimators, special,
asympt, quadrature and cli.  Spans are taken around calls into their public
functions, either made here directly (the replays below) or made by the
package and caught by temporarily rebinding a module-level name to a timing
wrapper (`Tracer.patch`).  Nothing in the package changes.

Every traced run, whatever its workload, measures all four groups below, so
that every per-layer metric is present in every traced run.  Each group
names the workload and end-to-end metric it should move:

- grid throughput: a replay of the engine's per-replicate recipe at n = 50
  and n = 200 (seed stream, sampler, ranks, both estimators), serial
  `run_cell`, the residual between them, and `run_table` pool efficiency;
- sweep throughput: 60 Bernstein degrees on one sample, the grid cells they
  build, `tail_weights` at m = 60 and `degree_sweep` pool efficiency;
- estimate-large throughput and peak RSS: each stage of one `estimate` at
  n = 200000;
- `asympt` reports, which have no end-to-end workload: the two corner
  integrals, the nodes they evaluate, `asymptotic_report`, `optimal_degree`
  and whole CLI reports for the 30 reference settings.

Then the workload's own commands run for the requested time, alternating
untraced and traced (all boundaries patched), which gives the tracing
overhead; the spans of the traced commands are summarised on stdout.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import math
import statistics
import warnings
from collections import Counter
from time import perf_counter

import numpy as np

from tailrho import (
    DegenerateBiasError,
    ExperimentConfig,
    FgmModel,
    asympt,
    asymptotic_report,
    bias_coeff,
    cli,
    degree_sweep,
    estimators,
    mc,
    normalized_tail_integral,
    optimal_degree,
    pseudo_observations,
    rho_hat_bernstein,
    rho_hat_empirical,
    rule_of_thumb_degree,
    run_cell,
    run_table,
    tail_weights,
    var_gain,
)
from oracles import close, rho_tail_fgm
from workloads import (
    GRID_NS,
    GRID_PS,
    GRID_THETAS,
    LARGE_N,
    LARGE_P,
    REFERENCE_CELLS,
    SWEEP_M_MAX,
    SWEEP_N,
    SWEEP_P,
    SWEEP_THETA,
    asympt_command,
    run_command,
    write_pairs,
)

# The setting of the per-replicate timings in ROADMAP.md.
REPLAY_THETA, REPLAY_P = 0.5, 0.1
REPLAY_REPS = 150
REPLAY_ROUNDS = 4
POOL_REPS = 100
SWEEP_REPLAY_REPS = 30
SWEEP_POOL_REPS = 100
TAIL_WEIGHT_CALLS = 2000
LARGE_REPEATS = 3
ASYMPT_PASSES = 3

STAGES = (
    "mc.seed_stream",
    "fgm.sample",
    "copula.pseudo_observations",
    "estimators.rho_hat_empirical",
    "estimators.rho_hat_bernstein",
)

UNITS = {}
for _n in GRID_NS:
    for _stage in STAGES:
        UNITS[f"{_stage}.us_per_rep.n{_n}"] = "us"
    UNITS[f"copula.copula_grid.us_per_call.n{_n}"] = "us"
    UNITS[f"copula.copula_grid.cells_per_rep.n{_n}"] = "count"
    UNITS[f"mc.run_cell.us_per_rep.n{_n}"] = "us"
    UNITS[f"mc.residual.us_per_rep.n{_n}"] = "us"
UNITS.update({
    "mc.run_table.pool_efficiency": "ratio",
    "estimators.rho_hat_bernstein.us_per_rep.sweep60": "us",
    "copula.copula_grid.cells_per_rep.sweep60": "count",
    "special.tail_weights.us_per_call.m60": "us",
    "mc.degree_sweep.pool_efficiency": "ratio",
    "cli.load_pairs.s": "s",
    "copula.pseudo_observations.s.large": "s",
    "special.tail_weights.ms.large": "ms",
    "copula.copula_grid.s.large": "s",
    "copula.copula_grid.bytes.large": "bytes",
    "estimators.rho_hat_bernstein.s.large": "s",
    "estimators.rho_hat_empirical.ms.large": "ms",
    "asympt.normalized_tail_integral.ms_per_call.bias": "ms",
    "asympt.normalized_tail_integral.ms_per_call.gain": "ms",
    "quadrature.nodes_per_integral": "count",
    "quadrature.nodes_per_report": "count",
    "asympt.asymptotic_report.ms_per_call": "ms",
    "asympt.optimal_degree.ms_per_call": "ms",
    "cli.asympt.ms_per_report": "ms",
    "trace.overhead_pct": "%",
})

# (module, name, span) for every layer boundary the traced commands cross.
BOUNDARIES = (
    (mc, "run_table", "mc.run_table"),
    (mc, "degree_sweep", "mc.degree_sweep"),
    (mc, "tail_weights", "special.tail_weights"),
    (mc, "pseudo_observations", "copula.pseudo_observations"),
    (mc, "rho_hat_empirical", "estimators.rho_hat_empirical"),
    (mc, "rho_hat_bernstein", "estimators.rho_hat_bernstein"),
    (cli, "load_pairs", "cli.load_pairs"),
    (cli, "pseudo_observations", "copula.pseudo_observations"),
    (cli, "rho_hat_empirical", "estimators.rho_hat_empirical"),
    (cli, "rho_hat_bernstein", "estimators.rho_hat_bernstein"),
    (cli, "normalized_tail_integral", "asympt.normalized_tail_integral"),
    (cli, "optimal_degree", "asympt.optimal_degree"),
    (cli, "mse_expansions", "asympt.mse_expansions"),
    (estimators, "copula_grid", "copula.copula_grid"),
    (estimators, "tail_weights", "special.tail_weights"),
    (asympt, "normalized_tail_integral", "asympt.normalized_tail_integral"),
    (asympt, "integrate_square", "quadrature.integrate_square"),
)


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        open_spans = self.tracer._open
        self.record = [self.name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
        open_spans.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[1] = perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[2] = perf_counter()
        self.tracer._open.pop()


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory.

    Durations are net of the time an empty span records, measured when the
    tracer is made.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self.cost = 0.0
        for _ in range(2000):
            with self.span("empty"):
                pass
        self.cost = statistics.median(self.durations("empty"))
        self.reset()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _wrap(self, fn, name: str):
        if name == "quadrature.integrate_square":
            return self._wrap_integrator(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            values = getattr(result, "values", None)
            if name == "copula.copula_grid" and values is not None:
                self.counts["copula.copula_grid.cells"] += values.size
                self.counts["copula.copula_grid.bytes"] += values.nbytes
            return result

        return wrapper

    def _wrap_integrator(self, fn, name: str):
        """Count the nodes at which the quadrature evaluates its integrand."""

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(u, v):
                self.counts["quadrature.nodes"] += np.broadcast(u, v).size
                return f(u, v)

            with self.span(name):
                return fn(counted, *args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def patch(self, boundaries=BOUNDARIES):
        """Rebind each (module, name) to a span-recording wrapper, then restore."""
        saved = [(module, attr, getattr(module, attr, None)) for module, attr, _ in boundaries]
        try:
            for (module, attr, name), (_, _, fn) in zip(boundaries, saved):
                if fn is not None:
                    setattr(module, attr, self._wrap(fn, name))
            yield
        finally:
            for module, attr, fn in saved:
                if fn is not None:
                    setattr(module, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [end - start - self.cost for span, start, end, _ in self.spans if span == name]

    def total(self, name: str) -> float:
        return math.fsum(self.durations(name))

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        net = [end - start - self.cost for _, start, end, _ in self.spans]
        children = [0.0] * len(self.spans)
        for (_, _, _, parent), seconds in zip(self.spans, net):
            if parent >= 0:
                children[parent] += seconds
        table: dict[str, list] = {}
        for (name, _, _, _), seconds, inner in zip(self.spans, net, children):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += seconds
            row[2] += seconds - inner
        return {name: tuple(row) for name, row in table.items()}


def _boundary(span: str) -> list[tuple]:
    return [b for b in BOUNDARIES if b[2] == span]


def _bits(rows) -> list[tuple]:
    """Field values with floats in exact hexadecimal form."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row))
        for row in rows
    ]


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


def grid_layers(tracer: Tracer, seed: int, workers: int, tally, metrics: dict) -> None:
    model = FgmModel(REPLAY_THETA)
    truth = model.rho_tail_analytic(REPLAY_P)
    reps = REPLAY_ROUNDS * REPLAY_REPS
    for n in GRID_NS:
        m = rule_of_thumb_degree(n)
        weights = tail_weights(REPLAY_P, m)
        run_cell(REPLAY_THETA, n, REPLAY_P, m, reps=20, seed=seed, workers=1)  # warm-up
        tracer.reset()
        samples = []
        run_cell_s = stages_s = 0.0
        mirrored = True
        # replay and run_cell alternate, so drift in machine speed falls on both
        for round_seed in range(seed, seed + REPLAY_ROUNDS):
            values = []
            for rep in range(REPLAY_REPS):
                # the engine's recipe: one SeedSequence stream per (cell, replicate)
                with tracer.span("mc.seed_stream"):
                    seq = np.random.SeedSequence(round_seed, spawn_key=(0, rep))
                    rng = np.random.default_rng(seq)
                with tracer.span("fgm.sample"):
                    xy = model.sample(n, rng)
                with tracer.span("copula.pseudo_observations"):
                    ps = pseudo_observations(xy[:, 0], xy[:, 1], denominator="n+1")
                with tracer.span("estimators.rho_hat_empirical"):
                    values.append(rho_hat_empirical(ps, REPLAY_P).value)
                with tracer.span("estimators.rho_hat_bernstein"):
                    rho_hat_bernstein(ps, REPLAY_P, m, weights=weights)
                samples.append(ps)
            # the same stages untraced: their sum without the spans' own cost
            start = perf_counter()
            for rep in range(REPLAY_REPS):
                seq = np.random.SeedSequence(round_seed, spawn_key=(0, rep))
                xy = model.sample(n, np.random.default_rng(seq))
                ps = pseudo_observations(xy[:, 0], xy[:, 1], denominator="n+1")
                rho_hat_empirical(ps, REPLAY_P)
                rho_hat_bernstein(ps, REPLAY_P, m, weights=weights)
            stages_s += perf_counter() - start
            cell, seconds = _timed(run_cell, REPLAY_THETA, n, REPLAY_P, m,
                                   reps=REPLAY_REPS, seed=round_seed, workers=1)
            run_cell_s += seconds
            mirrored &= abs(math.fsum(values) / REPLAY_REPS - truth) == cell.abs_bias_emp
        # a second pass catches the grids the Bernstein estimator builds
        with tracer.patch(_boundary("copula.copula_grid")):
            for ps in samples:
                rho_hat_bernstein(ps, REPLAY_P, m, weights=weights)
        for stage in STAGES:
            metrics[f"{stage}.us_per_rep.n{n}"] = 1e6 * tracer.total(stage) / reps
        grids = tracer.durations("copula.copula_grid")
        metrics[f"copula.copula_grid.us_per_call.n{n}"] = (
            1e6 * math.fsum(grids) / max(1, len(grids))
        )
        metrics[f"copula.copula_grid.cells_per_rep.n{n}"] = (
            tracer.counts["copula.copula_grid.cells"] / reps
        )
        metrics[f"mc.run_cell.us_per_rep.n{n}"] = 1e6 * run_cell_s / reps
        metrics[f"mc.residual.us_per_rep.n{n}"] = 1e6 * (run_cell_s - stages_s) / reps
        if not mirrored:
            print(f"note: the replay at n={n} no longer reproduces run_cell's stream")

    config = ExperimentConfig(GRID_THETAS, GRID_NS, GRID_PS, reps=POOL_REPS, seed=seed)
    serial, serial_s = [], 0.0
    for index, (theta, n, p) in enumerate(config.cells()):
        cell, seconds = _timed(run_cell, theta, n, p, config.degree_for(n),
                               reps=POOL_REPS, seed=seed, cell_index=index, workers=1)
        serial.append(cell)
        serial_s += seconds
    pooled, pooled_s = _timed(run_table, config, workers=workers)
    metrics["mc.run_table.pool_efficiency"] = serial_s / (workers * pooled_s)
    identical = _bits(pooled) == _bits(serial)
    print(f"run_table at {workers} workers equals serial run_cell bit for bit: {identical}")
    tally.add(1, int(not identical))


def sweep_layers(tracer: Tracer, seed: int, workers: int, tally, metrics: dict) -> None:
    model = FgmModel(SWEEP_THETA)
    degrees = range(1, SWEEP_M_MAX + 1)
    weights = [tail_weights(SWEEP_P, m) for m in degrees]
    tracer.reset()
    for rep in range(SWEEP_REPLAY_REPS):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, rep)))
        xy = model.sample(SWEEP_N, rng)
        ps = pseudo_observations(xy[:, 0], xy[:, 1], denominator="n+1")
        with tracer.span("estimators.rho_hat_bernstein"):
            for m, w in zip(degrees, weights):
                rho_hat_bernstein(ps, SWEEP_P, m, weights=w)
    with tracer.patch(_boundary("copula.copula_grid")):  # one more replicate counts the grid cells
        for m, w in zip(degrees, weights):
            rho_hat_bernstein(ps, SWEEP_P, m, weights=w)
    metrics["estimators.rho_hat_bernstein.us_per_rep.sweep60"] = (
        1e6 * tracer.total("estimators.rho_hat_bernstein") / SWEEP_REPLAY_REPS
    )
    metrics["copula.copula_grid.cells_per_rep.sweep60"] = tracer.counts["copula.copula_grid.cells"]
    blocks = []
    for _ in range(5):
        start = perf_counter()
        for _ in range(TAIL_WEIGHT_CALLS):
            tail_weights(SWEEP_P, SWEEP_M_MAX)
        blocks.append((perf_counter() - start) / TAIL_WEIGHT_CALLS)
    metrics["special.tail_weights.us_per_call.m60"] = 1e6 * statistics.median(blocks)

    args = (SWEEP_THETA, SWEEP_N, SWEEP_P, 1, SWEEP_M_MAX)
    serial, serial_s = _timed(degree_sweep, *args, reps=SWEEP_POOL_REPS, seed=seed, workers=1)
    pooled, pooled_s = _timed(degree_sweep, *args, reps=SWEEP_POOL_REPS, seed=seed,
                              workers=workers)
    metrics["mc.degree_sweep.pool_efficiency"] = serial_s / (workers * pooled_s)
    identical = _bits(pooled) == _bits(serial)
    print(f"degree_sweep at {workers} workers equals 1 worker bit for bit: {identical}")
    tally.add(1, int(not identical))


def large_layers(tracer: Tracer, rng, run_dir, metrics: dict) -> None:
    path = run_dir / "profile-pairs.csv"
    write_pairs(rng, path, LARGE_N)
    m = rule_of_thumb_degree(LARGE_N)
    tracer.reset()
    for _ in range(LARGE_REPEATS):
        with tracer.span("cli.load_pairs"):
            x, y = cli.load_pairs(str(path))
        with tracer.span("copula.pseudo_observations"):
            ps = pseudo_observations(x, y)
        with tracer.patch(_boundary("copula.copula_grid")):
            with tracer.span("estimators.rho_hat_bernstein"):
                rho_hat_bernstein(ps, LARGE_P, m)
        with tracer.span("estimators.rho_hat_empirical"):
            rho_hat_empirical(ps, LARGE_P)
    for _ in range(20):
        with tracer.span("special.tail_weights"):
            tail_weights(LARGE_P, m)

    def median(name: str) -> float:
        return statistics.median(tracer.durations(name) or [0.0])

    metrics["cli.load_pairs.s"] = median("cli.load_pairs")
    metrics["copula.pseudo_observations.s.large"] = median("copula.pseudo_observations")
    metrics["special.tail_weights.ms.large"] = 1e3 * median("special.tail_weights")
    metrics["copula.copula_grid.s.large"] = median("copula.copula_grid")
    metrics["copula.copula_grid.bytes.large"] = (
        tracer.counts["copula.copula_grid.bytes"] / LARGE_REPEATS
    )
    metrics["estimators.rho_hat_bernstein.s.large"] = median("estimators.rho_hat_bernstein")
    metrics["estimators.rho_hat_empirical.ms.large"] = 1e3 * median("estimators.rho_hat_empirical")


def asympt_layers(tracer: Tracer, tally, metrics: dict) -> None:
    tracer.reset()
    integrals = 0
    reports = []
    for _ in range(ASYMPT_PASSES):
        for theta, n, p in REFERENCE_CELLS:
            model = FgmModel(theta)
            for label, coeff in (("bias", bias_coeff), ("gain", var_gain)):
                def integrand(u, v, coeff=coeff):
                    tracer.counts["quadrature.nodes"] += np.broadcast(u, v).size
                    return coeff(model, u, v)

                with tracer.span(f"asympt.normalized_tail_integral.{label}"):
                    value = normalized_tail_integral(integrand, p)
                integrals += 1
                if label == "bias":  # this family's bias integral is -2 * tail rho
                    tally.add(1, int(not close(value, -2.0 * rho_tail_fgm(theta, p), atol=1e-8)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # theta = 0 warns of the vanishing bias
                with tracer.span("asympt.asymptotic_report"):
                    asymptotic_report(model, p, n)
            if theta:
                with tracer.span("asympt.optimal_degree"):
                    optimal_degree(model, p, n)
            else:
                try:
                    optimal_degree(model, p, n)
                    tally.add(1, 1)
                except DegenerateBiasError:
                    tally.add(1, 0)
            command = asympt_command(theta, n, p)
            seconds, failed = run_command(cli.main, command)
            tally.add(command.ops, failed)
            reports.append(seconds)
    for label in ("bias", "gain"):
        metrics[f"asympt.normalized_tail_integral.ms_per_call.{label}"] = (
            1e3 * statistics.mean(tracer.durations(f"asympt.normalized_tail_integral.{label}"))
        )
    metrics["quadrature.nodes_per_integral"] = tracer.counts["quadrature.nodes"] / integrals
    metrics["asympt.asymptotic_report.ms_per_call"] = (
        1e3 * statistics.mean(tracer.durations("asympt.asymptotic_report"))
    )
    metrics["asympt.optimal_degree.ms_per_call"] = (
        1e3 * statistics.mean(tracer.durations("asympt.optimal_degree"))
    )
    metrics["cli.asympt.ms_per_report"] = 1e3 * statistics.mean(reports)

    tracer.reset()
    with tracer.patch(_boundary("quadrature.integrate_square")):
        for theta, n, p in REFERENCE_CELLS:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["asympt", f"--theta={theta:g}", "--p", f"{p:g}", "--n", str(n)])
    metrics["quadrature.nodes_per_report"] = (
        tracer.counts["quadrature.nodes"] / len(REFERENCE_CELLS)
    )


def tracing_overhead(tracer: Tracer, cli_main, workload, seconds: float, tally) -> float:
    """Percent by which patched boundaries slow the workload's own commands.

    Untraced and traced commands alternate, so drift in machine load falls
    on both; the comparison is of median seconds per work unit.
    """
    plain, traced = [], []
    tracer.reset()
    deadline = perf_counter() + seconds
    while len(traced) < 2 or perf_counter() < deadline:
        for bucket, active in ((plain, False), (traced, True)):
            command = workload.next_command()
            with tracer.patch() if active else contextlib.nullcontext():
                elapsed, failed = run_command(cli_main, command)
            tally.add(command.ops, failed)
            bucket.append(elapsed / command.units)
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)


def traced_run(cli_main, workload, seconds, tally, rng, run_dir, workers) -> dict:
    seed = int(rng.integers(2**31))
    tracer = Tracer()
    metrics: dict[str, float] = {}
    grid_layers(tracer, seed, workers, tally, metrics)
    sweep_layers(tracer, seed, workers, tally, metrics)
    large_layers(tracer, rng, run_dir, metrics)
    asympt_layers(tracer, tally, metrics)
    metrics["trace.overhead_pct"] = tracing_overhead(tracer, cli_main, workload, seconds, tally)
    print(f"spans of the traced {workload.name} commands (in this process):")
    for name, (calls, total, own) in sorted(tracer.summary().items()):
        print(f"  {name}: {calls} calls, {total:.4f} s total, {own:.4f} s self")
    for name in UNITS:
        print(f"  {name} = {metrics[name]:.6g} {UNITS[name]}")
    return {name: metrics[name] for name in UNITS}
