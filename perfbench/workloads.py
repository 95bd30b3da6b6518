"""The four benchmark workloads.

Each workload turns a seed into inputs (`setup`), runs one measured pass
over them through corrmatch's public functions (`run`), and reduces the
pass's output to a list of text items (`items`) that are compared with a
recorded reference, item by item.  `invariants` flags items that are wrong
on any seed, so seeds without a reference are still checked.

The workloads look every corrmatch function up on its module at call time,
so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from corrmatch import admissibility, density, graphs, harness
from corrmatch.rng import stream


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


class RhoCurve:
    """harness.run_rho_curve at criterion 05's shape, two workers."""

    name = "rho_curve"
    default_seed = 505
    workers = 2
    n = 3000
    grid = (1.0, 1.5, 2.0, 4.0, 8.0)
    replicates = 20
    header = "lambda,n,replicates,rho_hat,stderr,size_q05,size_q50"

    def setup(self, seed: int):
        return harness.ExperimentConfig(
            kind="rho-curve",
            n=self.n,
            seed=seed,
            replicates=self.replicates,
            lambda_grid=self.grid,
            threads=self.workers,
        )

    def run(self, config, workers: int | None = None) -> str:
        csv, _ = harness.run_rho_curve(config, threads=workers)
        return csv

    def items(self, out: str, inputs) -> list[str]:
        return out.splitlines()

    def invariants(self, out: str, inputs) -> list[bool]:
        rows = _csv_rows(out)
        ok = [",".join(rows[0]) == self.header] if rows else []
        prev = None
        for lam, row in zip(self.grid, rows[1:]):
            rho, se, q05, q50 = (float(v) for v in row[3:7])
            ok.append(
                float(row[0]) == lam
                and int(row[1]) == self.n
                and int(row[2]) == self.replicates
                and se >= 0.0
                and 0.0 < q05 <= q50 <= 1.0
                and rho >= 0.5
                and (prev is None or rho > prev)
            )
            prev = rho
        return ok


class ThresholdSweep:
    """harness.run_threshold_sweep on criterion 10's grid, one worker."""

    name = "threshold_sweep"
    default_seed = 1002
    workers = 1
    n = 2000
    grid = (2.588, 3.088, 3.588, 4.088, 4.588, 5.088)
    replicates = 3
    estimator = {"eta": 0.15, "curve_n": 1000, "curve_replicates": 6}
    header = "lambda,n,seed,estimator,overlap_fraction,accepted"

    def setup(self, seed: int):
        return harness.ExperimentConfig(
            kind="threshold-sweep",
            n=self.n,
            alpha=0.5,
            seed=seed,
            replicates=self.replicates,
            lambda_grid=self.grid,
            threads=self.workers,
            estimator=dict(self.estimator),
        )

    def run(self, config, workers: int | None = None) -> str:
        return harness.run_threshold_sweep(config, threads=workers)

    def items(self, out: str, inputs) -> list[str]:
        # wall_time_s is measurement, not output: the last column is dropped
        return [",".join(row[:-1]) for row in _csv_rows(out)]

    def invariants(self, out: str, inputs) -> list[bool]:
        rows = _csv_rows(out)
        ok = [",".join(rows[0][:-1]) == self.header] if rows else []
        for k, row in enumerate(rows[1:]):
            ok.append(
                len(row) == 7
                and k < len(self.grid) * self.replicates
                and float(row[0]) == self.grid[k // self.replicates]
                and row[1:5] == [str(self.n), str(k % self.replicates), "pi_star", "1"]
                and row[5] in ("true", "false")
            )
        return ok


class Admissibility:
    """admissibility.check_admissible on G(2000, 2/2000), CLI-default rho."""

    name = "admissibility"
    default_seed = 906
    workers = 1
    n = 2000
    lam = 2.0
    rho_hat = 1.4
    draws = 24

    def setup(self, seed: int):
        consts = admissibility.default_constants(0.5, self.rho_hat, self.n)
        sample = [graphs.sample_er(self.n, self.lam / self.n, stream(seed, rep)) for rep in range(self.draws)]
        return sample, consts

    def run(self, inputs, workers: int | None = None) -> list:
        sample, consts = inputs
        return [admissibility.check_admissible(g, consts) for g in sample]

    def items(self, out: list, inputs) -> list[str]:
        sample, _ = inputs
        items = []
        for g, report in zip(sample, out):
            dens = density.densest_subgraph_exact(g).density
            statuses = [report.conditions[c].status for c in admissibility.CONDITIONS]
            items.append(json.dumps({"statuses": statuses, "density": str(dens)}))
        return items

    def invariants(self, out: list, inputs) -> list[bool]:
        sample, consts = inputs
        return [
            len(report.conditions) == len(admissibility.CONDITIONS)
            and not report.undecided
            and report.revalidate(g, consts)
            for g, report in zip(sample, out)
        ]


class ScaleDensity:
    """Graph.from_arrays then densest_subgraph_exact on G(3e4, 4/3e4) draws.

    One draw needs 3 or 4 max-flow calls depending on the seed, a quarter
    of its time either way, so a pass solves several draws to keep the
    spread across seeds small.
    """

    name = "scale_density"
    default_seed = 7
    workers = 1
    n = 30_000
    lam = 4.0
    draws = 8

    def setup(self, seed: int):
        return [self.edge_array(stream(seed, i)) for i in range(self.draws)]

    def edge_array(self, rng: np.random.Generator):
        """The endpoints of one G(n, lam/n) draw: a binomial edge count,
        then distinct uniform pairs."""
        n = self.n
        m = int(rng.binomial(n * (n - 1) // 2, self.lam / n))
        packed = np.empty(0, dtype=np.int64)
        while packed.size < m:
            u = rng.integers(0, n, size=m, dtype=np.int64)
            v = rng.integers(0, n, size=m, dtype=np.int64)
            keep = u != v
            merged = np.concatenate([packed, np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep]])
            _, first = np.unique(merged, return_index=True)
            packed = merged[np.sort(first)]
        packed = packed[:m]
        return packed // n, packed % n

    def run(self, inputs, workers: int | None = None) -> list:
        return [density.densest_subgraph_exact(graphs.Graph.from_arrays(self.n, us, vs)) for us, vs in inputs]

    def items(self, out: list, inputs) -> list[str]:
        return [f"density={r.density} size={len(r.best_subset)} witness_edges={r.witness_edges}" for r in out]

    def invariants(self, out: list, inputs) -> list[bool]:
        return [
            Fraction(r.witness_edges, len(r.best_subset)) == r.density and r.density >= Fraction(len(us), self.n)
            for r, (us, _) in zip(out, inputs)
        ]


WORKLOADS = {w.name: w for w in (RhoCurve(), ThresholdSweep(), Admissibility(), ScaleDensity())}
