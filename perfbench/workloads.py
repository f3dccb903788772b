"""The benchmark's workloads: one suite sweep each, over a fixed parameter box.

Each workload is a closed loop of one client: one fresh interpreter runs one
sweep, and the next sweep starts only after it has exited.  The seed goes
into ``SweepConfig.seed``, which the reports echo; none of the three boxes
draws from it, so their inputs are the same for every seed.  The boxes are
smaller than the suite defaults so that one sweep takes about 2-3 s on a
2-core host and a 44-second run gathers nine to eleven sweeps for its
medians.  Why each box was chosen is recorded in BENCHMARK.json and in
README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str
    ranges: dict
    jobs: int
    # Case count of a full sweep; a report with another count is wrong.
    expected_cases: int

    def spec(self, seed: int) -> dict:
        """The JSON-able sweep description handed to a child process."""
        return {"suite": self.suite, "ranges": self.ranges, "seed": seed, "jobs": self.jobs}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Lemma 3.4 closed form and the Kloosterman layer kernels; degree 5
        # gives the longest divisor chains.
        Workload(
            "kloosterman-deg5",
            "kloosterman-average",
            {"degrees": [3, 4, 5], "c_max": 5, "q_max": 3},
            1,
            390,
        ),
        # Hecke coefficients, b_n partial sums, L-values and certified tails;
        # bypasses the Gauss-sum and Kloosterman layers.
        Workload(
            "voronoi-series",
            "voronoi-core",
            {"truncation_y": 5000, "x_probe": 5000},
            1,
            79,
        ),
        # Lemma 2.2/2.3 closed forms, Fraction-valued character values and the
        # largest record count.  jobs=1: with jobs=2 the sweep uses both cores
        # and its runs spread twice as wide as the one-thread workloads.
        Workload(
            "gauss-records",
            "gauss-lemmas",
            {"cstar_max": 16, "c_max": 64},
            1,
            2496,
        ),
    )
}
