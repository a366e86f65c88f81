"""Seeded multi-lake workloads for the `limnoplan report` benchmark.

Every lake comes from `limnoplan.synth.generate_lake`: covariates with
30% gaps and 0.3 cross-correlation, one visit every 14 days. A lake is
either MAR (gaps depend on covariate x01) or MCAR (gaps at random).
The workload seed fixes every lake's generator seed, so one seed always
gives the same CSV bytes.

Per-lake shapes and report flags follow the cases the roadmap measures.
Lake counts are cut so that one 60-s benchmark run holds six to ten
repeats of a cold `report` plus a `--tolerance 0.10` re-threshold
`report` on a 2-core machine; see README.md for the reasons.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from limnoplan.dataset import write_series_csv
from limnoplan.synth import SynthConfig, generate_lake

RETOL_TOLERANCE = "0.10"


@dataclass(frozen=True)
class Workload:
    lakes: int
    visits: int
    covariates: int
    mar_lakes: int  # the first `mar_lakes` lakes are MAR, the rest MCAR
    report_args: tuple[str, ...]

    def lake_ids(self) -> list[int]:
        return [1001 + i for i in range(self.lakes)]


WORKLOADS = {
    # One long record with a small forest; the (n, k) grid dominates and
    # its per-cell cost grows with n.
    "long-history": Workload(
        lakes=1, visits=800, covariates=12, mar_lakes=0, report_args=("--trees", "10")
    ),
    # Many short lakes ranked globally: per-lake overhead, imputation and
    # the forest run twice per lake.
    "regional-global": Workload(
        lakes=3,
        visits=300,
        covariates=8,
        mar_lakes=1,
        report_args=("--trees", "40", "--global-ranking", "--n-stride", "5"),
    ),
}


def lake_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def workload_csv(workload: Workload, seed: int) -> str:
    """The whole workload as one long-format CSV in the ingest layout."""
    parts = []
    for index, lake_id in enumerate(workload.lake_ids()):
        config = SynthConfig(
            n_samples=workload.visits,
            n_features=workload.covariates,
            cross_correlation=0.3,
            missing_fraction=0.3,
            missing_mechanism="mar" if index < workload.mar_lakes else "mcar",
            sampling_interval_days=14,
            lake_id=lake_id,
            lake_name=f"Lake {lake_id}",
            seed=lake_seed(seed, index),
        )
        series, _ = generate_lake(config)
        buffer = io.StringIO()
        write_series_csv(series, buffer)
        text = buffer.getvalue()
        # Every lake shares the schema, so only the first keeps its header.
        parts.append(text if index == 0 else text.split("\n", 1)[1])
    return "".join(parts)


def write_workload(workload: Workload, seed: int, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(workload_csv(workload, seed))
