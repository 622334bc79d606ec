"""Extension benchmark: pairwise variable interactions.

The paper's conclusion: hill climbing risks local minima "especially when
the dependency relationships between parameters are unclear".  This bench
computes those dependencies from a dedicated two-factor sweep and
confirms the structural expectations: the wait-policy pair
(KMP_LIBRARY x KMP_BLOCKTIME) is strongly redundant, while mechanistically
disjoint knobs compose almost independently.
"""

import numpy as np
import pytest

from conftest import emit

from repro.core.dataset import enrich_with_speedup, records_to_table
from repro.core.interactions import interaction_matrix
from repro.core.sweep import SweepPlan, run_sweep
from repro.frame.ops import concat_tables
from repro.frame.table import Table


@pytest.fixture(scope="module")
def two_factor_dataset():
    tables = []
    for arch in ("a64fx", "milan"):
        result = run_sweep(
            SweepPlan(
                arch=arch,
                workload_names=("nqueens", "health", "su3bench", "cg"),
                scale="twofactor",
                repetitions=1,
            )
        )
        tables.append(records_to_table(result.block))
    return enrich_with_speedup(concat_tables(tables))


def test_ext_variable_interactions(benchmark, two_factor_dataset, output_dir):
    """Quantify the paper's 'unclear dependency relationships'."""

    def run():
        return interaction_matrix(two_factor_dataset, min_samples=3)

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "pair": p.label,
            "strength": p.strength,
            "synergy": "+".join(p.best_synergy),
            "synergy_val": p.best_synergy_value,
            "conflict": "+".join(p.worst_conflict),
            "conflict_val": p.worst_conflict_value,
        }
        for p in pairs
    ]
    emit(
        "Extension: pairwise variable interactions (log-speedup scale)",
        Table.from_records(rows).to_text(float_fmt="{:.4f}"),
        output_dir,
        "ext_interactions.txt",
    )

    by_pair = {(p.var_a, p.var_b): p for p in pairs}
    # The wait-policy redundancy must rank among the strongest pairs.
    lib_bt = by_pair[("library", "blocktime")]
    strengths = sorted((p.strength for p in pairs), reverse=True)
    assert lib_bt.strength >= strengths[min(2, len(strengths) - 1)]
    # ... and its worst conflict is the turnaround+infinite double-buy.
    assert lib_bt.worst_conflict_value < -0.02
    assert set(lib_bt.worst_conflict) == {"turnaround", "infinite"}
    # Disjoint mechanisms compose ~independently.
    sched_align = by_pair.get(("schedule", "align_alloc"))
    if sched_align is not None:
        assert sched_align.strength < lib_bt.strength
