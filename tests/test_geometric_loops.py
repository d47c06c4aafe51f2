"""The geometric loops, stopped at a repeated state, against the loops that ran to the horizon.

A geometric kernel's tilt loop and table loop stop once their state
repeats bit for bit and fill the rest of their output.  A repeated state
repeats for ever, so every value must be the one the full loop of
``geometric_reference`` computes, bit for bit: the tilts, the exactly
rounded total, the step of divergence, the three tables and their sums.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from inarlim import critical_tilt, gbar_tables, tilt_recursion
from geometric_reference import running_tables_reference, tilt_recursion_reference
from test_tilt_differential import HAWKES, geometric_models, horizons, tilt_fractions


@settings(max_examples=40, derandomize=True)
@given(m=geometric_models(), frac=tilt_fractions, n=horizons)
@example(m=HAWKES, frac=-0.0, n=2000)
@example(m=HAWKES, frac=0.5, n=1)
@example(m=HAWKES, frac=0.5, n=2)
@example(m=HAWKES, frac=0.5, n=30_000)
@example(m=HAWKES, frac=2.0, n=2000)
def test_geometric_tilts_match_the_full_loop_bitwise(m, frac, n):
    theta = frac * critical_tilt(m)[0]
    rec = tilt_recursion(m, theta, n)
    values, total, diverged_at = tilt_recursion_reference(m, theta, n)
    assert rec.diverged_at == diverged_at
    assert rec.values.tobytes() == values.tobytes()  # tells -0.0 from 0.0
    assert rec.log_mgf_total == total
    if rec.settled_at is not None:
        assert rec.diverged_at is None
        tail = rec.values[rec.settled_at - 1 :]
        assert tail.tobytes() == np.full(len(tail), tail[0]).tobytes()


@settings(max_examples=40, derandomize=True)
@given(m=geometric_models(), n=horizons)
@example(m=HAWKES, n=1)
@example(m=HAWKES, n=2)
@example(m=HAWKES, n=30_000)
def test_geometric_tables_match_the_full_loop_bitwise(m, n):
    decay = m.offspring.decay
    g1, g1sq, g2 = running_tables_reference(decay.c, decay.r, decay.c, decay.r, n)
    got = decay.expansion_tables(decay, n)
    for table, ref in zip(got, (g1, g1sq, g2)):
        assert table.tobytes() == ref.tobytes()
    tables = gbar_tables(m, n)
    assert np.array_equal(tables.g1, g1) and np.array_equal(tables.g2, g2)
    assert (tables.sum_g1, tables.sum_g1_sq, tables.sum_g2) == (
        float(g1.sum()),
        float(g1sq.sum()),
        float(g2.sum()),
    )
