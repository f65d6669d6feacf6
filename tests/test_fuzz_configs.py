"""Randomized configuration fuzzing.

Every combination of registered protocol x topology x feature flags
must run to completion (no hangs, no crashes).  Complements the hypothesis property
tests with a fixed-seed sweep over the *feature* space (admission
control, group commit, read-only optimization, sequential execution,
surprise aborts) that the per-feature tests only cover pairwise.
"""

import random

import pytest

import repro
from repro.config import ModelParams, TransactionType


def _random_config(rng):
    params = dict(
        num_sites=rng.choice([2, 4, 8]),
        db_size=rng.choice([300, 800, 4800]),
        mpl=rng.choice([1, 3, 6]),
        cohort_size=rng.choice([2, 4]),
        update_prob=rng.choice([0.0, 0.5, 1.0]),
        trans_type=rng.choice(list(TransactionType)),
        surprise_abort_prob=rng.choice([0.0, 0.05, 0.2]),
        admission_control=rng.choice([False, True]),
        group_commit=rng.choice([False, True]),
        read_only_optimization=rng.choice([False, True]),
    )
    params["dist_degree"] = rng.randint(1, min(4, params["num_sites"]))
    return params


@pytest.mark.parametrize("seed", range(4))
def test_random_feature_combinations_complete(seed):
    rng = random.Random(seed * 7919 + 13)
    ran = 0
    while ran < 5:
        protocol = rng.choice(repro.PROTOCOL_NAMES)
        try:
            params = ModelParams(**_random_config(rng))
        except ValueError:
            continue
        result = repro.simulate(protocol, params=params,
                                measured_transactions=40,
                                warmup_transactions=5, seed=seed)
        assert result.committed >= 40, (protocol, params)
        assert result.throughput > 0
        ran += 1
