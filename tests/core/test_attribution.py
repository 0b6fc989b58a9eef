"""The successive-disable attribution harness."""

import pytest

from repro.core.attribution import (
    CYCLES,
    SCORE,
    AttributionResult,
    attribute_overhead,
)
from repro.mitigations.base import KNOBS_BY_NAME, MitigationConfig

PTI = KNOBS_BY_NAME["pti"]
MDS = KNOBS_BY_NAME["mds"]
V2 = KNOBS_BY_NAME["spectre_v2"]


def synthetic_run_fn(config, machine_seed):
    """A workload with known per-mitigation costs: baseline 1000 cycles,
    PTI +400, MDS +500 (deterministic: the machine seed is unused)."""
    cycles = 1000.0
    if config.pti:
        cycles += 400
    if config.mds_verw:
        cycles += 500
    return cycles


DEFAULT = MitigationConfig(pti=True, mds_verw=True)


def run(sigma=0.0, knobs=(PTI, MDS)):
    return attribute_overhead(
        synthetic_run_fn, DEFAULT, knobs,
        cpu="synthetic", workload="unit", metric=CYCLES,
        sigma=sigma, rel_tol=0.002, max_samples=40, seed=1,
    )


def test_total_overhead_matches_construction():
    result = run()
    assert result.total_overhead_percent == pytest.approx(90.0)


def test_contributions_attributed_to_the_right_knobs():
    result = run()
    assert result.contribution_for("pti").percent == pytest.approx(40.0)
    assert result.contribution_for("mds").percent == pytest.approx(50.0)


def test_residual_is_zero_when_knobs_cover_everything():
    assert run().other_percent == pytest.approx(0.0)


def test_noop_knobs_are_skipped_without_measurement():
    result = run(knobs=(PTI, V2, MDS))  # V2 changes nothing here
    assert result.contribution_for("spectre_v2") is None
    assert len(result.contributions) == 2


def test_residual_captures_uncovered_mitigations():
    result = run(knobs=(PTI,))  # MDS left enabled at the end of the chain
    assert result.other_percent == pytest.approx(50.0)


def test_noisy_attribution_converges_close_to_truth():
    result = run(sigma=0.01)
    assert result.contribution_for("pti").percent == pytest.approx(40.0, abs=3)
    assert result.contribution_for("mds").percent == pytest.approx(50.0, abs=3)


def test_significance_flag():
    result = run(sigma=0.005)
    assert result.contribution_for("pti").significant
    assert result.contribution_for("mds").significant


def test_score_metric_inverts_direction():
    def score_fn(config, machine_seed):
        # Mitigations reduce the score.
        score = 1000.0
        if config.js_index_masking:
            score -= 40
        return score

    knob = KNOBS_BY_NAME["js_index_masking"]
    result = attribute_overhead(
        score_fn, MitigationConfig(js_index_masking=True), (knob,),
        cpu="synthetic", workload="unit", metric=SCORE,
        sigma=0.0, rel_tol=0.002, seed=0,
    )
    assert result.total_overhead_percent == pytest.approx(4.0)
    assert result.contribution_for("js_index_masking").percent == \
        pytest.approx(4.0)
    assert result.other_percent == pytest.approx(0.0)


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        attribute_overhead(synthetic_run_fn, DEFAULT, (PTI,),
                           cpu="x", workload="y", metric="watts")


def test_as_dict_includes_other():
    d = run().as_dict()
    assert set(d) == {"pti", "mds", "other"}
