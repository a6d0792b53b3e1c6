"""Tests for the bundled reference example reproduction."""

import dataclasses

import numpy as np
import pytest

from lurecert import solver
from lurecert.demo import (
    ENERGY_RATIO_TOL,
    EXPECTED_K,
    EXPECTED_MAX_ENERGY_RATIO,
    DemoData,
    run_demo,
)


class TestRunDemo:
    def test_golden_numbers(self):
        summary = run_demo()
        assert summary.ok
        assert summary.witness_lambda_max <= 1e-8
        assert summary.witness_w_lambda_min >= 1e-6 - 1e-12
        assert np.allclose(summary.gains.K, EXPECTED_K, atol=1e-10)
        assert summary.analysis_lambda_max <= 0
        assert summary.max_energy_ratio == pytest.approx(
            EXPECTED_MAX_ENERGY_RATIO, abs=ENERGY_RATIO_TOL)
        assert summary.max_ratio <= 0.9
        assert set(summary.per_psi_max_energy) == {"paper1", "paper2", "paper3"}

    def test_tampered_witness_detected(self):
        data = dataclasses.replace(DemoData(), Z=np.array([[-0.6, -0.03, 0.9]]))
        summary = run_demo(data=data)
        assert not summary.ok

    def test_tampered_plant_detected(self):
        bad_a = np.array([[1.4, 0.0, 0.0], [0.1, 0.8, 0.0], [0.0, 0.1, 0.6]])
        summary = run_demo(data=dataclasses.replace(DemoData(), A=bad_a))
        assert not summary.ok

    def test_ok_requires_the_analysis_reaudit(self):
        # the witness passes its audit within WITNESS_LMAX_TOL, but the gains
        # fail the analysis form at P = W^{-1}
        summary = run_demo(data=dataclasses.replace(DemoData(), eta=0.83605265))
        assert 0 < summary.witness_lambda_max <= 1e-8
        assert summary.analysis_lambda_max > 0
        assert not summary.ok

    def test_ok_follows_the_audit_floor(self, monkeypatch):
        # a positivity floor above W's lambda_min of 0.05 fails the witness
        monkeypatch.setattr(solver, "DEFAULT_EPS", 0.1)
        summary = run_demo()
        assert summary.witness_w_lambda_min == pytest.approx(0.05)
        assert not summary.ok

    def test_artifacts(self, tmp_path):
        out = tmp_path / "demo"
        summary = run_demo(out_dir=str(out))
        assert summary.ok
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert len(csvs) == 6
        svg = (out / "trajectories_x1.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
