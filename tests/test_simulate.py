"""Tests for trajectory simulation and empirical rate measurement."""

import numpy as np
import pytest

from lurecert import linalg
from lurecert.model import (
    CONTINUOUS,
    DISCRETE,
    ClosedLoop,
    Gains,
    LureSystem,
)
from lurecert.psilib import paper_psi, tanh_psi, zero_psi
from lurecert.simulate import (
    DivergenceError,
    Trajectory,
    certify_empirically,
    rate_estimate,
    read_trajectory_csv,
    simulate_ct,
    simulate_dt,
    weighted_distance,
    write_trajectory_csv,
)

from helpers import random_spd


def linear_loop(a, domain, n_psi=1):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[0]
    return ClosedLoop(A_cl=a, B_cl=np.zeros((n, n_psi)),
                      C=np.eye(n), domain=domain)


class TestSimulateDt:
    def test_linear_part_iterates_exactly(self):
        a = np.array([[0.5, 0.1], [0.0, 0.25]])
        cl = linear_loop(a, DISCRETE)
        x0 = np.array([1.0, -2.0])
        traj = simulate_dt(cl, zero_psi(2, 1), x0, steps=6)
        expected = x0.copy()
        for k in range(7):
            assert np.allclose(traj.states[k], expected, atol=1e-14)
            expected = a @ expected
        assert traj.psi_evaluations == 6
        assert np.array_equal(traj.times, np.arange(7.0))

    def test_origin_is_fixed_for_zero_psi(self):
        cl = linear_loop(np.array([[0.9]]), DISCRETE)
        traj = simulate_dt(cl, zero_psi(1, 1), np.zeros(1), steps=5)
        assert np.all(traj.states == 0.0)

    def test_divergence_detected(self):
        cl = linear_loop(np.array([[1e200]]), DISCRETE)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            simulate_dt(cl, zero_psi(1, 1), np.ones(1), steps=5)
        assert exc.value.step == 2

    def test_domain_and_step_validation(self):
        cl = linear_loop(np.eye(1), CONTINUOUS)
        with pytest.raises(ValueError):
            simulate_dt(cl, zero_psi(1, 1), np.zeros(1), steps=3)
        cl = linear_loop(np.eye(1), DISCRETE)
        with pytest.raises(ValueError):
            simulate_dt(cl, zero_psi(1, 1), np.zeros(1), steps=0)
        with pytest.raises(linalg.DimensionError):
            simulate_dt(cl, zero_psi(1, 1), np.zeros(2), steps=3)


class TestSimulateCt:
    def test_exponential_decay(self):
        cl = linear_loop(np.array([[-1.0]]), CONTINUOUS)
        traj = simulate_ct(cl, zero_psi(1, 1), np.ones(1), t_end=1.0, dt=1e-3)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_fourth_order_convergence(self):
        # halving dt shrinks the endpoint error about 16x
        cl = linear_loop(np.array([[-2.0]]), CONTINUOUS)
        exact = np.exp(-2.0)

        def endpoint_error(dt):
            traj = simulate_ct(cl, zero_psi(1, 1), np.ones(1), t_end=1.0, dt=dt)
            return abs(traj.states[-1, 0] - exact)

        e1 = endpoint_error(0.1)
        e2 = endpoint_error(0.05)
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_nonlinear_channel_enters_dynamics(self):
        cl = ClosedLoop(A_cl=np.array([[-1.0]]), B_cl=np.array([[1.0]]),
                        C=np.eye(1), domain=CONTINUOUS)
        with_psi = simulate_ct(cl, tanh_psi(1), np.array([2.0]),
                               t_end=1.0, dt=1e-2)
        without = simulate_ct(cl, zero_psi(1, 1), np.array([2.0]),
                              t_end=1.0, dt=1e-2)
        assert with_psi.states[-1, 0] > without.states[-1, 0]

    def test_validation(self):
        cl = linear_loop(np.eye(1), DISCRETE)
        with pytest.raises(ValueError):
            simulate_ct(cl, zero_psi(1, 1), np.zeros(1), t_end=1.0, dt=1e-2)
        cl = linear_loop(np.eye(1), CONTINUOUS)
        with pytest.raises(ValueError):
            simulate_ct(cl, zero_psi(1, 1), np.zeros(1), t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            simulate_ct(cl, zero_psi(1, 1), np.zeros(1), t_end=0.0, dt=1e-2)

    def test_grid_without_steps_rejected(self):
        # t_end below dt / 2 rounds to zero steps
        cl = linear_loop(np.eye(1), CONTINUOUS)
        with pytest.raises(ValueError, match=r"t_end = 0\.0001 .* dt = 0\.001"):
            simulate_ct(cl, zero_psi(1, 1), np.zeros(1), t_end=1e-4, dt=1e-3)
        traj = simulate_ct(cl, zero_psi(1, 1), np.zeros(1), t_end=6e-4, dt=1e-3)
        assert len(traj.times) == 2


class TestWeightedDistance:
    def test_reduces_to_euclidean_for_identity(self):
        assert weighted_distance([1.0, 0.0], [0.0, 0.0], np.eye(2)) == 1.0

    def test_norm_properties(self):
        rng = np.random.default_rng(3)
        p = random_spd(rng, 3)
        for _ in range(50):
            x, y, z = rng.normal(size=(3, 3))
            dxy = weighted_distance(x, y, p)
            assert dxy >= 0
            assert dxy == pytest.approx(weighted_distance(y, x, p))
            assert dxy <= (weighted_distance(x, z, p)
                           + weighted_distance(z, y, p) + 1e-12)
        assert weighted_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], p) == 0.0


class TestRateEstimate:
    def geometric_pair(self, r, steps=8):
        # two trajectories whose difference shrinks exactly by r each step
        diffs = np.array([[r ** k, 0.0] for k in range(steps + 1)])
        base = np.zeros((steps + 1, 2))
        t = np.arange(steps + 1, dtype=float)
        return (Trajectory(times=t, states=base + diffs, domain=DISCRETE),
                Trajectory(times=t, states=base, domain=DISCRETE))

    def test_exact_geometric_ratios(self):
        t1, t2 = self.geometric_pair(0.7)
        rep = rate_estimate(t1, t2, np.eye(2))
        assert np.allclose(rep.ratios, 0.7)
        assert np.allclose(rep.energy_ratios, 0.49)
        assert rep.max_ratio == pytest.approx(0.7)
        assert rep.max_energy_ratio == pytest.approx(0.49)

    def test_energy_ratio_is_squared_ratio(self):
        rng = np.random.default_rng(5)
        a = Trajectory(times=np.arange(5.0),
                       states=rng.normal(size=(5, 3)), domain=DISCRETE)
        b = Trajectory(times=np.arange(5.0),
                       states=rng.normal(size=(5, 3)), domain=DISCRETE)
        rep = rate_estimate(a, b, random_spd(rng, 3))
        assert np.allclose(rep.energy_ratios, rep.ratios ** 2)

    def test_ct_rates(self):
        t = 0.1 * np.arange(6)
        states = np.exp(-2.0 * t)[:, None]
        zero = np.zeros((6, 1))
        t1 = Trajectory(times=t, states=states, domain=CONTINUOUS)
        t2 = Trajectory(times=t, states=zero, domain=CONTINUOUS)
        rep = rate_estimate(t1, t2, np.eye(1))
        assert np.allclose(rep.rates, 2.0)
        assert rep.min_rate == pytest.approx(2.0)

    def test_requires_spd_p(self):
        t1, t2 = self.geometric_pair(0.5)
        with pytest.raises(ValueError):
            rate_estimate(t1, t2, np.diag([1.0, -1.0]))

    def test_identical_starts_rejected(self):
        t1, _ = self.geometric_pair(0.5)
        with pytest.raises(ValueError):
            rate_estimate(t1, t1, np.eye(2))

    def test_grid_mismatch_rejected(self):
        t1, t2 = self.geometric_pair(0.5)
        other = Trajectory(times=t2.times + 1.0, states=t2.states,
                           domain=DISCRETE)
        with pytest.raises(linalg.DimensionError):
            rate_estimate(t1, other, np.eye(2))

    def test_degenerate_tail_excluded(self):
        # the difference collapses to zero after a few steps; those steps
        # must not produce ratios
        steps = 6
        diffs = np.array([[1.0], [0.5], [0.0], [0.0], [0.0], [0.0], [0.0]])
        t = np.arange(steps + 1, dtype=float)
        t1 = Trajectory(times=t, states=diffs, domain=DISCRETE)
        t2 = Trajectory(times=t, states=np.zeros((steps + 1, 1)),
                        domain=DISCRETE)
        rep = rate_estimate(t1, t2, np.eye(1))
        assert len(rep.ratios) == 2
        assert np.allclose(rep.ratios, [0.5, 0.0])


class TestCertifyEmpirically:
    def reference(self):
        sys = LureSystem(
            A=np.array([[1.2, 0.0, 0.0], [0.1, 0.8, 0.0], [0.0, 0.1, 0.6]]),
            B=np.array([[0.2], [0.0], [0.0]]),
            B_psi=np.array([[0.0], [0.0], [0.2]]),
            C=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            domain=DISCRETE,
        )
        gains = Gains(K=np.array([[-6.0, -0.6, 1.5]]), K_psi=np.array([[-1.0]]))
        p = np.diag([10.0, 20.0, 5.0])
        return sys, gains, p

    def test_reference_loop_passes_at_its_rate(self):
        sys, gains, p = self.reference()
        psis = [paper_psi(i) for i in (1, 2, 3)]
        rep = certify_empirically(sys, gains, psis, p, eta=0.9,
                                  initial_pairs=[(np.ones(3), -np.ones(3))])
        assert rep.passed
        assert rep.worst_ratio <= 0.9
        assert len(rep.details) == 3

    def test_coincident_pair_is_skipped(self):
        sys, gains, p = self.reference()
        psis = [paper_psi(i) for i in (1, 2, 3)]
        pairs = [(np.ones(3), np.ones(3)), (np.ones(3), -np.ones(3))]
        rep = certify_empirically(sys, gains, psis, p, eta=0.9, initial_pairs=pairs)
        assert rep.passed
        assert [name for name, _ in rep.details] == ["paper1", "paper2", "paper3"]

    @pytest.mark.parametrize("psis, pairs", [
        ([], [(np.ones(3), -np.ones(3))]),
        ([paper_psi(1)], [(np.ones(3), np.ones(3)), (-np.ones(3), -np.ones(3))]),
    ], ids=["no-psi", "coincident-pairs"])
    def test_nothing_simulated_raises(self, psis, pairs):
        # with nothing simulated there is no evidence, even for a rate of 0.01
        sys, gains, p = self.reference()
        with pytest.raises(ValueError, match="nothing was simulated"):
            certify_empirically(sys, gains, psis, p, eta=0.01, initial_pairs=pairs)

    def test_fails_for_overly_optimistic_rate(self):
        sys, gains, p = self.reference()
        rep = certify_empirically(sys, gains, [paper_psi(1)], p, eta=0.3,
                                  initial_pairs=[(np.ones(3), -np.ones(3))])
        assert not rep.passed
        assert rep.worst_ratio > rep.threshold

    def test_random_pairs_deterministic(self):
        sys, gains, p = self.reference()
        r1 = certify_empirically(sys, gains, [paper_psi(1)], p, eta=0.9, seed=3)
        r2 = certify_empirically(sys, gains, [paper_psi(1)], p, eta=0.9, seed=3)
        assert r1.worst_ratio == r2.worst_ratio

    def test_ct_threshold_uses_dt(self):
        sys = LureSystem(A=np.array([[-2.0]]), B=np.zeros((1, 1)),
                         B_psi=np.array([[0.1]]), C=np.eye(1),
                         domain=CONTINUOUS)
        gains = Gains(K=np.zeros((1, 1)), K_psi=np.zeros((1, 1)))
        rep = certify_empirically(sys, gains, [tanh_psi(1)], np.eye(1),
                                  eta=1.0, t_end=1.0, dt=1e-2,
                                  initial_pairs=[(np.array([1.0]),
                                                  np.array([-1.0]))])
        assert rep.threshold == pytest.approx(np.exp(-1e-2))
        assert rep.passed


class TestCsvRoundTrip:
    def test_bit_for_bit(self, tmp_path):
        cl = linear_loop(np.array([[0.3, 1.0], [0.0, 0.7]]), DISCRETE)
        traj = simulate_dt(cl, zero_psi(2, 1), np.array([np.pi, 1 / 3]), steps=9)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert back.domain == DISCRETE
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)

    def test_ct_header(self, tmp_path):
        cl = linear_loop(np.array([[-1.0]]), CONTINUOUS)
        traj = simulate_ct(cl, zero_psi(1, 1), np.ones(1), t_end=0.1, dt=0.01)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text().splitlines()[0] == "t,x1"
        back = read_trajectory_csv(path)
        assert back.domain == CONTINUOUS
        assert np.array_equal(back.states, traj.states)
