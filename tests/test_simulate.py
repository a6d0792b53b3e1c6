"""Tests for trajectory simulation and empirical rate measurement."""

from dataclasses import replace

import numpy as np
import pytest

from lurecert import linalg
from lurecert.model import (
    CONTINUOUS,
    DISCRETE,
    ClosedLoop,
    Gains,
    LureSystem,
    NonlinearFn,
    close_loop,
)
from lurecert.psilib import paper_psi, scaled_tanh_psi, tanh_psi, zero_psi
from lurecert.simulate import (
    DivergenceError,
    Trajectory,
    certify_empirically,
    random_pairs,
    rate_estimate,
    simulate_ct,
    simulate_dt,
    sweep_pairs,
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


class TestStackedSimulation:
    """One simulation of an (N, n_x) stack of initial states."""

    def loops(self):
        a = 0.3 * np.random.default_rng(11).normal(size=(3, 3))
        gains = Gains(K=np.zeros((1, 3)), K_psi=np.zeros((1, 1)))
        return tuple(close_loop(LureSystem(A=a_d, B=np.zeros((3, 1)),
                                           B_psi=np.array([[0.3], [0.0], [0.5]]),
                                           C=np.eye(3)[:2], domain=domain), gains)
                     for a_d, domain in ((a, DISCRETE), (a - np.eye(3), CONTINUOUS)))

    def test_stack_shape_and_single_state_shape(self):
        cl, _ = self.loops()
        x0 = np.random.default_rng(1).uniform(-1.0, 1.0, (4, 3))
        traj = simulate_dt(cl, paper_psi(2), x0, steps=5)
        assert traj.states.shape == (6, 4, 3)
        assert traj.psi_evaluations == 5
        assert simulate_dt(cl, paper_psi(2), x0[0], steps=5).states.shape == (6, 3)
        with pytest.raises(linalg.DimensionError):
            simulate_dt(cl, paper_psi(2), np.zeros((2, 2, 3)), steps=5)

    @pytest.mark.parametrize("domain", [DISCRETE, CONTINUOUS])
    def test_sweep_matches_one_run_per_initial_state(self, domain):
        cl = self.loops()[domain == CONTINUOUS]
        grid = {"steps": 40} if domain == DISCRETE else {"t_end": 0.4, "dt": 1e-2}
        sim = simulate_dt if domain == DISCRETE else simulate_ct
        psis = [paper_psi(i) for i in (1, 2, 3)] + [zero_psi(2, 1)]
        pairs = random_pairs(3, seed=2, n_pairs=3)
        p = np.diag([1.0, 2.0, 0.5])
        seen = 0
        for psi, i, ta, tb, rep in sweep_pairs(cl, psis, pairs, p, **grid):
            for traj, x0 in ((ta, pairs[i][0]), (tb, pairs[i][1])):
                one = sim(cl, psi, x0, *grid.values())
                assert traj.states.shape == one.states.shape
                np.testing.assert_allclose(traj.states, one.states, rtol=1e-13,
                                           atol=1e-13 * np.abs(one.states).max())
                assert traj.psi_evaluations == one.psi_evaluations
            alone = rate_estimate(ta, tb, p)
            assert np.array_equal(rep.ratios, alone.ratios)
            assert rep.max_ratio == alone.max_ratio
            seen += 1
        assert seen == len(psis) * len(pairs)

    def test_sweep_checks_p_once(self, monkeypatch):
        # P is the same for every pair, so a sweep checks it once
        cl, _ = self.loops()
        pairs = random_pairs(3, seed=2, n_pairs=3)
        as_spd = linalg.as_spd
        calls = []
        monkeypatch.setattr(linalg, "as_spd", lambda *a: calls.append(a) or as_spd(*a))
        rows = list(sweep_pairs(cl, [paper_psi(1), paper_psi(2)], pairs, np.eye(3), steps=5))
        assert len(rows) == 6
        assert len(calls) == 1
        with pytest.raises(ValueError, match="P must be positive definite"):
            list(sweep_pairs(cl, [paper_psi(1)], pairs, np.diag([1.0, -1.0, 1.0]), steps=5))

    def test_one_diverging_member_raises(self):
        # x -> 0.5 x + x^2 settles from 0.1 and overflows from 2.0
        cl = ClosedLoop(A_cl=np.array([[0.5]]), B_cl=np.array([[1.0]]), C=np.eye(1),
                        domain=DISCRETE)
        square = NonlinearFn(fn=lambda y: y ** 2, n_y=1, n_psi=1, vectorized=True)
        assert np.all(np.isfinite(simulate_dt(cl, square, np.array([[0.1], [-0.2]]),
                                              steps=20).states))
        with pytest.raises(DivergenceError) as exc:
            simulate_dt(cl, square, np.array([[0.1], [2.0], [-0.2]]), steps=20)
        assert exc.value.step == 10
        with pytest.raises(DivergenceError):
            list(sweep_pairs(cl, [square], [(np.array([0.1]), np.array([-0.2])),
                                            (np.array([0.3]), np.array([2.0]))],
                             np.eye(1), steps=20))

    @pytest.mark.parametrize("domain", [DISCRETE, CONTINUOUS])
    def test_mixed_sweep_matches_one_run_per_initial_state(self, domain):
        # declared builtins and a psi called row by row share one stack
        cl = self.loops()[domain == CONTINUOUS]
        grid = {"steps": 30} if domain == DISCRETE else {"t_end": 0.3, "dt": 1e-2}
        sim = simulate_dt if domain == DISCRETE else simulate_ct
        undeclared = NonlinearFn(fn=lambda y: np.array([0.4 * np.sin(y[0] - y[1])]),
                                 n_y=2, n_psi=1, name="undeclared")
        psis = [paper_psi(2), undeclared, zero_psi(2, 1), paper_psi(3)]
        pairs = random_pairs(3, seed=4, n_pairs=2)
        seen = []
        for psi, i, ta, tb, _ in sweep_pairs(cl, psis, pairs, np.eye(3), **grid):
            for traj, x0 in ((ta, pairs[i][0]), (tb, pairs[i][1])):
                one = sim(cl, psi, x0, *grid.values())
                np.testing.assert_allclose(traj.states, one.states, rtol=1e-13,
                                           atol=1e-13 * np.abs(one.states).max())
                assert traj.psi_evaluations == one.psi_evaluations
            seen.append((psi.name, i))
        assert seen == [(psi.name, i) for psi in psis for i in range(len(pairs))]

    @pytest.mark.parametrize("domain", [DISCRETE, CONTINUOUS])
    def test_diverging_psi_raises_before_any_result(self, domain):
        # x -> 0.5 x + x^2 (DT) and xdot = -0.5 x + x^2 (CT) blow up from 2.0;
        # with psi = 0 the same loop settles
        cl = ClosedLoop(A_cl=np.array([[0.5 if domain == DISCRETE else -0.5]]),
                        B_cl=np.array([[1.0]]), C=np.eye(1), domain=domain)
        grid = {"steps": 20} if domain == DISCRETE else {"t_end": 2.0, "dt": 1e-2}
        sim = simulate_dt if domain == DISCRETE else simulate_ct
        square = NonlinearFn(fn=lambda y: y ** 2, n_y=1, n_psi=1, vectorized=True)
        pairs = [(np.array([0.1]), np.array([-0.2])), (np.array([0.3]), np.array([2.0]))]
        with pytest.raises(DivergenceError) as own:
            sim(cl, square, np.array([x for pair in pairs for x in pair]), *grid.values())
        results = []
        with pytest.raises(DivergenceError) as swept:
            for result in sweep_pairs(cl, [zero_psi(1, 1), square], pairs, np.eye(1),
                                      **grid):
                results.append(result)
        assert own.value.step == (10 if domain == DISCRETE else 60)
        assert swept.value.step == own.value.step
        assert results == []

    @pytest.mark.parametrize("domain", [DISCRETE, CONTINUOUS])
    def test_wrong_shaped_psi_raises(self, domain):
        cl = self.loops()[domain == CONTINUOUS]
        grid = {"steps": 5} if domain == DISCRETE else {"t_end": 0.05, "dt": 1e-2}
        pairs = random_pairs(3, seed=5, n_pairs=2)
        identity = NonlinearFn(fn=lambda y: y, n_y=2, n_psi=1, vectorized=True)
        with pytest.raises(linalg.DimensionError,
                           match=r"evaluator returned shape \(4, 2\), expected \(4, 1\)"):
            list(sweep_pairs(cl, [paper_psi(1), identity], pairs, np.eye(3), **grid))
        calls = []

        def shrinking(y):
            # right on the checked first stage, then one row that would broadcast
            calls.append(1)
            return y[:, :1] if len(calls) == 1 else y[:1, :1]

        late = NonlinearFn(fn=shrinking, n_y=2, n_psi=1, vectorized=True)
        with pytest.raises(linalg.DimensionError,
                           match=r"evaluator returned shape \(1, 1\), expected \(4, 1\)"):
            list(sweep_pairs(cl, [late, paper_psi(2)], pairs, np.eye(3), **grid))
        assert len(calls) == 2

    @pytest.mark.parametrize("domain", [DISCRETE, CONTINUOUS])
    def test_psi_sequence_matches_one_run_per_block(self, domain):
        # k psis split the stack into k equal row blocks, psi j on block j
        cl = self.loops()[domain == CONTINUOUS]
        grid = (30,) if domain == DISCRETE else (0.3, 1e-2)
        sim = simulate_dt if domain == DISCRETE else simulate_ct
        undeclared = NonlinearFn(fn=lambda y: np.array([0.4 * np.sin(y[0] - y[1])]),
                                 n_y=2, n_psi=1, name="undeclared")
        psis = [paper_psi(2), undeclared, zero_psi(2, 1)]
        x0 = np.random.default_rng(7).uniform(-1.0, 1.0, (6, 3))
        stack = sim(cl, psis, x0, *grid)
        assert stack.states.shape == (len(stack.times), 6, 3)
        for j, psi in enumerate(psis):
            one = sim(cl, psi, x0[2 * j:2 * j + 2], *grid)
            np.testing.assert_allclose(stack.states[:, 2 * j:2 * j + 2], one.states,
                                       rtol=1e-13, atol=1e-13 * np.abs(one.states).max())
            assert stack.psi_evaluations == one.psi_evaluations
        assert np.array_equal(sim(cl, [paper_psi(2)], x0, *grid).states,
                              sim(cl, paper_psi(2), x0, *grid).states)

    def test_psi_sequence_must_split_the_stack(self):
        cl, _ = self.loops()
        x0 = np.zeros((5, 3))
        two = [paper_psi(1), paper_psi(2)]
        for psis, x in ((two, x0), ([], x0), (two, x0[0])):
            with pytest.raises(linalg.DimensionError,
                               match=rf"stack of {len(np.atleast_2d(x))} states does not "
                                     rf"split into {len(psis)} equal blocks"):
                simulate_dt(cl, psis, x, steps=3)

    @pytest.mark.parametrize("domain", [DISCRETE, CONTINUOUS])
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_psi_of_other_dims_raises_before_any_call(self, domain, vectorized):
        cl = self.loops()[domain == CONTINUOUS]
        grid = {"steps": 5} if domain == DISCRETE else {"t_end": 0.05, "dt": 1e-2}
        pairs = random_pairs(3, seed=5, n_pairs=2)
        calls = []
        for n_y, n_psi in ((3, 1), (2, 2)):
            wrong = NonlinearFn(fn=lambda y: calls.append(1) or y[..., :1], n_y=n_y,
                                n_psi=n_psi, name="wrong", vectorized=vectorized)
            with pytest.raises(linalg.DimensionError,
                               match=rf"psi 'wrong' has \(n_y, n_psi\) = \({n_y}, {n_psi}\), "
                                     r"but the loop has \(2, 1\)"):
                list(sweep_pairs(cl, [paper_psi(1), wrong], pairs, np.eye(3), **grid))
        assert calls == []

    def test_declared_psi_without_float_arrays_stays_checked(self):
        # lists and int arrays are converted on every stage, as NonlinearFn does
        cl, _ = self.loops()
        x0 = np.random.default_rng(6).uniform(-1.0, 1.0, (4, 3))
        ref = simulate_dt(cl, NonlinearFn(fn=lambda y: np.round(4 * y[:, :1]), n_y=2,
                                          n_psi=1, vectorized=True), x0, steps=8)
        for fn in (lambda y: np.round(4 * y[:, :1]).tolist(),
                   lambda y: np.round(4 * y[:, :1]).astype(int)):
            traj = simulate_dt(cl, NonlinearFn(fn=fn, n_y=2, n_psi=1, vectorized=True),
                               x0, steps=8)
            assert np.array_equal(traj.states, ref.states)


class TestStageMaps:
    """The stepping loop against each step written out stage by stage."""

    def loop(self, seed, domain, n_psi):
        rng = np.random.default_rng(seed)
        a = 0.4 * rng.normal(size=(3, 3)) - (np.eye(3) if domain == CONTINUOUS else 0.0)
        cl = ClosedLoop(A_cl=a, B_cl=0.5 * rng.normal(size=(3, n_psi)),
                        C=rng.normal(size=(2, 3)), domain=domain)
        w = rng.normal(size=(2, n_psi))
        psi = NonlinearFn(fn=lambda y: np.tanh(y @ w), n_y=2, n_psi=n_psi, vectorized=True)
        return cl, psi, rng.uniform(-1.0, 1.0, (4, 3))

    @pytest.mark.parametrize("n_psi", [1, 2])
    @pytest.mark.parametrize("dt", [1e-3, 5e-3, 1e-2])
    def test_ct_matches_stage_by_stage_rk4(self, n_psi, dt):
        for seed in range(3):
            cl, psi, x0 = self.loop(seed, CONTINUOUS, n_psi)

            def f(x):
                return x @ cl.A_cl.T + psi(x @ cl.C.T) @ cl.B_cl.T

            x, ref = x0, [x0]
            for _ in range(int(round(0.5 / dt))):
                k1 = f(x)
                k2 = f(x + 0.5 * dt * k1)
                k3 = f(x + 0.5 * dt * k2)
                k4 = f(x + dt * k3)
                x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
                ref.append(x)
            ref = np.array(ref)
            traj = simulate_ct(cl, psi, x0, 0.5, dt)
            np.testing.assert_allclose(traj.states, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("n_psi", [1, 2])
    def test_dt_matches_the_iterated_map(self, n_psi):
        for seed in range(3):
            cl, psi, x0 = self.loop(seed, DISCRETE, n_psi)
            x, ref = x0, [x0]
            for _ in range(40):
                x = x @ cl.A_cl.T + psi(x @ cl.C.T) @ cl.B_cl.T
                ref.append(x)
            ref = np.array(ref)
            traj = simulate_dt(cl, psi, x0, 40)
            np.testing.assert_allclose(traj.states, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("domain, stages", [(DISCRETE, 1), (CONTINUOUS, 4)])
    def test_psi_is_called_once_per_stage(self, domain, stages):
        # the full check of the first stage's output makes no second call
        cl, psi, x0 = self.loop(0, domain, 2)
        calls = []
        counting = replace(psi, fn=lambda y: calls.append(y.shape) or psi.fn(y))
        traj = (simulate_dt(cl, counting, x0, 7) if domain == DISCRETE
                else simulate_ct(cl, counting, x0, 0.07, 1e-2))
        assert calls == [(4, 2)] * stages * 7
        assert traj.psi_evaluations == stages * 7


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

    def test_rounding_level_steps_excluded(self):
        # psi(0) = 300 puts the fixed point near 1.5e3, where the pair's
        # distance reaches the states' rounding (about eps * 1.5e3) long
        # before 1e-12 of its start; those steps must not set max_ratio,
        # so one ulp in the states leaves it where the dynamics put it
        cl = ClosedLoop(A_cl=np.array([[0.5, 0.1], [0.0, 0.6]]),
                        B_cl=np.array([[1.0], [1.0]]), C=np.eye(2), domain=DISCRETE)
        psi = scaled_tanh_psi(0.2, [1.0, -1.0], offset=300.0)
        p = np.array([[2.0, 0.3], [0.3, 1.0]])
        states = simulate_dt(cl, psi, np.array([[0.3, -0.2], [0.2, 0.1]]), 60).states
        t = np.arange(61.0)
        b = Trajectory(times=t, states=states[:, 1], domain=DISCRETE)
        rep = rate_estimate(Trajectory(times=t, states=states[:, 0], domain=DISCRETE), b, p)
        moved = rate_estimate(Trajectory(times=t, states=np.nextafter(states[:, 0], np.inf),
                                         domain=DISCRETE), b, p)
        assert rep.max_ratio < 0.8
        assert moved.max_ratio == pytest.approx(rep.max_ratio, rel=1e-9)


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
        ([paper_psi(1)], []),
    ], ids=["no-psi", "coincident-pairs", "no-pairs"])
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
        assert path.read_text().splitlines()[0] == "k,x1,x2"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], traj.times)
        assert np.array_equal(back[:, 1:], traj.states)

    def test_line_endings_are_lf(self, tmp_path):
        cl = linear_loop(np.array([[0.5]]), DISCRETE)
        traj = simulate_dt(cl, zero_psi(1, 1), np.array([0.0]), steps=1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == b"k,x1\n0,0\n1,0\n"

    def test_stacked_trajectory_refused(self, tmp_path):
        cl = linear_loop(np.array([[0.5]]), DISCRETE)
        stack = simulate_dt(cl, zero_psi(1, 1), np.zeros((2, 1)), steps=1)
        with pytest.raises(linalg.DimensionError, match="one \\(T, n_x\\) trajectory"):
            write_trajectory_csv(stack, tmp_path / "traj.csv")

    def test_ct_header(self, tmp_path):
        cl = linear_loop(np.array([[-1.0]]), CONTINUOUS)
        traj = simulate_ct(cl, zero_psi(1, 1), np.ones(1), t_end=0.1, dt=0.01)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text().splitlines()[0] == "t,x1"
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(back[:, 1:], traj.states)
