"""Tests for the gradient oracles and their analytic constants."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from qgm_sim import engine, oracles
from qgm_sim.oracles import (
    Landscape2D,
    ProblemSpec,
    _seed_pools,
    _standard_normals,
    _step_keys,
    nonconvex_toy_gradient,
    quadratic_family,
    rosenbrock_gradient,
    sample_all,
    toy2d_gradient,
)


class TestToy2d:
    def test_worker0_from_origin_points_down(self):
        """Target (0,5): grad = ((0,0)-(0,5))/5 = (0,-1); descending moves
        toward the target.  Loss is the distance 5."""
        s = toy2d_gradient(0, np.zeros(2))
        np.testing.assert_allclose(s.grad, [0.0, -1.0], atol=0)
        assert s.loss == 5.0

    def test_worker1_from_origin_points_left(self):
        s = toy2d_gradient(1, np.zeros(2))
        np.testing.assert_allclose(s.grad, [-1.0, 0.0], atol=0)
        assert s.loss == 4.0

    def test_at_target_zero_and_converged(self):
        s = toy2d_gradient(1, np.array([4.0, 0.0]))
        assert np.all(s.grad == 0.0) and s.loss == 0.0 and s.converged

    def test_unit_magnitude_everywhere_else(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(scale=3, size=2)
            assert np.linalg.norm(toy2d_gradient(0, x).grad) == pytest.approx(1.0)

    def test_scale_knob(self):
        s = toy2d_gradient(0, np.zeros(2), scale=2.5)
        np.testing.assert_allclose(s.grad, [0.0, -2.5])

    @pytest.mark.parametrize("x,pull", [((1e160, 0.0), (1.0, 0.0)), ((-1e160, 0.0), (-1.0, 0.0)),
                                        ((1e155, 1e155), (0.5**0.5, 0.5**0.5))])
    def test_pull_stays_a_unit_vector_where_the_squared_distance_overflows(self, x, pull):
        # ||x - target||^2 overflows past ~1.3e154, where the pull once
        # came out zero and the loss inf
        x = np.array(x)
        with np.errstate(over="ignore"):
            s = toy2d_gradient(0, x)
        np.testing.assert_allclose(s.grad, pull, rtol=1e-15, atol=1e-150)
        assert s.loss == pytest.approx(float(np.hypot(*(x - (0.0, 5.0)))), rel=1e-15)
        assert not s.converged


class TestRosenbrock:
    def test_global_minimum(self):
        s = rosenbrock_gradient(np.array([1.0, 1.0]))
        assert s.loss == 0.0
        np.testing.assert_allclose(s.grad, [0.0, 0.0], atol=0)

    def test_origin_by_substitution(self):
        """f(0,0) = 0 + 100 * 1 = 100; df/dx = -4*0*(0) + 200*(0-1) = -200;
        df/dy = 2*(0-0) = 0."""
        s = rosenbrock_gradient(np.zeros(2))
        assert s.loss == 100.0
        np.testing.assert_allclose(s.grad, [-200.0, 0.0], atol=0)

    def test_finite_differences_at_2_2(self):
        assert ref.finite_difference_check(rosenbrock_gradient, np.array([2.0, 2.0])) <= 1e-6

    def test_finite_differences_at_20_random_points(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            assert ref.finite_difference_check(rosenbrock_gradient, x, h=1e-5) <= 1e-5


class TestNonconvexToy:
    def test_stationary_at_origin(self):
        """u = e^0 (0 - sin 0) = 0 and tanh(0) = 0, so both components
        vanish."""
        s = nonconvex_toy_gradient(np.zeros(2))
        np.testing.assert_allclose(s.grad, [0.0, 0.0], atol=0)
        # loss = log(2) + 10 log(2)
        assert s.loss == pytest.approx(11 * np.log(2.0))

    def test_finite_differences_at_paper_start_point(self):
        assert ref.finite_difference_check(nonconvex_toy_gradient, np.array([-2.0, 0.0])) <= 1e-6

    def test_finite_differences_in_box(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=2)
            assert ref.finite_difference_check(nonconvex_toy_gradient, x, h=1e-5) <= 1e-4

    def test_no_overflow_far_out(self):
        s = nonconvex_toy_gradient(np.array([50.0, 0.0]))
        assert np.all(np.isfinite(s.grad)) and np.isfinite(s.loss)

    @pytest.mark.parametrize("a", [3e307, -3e307, 1.7e308])
    def test_nan_sample_where_8x_overflows(self, a):
        # a is finite but 8a is not, and math.sin has no value at +-inf
        s = nonconvex_toy_gradient(np.array([a, 0.0]))
        assert np.all(np.isnan(s.grad)) and np.isnan(s.loss)


class TestQuadraticFamily:
    def test_zero_gradient_at_local_minimizer(self):
        spec = quadratic_family(dim=4, n_workers=3, zeta_c=0.7, cond=4.0)
        x_w = ref.worker_b(spec, 1) / spec.a_diag  # argmin of f_1
        s = spec.sample(1, x_w, step=0)
        np.testing.assert_allclose(s.grad, np.zeros(4), atol=1e-14)
        assert s.loss == pytest.approx(0.0, abs=1e-28)

    def test_homogeneous_when_zeta_zero(self):
        spec = quadratic_family(dim=4, n_workers=3, zeta_c=0.0)
        x = np.array([0.3, -1.0, 2.0, 0.0])
        grads = [spec.sample(w, x, 0).grad for w in range(3)]
        assert all(np.array_equal(g, grads[0]) for g in grads)
        mean = np.mean(grads, axis=0)
        measured = np.mean([np.sum((g - mean) ** 2) for g in grads])
        assert measured <= 1e-30  # only averaging round-off
        assert spec.heterogeneity_bound == 0.0

    def test_measured_heterogeneity_never_exceeds_bound(self):
        """With shared diagonal A the cross-worker variance is independent
        of x and bounded by zeta_c^2 * max(a)^2 * (1 - 1/n); equality holds
        when A = I."""
        rng = np.random.default_rng(2)
        for cond in (1.0, 9.0):
            spec = quadratic_family(dim=8, n_workers=4, zeta_c=1.3, cond=cond)
            for _ in range(10):
                x = rng.normal(size=8)
                grads = [spec.sample_mean_part(w, x) for w in range(4)]
                mean = np.mean(grads, axis=0)
                measured = np.mean([np.sum((g - mean) ** 2) for g in grads])
                assert measured <= spec.heterogeneity_bound + 1e-12
                if cond == 1.0:
                    assert measured == pytest.approx(spec.heterogeneity_bound)

    def test_monte_carlo_unbiasedness(self):
        """Mean of 1e5 noisy draws approaches the analytic gradient within
        3 (sigma_c / sqrt(N)) sqrt(dim) per coordinate."""
        spec = quadratic_family(dim=4, n_workers=2, zeta_c=0.5, sigma_c=0.1)
        x = np.array([0.5, -0.2, 1.0, 0.7])
        exact = spec.sample_mean_part(0, x)
        n_draws = 10**5
        acc = np.zeros(4)
        for step in range(n_draws):
            acc += ref.quadratic_gradient(spec, 0, x, step).grad
        tol = 3 * (0.1 / np.sqrt(n_draws)) * np.sqrt(4)
        np.testing.assert_allclose(acc / n_draws, exact, atol=tol)

    def test_analytic_constants(self):
        spec = quadratic_family(dim=4, n_workers=4, zeta_c=2.0, sigma_c=0.3, cond=9.0)
        assert spec.smoothness == pytest.approx(9.0)        # max(a)^2 = sqrt(9)^2
        assert spec.noise_bound == pytest.approx(4 * 0.09)
        assert spec.heterogeneity_bound == pytest.approx(4.0 * 9.0 * 0.75)
        np.testing.assert_allclose(spec.mean_gradient(spec.x_star), np.zeros(4), atol=1e-12)

    def test_quadratic_central_differences_are_exact(self):
        spec = quadratic_family(dim=3, n_workers=3, zeta_c=0.4, cond=2.0)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.normal(size=3)
            err = ref.finite_difference_check(lambda p: spec.sample(2, p, 0), x)
            assert err <= 1e-7

    def test_heterogeneity_requires_enough_dimensions(self):
        with pytest.raises(ValueError, match="dim >= n_workers"):
            quadratic_family(dim=2, n_workers=4, zeta_c=1.0)


class TestProblemFamilies:
    def test_each_class_refuses_the_other_familys_fields(self):
        # one class for every family once loaded a noisy-looking rosenbrock
        # that reported noise_bound 0.5 and sampled without noise
        with pytest.raises(TypeError, match="sigma_c"):
            Landscape2D(kind="rosenbrock", n_workers=2, sigma_c=0.5)
        with pytest.raises(TypeError, match="grad_scale"):
            ProblemSpec(dim=2, n_workers=2, a_diag=np.ones(2), b_base=np.ones(2),
                        grad_scale=2.0)
        assert Landscape2D(kind="rosenbrock", n_workers=2).noise_bound is None

    def test_a_quadratic_copies_its_vectors_into_read_only_float64(self):
        # a list once raised AttributeError (no setflags), integer vectors
        # with zeta_c != 0 a casting error, and the caller's own arrays
        # were left read-only
        a, b = np.array([1, 2, 3, 4]), [2, 0, -1, 5]
        given = dict(dim=4, n_workers=3, zeta_c=0.5, sigma_c=0.3, master_seed=7)
        spec = ProblemSpec(a_diag=a, b_base=b, **given)
        floats = ProblemSpec(a_diag=a.astype(float), b_base=np.array(b, dtype=float), **given)
        for name in ("a_diag", "b_base"):
            got = getattr(spec, name)
            assert got.dtype == np.float64 and got.shape == (4,) and not got.flags.writeable
        assert a.flags.writeable and a.dtype.kind == "i"
        a[0] = 9  # the spec keeps its own copy
        assert spec.a_diag[0] == 1.0
        P = np.random.default_rng(2).uniform(-2, 2, size=(4, 3))
        assert bits(spec.sample_all(P, 3)) == bits(floats.sample_all(P, 3))
        # float64 vectors keep their bits
        a_f = np.array([0.1, 1 / 3, 2.0**-1074, 7.0])
        kept = ProblemSpec(a_diag=a_f, b_base=-a_f, **given)
        assert bits(kept.a_diag) == bits(a_f) and kept.a_diag is not a_f
        assert a_f.flags.writeable
        with pytest.raises(ValueError, match=r"shape \(4,\); got b_base of shape \(4, 1\)"):
            ProblemSpec(a_diag=a_f, b_base=a_f[:, None], **given)

    def test_landscape_kinds_are_the_2d_families(self):
        with pytest.raises(ValueError, match="unknown 2-d landscape 'quadratic_family'"):
            Landscape2D(kind="quadratic_family", n_workers=2)
        with pytest.raises(ValueError, match="n_workers must be >= 1"):
            Landscape2D(kind="rosenbrock", n_workers=0)


class TestRngStreams:
    def test_same_key_same_stream(self):
        a = ref.worker_rng(123, worker=4, step=9).standard_normal(6)
        b = ref.worker_rng(123, worker=4, step=9).standard_normal(6)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        base = ref.worker_rng(123, 4, 9).standard_normal(6)
        assert not np.array_equal(base, ref.worker_rng(123, 5, 9).standard_normal(6))
        assert not np.array_equal(base, ref.worker_rng(123, 4, 10).standard_normal(6))
        assert not np.array_equal(base, ref.worker_rng(124, 4, 9).standard_normal(6))

    def test_heterogeneous_targets_are_contiguous_read_only_rows(self):
        spec = quadratic_family(dim=6, n_workers=4, zeta_c=0.7)
        rows = spec._B_rows
        assert rows.shape == (4, 6) and rows.flags.c_contiguous and not rows.flags.writeable
        assert bits(rows) == bits(spec._B.T)

    def test_noisy_sample_is_pure(self):
        spec = quadratic_family(dim=4, n_workers=2, sigma_c=0.5)
        x = np.ones(4)
        s1 = spec.sample(1, x, step=7)
        s2 = spec.sample(1, x, step=7)
        assert np.array_equal(s1.grad, s2.grad)


@st.composite
def family_point(draw, family):
    """A problem of ``family`` and a drawn point: the quadratic at zeta 0,
    at zeta 1.3 and with one worker, or a 2-d family."""
    if family.startswith("quadratic"):
        n = 1 if family == "quadratic_n1" else draw(st.integers(2, N_MAX))
        zeta = 1.3 if family == "quadratic_zeta" else 0.0
        dim = draw(st.integers(n if zeta else 1, 300))
        spec = quadratic_family(dim=dim, n_workers=n, zeta_c=zeta,
                                cond=draw(st.sampled_from([1.0, 9.0])),
                                b_scale=draw(st.floats(-2.0, 2.0)))
    else:
        n = draw(st.integers(1, 2 if family == "toy2d_hetero" else 12))
        dim = 2
        spec = Landscape2D(kind=family, n_workers=n)
    x = draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim))
    return spec, np.array(x) * draw(st.sampled_from([1.0, 1e-170, 1e150]))


class TestMeansThroughReduce:
    """``mean_loss_and_gradient`` reads the row-layout targets and reduces
    with ``np.add.reduce`` and an in-place divide: the bits of the
    transposed view and numpy's wrappers it replaced, on every family."""

    @pytest.mark.parametrize("family", ["quadratic_zeta0", "quadratic_zeta", "quadratic_n1",
                                        "toy2d_hetero", "rosenbrock", "nonconvex_toy"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equal_the_wrapped_formulas(self, family, data):
        spec, x = data.draw(family_point(family))
        with np.errstate(over="ignore", invalid="ignore"):  # inf on both sides
            loss, grad = spec.mean_loss_and_gradient(x)
            assert bits(loss) == bits(ref.wrapped_mean_loss(spec, x))
            assert bits(grad) == bits(ref.wrapped_mean_gradient(spec, x))


# seeds of one, two, three and five 32-bit words, and steps of one and two
# words, so every branch of SeedSequence's entropy assembly is crossed
SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 12345]
STEPS = [0, 1, 2**32 - 1, 2**32, 2**33 + 7]
N_MAX = 70
# what a run reads of a problem, and each class's per-worker oracle
PROTOCOL = ("n_workers", "dim", "noise_bound", "sample", "sample_all", "local_gradients",
            "mean_loss_and_gradient")


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.fixture
def draws(monkeypatch):
    """The steps of every ``oracles._standard_normals`` call from here on,
    in call order, on any thread."""
    steps = []
    draw = oracles._standard_normals

    def counted(seed_pools, step, dim):
        steps.append(step)
        return draw(seed_pools, step, dim)

    monkeypatch.setattr(oracles, "_standard_normals", counted)
    return steps


class TestBatchedDraws:
    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_match_seed_sequence(self, seed, step):
        keys = _step_keys(_seed_pools(seed, N_MAX), step)
        assert keys.shape == (N_MAX, 2) and keys.dtype == np.uint64
        for w in range(N_MAX):
            seq = np.random.SeedSequence(entropy=seed, spawn_key=(w, step))
            want = np.random.Philox(seq).state["state"]["key"]
            assert keys[w].tobytes() == want.tobytes(), w

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rekeyed_draws_match_fresh_streams(self, seed, step):
        Z = _standard_normals(_seed_pools(seed, N_MAX), step, 5)
        for w in range(N_MAX):
            assert bits(Z[w]) == bits(ref.worker_rng(seed, w, step).standard_normal(5)), w

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _seed_pools(-1, 2)

    @given(seed=st.sampled_from(SEEDS), step=st.sampled_from(STEPS),
           n=st.integers(1, N_MAX), extra_dim=st.integers(0, 5),
           zeta=st.sampled_from([0.0, 0.7]), sigma=st.sampled_from([0.0, 0.3]),
           cond=st.sampled_from([1.0, 4.0]), data=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_quadratic_columns_match_per_worker_oracle(self, seed, step, n, extra_dim,
                                                        zeta, sigma, cond, data):
        dim = n + extra_dim  # heterogeneity needs dim >= n
        spec = quadratic_family(dim=dim, n_workers=n, zeta_c=zeta, sigma_c=sigma,
                                cond=cond, master_seed=seed)
        P = np.random.default_rng(data).standard_normal((dim, n))
        G = sample_all(spec, P, step)
        assert G.shape == (dim, n)
        # the engine's gossip multiplies what the step builds from G, and a
        # matmul's bits can depend on its operands' layout
        assert G.flags.c_contiguous
        for i in range(n):
            assert bits(G[:, i]) == bits(ref.quadratic_gradient(spec, i, P[:, i], step).grad), i

    @given(seed=st.sampled_from(SEEDS), step=st.sampled_from(STEPS),
           n=st.integers(1, N_MAX), extra_dim=st.integers(0, 5),
           zeta=st.sampled_from([0.0, 0.7]), sigma=st.sampled_from([0.0, 0.3]),
           cond=st.sampled_from([1.0, 4.0]), data=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_quadratic_sample_matches_per_worker_oracle(self, seed, step, n, extra_dim,
                                                         zeta, sigma, cond, data):
        dim = n + extra_dim  # heterogeneity needs dim >= n
        spec = quadratic_family(dim=dim, n_workers=n, zeta_c=zeta, sigma_c=sigma,
                                cond=cond, master_seed=seed)
        x = np.random.default_rng(data).standard_normal(dim)
        for w in range(n):
            got, want = spec.sample(w, x, step), ref.quadratic_gradient(spec, w, x, step)
            assert bits(got.grad) == bits(want.grad), w
            assert bits(got.loss) == bits(want.loss), w
            assert bits(spec.sample_mean_part(w, x)) == bits(ref.sample_mean_part(spec, w, x)), w

    @pytest.mark.parametrize("kind,n", [("toy2d_hetero", 2), ("rosenbrock", 3),
                                        ("nonconvex_toy", 5), ("quadratic_family", 4)])
    def test_noise_free_families_match_per_worker_oracle(self, kind, n):
        # every family answers one protocol; noise-free, sample_all is the
        # local gradients bit for bit
        spec = (quadratic_family(dim=6, n_workers=n, zeta_c=0.7, cond=4.0)
                if kind == "quadratic_family" else Landscape2D(kind=kind, n_workers=n))
        assert spec.kind == kind and not spec.noise_bound
        assert [name for name in PROTOCOL if not hasattr(spec, name)] == []
        P = np.random.default_rng(4).uniform(-2, 2, size=(spec.dim, n))
        G = sample_all(spec, P, 11)
        assert bits(G) == bits(spec.sample_all(P, 11)) == bits(spec.local_gradients(P))
        for i in range(n):
            assert bits(G[:, i]) == bits(spec.sample(i, P[:, i], 11).grad), i

    def test_reused_generator_leaks_no_state_between_calls(self, draws):
        spec = quadratic_family(dim=9, n_workers=9, zeta_c=1.0, sigma_c=0.5, master_seed=3)
        P = np.ones((9, 9))
        first = sample_all(spec, P, 5)
        sample_all(spec, P, 6)
        oracles._noise_memo = (None, {})  # so step 5 is drawn again, after step 6
        assert bits(sample_all(spec, P, 5)) == bits(first)
        assert draws == [5, 6, 5]

    def test_one_column_per_worker_required(self):
        # the keys are hashed for the spec's workers once; a one-worker
        # spec's noise would otherwise broadcast over every column
        spec = quadratic_family(dim=4, n_workers=1, sigma_c=0.5)
        with pytest.raises(ValueError, match="3 columns; the problem has 1 workers"):
            sample_all(spec, np.ones((4, 3)), 0)

    def test_interleaved_specs_draw_their_own_bits(self, draws):
        # each spec holds its own per-run hash; sampling one between the
        # steps of another changes neither
        specs = [quadratic_family(dim=12, n_workers=12, zeta_c=0.5, sigma_c=0.4,
                                  master_seed=2**64 + 3),
                 quadratic_family(dim=5, n_workers=5, sigma_c=1.5, master_seed=7)]
        steps = [0, 1, 2**32, 3]
        alone = []
        for sp in specs:
            oracles._noise_memo = (None, {})
            alone.append([bits(sample_all(sp, np.ones((sp.dim, sp.n_workers)), t))
                          for t in steps])
        assert draws == steps + steps
        oracles._noise_memo = (None, {})
        interleaved = [[], []]
        for t in steps:
            for got, sp in zip(interleaved, specs):
                got.append(bits(sample_all(sp, np.ones((sp.dim, sp.n_workers)), t)))
        assert interleaved == alone
        assert draws[2 * len(steps):] == [t for t in steps for _ in specs]
        for sp, drawn in zip(specs, alone):
            assert drawn[0] == bits(np.column_stack([
                ref.quadratic_gradient(sp, w, np.ones(sp.dim), 0).grad
                for w in range(sp.n_workers)]))

    @pytest.mark.parametrize("memo_bytes", [0, oracles._NOISE_MEMO_BYTES],
                             ids=["every_thread_draws", "threads_share_the_memo"])
    def test_threads_sampling_one_spec_draw_the_serial_bits(self, memo_bytes, draws,
                                                            monkeypatch):
        spec = quadratic_family(dim=16, n_workers=16, zeta_c=0.3, sigma_c=0.7, master_seed=5)
        P = np.ones((16, 16))
        steps = range(150)
        serial = [bits(sample_all(spec, P, t)) for t in steps]
        assert draws == list(steps)
        # with no room in the memo every thread draws every step; with room,
        # each step is drawn by a thread that misses and read by the rest
        oracles._noise_memo = (None, {})
        monkeypatch.setattr(oracles, "_NOISE_MEMO_BYTES", memo_bytes)
        results = [[] for _ in range(4)]
        start = threading.Barrier(len(results), timeout=60)

        def draw(out):
            start.wait()
            out.extend(bits(sample_all(spec, P, t)) for t in steps)

        threads = [threading.Thread(target=draw, args=(out,)) for out in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(out == serial for out in results)
        threaded = sorted(draws[len(steps):])
        if memo_bytes:
            assert set(threaded) == set(steps) and len(threaded) <= 4 * len(steps)
        else:
            assert threaded == sorted(4 * list(steps))

    def test_import_and_config_load_leave_numpy_random_unloaded(self):
        # the draws' generators are built on a thread's first draw, so
        # loading a noisy config pays for none of numpy.random
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                              "quadratic_ring16_qg.ini")
        code = ("import sys, qgm_sim\n"
                f"cfg = qgm_sim.RunConfig.from_ini({config!r})\n"
                "assert cfg.problem.sigma_c > 0\n"
                "print('numpy.random' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def noisy_mapping(kind="qg_dsgdm", seed=3, n=8, dim=8, sigma=0.5, steps=12):
    """A noisy heterogeneous quadratic run on a ring, recording every step."""
    return {"problem": {"kind": "quadratic", "dim": str(dim), "zeta": "0.5",
                        "sigma": repr(sigma), "cond": "4.0", "init": "0.5"},
            "topology": {"kind": "ring", "n": str(n)},
            "optim": {"kind": kind, "eta": "0.05", "beta": "0.9"},
            "run": {"steps": str(steps), "seed": str(seed), "metrics_every": "1"}}


def run_bytes(mapping):
    """A run's metrics CSV lines, ``xbar_trace`` and final state, as text."""
    res = engine.run(engine.RunConfig.from_mapping(mapping))
    S = res.final_state
    return [engine.metrics_csv_lines(res.records), res.xbar_trace.tobytes().hex(),
            [getattr(S, attr).tobytes().hex() for attr, _ in S.array_fields()]]


def in_subprocess(code, *args):
    """The last stdout line of ``code`` run by a fresh interpreter, as JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.abspath(SRC), os.path.dirname(__file__)]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


# a fresh interpreter's run of the mapping in argv[1], as run_bytes gives it
_FRESH_RUN = """
import json, sys, warnings
from test_oracles import run_bytes
warnings.simplefilter("ignore")
print(json.dumps(run_bytes(json.loads(sys.argv[1]))))
"""

# fills the memo, forks while another thread samples (and so stores into
# and replaces the memo), and has the child sample a step the memo holds,
# one it does not and a spec of another signature; prints the child's
# exit status, 0 when every block it gets and every block its memo holds
# equals a fresh stream's draw
_FORKED_CHILD = """
import json, os, signal, threading
import numpy as np
from qgm_sim import oracles
from qgm_sim.oracles import quadratic_family

def fresh(spec, step):
    rows = [np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=spec.master_seed, spawn_key=(w, step)))).standard_normal(spec.dim)
        for w in range(spec.n_workers)]
    return spec.sigma_c * np.array(rows)

kept = quadratic_family(dim=8, n_workers=4, sigma_c=0.5, master_seed=11)
rival = quadratic_family(dim=8, n_workers=4, sigma_c=0.5, master_seed=12)
other = quadratic_family(dim=5, n_workers=3, sigma_c=1.5, master_seed=2)
for t in range(5):
    kept.sample_rows(t)
stop, sampling = threading.Event(), threading.Event()

def sample():
    t = 0
    while not stop.is_set():
        (kept if t % 2 else rival).sample_rows(t % 9)
        sampling.set()
        t += 1

thread = threading.Thread(target=sample)
thread.start()
sampling.wait(30)
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child stuck on a lock the sampler held ends here
    ok = all(np.array_equal(spec.sample_rows(t)[1][2].T, fresh(spec, t))
             for spec, t in [(kept, 2), (kept, 7), (other, 0), (other, 1)])
    specs = {(s.master_seed, s.n_workers, s.dim, s.sigma_c): s for s in (kept, rival, other)}
    held, steps = oracles._noise_memo
    ok = ok and all(np.array_equal(Z, fresh(specs[held], t)) for t, Z in steps.items())
    os._exit(0 if ok else 1)
stop.set()
thread.join()
print(json.dumps(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
"""


@pytest.mark.filterwarnings("ignore:momentum bound violated")
class TestNoiseMemo:
    """The noise memo: a run reads back the blocks that a run of the same
    signature drew, and no bit depends on whether it does."""

    def test_a_second_run_of_one_signature_draws_nothing(self, draws):
        run_bytes(noisy_mapping("qg_dsgdm"))
        drawn = list(draws)
        assert drawn and len(set(drawn)) == len(drawn)
        second = run_bytes(noisy_mapping("dsgdm"))
        assert draws == drawn
        assert second == in_subprocess(_FRESH_RUN, json.dumps(noisy_mapping("dsgdm")))

    @pytest.mark.parametrize("change", [{"seed": 4}, {"n": 6}, {"dim": 10}, {"sigma": 0.25}],
                             ids=["seed", "n", "dim", "sigma"])
    def test_another_signature_draws_every_step(self, change, draws):
        run_bytes(noisy_mapping())
        drawn = list(draws)
        got = run_bytes(noisy_mapping(**change))
        assert draws == drawn + drawn
        oracles._noise_memo = (None, {})
        assert run_bytes(noisy_mapping(**change)) == got

    def test_noise_blocks_are_read_only(self):
        spec = quadratic_family(dim=6, n_workers=4, sigma_c=0.5, master_seed=1)
        drawn, kept = spec.sample_rows(3)[1][2], spec.sample_rows(3)[1][2]
        assert kept.base is drawn.base
        for Zt in (drawn, kept):
            assert not Zt.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                Zt[0, 0] = 1.0
        assert not any(Z.flags.writeable for Z in oracles._noise_memo[1].values())

    def test_the_memo_keeps_only_the_steps_that_fit(self, draws):
        spec = quadratic_family(dim=64, n_workers=64, sigma_c=0.5, master_seed=2)
        P = np.zeros((64, 64))
        fit = oracles._NOISE_MEMO_BYTES // (64 * 64 * 8)
        steps = range(fit + 20)
        first = [bits(sample_all(spec, P, t)) for t in steps]
        kept = oracles._noise_memo[1]
        assert sorted(kept) == list(range(fit))
        assert sum(Z.nbytes for Z in kept.values()) <= oracles._NOISE_MEMO_BYTES
        del draws[:]
        assert [bits(sample_all(spec, P, t)) for t in steps] == first
        assert draws == list(range(fit, fit + 20))

    def test_a_step_larger_than_the_memo_is_never_kept(self, draws):
        spec = quadratic_family(dim=2**16, n_workers=16, sigma_c=0.5)
        first = spec.sample_rows(0)[1][2]
        assert first.nbytes > oracles._NOISE_MEMO_BYTES
        assert oracles._noise_memo[1] == {}
        assert bits(spec.sample_rows(0)[1][2]) == bits(first)
        assert draws == [0, 0]

    def test_threads_running_two_signatures_at_once_get_their_solo_runs(self):
        mappings = [noisy_mapping("qg_dsgdm", seed=3), noisy_mapping("gt", seed=4)]
        solo = []
        for mapping in mappings:
            oracles._noise_memo = (None, {})
            solo.append(run_bytes(mapping))
        oracles._noise_memo = (None, {})
        # four threads, two on each signature, on two cores
        results = [[] for _ in range(4)]
        start = threading.Barrier(len(results), timeout=60)

        def runs(mapping, out):
            start.wait()
            out.extend(run_bytes(mapping) for _ in range(3))

        threads = [threading.Thread(target=runs, args=(mappings[i % 2], out))
                   for i, out in enumerate(results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == [[solo[i % 2]] * 3 for i in range(len(results))]

    def test_threads_storing_past_the_bound_keep_the_memo_within_it(self, draws):
        # four threads sample one signature's steps past the bound, each in
        # another order, so steps above it are drawn first; the memo keeps
        # only steps below it (a store into a dict another thread has just
        # replaced is lost), and each block is its step's own draw
        spec = quadratic_family(dim=64, n_workers=64, sigma_c=0.5, master_seed=6)
        P = np.zeros((64, 64))
        fit = oracles._NOISE_MEMO_BYTES // (64 * 64 * 8)
        steps = list(range(fit + 24))
        orders = [steps[::-1], steps, steps[fit:] + steps[:fit], steps[1::2] + steps[::2]]
        start = threading.Barrier(len(orders), timeout=60)

        def draw(order):
            start.wait()
            for t in order:
                sample_all(spec, P, t)

        threads = [threading.Thread(target=draw, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        held, kept = oracles._noise_memo
        assert held == (6, 64, 64, 0.5) and kept and set(kept) <= set(range(fit))
        assert sum(Z.nbytes for Z in kept.values()) <= oracles._NOISE_MEMO_BYTES
        assert set(draws) == set(steps)
        for t, Z in kept.items():
            rows = [ref.worker_rng(6, w, t).standard_normal(64) for w in range(64)]
            assert bits(Z) == bits(0.5 * np.array(rows)), t

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_draws_the_fresh_streams(self):
        assert in_subprocess(_FORKED_CHILD) == 0


@st.composite
def mean_cases(draw):
    """A problem of any family with a point to evaluate at; quadratic cases
    reach n = 70 and dim = 300, past numpy's pairwise-sum blocks of 8 and
    128 in both directions."""
    kind = draw(st.sampled_from(["quadratic_family"] * 4
                                + ["toy2d_hetero", "rosenbrock", "nonconvex_toy"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind != "quadratic_family":
        n = draw(st.integers(1, 2 if kind == "toy2d_hetero" else 12))
        return Landscape2D(kind=kind, n_workers=n), rng.uniform(-2, 2, size=2)
    n = draw(st.integers(1, N_MAX))
    zeta = draw(st.sampled_from([0.0, 1.3]))
    dim = draw(st.integers(n if zeta else 1, 300))
    spec = quadratic_family(dim=dim, n_workers=n, zeta_c=zeta,
                            cond=draw(st.sampled_from([1.0, 9.0])),
                            b_scale=draw(st.floats(-2.0, 2.0)))
    return spec, rng.standard_normal(dim)


class TestBatchedMeans:
    @given(case=mean_cases())
    @settings(max_examples=120, deadline=None)
    def test_mean_loss_matches_per_worker_loop(self, case):
        spec, x = case
        assert bits(spec.mean_loss_and_gradient(x)[0]) == bits(ref.mean_loss(spec, x))

    @given(case=mean_cases())
    @settings(max_examples=120, deadline=None)
    def test_mean_gradient_matches_per_worker_loop(self, case):
        spec, x = case
        assert bits(spec.mean_loss_and_gradient(x)[1]) == bits(ref.mean_gradient(spec, x))

    @given(case=mean_cases())
    @settings(max_examples=60, deadline=None)
    def test_local_gradients_match_per_worker_parts(self, case):
        spec, x = case
        P = x[:, None] + np.arange(spec.n_workers) / 7.0
        G = spec.local_gradients(P)
        for i in range(spec.n_workers):
            assert bits(G[:, i]) == bits(ref.sample_mean_part(spec, i, P[:, i])), i
            assert bits(G[:, i]) == bits(spec.sample(i, P[:, i], 0).grad), i  # noise-free


@st.composite
def row_layout_cases(draw):
    """A quadratic problem and a point for the row-layout mean evaluations:
    zeta 0 (one target column that every worker shares) or not, n and dim
    down to 1, entries whose squares overflow or underflow, and a point
    that is read-only or not."""
    n = draw(st.one_of(st.just(1), st.integers(1, N_MAX)))
    zeta = draw(st.sampled_from([0.0, 1.3]))
    dim = draw(st.one_of(st.just(max(1, n if zeta else 1)), st.integers(n if zeta else 1, 300)))
    spec = quadratic_family(dim=dim, n_workers=n, zeta_c=zeta,
                            cond=draw(st.sampled_from([1.0, 9.0])),
                            b_scale=draw(st.floats(-2.0, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(dim) * draw(st.sampled_from([1.0, 1e160, 1e-170]))
    if draw(st.booleans()):
        x.setflags(write=False)
    return spec, x


class TestRowLayoutMeans:
    """``mean_loss_and_gradient`` builds its ``(n, dim)`` rows directly;
    the broadcast view and transposed copy it replaced are the reference,
    bit for bit, on every family."""

    @given(case=st.one_of(row_layout_cases(), mean_cases()))
    @settings(max_examples=150, deadline=None)
    def test_mean_loss_matches_the_broadcast_layout(self, case):
        spec, x = case
        with np.errstate(over="ignore"):  # squares past 1e308 are inf on both sides
            loss = spec.mean_loss_and_gradient(x)[0]
            assert bits(loss) == bits(ref.broadcast_mean_loss(spec, x))

    @given(case=st.one_of(row_layout_cases(), mean_cases()))
    @settings(max_examples=150, deadline=None)
    def test_mean_gradient_matches_the_broadcast_layout(self, case):
        spec, x = case
        with np.errstate(over="ignore"):
            got = spec.mean_loss_and_gradient(x)[1]
        assert got.shape == (spec.dim,)
        assert bits(got) == bits(ref.broadcast_mean_gradient(spec, x))

    def test_zeta_zero_keeps_one_target_column(self):
        spec = quadratic_family(dim=3, n_workers=5)
        assert spec._B.shape == (3, 1)
        assert spec._B_rows.shape == (1, 3)
        x = np.array([0.5, -1.0, 2.0])
        x.setflags(write=False)
        assert bits(spec.mean_loss(x)) == bits(ref.broadcast_mean_loss(spec, x))
        assert bits(spec.mean_gradient(x)) == bits(ref.broadcast_mean_gradient(spec, x))
