"""Tests for configuration, schedules, the validator, and the run loop."""

import dataclasses
import hashlib
import math
import os
import warnings

import numpy as np
import pytest

import reference_loops as ref
from qgm_sim import engine, topology
from qgm_sim.engine import (
    METRICS_HEADER,
    ConfigError,
    NumericalDivergence,
    OPTIM_KINDS,
    RunConfig,
    ScheduleSpec,
    TheoremReport,
    heading_change_sum,
    lr_schedule,
    metrics_csv_lines,
    run,
    validate_theorem_conditions,
    write_metrics_csv,
)
from qgm_sim.optim import HyperParams, StackedState, column_mean, stacked_step
from qgm_sim.topology import (
    MixingMatrix,
    build_graph,
    mixing_matrix,
    one_peer_exponential_matrix,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# SHA-256 of each shipped config's metrics CSV at run.seed = 0, captured
# before the optimizer moved to the stacked core; any change in these bytes
# is a change in results and must be named, never re-frozen silently
SHIPPED_METRICS_SHA256 = {
    "adam_ring8.ini": "4757559c34a0371b7b1ab299dfa409517164f84e5184fcaf0e1b276666a8a74f",
    "hetero_gradient_tracking.ini":
        "b912956b1cbc812f20e82ab367342ab3ff4d5d0a15589e897074956b370dafd0",
    "quadratic_ring16_qg.ini": "5e08805743aaed0b525106ff557900d71a03f11bf68fdded701d33a1f09cf3ad",
    "rosenbrock_nesterov.ini": "bb79062ffcc1898fc90309a83e1343ed638658928983ce0a1be3a448e3199cb4",
    "slowmo_quadratic.ini": "d5e56cf3db42dda8000cc2274d64a1d52c3bf6aa5b8616987d436058c26be677",
    "toy2d_dsgdm.ini": "6ffcc561a42c36cb864c04cde0d7de0b8e5d00c63b384e6e353e651dd64c0b77",
}


def make_config(**tweaks):
    mapping = {
        "problem": {"kind": "quadratic", "dim": "8", "zeta": "1.0", "sigma": "0.2"},
        "topology": {"kind": "ring", "n": "4"},
        "optim": {"kind": "qg_dsgdm", "eta": "0.05"},
        "run": {"steps": "20", "seed": "3"},
    }
    for dotted, value in tweaks.items():
        section, key = dotted.split(".")
        mapping.setdefault(section, {})[key] = value
    return RunConfig.from_mapping(mapping)


def quiet_run(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(config)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

class TestSchedule:
    def test_constant_everywhere(self):
        spec = ScheduleSpec(kind="constant", base_eta=0.1)
        assert all(lr_schedule(spec, t, 100) == 0.1 for t in (1, 50, 100))

    def test_warmup_midpoint(self):
        # halfway through a 10% warmup of base 1.0: linear between 0.1 and 1.0
        spec = ScheduleSpec(kind="warmup_stage", base_eta=1.0,
                            warmup_fraction=0.1, milestones=(0.5, 0.75))
        assert lr_schedule(spec, 5, 100) == pytest.approx(0.55)

    def test_warmup_start_and_end(self):
        spec = ScheduleSpec(kind="warmup_stage", base_eta=2.0,
                            warmup_fraction=0.5, milestones=())
        assert lr_schedule(spec, 0, 100) == pytest.approx(0.2)  # 0.1 * base
        assert lr_schedule(spec, 50, 100) == pytest.approx(2.0)  # window closed
        assert lr_schedule(spec, 25, 100) == pytest.approx(1.1)

    def test_stagewise_decay(self):
        spec = ScheduleSpec(kind="warmup_stage", base_eta=1.0,
                            warmup_fraction=0.05, milestones=(0.5, 0.75))
        assert lr_schedule(spec, 60, 100) == pytest.approx(0.1)
        assert lr_schedule(spec, 80, 100) == pytest.approx(0.01)
        assert lr_schedule(spec, 50, 100) == pytest.approx(0.1)  # boundary hits
        assert lr_schedule(spec, 49, 100) == pytest.approx(1.0)

    def test_milestones_must_increase_strictly(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            ScheduleSpec(kind="warmup_stage", base_eta=1.0, milestones=(0.75, 0.5))
        with pytest.raises(ConfigError, match="strictly increasing"):
            ScheduleSpec(kind="warmup_stage", base_eta=1.0, milestones=(0.5, 0.5))
        with pytest.raises(ConfigError, match="strictly increasing"):
            ScheduleSpec(kind="warmup_stage", base_eta=1.0, milestones=(0.0, 0.5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="schedule kind"):
            ScheduleSpec(kind="cosine", base_eta=1.0)

    @pytest.mark.parametrize("factor", [math.inf, 1e200, 1e-200])
    def test_last_stage_must_be_a_finite_positive_step(self, factor):
        # 1 / factor**2 is 0, overflows, or divides by zero
        with pytest.raises(ConfigError, match="decay_factor"):
            ScheduleSpec(kind="warmup_stage", base_eta=1.0, milestones=(0.5, 0.75),
                         decay_factor=factor)
        ok = ScheduleSpec(kind="warmup_stage", base_eta=1.0, milestones=(0.5,),
                          decay_factor=factor if factor < math.inf else 1e300)
        assert 0.0 < lr_schedule(ok, 100, 100) < math.inf


# ---------------------------------------------------------------------------
# hypothesis validator
# ---------------------------------------------------------------------------

class TestTheoremValidator:
    def test_large_momentum_flagged_not_fatal(self):
        report = validate_theorem_conditions(HyperParams(eta=0.1, beta=0.9), rho=1.0)
        assert isinstance(report, TheoremReport)
        assert not report.momentum_ok
        assert report.momentum_ratio == pytest.approx(9.0)
        assert report.bound == pytest.approx(1.0 / 21.0)
        assert "violated" in report.message

    def test_zero_momentum_always_satisfies(self):
        report = validate_theorem_conditions(HyperParams(eta=0.1, beta=0.0), rho=0.01)
        assert report.momentum_ok

    def test_boundary_beta_satisfies_with_equality(self):
        rho = mixing_matrix(build_graph("ring", 16)).rho
        beta = rho / (21.0 + rho)
        report = validate_theorem_conditions(HyperParams(eta=0.1, beta=beta), rho=rho)
        assert report.momentum_ok
        assert report.momentum_ratio == pytest.approx(report.bound, rel=1e-12)

    def test_suggested_step_size_scale(self):
        report = validate_theorem_conditions(
            HyperParams(eta=0.1, beta=0.0), rho=1.0,
            n_workers=16, sigma_sq=4.0, total_steps=400)
        assert report.suggested_eta == pytest.approx(0.1)

    def test_suggestion_absent_without_noise_level(self):
        report = validate_theorem_conditions(
            HyperParams(eta=0.1, beta=0.0), rho=1.0, n_workers=4, total_steps=100)
        assert report.suggested_eta is None


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestRunConfig:
    def test_defaults_fill_in(self):
        cfg = RunConfig.from_mapping({"optim": {"kind": "dsgd"}})
        assert cfg.problem.kind == "quadratic_family"
        assert isinstance(cfg.mixing, MixingMatrix)
        np.testing.assert_array_equal(cfg.mixing.weights,
                                      mixing_matrix(build_graph("ring", 4)).weights)
        assert cfg.n == 4
        assert cfg.steps == 100
        assert cfg.hp.beta == 0.9
        assert cfg.hp.mu == cfg.hp.beta  # mu left unset defaults to beta

    def test_missing_optimizer_kind_named(self):
        with pytest.raises(ConfigError, match=r"optim\.kind"):
            RunConfig.from_mapping({"problem": {"kind": "rosenbrock"}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"\[network\]"):
            RunConfig.from_mapping({"optim": {"kind": "dsgd"}, "network": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"optim\.momentum"):
            RunConfig.from_mapping({"optim": {"kind": "dsgd", "momentum": "0.9"}})

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match=r"problem\.dim"):
            RunConfig.from_mapping(
                {"optim": {"kind": "dsgd"}, "problem": {"dim": "many"}})

    def test_overrides_win(self):
        cfg = RunConfig.from_mapping({"optim": {"kind": "dsgd", "eta": "0.1"}},
                                     overrides={"optim.eta": "0.05"})
        assert cfg.hp.eta == 0.05
        assert cfg.schedule.base_eta == 0.05

    def test_bad_override_key_rejected(self):
        with pytest.raises(ConfigError, match=r"optim\.lr"):
            RunConfig.from_mapping({"optim": {"kind": "dsgd"}},
                                   overrides={"optim.lr": "0.05"})

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ConfigError, match=r"optim\.kind"):
            RunConfig.from_mapping({"optim": {"kind": "adamw"}})

    def test_single_worker_closed_form_needs_one_worker(self):
        with pytest.raises(ConfigError, match="qhm"):
            make_config(**{"optim.kind": "qhm"})

    @pytest.mark.parametrize("sigma", ["0.0", "0.5"])
    def test_negative_seed_rejected_by_name(self, sigma):
        # SeedSequence takes no negative entropy: unchecked, a noisy run
        # fails at its first draw without naming the key and a noise-free
        # one runs
        with pytest.raises(ConfigError, match=r"run\.seed"):
            make_config(**{"problem.sigma": sigma, "run.seed": "-1"})

    def test_round_methods_need_divisible_steps(self):
        with pytest.raises(ConfigError, match="multiple"):
            make_config(**{"optim.kind": "slowmo", "optim.tau": "7",
                           "run.steps": "20"})

    def test_from_ini_roundtrip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[problem]\nkind = quadratic\ndim = 8\nzeta = 1.0\n"
            "[topology]\nkind = ring\nn = 4\n"
            "[optim]\nkind = qg_dsgdm\neta = 0.05\n"
            "[run]\nsteps = 20\nseed = 3\n")
        cfg = RunConfig.from_ini(str(path))
        assert cfg.optim_kind == "qg_dsgdm"
        assert cfg.problem.dim == 8
        cfg2 = RunConfig.from_ini(str(path), overrides={"run.seed": "4"})
        assert cfg2.problem.master_seed == 4

    @pytest.mark.parametrize("tweaks,message", [
        ({"topology.kind": "torus", "topology.n": "7"},
         "torus requires n = rows x cols with rows >= 2 and cols >= 2; "
         "n=7 has no such factorization"),
        ({"topology.kind": "social", "topology.n": "16", "problem.zeta": "0"},
         "the social graph is fixed at 32 nodes; got n=16"),
        ({"topology.kind": "star", "topology.scheme": "uniform_neighbor"},
         "uniform_neighbor weights require a regular graph (all degrees equal); "
         "graph kind 'star' has degrees in [1, 3] -- use metropolis_hastings instead"),
        ({"topology.kind": "one_peer_exponential", "topology.n": "12", "problem.dim": "12"},
         "one_peer_exponential requires n to be a power of two; got n=12"),
        ({"problem.kind": "toy2d", "problem.zeta": "0", "problem.sigma": "0",
          "topology.n": "3"},
         "toy2d_hetero needs one target per worker: 3 workers but 2 targets"),
        ({"problem.init": "1,2,3"},
         "problem.init has 3 components but the problem dimension is 8"),
    ])
    def test_unbuildable_run_fails_at_load(self, tweaks, message):
        # each of these once loaded and failed only when run
        with pytest.raises(ConfigError) as exc:
            make_config(**tweaks)
        assert str(exc.value) == message

    def test_loading_builds_the_problem_start_point_and_mixing(self):
        cfg = make_config(**{"problem.init": "0.5", "topology.kind": "one_peer_exponential"})
        assert (cfg.problem.kind, cfg.problem.dim, cfg.problem.n_workers) == (
            "quadratic_family", 8, 4)
        assert cfg.problem.master_seed == 3
        np.testing.assert_array_equal(cfg.x0, np.full(8, 0.5))
        assert not cfg.x0.flags.writeable
        np.testing.assert_array_equal(cfg.mixing(1).weights,
                                      one_peer_exponential_matrix(4, 1).weights)

    def test_from_ini_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            RunConfig.from_ini("/nonexistent/run.ini")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["problem.cond", "problem.zeta", "problem.sigma",
                                     "problem.b_scale", "problem.scale", "optim.eta",
                                     "schedule.decay_factor"])
    def test_non_finite_values_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be finite"):
            make_config(**{key: value})

    def test_hyperparameter_range_error_is_config_error(self):
        with pytest.raises(ConfigError, match="beta"):
            make_config(**{"optim.beta": "1.5"})


# ---------------------------------------------------------------------------
# metrics helpers
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_header_exact(self):
        assert METRICS_HEADER == (
            "step,epoch,lr,loss,grad_norm,consensus_dist,weight_norm,eff_stepsize")

    def test_csv_roundtrip(self, tmp_path):
        res = quiet_run(make_config())
        path = tmp_path / "m.csv"
        write_metrics_csv(res.records, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == len(res.records) + 1
        first = lines[1].split(",")
        assert int(first[0]) == res.records[0].step
        assert float(first[3]) == res.records[0].loss

    def test_effective_stepsize_matches_hand_computation(self):
        # n = 16 > 8, where a pairwise and a worker-by-worker mean differ:
        # the row and the trace must hold the same averaged model
        cfg = make_config(**{"topology.n": "16", "problem.dim": "16"})
        res = quiet_run(cfg)
        for rec, x_bar in zip(res.records, res.xbar_trace[1:]):
            wn = float(np.linalg.norm(x_bar))
            assert rec.weight_norm == wn
            assert rec.eff_stepsize == pytest.approx(rec.lr / wn**2, rel=1e-12)
            g = cfg.problem.mean_gradient(x_bar)
            assert rec.grad_norm == pytest.approx(float(np.linalg.norm(g)), rel=1e-12)

    def test_cadence_and_final_row(self):
        res = quiet_run(make_config(**{"run.steps": "10", "run.metrics_every": "3"}))
        assert [r.step for r in res.records] == [3, 6, 9, 10]
        res = quiet_run(make_config(**{"run.steps": "10", "run.metrics_every": "5"}))
        assert [r.step for r in res.records] == [5, 10]

    def test_epoch_fraction(self):
        res = quiet_run(make_config(**{"run.steps": "10",
                                       "run.steps_per_epoch": "4"}))
        assert res.records[-1].epoch == pytest.approx(2.5)


class TestHeadingChangeSum:
    def test_straight_line_scores_zero(self):
        pts = np.column_stack([np.linspace(0, 5, 11), np.linspace(0, 10, 11)])
        assert heading_change_sum(pts) == pytest.approx(0.0, abs=1e-12)

    def test_right_angle_turns(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
        assert heading_change_sum(pts) == pytest.approx(np.pi, rel=1e-12)

    def test_reversal_scores_pi(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert heading_change_sum(pts) == pytest.approx(np.pi, rel=1e-12)

    def test_stationary_segments_skipped(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert heading_change_sum(pts) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_planar(self):
        with pytest.raises(ValueError, match=r"\(T, 2\)"):
            heading_change_sum(np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

class TestRun:
    def test_repeated_runs_byte_identical(self):
        a = quiet_run(make_config())
        b = quiet_run(make_config())
        assert metrics_csv_lines(a.records) == metrics_csv_lines(b.records)

    @pytest.mark.parametrize("kind", ["qg_dsgdm", "dmsgd_ii", "qg_dadam"])
    def test_ignored_threads_key_does_not_change_bytes(self, kind):
        # run.threads is accepted and ignored: the loop is single-threaded
        base = {"optim.kind": kind, "problem.sigma": "0.3", "run.steps": "30"}
        a = quiet_run(make_config(**base, **{"run.threads": "1"}))
        b = quiet_run(make_config(**base, **{"run.threads": "4"}))
        assert metrics_csv_lines(a.records) == metrics_csv_lines(b.records)

    def test_divergence_aborts_with_step_and_method(self):
        cfg = make_config(**{"problem.kind": "rosenbrock", "problem.sigma": "0",
                             "problem.zeta": "0", "problem.dim": "2",
                             "topology.n": "2", "optim.kind": "dsgdm",
                             "optim.eta": "10.0", "run.steps": "50"})
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalDivergence) as exc:
                run(cfg)
        assert exc.value.method == "dsgdm"
        assert 1 <= exc.value.step <= 50
        assert "aborting" in str(exc.value)

    def test_divergence_caught_in_tracker_before_models(self):
        # gradient tracking on the Rosenbrock valley at eta 0.2: the
        # gradients at step 5's models overflow, so the tracker goes
        # non-finite at step 5 while the models built from it follow only
        # at step 6; the models are checked first, so the tracker is named
        cfg = make_config(**{"problem.kind": "rosenbrock", "problem.dim": "2",
                             "problem.zeta": "0", "problem.sigma": "0",
                             "topology.n": "4", "optim.kind": "gt",
                             "optim.eta": "0.2", "optim.beta": "0.0",
                             "run.steps": "20"})
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalDivergence) as exc:
                run(cfg)
        assert (exc.value.step, exc.value.method) == (5, "gt")
        assert exc.value.field == "y_tracker"
        assert exc.value.worker == 0
        assert "y_tracker of worker 0 at step 5" in str(exc.value)
        assert "aborting" in str(exc.value)

    def test_slowmo_mixes_each_inner_step_with_its_own_matrix(self):
        # one-peer pairings change every step, so a round that reused its
        # first matrix for all tau inner steps would leave this path
        cfg = make_config(**{"optim.kind": "slowmo", "optim.tau": "2",
                             "optim.slowmo_base": "dsgdm",
                             "topology.kind": "one_peer_exponential",
                             "run.steps": "4"})
        res = quiet_run(cfg)
        assert not np.array_equal(one_peer_exponential_matrix(4, 0).weights,
                                  one_peer_exponential_matrix(4, 1).weights)

        @ref.per_worker
        def grad_fn(i, x, t):
            return cfg.problem.sample(i, x, t).grad

        hp = cfg.hp
        inner = dataclasses.replace(hp, tau=1)
        S = StackedState.init(np.zeros(cfg.problem.dim), 4)
        slow_m = np.zeros(cfg.problem.dim)
        for step0 in (0, 2):
            x0 = S.X[:, 0].copy()
            for t in (step0, step0 + 1):
                stacked_step("dsgdm", S, one_peer_exponential_matrix(4, t), inner, t, grad_fn)
            x_tau = column_mean(S.X)
            slow_m = hp.slowmo_beta * slow_m + (x0 - x_tau) / hp.eta
            x_new = x0 - hp.slowmo_alpha * hp.eta * slow_m
            S.X = np.repeat(x_new[:, None], 4, axis=1)
        np.testing.assert_array_equal(res.final_state.X, S.X)
        np.testing.assert_array_equal(res.final_state.M_local, S.M_local)

    @pytest.mark.parametrize("kind,calls", [("one_peer_exponential", 0), ("ring", 1)])
    def test_only_a_static_matrix_computes_a_spectral_gap(self, monkeypatch, kind, calls):
        # a one-peer step's rho is closed form (and no run reads it); a
        # static matrix's gap is computed once, for the theorem report
        real, seen = topology.spectral_gap, []

        def counting(W):
            seen.append(W)
            return real(W)

        monkeypatch.setattr(topology, "spectral_gap", counting)
        quiet_run(make_config(**{"topology.kind": kind, "run.steps": "6"}))
        assert len(seen) == calls

    def test_a_second_run_of_one_config_builds_no_mixing(self, monkeypatch):
        # the mixing is built when the config loads, and only then
        cfg = make_config(**{"run.steps": "6"})
        first = quiet_run(cfg)
        calls = []
        for name in ("mixing_matrix", "spectral_gap"):
            real = getattr(topology, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            for module in (topology, engine):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        second = quiet_run(cfg)
        assert calls == []
        assert metrics_csv_lines(second.records) == metrics_csv_lines(first.records)

    @pytest.mark.parametrize("name", sorted(SHIPPED_METRICS_SHA256))
    def test_shipped_config_metrics_bytes_frozen(self, name):
        cfg = RunConfig.from_ini(os.path.join(CONFIG_DIR, name),
                                 overrides={"run.seed": "0"})
        data = ("\n".join(metrics_csv_lines(quiet_run(cfg).records)) + "\n").encode()
        assert hashlib.sha256(data).hexdigest() == SHIPPED_METRICS_SHA256[name]

    def test_momentum_warning_emitted_once_per_run(self):
        with pytest.warns(UserWarning, match="momentum bound violated"):
            run(make_config(**{"optim.beta": "0.9"}))

    def test_homogeneous_multiworker_matches_single_worker_mean(self):
        shared = {"problem.zeta": "0", "problem.sigma": "0",
                  "optim.kind": "dsgd", "run.steps": "40",
                  "problem.init": "1.0"}
        multi = quiet_run(make_config(**shared, **{"topology.kind": "complete",
                                                   "topology.n": "4"}))
        solo = quiet_run(make_config(**shared, **{"topology.kind": "complete",
                                                  "topology.n": "1"}))
        np.testing.assert_allclose(multi.xbar_trace, solo.xbar_trace, atol=1e-12)

    @pytest.mark.parametrize("kind", [k for k in OPTIM_KINDS if k != "qhm"])
    def test_stationary_start_is_fixed_point(self, kind):
        cfg = make_config(**{
            "problem.kind": "rosenbrock", "problem.zeta": "0",
            "problem.sigma": "0", "problem.init": "1.0,1.0",
            "topology.n": "4", "optim.kind": kind, "optim.tau": "1",
            "optim.eta": "0.01", "run.steps": "10"})
        res = quiet_run(cfg)
        np.testing.assert_allclose(
            res.xbar_trace, np.ones_like(res.xbar_trace), atol=1e-12)

    def test_stationary_start_single_worker_closed_form(self):
        cfg = make_config(**{
            "problem.kind": "rosenbrock", "problem.zeta": "0",
            "problem.sigma": "0", "problem.init": "1.0,1.0",
            "topology.kind": "complete", "topology.n": "1",
            "optim.kind": "qhm", "optim.eta": "0.01", "run.steps": "10"})
        res = quiet_run(cfg)
        np.testing.assert_allclose(
            res.xbar_trace, np.ones_like(res.xbar_trace), atol=1e-12)

    def test_round_methods_number_steps_by_inner_count(self):
        res = quiet_run(make_config(**{"optim.kind": "slowmo", "optim.tau": "6",
                                       "optim.eta": "0.002", "run.steps": "24"}))
        assert [r.step for r in res.records] == [6, 12, 18, 24]
        assert res.xbar_trace.shape[0] == 5  # initial + one per round

    def test_time_varying_topology_runs(self):
        # checked at rho = 1: one sweep of log2(8) = 3 steps averages exactly
        with pytest.warns(UserWarning, match="time-varying.*momentum bound violated"):
            res = run(make_config(**{"topology.kind": "one_peer_exponential",
                                     "topology.n": "8", "problem.dim": "8",
                                     "run.steps": "30"}))
        report = res.theorem_report
        assert report.bound == 1.0 / 21.0 and not report.momentum_ok
        assert "one sweep of 3 one-peer steps" in report.message
        assert res.records[-1].loss < res.records[0].loss
        assert all(np.isfinite(r.consensus_dist) for r in res.records)

    def test_schedule_reflected_in_lr_column(self):
        res = quiet_run(make_config(**{
            "schedule.kind": "warmup_stage", "schedule.warmup_fraction": "0.1",
            "schedule.milestones": "0.5", "optim.eta": "1.0",
            "optim.kind": "dsgd", "run.steps": "100", "run.metrics_every": "1"}))
        by_step = {r.step: r.lr for r in res.records}
        assert by_step[5] == pytest.approx(0.55)
        assert by_step[60] == pytest.approx(0.1)

    def test_explicit_init_vector(self):
        res = quiet_run(make_config(**{"problem.kind": "rosenbrock",
                                       "problem.zeta": "0", "problem.sigma": "0",
                                       "topology.n": "2", "problem.init": "0.5,0.25",
                                       "run.steps": "1"}))
        np.testing.assert_allclose(res.xbar_trace[0], [0.5, 0.25])

    def test_init_length_mismatch(self):
        with pytest.raises(ConfigError, match="components"):
            quiet_run(make_config(**{"problem.init": "1.0,2.0,3.0"}))
