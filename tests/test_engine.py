"""Tests for configuration, schedules, the validator, and the run loop."""

import dataclasses
import hashlib
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import reference_loops as ref
from qgm_sim import consensus, engine, optim, oracles, topology
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
from qgm_sim.optim import HyperParams, StackedState, column_mean, mix, stacked_step
from qgm_sim.oracles import ProblemSpec
from qgm_sim.topology import (
    MixingMatrix,
    OnePeerExponential,
    build_graph,
    mixing_matrix,
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

    def test_total_steps_must_be_positive(self):
        spec = ScheduleSpec(kind="constant", base_eta=0.1)
        with pytest.raises(ConfigError, match=r"^total_steps must be >= 1; got 0$"):
            lr_schedule(spec, 1, 0)

    @pytest.mark.parametrize("field,value,message", [
        ("warmup_fraction", 1.0, r"warmup_fraction must lie in \[0, 1\); got 1\.0"),
        ("warmup_fraction", -0.1, r"warmup_fraction must lie in \[0, 1\); got -0\.1"),
        ("warmup_start_factor", 0.0, r"warmup_start_factor must lie in \(0, 1\]; got 0\.0"),
        ("warmup_start_factor", 1.5, r"warmup_start_factor must lie in \(0, 1\]; got 1\.5"),
        ("decay_factor", 0.0, r"decay_factor must be > 0; got 0\.0"),
    ])
    def test_out_of_range_fields_rejected_by_name(self, field, value, message):
        with pytest.raises(ConfigError, match=rf"^{message}$"):
            ScheduleSpec(kind="warmup_stage", base_eta=1.0, **{field: value})

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
          "problem.dim": "2", "topology.n": "3"},
         "toy2d_hetero needs one target per worker: 3 workers but 2 targets"),
        ({"problem.init": "1,2,3"},
         "problem.init has 3 components but the problem dimension is 8"),
        ({"optim.eta": "fast"}, "optim.eta: cannot parse 'fast' as float"),
        ({"schedule.milestones": "0.5,x"},
         "schedule.milestones: cannot parse '0.5,x' as comma-separated floats"),
        ({"problem.init": "1,a"}, "problem.init: cannot parse '1,a' as floats"),
        ({"problem.kind": "cubic"},
         "problem.kind must be one of ['nonconvex_toy', 'quadratic', 'quadratic_family', "
         "'rosenbrock', 'toy2d', 'toy2d_hetero']; got 'cubic'"),
        ({"optim.kind": "slowmo", "optim.slowmo_base": "slowmo"},
         "optim.slowmo_base must be a per-step kind; got 'slowmo'"),
    ])
    def test_unbuildable_run_fails_at_load(self, tweaks, message):
        # each fails at load in one line; the first six once loaded and
        # failed only when run
        with pytest.raises(ConfigError) as exc:
            make_config(**tweaks)
        assert str(exc.value) == message

    def test_override_without_a_section_rejected(self):
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_mapping({"optim": {"kind": "dsgd"}}, overrides={"seed": "1"})
        assert str(exc.value) == "override 'seed' must use section.key form"

    @pytest.mark.parametrize("dim", ["7", "16"])
    @pytest.mark.parametrize("kind", ["toy2d", "rosenbrock", "nonconvex_toy"])
    def test_a_2d_family_refuses_a_given_dim_other_than_2(self, kind, dim):
        # once loaded as a 2-d run whatever dim said; 16 is dim's default,
        # refused too when given
        twod = {"problem.kind": kind, "problem.zeta": "0", "problem.sigma": "0",
                "topology.n": "2"}
        with pytest.raises(ConfigError) as exc:
            make_config(**twod, **{"problem.dim": dim})
        assert str(exc.value) == f"problem.dim must be 2 for {kind}; got {dim}"
        assert make_config(**twod, **{"problem.dim": "2"}).problem.dim == 2
        unset = {"problem": {"kind": kind}, "topology": {"n": "2"}, "optim": {"kind": "dsgd"}}
        assert RunConfig.from_mapping(unset).problem.dim == 2

    def test_loading_builds_the_problem_start_point_and_mixing(self):
        cfg = make_config(**{"problem.init": "0.5", "topology.kind": "one_peer_exponential"})
        assert (cfg.problem.kind, cfg.problem.dim, cfg.problem.n_workers) == (
            "quadratic_family", 8, 4)
        assert cfg.problem.master_seed == 3
        np.testing.assert_array_equal(cfg.x0, np.full(8, 0.5))
        assert not cfg.x0.flags.writeable
        # the one-peer schedule holds no matrix; its step 1 mixes as the
        # dense reference does (gossip of the identity is W^T)
        assert cfg.mixing == OnePeerExponential(4)
        np.testing.assert_array_equal(mix(np.eye(4), cfg.mixing.at(1)),
                                      ref.one_peer_exponential_matrix(4, 1).weights.T)

    def test_equality_is_identity_and_never_raises(self):
        # the generated == compared the problem's arrays and raised
        a, b = make_config(), make_config()
        assert (a == b) is False and (a == a) is True
        assert (a.problem == b.problem) is False and (a.mixing == b.mixing) is False
        one_peer = {"topology.kind": "one_peer_exponential"}
        assert (make_config(**one_peer) == make_config(**one_peer)) is False
        assert make_config(**one_peer).mixing == make_config(**one_peer).mixing

    @pytest.mark.parametrize("key,value", [
        ("run.steps", 2.5), ("topology.n", 4.0), ("run.metrics_every", 1.5),
        ("optim.tau", 1.5), ("run.seed", 1.5),
    ])
    def test_a_value_that_is_not_text_goes_through_its_parser(self, key, value):
        # every value is parsed from its text, so a float for an int key is
        # refused by name, whether it comes in the mapping or as an override
        with pytest.raises(ConfigError) as exc:
            make_config(**{key: value, "problem.sigma": "0.5"})
        assert str(exc.value) == f"{key}: cannot parse '{value}' as int"
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_mapping({"optim": {"kind": "dsgd"}}, overrides={key: value})
        assert str(exc.value) == f"{key}: cannot parse '{value}' as int"

    def test_a_value_that_is_not_text_loads_as_its_text_would(self):
        typed = make_config(**{"topology.n": 8, "optim.eta": 0.05, "run.steps": 20})
        assert (typed.n, typed.hp.eta, typed.steps) == (8, 0.05, 20)

    def test_from_ini_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            RunConfig.from_ini("/nonexistent/run.ini")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["problem.cond", "problem.zeta", "problem.sigma",
                                     "problem.b_scale", "problem.scale", "problem.init",
                                     "optim.eta", "schedule.decay_factor"])
    def test_non_finite_values_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be finite"):
            make_config(**{key: value})

    def test_hyperparameter_range_error_is_config_error(self):
        with pytest.raises(ConfigError, match="beta"):
            make_config(**{"optim.beta": "1.5"})

    @pytest.mark.parametrize("init,got", [("1e309", "inf"), ("0,0,0,nan,0,0,0,0", "nan")])
    def test_non_finite_init_rejected_at_load_by_name(self, init, got):
        # a non-finite start point once loaded and diverged at step 1
        with pytest.raises(ConfigError) as exc:
            make_config(**{"problem.init": init})
        assert str(exc.value) == f"problem.init must be finite; got {got}"

    def test_threads_key_is_unknown(self, tmp_path):
        # runs are single-threaded, and the key that was read by nothing is gone
        path = tmp_path / "run.ini"
        path.write_text("[optim]\nkind = dsgd\n[run]\nthreads = 2\n")
        loads = [lambda: make_config(**{"run.threads": "1"}),
                 lambda: RunConfig.from_ini(str(path)),
                 lambda: RunConfig.from_mapping({"optim": {"kind": "dsgd"}},
                                                overrides={"run.threads": "4"})]
        for load in loads:
            with pytest.raises(ConfigError) as exc:
                load()
            assert str(exc.value) == "unknown config key run.threads"

    @pytest.mark.parametrize("kind", ["qg_dsgdm", "dsgdm", "qg_dadam", "slowmo", "gt"])
    def test_defaults_read_as_their_text_load_the_same_run(self, kind):
        # a default goes through its key's parser, as a value written out would
        implicit = RunConfig.from_mapping({"optim": {"kind": kind}})
        written = {section: {key: str(default) for key, (_parse, default) in keys.items()
                             if default is not None}
                   for section, keys in engine._SCHEMA.items()}
        written["optim"]["kind"] = kind
        explicit = RunConfig.from_mapping(written)
        for name in ("hp", "schedule", "steps", "steps_per_epoch", "metrics_every", "n",
                     "slowmo_base"):
            assert getattr(explicit, name) == getattr(implicit, name), name
        assert explicit.x0.tobytes() == implicit.x0.tobytes()
        for field in dataclasses.fields(implicit.problem):
            a = getattr(explicit.problem, field.name)
            b = getattr(implicit.problem, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name


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

    def test_a_2d_record_calls_each_workers_oracle_once(self, monkeypatch):
        # one sample per worker gives both the loss and the gradient of the
        # row, with the bits of the per-worker reference loop
        calls = []
        real = oracles.rosenbrock_gradient

        def counted(x):
            calls.append(None)
            return real(x)

        problem = oracles.Landscape2D(kind="rosenbrock", n_workers=3)
        x_bar = np.array([0.3, -1.7])
        loss, grad = ref.mean_loss(problem, x_bar), ref.mean_gradient(problem, x_bar)
        monkeypatch.setattr(oracles, "rosenbrock_gradient", counted)
        rec = engine._make_record(problem, np.repeat(x_bar[:, None], 3, axis=1), x_bar,
                                  4, 0.1, 10)
        assert len(calls) == 3
        assert rec.loss == loss and rec.grad_norm == optim._norm(grad)

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

    @pytest.mark.parametrize("scale", [1e200, 1.7e308])
    @pytest.mark.parametrize("centred", [False, True])
    def test_zig_zag_keeps_its_turns_at_any_magnitude(self, scale, centred):
        # the lengths once overflowed to inf and the floor 1e-9 * inf dropped
        # every segment; centred at 1.7e308, the box's sides and every
        # segment exceed the float maximum
        unit = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        pts = (2.0 * unit - 1.0 if centred else unit) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = heading_change_sum(pts)
        assert got == heading_change_sum(unit) == pytest.approx(2.0 * np.pi, rel=1e-12)

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

    def test_results_and_states_compare_by_identity(self):
        # the generated == compared array fields and raised
        a, b = quiet_run(make_config()), quiet_run(make_config())
        assert (a == b) is False and (a == a) is True
        assert (a.final_state == b.final_state) is False
        assert (a.final_state == a.final_state) is True
        X0 = np.random.default_rng(0).standard_normal((3, 4))
        W = mixing_matrix(build_graph("ring", 4))
        c, d = consensus.gossip_consensus(X0, W, 5), consensus.gossip_consensus(X0, W, 5)
        assert (c == d) is False and (c == c) is True

    def test_a_long_run_holds_its_trace_once(self):
        # the trace was a list of per-step arrays that np.stack copied at
        # the end, a peak of about 2.05 times the trace here
        cfg = make_config(**{"problem.dim": "1024", "problem.zeta": "0",
                             "problem.sigma": "0", "run.steps": "800",
                             "run.metrics_every": "100"})
        tracemalloc.start()
        try:
            res = quiet_run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.xbar_trace.shape == (801, 1024)
        assert peak < 1.3 * res.xbar_trace.nbytes

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
        assert not np.array_equal(ref.one_peer_exponential_matrix(4, 0).weights,
                                  ref.one_peer_exponential_matrix(4, 1).weights)

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
                stacked_step("dsgdm", S, ref.one_peer_exponential_matrix(4, t), inner, t, grad_fn)
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

    def test_no_run_builds_a_dense_one_peer_matrix(self, monkeypatch):
        # one-peer steps mix by a column shift; the dense matrix is a test
        # reference only, and no MixingMatrix is built once configs load
        configs = [make_config(**{"topology.kind": "one_peer_exponential",
                                  "topology.n": "8", "optim.kind": kind,
                                  "optim.tau": "2" if kind in ("slowmo", "mimelite") else "1",
                                  "run.steps": "6"})
                   for kind in OPTIM_KINDS if kind != "qhm"]

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a run built a dense mixing matrix")

        monkeypatch.setattr(topology.MixingMatrix, "__post_init__", forbidden)
        for cfg in configs:
            quiet_run(cfg)
        X0 = np.random.default_rng(0).standard_normal((3, 8))
        consensus.qg_consensus(X0, OnePeerExponential(8), 0.9, 0.9, T=5)

    def test_a_constant_schedule_builds_no_step_parameters(self, monkeypatch):
        built = self._count_hyperparams(monkeypatch)
        cfg = make_config(**{"run.steps": "12"})
        built.clear()  # loading builds the config's own
        quiet_run(cfg)
        assert built == []

    def test_a_stage_schedule_builds_step_parameters_once_per_stage_change(self, monkeypatch):
        built = self._count_hyperparams(monkeypatch)
        cfg = make_config(**{"schedule.kind": "warmup_stage",
                             "schedule.warmup_fraction": "0.0",
                             "schedule.milestones": "0.5,0.75", "run.steps": "12"})
        built.clear()
        res = quiet_run(cfg)
        stages = [0.05, 0.05 / 10.0, 0.05 / 10.0**2]
        assert built == stages[1:]
        assert [r.lr for r in res.records] == [stages[0]] * 5 + [stages[1]] * 3 + [stages[2]] * 4

    def test_a_constant_schedule_slowmo_run_builds_no_step_parameters(self, monkeypatch):
        # a round's inner steps refresh every step by their own gate period,
        # not by a tau=1 copy of the round's parameters
        built = self._count_hyperparams(monkeypatch)
        cfg = make_config(**{"optim.kind": "slowmo", "optim.tau": "2",
                             "optim.slowmo_base": "qg_dsgdm", "run.steps": "12"})
        built.clear()
        quiet_run(cfg)
        assert built == []

    @staticmethod
    def _count_hyperparams(monkeypatch):
        built, real = [], HyperParams.__post_init__

        def counting(hp):
            built.append(hp.eta)
            real(hp)

        monkeypatch.setattr(HyperParams, "__post_init__", counting)
        return built

    def test_finite_check_skips_nothing_that_changed(self):
        # arrays that stay the same object are skipped; a buffer rebound to
        # a non-finite array after several finite steps is still named with
        # its worker and step
        S = StackedState.init(np.zeros(3), 4)
        verified = {}
        for step in range(1, 5):
            S.X = S.X + 1.0
            S.V = S.V + 0.5
            engine._check_finite(S, step, "dsgd", S.array_fields(), verified,
                                 optim._average_model(S.X))
        assert verified["x"] is S.X and verified["m_local"] is S.M_local
        V = S.V.copy()
        V[2, 2] = np.inf
        S.V = V
        with pytest.raises(NumericalDivergence) as exc:
            engine._check_finite(S, 5, "dsgd", S.array_fields(), verified,
                                 optim._average_model(S.X))
        assert str(exc.value) == "non-finite v of worker 2 at step 5 (method dsgd); aborting"

    @staticmethod
    def _every_buffer(dim=3, n=5):
        """A state holding every array a method can hold, all finite."""
        rng = np.random.default_rng(11)
        S = StackedState.from_matrix(rng.standard_normal((dim, n)))
        for attr in ("M_hat", "M_local", "V", "Y", "G_prev", "X_prev", "X_half_prev",
                     "M_hat_prev"):
            setattr(S, attr, rng.standard_normal((dim, n)))
        for attr in ("slow_m", "server_s"):
            setattr(S, attr, rng.standard_normal(dim))
        return S

    def test_finite_check_passes_finite_entries_whose_sum_overflows(self):
        S = self._every_buffer()
        for attr, _field in S.array_fields():
            setattr(S, attr, np.full_like(getattr(S, attr), 1.7e308))
        verified = {}
        with np.errstate(over="ignore"):  # the sum overflows, as it may in a run
            engine._check_finite(S, 1, "dsgd", S.array_fields(), verified,
                                 optim._average_model(S.X))
        assert len(verified) == 11
        assert all(verified[field] is getattr(S, attr) for attr, field in S.array_fields())

    def test_finite_check_reads_x_through_the_averaged_model(self):
        # X is summed only through x_bar, so a finite x_bar passes X unread
        S = self._every_buffer()
        S.X[1, 3] = np.nan
        verified = {}
        engine._check_finite(S, 1, "dsgd", S.array_fields(), verified, np.zeros(3))
        assert verified["x"] is S.X

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    @pytest.mark.parametrize("attr", ["X", "V", "server_s"])
    def test_finite_check_names_a_later_field_past_overflowing_rows(self, attr, bad_value):
        # X's rows overflow its averaged model, so X is scanned and found
        # finite; a NaN or inf in X itself or in a later field is still
        # named as the entrywise scan names it
        S = self._every_buffer()
        S.X = np.full_like(S.X, 1.7e308)
        bad = getattr(S, attr).copy()
        bad.flat[bad.size - 2] = bad_value
        setattr(S, attr, bad)
        with pytest.raises(NumericalDivergence) as new, np.errstate(
                over="ignore", invalid="ignore"):
            engine._check_finite(S, 4, "dsgd", S.array_fields(), {},
                                 optim._average_model(S.X))
        with pytest.raises(NumericalDivergence) as old:
            ref.check_finite(S, 4, "dsgd", S.array_fields(), {})
        assert str(new.value) == str(old.value)
        assert (new.value.field, new.value.worker) == (old.value.field, old.value.worker)

    def test_each_metrics_row_evaluates_each_mean_once(self, monkeypatch):
        # the benchmark times these two methods as oracles.mean_eval; the
        # run must keep calling them, once each per metrics row
        calls = []
        for name in ("mean_loss", "mean_gradient"):
            real = getattr(ProblemSpec, name)

            def counting(spec, x, _name=name, _real=real):
                calls.append(_name)
                return _real(spec, x)

            monkeypatch.setattr(ProblemSpec, name, counting)
        result = quiet_run(make_config(**{"run.steps": "12", "run.metrics_every": "3"}))
        assert len(result.records) == 4
        assert sorted(calls) == ["mean_gradient"] * 4 + ["mean_loss"] * 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finite_check_names_what_the_entrywise_scan_named(self, bad):
        # a non-finite entry in any of the 11 buffers, at any worker, among
        # finite entries that overflow or not, raises the exception the old
        # entry-by-entry scan raised, and both leave the same arrays verified
        S0 = self._every_buffer()
        fields = S0.array_fields()
        assert [field for _attr, field in fields] == [
            "x", "m_hat", "m_local", "v", "y_tracker", "g_prev", "x_prev",
            "x_half_prev", "m_hat_prev", "slow_m", "server_s"]
        for attr, field in fields:
            for flat in (0, 4, 7, getattr(S0, attr).size - 1):
                for fill in (None, 1.7e308):
                    S = dataclasses.replace(S0)
                    arr = getattr(S0, attr).copy()
                    if fill is not None:
                        arr.fill(fill)
                    arr.flat[flat % arr.size] = bad
                    setattr(S, attr, arr)
                    got, want = {}, {}
                    with pytest.raises(NumericalDivergence) as new, np.errstate(
                            over="ignore", invalid="ignore"):
                        engine._check_finite(S, 9, "qg_dsgdm", fields, got,
                                             optim._average_model(S.X))
                    with pytest.raises(NumericalDivergence) as old:
                        ref.check_finite(S, 9, "qg_dsgdm", fields, want)
                    assert (new.value.step, new.value.field, new.value.worker) == (
                        old.value.step, old.value.field, old.value.worker) == (
                        9, field, (flat % arr.size) % arr.shape[1] if arr.ndim == 2 else None)
                    assert str(new.value) == str(old.value)
                    assert got.keys() == want.keys()

    @pytest.mark.parametrize("kind,attr,field,tau", [
        ("dmsgd_i", "M_hat_prev", "m_hat_prev", "1"),
        ("mimelite", "server_s", "server_s", "2")])
    def test_finite_check_names_a_buffer_that_first_appears_after_step_1(
            self, monkeypatch, kind, attr, field, tau):
        # the check visits the buffers held after the first span; a buffer
        # that span added, made non-finite later, is still named
        step_fn = "stacked_mimelite_round" if kind == "mimelite" else "stacked_step"
        real = getattr(engine, step_fn)

        def poisoning(*args):
            real(*args)
            calls.append(None)
            if len(calls) == 3:
                S = next(a for a in args if isinstance(a, StackedState))
                bad = getattr(S, attr).copy()
                bad[(1, 2) if bad.ndim == 2 else 1] = np.nan
                setattr(S, attr, bad)

        calls = []
        monkeypatch.setattr(engine, step_fn, poisoning)
        cfg = make_config(**{"optim.kind": kind, "optim.tau": tau, "run.steps": "12"})
        with pytest.raises(NumericalDivergence) as exc:
            quiet_run(cfg)
        step = 3 * int(tau)
        worker = 2 if field == "m_hat_prev" else None
        assert (exc.value.field, exc.value.worker, exc.value.step) == (field, worker, step)
        owner = " of worker 2" if worker is not None else ""
        assert str(exc.value) == (
            f"non-finite {field}{owner} at step {step} (method {kind}); aborting")

    @pytest.mark.parametrize("kind", OPTIM_KINDS)
    def test_every_method_holds_its_arrays_from_the_first_span_on(self, kind):
        # the finite check reads the list of arrays held once, after the
        # first span, so no method may add or drop one later
        span = 2 if kind in ("slowmo", "mimelite") else 1
        tweaks = {"optim.kind": kind, "optim.tau": str(span)}
        if kind == "qhm":
            tweaks.update({"topology.kind": "complete", "topology.n": "1"})
        first = quiet_run(make_config(**tweaks, **{"run.steps": str(span)}))
        last = quiet_run(make_config(**tweaks, **{"run.steps": str(5 * span)}))
        assert first.final_state.array_fields() == last.final_state.array_fields()

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
            "problem.kind": "rosenbrock", "problem.zeta": "0", "problem.dim": "2",
            "problem.sigma": "0", "problem.init": "1.0,1.0",
            "topology.n": "4", "optim.kind": kind, "optim.tau": "1",
            "optim.eta": "0.01", "run.steps": "10"})
        res = quiet_run(cfg)
        np.testing.assert_allclose(
            res.xbar_trace, np.ones_like(res.xbar_trace), atol=1e-12)

    def test_stationary_start_single_worker_closed_form(self):
        cfg = make_config(**{
            "problem.kind": "rosenbrock", "problem.zeta": "0", "problem.dim": "2",
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
        res = quiet_run(make_config(**{"problem.kind": "rosenbrock", "problem.dim": "2",
                                       "problem.zeta": "0", "problem.sigma": "0",
                                       "topology.n": "2", "problem.init": "0.5,0.25",
                                       "run.steps": "1"}))
        np.testing.assert_allclose(res.xbar_trace[0], [0.5, 0.25])

    def test_init_length_mismatch(self):
        with pytest.raises(ConfigError, match="components"):
            quiet_run(make_config(**{"problem.init": "1.0,2.0,3.0"}))
