"""End-to-end tests for every CLI subcommand: exit codes, CSV schemas,
flag overrides, and seed determinism."""

import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qgm_sim
from qgm_sim import cli
from qgm_sim.cli import main
from qgm_sim.engine import METRICS_HEADER, RunConfig, heading_change_sum, run

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
DEMO_INI = """\
[problem]
kind = quadratic
dim = 8
zeta = 1.0
sigma = 0.2

[topology]
kind = ring
n = 4

[optim]
kind = qg_dsgdm
eta = 0.05

[run]
steps = 20
seed = 3
"""


@pytest.fixture()
def demo_config(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(DEMO_INI)
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def quiet_main(argv, recwarn=None):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


class TestRunCommand:
    def test_valid_config(self, demo_config, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert quiet_main(["run", "--config", demo_config, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == METRICS_HEADER
        assert len(rows) == 20
        stdout = capsys.readouterr().out
        assert "final_loss=" in stdout and "final_consensus_dist=" in stdout

    def test_missing_optimizer_field_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[problem]\nkind = quadratic\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert "optim.kind" in capsys.readouterr().err

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("text", [
        DEMO_INI + "seed = 4\n",  # duplicate key
        DEMO_INI + "[optim]\nbeta = 0.5\n",  # duplicate section
        "eta = 0.1\n" + DEMO_INI,  # no section header
        DEMO_INI.replace("eta = 0.05", "eta = %(x)s"),  # interpolation of no key
        DEMO_INI.replace("eta = 0.05", "eta = 5%"),  # bad interpolation syntax
        DEMO_INI + "garbage\n",  # a line that is no key
    ], ids=["duplicate-key", "duplicate-section", "no-section-header",
            "missing-interpolation-key", "interpolation-syntax", "no-key"])
    def test_malformed_ini_exits_1_in_one_line(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        out = tmp_path / "m.csv"
        argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: cannot parse config file {str(path)!r}: ")
        assert not out.exists()

    def test_unknown_flag_exits_1(self, demo_config, capsys):
        assert main(["run", "--config", demo_config, "--bogus", "1"]) == 1
        assert "--bogus" in capsys.readouterr().err

    def test_flag_without_a_value_exits_1(self, demo_config, capsys):
        assert main(["run", "--config", demo_config, "--run.seed"]) == 1
        assert capsys.readouterr().err == "config error: flag --run.seed expects a value\n"

    def test_unknown_config_key_exits_1(self, demo_config, capsys):
        assert main(["run", "--config", demo_config, "--optim.lr", "0.1"]) == 1
        assert "optim.lr" in capsys.readouterr().err

    def test_negative_seed_exits_1_naming_key(self, demo_config, capsys):
        # the demo problem is noisy: unchecked, the seed would fail at the
        # first noise draw with a message that does not name the key
        assert quiet_main(["run", "--config", demo_config, "--run.seed", "-1"]) == 1
        assert "run.seed" in capsys.readouterr().err

    def test_negative_sigma_exits_1_naming_sigma(self, demo_config, tmp_path, capsys):
        # a negative sigma once ran, reporting the noise bound of its magnitude
        out = tmp_path / "m.csv"
        argv = ["run", "--config", demo_config, "--out", str(out), "--problem.sigma", "-0.5"]
        assert quiet_main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: problem.sigma must be >= 0; got -0.5"]
        assert not out.exists()

    def test_condition_below_one_exits_1_naming_cond(self, demo_config, tmp_path, capsys):
        # refused by the key's parser, not by quadratic_family's own message
        out = tmp_path / "m.csv"
        argv = ["run", "--config", demo_config, "--out", str(out), "--problem.cond", "0.5"]
        assert quiet_main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: problem.cond must be >= 1; got 0.5"]
        assert not out.exists()

    @pytest.mark.parametrize("argv,want", [
        (["run", "--config", os.path.join(CONFIG_DIR, "quadratic_ring16_qg.ini"),
          "--optim.eta", "-1"], "optim.eta must be > 0; got -1.0"),
        (["run", "--config", os.path.join(CONFIG_DIR, "quadratic_ring16_qg.ini"),
          "--problem.dim", "0"], "problem.dim must be >= 1; got 0"),
        (["toy2d", "--steps", "0"], "run.steps must be >= 1; got 0"),
        (["trajectory", "--eta", "-1"], "optim.eta must be > 0; got -1.0"),
    ], ids=["run-eta", "run-dim", "toy2d-steps", "trajectory-eta"])
    def test_refusal_names_the_config_key(self, tmp_path, capsys, argv, want):
        # toy2d and trajectory fill a config from their flags
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {want}\n"
        assert not out.exists()

    def test_eta_override_reflected_in_lr_column(self, demo_config, tmp_path):
        out = tmp_path / "m.csv"
        assert quiet_main(["run", "--config", demo_config, "--out", str(out),
                           "--optim.eta", "0.013"]) == 0
        _, rows = read_csv(out)
        assert all(row[2] == "0.013" for row in rows)

    def test_override_takes_the_equals_form(self, demo_config, tmp_path, capsys):
        # as argparse reads --out=path; "--run.seed=5" once exited 1 with
        # "flag --run.seed=5 expects a value", and took the token after it
        # as that flag's value
        paths = [tmp_path / name for name in ("spaced.csv", "equals.csv", "mixed.csv")]
        argvs = [["--run.seed", "5", "--optim.eta", "0.013"],
                 ["--run.seed=5", "--optim.eta=0.013"],
                 ["--run.seed=5", "--optim.eta", "0.013"]]
        for path, flags in zip(paths, argvs):
            assert quiet_main(["run", "--config", demo_config, f"--out={path}", *flags]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
        _, rows = read_csv(paths[1])
        assert all(row[2] == "0.013" for row in rows)
        seed3 = tmp_path / "seed3.csv"
        assert quiet_main(["run", "--config", demo_config, "--out", str(seed3)]) == 0
        assert seed3.read_bytes() != paths[1].read_bytes()
        capsys.readouterr()
        assert main(["run", "--config", demo_config, "--run.seed=-1"]) == 1
        assert "run.seed must be >= 0" in capsys.readouterr().err
        assert main(["run", "--config", demo_config, "--a=b.c", "1"]) == 1
        assert capsys.readouterr().err == "config error: unknown flag '--a=b.c'\n"

    def test_divergence_exits_2(self, demo_config, tmp_path, capsys):
        code = quiet_main([
            "run", "--config", demo_config, "--out", str(tmp_path / "m.csv"),
            "--problem.kind", "rosenbrock", "--problem.dim", "2",
            "--problem.sigma", "0", "--problem.zeta", "0",
            "--topology.n", "2", "--optim.eta", "30"])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "aborting" in err

    @pytest.mark.parametrize("problem,init", [("rosenbrock", "0.5"),
                                              ("nonconvex_toy", "800.0")])
    def test_oracle_overflow_exits_2(self, demo_config, tmp_path, capsys, problem, init):
        # the oracles compute on Python floats, whose ** and math.exp raise
        # OverflowError where numpy would give inf
        code = quiet_main([
            "run", "--config", demo_config, "--out", str(tmp_path / "m.csv"),
            "--problem.kind", problem, "--problem.dim", "2",
            "--problem.sigma", "0", "--problem.zeta", "0", "--problem.init", init,
            "--topology.n", "2", "--optim.kind", "gt", "--optim.eta", "0.1"])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_rows_on_a_ring_exits_1_as_topo_does(self, tmp_path, capsys):
        message = "unexpected parameters ['rows'] for graph kind 'ring'"
        assert main(["topo", "--kind", "ring", "--n", "4", "--rows", "2"]) == 1
        assert message in capsys.readouterr().err
        assert main(["run", "--config", os.path.join(CONFIG_DIR, "quadratic_ring16_qg.ini"),
                     "--out", str(tmp_path / "m.csv"), "--topology.rows", "2"]) == 1
        assert message in capsys.readouterr().err

    def test_torus_rows_pick_the_grid(self, tmp_path):
        blobs = []
        for rows in ("2", "4"):
            out = tmp_path / f"m{rows}.csv"
            assert quiet_main(["run", "--config",
                               os.path.join(CONFIG_DIR, "quadratic_ring16_qg.ini"),
                               "--out", str(out), "--topology.kind", "torus",
                               "--topology.rows", rows]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]  # a 2 x 8 and a 4 x 4 torus mix differently

    def test_zero_dimension_exits_1(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["run", "--config", os.path.join(CONFIG_DIR, "quadratic_ring16_qg.ini"),
                     "--out", str(out), "--problem.dim", "0", "--problem.zeta", "0.0"]) == 1
        assert "dim must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("kind", ["slowmo", "mimelite"])
    def test_round_methods_reject_tau_zero_in_one_line(self, tmp_path, capsys, command, kind):
        # tau = 0 once reached steps % tau and escaped as ZeroDivisionError
        argv = [command, "--config", os.path.join(CONFIG_DIR, "slowmo_quadratic.ini"),
                "--optim.kind", kind, "--optim.tau", "0"]
        if command == "run":
            argv += ["--out", str(tmp_path / "m.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "tau" in err[0]

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_scheme_is_checked_on_one_peer_as_on_a_ring(self, tmp_path, capsys, command):
        # one-peer builds no weights from the scheme, which once let any
        # value through
        message = "unknown mixing scheme 'bogus'"
        for kind in ("ring", "one_peer_exponential"):
            argv = [command, "--config", os.path.join(CONFIG_DIR, "quadratic_ring16_qg.ini"),
                    "--topology.kind", kind, "--topology.scheme", "bogus"]
            if command == "run":
                argv += ["--out", str(tmp_path / "m.csv")]
            assert quiet_main(argv) == 1, kind
            assert message in capsys.readouterr().err, kind

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["problem.cond", "problem.zeta", "problem.sigma",
                                     "problem.b_scale", "problem.scale", "optim.eta"])
    def test_non_finite_value_exits_1_naming_key(self, tmp_path, capsys, key, value):
        out = tmp_path / "m.csv"
        assert quiet_main(["run", "--config",
                           os.path.join(CONFIG_DIR, "quadratic_ring16_qg.ini"),
                           "--out", str(out), f"--{key}", value]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {key} must be finite; got {float(value)}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("init,got", [("nan", "nan"), ("inf", "inf"), ("1e309", "inf"),
                                          ("0,0,0,nan,0,0,0,0", "nan")])
    def test_non_finite_init_exits_1_naming_key(self, demo_config, tmp_path, capsys,
                                                command, init, got):
        # run once diverged at step 1 (exit 2) and validate passed it (exit 0)
        argv = [command, "--config", demo_config, "--problem.init", init]
        if command == "run":
            argv += ["--out", str(tmp_path / "m.csv")]
        assert quiet_main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: problem.init must be finite; got {got}"]
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("factor", ["inf", "1e200", "1e-200"])
    def test_decay_factor_without_a_finite_last_stage_exits_1(self, tmp_path, capsys,
                                                              command, factor):
        # two milestones: eta / factor**2 is 0, overflows, or divides by 0
        argv = [command, "--config", os.path.join(CONFIG_DIR, "quadratic_ring16_qg.ini"),
                "--schedule.decay_factor", factor]
        if command == "run":
            argv += ["--out", str(tmp_path / "m.csv")]
        assert quiet_main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: schedule.decay_factor")

    def test_repeated_runs_byte_identical(self, demo_config, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv", "c.csv"):
            path = tmp_path / name
            assert quiet_main(["run", "--config", demo_config, "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_threads_flag_is_unknown(self, demo_config, tmp_path, capsys):
        # runs are single-threaded, and the flag that was read by nothing is gone
        out = tmp_path / "m.csv"
        assert main(["run", "--config", demo_config, "--out", str(out),
                     "--threads", "4"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: unknown flag '--threads'"]
        assert not out.exists()

    def test_plot_script_emitted(self, demo_config, tmp_path):
        out = tmp_path / "m.csv"
        assert quiet_main(["run", "--config", demo_config, "--out", str(out),
                           "--plot-script"]) == 0
        script = (tmp_path / "m.csv.plot.py").read_text()
        compile(script, "plot.py", "exec")


class TestIgnoredProblemKeys:
    """A [problem] key the configured kind does not read is an error."""

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("kind,key", [
        (kind, key) for kind in ("toy2d", "rosenbrock", "nonconvex_toy")
        for key in ("zeta", "sigma", "cond", "b_scale", "scale")
        if (kind, key) != ("toy2d", "scale")] + [("quadratic", "scale")])
    def test_key_off_its_default_exits_1_naming_key_and_kind(self, tmp_path, capsys,
                                                             command, kind, key):
        # once accepted and ignored: the metrics were byte-identical to the
        # plain run's
        out = tmp_path / "m.csv"
        argv = [command, "--config", os.path.join(CONFIG_DIR, "toy2d_dsgdm.ini"),
                "--problem.kind", kind, f"--problem.{key}", "2.5"]
        if command == "run":
            argv += ["--out", str(out)]
        assert quiet_main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: problem.{key} is not read by {kind} (")
        assert err[0].endswith("; got 2.5")
        assert not out.exists()

    @pytest.mark.parametrize("kind,key,value", [
        ("toy2d", "scale", "2.5"), ("quadratic", "sigma", "2.5"),
        ("rosenbrock", "sigma", "0"), ("nonconvex_toy", "cond", "1")])
    def test_a_read_key_or_a_default_value_loads(self, kind, key, value):
        assert quiet_main(["validate", "--config", os.path.join(CONFIG_DIR, "toy2d_dsgdm.ini"),
                           "--problem.kind", kind, f"--problem.{key}", value]) == 0


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["run", "--config", os.path.join(CONFIG_DIR, "toy2d_dsgdm.ini")],
        ["consensus", "--T", "5"],
        ["toy2d", "--steps", "3"],
        ["trajectory", "--steps", "3"],
        ["partition", "--samples", "20", "--classes", "2", "--n", "2"],
        ["topo", "--n", "4"],
    ], ids=lambda argv: argv[0])
    def test_exits_1_in_one_line(self, tmp_path, capsys, argv):
        out = str(tmp_path / "missing" / "x.csv")
        assert quiet_main(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"config error: cannot write {out!r}: No such file or directory"]

    # topo is not here: its one computation is the mixing matrix, whose
    # build checks --kind, --n and --rows, so it runs before the write
    @pytest.mark.parametrize("argv,computation", [
        (["run", "--config", os.path.join(CONFIG_DIR, "toy2d_dsgdm.ini")], "run"),
        (["consensus", "--T", "5"], "gossip_consensus"),
        (["toy2d", "--steps", "3"], "run"),
        (["trajectory", "--steps", "3"], "run"),
        (["partition", "--samples", "20", "--classes", "2", "--n", "2"],
         "dirichlet_partition"),
    ], ids=lambda value: value[0] if isinstance(value, list) else None)
    def test_fails_before_it_computes(self, tmp_path, capsys, monkeypatch, argv, computation):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("computed before checking its output")

        monkeypatch.setattr(cli, computation, forbidden)
        out = str(tmp_path / "missing" / "x.csv")
        assert main(argv + ["--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: cannot write {out!r}: No such file or directory"]

    @pytest.mark.parametrize("argv", [
        ["run", "--config", os.path.join(CONFIG_DIR, "toy2d_dsgdm.ini"), "--optim.eta", "-1"],
        ["consensus", "--topology", "bogus"],
        ["consensus", "--n", "0"],
        ["consensus", "--scheme", "bogus"],
        ["consensus", "--dim", "0"],
        ["toy2d", "--beta", "1.5"],
        ["trajectory", "--problem", "bogus"],
        ["trajectory", "--init", "1,2,3"],
        ["trajectory", "--steps", "0"],
        ["partition", "--classes", "0"],
        ["topo", "--kind", "bogus"],
        ["topo", "--kind", "one_peer_exponential", "--n", "8"],
        ["topo", "--kind", "torus", "--n", "6", "--rows", "4"],
        # checked by the computation as it starts, and before the output
        ["consensus", "--T", "-1"],
        ["consensus", "--beta", "1.5"],
        ["consensus", "--mu", "2"],
        ["partition", "--n", "0"],
        ["partition", "--alpha", "0"],
    ], ids=lambda argv: "run" if argv[0] == "run" else "-".join(a.lstrip("-") for a in argv[:3]))
    def test_argument_errors_come_before_the_output_check(self, tmp_path, capsys, argv):
        assert quiet_main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        expected = capsys.readouterr().err
        assert "cannot write" not in expected
        assert quiet_main(argv + ["--out", str(tmp_path / "missing" / "x.csv")]) == 1
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("existing", [None, "old\n"])
    def test_diverging_run_leaves_its_output_as_it_was(self, demo_config, tmp_path, existing):
        out = tmp_path / "m.csv"
        if existing is not None:
            out.write_text(existing)
        assert quiet_main([
            "run", "--config", demo_config, "--out", str(out),
            "--problem.kind", "rosenbrock", "--problem.dim", "2",
            "--problem.sigma", "0", "--problem.zeta", "0",
            "--topology.n", "2", "--optim.eta", "30"]) == 2
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_text() == existing


class TestValidateCommand:
    def test_reports_violated_bound(self, demo_config, capsys):
        assert main(["validate", "--config", demo_config]) == 0
        stdout = capsys.readouterr().out
        assert "violated" in stdout
        assert "suggested_eta=" in stdout

    def test_satisfied_bound(self, demo_config, capsys):
        assert main(["validate", "--config", demo_config,
                     "--optim.beta", "0.001"]) == 0
        assert "satisfied" in capsys.readouterr().out

    def test_suggested_eta_matches_run_report(self, demo_config, capsys):
        assert main(["validate", "--config", demo_config]) == 0
        printed = capsys.readouterr().out.split("suggested_eta=")[1].split()[0]
        with pytest.warns(UserWarning, match="momentum bound"):
            report = run(RunConfig.from_ini(demo_config)).theorem_report
        assert float(printed) == report.suggested_eta

    def test_time_varying_topology(self, demo_config, capsys):
        # checked at rho = 1: one sweep of log2(8) = 3 steps averages exactly
        argv = ["validate", "--config", demo_config,
                "--topology.kind", "one_peer_exponential", "--topology.n", "8"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "time-varying" in stdout and "one sweep of 3 one-peer steps" in stdout
        assert "momentum bound violated" in stdout and "rho/21 = 0.047619" in stdout
        assert "suggested_eta=" in stdout
        assert main(argv + ["--optim.beta", "0.04"]) == 0
        assert "momentum bound satisfied" in capsys.readouterr().out


class TestConsensusCommand:
    def test_schema_and_speedup(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["consensus", "--topology", "ring", "--n", "16",
                     "--beta", "0.9", "--mu", "0.9", "--T", "200",
                     "--seed", "7", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == "iter,dist_gossip,dist_qg,mean_drift_qg"
        assert len(rows) == 201
        assert [r[0] for r in rows[:3]] == ["0", "1", "2"]
        assert rows[0][1] == rows[0][2]  # both start at the same distance
        stdout = capsys.readouterr().out
        gossip = int(stdout.split("iterations_to_1e-2_gossip=")[1].split()[0])
        qg = int(stdout.split("iterations_to_1e-2_qg=")[1].split()[0])
        assert qg < gossip

    def test_seed_determinism(self, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(["consensus", "--n", "8", "--T", "50",
                         "--seed", "5", "--out", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_time_varying_topology(self, tmp_path):
        # one sweep of log2(8) = 3 one-peer rounds averages exactly
        out = tmp_path / "c.csv"
        assert main(["consensus", "--topology", "one_peer_exponential", "--n", "8",
                     "--T", "6", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[3][1]) <= 1e-14

    def test_zero_dimension_exits_1(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["consensus", "--dim", "0", "--n", "4", "--T", "3",
                     "--out", str(out)]) == 1
        assert "--dim must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scheme_exits_1(self, tmp_path, capsys):
        assert main(["consensus", "--scheme", "magic",
                     "--out", str(tmp_path / "c.csv")]) == 1
        assert "scheme" in capsys.readouterr().err


class TestToy2dCommand:
    def test_schema_and_oscillation_ordering(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert quiet_main(["toy2d", "--steps", "60", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ("step,dsgd_x,dsgd_y,dsgdm_x,dsgdm_y,"
                          "qg_dsgdm_x,qg_dsgdm_y")
        assert len(rows) == 61
        stdout = capsys.readouterr().out
        sums = {}
        for line in stdout.splitlines():
            if line.startswith("kind="):
                kind = line.split("kind=")[1].split()[0]
                sums[kind] = float(line.split("heading_sum=")[1])
        assert sums["qg_dsgdm"] < sums["dsgdm"]
        assert sums["dsgdm"] > sums["dsgd"]

    def test_zig_zags_near_the_float_maximum_keep_their_turns(self, tmp_path, capsys):
        # at eta 1e308 every trace swings by ~1e308 per step (dsgdm's spans
        # 1.3e308 on each axis); the lengths once overflowed and every
        # heading_sum read 0.0
        out = tmp_path / "t.csv"
        assert quiet_main(["toy2d", "--eta", "1e308", "--steps", "5", "--out", str(out)]) == 0
        sums = {line.split()[0]: float(line.split("heading_sum=")[1])
                for line in capsys.readouterr().out.splitlines() if line.startswith("kind=")}
        assert sorted(sums) == ["kind=dsgd", "kind=dsgdm", "kind=qg_dsgdm"]
        assert all(s >= np.pi for s in sums.values()), sums

    def test_mu_moves_only_the_quasi_global_trace(self, tmp_path, capsys):
        # mu is the quasi-global buffer's own momentum, beta when not given
        paths = {mu: tmp_path / f"t{mu}.csv" for mu in ("default", "0.9", "0.5")}
        sums = {}
        for mu, path in paths.items():
            flags = [] if mu == "default" else ["--mu", mu]
            assert quiet_main(["toy2d", *flags, "--out", str(path)]) == 0
            sums[mu] = {line.split()[0]: float(line.split("heading_sum=")[1])
                        for line in capsys.readouterr().out.splitlines()
                        if line.startswith("kind=")}
        assert paths["0.9"].read_bytes() == paths["default"].read_bytes()
        traces = {mu: np.loadtxt(path, delimiter=",", skiprows=1) for mu, path in paths.items()}
        assert np.array_equal(traces["0.5"][:, :5], traces["default"][:, :5])
        assert not np.array_equal(traces["0.5"][:, 5:], traces["default"][:, 5:])
        assert sums["0.5"]["kind=qg_dsgdm"] == pytest.approx(3.0348, abs=1e-4)
        assert sums["default"]["kind=qg_dsgdm"] == pytest.approx(0.0897, abs=1e-4)


class TestTrajectoryCommand:
    def test_rosenbrock_oscillation_study(self, tmp_path):
        out = tmp_path / "rb.csv"
        assert quiet_main(["trajectory", "--problem", "rosenbrock",
                           "--kinds", "sgdm,s_qg_dsgdm", "--eta", "0.001",
                           "--beta", "0.9", "--steps", "10000",
                           "--init", "0.0,0.0", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == "step,sgdm_x,sgdm_y,s_qg_dsgdm_x,s_qg_dsgdm_y"
        assert len(rows) == 10001
        data = np.array([[float(c) for c in row] for row in rows])
        sgdm, qg = data[:, 1:3], data[:, 3:5]
        assert np.linalg.norm(sgdm[-1] - [1.0, 1.0]) < 0.5
        assert np.linalg.norm(qg[-1] - [1.0, 1.0]) < 0.5
        assert heading_change_sum(qg) < heading_change_sum(sgdm)

    def test_start_at_minimum_stays(self, tmp_path):
        out = tmp_path / "rb.csv"
        assert quiet_main(["trajectory", "--problem", "rosenbrock",
                           "--kinds", "sgdm,s_qg_dsgdm", "--steps", "50",
                           "--init", "1.0,1.0", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert [float(c) for c in row[1:]] == [1.0, 1.0, 1.0, 1.0]

    def test_nonconvex_traces_finite_and_approach_origin(self, tmp_path):
        out = tmp_path / "nc.csv"
        assert quiet_main(["trajectory", "--problem", "nonconvex_toy",
                           "--kinds", "sgdm,s_qg_dsgdm", "--eta", "0.01",
                           "--beta", "0.9", "--steps", "10000",
                           "--init=-2.0,0.0", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        data = np.array([[float(c) for c in row] for row in rows])
        assert np.all(np.isfinite(data))
        for cols in (data[-1, 1:3], data[-1, 3:5]):
            assert np.linalg.norm(cols) < 1.0  # started at distance 2

    @pytest.mark.parametrize("init", ["2e307,0", "3e307,0"])
    def test_diverging_nonconvex_trace_exits_2(self, tmp_path, capsys, init):
        # past |x| ~ 2.2e307 the oracle's 8x overflows; the run diverges
        # there as it does just below, and is no config error
        assert main(["trajectory", "--problem", "nonconvex_toy", "--init", init,
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert "numerical divergence" in capsys.readouterr().err

    def test_bad_kind_exits_1(self, tmp_path, capsys):
        assert main(["trajectory", "--kinds", "adam",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "adam" in capsys.readouterr().err

    @pytest.mark.parametrize("kinds", ["", ","])
    def test_empty_kind_list_exits_1(self, tmp_path, capsys, kinds):
        out = tmp_path / "x.csv"
        assert main(["trajectory", "--kinds", kinds, "--out", str(out)]) == 1
        assert "at least one kind" in capsys.readouterr().err
        assert not out.exists()

    def test_mu_moves_only_the_quasi_global_trace(self, tmp_path):
        paths = {mu: tmp_path / f"t{mu}.csv" for mu in ("default", "0.9", "0.5")}
        for mu, path in paths.items():
            flags = [] if mu == "default" else ["--mu", mu]
            assert quiet_main(["trajectory", "--steps", "50", *flags, "--out", str(path)]) == 0
        assert paths["0.9"].read_bytes() == paths["default"].read_bytes()
        traces = {mu: np.loadtxt(path, delimiter=",", skiprows=1) for mu, path in paths.items()}
        assert np.array_equal(traces["0.5"][:, :3], traces["default"][:, :3])
        assert not np.array_equal(traces["0.5"][:, 3:], traces["default"][:, 3:])

    def test_bad_problem_exits_1(self, tmp_path, capsys):
        assert main(["trajectory", "--problem", "quadratic",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "quadratic" in capsys.readouterr().err


class TestPartitionCommand:
    def test_schema_and_counts(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["partition", "--samples", "100", "--classes", "5",
                     "--n", "4", "--alpha", "0.5", "--seed", "1",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == "client,class,count"
        assert len(rows) == 4 * 5
        total = sum(int(r[2]) for r in rows)
        assert total == 100

    def test_fixed_seed_identical_bytes(self, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(["partition", "--samples", "200", "--classes", "10",
                         "--n", "8", "--alpha", "0.1", "--seed", "42",
                         "--out", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_fewer_samples_than_classes_exits_1(self, tmp_path, capsys):
        assert main(["partition", "--samples", "5",
                     "--out", str(tmp_path / "p.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "samples (5)" in err[0] and "classes (10)" in err[0]

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_alpha_exits_1_naming_alpha(self, tmp_path, capsys, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way out
            assert main(["partition", "--alpha", alpha,
                         "--out", str(tmp_path / "p.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "alpha must be finite" in err[0] and f"alpha={alpha}" in err[0]
        assert not (tmp_path / "p.csv").exists()


    @pytest.mark.parametrize("alpha", ["1e308", "1.7e308"])
    def test_alpha_whose_gamma_draws_overflow_exits_1(self, tmp_path, capsys, alpha):
        # every proportion came out 0, and the last client took 850 of 1000 samples
        assert main(["partition", "--alpha", alpha, "--out", str(tmp_path / "p.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert f"alpha={float(alpha)} is too large" in err[0]
        assert not (tmp_path / "p.csv").exists()


class TestTopoCommand:
    def test_complete_four_prints_quarter_matrix(self, capsys):
        assert main(["topo", "--kind", "complete", "--n", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == ["0.25,0.25,0.25,0.25"] * 4
        assert lines[4] == "rho,1.0"

    def test_scheme_alias_and_out_file(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert main(["topo", "--kind", "ring", "--n", "3",
                     "--scheme", "mh", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert all(abs(sum(float(v) for v in row.split(",")) - 1.0) < 1e-12
                   for row in rows)
        assert "rho," in capsys.readouterr().out

    def test_torus_rows_parameter(self, capsys):
        assert main(["topo", "--kind", "torus", "--n", "8", "--rows", "2"]) == 0
        assert "rho," in capsys.readouterr().out

    def test_unknown_kind_exits_1(self, capsys):
        assert main(["topo", "--kind", "hypercube", "--n", "8"]) == 1
        assert "hypercube" in capsys.readouterr().err

    def test_time_varying_kind_exits_1_in_cli_terms(self, capsys):
        assert main(["topo", "--kind", "one_peer_exponential", "--n", "8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "one_peer_exponential" in err
        assert not re.search(r"\w\(", err)  # names no Python function

    def test_unknown_scheme_exits_1(self, capsys):
        assert main(["topo", "--kind", "ring", "--n", "4",
                     "--scheme", "magic"]) == 1
        assert "magic" in capsys.readouterr().err


_TORUS = "torus requires n = rows x cols with rows >= 2 and cols >= 2; "
_IRREGULAR_STAR = ("uniform_neighbor weights require a regular graph (all degrees equal); "
                   "graph kind 'star' has degrees in [1, 4] -- use metropolis_hastings instead")
_SCHEMES = "('metropolis_hastings', 'uniform_neighbor')"
_KINDS = "('ring', 'torus', 'complete', 'star', 'social', 'one_peer_exponential')"


# case: (kind, n, scheme, rows, error from a config, topo and consensus)
TOPOLOGY_REFUSALS = {
    "ring_n0": ("ring", 0, "metropolis_hastings", None,
                "graph size must satisfy n >= 1; got n=0"),
    "torus_prime": ("torus", 7, "metropolis_hastings", None,
                    _TORUS + "n=7 has no such factorization"),
    "torus_rows_3": ("torus", 16, "metropolis_hastings", 3, _TORUS + "got n=16, rows=3"),
    "social_16": ("social", 16, "metropolis_hastings", None,
                  "the social graph is fixed at 32 nodes; got n=16"),
    "one_peer_6": ("one_peer_exponential", 6, "metropolis_hastings", None,
                   "one_peer_exponential requires n to be a power of two; got n=6"),
    "one_peer_n0": ("one_peer_exponential", 0, "metropolis_hastings", None,
                    "graph size must satisfy n >= 1; got n=0"),
    "one_peer_rows": ("one_peer_exponential", 8, "metropolis_hastings", 2,
                      "unexpected parameters ['rows'] for graph kind 'one_peer_exponential'"),
    "unknown_kind": ("hypercube", 8, "metropolis_hastings", None,
                     f"unknown graph kind 'hypercube'; expected one of {_KINDS}"),
    "ring_unknown_scheme": ("ring", 8, "laplacian", None,
                            f"unknown mixing scheme 'laplacian'; expected one of {_SCHEMES}"),
    "one_peer_unknown_scheme": ("one_peer_exponential", 8, "laplacian", None,
                                "unknown mixing scheme 'laplacian'; expected one of "
                                f"{_SCHEMES}"),
    "star_uniform": ("star", 5, "uniform_neighbor", None, _IRREGULAR_STAR),
}


class TestTopologyRefusals:
    """Each way a topology is refused, in a config, ``qgm-sim topo`` and
    ``qgm-sim consensus``: one exact text for all three, in topology's
    words, and exit code 1 from the CLI.
    A case with ``rows`` has no consensus leg: consensus takes no --rows."""

    @pytest.mark.parametrize("case", TOPOLOGY_REFUSALS)
    def test_config_refusal(self, case):
        kind, n, scheme, rows, want = TOPOLOGY_REFUSALS[case]
        topology = {"kind": kind, "n": str(n), "scheme": scheme}
        if rows is not None:
            topology["rows"] = str(rows)
        with pytest.raises(qgm_sim.ConfigError) as exc:
            RunConfig.from_mapping({"problem": {"kind": "quadratic", "dim": "2"},
                                    "topology": topology, "optim": {"kind": "dsgd"}})
        assert str(exc.value) == want

    @pytest.mark.parametrize("case,command", [
        (case, command) for case, refusal in TOPOLOGY_REFUSALS.items()
        for command in ("topo",) + (() if refusal[3] else ("consensus",))])
    def test_cli_refusal(self, tmp_path, capsys, case, command):
        kind, n, scheme, rows, want = TOPOLOGY_REFUSALS[case]
        if command == "topo":
            argv = ["topo", "--kind", kind] + ([] if rows is None else ["--rows", str(rows)])
        else:
            argv = ["consensus", "--topology", kind, "--T", "1",
                    "--out", str(tmp_path / "c.csv")]
        assert main(argv + ["--n", str(n), "--scheme", scheme]) == 1
        assert capsys.readouterr().err == f"config error: {want}\n"
        assert not os.listdir(tmp_path)


class TestParserBehavior:
    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["consensus", "toy2d", "trajectory", "partition", "topo"])
    def test_unknown_flag_on_a_command_without_overrides_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        assert main([command, "--out", str(out), "--bogus", "1"]) == 1
        assert capsys.readouterr().err == "config error: unknown flag '--bogus'\n"
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["consensus", "--n", "4", "--T", "20"],
        ["toy2d", "--steps", "10"],
        ["trajectory", "--steps", "10"],
    ], ids=lambda argv: argv[0])
    def test_plot_script_written_after_the_command_output(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        assert quiet_main(argv + ["--out", str(out), "--plot-script"]) == 0
        script = tmp_path / "o.csv.plot.py"
        compile(script.read_text(), "plot.py", "exec")
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"plot script written to {script}"
        assert f"written to {out}" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["run", "--config", os.path.join(CONFIG_DIR, "toy2d_dsgdm.ini"), "--out", "o.csv"],
        ["validate", "--config", os.path.join(CONFIG_DIR, "toy2d_dsgdm.ini")],
        ["consensus", "--T", "5", "--out", "o.csv"],
        ["toy2d", "--steps", "3", "--out", "o.csv"],
        ["trajectory", "--steps", "3", "--out", "o.csv"],
        ["partition", "--samples", "20", "--classes", "2", "--n", "2", "--out", "o.csv"],
        ["topo", "--kind", "complete", "--n", "2"],
    ], ids=lambda argv: argv[0])
    def test_main_calls_each_command_as_bound_when_it_runs(
            self, tmp_path, monkeypatch, capsys, argv):
        # the benchmark tracer wraps the module's cmd_* in place; main must
        # call the wrapper, not a function bound before it went in, so main
        # also runs once before
        monkeypatch.chdir(tmp_path)
        command = argv[0]
        assert quiet_main(argv) == 0
        unwrapped = capsys.readouterr().out
        calls = []
        original = getattr(cli, f"cmd_{command}")

        def wrapper(*args, **kwargs):
            calls.append(command)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, f"cmd_{command}", wrapper)
        assert quiet_main(argv) == 0
        assert calls == [command]
        assert capsys.readouterr().out == unwrapped
        if command == "topo":
            assert unwrapped.splitlines()[0] == "0.5,0.5"

    def test_module_invocation_subprocess(self, tmp_path):
        # the child imports the package this process imported, installed or not
        src = os.path.dirname(os.path.dirname(qgm_sim.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "qgm_sim.cli", "topo",
             "--kind", "complete", "--n", "2"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "0.5,0.5"
