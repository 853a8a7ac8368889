"""The README's examples run: its config example loads and documents every
config key, and its library example prints what it printed when written."""

import configparser
import os
import re
import warnings

import pytest

from qgm_sim.engine import _SCHEMA, RunConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_block(language: str) -> str:
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(rf"```{language}\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1, f"expected one ```{language} block in README.md, found {len(blocks)}"
    return blocks[0]


def test_readme_config_example_loads(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(readme_block("ini"))
    cfg = RunConfig.from_ini(str(path))
    assert (cfg.optim_kind, cfg.problem.dim, cfg.n, cfg.hp.mu) == ("qg_dsgdm", 16, 16, 0.9)


def test_readme_config_example_sets_every_key():
    parser = configparser.ConfigParser()
    parser.read_string(readme_block("ini"))
    missing = [f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys
               if not parser.has_option(section, key)]
    assert not missing, f"README's config example lacks {missing}"


def test_readme_library_example_runs(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the example's run warns of its momentum bound
        exec(compile(readme_block("python"), README, "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["349 226", "0.32000000000000006 0.8888888888888888"]
    loss, consensus_dist = map(float, lines[2].split())
    assert (loss, consensus_dist) == pytest.approx((0.3773061003607566, 0.02030391073293295))
    assert len(lines) == 3
