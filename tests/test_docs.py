"""The README's config example loads and documents every config key."""

import configparser
import os
import re

from qgm_sim.engine import _SCHEMA, RunConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_ini_block() -> str:
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```ini\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1, f"expected one ```ini block in README.md, found {len(blocks)}"
    return blocks[0]


def test_readme_config_example_loads(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(readme_ini_block())
    cfg = RunConfig.from_ini(str(path))
    assert (cfg.optim_kind, cfg.dim, cfg.n, cfg.hp.mu) == ("qg_dsgdm", 16, 16, 0.9)


def test_readme_config_example_sets_every_key():
    parser = configparser.ConfigParser()
    parser.read_string(readme_ini_block())
    missing = [f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys
               if not parser.has_option(section, key)]
    assert not missing, f"README's config example lacks {missing}"
