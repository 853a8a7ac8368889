"""The README's examples run: its config example loads and documents every
config key, its library example prints what it printed when written, and
every ``qgm-sim`` line of its shell blocks parses with the CLI's parser.
Every Sphinx cross-reference in the package's docstrings names something
that exists."""

import ast
import configparser
import importlib
import inspect
import os
import pkgutil
import re
import shlex
import warnings
from importlib.util import find_spec

import pytest

import qgm_sim
from qgm_sim.cli import _build_parser, _collect_overrides
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


def readme_cli_lines() -> list[str]:
    """Every ``qgm-sim`` command line in README's ```sh blocks."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), flags=re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("qgm-sim ")]


def test_readme_shows_every_cli_command():
    commands = {shlex.split(line)[1] for line in readme_cli_lines()}
    assert commands == {"run", "validate", "consensus", "toy2d", "trajectory",
                        "partition", "topo"}


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_line_parses(line):
    # parsed as main parses it, without running it: a usage error exits 1
    args, rest = _build_parser().parse_known_args(shlex.split(line)[1:])
    if args.command in ("run", "validate"):
        _collect_overrides(rest)
    else:
        assert rest == [], f"{args.command} takes no {rest[0]!r}"


CROSS_REFERENCE = re.compile(r":(func|class|meth|attr|data|mod):`~?([\w.]+)`")


def _lookup(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def _resolves(module, role: str, target: str) -> bool:
    """Whether ``target`` names something from ``module``: in the module,
    in ``qgm_sim`` (with or without its ``qgm_sim.`` prefix), or, for a
    bare ``:meth:`` or ``:attr:``, on a class the module defines."""
    if role == "mod":
        return find_spec(target) is not None
    owners = [module, qgm_sim]
    if role in ("meth", "attr") and "." not in target:
        owners += [cls for _name, cls in inspect.getmembers(module, inspect.isclass)
                   if cls.__module__ == module.__name__]
    return (any(_lookup(owner, target) for owner in owners)
            or target.startswith("qgm_sim.") and _lookup(qgm_sim, target[len("qgm_sim."):]))


def test_every_docstring_cross_reference_resolves():
    # a helper renamed or removed leaves the references to it behind
    refs, stale = 0, []
    for info in [None, *pkgutil.iter_modules(qgm_sim.__path__)]:
        module = qgm_sim if info is None else importlib.import_module(f"qgm_sim.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for role, target in CROSS_REFERENCE.findall(ast.get_docstring(node) or ""):
                refs += 1
                if not _resolves(module, role, target):
                    stale.append(f"{module.__name__}: :{role}:`{target}`")
    assert refs > 0 and not stale, stale
