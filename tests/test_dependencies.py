"""The package imports exactly what pyproject.toml declares, and each command only the layers it runs."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "zamen").glob("*.py"))


def imported_top_level_modules(path):
    """Top-level names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in project["dependencies"]}


def test_third_party_imports_are_the_declared_dependencies():
    assert len(SOURCES) >= 10
    imported = set().union(*map(imported_top_level_modules, SOURCES))
    third_party = imported - set(sys.stdlib_module_names)
    assert third_party == declared_dependencies() == {"numpy"}


def test_importing_the_package_and_cli_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    probe = "import sys, zamen, zamen.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


# Runs one command through zamen.cli.main and prints its exit code and every loaded module.
CLI_PROBE = "import json, sys; from zamen.cli import main; print(json.dumps([main(sys.argv[1:]), sorted(sys.modules)]))"


def probe_output(code, *argv, cwd=ROOT):
    """The last line that ``python -c code argv...`` prints in ``cwd``, with zamen importable from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.strip().splitlines()[-1]


def command_modules(tmp_path, *argv):
    """The modules loaded by one command, run in ``tmp_path`` so that its cache and output land there."""
    code, modules = json.loads(probe_output(CLI_PROBE, *argv, "--out", "out", cwd=tmp_path))
    assert code == 0
    return set(modules)


def test_importing_the_package_loads_no_layer_and_no_numpy():
    probe = "import sys, zamen; print(sorted(m for m in sys.modules if m.split('.')[0] in ('zamen', 'numpy')))"
    assert probe_output(probe) == "['zamen']"


def test_verify_tz2_loads_no_numpy_and_no_other_layer(tmp_path):
    modules = command_modules(tmp_path, "verify", "tz2", "--max-mode", "3")
    assert not any(m.split(".")[0] == "numpy" for m in modules)
    assert {m for m in modules if m.split(".")[0] == "zamen"} == {"zamen", "zamen.cli", "zamen.base", "zamen.tz2"}


@pytest.mark.parametrize(
    "argv, runs, skips",
    [
        (
            ["hypergroup", "run", str(ROOT / "fixtures" / "chebyshev-fejer.json")],
            {"hypergroups", "specio"},
            {"groups", "characters", "cache", "amenability", "central", "zoo"},
        ),
        (
            ["group", "amconst", "S3", str(ROOT / "fixtures" / "q8.json")],
            {"groups", "characters", "cache", "amenability", "specio", "zoo"},
            {"hypergroups", "tz2", "central"},
        ),
    ],
    ids=["hypergroup-run", "group-amconst"],
)
def test_a_command_loads_the_layers_it_runs_and_no_other(tmp_path, argv, runs, skips):
    loaded = {m.split(".", 1)[1] for m in command_modules(tmp_path, *argv) if m.startswith("zamen.")}
    assert runs <= loaded
    assert not skips & loaded


def test_a_module_asked_for_after_a_bare_import_loads_then_and_not_before():
    probe = (
        "import sys, zamen; before = 'zamen.hypergroups' in sys.modules; "
        "print([before, zamen.hypergroups.run_experiment.__module__, zamen.specio.load_character_table.__module__, "
        "'zamen.groups' in sys.modules])"
    )
    # specio loads the finite-group layers only inside the functions that use them.
    assert probe_output(probe) == "[False, 'zamen.hypergroups', 'zamen.specio', False]"
