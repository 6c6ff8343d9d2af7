"""Fuzz the CLI with mutated experiment and group fixtures, in-process.

Each example of the first test takes one of the four ``zamen-experiment``
fixtures and makes one mutation: it replaces a value (the whole document, a
key, a level, or a quadrature setting that may be absent) with a small JSON
atom, deletes a key or a level, or nudges an integer by at most 2, and runs
``hypergroup run``.  The atoms are small, so no example can ask for a level or
grid that takes long: levels stay at most 34 and the refined grid at most 7168
points.  The second test mutates the nine ``zamen-group`` fixtures (perm,
Cayley, product and semidirect specs) by the same replace, delete and nudge
moves, with atoms of its own, and runs ``group info``, ``group amconst`` and
``group chartable --json``; no mutation builds a group of more than 24
elements.  Whatever the document, ``main`` must return 0, 1 or 2 without
raising, and exit 2 must print an ``error:`` line.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zamen.cli import main
from zamen.hypergroups import QuadratureConfig

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DOCUMENTS = [
    json.loads((FIXTURES / f"{name}.json").read_text())
    for name in ("su2-dirichlet", "su2-fejer-smoothed", "chebyshev-fejer", "chebyshev-fejer-signed")
]
ATOMS = [None, True, False, -1, 0, 1, 2, 7, 0.5, "", "su2", "fejer", [], {}, [3], {"panels": 2}]
SETTINGS = [f.name for f in fields(QuadratureConfig)] + ["panel"]
GROUPS = [
    json.loads((FIXTURES / f"{name}.json").read_text())
    for name in ("a4", "d4", "klein", "q8", "s3-semidirect", "s3", "s4", "z12", "z6")
]
GROUP_ATOMS = [None, True, False, -1, 0, 1, 2, 7, 0.5, "", "(1 2)", "(1 2 3", "perm", "cayley", [], {}, [0], [[0]]]


def value_paths(doc, prefix=()):
    """Every path to a value in ``doc``, the empty path (the document itself) first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from value_paths(value, prefix + (key,))


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replace(doc, path, value):
    if not path:
        return value
    get(doc, path[:-1])[path[-1]] = value
    return doc


def delete(doc, path):
    del get(doc, path[:-1])[path[-1]]
    return doc


def nudged(draw, doc, paths):
    integers = [p for p in paths if isinstance(get(doc, p), int) and not isinstance(get(doc, p), bool)]
    path = draw(st.sampled_from(integers))
    return replace(doc, path, get(doc, path) + draw(st.sampled_from([-2, -1, 1, 2])))


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    paths = list(value_paths(doc))
    kind = draw(st.sampled_from(["replace", "insert", "delete", "nudge"]))
    if kind == "replace":
        return replace(doc, draw(st.sampled_from(paths)), draw(st.sampled_from(ATOMS)))
    if kind == "insert":
        return replace(doc, ("quadrature", draw(st.sampled_from(SETTINGS))), draw(st.sampled_from(ATOMS)))
    if kind == "delete":
        return delete(doc, draw(st.sampled_from(paths[1:])))
    return nudged(draw, doc, paths)


@st.composite
def mutated_groups(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(GROUPS))))
    paths = list(value_paths(doc))
    kind = draw(st.sampled_from(["replace", "delete", "nudge"]))
    if kind == "replace":
        return replace(doc, draw(st.sampled_from(paths)), draw(st.sampled_from(GROUP_ATOMS)))
    if kind == "delete":
        return delete(doc, draw(st.sampled_from(paths[1:])))
    return nudged(draw, doc, paths)


@pytest.fixture(scope="module")
def spec_path():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "spec.json"


def run(argv, doc):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, doc, code)
    if code == 2:
        assert err.getvalue().startswith("error:"), (argv, doc, err.getvalue())
        assert out.getvalue() == ""


@settings(derandomize=True, deadline=None, max_examples=200)
@given(doc=mutated_documents())
def test_mutated_experiment_specs_exit_0_1_or_2(spec_path, doc):
    spec_path.write_text(json.dumps(doc))
    run(["hypergroup", "run", str(spec_path)], doc)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(doc=mutated_groups())
def test_mutated_group_specs_exit_0_1_or_2(spec_path, doc):
    spec_path.write_text(json.dumps(doc))
    cache = ["--cache-dir", str(spec_path.parent / "cache")]
    for argv in (["group", "info"], ["group", "amconst", *cache], ["group", "chartable", "--json", *cache]):
        run([*argv, str(spec_path)], doc)
