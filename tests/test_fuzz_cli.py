"""Fuzz ``zamen hypergroup run`` with mutated experiment fixtures, in-process.

Each example takes one of the four ``zamen-experiment`` fixtures and makes
one mutation: it replaces a value (the whole document, a key, a level, or a
quadrature setting that may be absent) with a small JSON atom, deletes a key
or a level, or nudges an integer by at most 2.  The atoms are small, so no
example can ask for a level or grid that takes long: levels stay at most 34
and the refined grid at most 7168 points.  Whatever the document, ``main``
must return 0, 1 or 2 without raising, and exit 2 must print an ``error:``
line.
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
    integers = [p for p in paths if isinstance(get(doc, p), int) and not isinstance(get(doc, p), bool)]
    path = draw(st.sampled_from(integers))
    return replace(doc, path, get(doc, path) + draw(st.sampled_from([-2, -1, 1, 2])))


@pytest.fixture(scope="module")
def spec_path():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "spec.json"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(doc=mutated_documents())
def test_mutated_experiment_specs_exit_0_1_or_2(spec_path, doc):
    spec_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["hypergroup", "run", str(spec_path)])
    assert code in (0, 1, 2), (doc, code)
    if code == 2:
        assert err.getvalue().startswith("error:"), (doc, err.getvalue())
        assert out.getvalue() == ""
