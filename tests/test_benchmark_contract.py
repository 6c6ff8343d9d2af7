"""The names that the benchmark in ``perfbench/`` binds in zamen still exist.

The benchmark wraps the public functions listed in ``perfbench.tracing.TRACED``
and calls a few others by position or field name; removing or reshaping one of
them should fail here rather than in a traced benchmark run.  A few of its items
also run on tiny inputs, so the result fields its checks read are exercised too.
"""

import importlib
import inspect
import random
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from zamen import cache
from zamen.hypergroups import QuadratureConfig

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import COUNTS, TRACED, Tracer  # noqa: E402


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in TRACED.items() for name in names]
)
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"zamen.{layer}"), name, None))


def test_cached_character_table_takes_cs_second():
    params = list(inspect.signature(cache.cached_character_table).parameters.values())
    assert params[1].name == "cs"
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_quadrature_config_keeps_the_grid_fields():
    names = {f.name for f in fields(QuadratureConfig)}
    assert {"panels", "nodes_per_panel", "refinement_factor"} <= names


def tiny_items():
    from perfbench import workloads

    rng = random.Random(5)
    return [
        workloads.group_item("S3", rng),
        workloads.group_item("Q8", rng),  # its document is built from the zoo group's ``table`` view
        workloads.group_item("S3xS3", rng),
        workloads.group_item("D60", rng),
        workloads.experiment_item("chebyshev", "fejer", (4, 8), rng),
        workloads.experiment_item("su2", "dirichlet", (4,), rng),
        workloads.Tz2Item(3),
    ]


def test_benchmark_items_pass_their_own_checks_on_tiny_inputs(tmp_path):
    items = tiny_items()
    assert items[2].factor_docs and items[3].verify_diagonal
    for item in items:
        assert item.run(tmp_path).problems == [], item.name


def test_a_traced_run_of_the_tiny_items_records_every_count(tmp_path):
    # The count hooks read what the calls return (``g.table``, ``t.num_classes``, ``t.residual``,
    # ``r.pairs_checked``, the rows' keys); a hook that raises fails its item.
    with Tracer().installed() as tracer:
        for item in tiny_items():
            assert item.run(tmp_path).problems == [], item.name
    hooked = [span for span in tracer.spans if span.name in COUNTS]
    assert all(span.counts for span in hooked), [span.name for span in hooked if not span.counts]
    assert {span.name for span in hooked} >= {
        "specio.group_from_json",
        "characters.character_table",
        "cache.cached_character_table",
        "specio.stable_json",
        "hypergroups.run_experiment",
        "tz2.verify_identity_measure",
    }
