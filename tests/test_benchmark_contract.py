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

from perfbench.tracing import TRACED  # noqa: E402


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


def test_benchmark_items_pass_their_own_checks_on_tiny_inputs(tmp_path):
    from perfbench import workloads

    rng = random.Random(5)
    items = [
        workloads.group_item("S3", rng),
        workloads.group_item("S3xS3", rng),
        workloads.group_item("D60", rng),
        workloads.experiment_item("chebyshev", "fejer", (4, 8), rng),
        workloads.experiment_item("su2", "dirichlet", (4,), rng),
        workloads.Tz2Item(3),
    ]
    assert items[1].factor_docs and items[2].verify_diagonal
    for item in items:
        assert item.run(tmp_path).problems == [], item.name
