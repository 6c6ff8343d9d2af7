"""The benchmark's workloads: seeded input documents, one pass, reference checks.

Every workload is a closed loop with one caller: items run one after the
other, each only after the previous one has returned.  The program sees only
the generated ``zamen-group`` / ``zamen-experiment`` documents.  The seed picks
each group's generating set (random unit powers of cycles, generating pairs
conjugated by a random point permutation) and the order of the quadrature
levels, so element labels and class order change with the seed while every
reference value stays fixed.

All calls into zamen go through module attributes (``specio.group_from_json``
and so on), so the spans that ``tracing`` installs see them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from zamen import amenability, cache, characters, groups, hypergroups, specio, tz2, zoo

from . import references

CERT_TOL = 1e-9

ZOO_24 = (
    *(f"Z{n}" for n in range(2, 13)),
    "Z2xZ2", "Z2xZ4", "Z2xZ2xZ2",
    "S3", "D4", "Q8", "D5", "D6", "D7", "D8", "A4", "S4", "S3xS3",
)
GROUP_LADDERS = {
    "order-ladder": ZOO_24 + ("S5", "S6", "A6", "A7", "S7", "A5xA5", "S5xS3", "S4xS4"),
    "class-ladder": ("Z300", "Q8xZ40", "D10xZ16", "S3xS3xS3", "D60", "D120"),
}
VERIFY_DIAGONAL = frozenset({"D60", "D120"})

STUDIES = (
    ("su2", "dirichlet"),
    ("su2", "fejer-smoothed"),
    ("chebyshev", "fejer"),
    ("chebyshev", "fejer-signed"),
)
LEVELS = (50, 100, 200, 400, 800)
# The library's defaults at v0.1, written out so a later change of the
# defaults does not change the workload.
QUADRATURE = {"panels": 64, "nodes_per_panel": 16, "refinement_factor": 2, "tolerance": 1e-6}
TZ2_MAX_MODE = 40
TZ2_CONTROL_WEIGHT = Fraction(-1)
TZ2_CONTROL_FAILURES = frozenset(
    {("trivial", "trivial"), ("trivial", "sign"), ("sign", "trivial"), ("sign", "sign")}
)

WORKLOADS = ("order-ladder", "class-ladder", "compact-studies")


@dataclass
class Outcome:
    """What one item produced: failed checks, and quadrature row counts."""

    name: str
    problems: list[str] = field(default_factory=list)
    rows: int = 0
    unconverged: int = 0


# -- reference checks shared by the in-process pass and the CLI output ------


def check_constant(name: str, am: float, hs: float, gap_ok: bool) -> list[str]:
    reference = references.reference_am(name)
    problems = []
    if not references.close(am, reference):
        problems.append(f"{name}: AM {am!r} differs from the reference {reference!r}")
    if not references.is_abelian_name(name) and am < 1.0 + amenability.NONABELIAN_GAP:
        problems.append(f"{name}: nonabelian AM {am!r} is below 1 + 1/700")
    if not gap_ok:
        problems.append(f"{name}: the library's gap check failed")
    if hs > am * (1.0 + references.REL_TOL):
        problems.append(f"{name}: Hilbert-Schmidt bound {hs!r} exceeds AM {am!r}")
    return problems


def check_rows(item: "ExperimentItem", rows: list[dict]) -> list[str]:
    tol = QUADRATURE["tolerance"]
    problems = []
    if [int(r["n"]) for r in rows] != list(item.levels):
        problems.append(f"{item.name}: rows do not follow the requested levels {item.levels}")
    for r in rows:
        where = f"{item.name} n={r['n']}"
        if item.model == "su2" and not r["diagonal_norm"] >= r["lower_bound"]:
            problems.append(f"{where}: norm {r['diagonal_norm']!r} below its lower bound {r['lower_bound']!r}")
        if item.scheme == "fejer":
            for key, estimate in (("diagonal_norm", "diagonal_error_estimate"), ("bai_norm", "bai_error_estimate")):
                if abs(r[key] - 1.0) > max(tol, r[estimate]):
                    problems.append(f"{where}: Fejer {key} {r[key]!r} is not 1")
        if item.scheme == "fejer-signed" and not r["bai_norm"] - r["bai_error_estimate"] > 1.0 + tol:
            problems.append(f"{where}: signed kernel norm {r['bai_norm']!r} is not above 1")
    return problems


# -- items -------------------------------------------------------------------


@dataclass(frozen=True)
class GroupItem:
    """One group, processed along the CLI's path plus the reference checks."""

    name: str
    doc: str
    factor_docs: tuple[str, ...] = ()
    verify_diagonal: bool = False

    def run(self, cache_dir: Path) -> Outcome:
        group = specio.group_from_json(self.doc)
        cs = groups.conjugacy_structure(group)
        table, first_hit = cache.cached_character_table(group, cs, cache_dir=cache_dir)
        loaded, second_hit = cache.cached_character_table(group, cs, cache_dir=cache_dir)
        am = amenability.amenability_constant(loaded).value
        hs = amenability.hilbert_schmidt_lower_bound(loaded)
        gap = amenability.nonabelian_gap_check(loaded)

        problems = check_constant(self.name, am, hs, gap.passed)
        if first_hit or not second_hit:
            problems.append(f"{self.name}: the cache did not miss and then hit")
        if not table.residual <= CERT_TOL:
            problems.append(f"{self.name}: certification residual {table.residual!r} above {CERT_TOL}")
        if loaded.values.shape != table.values.shape or np.abs(loaded.values - table.values).max() > CERT_TOL:
            problems.append(f"{self.name}: the cached table differs from the computed one")
        if self.factor_docs:
            tables = [characters.character_table(specio.group_from_json(doc)) for doc in self.factor_docs]
            tensor_am = amenability.amenability_constant(reduce(characters.tensor_table, tables)).value
            reference = references.reference_am(self.name)
            if not references.close(tensor_am, reference):
                problems.append(f"{self.name}: tensor-table AM {tensor_am!r} differs from {reference!r}")
        if self.verify_diagonal:
            report = amenability.verify_diagonal(loaded)
            if not report.passed:
                problems.append(f"{self.name}: verify_diagonal residual {report.max_residual!r}")
        return Outcome(self.name, problems)


@dataclass(frozen=True)
class ExperimentItem:
    """One quadrature study: a model, a scheme and its levels."""

    name: str
    model: str
    scheme: str
    levels: tuple[int, ...]
    doc: str

    def run(self, cache_dir: Path) -> Outcome:
        spec = specio.load_experiment_spec(json.loads(self.doc))
        rows = hypergroups.run_experiment(spec)
        unconverged = sum(not r["diagonal_converged"] for r in rows)
        return Outcome(self.name, check_rows(self, rows), rows=len(rows), unconverged=unconverged)


@dataclass(frozen=True)
class Tz2Item:
    """The exact T x| Z2 check, with its negative control."""

    max_mode: int
    name: str = "tz2"

    @property
    def pairs(self) -> int:
        return (self.max_mode + 2) ** 2

    def run(self, cache_dir: Path) -> Outcome:
        report = tz2.verify_identity_measure(max_mode=self.max_mode)
        control = tz2.verify_identity_measure(max_mode=self.max_mode, cross_weight=TZ2_CONTROL_WEIGHT)
        problems = []
        if not report.passed or report.pairs_checked != self.pairs:
            problems.append(f"tz2: {len(report.failures)} failures in {report.pairs_checked} pairs")
        failing = [(left, right) for left, right, _, _ in control.failures]
        if len(failing) != len(TZ2_CONTROL_FAILURES) or set(failing) != TZ2_CONTROL_FAILURES:
            problems.append(f"tz2: the cross weight {TZ2_CONTROL_WEIGHT} control failed on {failing}")
        return Outcome(self.name, problems)


Item = GroupItem | ExperimentItem | Tz2Item


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Item, ...]


def run_pass(workload: Workload, cache_dir: Path, mark: Optional[Callable[[str], None]] = None) -> list[Outcome]:
    """Run every item once, in order; an exception fails its item, not the pass."""
    outcomes = []
    for item in workload.items:
        if mark is not None:
            mark(item.name)
        try:
            outcomes.append(item.run(cache_dir))
        except Exception as exc:  # a raised error is a failed operation
            outcomes.append(Outcome(item.name, [f"{item.name}: raised {type(exc).__name__}: {exc}"]))
    return outcomes


# -- seeded documents --------------------------------------------------------


def _conjugate(perm: list[int], sigma: list[int]) -> list[int]:
    """sigma o perm o sigma^-1, the same permutation on relabelled points."""
    out = [0] * len(perm)
    for i, image in enumerate(perm):
        out[sigma[i]] = sigma[image]
    return out


def _shift(n: int, step: int) -> list[int]:
    return [(i + step) % n for i in range(n)]


def _perm_spec(name: str, rng: random.Random) -> dict:
    """A permutation-generator spec for Zn, Dn, Sn, An or Q8."""
    kind, n = name[0], int(name[1:])
    units = [u for u in range(1, n) if math.gcd(u, n) == 1] or [1]
    if kind == "Z":
        return {"kind": "perm", "degree": n, "generators": [_shift(n, rng.choice(units)) for _ in range(2)], "label": name}
    if kind == "D":
        gens = [_shift(n, rng.choice(units)), [(-i) % n for i in range(n)]]
    elif kind == "S":
        gens = [[1, 0, *range(2, n)], _shift(n, 1)]
    elif kind == "A":
        second = _shift(n, 1) if n % 2 else [0, *(1 + (i % (n - 1)) for i in range(1, n))]
        gens = [[1, 2, 0, *range(3, n)], second]
    elif name == "Q8":
        # Left multiplication by i and j in the zoo's quaternion table.
        table = zoo.build("Q8").table
        gens = [[int(x) for x in table[2]], [int(x) for x in table[4]]]
    else:
        raise ValueError(f"no generator recipe for {name!r}")
    sigma = list(range(len(gens[0])))
    rng.shuffle(sigma)
    return {"kind": "perm", "degree": len(sigma), "generators": [_conjugate(g, sigma) for g in gens], "label": name}


def _document(fmt: str, body: dict) -> str:
    return json.dumps({"format": fmt, "version": specio.FORMAT_VERSION, **body})


def group_item(name: str, rng: random.Random) -> GroupItem:
    bodies = [_perm_spec(part, rng) for part in references.factors(name)]
    if len(bodies) == 1:
        return GroupItem(name, _document(specio.GROUP_FORMAT, bodies[0]), verify_diagonal=name in VERIFY_DIAGONAL)
    product = {"kind": "product", "factors": bodies, "label": name}
    factor_docs = tuple(_document(specio.GROUP_FORMAT, b) for b in bodies)
    return GroupItem(name, _document(specio.GROUP_FORMAT, product), factor_docs, name in VERIFY_DIAGONAL)


def experiment_item(model: str, scheme: str, levels, rng: random.Random) -> ExperimentItem:
    order = list(levels)
    rng.shuffle(order)
    body = {"model": model, "scheme": scheme, "n": order, "quadrature": QUADRATURE}
    return ExperimentItem(f"{model}-{scheme}", model, scheme, tuple(order), _document(specio.EXPERIMENT_FORMAT, body))


def build(name: str, seed: int) -> Workload:
    """The named workload's items for one seed; the same seed gives the same documents."""
    rng = random.Random(seed)
    if name == "compact-studies":
        studies = list(STUDIES)
        rng.shuffle(studies)
        items = [experiment_item(model, scheme, LEVELS, rng) for model, scheme in studies]
        return Workload(name, (*items, Tz2Item(TZ2_MAX_MODE)))
    if name not in GROUP_LADDERS:
        raise KeyError(f"unknown workload {name!r}")
    return Workload(name, tuple(group_item(g, rng) for g in GROUP_LADDERS[name]))


# -- the same work through the zamen CLI ---------------------------------------

Check = Callable[[int, str], list]


def _check_amconst(items: list[GroupItem], code: int, out: str) -> list[str]:
    records = json.loads(out)["results"]
    if len(records) != len(items):
        return [f"amconst returned {len(records)} records for {len(items)} groups"]
    problems = [] if code == 0 else [f"amconst exited with {code}"]
    for item, r in zip(items, records):
        problems += check_constant(item.name, r["am"], r["hs_lower_bound"], r["gap_ok"])
    return problems


def _check_csv(item: ExperimentItem, code: int, out: str) -> list[str]:
    rows = []
    for r in csv.DictReader(io.StringIO(out)):
        row = {k: float(v) for k, v in r.items() if k.endswith(("norm", "estimate"))}
        row["n"] = int(r["n"])
        row["lower_bound"] = float(r["lower_bound"]) if r["lower_bound"] else ""
        rows.append(row)
    return ([] if code == 0 else [f"{item.name}: hypergroup run exited with {code}"]) + check_rows(item, rows)


def _check_tz2_text(item: Tz2Item, code: int, out: str) -> list[str]:
    expected = f"{item.pairs} pairs checked, 0 failures"
    if code != 0 or expected not in out or "PASS" not in out.splitlines()[-1]:
        return [f"tz2: CLI exited with {code} and printed {out[:200]!r}"]
    return []


def cli_commands(workload: Workload, directory: Path, cache_dir: Path) -> list[tuple[list[str], Check]]:
    """The workload as zamen CLI commands, each with a check of its output.

    Input documents are written under ``directory``; group commands use the
    cold ``cache_dir``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    commands: list[tuple[list[str], Check]] = []
    group_items = [it for it in workload.items if isinstance(it, GroupItem)]
    if group_items:
        paths = []
        for i, item in enumerate(group_items):
            paths.append(directory / f"{i:02d}-{item.name}.json")
            paths[-1].write_text(item.doc)
        argv = ["group", "amconst", *map(str, paths), "--json", "--cache-dir", str(cache_dir)]
        commands.append((argv, lambda code, out: _check_amconst(group_items, code, out)))
    for i, item in enumerate(workload.items):
        if isinstance(item, ExperimentItem):
            path = directory / f"{i:02d}-{item.name}.json"
            path.write_text(item.doc)
            commands.append((["hypergroup", "run", str(path)], lambda code, out, item=item: _check_csv(item, code, out)))
        elif isinstance(item, Tz2Item):
            argv = ["verify", "tz2", "--max-mode", str(item.max_mode)]
            commands.append((argv, lambda code, out, item=item: _check_tz2_text(item, code, out)))
    return commands
