"""Tests for the JSON formats and the binary character table cache."""

import dataclasses
import json
import zipfile

import numpy as np
import pytest

from zamen import cache, characters, cli, specio
from zamen.amenability import amenability_constant
from zamen.cache import CACHE_ENV_VAR, cached_character_table, resolve_cache_dir
from zamen.characters import character_table, tensor_table, verify_orthogonality
from zamen.groups import (
    conjugacy_structure,
    cyclic,
    dihedral,
    direct_product,
    from_cayley_table,
    quaternion_group,
    symmetric,
)
from zamen.specio import (
    SpecError,
    character_table_payload,
    group_from_json,
    load_character_table,
    load_experiment_spec,
    load_group_spec,
    stable_json,
)
from zamen.zoo import build


def spec_doc(**body):
    return {"format": "zamen-group", "version": 1, **body}


class TestGroupSpecs:
    def test_perm_cycle_notation(self):
        group = load_group_spec(
            spec_doc(kind="perm", degree=3, generators=["(1 2)", "(1 2 3)"], label="S3")
        )
        assert group.order == 6

    def test_perm_one_line(self):
        group = load_group_spec(spec_doc(kind="perm", degree=3, generators=[[1, 0, 2], [1, 2, 0]]))
        assert group.order == 6

    def test_cayley(self):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        group = load_group_spec(spec_doc(kind="cayley", table=table))
        assert group.order == 4
        assert group.is_abelian

    def test_product(self):
        z2 = {"kind": "cayley", "table": [[0, 1], [1, 0]]}
        group = load_group_spec(spec_doc(kind="product", factors=[z2, z2, z2]))
        assert group.order == 8
        assert group.is_abelian

    def test_semidirect_builds_s3(self):
        z3 = {"kind": "cayley", "table": [[(a + b) % 3 for b in range(3)] for a in range(3)]}
        z2 = {"kind": "cayley", "table": [[0, 1], [1, 0]]}
        doc = spec_doc(
            kind="semidirect",
            normal=z3,
            acting=z2,
            action=[[0, 1, 2], [0, 2, 1]],
        )
        group = load_group_spec(doc)
        assert group.order == 6
        assert not group.is_abelian

    def test_rejects_bad_header(self):
        with pytest.raises(SpecError, match="expected format"):
            load_group_spec({"format": "other", "version": 1, "kind": "perm"})
        with pytest.raises(SpecError, match="version"):
            load_group_spec({"format": "zamen-group", "version": 99, "kind": "perm"})

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_a_version_that_is_not_an_integer_is_refused(self, version):
        # Both compare equal to 1; both were once read as version 1.
        with pytest.raises(SpecError, match=f"unsupported zamen-group version {version!r}"):
            load_group_spec({**spec_doc(kind="perm", degree=2, generators=["(1 2)"]), "version": version})

    def test_rejects_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown group spec kind"):
            load_group_spec(spec_doc(kind="free"))

    def test_rejects_invalid_json_text(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            group_from_json("{not json")

    def test_degree_mismatch_is_reported(self):
        with pytest.raises(Exception):
            load_group_spec(spec_doc(kind="perm", degree=4, generators=[[1, 0, 2]]))


class TestCharacterTableDocuments:
    def test_round_trip(self):
        group = symmetric(4)
        cs = conjugacy_structure(group)
        table = character_table(group)
        payload = character_table_payload(table)
        text = stable_json(payload)
        loaded = load_character_table(json.loads(text), cs)
        assert np.allclose(loaded.values, table.values, atol=1e-11)
        assert np.array_equal(loaded.degrees, table.degrees)
        assert np.array_equal(loaded.inverse_class, table.inverse_class)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_a_version_that_is_not_an_integer_is_refused(self, version):
        cs = conjugacy_structure(symmetric(3))
        payload = {**character_table_payload(character_table(symmetric(3))), "version": version}
        with pytest.raises(SpecError, match=f"unsupported zamen-chartable version {version!r}"):
            load_character_table(payload, cs)

    def test_reserialization_is_byte_stable(self):
        group = dihedral(5)
        cs = conjugacy_structure(group)
        table = character_table(group)
        payload = character_table_payload(table)
        loaded = load_character_table(payload, cs)
        assert stable_json(character_table_payload(loaded)) == stable_json(payload)

    def test_loaded_residual_is_that_of_the_document_values(self):
        # A forged document: one value changed, its residual field set to 0.
        cs = conjugacy_structure(symmetric(4))
        payload = character_table_payload(character_table(symmetric(4)))
        payload["rows"][1]["values"][0] = [5.0, 0.0]
        payload["residual"]["orthogonality"] = 0.0
        assert load_character_table(payload, cs).residual >= 0.9

    @pytest.mark.parametrize(
        "make_group",
        [
            lambda: dihedral(5),
            lambda: dihedral(8),
            lambda: symmetric(4),
            lambda: direct_product(quaternion_group(), cyclic(40)),
        ],
        ids=["D5", "D8", "S4", "Q8xZ40"],
    )
    def test_exported_residual_is_the_one_a_reload_computes(self, make_group):
        group = make_group()
        cs = conjugacy_structure(group)
        payload = character_table_payload(character_table(group))
        loaded = load_character_table(json.loads(stable_json(payload)), cs)
        assert payload["residual"]["orthogonality"] == loaded.residual <= 1e-9

    def test_wrong_group_is_rejected(self):
        group = symmetric(3)
        cs = conjugacy_structure(group)
        other = conjugacy_structure(dihedral(4))
        payload = character_table_payload(character_table(group))
        with pytest.raises(SpecError, match="different group"):
            load_character_table(payload, other)

    @pytest.mark.parametrize("inverse_class", [[0, 1, 2], [0, 2]], ids=["wrong", "short"])
    def test_inverse_classes_must_match_the_group(self, inverse_class):
        cs = conjugacy_structure(cyclic(3))
        payload = character_table_payload(character_table(cyclic(3)))
        assert payload["inverse_class"] == [0, 2, 1]
        payload["inverse_class"] = inverse_class
        with pytest.raises(SpecError, match="inverse classes do not match"):
            load_character_table(payload, cs)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["rows"][0].update(degree="x"),
            lambda doc: doc["rows"][0].update(degree=2.0),
            lambda doc: doc["rows"][0].update(degree=0),
            lambda doc: doc["rows"][0].pop("degree"),
            lambda doc: doc.pop("classes"),
            lambda doc: doc["rows"][1]["values"].pop(),
            lambda doc: doc["rows"][0]["values"][0].__setitem__(0, "1.0"),
            lambda doc: doc["rows"][0]["values"].__setitem__(0, [True, False]),
            lambda doc: doc["rows"][0]["values"][0].__setitem__(1, None),
            lambda doc: doc["rows"][0]["values"][0].__setitem__(0, float("nan")),
        ],
        ids=[
            "string_degree", "float_degree", "zero_degree", "missing_degree", "missing_classes", "short_row",
            "string_value", "boolean_value", "null_value", "nan_value",
        ],
    )
    def test_malformed_document_is_a_spec_error(self, edit):
        cs = conjugacy_structure(symmetric(3))
        payload = character_table_payload(character_table(symmetric(3)))
        edit(payload)
        with pytest.raises(SpecError):
            load_character_table(payload, cs)

    @pytest.mark.parametrize(
        "edit", [lambda doc: doc.update(order=7), lambda doc: doc.pop("order")], ids=["forged", "missing"]
    )
    def test_document_order_is_not_read(self, edit):
        cs = conjugacy_structure(symmetric(3))
        payload = character_table_payload(character_table(symmetric(3)))
        edit(payload)
        assert load_character_table(payload, cs).order == 6

    def test_canonical_blocks_match_across_isocharacteristic_groups(self):
        d4 = character_table_payload(character_table(dihedral(4)))
        q8 = character_table_payload(character_table(quaternion_group()))
        assert stable_json(d4["canonical"]) == stable_json(q8["canonical"])
        assert d4["group_hash"] != q8["group_hash"]

    def test_rounding_in_blocks_writes_the_unblocked_document(self, monkeypatch):
        # Z120's 14 400 values a part are rounded in ROUND_BLOCK (8192) chunks; one chunk for the
        # whole array gives the same bytes.
        table = character_table(cyclic(120))
        assert table.values.size > characters.ROUND_BLOCK
        blocked = stable_json(character_table_payload(table))
        monkeypatch.setattr(characters, "ROUND_BLOCK", 1 << 40)
        assert stable_json(character_table_payload(dataclasses.replace(table))) == blocked

    def test_negative_zero_is_normalized(self):
        payload = character_table_payload(character_table(build("Z4")))
        for row in payload["rows"]:
            for re, im in row["values"]:
                assert not (re == 0.0 and str(re)[0] == "-")
                assert not (im == 0.0 and str(im)[0] == "-")


class TestExperimentSpecs:
    def test_valid(self):
        spec = load_experiment_spec(
            {
                "format": "zamen-experiment",
                "version": 1,
                "model": "su2",
                "scheme": "dirichlet",
                "n": [2, 4],
            }
        )
        assert spec["model"] == "su2"
        assert spec["quadrature"] == {}

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_a_version_that_is_not_an_integer_is_refused(self, version):
        doc = {"format": "zamen-experiment", "version": version, "model": "su2", "scheme": "dirichlet", "n": [2]}
        with pytest.raises(SpecError, match=f"unsupported zamen-experiment version {version!r}"):
            load_experiment_spec(doc)

    def test_rejects_unknown_model_and_scheme(self):
        base = {"format": "zamen-experiment", "version": 1, "n": [1]}
        with pytest.raises(SpecError, match="unknown hypergroup model"):
            load_experiment_spec({**base, "model": "so3", "scheme": "dirichlet"})
        with pytest.raises(SpecError, match="unknown coefficient scheme"):
            load_experiment_spec({**base, "model": "su2", "scheme": "mystery"})

    def test_rejects_bad_levels(self):
        base = {"format": "zamen-experiment", "version": 1, "model": "su2", "scheme": "dirichlet"}
        with pytest.raises(SpecError, match="nonempty list"):
            load_experiment_spec({**base, "n": []})
        with pytest.raises(SpecError, match="nonnegative integers"):
            load_experiment_spec({**base, "n": [2, -1]})
        with pytest.raises(SpecError, match="nonnegative integers"):
            load_experiment_spec({**base, "n": [2, True]})

    def test_rejects_a_level_whose_character_rows_exceed_the_size_cap(self):
        # The default refined grid has 2N' = 256 panel offsets of 16 nodes, so SU(2) level n holds
        # (n + 1)//256 + 1 blocks of 256 x 16 complex128 three times over, plus 48 (n + 1) bytes of
        # coefficients and 1 KiB of results; 1.6e9 bytes admit n = 1960702 and not one more.
        base = {"format": "zamen-experiment", "version": 1, "model": "su2", "scheme": "dirichlet"}
        assert load_experiment_spec({**base, "n": [1_960_702]})["n"] == [1_960_702]
        with pytest.raises(SpecError, match=r"the levels \(up to n = 1960703, 2 in all\) need 1600133168 bytes"):
            load_experiment_spec({**base, "n": [2, 1_960_703]})
        with pytest.raises(SpecError, match=r"\(up to n = 0, 1 in all\) need 76800001072 bytes for their exponential"):
            load_experiment_spec({**base, "n": [0], "quadrature": {"panels": 25_000_000}})

    def test_rejects_many_copies_of_an_admitted_level(self):
        # Every level keeps its 16 (n + 1) bytes of coefficients for both grids: at n = 1e6 the
        # table and fold products take 786 MB once and each copy of the level 16 MB more.  A level
        # of n = 0 counts 1040 bytes, mostly for its results and row.
        base = {"format": "zamen-experiment", "version": 1, "model": "su2", "scheme": "dirichlet"}
        assert len(load_experiment_spec({**base, "n": [1_000_000] * 49})["n"]) == 49
        with pytest.raises(SpecError, match=r"\(up to n = 1000000, 50 in all\) need 1600199488 bytes"):
            load_experiment_spec({**base, "n": [1_000_000] * 50})
        with pytest.raises(SpecError, match=r"\(up to n = 0, 1538273 in all\)"):
            load_experiment_spec({**base, "n": [0] * 1_538_273})

    def test_rejects_a_refined_grid_above_the_point_cap(self):
        # 2048 panels x 2 x 16 nodes is 2**16 points, the most allowed.
        base = {"format": "zamen-experiment", "version": 1, "model": "su2", "scheme": "dirichlet", "n": [4]}
        assert load_experiment_spec({**base, "quadrature": {"panels": 2048}})["quadrature"] == {"panels": 2048}
        with pytest.raises(SpecError, match="the refined grid has 65538 points, above 65536"):
            load_experiment_spec({**base, "quadrature": {"panels": 1, "nodes_per_panel": 32769}})
        with pytest.raises(SpecError, match="the refined grid has 98304 points, above 65536"):
            load_experiment_spec({**base, "quadrature": {"panels": 2048, "refinement_factor": 3}})

    def test_rejects_a_panel_rule_that_cannot_be_built(self, tmp_path, capsys):
        # leggauss(m) solves an m x m companion matrix: 32 768 nodes in one panel, a grid of
        # 65 536 points, would allocate about 8.6 GB before any level runs.
        base = {"format": "zamen-experiment", "version": 1, "model": "su2", "scheme": "dirichlet", "n": [4]}
        one = {"panels": 1, "refinement_factor": 2}
        assert load_experiment_spec({**base, "quadrature": {**one, "nodes_per_panel": 1024}})
        for nodes in (1025, 32768):
            with pytest.raises(SpecError, match=f"quadrature nodes_per_panel is {nodes}, above 1024"):
                load_experiment_spec({**base, "quadrature": {**one, "nodes_per_panel": nodes}})
        path = tmp_path / "rule.json"
        path.write_text(json.dumps({**base, "quadrature": {**one, "nodes_per_panel": 32768}}))
        assert cli.main(["hypergroup", "run", str(path)]) == 2
        assert "nodes_per_panel is 32768, above 1024" in capsys.readouterr().err


ENTRY_ARRAYS = ("values", "degrees", "class_sizes", "class_reps", "inverse_class")


def entry_path(directory, group):
    return directory / f"{group.content_hash}.table"


def read_entry(path, group):
    arrays = cache._decode(path.read_bytes(), conjugacy_structure(group).num_classes)
    return {name: a.copy() for name, a in arrays.items()}


def write_entry(path, arrays):
    with open(path, "wb") as handle:
        handle.writelines(cache._encode(*arrays.values()))


def truncated(path, good):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def empty(path, good):
    path.write_bytes(b"")


def wrong_magic(path, good):
    path.write_bytes(cache._MAGIC[:-1] + b"\x02" + path.read_bytes()[8:])  # the next format version


def another_k_length(path, good):
    k = len(good["degrees"]) + 1
    data = path.read_bytes()
    path.write_bytes(data + bytes(16 + 16 * k * k + 32 * k - len(data)))


def another_groups_entry(path, good):
    # Well formed, with a valid checksum, but for S3's 3 classes.
    write_entry(path, {name: getattr(character_table(symmetric(3)), name) for name in ENTRY_ARRAYS})


def zero_degree(path, good):
    write_entry(path, {**good, "degrees": np.concatenate([[0], good["degrees"][1:]])})


def permuted_degrees(path, good):
    # Each row keeps its values: only the degree residual max_p |chi_p(e) - d_p| sees it.
    write_entry(path, {**good, "degrees": good["degrees"][::-1].copy()})


def short_payload(path, good):
    write_entry(path, {name: a for name, a in good.items() if name != "degrees"})


def legacy_npz(path, good):
    with open(path, "wb") as handle:
        np.savez(handle, **good)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        group = symmetric(3)
        table1, hit1 = cached_character_table(group, cache_dir=tmp_path)
        assert not hit1
        table2, hit2 = cached_character_table(group, cache_dir=tmp_path)
        assert hit2
        assert np.allclose(table1.values, table2.values, atol=1e-11)

    @pytest.mark.parametrize(
        "make_group",
        [
            lambda: cyclic(1),
            lambda: dihedral(60),
            lambda: direct_product(quaternion_group(), cyclic(40)),
            lambda: cyclic(300),
        ],
        ids=["trivial", "D60", "Q8xZ40", "Z300"],
    )
    def test_round_trip_is_bit_exact(self, tmp_path, make_group):
        table, hit = cached_character_table(make_group(), cache_dir=tmp_path)
        assert not hit
        loaded, hit = cached_character_table(make_group(), cache_dir=tmp_path)
        assert hit
        for name in ENTRY_ARRAYS:
            got, want = getattr(loaded, name), getattr(table, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert loaded.values.tobytes() == table.values.tobytes()
        assert loaded.residual == table.residual
        assert (loaded.group_hash, loaded.order) == (table.group_hash, table.order)

    def test_cache_file_bytes_are_stable(self, tmp_path):
        group = dihedral(4)
        cached_character_table(group, cache_dir=tmp_path)
        path = entry_path(tmp_path, group)
        first, stamp = path.read_bytes(), path.stat().st_mtime_ns
        cached_character_table(group, cache_dir=tmp_path)
        assert path.read_bytes() == first and path.stat().st_mtime_ns == stamp

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        group = symmetric(3)
        cached_character_table(group, cache_dir=tmp_path)
        path = entry_path(tmp_path, group)
        path.write_text("{broken")
        table, hit = cached_character_table(group, cache_dir=tmp_path)
        assert not hit
        assert read_entry(path, group)["class_sizes"].sum() == 6

    @pytest.mark.parametrize(
        "damage",
        [
            truncated,
            empty,
            wrong_magic,
            another_k_length,
            another_groups_entry,
            zero_degree,
            permuted_degrees,
            short_payload,
            legacy_npz,
        ],
        ids=lambda damage: damage.__name__,
    )
    def test_damaged_entry_is_recomputed_and_overwritten(self, tmp_path, damage):
        group = dihedral(6)
        table, _ = cached_character_table(group, cache_dir=tmp_path)
        path = entry_path(tmp_path, group)
        good = read_entry(path, group)
        damage(path, good)
        again, hit = cached_character_table(group, cache_dir=tmp_path)
        assert not hit
        assert np.array_equal(again.values, table.values)
        rewritten = read_entry(path, group)
        assert all(np.array_equal(rewritten[name], good[name]) for name in ENTRY_ARRAYS)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert cached_character_table(group, cache_dir=tmp_path)[1]

    def test_entry_with_random_byte_damage_is_never_trusted_or_fatal(self, tmp_path):
        # A damaged byte in the magic or the stored checksum fails its own check;
        # one in the payload fails the CRC-32, even where the residual would pass.
        group = dihedral(6)
        table, _ = cached_character_table(group, cache_dir=tmp_path)
        path = entry_path(tmp_path, group)
        data = path.read_bytes()
        rng = np.random.default_rng(7)
        for _ in range(300):
            damaged = bytearray(data)
            for at in rng.integers(0, len(data), size=rng.integers(1, 5)):
                damaged[at] = int(rng.integers(0, 256))
            path.write_bytes(bytes(damaged))
            again, _ = cached_character_table(group, cache_dir=tmp_path)
            assert np.array_equal(again.values, table.values) and again.residual <= 1e-9

    def test_checksum_refuses_a_damaged_value_that_the_residual_would_pass(self, tmp_path):
        group = dihedral(6)
        table, _ = cached_character_table(group, cache_dir=tmp_path)
        path = entry_path(tmp_path, group)
        good = path.read_bytes()
        damaged = bytearray(good)
        damaged[16] ^= 0xFF  # the lowest mantissa byte of values[0, 0]
        values = np.frombuffer(bytes(damaged), "<c16", table.values.size, 16).reshape(table.values.shape)
        assert not np.array_equal(values, table.values)
        assert dataclasses.replace(table, values=values).residual <= 1e-9
        path.write_bytes(bytes(damaged))
        again, hit = cached_character_table(group, cache_dir=tmp_path)
        assert not hit and np.array_equal(again.values, table.values)
        assert path.read_bytes() == good

    def test_a_group_given_another_table_is_that_group(self, tmp_path):
        s3 = symmetric(3)
        conjugacy_structure(s3)
        cached_character_table(s3, cache_dir=tmp_path)
        z6 = cyclic(6)
        z6 = dataclasses.replace(s3, identity=z6.identity, columns=z6.columns, label="Z6")
        assert z6.content_hash == cyclic(6).content_hash != s3.content_hash
        assert np.array_equal(z6.tree, cyclic(6).tree) and np.array_equal(z6.table, cyclic(6).table)
        assert conjugacy_structure(z6).num_classes == 6
        table, hit = cached_character_table(z6, cache_dir=tmp_path)
        assert not hit
        assert amenability_constant(table).rational == 1

    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_json_era_entry_is_ignored_and_left_in_place(self, tmp_path, suffix):
        group = symmetric(3)
        table = character_table(group)
        legacy = tmp_path / f"{group.content_hash}{suffix}"
        if suffix == ".json":
            legacy.write_text(stable_json(character_table_payload(table)))
        else:
            np.savez(legacy, **{name: getattr(table, name) for name in ENTRY_ARRAYS})
        before = legacy.read_bytes()
        _, hit = cached_character_table(group, cache_dir=tmp_path)
        assert not hit
        assert entry_path(tmp_path, group).exists()
        assert legacy.read_bytes() == before
        assert cached_character_table(group, cache_dir=tmp_path)[1]

    def test_a_hit_runs_no_specio_or_json_code(self, tmp_path, monkeypatch):
        group = dihedral(6)
        table, _ = cached_character_table(group, cache_dir=tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("called on a cache hit")

        for module, name in [
            (specio, "load_character_table"),
            (specio, "character_table_payload"),
            (specio, "stable_json"),
            (json, "loads"),
            (json, "dumps"),
            (cache, "character_table"),
            (np, "load"),
            (zipfile, "ZipFile"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        loaded, hit = cached_character_table(group, cache_dir=tmp_path)
        assert hit and np.array_equal(loaded.values, table.values)

    def test_hit_carries_the_recomputed_residual(self, tmp_path):
        group = dihedral(8)
        table, _ = cached_character_table(group, cache_dir=tmp_path)
        loaded, hit = cached_character_table(group, cache_dir=tmp_path)
        assert hit
        report = verify_orthogonality(loaded)
        conj = float(np.abs(loaded.values[:, loaded.inverse_class] - np.conj(loaded.values)).max())
        assert loaded.residual == max(table.residual, report.max_residual, conj)
        assert loaded.residual <= 1e-9

    def test_hit_that_misses_the_tolerance_is_recomputed(self, tmp_path):
        group = dihedral(8)
        cached_character_table(group, cache_dir=tmp_path, certification_tol=1e-2)
        path = entry_path(tmp_path, group)
        arrays = read_entry(path, group)
        arrays["values"][-1, 0] += 1e-4  # the stored values now fail 1e-9
        write_entry(path, arrays)
        _, hit = cached_character_table(group, cache_dir=tmp_path, certification_tol=1e-2)
        assert hit
        table, hit = cached_character_table(group, cache_dir=tmp_path)
        assert not hit and table.residual <= 1e-9
        assert cached_character_table(group, cache_dir=tmp_path)[1]

    @pytest.mark.parametrize("inverse_class", [[0, 1, 2], [0, 2]], ids=["wrong", "short"])
    def test_entry_with_foreign_inverse_classes_is_recomputed(self, tmp_path, inverse_class):
        group = cyclic(3)
        cached_character_table(group, cache_dir=tmp_path)
        path = entry_path(tmp_path, group)
        good = read_entry(path, group)
        write_entry(path, {**good, "inverse_class": np.array(inverse_class, dtype=np.int64)})
        table, hit = cached_character_table(group, cache_dir=tmp_path)
        assert not hit
        assert table.inverse_class.tolist() == [0, 2, 1]
        rewritten = read_entry(path, group)
        assert all(np.array_equal(rewritten[name], good[name]) for name in ENTRY_ARRAYS)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("inf"), float("nan")])
    def test_tolerance_that_disables_certification_is_rejected_on_a_hit(self, tmp_path, tol):
        group = symmetric(3)
        cached_character_table(group, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="positive and finite"):
            cached_character_table(group, cache_dir=tmp_path, certification_tol=tol)

    def test_conjugacy_structure_must_come_from_the_same_group(self, tmp_path):
        group = dihedral(6)
        with pytest.raises(ValueError, match="group mismatch"):
            cached_character_table(group, conjugacy_structure(cyclic(12)), cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())
        copy = from_cayley_table(group.table, label="renamed")
        table, hit = cached_character_table(copy, conjugacy_structure(group), cache_dir=tmp_path)
        assert not hit and table.group_hash == group.content_hash

    def test_order_is_the_sum_of_the_class_sizes(self, tmp_path):
        group = symmetric(4)
        cs = conjugacy_structure(group)
        computed, _ = cached_character_table(group, cs, cache_dir=tmp_path)
        cached, hit = cached_character_table(group, cs, cache_dir=tmp_path)
        loaded = load_character_table(character_table_payload(computed), cs)
        tensor = tensor_table(computed, character_table(cyclic(3)))
        assert hit and (computed.order, tensor.order) == (24, 72)
        for table in (computed, cached, loaded, tensor):
            assert table.order == table.class_sizes.sum()
        for table in (computed, cached, loaded):  # each holds the group's own class arrays
            assert table.class_sizes is cs.sizes and table.class_reps is cs.reps
            assert table.inverse_class is cs.inverse_class

    def test_relabeled_group_shares_entry(self, tmp_path):
        a = symmetric(3)
        b = symmetric(3)
        object.__setattr__(b, "label", "renamed")
        cached_character_table(a, cache_dir=tmp_path)
        _, hit = cached_character_table(b, cache_dir=tmp_path)
        assert hit

    def test_env_var_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
        assert resolve_cache_dir() == tmp_path / "envcache"
        assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"
        monkeypatch.delenv(CACHE_ENV_VAR)
        assert resolve_cache_dir().name == ".zamen-cache"
