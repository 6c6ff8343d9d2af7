"""End-to-end tests for the command line interface (in-process)."""

import csv
import json
import shutil
import subprocess
import sys

import pytest

from zamen.cli import CSV_COLUMNS, main
from zamen.groups import cyclic, dihedral, quaternion_group
from zamen.specio import stable_json


def run_cli(*argv):
    return main(list(argv))


class TestGroupInfo:
    def test_s3_text(self, capsys):
        assert run_cli("group", "info", "S3") == 0
        out = capsys.readouterr().out
        assert "order 6, 3 classes, center size 1" in out
        assert "abelian: false" in out

    def test_z6_text(self, capsys):
        assert run_cli("group", "info", "Z6") == 0
        out = capsys.readouterr().out
        assert "order 6, 6 classes, center size 6" in out
        assert "abelian: true" in out

    def test_json_mode(self, capsys):
        assert run_cli("group", "info", "D4", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 8
        assert doc["center_size"] == 2
        assert doc["manifest"]["command"] == "group info"
        assert doc["manifest"]["tool_version"]

    def test_group_spec_file(self, tmp_path, capsys):
        path = tmp_path / "klein.json"
        path.write_text(
            json.dumps(
                {
                    "format": "zamen-group",
                    "version": 1,
                    "kind": "product",
                    "factors": [
                        {"kind": "cayley", "table": [[0, 1], [1, 0]]},
                        {"kind": "cayley", "table": [[0, 1], [1, 0]]},
                    ],
                }
            )
        )
        assert run_cli("group", "info", str(path)) == 0
        assert "order 4, 4 classes" in capsys.readouterr().out

    def test_unknown_name_exits_2(self, capsys):
        assert run_cli("group", "info", "NoSuchGroup") == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert run_cli("group", "info", str(path)) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_invalid_cayley_table_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "format": "zamen-group",
                    "version": 1,
                    "kind": "cayley",
                    "table": [[0, 1], [0, 1]],
                }
            )
        )
        assert run_cli("group", "info", str(path)) == 2
        assert "error:" in capsys.readouterr().err

    def test_memory_error_exits_2(self, monkeypatch, capsys):
        def exhausted(name):
            raise MemoryError()

        monkeypatch.setattr("zamen.cli.zoo_build", exhausted)
        assert run_cli("group", "info", "S3") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err

    def test_product_above_the_cap_exits_2(self, tmp_path, capsys):
        # S7 x S3 has order 30240; the S7 factor builds, the product is refused.
        s7 = {"kind": "perm", "degree": 7, "generators": ["(1 2)", "(1 2 3 4 5 6 7)"]}
        s3 = {"kind": "perm", "degree": 3, "generators": ["(1 2)", "(1 2 3)"]}
        path = tmp_path / "s7xs3.json"
        path.write_text(
            json.dumps({"format": "zamen-group", "version": 1, "kind": "product", "factors": [s7, s3]})
        )
        assert run_cli("group", "info", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "30240" in err
        assert "Traceback" not in err


Z2 = {"kind": "cayley", "table": [[0, 1], [1, 0]]}
MALFORMED_SPECS = {
    "ragged table": {"kind": "cayley", "table": [[0, 1], [1]]},
    "table of non-lists": {"kind": "cayley", "table": [1, 2]},
    "string entries": {"kind": "cayley", "table": [["0", "1"], ["1", "0"]]},
    "float entry": {"kind": "cayley", "table": [[0, 1], [1, 0.5]]},
    "boolean entries": {"kind": "cayley", "table": [[False, True], [True, False]]},
    "entry beyond int64": {"kind": "cayley", "table": [[0, 1], [1, 2**70]]},
    "integer generator": {"kind": "perm", "degree": 2, "generators": [5]},
    "float in a generator": {"kind": "perm", "degree": 3, "generators": [[0, 1, 2.7]]},
    "boolean degree": {"kind": "perm", "degree": True, "generators": ["(1)"]},
    "degree beyond int64": {"kind": "perm", "degree": 2**70, "generators": ["(1 2)"]},
    "cycle point beyond the degree": {"kind": "perm", "degree": 2, "generators": ["(1 10000000000000000)"]},
    "integer action": {"kind": "semidirect", "normal": Z2, "acting": Z2, "action": 5},
    "action of integers": {"kind": "semidirect", "normal": Z2, "acting": Z2, "action": [0, 1]},
}


@pytest.mark.parametrize("body", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS.keys())
def test_malformed_group_spec_exits_2_without_a_traceback(body, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"format": "zamen-group", "version": 1, **body}))
    assert run_cli("group", "info", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


class TestChartable:
    def test_text_output(self, tmp_path, capsys):
        assert run_cli("group", "chartable", "S3", "--cache-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "3 irreducible characters" in out
        assert "degrees: 1 1 2" in out

    def test_cache_round_trip_is_identical(self, tmp_path, capsys):
        args = ("group", "chartable", "D4", "--json", "--cache-dir", str(tmp_path))
        assert run_cli(*args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["manifest"]["result_summary"]["from_cache"] is False
        assert run_cli(*args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["manifest"]["result_summary"]["from_cache"] is True
        first.pop("manifest")
        second.pop("manifest")
        assert stable_json(first) == stable_json(second)

    @pytest.mark.parametrize(
        "factors", [(quaternion_group(), cyclic(40)), (dihedral(10), cyclic(16))], ids=["Q8xZ40", "D10xZ16"]
    )
    def test_export_from_a_hit_equals_the_miss_byte_for_byte(self, tmp_path, capsys, factors):
        # Both tables are good to only about 1e-11, so their 12-decimal export
        # is the same on a hit only because the cache reloads them bit for bit.
        spec = tmp_path / "spec.json"
        factors = [{"kind": "cayley", "table": g.table.tolist()} for g in factors]
        spec.write_text(json.dumps({"format": "zamen-group", "version": 1, "kind": "product", "factors": factors}))
        texts = []
        for from_cache in (False, True):
            assert run_cli("group", "chartable", str(spec), "--json", "--cache-dir", str(tmp_path / "c")) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc.pop("manifest")["result_summary"]["from_cache"] is from_cache
            texts.append(json.dumps(doc, indent=2, sort_keys=True))
        assert texts[0] == texts[1]

    def test_d4_q8_canonical_blocks_identical(self, tmp_path, capsys):
        docs = {}
        for name in ("D4", "Q8"):
            assert run_cli("group", "chartable", name, "--json", "--cache-dir", str(tmp_path)) == 0
            docs[name] = json.loads(capsys.readouterr().out)
        assert stable_json(docs["D4"]["canonical"]) == stable_json(docs["Q8"]["canonical"])
        assert docs["D4"]["group_hash"] != docs["Q8"]["group_hash"]

    def test_failed_certification_exits_1(self, tmp_path, capsys):
        assert run_cli("group", "chartable", "D8", "--tol", "1e-300", "--cache-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "certification residual" in err
        assert "Traceback" not in err

    def test_cached_table_is_held_to_the_callers_tolerance(self, tmp_path, capsys):
        cache = str(tmp_path)
        assert run_cli("group", "chartable", "D8", "--tol", "1e-2", "--cache-dir", cache) == 0
        assert run_cli("group", "chartable", "D8", "--cache-dir", cache) == 0
        assert "(cached)" in capsys.readouterr().out
        assert run_cli("group", "chartable", "D8", "--tol", "1e-300", "--cache-dir", cache) == 1
        captured = capsys.readouterr()
        assert "(cached)" not in captured.out
        assert captured.err.startswith("error:") and "certification residual" in captured.err

    def test_out_file(self, tmp_path):
        out = tmp_path / "table.json"
        assert (
            run_cli(
                "group", "chartable", "Z4", "--json", "--out", str(out), "--cache-dir", str(tmp_path)
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["order"] == 4


S3_SPEC = {"kind": "perm", "degree": 3, "generators": ["(1 2)", "(1 2 3)"], "label": "S3"}
Z2_SPEC = {"kind": "cayley", "table": [[0, 1], [1, 0]]}


@pytest.mark.parametrize(
    "body, code, stream, text",
    [
        ({**S3_SPEC, "label": 5}, 2, "err", "error:"),
        ({**S3_SPEC, "label": ["x"]}, 2, "err", "error:"),
        ({"kind": "product", "factors": [S3_SPEC, {**Z2_SPEC, "label": 2}]}, 2, "err", "error:"),
        ({"kind": "product", "factors": [S3_SPEC, Z2_SPEC], "label": 5}, 2, "err", "error:"),
        ({"kind": "product", "factors": [S3_SPEC, Z2_SPEC], "label": "K"}, 0, "out", "K: order 12, "),
        ({"kind": "product", "factors": [S3_SPEC, Z2_SPEC]}, 0, "out", "S3xG: order 12, "),
        (S3_SPEC, 0, "out", "S3: order 6, "),
    ],
    ids=[
        "integer",
        "list",
        "integer in a factor",
        "integer on a product",
        "product",
        "unlabelled product",
        "perm",
    ],
)
def test_group_spec_labels(body, code, stream, text, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"format": "zamen-group", "version": 1, **body}))
    assert run_cli("group", "info", str(path)) == code
    assert getattr(capsys.readouterr(), stream).startswith(text)


class TestAmconst:
    def test_s3_snaps_to_seven_thirds(self, tmp_path, capsys):
        assert run_cli("group", "amconst", "S3", "--cache-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "7/3" in out
        assert "gap ok" in out

    def test_json_records(self, tmp_path, capsys):
        assert (
            run_cli("group", "amconst", "D4", "Z6", "--json", "--cache-dir", str(tmp_path)) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        by_name = {r["group"]: r for r in doc["results"]}
        assert by_name["D4"]["am_rational"] == "7/4"
        assert by_name["Z6"]["am_rational"] == "1"
        assert by_name["Z6"]["abelian"] is True
        assert all(r["gap_ok"] for r in doc["results"])
        assert doc["manifest"]["result_summary"]["all_gap_ok"] is True

    def test_no_groups_exits_2(self, capsys):
        assert run_cli("group", "amconst") == 2
        assert "at least one group" in capsys.readouterr().err

    def test_groups_and_zoo_together_exit_2(self, capsys):
        assert run_cli("group", "amconst", "Z3", "--zoo") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: give groups or --zoo, not both")


class TestHypergroupRun:
    def make_spec(self, tmp_path, **overrides):
        doc = {
            "format": "zamen-experiment",
            "version": 1,
            "model": "chebyshev",
            "scheme": "fejer",
            "n": [4, 8],
            "quadrature": {"panels": 32, "nodes_per_panel": 8},
        }
        doc.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    def test_csv_output(self, tmp_path):
        spec = self.make_spec(tmp_path)
        out = tmp_path / "rows.csv"
        assert run_cli("hypergroup", "run", str(spec), "--out", str(out)) == 0
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0].keys()) == list(CSV_COLUMNS)
        assert [r["n"] for r in rows] == ["4", "8"]
        assert all(abs(float(r["diagonal_norm"]) - 1.0) < 1e-5 for r in rows)
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
        assert manifest["command"] == "hypergroup run"
        assert manifest["result_summary"]["rows"] == 2

    def test_json_output_mirrors_rows(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path)
        assert run_cli("hypergroup", "run", str(spec), "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in doc["rows"]] == [4, 8]
        assert set(doc["rows"][0]) == set(CSV_COLUMNS)
        assert doc["manifest"]["config"]["spec"]["model"] == "chebyshev"

    def test_parallel_rows_in_input_order(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path, n=[8, 2, 4])
        assert run_cli("hypergroup", "run", str(spec), "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in doc["rows"]] == [8, 2, 4]
        assert "jobs" not in doc["manifest"]["config"]

    def test_unconverged_rows_warn_on_stderr(self, tmp_path, capsys):
        # The default grid does not converge for SU(2) Dirichlet at n = 50.
        spec = self.make_spec(tmp_path, model="su2", scheme="dirichlet", n=[2, 50], quadrature={})
        assert run_cli("hypergroup", "run", str(spec)) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: 1 of 2 rows unconverged\n"
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert [r["diagonal_converged"] for r in rows] == ["True", "False"]

    def test_converged_rows_print_no_warning(self, tmp_path, capsys):
        assert run_cli("hypergroup", "run", str(self.make_spec(tmp_path))) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "quadrature, message",
        [
            ({"panels": 0}, "panels must be an integer >= 1"),
            ({"panels": "abc"}, "panels must be an integer >= 1"),
            ({"panels": True}, "panels must be an integer >= 1"),
            ({"panels": 32.0}, "panels must be an integer >= 1"),
            ({"nodes_per_panel": 0}, "nodes_per_panel must be an integer >= 1"),
            ({"refinement_factor": 0}, "refinement_factor must be an integer >= 2"),
            ({"refinement_factor": 1}, "refinement_factor must be an integer >= 2"),
            ({"tolerance": -1}, "tolerance must be a positive finite number"),
            ({"tolerance": 0}, "tolerance must be a positive finite number"),
            ({"tolerance": float("inf")}, "tolerance must be a positive finite number"),
            ({"tolerance": float("nan")}, "tolerance must be a positive finite number"),
            ({"tolerance": "1e-6"}, "tolerance must be a positive finite number"),
            ({"panel": 32}, "unknown quadrature settings ['panel']"),
        ],
    )
    def test_bad_quadrature_exits_2(self, tmp_path, capsys, quadrature, message):
        spec = self.make_spec(tmp_path, quadrature=quadrature)
        assert run_cli("hypergroup", "run", str(spec)) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_scheme_of_the_other_model_exits_2(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path, model="su2", scheme="fejer")
        assert run_cli("hypergroup", "run", str(spec)) == 2
        assert "specific to the chebyshev model" in capsys.readouterr().err

    def test_su2_rows_include_bound(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path, model="su2", scheme="dirichlet", n=[2])
        assert run_cli("hypergroup", "run", str(spec), "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["lower_bound"] > 0

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path, scheme="mystery")
        assert run_cli("hypergroup", "run", str(spec)) == 2
        assert "unknown coefficient scheme" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run_cli("hypergroup", "run", str(tmp_path / "nope.json")) == 2
        assert "error:" in capsys.readouterr().err


class TestVerifyTz2:
    def test_pass(self, capsys):
        assert run_cli("verify", "tz2") == 0
        out = capsys.readouterr().out
        assert "484 pairs checked, 0 failures" in out
        assert "PASS" in out

    def test_mutated_cross_weight_fails(self, capsys):
        assert run_cli("verify", "tz2", "--cross-weight", "-1") == 1
        out = capsys.readouterr().out
        assert "4 failures" in out
        assert "FAIL" in out

    def test_json_report(self, capsys):
        assert run_cli("verify", "tz2", "--max-mode", "5", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pairs_checked"] == 49
        assert doc["passed"] is True
        assert doc["failures"] == []

    def test_invalid_cross_weight_exits_2(self, capsys):
        assert run_cli("verify", "tz2", "--cross-weight", "abc") == 2
        assert "invalid cross weight" in capsys.readouterr().err


class TestManifest:
    KEYS = {"command", "input_hash", "config", "tool_version", "timestamp", "result_summary"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["group", "info", "S3"],
            ["group", "chartable", "S3", "--cache-dir", "{cache}"],
            ["group", "amconst", "S3", "D4", "--cache-dir", "{cache}"],
            ["hypergroup", "run", "{spec}"],
            ["verify", "tz2", "--max-mode", "3"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_json_embeds_it_and_plain_out_writes_it_beside(self, argv, tmp_path, capsys):
        cache, spec = tmp_path / "cache", tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "format": "zamen-experiment",
                    "version": 1,
                    "model": "chebyshev",
                    "scheme": "fejer",
                    "n": [4],
                    "quadrature": {"panels": 32, "nodes_per_panel": 8},
                }
            )
        )
        argv = [a.format(cache=cache, spec=spec) for a in argv]
        assert run_cli(*argv, "--json") == 0
        manifest = json.loads(capsys.readouterr().out)["manifest"]
        assert set(manifest) == self.KEYS
        assert manifest["command"] == f"{argv[0]} {argv[1]}"

        shutil.rmtree(cache, ignore_errors=True)  # the same cold-cache run, plain
        out = tmp_path / "result.txt"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert capsys.readouterr().out == ""
        sidecar_text = (tmp_path / "result.txt.manifest.json").read_text()
        assert sidecar_text == stable_json(json.loads(sidecar_text)) + "\n"
        sidecar = json.loads(sidecar_text)
        del sidecar["timestamp"], manifest["timestamp"]
        assert sidecar == manifest

    def test_json_out_writes_no_sidecar(self, tmp_path):
        out = tmp_path / "info.json"
        assert run_cli("group", "info", "S3", "--json", "--out", str(out)) == 0
        assert json.loads(out.read_text())["manifest"]["command"] == "group info"
        assert not (tmp_path / "info.json.manifest.json").exists()

    def test_json_documents_are_stable_json_text(self, tmp_path, capsys):
        assert run_cli("group", "amconst", "S3", "D4", "--json", "--cache-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert out == stable_json(json.loads(out)) + "\n"

    def test_default_tolerance_is_recorded(self, tmp_path, capsys):
        argv = ("group", "amconst", "S3", "--json", "--cache-dir", str(tmp_path))
        assert run_cli(*argv) == 0
        assert json.loads(capsys.readouterr().out)["manifest"]["config"]["tol"] == 1e-9


class TestParser:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["group", "amconst", "--zoo", "--jobs", "2"],
            ["hypergroup", "run", "spec.json", "--jobs", "2"],
        ],
    )
    def test_jobs_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chartable", "amconst"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "abc"])
    def test_tolerance_must_be_positive_and_finite(self, command, tol, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["group", command, "D8", "--tol", tol, "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "must be a positive finite number" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_amconst_tiny_tolerance_exits_1(self, tmp_path, capsys):
        assert run_cli("group", "amconst", "D8", "--tol", "1e-300", "--cache-dir", str(tmp_path)) == 1
        assert "certification residual" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["-1", "abc", "2.5"])
    def test_max_mode_must_be_a_nonnegative_integer(self, mode, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "tz2", "--max-mode", mode])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be a nonnegative integer" in err and "Traceback" not in err

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "zamen.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "zamen" in result.stdout
