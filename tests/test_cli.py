import csv
import io
import json

import pytest

from qdissect import cli, theta, verification
from qdissect import combinatorics as comb
from qdissect.verification import CongruenceSpec, check_congruence


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """Exit code and stderr of a run rejected by argparse or by ``main``."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestExpand:
    def test_plain_output(self, capsys):
        code, out, _ = run(capsys, "expand", "--series", "w_t", "--t", "4",
                           "--precision", "8")
        assert code == 0
        assert "3: 20" in out.splitlines()

    def test_json_bigints_are_strings(self, capsys):
        code, out, _ = run(capsys, "expand", "--series", "p",
                           "--precision", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == ["1", "1", "2", "3", "5", "7"]

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "expand", "--series", "f_k", "--k", "1",
                           "--precision", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,coefficient"
        assert lines[1:] == ["0,1", "1,-1", "2,-1"]

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "expand", "--series", "w_t", "--precision", "4")
        assert code == 2
        assert "requires --t" in err

    def test_unknown_series_is_usage_error(self, capsys):
        # the same path and message as sweep, not argparse choices
        code, out, err = run(capsys, "expand", "--series", "bogus")
        assert code == 2
        assert out == ""
        assert "unknown series name 'bogus'" in err

    def test_help_lists_the_series_names(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["expand", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        names = sorted(set(theta.SERIES_NAMES) | {"w_t", "c_t", "phi-neg", "f_k"})
        assert "one of: " + ", ".join(names) in out

    def test_matches_library_directly(self, capsys):
        # the CLI must be a thin adapter: identical numbers to theta.build
        code, out, _ = run(capsys, "expand", "--series", "c_t", "--t", "4",
                           "--precision", "9")
        assert code == 0
        want = [f"{n}: {c}" for n, c in enumerate(theta.build("c", 9, 4).coeffs)]
        assert out.splitlines() == want

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        code, out, _ = run(capsys, "expand", "--series", "d", "--precision", "3",
                           "--output", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == "0: 1\n1: 0\n2: -1\n"

    def test_json_ends_in_one_newline_on_stdout_and_in_a_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        argv = ("expand", "--series", "p", "--precision", "4", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.endswith("}\n") and not out.endswith("\n\n")
        code, printed, _ = run(capsys, *argv, "--output", str(path))
        assert code == 0
        assert printed == ""
        assert path.read_text() == out

    @pytest.mark.parametrize("precision", ["0", "-1"])
    def test_nonpositive_precision_is_usage_error(self, capsys, precision):
        code, err = usage_error(capsys, "expand", "--series", "p",
                                "--precision", precision)
        assert code == 2
        assert "positive integer" in err

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "expand", "--series", "psi", "--precision", "50")
        _, second, _ = run(capsys, "expand", "--series", "psi", "--precision", "50")
        assert first == second


class TestSeriesFlags:
    @pytest.mark.parametrize("command", [
        ("expand",),
        ("sweep", "--a", "5", "--b", "4", "--mod", "5", "--nmax", "5"),
    ], ids=["expand", "sweep"])
    @pytest.mark.parametrize("flags, message", [
        (("--series", "phi", "--t", "3"), "takes no parameter"),
        (("--series", "phi", "--k", "3"), "takes no --k"),
        (("--series", "w", "--t", "3", "--k", "2"), "takes no --k"),
        (("--series", "f_k", "--k", "1", "--t", "2"), "takes no --t"),
    ], ids=["phi-t", "phi-k", "w-k", "f-t"])
    def test_flag_the_series_does_not_take_is_usage_error(self, capsys, command,
                                                          flags, message):
        code, _, err = run(capsys, command[0], *flags, *command[1:])
        assert code == 2
        assert message in err


class TestVerify:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "verify", "--list")
        assert code == 0
        entries = json.loads(out)
        assert len(entries) >= 14
        assert all("id" in e and "description" in e for e in entries)

    def test_single_entry(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "3dis-psi",
                           "--precision", "60")
        assert code == 0
        assert "3dis-psi: pass" in out

    @pytest.mark.parametrize("precision", ["0", "-3"])
    def test_nonpositive_precision_is_usage_error(self, capsys, precision):
        code, err = usage_error(capsys, "verify", "--id", "3dis-psi",
                                "--precision", precision)
        assert code == 2
        assert "positive integer" in err

    def test_unknown_id_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "nope")
        assert code == 2
        assert "nope" in err

    def test_unknown_id_message_is_unquoted(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "nope")
        assert code == 2
        assert err == "error: no identity entry with id 'nope'\n"

    def test_all_entries_build_each_series_once(self, capsys, monkeypatch):
        expanded, expand = [], theta.expand_univariate

        def recording(spec, precision, modulus=None):
            expanded.append((spec, precision, modulus))
            return expand(spec, precision, modulus)

        monkeypatch.setattr(theta, "_BUILD_CACHE", {})
        monkeypatch.setattr(theta, "expand_univariate", recording)
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [(r["id"], r["status"]) for r in rows] == [
            (e.id, "pass") for e in theta.catalog()]
        a1 = theta.series_spec("a1")  # mod 3 in four entries, at up to 8 * 200
        assert [p for s, p, m in expanded if s == a1 and m == 3] == [1600]
        assert theta._BUILD_CACHE[("a1", None, 3)].precision == 1600


class TestSuite:
    def test_low_precision_suite_is_green(self, capsys):
        code, out, _ = run(capsys, "suite", "--precision", "10",
                           "--format", "json")
        assert code == 0
        statuses = {r["status"] for r in json.loads(out)}
        assert statuses <= {"pass", "skipped"}

    def test_filter_plain(self, capsys):
        code, out, _ = run(capsys, "suite", "--precision", "10",
                           "--filter", "mod5", "--format", "plain")
        assert code == 2
        assert out.strip()
        assert all(line.startswith("mod5") for line in out.strip().splitlines())


    @pytest.mark.parametrize("precision", ["0", "-1"])
    def test_nonpositive_precision_is_usage_error(self, capsys, precision):
        code, err = usage_error(capsys, "suite", "--precision", precision)
        assert code == 2
        assert "positive integer" in err

    @pytest.mark.parametrize("argv, needed", [
        (("suite", "--filter", "mod5", "--precision", "10", "--format", "json"), 505),
        (("sweep", "--series", "w", "--t", "1", "--a", "5", "--b", "4", "--mod", "5",
          "--nmax", "10", "--precision", "20"), 55),
    ], ids=["suite", "sweep"])
    def test_run_that_checks_nothing_exits_2(self, capsys, argv, needed):
        code, out, err = run(capsys, *argv)
        assert code == 2
        reports = json.loads(out)
        reports = reports if isinstance(reports, list) else [reports]
        assert {r["status"] for r in reports} == {"skipped"}
        assert f"precision {needed} runs every skipped check" in err

    def test_oracle_checks_below_their_precision_exit_2(self, capsys):
        code, out, err = run(capsys, "suite", "--filter", "oracle", "--precision", "5",
                             "--format", "json")
        assert code == 2
        assert [r["status"] for r in json.loads(out)] == ["skipped"] * 5
        assert "precision 11 runs every skipped check" in err

    def test_filter_matching_nothing_is_usage_error(self, capsys):
        code, out, err = run(capsys, "suite", "--precision", "10",
                             "--filter", "none-such")
        assert code == 2
        assert out == ""
        assert "no suite item matches 'none-such'" in err


class TestTables:
    def test_ranktable_summary(self, capsys):
        code, out, _ = run(capsys, "ranktable", "--family", "V", "--t", "4",
                           "--n", "3")
        assert code == 0
        lines = [line.strip() for line in out.splitlines()]
        for k in range(5):
            assert f"{k},4" in lines
        assert "total,20" in lines
        assert sum("[];[3];[];[];[];[];[]" in line for line in lines) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_each_member_label_rendered_once(self, capsys, monkeypatch, fmt):
        from qdissect import combinatorics as comb
        labelled = []
        star_label = comb.star_label
        monkeypatch.setattr(comb, "star_label",
                            lambda member: labelled.append(member) or star_label(member))
        code, out, _ = run(capsys, "cranktable", "--n", "5", "--format", fmt)
        assert code == 0
        assert len(labelled) == len(set(labelled))
        want = [v.render_components() for v in comb.enumerate_vectors("W2", None, 5)]
        if fmt == "json":
            got = [v["components"] for v in json.loads(out)["vectors"]]
        else:
            got = [row[3] for row in list(csv.reader(io.StringIO(out)))[1:len(want) + 1]]
        assert got == want

    def test_json_is_one_line_with_the_csv_rows_in_order(self, capsys):
        argv = ("ranktable", "--family", "V", "--t", "3", "--n", "5")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out.endswith("\n") and "\n" not in out[:-1]
        got = [[v["components"], str(v["weight"]), str(v["statistic"])]
               for v in json.loads(out)["vectors"]]
        code, table, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(table)))
        want = [row[3:] for row in rows[1:rows.index([])]]
        assert len(want) > 100
        assert got == want

    @pytest.mark.parametrize("argv, family, t", [
        (("ranktable", "--family", "V", "--t", str(t)), "V", t) for t in range(1, 8)
    ] + [(("cranktable", "--modulus", "7"), "W2", 2)])
    def test_json_is_the_dumps_of_the_payload(self, capsys, argv, family, t):
        modulus = 7 if family == "W2" else 5
        for n in range(9):
            code, out, _ = run(capsys, *argv, "--n", str(n), "--format", "json")
            assert code == 0
            dist = comb.statistic_distribution(family, t, n)
            payload = {
                "family": family,
                "t": t,
                "n": n,
                "vectors": [
                    {"components": v.render_components(), "weight": v.weight,
                     "statistic": v.statistic}
                    for v in comb.enumerate_vectors(family, t, n)
                ],
                "residue_classes": {str(k): str(c) for k, c in
                                    enumerate(comb.residue_classes(dist, modulus))},
                "total": str(sum(dist.values())),
            }
            assert out == json.dumps(payload) + "\n", (family, t, n)

    def test_ranktable_requires_t(self, capsys):
        code, _, err = run(capsys, "ranktable", "--family", "V", "--n", "3")
        assert code == 2
        assert "requires --t" in err

    def test_ranktable_rejects_nonpositive_t(self, capsys):
        code, out, err = run(capsys, "ranktable", "--family", "V", "--t", "0",
                             "--n", "3")
        assert code == 2
        assert out == ""
        assert "requires --t" in err

    def test_ranktable_w2_rejects_other_t(self, capsys):
        code, out, err = run(capsys, "ranktable", "--family", "W2", "--t", "3",
                             "--n", "2", "--format", "json")
        assert code == 2
        assert out == ""
        assert "fixes t = 2" in err

    def test_ranktable_guardrail(self, capsys):
        code, _, err = run(capsys, "ranktable", "--family", "V", "--t", "1",
                           "--n", "30")
        assert code == 2
        assert "allow_large" in err

    def test_cranktable_n1(self, capsys):
        code, out, _ = run(capsys, "cranktable", "--n", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        stats = sorted(v["statistic"] for v in payload["vectors"]
                       if v["weight"] == 1)
        assert payload["total"] == "4"
        assert {-2, -1, 1, 2} <= set(stats)


    @pytest.mark.parametrize("argv", [
        ("ranktable", "--family", "V", "--t", "4", "--n", "3", "--modulus", "0"),
        ("ranktable", "--family", "W2", "--n", "3", "--modulus", "-5"),
        ("cranktable", "--n", "2", "--modulus", "0"),
    ])
    def test_nonpositive_modulus_is_usage_error(self, capsys, argv):
        code, err = usage_error(capsys, *argv)
        assert code == 2
        assert "positive integer" in err


class TestSweep:
    def test_passing_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--series", "w", "--t", "2",
                           "--a", "7", "--b", "4", "--mod", "7",
                           "--nmax", "20", "--precision", "200")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_failing_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--series", "w", "--t", "2",
                           "--a", "7", "--b", "3", "--mod", "7",
                           "--nmax", "20", "--precision", "200")
        assert code == 1
        assert json.loads(out)["status"] == "fail"

    def test_aliases_name_the_same_series(self, capsys):
        outputs = []
        for series in ("c", "c_t"):
            code, out, _ = run(capsys, "sweep", "--series", series, "--t", "10",
                               "--a", "5", "--b", "4", "--nmax", "20",
                               "--precision", "200")
            assert code == 0
            outputs.append({k: v for k, v in json.loads(out).items() if k != "millis"})
        assert outputs[0] == outputs[1]

    def test_unknown_series_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--series", "bogus",
                           "--a", "2", "--b", "1", "--nmax", "5")
        assert code == 2
        assert "bogus" in err

    def test_sweep_matches_library(self, capsys):
        code, out, _ = run(capsys, "sweep", "--series", "w", "--t", "2",
                           "--a", "11", "--b", "10", "--mod", "11",
                           "--nmax", "10", "--precision", "200")
        spec = CongruenceSpec("sweep", "w", 2, 11, 10, 11, 10)
        want = check_congruence(spec, 200).to_dict()
        got = json.loads(out)
        got.pop("millis"), want.pop("millis")
        assert got == want


    @pytest.mark.parametrize("flags, message", [
        (("--mod", "0", "--nmax", "5"), "modulus must be >= 2"),
        (("--mod", "7", "--nmax", "-1"), "n_max must be >= 0"),
        (("--mod", "7", "--nmax", "5", "--precision", "0"), "positive integer"),
    ], ids=["mod-0", "nmax-negative", "precision-0"])
    def test_degenerate_spec_is_usage_error(self, capsys, flags, message):
        code, err = usage_error(capsys, "sweep", "--series", "w", "--t", "2",
                                "--a", "7", "--b", "4", *flags)
        assert code == 2
        assert message in err


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ("ranktable", "--family", "V", "--t", "4", "--n", "3", "--format", "json"),
        ("sweep", "--series", "w", "--t", "2", "--a", "7", "--b", "4", "--mod", "7",
         "--nmax", "5", "--precision", "50"),
    ], ids=["ranktable", "sweep"])
    def test_missing_directory_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x"
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: No such file or directory\n"
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv, work", [
        (("ranktable", "--family", "V", "--t", "4", "--n", "3", "--format", "json"),
         (comb, "vector_rows")),
        (("sweep", "--series", "w", "--t", "2", "--a", "7", "--b", "4", "--mod", "7",
          "--nmax", "4000", "--precision", "4000"), (verification, "check_congruence")),
    ], ids=["ranktable", "sweep"])
    @pytest.mark.parametrize("output, reason", [
        ("missing/x", "No such file or directory"),
        ("a-file/x", "Not a directory"),
        ("a-directory", "Is a directory"),
        ("", "No such file or directory"),
    ], ids=["missing", "not-a-directory", "a-directory", "empty"])
    def test_rejected_before_the_work(self, capsys, monkeypatch, tmp_path, argv, work,
                                      output, reason):
        def fail(*args, **kwargs):
            raise AssertionError("the command ran before its output was checked")

        monkeypatch.setattr(*work, fail)
        (tmp_path / "a-file").write_text("kept\n")
        (tmp_path / "a-directory").mkdir()
        path = tmp_path / output if output else ""
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory", "a-file"]
        assert (tmp_path / "a-file").read_text() == "kept\n"
        assert list((tmp_path / "a-directory").iterdir()) == []


class TestEnvironment:
    def test_invalid_env_precision_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_PRECISION, "lots")
        code, _, err = run(capsys, "suite", "--filter", "none-such")
        assert code == 2
        assert cli.ENV_PRECISION in err

    def test_env_precision_applies(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_PRECISION, "50")
        code, out, _ = run(capsys, "sweep", "--series", "w", "--t", "2",
                           "--a", "7", "--b", "4", "--mod", "7", "--nmax", "100")
        assert code == 2
        assert json.loads(out)["status"] == "skipped"

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nonpositive_env_precision_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv(cli.ENV_PRECISION, value)
        code, _, err = run(capsys, "suite", "--filter", "chl")
        assert code == 2
        assert cli.ENV_PRECISION in err

    def test_only_suite_and_sweep_read_env_precision(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_PRECISION, "abc")
        assert run(capsys, "verify", "--id", "key-identity")[:2] == (
            0, "key-identity: pass (N=120)\n")
        code, out, _ = run(capsys, "ranktable", "--t", "1", "--n", "2")
        assert code == 0 and out.startswith("family,t,n,")
        code, out, _ = run(capsys, "suite", "--filter", "chl", "--precision", "2000")
        assert code == 0 and json.loads(out)[0]["status"] == "pass"
