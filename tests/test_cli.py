import json
import os
import subprocess
import sys

import pytest

import partlab
from partlab import bijections, cli, families, identities, qseries
from partlab.enumeration import CAP_ENV_VAR


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_range_forms(capsys):
    code, out, _ = run(capsys, "table", "d_e", "1..8")
    assert code == 0
    assert out.strip().splitlines()[-1] == "8,6"

    code, out, _ = run(capsys, "table", "d_e", "8", "8")
    assert code == 0
    assert out.strip() == "8,6"

    code, out, _ = run(capsys, "table", "a", "1", "1")
    assert code == 0
    assert out.strip() == "1,0"


def test_table_euler_values(capsys):
    code, out, _ = run(capsys, "table", "s", "0..5")
    assert code == 0
    assert [line.split(",")[1] for line in out.strip().splitlines()] == ["1", "1", "2", "3", "5", "7"]


def test_table_series_engine_matches_enum(capsys):
    _, enum_out, _ = run(capsys, "table", "o_p", "0..20", "--p", "3")
    _, series_out, _ = run(capsys, "table", "o_p", "0..20", "--p", "3", "--engine", "series")
    assert enum_out == series_out


def test_table_series_range_builds_one_series(capsys, monkeypatch):
    builds = []
    original = qseries.gf_family

    def counting(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qseries, "gf_family", counting)
    code, out, _ = run(capsys, "table", "s", "195..260", "--engine", "series")
    assert code == 0
    assert len(builds) == 1
    assert out.splitlines() == [f"{n},{families.count_series('s', n)}" for n in range(195, 261)]


def test_table_rejects_order(capsys):
    for engine in ("series", "enum"):
        code, _, err = run(capsys, "table", "d_e", "8", "--engine", engine, "--order", "8")
        assert code == 2
        assert "--order" in err


def test_python_dash_m_entry_point():
    src = os.path.dirname(os.path.dirname(partlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "partlab", "table", "d_e", "8", "8"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "8,6\n"


def test_table_formats(capsys):
    code, out, _ = run(capsys, "table", "d_e", "8", "8", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"n": 8, "value": 6}]
    code, out, _ = run(capsys, "table", "d_e", "8", "8", "--format", "pretty")
    assert code == 0
    assert "8" in out and "6" in out


def test_table_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "table", "f_pkr", "0..15", "--p", "3", "--k", "2", "--r", "1")
    _, second, _ = run(capsys, "table", "f_pkr", "0..15", "--p", "3", "--k", "2", "--r", "1")
    assert first == second


def test_series_dump(capsys):
    argv = ("table", "a_np", "0..12", "--p", "5", "--engine", "series")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "0,0"
    assert rows[5] == "5,1"
    assert len(rows) == 13
    _, again, _ = run(capsys, *argv)
    assert out == again


def test_series_unsupported_family(capsys):
    code, _, err = run(capsys, "table", "d_k", "0..3", "--k", "3", "--engine", "series")
    assert code == 2
    assert "closed-form" in err


def test_series_subcommand_is_gone(capsys):
    # table F 0..N --engine series prints what series F --order N printed.
    code, out, err = run(capsys, "series", "s", "--order", "5")
    assert code == 2
    assert out == ""
    assert "invalid choice: 'series'" in err


@pytest.mark.parametrize("tokens", [["1..2..3"], ["a..b"], ["1", "2", "3"], ["1..2", "3"], ["x"]])
def test_table_rejects_a_malformed_range(capsys, tokens):
    code, out, err = run(capsys, "table", "s", *tokens)
    assert code == 2
    assert out == ""
    assert err == f"error: expected N, N..M or two endpoints, got {tokens!r}\n"


def test_verify_cell(capsys):
    code, out, _ = run(capsys, "verify", "I13", "--p", "3", "--k", "4", "--n-max", "25")
    assert code == 0
    assert "holds" in out


def test_verify_rejects_empty_range(capsys):
    code, _, err = run(capsys, "verify", "I1", "--n-max", "0")
    assert code == 2
    assert "n-max" in err


def test_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        code, _, err = run(capsys, "verify", "I1", "--n-max", "5", "--jobs", jobs)
        assert code == 2
        assert "jobs" in err


def test_verify_past_the_enumeration_cap(capsys, monkeypatch):
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    code, _, err = run(capsys, "verify", "I9", "--n-max", "81")
    assert code == 3
    assert "exceeds the cap 80" in err


def test_verify_i6_skips_cells_past_n_max(capsys):
    code, out, _ = run(capsys, "verify", "I6", "--n-max", "5")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == ["p=5,offset=4", "p=7,offset=5"]
    for argv in (("I6", "--n-max", "3"), ("I6", "--p", "11", "--n-max", "5")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert "checks no n up to n_max" in err
    code, out, _ = run(capsys, "verify", "all", "--n-max", "3")
    assert code == 0
    assert "I6" not in out
    code, _, err = run(capsys, "verify", "all", "--p", "11", "--n-max", "5")
    assert code == 2
    assert "matching {'p': 11} with a checked index up to n_max=5" in err


def test_verify_i15_runs_each_cell_once(capsys, monkeypatch):
    calls = []
    original = identities.verify

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, "verify", counting)
    code, out, _ = run(capsys, "verify", "I15")
    assert code == 0
    assert out.strip().splitlines()[-2:] == ["orientation verdict (p=2): swapped",
                                             "orientation verdict (p=3): swapped"]
    assert len(calls) == 4


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "I99")
    assert code == 2


def test_verify_all_smoke(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n-max", "12")
    assert code == 0
    assert "orientation verdict" in out


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "I16", "--t", "3", "--n-max", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["id"] == "I16" and payload[0]["status"] == "holds"


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "I16", "--t", "3", "--n-max", "12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("id,params,")
    assert lines[1].startswith("I16,t=3,")


def test_map_dpk_worked_example(capsys):
    code, out, _ = run(capsys, "map", "dpk", "--p", "3", "--k", "4",
                       "13^10,10^5,7^30,6^2,4^5,1^11")
    assert code == 0
    assert out.strip().splitlines()[-1] == "21^8,13^10,10^5,7^6,6^2,4^5,1^11"


def test_map_genr_inverse(capsys):
    code, out, _ = run(capsys, "map", "genr", "--p", "3", "--k", "4", "--r", "1",
                       "--inverse", "1^9")
    assert code == 0
    assert out.strip().splitlines()[-1] == "4^2,1"


def test_map_glaisher(capsys):
    code, out, _ = run(capsys, "map", "glaisher", "--t", "2", "4,2")
    assert code == 0
    assert out.strip() == "1^6"
    code, out, _ = run(capsys, "map", "glaisher", "--t", "2", "--inverse", "1^6")
    assert code == 0
    assert out.strip() == "4,2"


def test_map_var0(capsys):
    code, out, _ = run(capsys, "map", "var0", "--r", "0", "4^2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "2^4"


def test_map_json_trace(capsys):
    code, out, _ = run(capsys, "map", "genr", "--p", "3", "--k", "4", "--r", "1",
                       "--inverse", "2,1^7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == "2,1^7"
    assert payload["output"] == "4,2,1^3"
    assert payload["steps"][0]["label"] == "input"


def test_map_exit_codes(capsys):
    code, _, _ = run(capsys, "map", "glaisher", "--t", "2", "4,,2")
    assert code == 2  # parse error
    code, _, _ = run(capsys, "map", "genr", "--p", "3", "--k", "4", "--r", "1", "3,3")
    assert code == 4  # domain violation
    code, _, _ = run(capsys, "map", "genr", "--p", "3", "1^9")
    assert code == 2  # missing parameters


def test_map_lemma_violation_is_an_internal_defect(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise bijections.LemmaViolation("core broke its lemma")

    monkeypatch.setattr(bijections, "_dpk_to_dp_core", broken)
    code, _, err = run(capsys, "map", "dpk", "--p", "3", "--k", "4", "1^12")
    assert code == 4
    assert err.startswith("internal defect:")


def test_table_exit_codes(capsys):
    code, _, _ = run(capsys, "table", "nosuch", "1", "2")
    assert code == 2
    code, _, _ = run(capsys, "table", "a_r", "1", "2", "--p", "2", "--r", "1")
    assert code == 2  # parameters outside the family domain
    code, _, _ = run(capsys, "table", "s", "81", "81")
    assert code == 3  # enumeration cap
    code, _, err = run(capsys, "table", "d_e", "5..3")
    assert (code, err) == (2, "error: bad range 5..3\n")


def test_verify_all_with_params_skips_identities_without_a_matching_cell(capsys):
    code, out, _ = run(capsys, "verify", "all", "--p", "3", "--n-max", "12", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert {r["id"] for r in reports} >= {"I4", "I5", "I7", "I11", "I13", "I14", "I15"}
    assert all(r["params"]["p"] == 3 for r in reports)
    code, _, err = run(capsys, "verify", "all", "--p", "99")
    assert code == 2
    assert "no identity" in err
    # I16 has t = 3 but runs only by enumeration
    code, _, err = run(capsys, "verify", "all", "--t", "3", "--engine", "series")
    assert code == 2
    assert "no identity that runs engine 'series'" in err
    # an explicitly named identity still needs a matching cell
    code, _, err = run(capsys, "verify", "I1", "--p", "3")
    assert code == 2
    assert "I1 has no grid cell" in err


@pytest.mark.parametrize("engine", ["enum", "series"])
def test_table_rejects_max_n(capsys, engine):
    # PARTLAB_MAX_N is the only way to set the enumeration cap.
    code, out, err = run(capsys, "table", "d_e", "0..3", "--engine", engine, "--max-n", "2")
    assert code == 2
    assert out == ""
    assert "--max-n" in err


def test_env_cap_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv(CAP_ENV_VAR, "10")
    code, _, err = run(capsys, "table", "s", "11", "11")
    assert code == 3
    assert "n=11 exceeds the cap 10 (raise it via PARTLAB_MAX_N)" in err
    monkeypatch.setenv(CAP_ENV_VAR, "11")
    code, out, _ = run(capsys, "table", "s", "11", "11")
    assert code == 0
    assert out.strip() == "11,56"


@pytest.mark.parametrize("argv", [
    ("table", "s", "6000", "6000", "--engine", "series"),
    ("table", "s", "0..6000", "--engine", "series"),
    ("verify", "I14", "--engine", "series", "--n-max", "6000"),
])
def test_series_order_bound_exit_code(capsys, monkeypatch, argv):
    monkeypatch.setenv(qseries.MAX_ORDER_ENV_VAR, "5000")
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "order 6000 exceeds the bound 5000" in err


def test_usage_error_exit_code(capsys):
    assert cli.main(["table"]) == 2
    assert cli.main([]) == 2


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "1", "--only", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("criterion 1: PASS")
    assert lines[1].startswith("criterion 2: PASS")


def test_selftest_rejects_an_unknown_criterion(capsys):
    code, out, err = run(capsys, "selftest", "--only", "9")
    assert code == 2 and out == ""
    assert "error: criterion number must be 1..8, got 9" in err


def test_selftest_checks_every_number_before_running_any(capsys):
    code, out, err = run(capsys, "selftest", "--only", "1", "--only", "9")
    assert code == 2 and out == ""
    assert "error: criterion number must be 1..8, got 9" in err


def test_selftest_failing_criterion_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(families, "recurrence_d_e", lambda n: 7)
    code, out, _ = run(capsys, "selftest", "--only", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("criterion 1: FAIL")
    assert lines[1] == "    recurrence at 8 = 7 != 6"


@pytest.mark.parametrize("argv,flag", [
    (["glaisher", "--t", "2", "--p", "3", "4,2"], "p"),
    (["genr", "--p", "3", "--k", "4", "--r", "1", "--t", "2", "4,3,2"], "t"),
    (["dpk", "--p", "2", "--k", "2", "--r", "0", "1^4"], "r"),
    (["var0", "--r", "0", "--p", "5", "4^2"], "p"),
])
def test_map_rejects_a_flag_the_map_does_not_take(capsys, argv, flag):
    code, out, err = run(capsys, "map", *argv)
    assert code == 2 and out == ""
    assert f"unexpected ['{flag}']" in err


def test_map_missing_flag_and_bad_value(capsys):
    code, _, err = run(capsys, "map", "genr", "--p", "3", "1^9")
    assert code == 2 and "missing ['k', 'r']" in err
    # Only parameter names are a usage error; a bad value is a domain error.
    code, _, _ = run(capsys, "map", "var0", "--r", "5", "4")
    assert code == 4


_MAP_PAIRS = [
    (["glaisher", "--t", "2"], "4,2", "1^6"),
    (["genr", "--p", "3", "--k", "4", "--r", "1"], "4,3,2", "3,2,1^4"),
    (["dpk", "--p", "3", "--k", "4"], "13^10,10^5,7^30,6^2,4^5,1^11",
     "21^8,13^10,10^5,7^6,6^2,4^5,1^11"),
    (["var0", "--r", "0"], "4^2", "2^4"),
]


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("flags,source,image", _MAP_PAIRS)
def test_map_json_for_every_map(capsys, flags, source, image, inverse):
    if inverse:
        source, image = image, source
    code, out, _ = run(capsys, "map", *flags, *(["--inverse"] if inverse else []),
                       "--format", "json", source)
    assert code == 0
    payload = json.loads(out)
    assert (payload["input"], payload["output"]) == (source, image)
    assert all(set(step) == {"label", "value"} for step in payload["steps"])


def test_map_glaisher_json_has_no_steps(capsys):
    _, out, _ = run(capsys, "map", "glaisher", "--t", "2", "--format", "json", "4,2")
    assert out.strip() == '{"input": "4,2", "output": "1^6", "steps": []}'


def test_verify_help_lists_every_identity(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    ids = identities.identity_ids()
    assert code == 0 and len(ids) == 17
    assert f"identity id ({', '.join(ids)}) or 'all'" in " ".join(out.split())
