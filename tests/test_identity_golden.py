"""Golden reports of every identity cell and engine choice.

``golden_identity_reports.json`` holds (n_max, engine, status,
counterexample) for every identity, grid cell and engine (each allowed one
and "both"), with n_max = min(30, default) for enum and both and the spec
default for series, plus the CLI output of ``verify I15 --n-max 30`` and of
the n=433 ``map dpk`` example.  It was frozen from the hand-written
checkers that the registry runner replaced; do not re-freeze it to make a
changed program pass.
"""

import json
from pathlib import Path

from partlab import cli, identities

GOLDEN = Path(__file__).with_name("golden_identity_reports.json")

CLI_CASES = {
    "verify I15 --n-max 30": ["verify", "I15", "--n-max", "30"],
    "map dpk": ["map", "dpk", "--p", "3", "--k", "4", "13^10,10^5,7^30,6^2,4^5,1^11"],
}


def current_reports() -> dict[str, list]:
    out = {}
    for spec in identities.list_identities():
        for cell in spec.cells():
            for engine in (*spec.engines, "both"):
                n_max = None if engine == "series" else min(30, spec.enum_n_max)
                r = identities.verify(spec.id, cell, n_max, engine)
                ce = r.counterexample
                key = f"{spec.id}|{identities.format_params(cell)}|{engine}"
                out[key] = [r.n_max, r.engine, r.status,
                            None if ce is None else [ce.n, ce.lhs, ce.rhs]]
    return out


def current_cli(capsys) -> dict[str, list]:
    out = {}
    for name, argv in CLI_CASES.items():
        code = cli.main(argv)
        out[name] = [code, capsys.readouterr().out]
    return out


def test_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())["reports"]
    got = current_reports()
    assert len(golden) == 153
    assert sum(1 for v in golden.values() if v[2] == "fails") == 4
    assert got == golden


def test_cli_output_matches_golden(capsys):
    golden = json.loads(GOLDEN.read_text())["cli"]
    assert current_cli(capsys) == golden
