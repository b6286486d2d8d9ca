"""Golden CLI reports: exit codes and --json reports stay byte-identical.

tests/golden/cases.json lists one invocation per case, covering every
subcommand and the exit-1, exit-2 and exit-3 paths.  Each case runs with
"--json -" inside a scratch copy of the golden .grp files; the report must
equal tests/golden/<name>.json byte for byte.  A case without such a file
must print no report at all.
"""

import json
import shutil
from pathlib import Path

import pytest

from relends.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_matches_golden(case, tmp_path, monkeypatch, capsys):
    for grp in GOLDEN.glob("*.grp"):
        shutil.copy(grp, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ENDS_NODE_BUDGET", raising=False)
    code = run(case["argv"] + ["--json", "-"])
    report = capsys.readouterr().out
    golden = GOLDEN / f"{case['name']}.json"
    assert code == case["exit"]
    assert report == (golden.read_text() if golden.exists() else "")
