"""Each demo is deterministic: run in-process, its output must match its
golden file byte for byte."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_its_golden_file(capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
    golden = ROOT / "tests" / "golden" / ("demo_%s.txt" % demo.stem)
    assert capsys.readouterr().out == golden.read_text()
