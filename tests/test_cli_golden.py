"""Replay the recorded CLI calls of tests/data/cli_golden.json and compare
stdout, stderr and the exit code byte for byte. The file is written by
tests/data/make_cli_golden.py; regenerate it only for an intended change of
output."""

import json
from pathlib import Path

from matdecide.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def test_cli_output_matches_the_golden_file(tmp_path, capsys):
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(records) >= 100
    mismatches = []
    for i, rec in enumerate(records):
        for name, text in rec["inputs"].items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = [str(tmp_path / a) if a in rec["inputs"] else a for a in rec["argv"]]
        code = main(argv)
        out, err = capsys.readouterr()
        if (out, err, code) != (rec["stdout"], rec["stderr"], rec["code"]):
            mismatches.append((i, rec["argv"], out, err, code))
    assert not mismatches, mismatches[:3]
