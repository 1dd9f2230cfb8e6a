"""Layout rules that every source and test file keeps."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAX_LINE = 100


def test_no_line_is_longer_than_100_characters():
    long = [f"{path.relative_to(ROOT)}:{i} ({len(line)})"
            for folder in ("src", "tests") for path in sorted((ROOT / folder).rglob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > MAX_LINE]
    assert not long, long
