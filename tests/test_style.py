"""Source layout rules that no linter in the test environment checks."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MAX_COLUMNS = 100


def test_every_source_line_fits_in_100_columns():
    long = [f"{path.relative_to(SRC)}:{number}: {len(line)} columns"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert long == []
