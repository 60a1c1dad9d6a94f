"""No line of the package source is over 99 characters."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hgsim"
MAX_LINE = 99


def test_no_source_line_is_over_99_characters():
    long = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long == []
