import re
import shlex
from pathlib import Path

from lanebev.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_readme_states_src_line_count():
    """README's stated size of src/lanebev/ is what `wc -l src/lanebev/*.py` prints."""
    stated = re.findall(r"([\d,]+)\s+lines\s+of\s+Python\s+in\s+`src/lanebev/`",
                        (ROOT / "README.md").read_text())
    actual = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "lanebev").glob("*.py"))
    assert [int(n.replace(",", "")) for n in stated] == [actual]


def test_readme_cli_examples_parse():
    """Every `lanebev ...` line of README's CLI block is a valid command line."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split(" #", 1)[0] for line in block.splitlines()
                if line.startswith("lanebev ")]
    assert commands
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])
