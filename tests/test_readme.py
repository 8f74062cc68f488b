import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_states_src_line_count():
    """README's stated size of src/lanebev/ is what `wc -l src/lanebev/*.py` prints."""
    stated = re.findall(r"([\d,]+)\s+lines\s+of\s+Python\s+in\s+`src/lanebev/`",
                        (ROOT / "README.md").read_text())
    actual = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "lanebev").glob("*.py"))
    assert [int(n.replace(",", "")) for n in stated] == [actual]
