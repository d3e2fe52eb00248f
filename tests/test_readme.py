"""The README's library tour runs as written, so a public name removed or
renamed without a docs update fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, f"{README.name} (library tour)", "exec"), {})
