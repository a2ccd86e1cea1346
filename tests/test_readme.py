"""The README's Python examples run as written.

Every ```python block of README.md runs in order in one namespace, as a
reader pasting them into one interpreter would, so an example cannot keep a
removed argument or name.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)
