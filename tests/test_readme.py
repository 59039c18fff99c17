"""The README's Python examples run, and print what their comments say.

Every fenced `python` block of README.md runs in order in one namespace,
as a reader pasting them one after another would.  A `# ` comment line
standing alone in a block states a line of that block's output.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
_PYTHON_BLOCK_RE = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)


def test_readme_examples_print_their_comment_lines():
    blocks = _PYTHON_BLOCK_RE.findall(README.read_text(encoding="utf-8"))
    assert blocks
    namespace: dict = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed = out.getvalue().splitlines()
        for line in block.splitlines():
            comment = line.strip()
            if comment.startswith("# "):
                assert comment[2:] in printed, (comment, printed)
