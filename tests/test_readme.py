"""README's Python examples run as written.

The blocks execute in order in one namespace, and each
`print(...)  # <value>` comment must match what that print writes. In a
value, `...` stands for more digits; a comment that starts with `~` gives
an order of magnitude and is not compared."""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _comments(source: str) -> dict[int, str]:
    """Comment text, without its '#', by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {
        tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT
    }


def _is_print(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "print"
    )


def _pattern(value: str) -> re.Pattern:
    return re.compile(re.escape(value).replace(re.escape("..."), r"\d*"))


def test_readme_examples_print_what_they_state():
    text = README.read_text()
    blocks = list(_BLOCK.finditer(text))
    assert blocks, "README has no python block"
    namespace: dict = {}
    compared = 0
    for block in blocks:
        comments = _comments(block[1])
        # line numbers of the README itself, so a traceback shows the example
        offset = text.count("\n", 0, block.start(1))
        for stmt in ast.parse(block[1]).body:
            value = comments.get(stmt.end_lineno)
            module = ast.increment_lineno(ast.Module([stmt], []), offset)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(module, str(README), "exec"), namespace)
            if _is_print(stmt) and value and not value.startswith("~"):
                printed = out.getvalue().rstrip("\n")
                assert _pattern(value).fullmatch(printed), (value, printed)
                compared += 1
    assert compared, "no README print states its value"
