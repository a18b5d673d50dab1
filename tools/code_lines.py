"""Count the code lines of Python modules: lines holding a token, not counting docstrings.

A line counts when a token other than a comment, a newline or an
indentation change starts on it, and that token is not part of a docstring
(the string that opens a module, class or function body). Blank lines,
comment lines and docstrings therefore count nothing, and a statement split
over several lines counts each line that starts a token. This is the count
the roadmap quotes for the package.

    python tools/code_lines.py [path ...]

Each path is a module or a directory, searched for ``*.py``; the default is
``src/earthmover``. Prints one line per module and a total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in the module at ``path``."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source))
    with path.open("rb") as stream:
        starts = {
            token.start[0]
            for token in tokenize.tokenize(stream.readline)
            if token.type not in SKIPPED
        }
    return len(starts - docs)


def main(argv: list) -> int:
    paths = [Path(arg) for arg in argv] or [Path("src/earthmover")]
    modules = []
    for path in paths:
        modules += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for module in modules:
        count = code_lines(module)
        total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
