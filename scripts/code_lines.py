#!/usr/bin/env python3
"""Count the code lines of the mms package: lines that hold a token other
than a comment, and that lie outside every docstring.  Blank lines and
comment-only lines never count.  A docstring is the string expression that
opens a module, class or function body, found with ``ast``; its whole line
span is left out.

    python3 scripts/code_lines.py

Prints the code lines of each module of the ``src/mms`` beside this script,
and their total.  Standard library only.
"""
import ast
import io
import os
import sys
import tokenize

NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
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


def code_lines(path: str) -> int:
    """The number of code lines of one Python file."""
    with open(path, "rb") as fh:
        source = fh.read()
    skip = docstring_lines(ast.parse(source, filename=path))
    code: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main() -> int:
    package = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "mms")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            count = code_lines(os.path.join(package, name))
            total += count
            print(f"{count:6d}  src/mms/{name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
