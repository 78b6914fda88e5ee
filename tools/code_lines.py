"""Count the code lines of ``src/strongopacity``: lines that hold a token
other than a comment, outside docstrings.

Run from the root of a checkout: ``python3 tools/code_lines.py``. Prints one
``<count> <module>`` line per module and then ``<total> total``.
"""

import ast
import glob
import io
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return len({t.start[0] for t in tokens if t.type not in SKIP} - docs)


def main() -> None:
    total = 0
    for path in sorted(glob.glob("src/strongopacity/*.py")):
        with open(path, encoding="utf-8") as handle:
            count = code_lines(handle.read())
        total += count
        print(f"{count} {path}")
    print(f"{total} total")


if __name__ == "__main__":
    main()
