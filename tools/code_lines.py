"""Count the code lines of each module of the g2coflow package.

A code line holds at least one code token. Comments, blank lines and
docstrings (the string that opens a module, class or function) do not
count; a line of a multi-line string that is not a docstring does.

    python tools/code_lines.py [package directory, default src/g2coflow]

prints a header, then the code lines and raw lines of each module, then
their totals.
"""

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of lines of `source` that hold a code token."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/g2coflow")
    total_code = total_raw = 0
    print(f"{'module':12s} {'code':>6s} {'raw':>6s}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        code, raw = code_lines(source), len(source.splitlines())
        total_code, total_raw = total_code + code, total_raw + raw
        print(f"{path.stem:12s} {code:6,d} {raw:6,d}")
    print(f"{'total':12s} {total_code:6,d} {total_raw:6,d}")


if __name__ == "__main__":
    main(sys.argv)
