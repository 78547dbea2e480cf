"""Count the code lines of the kslab package, per module and in total.

A code line is a line that holds at least one Python token other than a
comment or a docstring; blank lines, comment lines and docstring lines do
not count.  A token that spans several lines (a multi-line string or
bracket continuation) counts each line it covers that holds part of it.

Usage (from the repository root):

    python3 tools/code_lines.py [package directory, default src/kslab]
"""

import ast
import io
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers covered by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of code lines in a module's source text."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join("src", "kslab")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                count = code_lines(fh.read())
            total += count
            print("%-16s %5d" % (name, count))
    print("%-16s %5d" % ("total", total))


if __name__ == "__main__":
    main(sys.argv)
