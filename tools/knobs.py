"""Count the defaulted parameters of the kslab package, per module and in
total.

A defaulted parameter is a positional or keyword-only parameter that has a
default value, in any `def` or `lambda` of the package (methods and nested
functions included).  Each one is a knob a caller may leave alone or set,
so the count measures how many options the library offers.

Usage (from the repository root):

    python3 tools/knobs.py [package directory, default src/kslab]
"""

import ast
import os
import sys

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def knobs(source):
    """Number of defaulted parameters in a module's source text."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, FUNCTIONS):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join("src", "kslab")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                count = knobs(fh.read())
            total += count
            print("%-16s %5d" % (name, count))
    print("%-16s %5d" % ("total", total))


if __name__ == "__main__":
    main(sys.argv)
