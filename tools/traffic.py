"""List, per module, the functions of the kslab package that one small run
of every entry point never enters.

Under `sys.setprofile` it runs one small invocation of each CLI subcommand
through `kslab.cli.main`, into a temporary output directory (profile
build, spectral check, simulate and sweep on a short config, verify-bounds
on each suite), then the three workloads of bench/workloads.py at one
seed.  A `def` counts as entered when a call event names its code object.
Code objects are matched to the `def`s of the source by file and qualified
name (`co_qualname`, Python >= 3.11), not by line: a decorated function's
first line is its decorator's.  What is left are names that only the
tests, rarer inputs or error paths reach.

Usage (from the repository root):

    python3 tools/traffic.py [seed, default 7]
"""

import ast
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kslab")

# a short modulated run from perturbed profile data
SHORT_RUN = ("profile.b0 = 8e-3\nsolver.s_max = 2.0\nsolver.lam_stop = 0\n"
             "output.cadence = 5\nperturbation.delta = 1e-4\n")
CLI_RUNS = (["profile", "build", "--b", "1e-4"],
            ["spectral", "check", "--M", "20"],
            ["simulate", "--config", "{config}"],
            ["sweep", "--config", "{config}", "--workers", "1"],
            *(["verify-bounds", "--suite", suite]
              for suite in ("hardy", "loghls", "profiles", "spectral")))


def defs(source):
    """Qualified names of a module's `def`s, spelled as co_qualname."""
    names = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(prefix + child.name)
                walk(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return names


def run_everything(seed, out):
    from kslab import cli
    import workloads

    config = os.path.join(out, "short.cfg")
    with open(config, "w") as fh:
        fh.write(SHORT_RUN)
    for argv in CLI_RUNS:
        argv = [a.format(config=config) for a in argv] + ["--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        print("kslab %s: exit %d" % (" ".join(argv[:-2]), status),
              file=sys.stderr)
    for name, wl in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as outdir:
            wl["run"](wl["setup"](seed), outdir)
        print("workload %s: done" % name, file=sys.stderr)


def main(argv):
    seed = int(argv[1]) if len(argv) > 1 else 7
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as out:
        sys.setprofile(hook)
        try:
            run_everything(seed, out)
        finally:
            sys.setprofile(None)
    entered = {(os.path.realpath(code.co_filename), code.co_qualname)
               for code in seen}
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(PACKAGE, name))
            with open(path) as fh:
                missed = [q for q in defs(fh.read())
                          if (path, q) not in entered]
            total += len(missed)
            print("%-16s %5d" % (name, len(missed)))
            for q in missed:
                print("    " + q)
    print("%-16s %5d" % ("total", total))


if __name__ == "__main__":
    main(sys.argv)
