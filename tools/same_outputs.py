"""Check that the working tree writes the same outputs as a git ref.

`kslab ARGS` (any subcommand with its flags, split as a shell would) runs
twice: once from the working tree's `src`, once from a `git archive` of
the ref (HEAD by default) unpacked into a temporary directory, each into
an output root of its own.  The two runs' stderr texts are compared byte
for byte, each with its tree's `src` path written as `<src>` (a warning
or a traceback names its source file), with one verdict line, followed by
both texts when they differ: a refused config or flag writes its reason
there and no file.  Stdout is not compared, since it names the output
paths.  Every file either run writes is compared byte for byte with the
file at the same path under the other root, with one verdict line per
file; a `.json` file that differs is followed by a line naming the dotted
JSON keys whose values differ (or that one side lacks), and a `.csv` file
that differs by a line naming each column that differs with its largest
relative difference.  The exit status is 1 if stderr or any file differs,
or a file is missing on one side, if the two runs exit with different
statuses, or if the runs write neither a file nor stderr; else 0.  For
example:

    python3 tools/same_outputs.py --cli "simulate --config run.cfg"
    python3 tools/same_outputs.py --cli "sweep --config run.cfg --b0 8e-3,1e-2"
    python3 tools/same_outputs.py --cli "profile build --b 1e-3,1e-6"
    python3 tools/same_outputs.py --cli "spectral check --M 20,50"
    python3 tools/same_outputs.py --cli "verify-bounds --suite profiles"
    python3 tools/same_outputs.py --cli "profile build --b 1e-4 --r-max 1e300"

A simulate run writes `timeseries.csv` and `summary.json`; a sweep writes
those of each member and `merged_summary.json`.  Only local git runs;
nothing is fetched.

Usage (from the repository root):

    python3 tools/same_outputs.py [--ref REF] --cli ARGS
"""

import argparse
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpack(ref, dest):
    """The tree of ref, from `git archive`, unpacked into dest."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", ref], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def kslab(tree, argv, out):
    """Exit status and stderr of `kslab argv` with tree's src, writing
    under out; in stderr, the src path reads `<src>`."""
    src = os.path.join(tree, "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("KSLAB_OUT", None)
    run = subprocess.run(
        [sys.executable, "-m", "kslab.cli", "--out", out, *argv], env=env,
        capture_output=True)
    return run.returncode, run.stderr.replace(os.fsencode(src), b"<src>")


def outputs(out):
    """Paths, relative to out, of every file under out."""
    return {os.path.relpath(os.path.join(path, name), out)
            for path, _, names in os.walk(out) for name in names}


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def json_differences(a, b, key=""):
    """Dotted keys at which the parsed JSON values a and b differ: every
    key of one object that the other lacks, and every differing leaf (a
    non-object value, compared by its JSON text, so that NaN equals
    NaN)."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if json.dumps(a) == json.dumps(b) else [key]
    keys = []
    for name in {**a, **b}:
        path = key + "." + name if key else name
        if name in a and name in b:
            keys += json_differences(a[name], b[name], path)
        else:
            keys.append(path)
    return keys


def csv_differences(a, b):
    """'column (largest relative difference)' for each column of the CSV
    texts a and b whose values differ, relative to the larger magnitude of
    each pair (NaN equals NaN; 'inf' where only one side is NaN, 'shape'
    for columns of different lengths); every column of one header that the
    other lacks is named alone."""
    rows_a, rows_b = ([line.split(",") for line in text.decode().split()]
                      for text in (a, b))
    out = []
    for name in rows_a[0] + [c for c in rows_b[0] if c not in rows_a[0]]:
        if name not in rows_a[0] or name not in rows_b[0]:
            out.append(name)
            continue
        x, y = ([float(row[rows[0].index(name)]) for row in rows[1:]]
                for rows in (rows_a, rows_b))
        if len(x) != len(y):
            out.append("%s (shape)" % name)
            continue
        worst = 0.0
        for u, v in zip(x, y):
            if u == v or (math.isnan(u) and math.isnan(v)):
                continue
            # a NaN on one side only is an infinite difference
            worst = max(worst, float("inf") if math.isnan(u - v)
                        else abs(u - v) / max(abs(u), abs(v)))
        if worst:
            out.append("%s (%.3g)" % (name, worst))
    return out


def compare(label, tree_out, ref_out, stderrs):
    """One verdict line for the two runs' stderr texts (tree's, ref's),
    followed by both if they differ, and one per output file of either
    run (`outputs`): same, DIFFERS, or MISSING on one side; True if all
    are the same."""
    found = outputs(tree_out) | outputs(ref_out)
    if not (found or any(stderrs)):
        print("NO OUTPUT %s" % label)
        return False
    ok = stderrs[0] == stderrs[1]
    print("%-9s %s: stderr" % ("same" if ok else "DIFFERS", label))
    if not ok:
        for side, text in zip(("working tree", "ref"), stderrs):
            print("--- %s stderr:\n%s" % (side, text.decode(errors="replace")))
    for rel in sorted(found):
        paths = [os.path.join(root, rel) for root in (tree_out, ref_out)]
        if not all(map(os.path.exists, paths)):
            verdict = "MISSING"
        else:
            verdict = "same" if read(paths[0]) == read(paths[1]) else "DIFFERS"
        ok = ok and verdict == "same"
        print("%-9s %s: %s" % (verdict, label, rel))
        if verdict == "DIFFERS" and rel.endswith(".json"):
            a, b = (json.loads(read(path)) for path in paths)
            print("%-9s %s" % ("", ", ".join(json_differences(a, b))))
        elif verdict == "DIFFERS" and rel.endswith(".csv"):
            print("%-9s %s" % ("", ", ".join(
                csv_differences(*map(read, paths)))))
    return ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--ref", default="HEAD")
    ap.add_argument("--cli", metavar="ARGS", required=True,
                    help="run `kslab ARGS` and compare every file it writes")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        ref_tree = os.path.join(tmp, "ref")
        unpack(args.ref, ref_tree)
        tree_out, ref_out = (os.path.join(tmp, side)
                             for side in ("tree_out", "ref_out"))
        codes, stderrs = zip(*(kslab(tree, shlex.split(args.cli), out)
                               for tree, out in ((ROOT, tree_out),
                                                 (ref_tree, ref_out))))
        ok = codes[0] == codes[1]
        if not ok:
            print("EXIT      %s: %d in the working tree, %d at %s"
                  % (args.cli, codes[0], codes[1], args.ref))
        ok = compare(args.cli, tree_out, ref_out, stderrs) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
