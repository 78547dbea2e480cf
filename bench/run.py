"""kslab benchmark: run one workload from a seed and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload collapse --seed 0 --seconds 15 --trace 0

Workloads: ``collapse``, ``profile_sweep`` and ``spectral`` (see
``bench/NOTES.md``).  The timed section is repeated until ``--seconds`` of
timed work and at least three repeats have run; timings are medians over
the repeats.

``--trace 0`` reports the end-to-end metrics declared in ``BENCHMARK.json``:
``wall_s``, ``cpu_s``, ``setup_s`` (median over fresh processes that import
kslab and build the inputs), ``peak_rss_mb`` and ``throughput``.  ``--trace 1`` also
runs the timed section once with the layer tracer installed, then the
single-call cases, and reports the per-layer metrics.

Every output is checked against ``bench/reference.json``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (machine block, every repeat,
every check, checksums, span summary) is written under ``bench/out/``.

The program under test is imported from ``src/`` of the checkout this file
sits in; without it the script exits with status 2.  BLAS runs on one thread
unless the environment says otherwise (see ``bench/NOTES.md``).
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MIN_REPEATS = 3          # timed repeats per run, even past --seconds
SETUP_SAMPLES = 5        # fresh processes timed for setup_s
SETUP_TIMEOUT_S = 60.0   # per setup process
EXIT_NO_PROGRAM = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["collapse", "profile_sweep", "spectral"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import kslab from this checkout's src/, never from elsewhere."""
    for var in BLAS_THREAD_VARS:   # read by the BLAS when numpy loads it
        os.environ.setdefault(var, "1")
    init = os.path.join(SRC, "kslab", "__init__.py")
    if not os.path.isfile(init):
        print("kslab sources not found at %s" % init, file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path[:0] = [SRC, BENCH]
    import kslab
    if os.path.realpath(kslab.__file__) != os.path.realpath(init):
        print("imported kslab from %s, expected %s" % (kslab.__file__, init),
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    import workloads
    return workloads


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def measure_setup(args):
    """Median time from process start to inputs ready, over fresh processes.

    Each child imports kslab, builds the inputs and prints the system-wide
    monotonic clock; the parent reads the same clock before starting it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("setup process failed:\n" + proc.stderr)
        t_ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        samples.append(t_ready - t0)
    return samples


def run_checked(wl, checksum, inputs, ref, outdir, record):
    """One timed repeat; returns (wall s, CPU s, output or None).

    The repeat's checked operations, errors and checksum go to the record.
    """
    err = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out = wl["run"](inputs, outdir)
    except Exception:  # a failed repeat is counted, not fatal
        out, err = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if err is not None:
        record["errors"].append(err)
        for op in wl["ops"]():
            record["ops"].append({"op": op, "ok": False, "error": True})
        return wall, cpu, None
    for op, checks in wl["check"](out, ref):
        record["ops"].append({"op": op, "ok": all(c["ok"] for c in checks),
                              "checks": checks})
    record["checksums"].append(checksum(out))
    record["outputs"] = {k: v for k, v in out.items() if not k.startswith("_")}
    return wall, cpu, out


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl["setup"](args.seed)
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    main_setup_s = time.perf_counter() - _T_START

    import layers
    import probes
    import provenance
    import tracer

    e2e_spec, layer_spec = declared_metrics()
    with open(os.path.join(BENCH, "reference.json")) as fh:
        ref = json.load(fh)[args.workload]
    outdir = os.path.join(OUT, "%s-seed%d" % (args.workload, args.seed))
    os.makedirs(outdir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": provenance.machine_block(ROOT, args.seed),
              "inputs": {k: v for k, v in inputs.items()
                         if isinstance(v, (list, int, float))},
              "main_setup_s": main_setup_s,
              "ops": [], "errors": [], "checksums": [], "walls": [],
              "cpu": [], "work": []}

    setup_samples = measure_setup(args) if args.trace == 0 else []
    record["setup_samples"] = setup_samples

    leftover = tracer.find_wrappers()
    if leftover:
        raise RuntimeError("tracer wrappers installed before timed runs: %s"
                           % leftover)
    walls, cpus, work = record["walls"], record["cpu"], record["work"]
    while sum(walls) < args.seconds or len(walls) < MIN_REPEATS:
        wall, cpu, out = run_checked(wl, workloads.checksum, inputs, ref,
                                     outdir, record)
        walls.append(wall)
        cpus.append(cpu)
        work.append(wl["work"](out) if out is not None else 0)
        if len(walls) == 1:
            # Later repeats add the grids kslab's level-one cache pins, so
            # the peak would depend on how many repeats fit in --seconds.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall_s = statistics.median(walls)
    if args.trace == 0:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "throughput": statistics.median(
                w / t for w, t in zip(work, walls)),
        }
        spec = e2e_spec
    else:
        trc = tracer.Tracer()
        with trc:
            traced_wall, _, _ = run_checked(wl, workloads.checksum, inputs,
                                            ref, outdir, record)
        record["traced_wall"] = traced_wall
        leftover = tracer.find_wrappers()
        if leftover:
            raise RuntimeError("tracer wrappers left installed: %s" % leftover)
        metrics = layers.layer_metrics(trc, traced_wall, wall_s)
        record["span_summary"] = layers.span_summary(trc)
        metrics.update(probes.single_call_metrics())
        spec = layer_spec

    attempted = len(record["ops"])
    failed = sum(1 for op in record["ops"] if not op["ok"])
    units = {m["name"]: m["unit"] for m in spec}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError("declared metrics not produced: %s" % missing)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    record.update(result)
    record["error_rate"] = failed / attempted
    record["work_unit"] = wl["work_unit"]
    path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    for name, unit in units.items():
        print("%-40s %-16.6g %s" % (name, metrics[name], unit))
    print("%-40s %d/%d  (%d repeats; record: %s)"
          % ("error_rate", failed, attempted, len(walls),
             os.path.relpath(path, ROOT)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
