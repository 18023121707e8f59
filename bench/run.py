"""Benchmark driver for the dissipent CLI and library.

    python3 bench/run.py --workload coherent --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is loaded from the
checkout's `src/`.  With `--trace 0` it measures the end-to-end metrics:

  setup_s      median cold `import dissipent` in a fresh interpreter
  wall_s       mean cold pass: every job a fresh `python -m dissipent.cli`
  compute_s    mean warm pass: every job through `dissipent.cli.main(argv)`
               in this already-imported process
  peak_rss_mb  median over cold passes of the largest job ru_maxrss

With `--trace 1` it alternates untraced and traced warm passes and reports
the per-layer metrics of the traced passes (see tracer.py).  Every job's
output is checked by checker.py.  The last line of standard output is one
JSON object; a full record, with sample counts, the environment and every
pass, goes to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.metadata
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_IMPORTS = 3  # fewest timed cold imports per run, after one untimed warm-up
# shares of an untraced run's time; the imports timed for setup_s need the least
COLD_SHARE, WARM_SHARE, SETUP_SHARE = 0.45, 0.45, 0.1
TRACED_PASSES = 5  # most traced passes per run; their spans stay in memory
IMPORT_PROBE = ("import time; t = time.perf_counter(); import dissipent; "
                "print(repr(time.perf_counter() - t))")


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _calibration_s() -> float:
    """A fixed pure-Python loop; its time tracks how busy the machine is."""
    t = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def summary(samples: list) -> dict:
    """Median, mean and quartiles with the sample count; with more than 20
    samples also the highest percentile that has ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs), "mean": statistics.fmean(xs),
           "min": xs[0], "max": xs[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
    if n > 20:
        p = (100 * (n - 10)) // n
        out[f"p{p}"] = xs[math.ceil(p * n / 100) - 1]  # nearest rank
    return out


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        self.checked: dict = {}  # (job index, output) -> problems
        self.failures: list = []
        self.attempted = 0
        self.passes: list = []
        self.cli = None

    def __enter__(self):
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py"), str(RESULTS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8")
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def _spawn(self, args: list) -> dict:
        """Run a fresh interpreter through the spawner; returns seconds from
        spawn to exit, exit code, stdout, stderr and ru_maxrss in MB."""
        req = {"args": args, "cwd": str(ROOT), "env": self.env}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise SystemExit("bench: the spawner process died")
        return json.loads(line)

    def import_once(self) -> float:
        """Seconds a fresh interpreter spends in `import dissipent`."""
        rep = self._spawn(["-c", IMPORT_PROBE])
        if rep["rc"] != 0:
            raise SystemExit(f"bench: `import dissipent` failed: {rep['err'][-300:]}")
        return float(rep["out"])

    def _record(self, idx: int, rc, text: str, where: str, err: str = "") -> bool:
        self.attempted += 1
        job = self.wl.jobs[idx]
        if rc != 0:
            problems = [f"exit code {rc}: {err.strip()[-300:]}"]
        else:
            key = (idx, text)
            if key not in self.checked:
                self.checked[key] = checker.check_job(job, text)
            problems = self.checked[key]
        if problems:
            self.failures.append({"pass": where, "argv": job.argv, "problems": problems})
        return not problems

    def cold_pass(self) -> dict:
        jobs = []
        for idx, job in enumerate(self.wl.jobs):
            rep = self._spawn(["-m", "dissipent.cli", *job.argv])
            ok = self._record(idx, rep["rc"], rep["out"], "cold", rep["err"])
            jobs.append({"s": rep["s"], "rss_mb": rep["rss_mb"], "rc": rep["rc"], "ok": ok,
                         "bytes": len(rep["out"].encode("utf-8"))})
        return self._pass("cold", jobs)

    def warm_pass(self, kind: str = "warm") -> dict:
        if self.cli is None:
            sys.path.insert(0, str(SRC))
            import dissipent.cli as cli

            self.cli = cli
        jobs, outputs = [], []
        for idx, job in enumerate(self.wl.jobs):
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli.main(list(job.argv))
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code
            except Exception:  # a crash fails this job; the run goes on
                rc = traceback.format_exc()
            dt = time.perf_counter() - t0
            text = buf.getvalue()
            ok = self._record(idx, rc, text, kind, rc if isinstance(rc, str) else "")
            jobs.append({"s": dt, "rc": rc if isinstance(rc, int) else 1, "ok": ok,
                         "bytes": len(text.encode("utf-8"))})
            outputs.append(text)
        rec = self._pass(kind, jobs)
        rec["outputs"] = outputs
        return rec

    def _pass(self, kind: str, jobs: list) -> dict:
        rec = {"kind": kind, "s": sum(j["s"] for j in jobs), "jobs": jobs}
        self.passes.append(rec)
        return rec


def schedule(kinds: dict, deadline: float, limits: dict | None = None) -> None:
    """Run passes of each kind, `kinds` mapping a name to (pass function,
    share of the time), until no kind's next pass would end before the
    deadline.  The kind furthest below its share of the time so far runs
    next, so the kinds interleave and each one's samples are spread over
    the whole run.  Every kind runs at least once, and no kind more often
    than its limit."""
    spent = {k: 0.0 for k in kinds}
    last = {k: None for k in kinds}
    count = {k: 0 for k in kinds}
    limits = limits or {}
    while True:
        now = time.perf_counter()
        fits = [k for k in kinds
                if last[k] is None or (now + last[k] <= deadline
                                       and count[k] < limits.get(k, math.inf))]
        if not fits:
            return
        pick = min(fits, key=lambda k: spent[k] / kinds[k][1])
        t0 = time.perf_counter()
        kinds[pick][0]()
        last[pick] = time.perf_counter() - t0
        spent[pick] += last[pick]
        count[pick] += 1


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def untraced_run(run: Runner, seconds: float, samples: dict) -> dict:
    deadline = time.perf_counter() + seconds
    run.import_once()  # untimed: warms the file and bytecode caches
    setup = []
    schedule({"cold": (run.cold_pass, COLD_SHARE), "warm": (run.warm_pass, WARM_SHARE),
              "setup": (lambda: setup.append(run.import_once()), SETUP_SHARE)}, deadline)
    while len(setup) < SETUP_IMPORTS:
        setup.append(run.import_once())
    cold = [p for p in run.passes if p["kind"] == "cold"]
    warm = [p for p in run.passes if p["kind"] == "warm"]
    rss = [max(j["rss_mb"] for j in p["jobs"]) for p in cold]
    samples.update(setup_s=summary(setup), wall_s=summary([p["s"] for p in cold]),
                   compute_s=summary([p["s"] for p in warm]), peak_rss_mb=summary(rss))
    # pass times are means: on a shared host the same code can run at two
    # speeds in spells of seconds, and the mean moves with the share of the
    # run spent at each, where the median jumps from one to the other
    return {"wall_s": samples["wall_s"]["mean"], "compute_s": samples["compute_s"]["mean"],
            "setup_s": samples["setup_s"]["median"],
            "peak_rss_mb": samples["peak_rss_mb"]["median"]}


def traced_run(run: Runner, seconds: float, samples: dict) -> tuple:
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    reference = run.warm_pass("warm")["outputs"]  # also imports the package
    missing = tracer.install()
    tracer.uninstall()
    if missing:
        raise SystemExit(f"bench: traced functions not found: {', '.join(missing)}")

    def traced():
        tracer.pass_id = len(run.passes)
        tracer.install()
        try:
            rec = run.warm_pass("traced")
        finally:
            tracer.uninstall()
        for job, got, want in zip(run.wl.jobs, rec["outputs"], reference):
            if got != want:
                run.failures.append({"pass": "traced", "argv": job.argv,
                                     "problems": ["traced output bytes differ from untraced"]})
        rec["pass_id"] = tracer.pass_id

    schedule({"traced": (traced, 0.5), "warm": (lambda: run.warm_pass("warm"), 0.5)}, deadline,
             {"traced": TRACED_PASSES})
    traced_passes = [p for p in run.passes if p["kind"] == "traced"]
    untraced = [p["s"] for p in run.passes if p["kind"] == "warm"]
    per_pass = [tracer.pass_metrics(p["pass_id"], run.wl.spin_boson_points)
                for p in traced_passes]
    metrics = {}
    for name in per_pass[0]:
        vals = [m[name] for m in per_pass]
        # counts repeat from pass to pass; median_low keeps them whole
        metrics[name] = (statistics.median_low(vals) if isinstance(vals[0], int)
                         else statistics.median(vals))
        samples[name] = summary(vals)
    metrics["sweep.bytes_out"] = sum(j["bytes"] for j in traced_passes[0]["jobs"])
    traced_s = [p["s"] for p in traced_passes]
    samples["traced_pass_s"] = summary(traced_s)
    samples["untraced_pass_s"] = summary(untraced)
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced) - 1
    samples["trace.overhead_frac"] = {"n": len(traced_s), "n_untraced": len(untraced)}
    return metrics, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dissipent" / "cli.py").is_file():
        print(f"bench: no package source at {SRC / 'dissipent'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    RESULTS.mkdir(exist_ok=True)

    wl = workloads.make(args.workload, args.seed)
    for job in wl.jobs:  # dense oracle references, before anything is timed
        if job.kind == "oracle":
            checker.oracle_reference(job.params)
    record = {"workload": wl.name, "seed": wl.seed, "seconds": args.seconds,
              "trace": args.trace, "jobs": [j.argv for j in wl.jobs],
              "points_per_pass": wl.points, "modes_per_pass": wl.modes,
              "env": environment(), "load_start": os.getloadavg(),
              "calibration_start_s": _calibration_s()}
    samples: dict = {}
    tag = f"{wl.name}-seed{wl.seed}-trace{args.trace}"
    with Runner(wl) as run:
        if args.trace:
            metrics, tracer = traced_run(run, args.seconds, samples)
            tracer.write(RESULTS / f"{tag}-spans.jsonl")
        else:
            metrics = untraced_run(run, args.seconds, samples)
    record.update(load_end=os.getloadavg(), calibration_end_s=_calibration_s())

    failed = len(run.failures)
    units = {m["name"]: m["unit"] for m in wanted}
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    for p in run.passes:
        p.pop("outputs", None)
    record.update(result=result, failed_frac=failed / run.attempted, failures=run.failures,
                  samples=samples, all_metrics=metrics, passes=run.passes)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                         encoding="utf-8")

    print(f"# {wl.name} seed {wl.seed}: {len(wl.jobs)} jobs, {wl.points} points and "
          f"{wl.modes} modes per pass; load {record['load_start'][0]:.2f} -> "
          f"{record['load_end'][0]:.2f}")
    for name, unit in units.items():
        n = samples.get(name, {}).get("n", 1)
        print(f"{wl.name} {name} = {metrics[name]:.6g} {unit} (n={n})")
    print(f"{wl.name} failed_frac = {failed / run.attempted:.6g} ({failed}/{run.attempted} jobs)")
    for f in run.failures[:5]:
        print(f"# FAILED {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
