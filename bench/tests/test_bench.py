"""Tests of the benchmark's own parts: job generation, checker and tracer.

They run small versions of the workload jobs through `dissipent.cli.main`,
so they need the package importable (`PYTHONPATH=src`).
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from dissipent import cli  # noqa: E402

PRESETS = BENCH.parent / "src" / "dissipent" / "presets"


def run_job(job) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(job.argv)) == 0
    return buf.getvalue()


def small_jobs():
    spin = {"delta0": 1.0, "lambda0": 100.0}
    return [
        workloads._sweep("spin-boson", (0.0005, 1.1995, 60), 0.3, "csv", {**spin, "s": 1.0}),
        workloads._sweep("spin-boson", (0.0005, 1.1995, 40), 0.3, "json",
                         {"delta0": 20.0, "lambda0": 100.0, "s": 0.5}),
        workloads._sweep("spin-boson", (0.0005, 1.1995, 40), 0.3, "json", {**spin, "s": 1.5}),
        workloads._sweep("oscillator", (0.0005, 0.5995, 40), 0.3, "csv",
                         {"omega0": 1.0, "omega_c": 100.0}),
        workloads._sweep("free-particle", (0.01, 50.0, 40), 0.3, "json",
                         {"omega_c": 100.0, "length": 100.0}),
        workloads._oracle("oscillator", 2.5, 60, "linear"),
        workloads._oracle("free-particle", 2.5),
    ]


def small_map():
    job = workloads._regime_map(0.5, 0.3)
    job.params["ratio"] = (job.params["ratio"][0], job.params["ratio"][1], 12)
    job.params["alpha"] = (job.params["alpha"][0], job.params["alpha"][1], 12)
    job.argv[job.argv.index("--ratio-points") + 1] = "12"
    job.argv[job.argv.index("--alpha-points") + 1] = "12"
    return job


@pytest.mark.parametrize("job", small_jobs() + [small_map()], ids=lambda j: " ".join(j.argv[:3]))
def test_checker_accepts_program_output(job):
    assert checker.check_job(job, run_job(job)) == []


def _perturb_csv_cell(text: str, column: str, row: int, factor: float) -> str:
    lines = text.splitlines(keepends=True)
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    names = lines[head].strip().split(",")
    cells = lines[head + 1 + row].rstrip("\n").split(",")
    j = names.index(column)
    cells[j] = f"{float(cells[j]) * factor:.12g}"
    lines[head + 1 + row] = ",".join(cells) + "\n"
    return "".join(lines)


def test_checker_rejects_perturbed_ohmic_delta_ren():
    job = small_jobs()[0]
    text = _perturb_csv_cell(run_job(job), "delta_ren", 10, 1.0 + 1e-6)
    problems = checker.check_job(job, text)
    assert problems and problems[0].startswith("delta_ren")


def test_checker_rejects_perturbed_subohmic_delta_ren():
    job = small_jobs()[1]
    doc = json.loads(run_job(job))
    j = doc["columns"].index("delta_ren")
    row = next(r for r in doc["rows"] if r[j] != "nan")
    row[j] = f"{float(row[j]) * (1.0 + 1e-6):.12g}"
    problems = checker.check_job(job, json.dumps(doc))
    assert problems and "residual" in problems[0]


def test_checker_rejects_wrong_regime_label():
    job = small_map()
    lines = run_job(job).splitlines(keepends=True)
    cells = lines[-1].rstrip("\n").split(",")
    cells[1] = "Localized" if cells[1] != "Localized" else "DelocalizedIncoherent"
    lines[-1] = ",".join(cells) + "\n"
    problems = checker.check_job(job, "".join(lines))
    assert problems and problems[0].startswith("regime")


def test_checker_rejects_wrong_oracle_value():
    job = small_jobs()[5]
    text = run_job(job).replace("\nq2,", "\nq2,1", 1)
    assert checker.check_job(job, text)


def test_seed_zero_grids_are_the_preset_grids():
    # localized spans the fig1-spinboson range at fewer points (workloads.py)
    for preset, name, idx, n_points in (
            ("fig1-spinboson", "localized", 0, workloads.LOCALIZED_OHMIC[2]),
            ("fig1-oscillator", "coherent", 2, None),
            ("fig1-oscillator", "oracles", 3, None)):
        doc = json.loads((PRESETS / f"{preset}.json").read_text())
        params = workloads.make(name, 0).jobs[idx].params
        assert (params["alpha_min"], params["alpha_max"], params["n_points"]) == (
            doc["alpha_min"], doc["alpha_max"], n_points or doc["n_points"])
        defaults = checker.SWEEP_DEFAULTS[doc["model"]]
        assert params["model"] == doc["model"]
        assert {**defaults, **params["fixed"]} == {**defaults, **doc["fixed"]}
    regime = next(j for j in workloads.make("localized", 0).jobs if j.kind == "regime-map")
    defaults = vars(cli.build_parser().parse_args(["regime-map", "--s", "0.5"]))
    assert regime.params["ratio"][:2] == (defaults["ratio_min"], defaults["ratio_max"])
    assert regime.params["alpha"][:2] == (defaults["alpha_min"], defaults["alpha_max"])


def test_seed_shifts_grids_by_less_than_one_spacing():
    for name in workloads.WORKLOADS:
        a, b, again = (workloads.make(name, s) for s in (0, 7, 7))
        assert [j.argv for j in b.jobs] == [j.argv for j in again.jobs]
        assert [j.argv for j in a.jobs] != [j.argv for j in b.jobs]
        for ja, jb in zip(a.jobs, b.jobs):
            if ja.kind == "sweep":
                n = ja.params["n_points"]
                h = (ja.params["alpha_max"] - ja.params["alpha_min"]) / (n - 1)
                assert 0 < jb.params["alpha_min"] - ja.params["alpha_min"] < h


def traced_outputs(jobs):
    tracer = Tracer()
    assert tracer.install() == []
    tracer.pass_id = 0
    try:
        outputs = [run_job(j) for j in jobs]
    finally:
        tracer.uninstall()
    return tracer, outputs


def test_traced_output_bytes_match_untraced():
    jobs = small_jobs() + [small_map()]
    plain = [run_job(j) for j in jobs]
    _, traced = traced_outputs(jobs)
    assert traced == plain
    assert cli.main.__module__ == "dissipent.cli" and cli.main.__name__ == "main"


def test_self_times_are_never_negative_and_counts_repeat():
    jobs = small_jobs() + [small_map()]
    points = sum(j.points for j in jobs if j.kind == "regime-map"
                 or j.params.get("model") == "spin-boson")
    runs = [traced_outputs(jobs)[0] for _ in range(2)]
    for tracer in runs:
        assert min(tracer.self_ns().values()) >= 0
    first, second = (t.pass_metrics(0, points) for t in runs)
    for name in ("spinboson.delta_ren.calls", "spinboson.delta_ren.scan_calls",
                 "spinboson.delta_ren.none_calls", "bath.adiabatic_exponent.calls",
                 "oracles.discrete_bath_moments.matrix_dim"):
        assert first[name] == second[name]
    assert first["spinboson.delta_ren.calls"] > 0
    assert first["oracles.discrete_bath_moments.matrix_dim"] == 61
    assert first["oracles.discrete_bath_moments.bytes_computed"] == 8 * 61 * 61
    assert math.isclose(first["spinboson.delta_ren.calls_per_point"],
                        first["spinboson.delta_ren.calls"] / points)
    # spans nest inside cli.main, so only those have no parent
    assert {s.name for s in runs[0].spans if s.parent is None} == {"cli.main"}
