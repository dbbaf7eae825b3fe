"""One workload process, started by bench/run.py.

    child.py setup <workload> <seed> <size> <workdir>
        times one fresh set-up: ``import liephase`` plus building the
        workload's program objects; prints {"setup_s": ...}.
    child.py run <workload> <seed> <size> <workdir> <seconds> <trace>
        runs one warm-up pass, then timed passes back to back for <seconds>,
        gating every outcome.  Between passes it starts fresh processes for
        the set-up and cold-run samples.  With trace 1 it alternates untraced
        and traced passes and times the layer probes instead.  Prints the
        result as JSON.

The library is imported from the checkout's ``src`` (run.py sets
PYTHONPATH); anything else is refused.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 11  # a tail percentile needs ten samples beyond it
MAX_FAILURES_SHOWN = 5
FRESH_SAMPLES = 10  # fresh-process set-up times and cold CLI runs per untraced run
COLD_SCENARIO = "spacetime_eom"
# End-to-end wall times are reported at the machine speed at which the
# references take this long: each pass is scaled by REFERENCE_S over the
# reference_s() taken before it, each fresh-process sample by
# FRESH_REFERENCE_S over the fresh_reference_s() taken around it
# (bench/README.md, "Machine speed").
REFERENCE_S = 0.02
FRESH_REFERENCE_S = 0.15
PROBE_TIMEOUT_S = 60


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Tally:
    """Work items attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append("; ".join(problems))
        return not problems

    def gate(self, workload, outcomes) -> bool:
        clean = True
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                problems = [f"{workload.name} item {index} raised {outcome!r}"]
            else:
                try:
                    problems = workload.gate(index, outcome)
                except Exception as exc:  # a broken output fails its item
                    problems = [f"{workload.name} item {index}: gate raised {exc!r}"]
            clean = self.add(problems) and clean
        return clean


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop that runs no liephase or numpy code."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(150_000):
        total += i * i % 7
    for i in range(30_000):
        table[i % 1000] = table.get(i % 1000, 0) + i
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - MIN_PASSES if n >= MIN_PASSES else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def probe_us(calls, budget_s: float = 0.04, repeats: int = 5) -> float:
    """Median over repeats of the mean microseconds per call in ``calls``."""
    if not calls:
        return 0.0
    samples = []
    for _ in range(repeats):
        done, start = 0, time.perf_counter()
        while True:
            for fn in calls:
                fn()
            done += len(calls)
            elapsed = time.perf_counter() - start
            if elapsed >= budget_s:
                break
        samples.append(elapsed / done * 1e6)
    return statistics.median(samples)


def probes(workload) -> dict:
    """Time the layers that run inside integrate on the workload's own states."""
    from liephase import algebra, dynamics, observables

    eom, gradient, assembly, obs_grad = [], [], [], []
    for scenario, states in workload.probe_cases():
        specs, mu, n = scenario.system.specs, scenario.system.mu, scenario.system.n_particles
        com_obs = ([observables.com_coordinate(mu, i) for i in (1, 2, 3)]
                   + [observables.com_momentum(n, i) for i in (1, 2, 3)]
                   + [f(mu, a, i) for f in (observables.relative_coordinate,
                                            observables.relative_momentum)
                      for a in range(n) for i in (1, 2, 3)])
        for st in states:
            eom.append(lambda g=scenario, st=st: dynamics.eom_rhs(g, st))
            assembly.append(lambda specs=specs, st=st: algebra.structure_matrix(specs, st))
            gradient += [lambda x=x, pot=scenario.potential: pot.gradient(x) for x in st.x]
            z = st.flatten()
            obs_grad += [lambda o=o, z=z, t=st.t: o.gradient(z, t) for o in com_obs]
    return {
        "dynamics.eom_rhs.us": probe_us(eom),
        "dynamics.potential_gradient.us": probe_us(gradient),
        "algebra.structure_matrix.us": probe_us(assembly),
        "observables.gradient.us": probe_us(obs_grad),
    }


def layer_metrics(workload, spans, traced_passes, plain_p50, traced_p50, output_bytes, probe) -> dict:
    from tracing import summarize

    table = summarize(spans)
    per = lambda name, key: table.get(name, {}).get(key, 0) / traced_passes  # noqa: E731

    def sizes(name):
        return [s[4] for s in spans if s[0] == name]

    steps = per("dynamics.integrate", "size")
    integrate_self = per("dynamics.integrate", "self_s")
    jacobi_n = max(sizes("algebra.jacobi_residual"), default=0)
    com_n = sizes("composition.com_bracket_report")
    passes = table["pass"]
    m = {
        "dynamics.integrate.self_s": (integrate_self, "s"),
        "dynamics.step_us": (integrate_self / steps * 1e6 if steps else 0.0, "us"),
        "dynamics.rk4_steps": (steps, "count"),
        "dynamics.rhs_evals": (4 * steps, "count"),
        "dynamics.wep_deviation.self_s": (per("dynamics.wep_deviation", "self_s"), "s"),
        "dynamics.eom_rhs.us": (probe["dynamics.eom_rhs.us"], "us"),
        "dynamics.potential_gradient.us": (probe["dynamics.potential_gradient.us"], "us"),
        "algebra.structure_matrix.us": (probe["algebra.structure_matrix.us"], "us"),
        "algebra.structure_matrix.bytes": ((6 * workload.max_n) ** 2 * 8, "bytes"),
        "algebra.jacobi_residual.calls": (per("algebra.jacobi_residual", "calls"), "count"),
        "algebra.jacobi_residual.self_s": (per("algebra.jacobi_residual", "self_s"), "s"),
        "algebra.jacobi_residual.deriv_bytes": ((6 * jacobi_n) ** 3 * 8, "bytes"),
        "composition.com_bracket_report.self_s": (per("composition.com_bracket_report", "self_s"), "s"),
        "composition.com_bracket_report.pairs":
            (sum(27 * (1 + n + n * n) for n in com_n) / traced_passes, "count"),
        "composition.reproduction_check.self_s": (per("composition.reproduction_check", "self_s"), "s"),
        "composition.com_relative_coupling.self_s":
            (per("composition.com_relative_coupling", "self_s"), "s"),
        "composition.satisfies_mass_scaling.self_s":
            (per("composition.satisfies_mass_scaling", "self_s"), "s"),
        "composition.effective_parameters.self_s":
            (per("composition.effective_parameters", "self_s"), "s"),
        "observables.gradient.us": (probe["observables.gradient.us"], "us"),
        "observables.gradient.calls": (sum(6 + 6 * n for n in com_n) / traced_passes, "count"),
        "dynamics.write_csv.self_s": (per("dynamics.write_csv", "self_s"), "s"),
        "dynamics.csv_bytes": (output_bytes[0], "bytes"),
        "dynamics.hamiltonian.calls": (per("dynamics.hamiltonian", "calls"), "count"),
        "dynamics.hamiltonian.self_s": (per("dynamics.hamiltonian", "self_s"), "s"),
        "cli.load_scenario.self_s": (per("cli.load_scenario", "self_s"), "s"),
        "cli.run.self_s": (per("cli.run", "self_s"), "s"),
        "cli.report_bytes": (output_bytes[1], "bytes"),
        "dynamics.decoupling_check.self_s": (per("dynamics.decoupling_check", "self_s"), "s"),
        "algebra.bracket.self_s": (per("algebra.bracket", "self_s"), "s"),
        "trace.overhead_s": (traced_p50 - plain_p50, "s"),
        "trace.span_share": (passes["covered_s"] / passes["total_s"], "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def fresh_setup(name: str, seed: int, size: str, workdir: Path) -> float:
    """Set-up time of a fresh process: this file in ``setup`` mode."""
    probe_dir = workdir / "fresh"
    probe_dir.mkdir(exist_ok=True)
    proc = subprocess.run([sys.executable, __file__, "setup", name, str(seed), size, str(probe_dir)],
                          cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def fresh_reference_s() -> float:
    """Wall time of a fresh interpreter that imports numpy and no liephase code."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"reference interpreter exited {proc.returncode}: {proc.stderr[-2000:]}")
    return time.perf_counter() - start


def cold_run(workdir: Path) -> tuple[float, bool]:
    """Wall time of `python -m liephase.cli run <bundled>`, and whether it exited 0."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "liephase.cli", "run", COLD_SCENARIO,
                           "--out", str(workdir / "cold")],
                          cwd=ROOT, capture_output=True, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode == 0


def measure(workload, seconds: float, trace: bool, fresh) -> dict:
    """Warm up, then run passes and fresh samples for ``seconds`` of wall time.

    ``fresh()`` takes one fresh-process sample: (set-up s, cold CLI run s,
    whether the cold run exited 0, fresh reference s).  Untraced runs take
    FRESH_SAMPLES of them spread evenly between the passes, so that they see
    the same machine as the passes do.  Every untraced pass is paired with a
    reference_s() taken before it.
    """
    import workloads
    from tracing import Tracer

    tally = Tally()
    for problems in workload.prepare():
        tally.add(problems)
    tally.gate(workload, workload.run_pass())  # warm-up: caches fill, references recorded

    tracer = Tracer()
    plain, plain_ref, traced, clean_plain, samples = [], [], [], 0, []
    wanted = 0 if trace else FRESH_SAMPLES
    reference_s()  # warm-up
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(samples) < wanted and elapsed >= len(samples) * seconds / wanted:
            samples.append(fresh())
            continue
        enough = min(len(plain), len(traced) if trace else MIN_PASSES) >= MIN_PASSES
        if (elapsed >= seconds and enough) or elapsed >= 4 * seconds + 30:
            break
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            tracer.install(workloads.span_targets(), workloads.SPAN_NAMESPACES)
            tracer.begin("pass")
        else:
            plain_ref.append(reference_s())
        t0 = time.perf_counter()
        outcomes = workload.run_pass()
        t1 = time.perf_counter()
        if use_trace:
            tracer.end()
            tracer.uninstall()
            traced.append(t1 - t0)
        else:
            plain.append(t1 - t0)
        clean = tally.gate(workload, outcomes)
        clean_plain += clean and not use_trace
    samples += [fresh() for _ in range(wanted - len(samples))]
    output_bytes = workload.output_bytes()

    scaled = [t * REFERENCE_S / ref for t, ref in zip(plain, plain_ref)]
    value, percentile, beyond = tail(scaled)
    plain_items_per_s = workload.work_per_pass * clean_plain / sum(plain)
    result = {
        "passes": len(plain),
        "pass_p50_s": statistics.median(scaled),
        "pass_tail_s": value,
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        # the passes' total over the references' total: steadier than the
        # sum of per-pass ratios, where one slow reference weighs a whole pass
        "items_per_s": plain_items_per_s * statistics.fmean(plain_ref) / REFERENCE_S,
        "item": workload.item,
        "reference_p50_s": statistics.median(plain_ref),
        "wall_pass_p50_s": statistics.median(plain),
        "wall_items_per_s": plain_items_per_s,
    }
    if trace:
        traced_p50 = statistics.median(traced)
        result["traced_passes"] = len(traced)
        result["traced_pass_p50_s"] = traced_p50
        result["layers"] = layer_metrics(workload, tracer.spans, len(traced),
                                         result["wall_pass_p50_s"], traced_p50, output_bytes,
                                         probes(workload))
        result["spans"] = tracer.spans
    else:
        for _, _, ok, _ in samples:
            tally.add([] if ok else [f"cold run of {COLD_SCENARIO} failed"])
        result["setup_samples"] = [s * FRESH_REFERENCE_S / ref for s, _, _, ref in samples]
        result["cold_run_samples"] = [c * FRESH_REFERENCE_S / ref for _, c, _, ref in samples]
        result["fresh_reference_p50_s"] = statistics.median(ref for _, _, _, ref in samples)
        result["wall_setup_samples"] = [s for s, _, _, _ in samples]
        result["wall_cold_run_samples"] = [c for _, c, _, _ in samples]
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv: list[str]) -> int:
    mode, name, seed, size, workdir = argv[1], argv[2], int(argv[3]), argv[4], Path(argv[5])
    start = time.perf_counter()
    import liephase

    if not Path(liephase.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"liephase imported from {liephase.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    import workloads

    workload = workloads.WORKLOADS[name](seed, size, workdir)
    workload.setup()
    setup_s = time.perf_counter() - start
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    def fresh():
        before = fresh_reference_s()
        setup_s = fresh_setup(name, seed, size, workdir)
        cold_s, ok = cold_run(workdir)
        return setup_s, cold_s, ok, (before + fresh_reference_s()) / 2

    result = measure(workload, float(argv[6]), argv[7] == "1", fresh)
    result["own_setup_s"] = setup_s
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
