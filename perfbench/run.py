"""End-to-end benchmark of the contagion-lab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's inputs are made
from ``--seed`` by ``inputs.py``; then whole rounds of the workload's CLI
commands run for about ``--seconds``, one fresh ``python3 -m
contagion_lab.cli`` process per command and one command at a time. Every
output is checked by ``checks.py`` after the timed rounds. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
rounds). With ``--trace 1``, untraced rounds alternate with rounds whose
commands run under ``tracing.py``, and the metrics are the per-layer ones
(medians over the traced rounds) plus the tracing overhead.

``--workload all`` runs every workload in turn and prints one JSON line
for each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

# Child processes, and the checks in this one, use one BLAS/OpenMP thread:
# the box has 2 CPUs and the load is one command at a time.
ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(ONE_THREAD)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

SETUP_PROBES = 3         # fresh interpreters timed per run for setup_s
BUDGET_S = 120.0         # no round starts after this; a run must end in 180 s
KILL_AFTER_S = 175.0     # a CLI process still running then is killed (and fails)
RHO = 0.05               # the CLI's default fixed interbank ratio
EPSILON = 1.0            # the CLI's default edge threshold (millions)
YEARS = inputs.YEARS


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload, with how to check what it wrote."""

    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]
    networks: int = 0          # bank networks it evaluates
    replicates: int = 0        # bootstrap networks (B + 1)
    draws: int = 0             # placebo networks (draws + 1)


# --- workloads -------------------------------------------------------------------

def _bootstrap(panel_csv: Path, assets, B: int, seed: int, epsilon: float,
               extra: tuple = ()) -> Command:
    argv = ("bootstrap", "--input", str(panel_csv), "--year", str(YEARS[-1]),
            "-B", str(B), "--seed", str(seed), *extra)
    return Command(argv, partial(checks.check_bootstrap, assets=assets, rho=RHO,
                                 epsilon=epsilon, B=B, seed=seed, recompute=(0, 1, B - 1)),
                   networks=B + 1, replicates=B + 1)


def session_n70(d: Path, seed: int) -> list[Command]:
    n, draws, steps = 70, 1000, 10
    panel_csv, x_csv, fit_csv, groups_csv = (d / "panel.csv", d / "exposures.csv",
                                             d / "fit.csv", d / "groups.csv")
    inputs.write_panel(panel_csv, n, seed)
    inputs.write_exposures(x_csv, n, seed)
    inputs.write_fit_sample(fit_csv, 400, seed)
    inputs.write_permute_groups(groups_csv, 6, 8, seed)
    panel = inputs.panel_assets(n, seed)
    rhos = np.linspace(0.01, 0.10, steps)
    group_a, group_b = inputs.permute_groups(6, 8, seed)
    return [
        Command(("analyze", "--input", str(panel_csv), "--eigenvalues-csv"),
                partial(checks.check_analyze, panel=panel, rho=RHO, epsilon=EPSILON,
                        D=1.0, kappa=0.0, betweenness_year=YEARS[0]),
                networks=len(YEARS)),
        Command(("sweep", "--input", str(panel_csv), "--sweep-min", "0.01",
                 "--sweep-max", "0.10", "--sweep-steps", str(steps), "--epsilon", "0"),
                partial(checks.check_sweep, panel=panel, rhos=rhos, epsilon=0.0),
                networks=steps * len(YEARS)),
        _bootstrap(panel_csv, panel[YEARS[-1]], 100, seed, EPSILON),
        Command(("did", "--input", str(panel_csv), "--base-year", str(YEARS[0]),
                 "--quantile", str(inputs.TREAT_QUANTILE)),
                partial(checks.check_did, panel=panel, ids=inputs.bank_ids(n),
                        base_year=YEARS[0], quantile=inputs.TREAT_QUANTILE)),
        Command(("placebo", "--input", str(x_csv), "--n-draws", str(draws),
                 "--seed", str(seed)),
                partial(checks.check_placebo, X=inputs.exposure_matrix(n, seed),
                        epsilon=EPSILON, n_draws=draws),
                networks=draws + 1, draws=draws + 1),
        Command(("fit", "--input", str(fit_csv), "--column", "value", "--scan-xmin"),
                partial(checks.check_fit, sample=inputs.fit_sample(400, seed))),
        Command(("permute", "--input", str(groups_csv), "--seed", str(seed)),
                partial(checks.check_permute, a=group_a, b=group_b)),
    ]


def bootstrap_complete_n300(d: Path, seed: int) -> list[Command]:
    panel_csv = d / "panel.csv"
    inputs.write_panel(panel_csv, 300, seed)
    assets = inputs.panel_assets(300, seed)[YEARS[-1]]
    return [_bootstrap(panel_csv, assets, 100, seed, 0.0, ("--epsilon", "0"))]


SPARSE_EPSILON = 30.0    # keeps ~6% of the n=1000 max-entropy pairs


def bootstrap_sparse_n1000(d: Path, seed: int) -> list[Command]:
    panel_csv = d / "panel.csv"
    inputs.write_panel(panel_csv, 1000, seed)
    assets = inputs.panel_assets(1000, seed)[YEARS[-1]]
    return [_bootstrap(panel_csv, assets, 50, seed, SPARSE_EPSILON,
                       ("--epsilon", repr(SPARSE_EPSILON)))]


#: Each builder writes a workload's inputs for a seed and returns its commands.
#: Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[Path, int], list[Command]]] = {
    "session-n70": session_n70,
    "bootstrap-complete-n300": bootstrap_complete_n300,
    "bootstrap-sparse-n1000": bootstrap_sparse_n1000,
}


# --- running children -------------------------------------------------------------

@dataclass
class Child:
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    code: int


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))   # carries ONE_THREAD too


def run_child(argv: list[str], env: dict, log: Path, timeout: float) -> Child:
    """Run one process to its end; its own CPU and peak RSS come from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


@dataclass
class Round:
    out: Path
    traced: bool
    children: list[Child] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.children[-1].end - self.children[0].start


def run_round(commands: list[Command], out: Path, env: dict, traced: bool,
              deadline: float) -> Round:
    out.mkdir(parents=True)
    rnd = Round(out, traced)
    for i, cmd in enumerate(commands):
        if traced:
            prog = [str(HERE / "tracing.py"), str(out / f"trace{i}.json")]
        else:
            prog = ["-m", "contagion_lab.cli"]
        argv = [sys.executable, *prog, *cmd.argv, "--output-dir", str(out)]
        rnd.children.append(run_child(argv, env, out / f"log{i}.txt",
                                      deadline - time.perf_counter()))
    return rnd


def import_time(env: dict, log: Path, deadline: float) -> float:
    """Time for a fresh interpreter to start and import the CLI."""
    c = run_child([sys.executable, "-c", "import contagion_lab.cli"], env, log,
                  deadline - time.perf_counter())
    if c.code != 0:
        print(f"error: `import contagion_lab.cli` failed:\n"
              f"{log.read_text(errors='replace')[-2000:]}", file=sys.stderr)
        raise SystemExit(2)
    return c.end - c.start


# --- checking ----------------------------------------------------------------------

def verify(rounds: list[Round], commands: list[Command]) -> tuple[int, bool, list[str]]:
    """Failed operations, whether every command that exited 0 was right, and
    the problems found. Every round's outputs are checked on their own."""
    failed, correct, problems = 0, True, []
    for rnd in rounds:
        for i, cmd in enumerate(commands):
            if rnd.children[i].code != 0:
                failed += 1
                log = (rnd.out / f"log{i}.txt").read_text(errors="replace")
                problems.append(f"{cmd.argv[0]} exited {rnd.children[i].code}: {log[-600:]}")
                continue
            try:
                verdict = cmd.check(rnd.out)
            except (OSError, ValueError, LookupError, TypeError, ArithmeticError) as exc:
                verdict = [f"{cmd.argv[0]}: unreadable output ({exc!r})"]
            if verdict:
                failed += 1
                correct = False
                problems.extend(verdict)
    return failed, correct, problems


# --- metrics -----------------------------------------------------------------------

def end_to_end(rounds: list[Round], setup: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": (med(r.wall_s for r in rounds), "s"),
        "setup_s": (med(setup), "s"),
        "cpu_s": (med(sum(c.cpu_s for c in r.children) for r in rounds), "s"),
        "peak_rss_mb": (med(max(c.rss_mb for c in r.children) for r in rounds), "MB"),
    }


def per_layer(rounds: list[Round], commands: list[Command]) -> dict:
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    networks = sum(c.networks for c in commands)
    replicates = sum(c.replicates for c in commands)
    draws = sum(c.draws for c in commands)
    per_round = []
    for rnd in traced:
        traces = []
        for i in range(len(commands)):
            with open(rnd.out / f"trace{i}.json", "r", encoding="utf-8") as fh:
                traces.append(json.load(fh))
        ratio = 0.0   # B_effective / B, 0 without a bootstrap command
        if replicates and (rnd.out / "bootstrap.json").is_file():
            boot = checks.results(rnd.out / "bootstrap.json")
            ratio = boot["B_effective"] / boot["B"]
        per_round.append(tracing.layer_metrics(traces, networks, replicates, draws, ratio))
    metrics = {name: (statistics.median(m[name] for m in per_round), unit)
               for name, unit in tracing.UNITS.items() if name in per_round[0]}
    overhead = statistics.median(r.wall_s for r in traced) - \
        statistics.median(r.wall_s for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


# --- main ----------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    deadline = t_start + BUDGET_S
    work = RUNS / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        commands = WORKLOADS[name](work / "inputs", seed)
        env = child_env()
        # The first setup probe also stops a run whose CLI cannot be imported.
        probes = 1 if trace else SETUP_PROBES
        setup: list[float] = []
        rounds: list[Round] = []
        # A setup probe precedes each of the first rounds, so probes and rounds
        # both sample the whole run. Another round starts only while it would
        # end less than half a round past --seconds, so the measured time
        # centres on --seconds whatever the length of a round.
        t_begin = time.perf_counter()
        iterations = 0
        while True:
            if len(setup) < probes:
                setup.append(import_time(env, work / "setup.txt", deadline))
            for traced in ((False, True) if trace else (False,)):
                rounds.append(run_round(commands, work / f"round{len(rounds)}", env,
                                        traced, t_start + KILL_AFTER_S))
            iterations += 1
            elapsed = time.perf_counter() - t_begin
            if elapsed * (1.0 + 0.5 / iterations) >= seconds \
                    or time.perf_counter() >= deadline:
                break
        while len(setup) < probes:
            setup.append(import_time(env, work / "setup.txt", deadline))
        failed, correct, problems = verify(rounds, commands)
        for p in problems[:20]:
            print(f"problem: {p}", file=sys.stderr)
        metrics = per_layer(rounds, commands) if trace else end_to_end(rounds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(rounds) * len(commands)
    print(f"{name} seed={seed}: {len(rounds)} rounds, {attempted} commands attempted, "
          f"{failed} failed, {time.perf_counter() - t_start:.1f} s in all")
    for key, (value, unit) in metrics.items():
        print(f"  {key:36s} {value:14.6f} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "contagion_lab" / "cli.py").is_file():
        print(f"error: no contagion_lab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"workload": name, **result} if args.workload == "all" else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
