"""Tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the repository's own test run; they
take a few seconds. They show that the oracles are right on closed forms and
that a check fed a slightly wrong output reports a failed operation.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_ras_meets_marginals():
    rng = np.random.default_rng(3)
    A = rng.uniform(1.0, 50.0, size=40)
    L = rng.permutation(A)
    X = checks.ras(A, L)
    assert np.all(np.diagonal(X) == 0.0)
    assert np.abs(X.sum(axis=1) - A).max() <= 1e-12 * A.max()
    assert np.abs(X.sum(axis=0) - L).max() <= 1e-12 * A.max()


def _spectrum_of(W: np.ndarray) -> checks.Spectrum:
    return checks.Spectrum(W / 2.0, epsilon=0.0)   # the oracle symmetrizes X + X^T


def test_lambda2_oracle_closed_forms():
    k4 = np.ones((4, 4)) - np.eye(4)
    assert math.isclose(_spectrum_of(k4).lambda2, 4.0, rel_tol=1e-12)
    n = 9
    path = np.zeros((n, n))
    for i in range(n - 1):
        path[i, i + 1] = path[i + 1, i] = 1.0
    assert math.isclose(_spectrum_of(path).lambda2,
                        2.0 * (1.0 - math.cos(math.pi / n)), rel_tol=1e-12)


def test_oracle_uses_largest_component():
    W = np.zeros((6, 6))
    W[:4, :4] = np.ones((4, 4)) - np.eye(4)   # K4 plus an isolated edge
    W[4, 5] = W[5, 4] = 1.0
    spec = _spectrum_of(W)
    assert spec.n_components == 2 and len(spec.lcc) == 4
    assert math.isclose(spec.lambda2, 4.0, rel_tol=1e-12)


def test_exact_permutation_p_counts_every_split():
    # 2 vs 2: six splits; |T| reaches |T_obs| on the observed split and its mirror
    a, b = np.array([0.0, 1.0]), np.array([10.0, 11.0])
    assert checks.exact_permutation_p(a, b) == (1 + 1) / (6 + 1)


def test_inputs_repeat_per_seed(tmp_path):
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        inputs.write_panel(tmp_path / name, 20, seed)
    text = {name: (tmp_path / name).read_bytes() for name in "abc"}
    assert text["a"] == text["b"] != text["c"]


# --- a wrong output must make an operation fail -------------------------------------

def _session(tmp_path: Path) -> tuple[list, Path]:
    """Run a small session in-process and return its commands and output dir."""
    import contagion_lab.cli

    commands = run.session_n70(tmp_path, seed=5)
    out = tmp_path / "round0"
    out.mkdir()
    for cmd in commands:
        argv = list(cmd.argv)
        if cmd.argv[0] == "placebo":
            argv[argv.index("--n-draws") + 1] = "50"
        assert contagion_lab.cli.main([*argv, "--output-dir", str(out)]) == 0
    return commands, out


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return _session(tmp_path_factory.mktemp("session"))


PERTURB = {
    "analyze": ("analyze.json", lambda r: r["years"][1], "lambda2"),
    "sweep": ("sweep.json", lambda r: r["lambda2"]["2021"], "0.05"),
    "bootstrap": ("bootstrap.json", lambda r: r, "point"),
    "did": ("did.json", lambda r: r["coefficients"], "treated_post2021"),
    "placebo": ("placebo.json", lambda r: r, "observed"),
    "fit": ("fit.json", lambda r: r, "alpha_hat"),
    "permute": ("permute.json", lambda r: r, "p_value"),
}


def _fake_round(out: Path) -> run.Round:
    """A round of one command that exited 0 and wrote into ``out``."""
    return run.Round(out, traced=False, children=[run.Child(0.0, 1.0, 1.0, 1.0, 0)])


@pytest.mark.parametrize("command", list(PERTURB))
def test_perturbed_output_fails_its_check(session, command, tmp_path):
    commands, out = session
    i = [c.argv[0] for c in commands].index(command)
    cmd = commands[i]
    if command == "placebo":   # the small run above used 50 draws
        cmd = run.Command(cmd.argv, lambda o: checks.check_placebo(
            o, inputs.exposure_matrix(70, 5), run.EPSILON, 50))
    assert cmd.check(out) == [], "the unperturbed output must pass"
    name, locate, key = PERTURB[command]
    with open(out / name, encoding="utf-8") as fh:
        doc = json.load(fh)
    section = locate(doc["results"])
    if command == "sweep":
        key = next(k for k in section if k.startswith(key))
    section[key] *= 1.0 + 1e-6
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    (bad / name).write_text(json.dumps(doc), encoding="utf-8")
    failed, correct, problems = run.verify([_fake_round(bad)], [cmd])
    assert (failed, correct) == (1, False) and problems


def test_nonzero_exit_is_a_failed_operation(session, tmp_path):
    commands, out = session
    rnd = _fake_round(out)
    rnd.children[0].code = 4
    (out / "log0.txt").write_text("error: boom\n")
    failed, correct, _ = run.verify([rnd], [commands[0]])
    assert (failed, correct) == (1, True)


def test_self_times_subtract_children():
    spans = [["cli", "main", 0.0, 10.0, -1],
             ["graph", "f", 1.0, 4.0, 0],
             ["reconstruct", "g", 2.0, 3.0, 1]]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]


def test_every_layer_metric_is_declared():
    here = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in here["per_layer"]}
    assert declared == tracing.UNITS
    assert [w["name"] for w in here["workloads"]] == list(run.WORKLOADS)
