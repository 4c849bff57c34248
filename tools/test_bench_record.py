"""Self-test of the benchmark record on tiny configs.

Run from the repository root with ``python3 -m pytest tools``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_record  # noqa: E402

GRID = {"nx": 8, "ny": 8, "nz": 5}
PARAMS = {"mu": 1.0, "mu_prime": 0.5}
TINY = {
    "simulate": ("simulate", {
        "schema_version": 1, "mode": "GlobalGamma1", "grid": GRID,
        "params": PARAMS, "dt": 0.02, "t_end": 0.04, "output_every": 1,
        "preset": "fourier_perturbation", "amplitude": 1e-3,
        "perturbation_mode": [1, 0]}),
    "spectrum": ("spectrum", {"schema_version": 1, "mode": "GlobalGamma1",
                              "grid": GRID, "params": PARAMS}),
    "resolvent": ("resolvent", {"schema_version": 1, "grid": GRID,
                                "params": PARAMS, "lam": 0.0,
                                "rhs": "manufactured"}),
    "resolvent_imag": ("resolvent", {"schema_version": 1, "grid": GRID,
                                     "params": PARAMS, "lam": [0.0, 37.0],
                                     "rhs": "manufactured"}),
}


def test_a_record_holds_each_tree_and_command(tmp_path):
    trees = {"parent": bench_record.REPO, "change": bench_record.REPO}
    path = bench_record.record(7, trees, TINY, rounds=1, repeats=2,
                               out_dir=str(tmp_path))
    assert path == str(tmp_path / "BENCH_7.json")
    with open(path, encoding="utf-8") as fh:
        rec = json.load(fh)
    assert rec["record"] == 7 and rec["blas_threads_requested"] == 1
    assert rec["blas_threads"] == 1 and rec["numpy"]
    assert set(rec["commands"]) == set(TINY)
    for label in trees:
        assert len(rec["rounds"][label]) == 1
        for name in TINY:
            assert rec["seconds"][label][name] == rec["rounds"][label][0][name]
            assert 0 < rec["seconds"][label][name] < 60
    assert set(rec["change_over_parent"]) == set(TINY)


def test_the_five_commands_are_those_of_the_roadmap():
    sub = {name: cmd for name, (cmd, _) in bench_record.COMMANDS.items()}
    assert sub == {"criterion8": "simulate", "local32": "simulate",
                   "spectrum": "spectrum", "resolvent": "resolvent",
                   "resolvent_imag": "resolvent"}
    c8 = bench_record.COMMANDS["criterion8"][1]
    assert round(c8["t_end"] / c8["dt"]) == 2000
    assert c8["grid"] == {"nx": 16, "ny": 16, "nz": 9}
    for name in ("local32", "spectrum", "resolvent", "resolvent_imag"):
        assert bench_record.COMMANDS[name][1]["grid"] == {
            "nx": 32, "ny": 32, "nz": 17}
    assert bench_record.COMMANDS["resolvent_imag"][1]["lam"] == [0.0, 37.0]
