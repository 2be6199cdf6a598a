import json
import math
import os
import resource
import subprocess
import sys
from math import comb

import numpy as np
import pytest

import spinmix
from spinmix import linalg
from spinmix.cli import DEFAULT_N, RHO_CAP, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_matrix(payload) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in payload])


def test_rho_statistical_pair_state(capsys):
    code, out, err = run_cli(capsys, "rho", "--ensemble", "S", "--n", "8", "--k", "2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "rho" and doc["n"] == 8 and doc["k"] == 2
    assert np.abs(as_matrix(doc["matrix"]) - np.eye(4) / 4.0).max() <= 1e-12


def test_rho_one_particle_state(capsys):
    code, out, _ = run_cli(capsys, "rho", "--ensemble", "A", "--n", "4", "--k", "1")
    assert code == 0
    doc = json.loads(out)
    assert np.abs(as_matrix(doc["matrix"]) - np.eye(2) / 2.0).max() <= 1e-12


def test_rho_x_basis_flag(capsys):
    code, out, _ = run_cli(
        capsys, "rho", "--ensemble", "A", "--n", "4", "--k", "2", "--basis", "x"
    )
    assert code == 0
    doc = json.loads(out)
    rotated = as_matrix(doc["matrix_x"])
    assert np.abs(np.diag(rotated) - np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])).max() <= 1e-12
    assert np.abs(rotated - np.diag(np.diag(rotated))).max() <= 1e-12


def test_pmf_deterministic_composition(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--ensemble", "B", "--n", "4", "--axis", "z")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == [0, 0, 1, 0, 0]
    assert doc["variance"] == 0


def test_pmf_statistical_mixture(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--ensemble", "S", "--n", "4", "--axis", "z")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == [comb(4, m) * 2.0**-4 for m in range(5)]
    assert doc["variance"] == 1


def test_pmf_fixed_urn(capsys):
    code, out, _ = run_cli(capsys, "urn", "--n", "4", "--black", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "urn" and doc["black"] == 2
    assert doc["exact"] == [0, 0, 1, 0, 0]


def test_urn_random_mixing(capsys):
    code, out, _ = run_cli(capsys, "urn", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == [comb(4, m) * 2.0**-4 for m in range(5)]

    code, out, _ = run_cli(capsys, "urn")
    assert code == 0 and json.loads(out)["n"] == DEFAULT_N


def test_pmf_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "pmf", "--ensemble", "B", "--n", "4", "--axis", "z", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "count,probability"
    assert lines[3] == "2,1"
    assert len(lines) == 6


def test_pmf_csv_with_empirical_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "pmf", "--ensemble", "S", "--n", "4", "--axis", "z",
        "--trials", "200", "--seed", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "count,probability,empirical"
    assert len(lines) == 6


def test_distinguish_fixed_pair(capsys):
    code, out, _ = run_cli(
        capsys,
        "distinguish", "--a", "A", "--b", "B", "--n", "4", "--kmax", "2",
        "--axis", "x", "--trials", "4000", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pair"] == ["A", "B"]
    distances = {entry["k"]: entry["distance"] for entry in doc["trace_distances"]}
    assert distances[1] <= 1e-12
    assert distances[2] == pytest.approx(1 / 6, abs=1e-10)
    x_figures = doc["axes"]["x"]
    assert x_figures["bayes_success"] == 0.8125
    mc = x_figures["monte_carlo"]
    assert abs(mc["success"] - 0.8125) <= 3.0 * mc["stderr"]


def test_distinguish_rotated_mixtures_are_identical(capsys):
    code, out, _ = run_cli(
        capsys, "distinguish", "--a", "S:z", "--b", "S:x", "--n", "6", "--kmax", "3"
    )
    assert code == 0
    doc = json.loads(out)
    for entry in doc["trace_distances"]:
        assert entry["distance"] <= 1e-12
    for label in ("x", "z"):
        assert doc["axes"][label]["tv_distance"] <= 1e-12
        assert doc["axes"][label]["bayes_success"] == 0.5


def test_distinguish_same_spec_is_chance(capsys):
    code, out, _ = run_cli(
        capsys, "distinguish", "--a", "B", "--b", "fixed:z+*2/z-*2", "--n", "4", "--kmax", "2"
    )
    assert code == 0
    doc = json.loads(out)
    for label in ("x", "z"):
        assert doc["axes"][label]["bayes_success"] == 0.5


def test_seeded_outputs_are_byte_identical(capsys):
    argv = [
        "pmf", "--ensemble", "A", "--n", "10", "--axis", "z",
        "--trials", "500", "--seed", "21",
    ]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second

    argv = [
        "distinguish", "--a", "A", "--b", "B", "--n", "4", "--kmax", "2",
        "--axis", "x", "--trials", "300", "--seed", "5",
    ]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_different_seeds_give_different_samples(capsys):
    base = ["pmf", "--ensemble", "S", "--n", "10", "--axis", "x", "--trials", "300"]
    _, one, _ = run_cli(capsys, *base, "--seed", "1")
    _, two, _ = run_cli(capsys, *base, "--seed", "2")
    assert json.loads(one)["empirical"] != json.loads(two)["empirical"]


def test_json_floats_round_trip(capsys):
    _, out, _ = run_cli(capsys, "rho", "--ensemble", "A", "--n", "6", "--k", "2")
    doc = json.loads(out)
    from spinmix import preset_ensemble, reduced_density_matrix

    exact = reduced_density_matrix(preset_ensemble("A", 6), 2).matrix
    assert np.array_equal(as_matrix(doc["matrix"]), exact)


def test_error_paths_exit_nonzero(capsys):
    code, out, err = run_cli(capsys, "rho", "--ensemble", "A", "--n", "5")
    assert code == 1 and out == "" and "even" in err

    code, _, err = run_cli(capsys, "pmf", "--ensemble", "nonsense", "--n", "4")
    assert code == 1 and "ensemble" in err

    code, _, err = run_cli(capsys, "pmf", "--ensemble", "S", "--n", "4", "--axis", "q")
    assert code == 1 and "axis" in err

    code, _, err = run_cli(capsys, "rho", "--ensemble", "A", "--n", "4", "--k", "9")
    assert code == 1

    code, _, err = run_cli(capsys, "urn", "--n", "4", "--black", "9")
    assert code == 1

    for argv in (
        ["pmf", "--ensemble", "S", "--n", "4", "--trials", "-5"],
        ["urn", "--n", "4", "--trials", "10", "--workers", "0"],
        ["distinguish", "--a", "A", "--b", "B", "--n", "4", "--trials", "-1"],
        ["distinguish", "--a", "A", "--b", "B", "--n", "4", "--workers", "-2"],
        # rho prints at most RHO_CAP = 10 particles
        ["rho", "--k", "11"],
        # NaN compares false with everything, so every validator must reject it
        ["pmf", "--ensemble", "S", "--n", "4", "--axis=nan,0,0"],
        ["pmf", "--ensemble", "S", "--n", "4", "--axis=inf,0,0"],
        ["pmf", "--ensemble", "iid:z+*nan/z-*0.5", "--n", "4"],
        ["pmf", "--ensemble", "iid:z+*nan/z-*0.5", "--n", "4", "--trials", "10"],
        ["pmf", "--ensemble", "iid:z+*inf/z-*0.5", "--n", "4"],
        ["rho", "--ensemble", "iid:z+*nan/z-*0.5", "--n", "4", "--k", "1"],
        ["distinguish", "--a", "A", "--b", "B", "--n", "4", "--axis=nan,0,0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("ensemble", ["S", "A", "iid:z+*0.5/z-*0.5", "fixed:x+*1/x-*1"])
def test_rho_rejects_more_particles_than_the_ensemble_holds(capsys, ensemble):
    code, out, err = run_cli(capsys, "rho", "--ensemble", ensemble, "--n", "2", "--k", "3")
    assert code == 1 and out == ""
    assert err == "error: cannot select k = 3 of the ensemble's n = 2 particles\n"


def test_exact_pmf_beyond_float_binomial_coefficients(capsys):
    code, out, err = run_cli(capsys, "pmf", "--ensemble", "S", "--n", "2000")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert len(doc["exact"]) == 2001
    assert abs(sum(doc["exact"]) - 1.0) <= 1e-12
    assert doc["mean"] == pytest.approx(1000.0, abs=1e-9)
    assert doc["variance"] == pytest.approx(500.0, abs=1e-8)


def test_rho_caps_k_before_building_a_matrix(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr("spinmix.ensembles.state_projector", fail)
    for k in (RHO_CAP + 1, RHO_CAP + 2):
        code, out, err = run_cli(capsys, "rho", "--ensemble", "A", "--n", "40", "--k", str(k))
        assert code == 1 and out == ""
        assert err == f"error: k = {k} exceeds the particle cap {RHO_CAP}\n"


def test_a_literal_near_an_axis_prints_its_own_direction(capsys):
    code, out, err = run_cli(capsys, "pmf", "--ensemble", "fixed:(1e-10,0,1)+*2/x-*2",
                             "--axis", "x")
    assert code == 0 and err == ""
    assert json.loads(out)["ensemble"] == "fixed:(1e-10,0.0,1.0)+*2/x-*2"
    # Within 1e-12 of an axis, the entry takes the axis's name.
    code, out, err = run_cli(capsys, "pmf", "--ensemble", "fixed:(1e-13,0,1)+*2/x-*2",
                             "--axis", "x")
    assert code == 0 and json.loads(out)["ensemble"] == "fixed:z+*2/x-*2"


def test_fixed_literal_takes_n_from_its_counts(capsys):
    code, out, err = run_cli(capsys, "rho", "--ensemble", "fixed:x+*2/x-*2")
    assert code == 0 and err == ""
    assert json.loads(out)["n"] == 4

    code, out, err = run_cli(capsys, "pmf", "--ensemble", "fixed:x+*2/x-*2/z+*1", "--axis", "x")
    assert code == 0 and json.loads(out)["n"] == 5

    code, out, err = run_cli(capsys, "rho", "--ensemble", "fixed:x+*2/x-*2", "--n", "5")
    assert code == 1 and out == "" and "does not match" in err

    code, out, _ = run_cli(capsys, "pmf", "--ensemble", "S")
    assert code == 0 and json.loads(out)["n"] == 10


def test_axes_whose_squared_norm_overflows_keep_their_direction(capsys):
    code, out, err = run_cli(capsys, "pmf", "--n", "4", "--axis=1e308,1e308,0")
    assert code == 0 and err == ""
    assert out == run_cli(capsys, "pmf", "--n", "4", "--axis=1,1,0")[1]
    for axis in ("--axis=inf,0,0", "--axis=nan,0,0"):
        code, out, err = run_cli(capsys, "pmf", "--n", "4", axis)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_axes_whose_squares_underflow_keep_their_direction(capsys):
    # Normalizing (m, m, 0) and (1, 1, 0) can differ in the last bit, as
    # (3, 3, 0) already does, so 1e-200 is compared with its mantissa.
    mantissa = repr(math.frexp(1e-200)[0])
    for tiny, unit in (("--axis=1e-200,1e-200,0", f"--axis={mantissa},{mantissa},0"),
                       ("--axis=1e-13,0,0", "--axis=1,0,0")):
        code, out, err = run_cli(capsys, "pmf", "--n", "4", tiny)
        assert code == 0 and err == ""
        assert out == run_cli(capsys, "pmf", "--n", "4", unit)[1]
    for axis in ("--axis=0,0,0", "--axis=-0.0,0,-0.0", "--axis=inf,0,0", "--axis=nan,0,0"):
        code, out, err = run_cli(capsys, "pmf", "--n", "4", axis)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_inaccurate_eigenvalues_end_in_an_error(capsys, monkeypatch):
    monkeypatch.setattr(linalg, "hermitian_eigenvalues", lambda m: np.array([-1.5, 1.5]))
    code, out, err = run_cli(capsys, "distinguish", "--a", "A", "--b", "B", "--n", "4")
    assert code == 1 and out == ""
    assert err.startswith("error: trace distance") and err.count("\n") == 1


def test_unknown_arguments_exit_via_argparse(capsys):
    for argv in (
        ["rho", "--bogus"],
        # Removed options: urns have their own subcommand, rho and
        # distinguish print JSON only, and rho validates at ATOL_ALGEBRA.
        ["rho", "--format", "json"],
        ["rho", "--tolerance", "1e-9"],
        ["pmf", "--urn", "--n", "4"],
        ["pmf", "--ensemble", "B", "--n", "4", "--black", "2"],
        ["distinguish", "--a", "A", "--b", "B", "--format", "json"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def run_cli_with_address_space_cap(argv):
    """`python -m spinmix argv` in a child process whose address space (and
    only its) is limited to 1.5 GB by RLIMIT_AS."""

    def limit():
        cap = 1536 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(spinmix.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "spinmix", *argv],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120,
    )


@pytest.mark.parametrize("argv", [
    ["pmf", "--ensemble", "S", "--n", "1000000000"],
    ["pmf", "--ensemble", "fixed:x+*500000000/z-*500000000"],
    ["distinguish", "--a", "A", "--b", "B", "--n", "1000000000", "--kmax", "1"],
])
def test_huge_counts_end_in_one_error_line(argv):
    done = run_cli_with_address_space_cap(argv)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert "COUNT_N_CAP" in done.stderr


def test_huge_n_reduced_state_needs_no_count_arrays():
    done = run_cli_with_address_space_cap(
        ["rho", "--ensemble", "A", "--n", "1000000000", "--k", "2"]
    )
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["n"] == 10**9


def test_memory_errors_end_in_one_error_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8 GiB")

    monkeypatch.setattr("spinmix.cli.exact_count_pmf", exhausted)
    code, out, err = run_cli(capsys, "pmf", "--ensemble", "S", "--n", "4")
    assert code == 1 and out == "" and err == "error: Unable to allocate 8 GiB\n"
