"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass line (run with -s to see them; a failed assert marks the criterion
failed). Criteria 1, 3, 5, and 9 expose their outputs as byte blobs so the
determinism criterion can rerun and compare them.
"""

import re
import time

import numpy as np
import pytest

from scenegame import cli, features, mrf, net as net_mod, preprocess
from scenegame.gmm import fit as gmm_fit
from scenegame.image import DisplacementLabelSet, Image, LabelField, gen_scene


def report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


# ---------------------------------------------------------------------------
# Criterion 1 + 2: solver/oracle equivalence and potential-game descent
# ---------------------------------------------------------------------------

SOLVER_SEED_BASE = 12345
SOLVER_INSTANCES = 100


def run_solver_suite():
    rng = np.random.default_rng(SOLVER_SEED_BASE)
    results = {
        "nash_ok": 0,
        "anneal_optimal": 0,
        "icm_traces": [],
        "anneal_traces": [],
        "blob": bytearray(),
    }
    for k in range(SOLVER_INSTANCES):
        dc = rng.uniform(0.0, 14.0, (3, 3, 2))
        beta = float(rng.uniform(0.1, 0.7))
        model = mrf.EnergyModel(data_costs=dc, prior_weight=beta,
                                prior_kind="potts")
        init = LabelField(labels=rng.integers(0, 2, (3, 3)), label_count=2)
        icm_labels, icm_trace = mrf.solve_icm(model, init, max_sweeps=60)
        results["nash_ok"] += mrf.nash_check(model, icm_labels)[0]
        results["icm_traces"].append(icm_trace)

        anneal_labels, anneal_trace = mrf.solve_anneal(model, init, max_sweeps=60, seed=k)
        results["anneal_traces"].append(anneal_trace)
        _, best_energy = mrf.exhaustive_oracle(model)
        energy = mrf.energy_of(model, anneal_labels)
        # the oracle accumulates in a different order; 1e-9 is far below any
        # real energy gap but above float summation noise
        results["anneal_optimal"] += abs(energy - best_energy) < 1e-9
        results["blob"] += icm_labels.labels.tobytes()
        results["blob"] += anneal_labels.labels.tobytes()
        results["blob"] += f"{energy!r},{best_energy!r};".encode()
    results["blob"] = bytes(results["blob"])
    return results


@pytest.fixture(scope="module")
def solver_suite():
    started = time.perf_counter()
    results = run_solver_suite()
    results["elapsed"] = time.perf_counter() - started
    return results


def test_criterion_1_nash_oracle_equivalence(solver_suite):
    assert solver_suite["nash_ok"] == SOLVER_INSTANCES
    assert solver_suite["anneal_optimal"] >= 95
    assert solver_suite["elapsed"] < 10.0
    report(1, f"icm nash {solver_suite['nash_ok']}/100, anneal optimal "
              f"{solver_suite['anneal_optimal']}/100 in "
              f"{solver_suite['elapsed']:.1f}s")


def test_criterion_2_potential_game_descent(solver_suite):
    for trace in solver_suite["icm_traces"]:
        energies = [r.energy for r in trace]
        for prev, cur in zip(energies, energies[1:]):
            assert cur <= prev  # exact comparison, zero tolerance
        assert trace[-1].changed == 0          # terminated
        assert len(trace) <= 60                # within max_sweeps
    for trace in solver_suite["anneal_traces"]:
        # zero-temperature tail records are best-response sweeps
        tail = [(prev, cur) for prev, cur in zip(trace, trace[1:])
                if cur.temperature == 0.0]
        for prev, cur in tail:
            assert cur.energy <= prev.energy
        assert trace[-1].changed == 0
    report(2, "no best-response sweep increased energy; all ICM runs "
              "terminated")


# ---------------------------------------------------------------------------
# Criterion 3: EM monotonicity
# ---------------------------------------------------------------------------

def run_em_suite():
    blob = bytearray()
    rng = np.random.default_rng(2718)
    for k in range(50):
        components = k % 3 + 1
        centers = rng.uniform(-3, 3, components)
        data = np.concatenate([
            rng.normal(c, rng.uniform(0.3, 1.0), 200 // components)
            for c in centers
        ])
        _, trace = gmm_fit(data, components)
        diffs = np.diff(trace.loglik_per_iter)
        assert diffs.size == 0 or diffs.min() >= -1e-9
        blob += ",".join(repr(v) for v in trace.loglik_per_iter).encode()
        blob += b"\n"
    return bytes(blob)


@pytest.fixture(scope="module")
def em_blob():
    return run_em_suite()


def test_criterion_3_em_monotonicity(em_blob):
    params, _ = gmm_fit([-0.1, 0.0, 0.1, 9.9, 10.0, 10.1], 2)
    means = np.sort(params.means)
    assert abs(means[0] - 0.0) < 0.1
    assert abs(means[1] - 10.0) < 0.1
    assert len(em_blob.splitlines()) == 50
    report(3, "50/50 nondecreasing log-likelihood traces; separable means "
              "recovered within 0.1")


# ---------------------------------------------------------------------------
# Criterion 4: gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_4_gradient_fidelity():
    started = time.perf_counter()
    network = net_mod.default_net(input_size=16, seed=3)
    images, labels = [], []
    for c in range(5):
        for i in range(2):
            images.append(gen_scene(c, 16, 1, 100 + i))
            labels.append(c)
    err = net_mod.grad_check(network, images, labels, net_mod.TrainConfig(),
                             samples=60, seed=11)
    elapsed = time.perf_counter() - started
    assert err < 1e-3
    assert elapsed < 60.0
    report(4, f"max relative gradient error {err:.2e} over 60 parameters "
              f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5: registration recovery
# ---------------------------------------------------------------------------

def run_registration_suite():
    size = 32
    rng = np.random.default_rng(909)
    base = rng.integers(0, 256, (size, size)).astype(np.uint8)
    fixed = Image(base)
    label_set = DisplacementLabelSet.dense(2)
    field = mrf.SmoothnessField.identity(size, size)
    zero = label_set.offsets.index((0, 0))
    fractions = []
    blob = bytearray()
    for shift in ((1, 0), (2, -1)):
        sx, sy = shift
        rows, cols = np.indices((size, size))
        moving = Image(base[np.clip(rows - sy, 0, size - 1),
                            np.clip(cols - sx, 0, size - 1)])
        model = mrf.build_registration_game(fixed, moving, label_set, 0.5, field)
        init = LabelField(labels=np.full((size, size), zero),
                          label_count=len(label_set))
        labels, _ = mrf.solve_icm(model, init, max_sweeps=60)
        margin = 2 + max(abs(sx), abs(sy))
        interior = labels.labels[margin:size - margin, margin:size - margin]
        true_label = label_set.offsets.index(shift)
        fractions.append(float((interior == true_label).mean()))
        blob += labels.labels.tobytes()
    return fractions, bytes(blob)


@pytest.fixture(scope="module")
def registration_result():
    started = time.perf_counter()
    fractions, blob = run_registration_suite()
    return fractions, blob, time.perf_counter() - started


def test_criterion_5_registration_recovery(registration_result):
    fractions, _, elapsed = registration_result
    assert all(f >= 0.90 for f in fractions)
    assert elapsed < 30.0
    report(5, f"interior recovery {fractions[0]:.3f} and {fractions[1]:.3f} "
              f"for shifts (1,0) and (2,-1) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 6: equalization contract
# ---------------------------------------------------------------------------

def test_criterion_6_equalization_contract():
    const = Image(np.full((4, 4), 128, dtype=np.uint8))
    assert preprocess.equalize(const) == const
    two = preprocess.equalize(Image(np.array([[0, 255]], dtype=np.uint8)))
    assert two.pixels.tolist() == [[0, 255]]
    four = preprocess.equalize(Image(np.array([[10, 10, 20, 30]], dtype=np.uint8)))
    assert four.pixels.tolist() == [[0, 0, 127, 255]]

    rng = np.random.default_rng(606)
    for _ in range(100):
        arr = rng.integers(0, 256, (10, 10), dtype=np.uint8)
        out = preprocess.equalize(Image(arr)).pixels.ravel().astype(int)
        src = arr.ravel()
        order = np.argsort(src, kind="stable")
        assert np.all(np.diff(out[order]) >= 0)
    report(6, "equalize examples bit-exact; rank order preserved on 100 "
              "random images")


# ---------------------------------------------------------------------------
# Criterion 7: weight optimizer versus grid oracle
# ---------------------------------------------------------------------------

def test_criterion_7_weight_optimizer_vs_grid():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        a = rng.beta(4.0, 1.5, 12)
        b = rng.beta(1.5, 4.0, 12)
        cols = (a, b) if seed % 2 == 0 else (b, a)
        table = np.column_stack(cols)
        _, value = features.optimize_weights(table)
        grid_best = max(
            features.weight_objective(table, np.array([w1, 1.0 - w1]))
            for w1 in np.arange(0.0, 1.0 + 1e-12, 0.01)
        )
        worst = max(worst, grid_best - value)
        assert grid_best - value <= 1e-3
    report(7, f"20/20 tables within 1e-3 of the grid maximum "
              f"(worst gap {worst:.2e})")


# ---------------------------------------------------------------------------
# Criterion 8: ellipticity and smoothness
# ---------------------------------------------------------------------------

def test_criterion_8_ellipticity_and_smoothness():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        sym = rng.normal(0, 1, (2, 2))
        sym = (sym + sym.T) / 2
        eps = float(rng.uniform(0.01, 1.5))
        field = mrf.SmoothnessField(
            coeffs=np.broadcast_to(sym, (1, 1, 2, 2)).copy(), epsilon=eps)
        expected = bool(np.linalg.eigvalsh(sym)[0] >= eps)
        assert mrf.ellipticity_check(field) == expected

    field = mrf.SmoothnessField.identity(10, 10, epsilon=0.5)
    const = np.full((10, 10), 4.2)
    assert np.abs(mrf.smoothness_residual(field, const)).max() < 1e-9
    linear = 3.0 * np.tile(np.arange(10.0), (10, 1)) - 2.0 * np.tile(
        np.arange(10.0)[:, None], (1, 10))
    res = mrf.smoothness_residual(field, linear)
    assert np.abs(res[2:-2, 2:-2]).max() < 1e-9
    report(8, "1000/1000 eigenvalue agreements; constant and linear fields "
              "annihilated at interior pixels")


# ---------------------------------------------------------------------------
# Criterion 9: end-to-end desk-scale experiment
# ---------------------------------------------------------------------------

EXPERIMENT_CONFIG = cli.ExperimentConfig(
    sizes=(20,), noise_levels=(1,), images_per_class=200, trials=1,
    holdout=0.2, epochs=12, learning_rate=0.05, batch_size=25, seed=2026,
)

ROW_PATTERN = re.compile(
    r"^[1-5],\d+\*\d+,1,[1-3],(0\.\d{4}|1\.0000),\d+\.\d{2}±\d+\.\d{2}$"
)


def run_experiment_suite():
    report_obj = cli.run_experiment(EXPERIMENT_CONFIG)
    return report_obj, report_obj.to_csv().encode()


@pytest.fixture(scope="module")
def experiment_result():
    started = time.perf_counter()
    report_obj, blob = run_experiment_suite()
    return report_obj, blob, time.perf_counter() - started


def test_criterion_9_end_to_end_experiment(experiment_result):
    report_obj, blob, elapsed = experiment_result
    assert report_obj.failure is None
    assert elapsed < 600.0
    accuracy = report_obj.rows[0].accuracy
    assert accuracy >= 0.85
    lines = blob.decode().strip().split("\n")
    assert lines[0] == cli.REPORT_HEADER
    assert len(lines) == 2
    assert ROW_PATTERN.match(lines[1]), lines[1]
    report(9, f"held-out accuracy {accuracy:.4f} on 1000 synthetic scenes "
              f"in {elapsed:.0f}s; report schema matches")


# ---------------------------------------------------------------------------
# Criterion 10: determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(solver_suite, em_blob, registration_result,
                                  experiment_result):
    assert run_solver_suite()["blob"] == solver_suite["blob"]
    assert run_em_suite() == em_blob
    assert run_registration_suite()[1] == registration_result[1]
    assert run_experiment_suite()[1] == experiment_result[1]
    report(10, "criteria 1, 3, 5, 9 reruns byte-identical")
