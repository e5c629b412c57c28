"""Experiment models and their operator measures: construction, statistics
identity, projection-valued classification, and JSON interfaces."""

import json

import numpy as np
import pytest

from bohmsim.povm import (ExperimentModel, NotProjectionValued,
                          OutcomeDistribution, POVMeasure, compose_initial,
                          is_projection_valued, make_model, model_from_json,
                          model_to_json, model_zoo, operator_from_pv,
                          outcome_distribution, povm_from_experiment,
                          povm_to_json, repeat_agreement_probability)


def random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


@pytest.fixture(scope="module")
def zoo():
    return model_zoo()


# --- model construction -----------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        ExperimentModel(2, 2, np.array([1.0, 1.0]), np.eye(4),
                        ("0", "1"))  # unnormalized ready state
    with pytest.raises(ValueError):
        ExperimentModel(2, 2, np.array([1.0, 0.0]), 2 * np.eye(4), ("0", "1"))
    with pytest.raises(ValueError):
        ExperimentModel(2, 2, np.array([1.0, 0.0]), np.eye(4), ("0",))
    with pytest.raises(ValueError):
        make_model("unknown-generator")


# --- compose_initial ---------------------------------------------------------------


def test_compose_scalar_case():
    model = make_model("identity", n=1, m=1, phi0=np.array([1.0]),
                       labels=("only",))
    out = compose_initial(np.array([1.0]), model)
    np.testing.assert_allclose(out, [1.0])


def test_compose_basis_vector():
    model = make_model("identity")
    out = compose_initial(np.array([1.0, 0.0]), model)
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0])


def test_compose_norm_and_validation(zoo):
    rng = np.random.default_rng(1)
    psi = random_state(rng, 2)
    out = compose_initial(psi, zoo["controlled-flip"])
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        compose_initial(np.array([1.0, 0.0, 0.0]), zoo["controlled-flip"])
    with pytest.raises(ValueError):
        compose_initial(np.array([2.0, 0.0]), zoo["controlled-flip"])


# --- outcome distributions -----------------------------------------------------------


def test_identity_constant_calibration():
    model = make_model("identity", labels=("a", "a"))
    mu = outcome_distribution(model, np.array([0.6, 0.8]))
    assert mu["a"] == pytest.approx(1.0)


def test_coin_flip_ignores_system(zoo):
    rng = np.random.default_rng(3)
    for _ in range(5):
        mu = outcome_distribution(zoo["coin-flip"], random_state(rng, 2))
        assert mu["0"] == pytest.approx(0.5, abs=1e-12)
        assert mu["1"] == pytest.approx(0.5, abs=1e-12)


def test_controlled_flip_measures_weights(zoo):
    """Oracle: explicit multiplication by the hand-written 4x4 interaction."""
    c1, c2 = 0.6, 0.8j
    psi = np.array([c1, c2])
    mu = outcome_distribution(zoo["controlled-flip"], psi)
    u = np.array([[1, 0, 0, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1],
                  [0, 0, 1, 0]], dtype=complex)
    final = u @ np.kron(psi, np.array([1.0, 0.0]))
    expect0 = abs(final[0]) ** 2 + abs(final[2]) ** 2
    expect1 = abs(final[1]) ** 2 + abs(final[3]) ** 2
    assert mu["0"] == pytest.approx(expect0) == pytest.approx(abs(c1) ** 2)
    assert mu["1"] == pytest.approx(expect1) == pytest.approx(abs(c2) ** 2)


def test_distribution_validation():
    with pytest.raises(ValueError):
        OutcomeDistribution({"a": 0.4, "b": 0.4})
    with pytest.raises(ValueError):
        OutcomeDistribution({"a": -0.1, "b": 1.1})


# --- POVM construction ----------------------------------------------------------------


def test_povm_identity_constant():
    model = make_model("identity", labels=("x", "x"))
    povm = povm_from_experiment(model)
    assert len(povm.entries) == 1
    np.testing.assert_allclose(povm.entries[0][1], np.eye(2), atol=1e-14)


def test_povm_coin_flip_scalars(zoo):
    povm = povm_from_experiment(zoo["coin-flip"])
    for lab, op in povm.entries:
        np.testing.assert_allclose(op, 0.5 * np.eye(2), atol=1e-12)


def test_povm_controlled_flip_projections(zoo):
    """Oracle: brute-force V^dagger P V with explicit matrices."""
    povm = povm_from_experiment(zoo["controlled-flip"])
    u = zoo["controlled-flip"].unitary
    v = u @ np.kron(np.eye(2), np.array([[1.0], [0.0]]))
    for lab, expect_diag in (("0", [1.0, 0.0]), ("1", [0.0, 1.0])):
        mask = np.zeros(4)
        for i in range(2):
            for j in range(2):
                if str(j) == lab:
                    mask[i * 2 + j] = 1.0
        brute = v.conj().T @ (mask[:, None] * v)
        op = dict(povm.entries)[lab]
        np.testing.assert_allclose(op, brute, atol=1e-12)
        np.testing.assert_allclose(op, np.diag(expect_diag), atol=1e-12)


def test_povm_type_validation():
    with pytest.raises(ValueError):
        POVMeasure((("a", np.eye(2) * 0.5), ("b", np.eye(2) * 0.4)))
    with pytest.raises(ValueError):
        POVMeasure((("a", np.array([[0.5, 0.5j], [0.5j, 0.5]])),
                    ("b", np.array([[0.5, -0.5j], [-0.5j, 0.5]]))))
    with pytest.raises(ValueError):
        POVMeasure((("a", np.diag([1.5, 1.0])), ("b", np.diag([-0.5, 0.0]))))


def test_statistics_identity_over_zoo(zoo):
    rng = np.random.default_rng(7)
    for name, model in zoo.items():
        povm = povm_from_experiment(model)
        for _ in range(100):
            psi = random_state(rng, model.n)
            mu = outcome_distribution(model, psi)
            for lab, op in povm.entries:
                assert abs(mu[lab] - np.real(np.vdot(psi, op @ psi))) < 1e-10, name


def test_global_phase_invariance(zoo):
    rng = np.random.default_rng(9)
    psi = random_state(rng, 2)
    m = zoo["hadamard-pointer"]
    mu1 = outcome_distribution(m, psi)
    mu2 = outcome_distribution(m, np.exp(0.7j) * psi)
    for lab in mu1.probabilities:
        assert abs(mu1[lab] - mu2[lab]) < 1e-12


def test_polarization_identity(zoo):
    """Four quadratic evaluations reconstruct the off-diagonal matrix element
    <phi, O psi>."""
    rng = np.random.default_rng(11)
    model = zoo["hadamard-pointer"]
    povm = povm_from_experiment(model)
    phi, psi = random_state(rng, 2), random_state(rng, 2)

    def q(chi, op_label):
        nrm = np.linalg.norm(chi)
        mu = outcome_distribution(model, chi / nrm)
        return nrm**2 * mu[op_label]

    for lab, op in povm.entries:
        rec = 0.25 * ((q(phi + psi, lab) - q(phi - psi, lab))
                      - 1j * (q(phi + 1j * psi, lab) - q(phi - 1j * psi, lab)))
        assert abs(rec - np.vdot(phi, op @ psi)) < 1e-9


# --- PV classification and the associated operator ---------------------------------------


def test_is_projection_valued(zoo):
    assert is_projection_valued(povm_from_experiment(zoo["controlled-flip"]))
    assert not is_projection_valued(povm_from_experiment(zoo["coin-flip"]))
    single = POVMeasure((("all", np.eye(3)),))
    assert is_projection_valued(single)


def test_operator_from_pv(zoo):
    cf = povm_from_experiment(zoo["controlled-flip"])
    a = operator_from_pv(cf, {"0": 1.0, "1": -1.0})
    np.testing.assert_allclose(a, np.diag([1.0, -1.0]), atol=1e-12)
    single = POVMeasure((("all", np.eye(2)),))
    np.testing.assert_allclose(operator_from_pv(single, {"all": 5.0}),
                               5.0 * np.eye(2), atol=1e-14)
    with pytest.raises(NotProjectionValued):
        operator_from_pv(povm_from_experiment(zoo["coin-flip"]), {"0": 1.0,
                                                                  "1": -1.0})


def test_operator_statistics(zoo):
    rng = np.random.default_rng(13)
    cf = povm_from_experiment(zoo["controlled-flip"])
    a = operator_from_pv(cf, {"0": 2.0, "1": -3.0})
    vals = np.linalg.eigvalsh(a)
    assert set(np.round(vals, 10)) <= {2.0, -3.0}
    for _ in range(20):
        psi = random_state(rng, 2)
        mu = outcome_distribution(zoo["controlled-flip"], psi)
        expect = 2.0 * mu["0"] - 3.0 * mu["1"]
        assert abs(np.real(np.vdot(psi, a @ psi)) - expect) < 1e-12


def test_reproducibility_iff_projection_valued(zoo):
    rng = np.random.default_rng(17)
    for name, model in zoo.items():
        pv = is_projection_valued(povm_from_experiment(model))
        agree = min(repeat_agreement_probability(model, random_state(rng, model.n))
                    for _ in range(20))
        assert (agree > 1.0 - 1e-9) == pv, name


# --- JSON interfaces -------------------------------------------------------------------


def test_model_json_roundtrip(zoo):
    spec = model_to_json(zoo["hadamard-pointer"])
    back = model_from_json(spec)
    np.testing.assert_allclose(back.unitary, zoo["hadamard-pointer"].unitary)
    np.testing.assert_allclose(back.phi0, zoo["hadamard-pointer"].phi0)
    assert back.labels == zoo["hadamard-pointer"].labels


def test_model_json_generator_form(tmp_path):
    spec = {"n": 2, "m": 2, "U": {"generator": "controlled-flip"},
            "labels": ["0", "1"]}
    model = model_from_json(spec)
    assert is_projection_valued(povm_from_experiment(model))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    from bohmsim.povm import load_model
    loaded = load_model(str(path))
    np.testing.assert_allclose(loaded.unitary, model.unitary)


def test_povm_json_export(zoo):
    data = povm_to_json(povm_from_experiment(zoo["controlled-flip"]))
    assert {e["label"] for e in data["entries"]} == {"0", "1"}
    arr = np.asarray(data["entries"][0]["matrix"])
    assert arr.shape == (2, 2, 2)
