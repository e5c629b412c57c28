"""Finite-dimensional experiment models and their statistics maps: every
model induces a positive-operator-valued measure over its outcome labels;
measurement-like models induce projection-valued measures and hence a
self-adjoint operator."""

import json
from dataclasses import dataclass

import numpy as np

PV_TOL = 1e-8  # idempotence and orthogonality of projection-valued entries


class NotProjectionValued(Exception):
    pass


@dataclass(frozen=True)
class ExperimentModel:
    """System (dim n) + apparatus (dim m), ready state, unitary interaction,
    and a calibration from apparatus basis indices to outcome labels."""

    n: int
    m: int
    phi0: np.ndarray
    unitary: np.ndarray
    labels: tuple  # outcome label per apparatus index

    def __post_init__(self):
        phi0 = np.asarray(self.phi0, dtype=np.complex128)
        u = np.asarray(self.unitary, dtype=np.complex128)
        if phi0.shape != (self.m,):
            raise ValueError("ready state dimension mismatch")
        if u.shape != (self.n * self.m, self.n * self.m):
            raise ValueError("interaction dimension mismatch")
        if abs(np.linalg.norm(phi0) - 1.0) > 1e-12:
            raise ValueError("ready state must be normalized")
        if np.linalg.norm(u.conj().T @ u - np.eye(self.n * self.m)) > 1e-10:
            raise ValueError("interaction must be unitary")
        if len(self.labels) != self.m:
            raise ValueError("one label per apparatus index required")
        object.__setattr__(self, "phi0", phi0)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))

    @property
    def outcome_labels(self):
        seen = []
        for l in self.labels:
            if l not in seen:
                seen.append(l)
        return tuple(seen)


@dataclass(frozen=True)
class POVMeasure:
    """Labeled positive operators summing to the identity."""

    entries: tuple  # ((label, n x n complex matrix), ...)

    def __post_init__(self):
        entries = tuple((str(lab), np.asarray(op, dtype=np.complex128))
                        for lab, op in self.entries)
        object.__setattr__(self, "entries", entries)
        labels = [lab for lab, _ in entries]
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        n = entries[0][1].shape[0]
        acc = np.zeros((n, n), dtype=np.complex128)
        for lab, op in entries:
            if op.shape != (n, n):
                raise ValueError("operator shapes differ")
            if np.linalg.norm(op - op.conj().T) > 1e-10 * max(1.0, np.sqrt(n)):
                raise ValueError(f"entry {lab!r} is not self-adjoint")
            if np.min(np.linalg.eigvalsh(0.5 * (op + op.conj().T))) < -1e-10:
                raise ValueError(f"entry {lab!r} is not positive")
            acc += op
        if np.linalg.norm(acc - np.eye(n)) > 1e-10:
            raise ValueError("entries do not sum to the identity")

    @property
    def dimension(self):
        return self.entries[0][1].shape[0]


@dataclass(frozen=True)
class OutcomeDistribution:
    probabilities: dict

    def __post_init__(self):
        p = {str(k): float(v) for k, v in self.probabilities.items()}
        if any(v < -1e-12 for v in p.values()):
            raise ValueError("negative probability")
        if abs(sum(p.values()) - 1.0) > 1e-10:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "probabilities", p)

    def __getitem__(self, label):
        return self.probabilities.get(str(label), 0.0)


def compose_initial(psi, model):
    """System (x) apparatus tensor product, system index major."""
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (model.n,):
        raise ValueError("system state dimension mismatch")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("system state must be normalized")
    return np.kron(psi, model.phi0)


def outcome_distribution(model, psi):
    """mu(label) = total |Psi_T|^2 weight on apparatus indices calibrated to
    that label, with Psi_T = U (psi x phi0)."""
    final = model.unitary @ compose_initial(psi, model)
    weights = np.abs(final.reshape(model.n, model.m)) ** 2
    probs = {lab: 0.0 for lab in model.outcome_labels}
    for j, lab in enumerate(model.labels):
        probs[lab] += float(np.sum(weights[:, j]))
    return OutcomeDistribution(probs)


def povm_from_experiment(model):
    """O_label = V^dagger P_label V with V psi = U (psi x phi0) and P_label
    the projector onto the calibrated apparatus indices."""
    v = model.unitary @ np.kron(np.eye(model.n), model.phi0.reshape(-1, 1))
    entries = []
    for lab in model.outcome_labels:
        mask = np.zeros(model.n * model.m)
        for j, l in enumerate(model.labels):
            if l == lab:
                mask[j::model.m] = 1.0
        op = v.conj().T @ (mask[:, None] * v)
        entries.append((lab, 0.5 * (op + op.conj().T)))
    return POVMeasure(tuple(entries))


def is_projection_valued(povm):
    """True iff every entry is idempotent and distinct entries annihilate,
    to PV_TOL in the spectral norm."""
    ops = [op for _, op in povm.entries]
    for op in ops:
        if np.linalg.norm(op @ op - op, 2) >= PV_TOL:
            return False
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            if np.linalg.norm(a @ b, 2) >= PV_TOL:
                return False
    return True


def operator_from_pv(povm, values):
    """Self-adjoint operator sum(value * projector) associated with a
    projection-valued measure."""
    if not is_projection_valued(povm):
        raise NotProjectionValued("entries are not orthogonal projections")
    a = np.zeros((povm.dimension, povm.dimension), dtype=np.complex128)
    for lab, op in povm.entries:
        a += float(values[lab]) * op
    return a


def repeat_agreement_probability(model, psi):
    """Probability that running the experiment twice in sequence (second run
    with a fresh apparatus) reproduces the first outcome. Equals 1 for every
    state exactly when the model is measurement-like."""
    n, m = model.n, model.m
    first = (model.unitary @ compose_initial(psi, model)).reshape(n, m)
    agree = 0.0
    for lab in model.outcome_labels:
        cols = [j for j, l in enumerate(model.labels) if l == lab]
        branch = np.zeros((n, m), dtype=np.complex128)
        branch[:, cols] = first[:, cols]
        # attach a fresh apparatus and interact it with the system factor
        joint = np.einsum("ij,k->ikj", branch, model.phi0).reshape(n * m, m)
        joint = (model.unitary @ joint).reshape(n, m, m)
        for j2, l2 in enumerate(model.labels):
            if l2 == lab:
                agree += float(np.sum(np.abs(joint[:, j2, :]) ** 2))
    return agree


# --- named generators and the bundled zoo ---------------------------------------


def _controlled_flip():
    u = np.eye(4, dtype=np.complex128)
    # flip the apparatus bit when the system occupies basis state 1
    u[[2, 3], :] = u[[3, 2], :]
    return u


def _hadamard_pointer():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return np.kron(np.eye(2), h) @ _controlled_flip()


def make_model(generator, n=2, m=2, phi0=None, labels=None, seed=None):
    """Named interaction generators: identity, controlled-flip,
    hadamard-pointer, random-unitary."""
    phi0 = np.asarray(phi0, dtype=np.complex128) if phi0 is not None else None
    if phi0 is None:
        phi0 = np.zeros(m, dtype=np.complex128)
        phi0[0] = 1.0
    if labels is None:
        labels = tuple(str(j) for j in range(m))
    if generator == "identity":
        u = np.eye(n * m, dtype=np.complex128)
    elif generator == "controlled-flip":
        if (n, m) != (2, 2):
            raise ValueError("controlled-flip is a 2x2 model")
        u = _controlled_flip()
    elif generator == "hadamard-pointer":
        if (n, m) != (2, 2):
            raise ValueError("hadamard-pointer is a 2x2 model")
        u = _hadamard_pointer()
    elif generator == "random-unitary":
        rng = np.random.default_rng(0 if seed is None else seed)
        z = rng.normal(size=(n * m, n * m)) + 1j * rng.normal(size=(n * m, n * m))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
    else:
        raise ValueError(f"unknown interaction generator {generator!r}")
    return ExperimentModel(n, m, phi0, u, labels)


def model_zoo():
    """The bundled models exercised by the verification scenario."""
    flat = np.full(2, 1.0 / np.sqrt(2.0), dtype=np.complex128)
    return {
        "identity": make_model("identity"),
        "coin-flip": make_model("identity", phi0=flat),
        "controlled-flip": make_model("controlled-flip"),
        "hadamard-pointer": make_model("hadamard-pointer"),
        "random-3x4": make_model("random-unitary", n=3, m=4, seed=11),
        "coarse-labels": make_model("random-unitary", n=2, m=4, seed=23,
                                    labels=("even", "odd", "even", "odd")),
    }


# --- JSON interfaces -------------------------------------------------------------


def _complex_pairs(arr):
    out = np.empty(arr.shape + (2,))
    out[..., 0] = arr.real
    out[..., 1] = arr.imag
    return out.tolist()


def _from_pairs(data):
    a = np.asarray(data, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def model_to_json(model):
    return {
        "n": model.n,
        "m": model.m,
        "phi0": _complex_pairs(model.phi0),
        "U": _complex_pairs(model.unitary),
        "labels": list(model.labels),
    }


def model_from_json(spec):
    n, m = int(spec["n"]), int(spec["m"])
    phi0 = _from_pairs(spec["phi0"]) if "phi0" in spec else None
    labels = tuple(spec["labels"]) if "labels" in spec else None
    u = spec["U"]
    if isinstance(u, dict):
        return make_model(u["generator"], n=n, m=m, phi0=phi0, labels=labels,
                          seed=u.get("seed"))
    return ExperimentModel(n, m,
                           phi0 if phi0 is not None else np.eye(m)[0],
                           _from_pairs(u),
                           labels if labels is not None
                           else tuple(str(j) for j in range(m)))


def povm_to_json(povm):
    return {"entries": [{"label": lab, "matrix": _complex_pairs(op)}
                        for lab, op in povm.entries]}


def load_model(path):
    with open(path) as fh:
        return model_from_json(json.load(fh))
