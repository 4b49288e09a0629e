"""Independent brute-force oracle for the two-source network.

Deliberately different machinery from the package: single-photon modes are
enumerated over a fixed path universe and every element is an explicit dense
matrix acting on a (signal x idler) amplitude matrix.  Only the physical
conventions (the beamsplitter and wave-plate matrices) are shared, since
those are the contract under test.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

PATHS = ["a", "r", "b", "e", "f", "e'", "f'", "o", "o'", "b'"]
POLS = ["H", "V"]
TAGS = ["M", "1", "2"]
MODES = [(p, pol, t) for p in PATHS for pol in POLS for t in TAGS]
IDX = {m: i for i, m in enumerate(MODES)}
N = len(MODES)

BS_MATS = {
    "symmetric": np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0),
    "hadamard": np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
}


def _eye() -> np.ndarray:
    return np.eye(N, dtype=complex)


def bs_single(path_in: str, out_t: str, out_r: str, convention: str = "symmetric") -> np.ndarray:
    m = BS_MATS[convention]
    mat = _eye()
    for pol, t in itertools.product(POLS, TAGS):
        src = IDX[(path_in, pol, t)]
        mat[src, src] = 0.0
        mat[IDX[(out_t, pol, t)], src] = m[0, 0]
        mat[IDX[(out_r, pol, t)], src] = m[1, 0]
    return mat


def bs_dual(in_a: str, in_b: str, out_a: str, out_b: str, convention: str = "symmetric") -> np.ndarray:
    m = BS_MATS[convention]
    mat = _eye()
    for pol, t in itertools.product(POLS, TAGS):
        a, b = IDX[(in_a, pol, t)], IDX[(in_b, pol, t)]
        oa, ob = IDX[(out_a, pol, t)], IDX[(out_b, pol, t)]
        mat[a, a] = 0.0
        mat[b, b] = 0.0
        mat[oa, a] = m[0, 0]
        mat[ob, a] = m[1, 0]
        mat[oa, b] = m[0, 1]
        mat[ob, b] = m[1, 1]
    return mat


def hwp_on(path: str, theta: float) -> np.ndarray:
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    mat = _eye()
    for t in TAGS:
        h, v = IDX[(path, "H", t)], IDX[(path, "V", t)]
        mat[h, h] = c
        mat[v, h] = -s
        mat[h, v] = -s
        mat[v, v] = -c
    return mat


def qwp_on(path: str, q: float) -> np.ndarray:
    c, s = math.cos(2 * q), math.sin(2 * q)
    mat = _eye()
    root = 1.0 / math.sqrt(2.0)
    for t in TAGS:
        h, v = IDX[(path, "H", t)], IDX[(path, "V", t)]
        mat[h, h] = (1j - c) * root
        mat[v, h] = s * root
        mat[h, v] = s * root
        mat[v, v] = (1j + c) * root
    return mat


def pol_unitary_on(path: str, u: np.ndarray) -> np.ndarray:
    """Any 2x2 ``u`` acting on the (H, V) amplitude column at ``path``, every tag."""
    mat = _eye()
    for t in TAGS:
        h, v = IDX[(path, "H", t)], IDX[(path, "V", t)]
        mat[h, h], mat[h, v] = u[0, 0], u[0, 1]
        mat[v, h], mat[v, v] = u[1, 0], u[1, 1]
    return mat


def relabel(path_from: str, path_to: str, pol_filter: str | None = None) -> np.ndarray:
    mat = _eye()
    for pol, t in itertools.product(POLS, TAGS):
        if pol_filter is not None and pol != pol_filter:
            continue
        src = IDX[(path_from, pol, t)]
        mat[src, src] = 0.0
        mat[IDX[(path_to, pol, t)], src] += 1.0
    return mat


def merge_tags(path: str, pol: str) -> np.ndarray:
    mat = _eye()
    for t in ("1", "2"):
        src = IDX[(path, pol, t)]
        mat[src, src] = 0.0
        mat[IDX[(path, pol, "M")], src] += 1.0
    return mat


def prepare(path: str, alpha: float, beta: float, gamma: float, alpha_phase: float = 0.0) -> np.ndarray:
    """Raw V -> alpha e^{i alpha_phase} H + beta e^{i gamma} V scatter."""
    mat = _eye()
    for t in TAGS:
        h, v = IDX[(path, "H", t)], IDX[(path, "V", t)]
        mat[v, v] = beta * np.exp(1j * gamma)
        mat[h, v] = alpha * np.exp(1j * alpha_phase)
    return mat


def phase_on(path: str, phi: float) -> np.ndarray:
    mat = _eye()
    for pol, t in itertools.product(POLS, TAGS):
        i = IDX[(path, pol, t)]
        mat[i, i] = np.exp(1j * phi)
    return mat


class DenseState:
    """Amplitude matrix S[signal mode, idler mode]."""

    def __init__(self) -> None:
        self.mat = np.zeros((N, N), dtype=complex)

    def seed_pair(self, path: str, tag: str, amp: complex) -> None:
        self.mat[IDX[(path, "V", tag)], IDX[(path, "V", tag)]] += amp

    def signal(self, op: np.ndarray) -> None:
        self.mat = op @ self.mat

    def idler(self, op: np.ndarray) -> None:
        self.mat = self.mat @ op.T

    def both(self, op: np.ndarray) -> None:
        self.mat = op @ self.mat @ op.T

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.mat) ** 2))

    def counts(self, path: str) -> tuple[float, float]:
        nh = sum(float(np.sum(np.abs(self.mat[IDX[(path, "H", t)], :]) ** 2)) for t in TAGS)
        nv = sum(float(np.sum(np.abs(self.mat[IDX[(path, "V", t)], :]) ** 2)) for t in TAGS)
        return nh, nv

    def amplitude(self, sig: tuple[str, str, str], idl: tuple[str, str, str]) -> complex:
        return complex(self.mat[IDX[sig], IDX[idl]])


def run_fig1(
    alpha1: float,
    beta1: float,
    gamma: float,
    alpha2: float,
    beta2: float,
    phi: float,
    theta: float,
    *,
    merge: bool = True,
    convention: str = "symmetric",
    alpha1_phase: float = 0.0,
) -> DenseState:
    st = DenseState()
    st.seed_pair("a", "1", 1.0)
    st.seed_pair("r", "2", 1.0)
    st.idler(prepare("a", alpha1, beta1, gamma, alpha1_phase))
    st.signal(relabel("a", "b"))
    st.idler(relabel("a", "r"))
    st.signal(prepare("b", alpha2, beta2, 0.0))
    st.signal(phase_on("r", phi))
    if merge:
        st.idler(merge_tags("r", "V"))
        st.signal(merge_tags("b", "V"))
        st.signal(merge_tags("r", "V"))
    st.both(bs_single("r", "e", "f", convention))
    st.both(hwp_on("f", theta))
    st.both(bs_dual("e", "f", "e'", "f'", convention))
    st.signal(relabel("f'", "o"))
    st.both(bs_dual("o", "b", "o'", "b'", convention))
    return st
