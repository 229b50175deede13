"""The SU(3)-like stencil operator and field generation.

Fields are complex 3-vectors on a halo-padded local lattice
(shape ``(l0+2, l1+2, l2+2, l3+2, 3)``); the operator applies one 3x3
unitary per direction with deterministic per-link phases.  Hermiticity and
positive definiteness (mass > 0) are what CG needs -- verified by the
property tests in tests/apps/test_milc.py.

The operator is *planned*: what does not depend on the field (shifted-view
indices, ``U`` and its conjugate, interior phase tables) is built once per
operator, and ``apply`` gathers each neighbour view into one contiguous
scratch buffer before contracting it.  The contraction stays ``einsum``
summing ``j = 0, 1, 2`` per output component and the terms are combined in
the original order, so results are bit-identical to the unplanned stencil
(``_reference_apply`` in the tests): the CG residual and checksum are part
of every run's digest, which is why a BLAS ``matmul`` -- faster, but a
different summation in the last bits -- is not used.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.apps.milc.lattice import LatticeDecomp, link_phases

__all__ = ["direction_matrices", "make_source", "StencilOperator",
           "local_dot", "flops_per_site"]

#: Dslash-like arithmetic per site (8 matrix-vector products + sums),
#: used by the simulated-compute charge.
def flops_per_site() -> int:
    # 8 dirs * (3x3 complex mat-vec: 36 cmul + 30 cadd ~ 66 * 4 flops
    # per complex op) + vector updates.
    return 8 * 66 * 4 + 100


def direction_matrices(seed: int) -> np.ndarray:
    """Four deterministic unitary 3x3 matrices (QR of a random complex)."""
    rng = np.random.default_rng(seed ^ 0x5353_5533)
    out = np.empty((4, 3, 3), dtype=np.complex128)
    for mu in range(4):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, r = np.linalg.qr(m)
        # Fix the phase so the decomposition is unique/deterministic.
        q = q * (np.conj(np.diagonal(r)) / np.abs(np.diagonal(r)))
        out[mu] = q
    return out


def make_source(decomp: LatticeDecomp, rank: int, seed: int) -> np.ndarray:
    """Deterministic b(s) from *global* coordinates (interior only)."""
    l = decomp.local
    org = decomp.origin(rank)
    coords = [np.arange(l[d]) + org[d] for d in range(4)]
    x0, x1, x2, x3 = np.meshgrid(*coords, indexing="ij")
    h = (x0 * 2246822519 ^ x1 * 3266489917 ^ x2 * 668265263
         ^ x3 * 374761393 ^ seed) & 0xFFFFFF
    base = h / float(1 << 24)
    out = np.empty(tuple(l) + (3,), dtype=np.complex128)
    for c in range(3):
        out[..., c] = np.sin(base * (c + 1) * 6.28) + 1j * np.cos(
            base * (c + 2) * 3.14)
    return out


_INTERIOR = (slice(1, -1),) * 4


def _at(dim: int, sl: slice) -> tuple:
    """Index of the interior with dimension ``dim`` replaced by ``sl``."""
    return _INTERIOR[:dim] + (sl,) + _INTERIOR[dim + 1:]


#: Per (dim, side): the interior face a neighbour needs and the halo
#: layer it fills (side -1: low).  Relative slices, so one table serves
#: every lattice shape.
_FACE = {(dim, side): _at(dim, slice(1, 2) if side < 0 else slice(-2, -1))
         for dim in range(4) for side in (-1, +1)}
_HALO = {(dim, side): _at(dim, slice(0, 1) if side < 0 else slice(-1, None))
         for dim in range(4) for side in (-1, +1)}


@functools.lru_cache(maxsize=8)
def _scratch(local: tuple) -> np.ndarray:
    """The one contiguous neighbour buffer for lattices of shape
    ``local``, shared by every operator of that shape: ``apply`` never
    yields, so no two calls can be inside it at once."""
    return np.empty(local + (3,), dtype=np.complex128)


class StencilOperator:
    """A = (8 + mass) I - hopping terms; acts on padded fields.

    Everything ``apply`` needs but the field is made once here: per
    direction the two shifted-view indices, ``U`` and ``conj(U)``, and the
    two interior phase tables (``e^{i theta}`` on the site, its conjugate
    one step back), contiguous and already ``[..., None]``.  They are the
    only copy of the phases the operator keeps.
    """

    def __init__(self, decomp: LatticeDecomp, rank: int, mass: float,
                 seed: int) -> None:
        self.decomp = decomp
        self.rank = rank
        self.mass = mass
        self.U = direction_matrices(seed)
        self.l = decomp.local
        self._face_shape = [
            tuple(1 if d == dim else n for d, n in enumerate(self.l)) + (3,)
            for dim in range(4)]
        phase = np.exp(1j * link_phases(decomp, rank))  # e^{i theta}, padded
        self._hops = []
        for mu in range(4):
            plus = _at(mu, slice(2, None))
            minus = _at(mu, slice(0, -2))
            self._hops.append((
                plus, minus, self.U[mu], np.conj(self.U[mu]),
                np.ascontiguousarray(phase[mu][_INTERIOR][..., None]),
                np.ascontiguousarray(np.conj(phase[mu][minus])[..., None])))
        self._near = _scratch(tuple(self.l))

    def padded(self, interior: np.ndarray) -> np.ndarray:
        """Allocate a halo-padded field holding ``interior``."""
        l = self.l
        out = np.zeros((l[0] + 2, l[1] + 2, l[2] + 2, l[3] + 2, 3),
                       dtype=np.complex128)
        out[_INTERIOR] = interior
        return out

    @staticmethod
    def interior(padded: np.ndarray) -> np.ndarray:
        return padded[_INTERIOR]

    # -- halo faces -------------------------------------------------------
    def face(self, padded: np.ndarray, dim: int, side: int) -> np.ndarray:
        """The interior face a neighbor needs (side -1: low, +1: high)."""
        return np.ascontiguousarray(padded[_FACE[dim, side]])

    def set_halo(self, padded: np.ndarray, dim: int, side: int,
                 data: np.ndarray) -> None:
        """Install a received face into the halo (side -1: low halo)."""
        padded[_HALO[dim, side]] = data.reshape(self._face_shape[dim])

    # -- the operator ------------------------------------------------------
    def apply(self, padded: np.ndarray) -> np.ndarray:
        """A v on the interior; halos of ``padded`` must be current.

        Each shifted neighbour view is copied into the contiguous scratch
        before its SU(3) contraction (``einsum`` runs 2.5x faster there
        than on the strided view, with the same products in the same
        order).  The result is a fresh array: the solver keeps it across
        yields while other ranks' operators run.
        """
        out = (8.0 + self.mass) * padded[_INTERIOR]
        near = self._near
        for plus, minus, u, u_conj, ph, ph_back in self._hops:
            near[...] = padded[plus]
            fwd = np.einsum("ij,...j->...i", u, near)
            near[...] = padded[minus]
            bwd = np.einsum("ji,...j->...i", u_conj, near)
            out -= ph * fwd + ph_back * bwd
        return out


def local_dot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a, b> over interior fields."""
    return complex(np.vdot(a, b))
