"""The SU(3)-like stencil operator and field generation.

Fields are complex 3-vectors on a halo-padded local lattice
(shape ``(l0+2, l1+2, l2+2, l3+2, 3)``); the operator applies one 3x3
unitary per direction with deterministic per-link phases.  Hermiticity and
positive definiteness (mass > 0) are what CG needs -- verified by the
property tests in tests/apps/test_milc.py.

The operator is *planned*: what does not depend on the field is built
once -- per lattice shape (flat gather indices of the interior and the
eight shifted views, face and halo indices, scratch planes), per seed (the
``U`` / ``U^H`` matrix stack) and per operator (the phase planes).  A field
is then one gather into ``(9, 3, sites)`` planes, one ``einsum`` over the
eight directions and one transpose back.  The contraction stays ``einsum``
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
           "ShapePlan", "shape_plan", "local_dot", "flops_per_site"]

#: Dslash-like arithmetic per site (8 matrix-vector products + sums),
#: used by the simulated-compute charge.
def flops_per_site() -> int:
    # 8 dirs * (3x3 complex mat-vec: 36 cmul + 30 cadd ~ 66 * 4 flops
    # per complex op) + vector updates.
    return 8 * 66 * 4 + 100


@functools.lru_cache(maxsize=8)
def direction_matrices(seed: int) -> np.ndarray:
    """Four deterministic unitary 3x3 matrices (QR of a random complex);
    cached per seed and read-only, since every rank builds the same four."""
    rng = np.random.default_rng(seed ^ 0x5353_5533)
    out = np.empty((4, 3, 3), dtype=np.complex128)
    for mu in range(4):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, r = np.linalg.qr(m)
        # Fix the phase so the decomposition is unique/deterministic.
        q = q * (np.conj(np.diagonal(r)) / np.abs(np.diagonal(r)))
        out[mu] = q
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def _matrix_stack(seed: int) -> np.ndarray:
    """``[U_0, U_0^H, U_1, U_1^H, ..]``: the eight hop matrices in plane
    order, ``U_mu^H[i, j] = conj(U_mu)[j, i]`` (the backward hop's
    products, unchanged)."""
    u = direction_matrices(seed)
    out = np.ascontiguousarray(
        np.stack([m for mu in range(4) for m in (u[mu], np.conj(u[mu]).T)]))
    out.flags.writeable = False
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


class ShapePlan:
    """Everything about a lattice shape that no field changes, shared by
    every operator and halo engine of that shape.

    Indices are flat offsets into a padded field's complex elements
    (``padded.reshape(-1)``).  ``gather`` is ``(9, 3, sites)``: plane 0 is
    the interior, planes ``1 + 2 mu`` / ``2 + 2 mu`` the views shifted one
    site up / down along ``mu``, each stored component-major so that the
    contraction runs along ``sites``.  ``face`` / ``halo`` map ``(dim,
    side)`` to the interior face a neighbour needs and the halo layer it
    fills, in the element order of :meth:`StencilOperator.face`.
    ``near``, ``terms`` and ``acc`` are the scratch planes of ``apply``:
    it never yields, so no two calls can be inside it at once.
    """

    def __init__(self, local: tuple) -> None:
        self.field_shape = local + (3,)
        sites = int(np.prod(local))
        padded = tuple(n + 2 for n in local) + (3,)
        ids = np.arange(np.prod(padded)).reshape(padded)
        views = [_INTERIOR]
        for mu in range(4):
            views += [_at(mu, slice(2, None)), _at(mu, slice(0, -2))]
        self.gather = np.ascontiguousarray(
            np.stack([ids[v].reshape(sites, 3).T for v in views]))
        self.face = {key: ids[sl].ravel() for key, sl in _FACE.items()}
        self.halo = {key: ids[sl].ravel() for key, sl in _HALO.items()}
        for index in [self.gather, *self.face.values(), *self.halo.values()]:
            index.flags.writeable = False
        self.near = np.empty((9, 3, sites), dtype=np.complex128)
        self.terms = np.empty((8, 3, sites), dtype=np.complex128)
        self.acc = np.empty((3, sites), dtype=np.complex128)


@functools.lru_cache(maxsize=8)
def shape_plan(local: tuple) -> ShapePlan:
    """The one :class:`ShapePlan` of lattice shape ``local``."""
    return ShapePlan(local)


class StencilOperator:
    """A = (8 + mass) I - hopping terms; acts on padded fields.

    Everything ``apply`` needs but the field is made once: the shape's
    :class:`ShapePlan`, the seed's matrix stack and, per operator, the
    ``(8, 1, sites)`` phase planes -- ``e^{i theta_mu}`` on the site for
    the forward hop, its conjugate one step back for the backward one.
    Only those slices of the phase table are exponentiated, and the planes
    are the only copy of the phases the operator keeps.
    """

    def __init__(self, decomp: LatticeDecomp, rank: int, mass: float,
                 seed: int) -> None:
        self.decomp = decomp
        self.rank = rank
        self.mass = mass
        self.l = decomp.local
        self.plan = shape_plan(tuple(self.l))
        self.mats = _matrix_stack(seed)
        self._face_shape = [
            tuple(1 if d == dim else n for d, n in enumerate(self.l)) + (3,)
            for dim in range(4)]
        theta = link_phases(decomp, rank)
        self._phase = np.empty((8, 1, decomp.local_sites),
                               dtype=np.complex128)
        for mu in range(4):
            self._phase[2 * mu, 0] = np.exp(
                1j * theta[mu][_INTERIOR]).ravel()
            self._phase[2 * mu + 1, 0] = np.conj(np.exp(
                1j * theta[mu][_at(mu, slice(0, -2))])).ravel()

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

    # -- halo faces (one face at a time; the engines use the plan) ---------
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

        One gather makes the interior and the eight shifted views
        contiguous planes, one ``einsum`` contracts all eight with their
        matrices (the same products in the same ``j`` order as eight
        calls on ``(sites, 3)`` views), the phases multiply in place with
        the operand order kept, and the terms are combined in the original
        order.  The result is a fresh array: the solver keeps it across
        yields while other ranks' operators run.
        """
        plan = self.plan
        near = plan.near
        np.take(padded.reshape(-1), plan.gather, out=near, mode="clip")
        terms = np.einsum("dij,djs->dis", self.mats, near[1:],
                          out=plan.terms)
        np.multiply(self._phase, terms, out=terms)
        out = np.multiply(8.0 + self.mass, near[0], out=plan.acc)
        for mu in range(4):
            fwd = terms[2 * mu]
            np.add(fwd, terms[2 * mu + 1], out=fwd)
            out -= fwd
        return np.ascontiguousarray(out.T).reshape(plan.field_shape)


def local_dot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a, b> over interior fields."""
    return complex(np.vdot(a, b))
