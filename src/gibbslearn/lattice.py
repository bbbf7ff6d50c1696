"""Lattices, the canonical local Pauli basis, and dense Hamiltonian assembly.

The basis enumerated here is the coordinate system for everything else in the
package: a Hamiltonian is a real coefficient vector over it, measured marginals
are indexed by it, and the solver optimizes over it.  Enumeration order is
deterministic, so an index is a stable identifier across processes and runs.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .reporting import FLOATS, POSITIVE_INT, REQUIRED, check_config, nonempty_list_of

__all__ = [
    "LatticeSpec",
    "LocalBasisOp",
    "OperatorBasis",
    "HamiltonianModel",
    "enumerate_basis",
    "random_chain",
    "instance_model",
    "to_dense",
    "assemble_hamiltonian",
    "PauliTable",
    "basis_stack",
    "check_dense_budget",
    "pauli_matrix",
    "LATTICE_KEYS",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

PAULI_LETTERS = "XYZ"
CELL_SITES = 3  # sites a cell's z-masks may cover: at most 2^3 parts per product

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def check_dense_budget(n_matrices: int, n_sites: int) -> None:
    """Refuse to hold `n_matrices` dense complex 2^n x 2^n matrices at once.

    The one size limit of the package: callers pass what they are about to
    allocate (k * 4^n * 16 bytes) before allocating it, and the request fails
    when it exceeds the machine's physical memory.
    """
    need = n_matrices * 4**n_sites * 16
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"memory budget exceeded: {n_matrices} x 4^{n_sites} complex entries "
            f"need {need / 1e9:.1f} GB, but this machine has {have / 1e9:.1f} GB "
            "of physical memory"
        )


@dataclass(frozen=True)
class LatticeSpec:
    """A finite D-dimensional grid of qubits with Manhattan distance.

    Sites are indexed 0..n-1 in row-major (C) order over the coordinate grid.
    Open boundaries by default; `periodic=True` wraps every axis.
    """

    dimension: int
    side_lengths: tuple[int, ...]
    periodic: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "side_lengths", tuple(int(s) for s in self.side_lengths))
        if self.dimension < 1:
            raise ValueError(f"lattice dimension must be >= 1, got {self.dimension}")
        if len(self.side_lengths) != self.dimension:
            raise ValueError(
                f"expected {self.dimension} side lengths, got {len(self.side_lengths)}"
            )
        if any(s < 1 for s in self.side_lengths):
            raise ValueError(f"side lengths must be positive, got {self.side_lengths}")

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.side_lengths))

    def site_coords(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.n_sites:
            raise ValueError(f"site index {index} out of range for n={self.n_sites}")
        coords = []
        for size in reversed(self.side_lengths):
            coords.append(index % size)
            index //= size
        return tuple(reversed(coords))

    def distance(self, i: int, j: int) -> int:
        """Manhattan distance between two sites, wrapping axes when periodic."""
        ci, cj = self.site_coords(i), self.site_coords(j)
        total = 0
        for a, b, size in zip(ci, cj, self.side_lengths):
            d = abs(a - b)
            if self.periodic:
                d = min(d, size - d)
            total += d
        return total

    def ball(self, radius: int, center: int) -> tuple[int, ...]:
        """All sites at Manhattan distance <= radius from `center`, ascending."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return tuple(
            j for j in range(self.n_sites) if self.distance(center, j) <= radius
        )


@dataclass(frozen=True)
class LocalBasisOp:
    """One Pauli-string basis element: a non-identity letter on each support site.

    Dense form is a tensor product of single-site Paulis (identity off-support),
    hence Hermitian, traceless, unit operator norm, and squared trace 2^n.
    """

    support: tuple[int, ...]
    letters: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(int(s) for s in self.support))
        if len(self.support) == 0:
            raise ValueError("support must be nonempty (identity is not a basis element)")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError(f"support must be strictly increasing, got {self.support}")
        if len(self.letters) != len(self.support):
            raise ValueError("need exactly one letter per support site")
        bad = set(self.letters) - set(PAULI_LETTERS)
        if bad:
            raise ValueError(f"letters must be drawn from {PAULI_LETTERS}, got {bad}")

    @property
    def weight(self) -> int:
        return len(self.support)

    def word(self, n_sites: int) -> str:
        """One letter per site of an n-site lattice, 'I' off the support."""
        letters = dict(zip(self.support, self.letters))
        return "".join(letters.get(site, "I") for site in range(n_sites))


@dataclass(frozen=True)
class OperatorBasis:
    """An enumerated local operator basis over a lattice.

    `ops` is the canonical order: supports ascending as tuples, then letter
    strings in X<Y<Z product order.  m == len(ops).
    """

    lattice: LatticeSpec
    kappa: int
    ops: tuple[LocalBasisOp, ...]

    @property
    def m(self) -> int:
        return len(self.ops)


@dataclass(frozen=True, eq=False)
class HamiltonianModel:
    """Coefficient vector over an operator basis; H(mu) = sum_l mu_l E_l.

    Coefficients are capped at unit magnitude on construction, matching the
    normalization under which all downstream error bounds are stated.
    """

    basis: OperatorBasis
    mu: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mu = np.array(self.mu, dtype=float)
        if mu.ndim != 1 or mu.shape[0] != self.basis.m:
            raise ValueError(
                f"mu has length {mu.shape if mu.ndim != 1 else mu.shape[0]}, "
                f"basis has m={self.basis.m}"
            )
        if not np.all(np.abs(mu) <= 1.0 + 1e-12):  # NaN fails this too
            raise ValueError(
                f"max|mu| = {np.max(np.abs(mu)):.6g}; coefficients must lie in [-1, 1]"
            )
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)

    @property
    def n_sites(self) -> int:
        return self.basis.lattice.n_sites


def _support_ok(lattice: LatticeSpec, support: tuple[int, ...], kappa: int) -> bool:
    # <= kappa sites, all pairwise within distance kappa-1 (kappa sites "across")
    if len(support) > kappa:
        return False
    return all(
        lattice.distance(i, j) <= kappa - 1 for i, j in itertools.combinations(support, 2)
    )


def enumerate_basis(lattice: LatticeSpec, kappa: int) -> OperatorBasis:
    """Enumerate every local Pauli string once, in canonical order.

    A support is admissible when it has at most `kappa` sites and diameter at
    most kappa-1; this reproduces the counts 6 (n=2, kappa=1), 15 (n=2,
    kappa=2), 27 (3-chain, kappa=2).
    """
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    n = lattice.n_sites
    if kappa > n:
        raise ValueError(
            f"locality exceeds system size: kappa={kappa} > n={n}"
        )

    supports: list[tuple[int, ...]] = []
    for anchor in range(n):
        # Anchor at the minimum site index; the rest of the support sits in its
        # (kappa-1)-ball, so we never scan all 2^n subsets.
        nearby = [j for j in lattice.ball(kappa - 1, anchor) if j > anchor]
        for size in range(0, kappa):
            for rest in itertools.combinations(nearby, size):
                support = (anchor, *rest)
                if _support_ok(lattice, support, kappa):
                    supports.append(support)
    supports.sort()

    ops: list[LocalBasisOp] = []
    for support in supports:
        for letters in itertools.product(PAULI_LETTERS, repeat=len(support)):
            ops.append(LocalBasisOp(support, "".join(letters)))
    return OperatorBasis(lattice, kappa, tuple(ops))


def random_chain(n: int, kappa: int, seed, scale: float = 1.0) -> HamiltonianModel:
    """Open n-site chain with mu uniform in [-scale, scale].

    `seed` is anything `numpy.random.default_rng` takes; a Generator is drawn
    from and advanced, so a caller can keep drawing after the coefficients.
    """
    basis = enumerate_basis(LatticeSpec(dimension=1, side_lengths=(n,)), kappa)
    mu = np.random.default_rng(seed).uniform(-1.0, 1.0, basis.m) * scale
    return HamiltonianModel(basis=basis, mu=mu)


def instance_model(
    where: str, mu, basis: OperatorBasis, rng: np.random.Generator
) -> HamiltonianModel:
    """The model over basis with coefficients mu: "random" draws them
    uniformly from [-1, 1] with rng, a list of m floats gives them."""
    m = basis.m
    hint = f"'random' or list of {m} floats"
    kind = (lambda v: v == "random" or (FLOATS[0](v) and len(v) == m), hint)
    check_config(where, {"mu": mu}, {"mu": (kind, REQUIRED)})
    return HamiltonianModel(basis=basis, mu=rng.uniform(-1.0, 1.0, m) if mu == "random" else mu)


def pauli_matrix(letters_by_site: Iterable[str]) -> np.ndarray:
    """Dense tensor product of the given single-site letters (I/X/Y/Z)."""
    out = np.array([[1.0 + 0.0j]])
    for letter in letters_by_site:
        out = np.kron(out, _PAULI[letter])
    return out


def to_dense(op: LocalBasisOp, lattice: LatticeSpec) -> np.ndarray:
    """Dense 2^n x 2^n matrix for one basis element."""
    n = lattice.n_sites
    if any(s >= n for s in op.support):
        raise ValueError(f"support {op.support} does not fit a lattice with n={n}")
    check_dense_budget(1, n)
    return pauli_matrix(op.word(n))


class PauliTable:
    """Symplectic form of an operator basis: E_l |c> = phases[l, c] |c ^ x[l]>.

    Bit n-1-s of a mask or a basis index c belongs to site s, the order of
    `pauli_matrix`.  x marks X and Y sites, z marks Y and Z sites, and
    phases[l, c] = i^{#Y} (-1)^{|c & z|} (Aaronson-Gottesman, quant-ph/0406196):
    m * 2^n entries in place of m dense matrices.  Only this class reads them.
    """

    def __init__(self, basis: OperatorBasis):
        n = basis.lattice.n_sites
        words = [op.word(n) for op in basis.ops]
        self._x, self._z = (
            np.array([int(w.translate(bits), 2) for w in words], dtype=np.int64)
            for bits in (str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011"))
        )
        self.n_sites = n
        self._cols = np.arange(2**n)
        signs = (-1.0) ** np.bitwise_count(self._cols & self._z[:, None])
        self._phases = np.array([1, 1j, -1, -1j])[[w.count("Y") % 4 for w in words], None] * signs
        # H[c ^ x, c] collects every element with that x-mask: one scatter per mask
        masks, owner = np.unique(self._x, return_inverse=True)
        self._rows = self._cols ^ masks[:, None]
        self._select = (owner == np.arange(masks.size)[:, None]).astype(float)
        self._cells = self._pack_cells(owner)
        self._parts = max((len(cell[2]) for cell in self._cells if cell[2] is not None), default=0)
        arrays = [self._x, self._z, self._cols, self._phases, self._rows, self._select]
        arrays += {id(a): a for cell in self._cells for a in cell[1:] if a is not None}.values()
        self.nbytes = sum(a.nbytes for a in arrays)
        # the one rounding rule for the table: its bytes in whole dense 2^n x 2^n matrices
        self.matrices = -(-self.nbytes // (16 * 4**n))

    def _pack_cells(self, owner: np.ndarray) -> list[tuple]:
        """Group the elements into the cells that `sandwich` forms with one product each.

        A cell is one x-mask and z-masks whose union S covers at most
        CELL_SITES sites, packed first-fit in basis order; an element whose
        own z-mask is larger, or that finds no partner, forms a cell alone.
        A lone element is (l, columns c ^ x, None, None).  A cell of k
        elements is (members, gather, order, signs): row s of `order` holds
        the basis indices c whose bits on S read s, in ascending order,
        `gather` is order ^ x, and signs[j, s] = i^{#Y} (-1)^{|s & z_j|} with
        z_j read on S, so that phases[l, c] = signs[j, s] for c in row s.
        Cells come sorted by S, and cells with the same S share `order`.
        """
        by_mask: dict[int, list[list]] = {}  # x-mask index -> its cells as [z-union, members]
        for l, (mask, z) in enumerate(zip(owner.tolist(), self._z.tolist())):
            packed = by_mask.setdefault(mask, [])
            for cell in packed:
                if (cell[0] | z).bit_count() <= CELL_SITES:
                    cell[0] |= z
                    cell[1].append(l)
                    break
            else:
                packed.append([z, [l]])
        orders: dict[int, np.ndarray] = {}
        cells = []
        for union, members in sorted((c for p in by_mask.values() for c in p), key=lambda c: c[0]):
            x = int(self._x[members[0]])
            if len(members) == 1:
                cells.append((members[0], self._cols ^ x, None, None))
                continue
            bits = [b for b in range(self.n_sites) if union >> b & 1]

            def on_union(v):  # the bits of v on S, packed into the low |S| bits
                return sum(((v >> b) & 1) << j for j, b in enumerate(bits))

            if union not in orders:
                orders[union] = np.argsort(on_union(self._cols), kind="stable").reshape(
                    2 ** len(bits), -1
                )
            order = orders[union]
            parity = np.bitwise_count(on_union(self._z[members])[:, None] & np.arange(len(order)))
            signs = self._phases[members, :1] * (-1.0) ** parity
            cells.append((np.array(members), order ^ x, order, signs))
        return cells

    def combine(self, coeffs) -> np.ndarray:
        """Dense sum_l c_l E_l."""
        out = np.zeros((self._cols.size,) * 2, dtype=complex)
        out[self._rows, self._cols] = (self._select * np.asarray(coeffs, float)) @ self._phases
        return out

    def expectations(self, rho: np.ndarray) -> np.ndarray:
        """Tr[E_l rho] for every l, one 2^n gather each."""
        gathered = rho[self._cols, self._cols ^ self._x[:, None]]  # rho[c, c ^ x_l]
        return np.einsum("lc,lc->l", self._phases, gathered).real

    def sandwich(self, W: np.ndarray, V: np.ndarray) -> np.ndarray:
        """W E_l V for every l, as an (m, rows of W, columns of V) array.

        Column c of W E_l is phases[l, c] times column c ^ x_l of W.  Within a
        cell the phases depend on c only through its bits s on S, so one
        product, split by s into the parts P_s = W[:, C_s ^ x] V[C_s], gives
        every member as sum_s signs[j, s] P_s.  The parts hold at most
        2^CELL_SITES entries per entry of W V: in the Hessian's slabs,
        128 * 2^n, which is one 2^n x 2^n matrix from n = 7 on.
        """
        out = np.empty((self._x.size, W.shape[0], V.shape[1]), dtype=complex)
        scratch = np.empty(self._parts * W.shape[0] * V.shape[1], dtype=complex)
        order = rows_of_v = None
        for members, gather, cell_order, signs in self._cells:
            if cell_order is None:  # a lone element: its phases fold into W's columns
                np.matmul(W[:, gather] * self._phases[members], V, out=out[members])
                continue
            if cell_order is not order:
                rows_of_v = None  # free the last S's rows before gathering the next
                order, rows_of_v = cell_order, V[cell_order]
            P = scratch[: len(order) * out[0].size].reshape(len(order), *out.shape[1:])
            np.matmul(W[:, gather].transpose(1, 0, 2), rows_of_v, out=P)
            flat = P.reshape(len(order), -1)
            for l, sign in zip(members, signs):
                np.matmul(sign, flat, out=out[l].reshape(-1))
        return out

    def anticommutation(self) -> np.ndarray:
        """(m, m) boolean matrix: True where E_k and E_l anticommute."""
        x, z = self._x, self._z
        return (np.bitwise_count(x[:, None] & z) + np.bitwise_count(z[:, None] & x)) % 2 == 1

    def group_law(self, group: Sequence[int], rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact joint outcome law of a commuting group on rho (Gokhale et al., arXiv:1907.13623).

        Generators are the members GF(2)-independent of the earlier members;
        each member is a sign times a product of generators.  Returns (probs,
        values): probs[t] is the probability of generator outcome t (bit j
        set: generator j reads -1), values[i, t] the reading of member i.
        """
        vectors = [(int(self._x[k]) << self.n_sites) | int(self._z[k]) for k in group]
        span = {0: 0}  # (x|z) vector -> the generator subset whose product it is
        generators: list[int] = []
        for k, vec in zip(group, vectors):
            if vec not in span:
                bit = 1 << len(generators)
                span.update({v ^ vec: subset | bit for v, subset in span.items()})
                generators.append(k)
        subsets = np.array([span[vec] for vec in vectors], dtype=np.int64)

        # expectations of all 2^r generator products, each from the previous
        # one in Gray-code order at O(2^n), then a Walsh-Hadamard transform
        size = 2 ** len(generators)
        means = np.ones(size)
        leading = np.ones(size, dtype=complex)  # phase at |0> of each product
        x_mask, phase = 0, np.ones(self._cols.size, dtype=complex)
        for step in range(1, size):
            g = generators[(step & -step).bit_length() - 1]
            # (P E_g)|c> = phases_g[c] phases_P[c ^ x_g] |c ^ x_g ^ x_P>
            phase = phase[self._cols ^ self._x[g]] * self._phases[g]
            x_mask ^= int(self._x[g])
            subset = step ^ (step >> 1)
            leading[subset] = phase[0]
            means[subset] = np.dot(phase, rho[self._cols, self._cols ^ x_mask]).real
        half = 1
        while half < size:
            pairs = means.reshape(-1, 2, half)
            pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
            half *= 2

        signs = (leading[subsets] * self._phases[list(group), 0].conj()).real
        parity = np.bitwise_count(np.arange(size) & subsets[:, None])
        return means / size, signs[:, None] * (-1.0) ** parity


@lru_cache(maxsize=8)
def basis_stack(basis: OperatorBasis) -> PauliTable:
    """The basis as its PauliTable, the package's one operator form.

    Cached: built at most once per basis, then asked by every hot loop.  Its
    check is an estimate made before the build; the stages that hold the
    built table count its own `matrices` (`gibbs.spectrum`, `qbp.hessian_matrices`).
    """
    n = basis.lattice.n_sites
    # the m rows of 2^n phases, plus the dense matrix every table operation reads or writes
    check_dense_budget(1 + -(-basis.m // 2**n), n)
    return PauliTable(basis)


def assemble_hamiltonian(model: HamiltonianModel) -> np.ndarray:
    """Dense H(mu) = sum_l mu_l E_l."""
    return basis_stack(model.basis).combine(model.mu)


# ---------------------------------------------------------------------------
# JSON round trip: {lattice: LATTICE_KEYS, kappa, mu: [float]}
# ---------------------------------------------------------------------------

# The lattice object of model.json and of gen's config: LatticeSpec's fields.
LATTICE_KEYS = {
    "dimension": (POSITIVE_INT, REQUIRED),
    "side_lengths": ((nonempty_list_of(POSITIVE_INT[0]), "list of ints >= 1"), REQUIRED),
    "periodic": ((lambda v: isinstance(v, bool), "bool"), False),
}
MODEL_KEYS = {
    "lattice": (LATTICE_KEYS, REQUIRED),
    "kappa": (POSITIVE_INT, REQUIRED),
    "mu": (FLOATS, REQUIRED),
}


def model_to_dict(model: HamiltonianModel) -> dict:
    lat = model.basis.lattice
    return {
        "lattice": {**asdict(lat), "side_lengths": list(lat.side_lengths)},
        "kappa": model.basis.kappa,
        "mu": [float(x) for x in model.mu],
    }


def model_from_dict(payload: dict, where: str = "model file") -> HamiltonianModel:
    """The model of a `model_to_dict` payload; ValueError names `where` and what is malformed."""
    values = check_config(where, payload, MODEL_KEYS)
    basis = enumerate_basis(LatticeSpec(**values["lattice"]), values["kappa"])
    return HamiltonianModel(basis, values["mu"])


def save_model(model: HamiltonianModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> HamiltonianModel:
    """The model stored at path; the ValueError of a malformed file names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid model file {path}: not JSON ({exc})") from None
    return model_from_dict(payload, f"model file {path}")
