"""Simulated measurement of local marginals from copies of a Gibbs state.

A plan partitions the basis into commuting groups; each shot consumes one copy
of the state and yields a joint outcome for every operator in one group.  At
desk scale the joint distribution is computed exactly from the Pauli algebra
(`PauliTable.group_law`), so the simulator is a faithful sampler of the ideal
projective measurement, not a circuit-level emulation.  The groups read the
ensemble's one dense state `GibbsEnsemble.rho`, as `gibbs.marginals` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gibbs import GibbsEnsemble
from .lattice import OperatorBasis, basis_stack

__all__ = [
    "MeasurementPlan",
    "MarginalEstimates",
    "SCHEMES",
    "build_plan",
    "hoeffding_radius",
    "sample_outcomes",
]

SCHEMES = ("direct", "grouped", "exact")
DEFAULT_DELTA_FAIL = 0.05


@dataclass(frozen=True)
class MeasurementPlan:
    """Partition of basis indices into mutually commuting groups plus shot counts."""

    basis: OperatorBasis
    scheme: str
    groups: tuple[tuple[int, ...], ...]
    shots_per_group: int
    n_total: int

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.scheme == "exact":
            # no sampling happens, so there is no partition to validate
            if self.groups or self.shots_per_group or self.n_total:
                raise ValueError("an exact plan must be empty")
            return
        if self.shots_per_group < 1:
            raise ValueError(
                f"{self.n_total} copies cannot give each of {len(self.groups)} groups one shot"
            )
        seen: set[int] = set()
        for group in self.groups:
            for idx in group:
                if idx in seen:
                    raise ValueError(f"operator index {idx} appears in two groups")
                seen.add(idx)
        if seen != set(range(self.basis.m)):
            raise ValueError("groups must cover every basis index exactly once")
        anti = basis_stack(self.basis).anticommutation()
        for group in self.groups:
            clashes = np.argwhere(np.triu(anti[np.ix_(group, group)]))
            if clashes.size:
                k, l = (group[i] for i in clashes[0])
                raise ValueError(f"operators {k} and {l} do not commute but share a group")

    @property
    def copies_consumed(self) -> int:
        return self.shots_per_group * len(self.groups)


def _greedy_groups(basis: OperatorBasis) -> tuple[tuple[int, ...], ...]:
    """Greedy coloring of the anticommutation graph.

    Vertices go by descending degree, ties by index; each takes the smallest
    color that no already-colored vertex it anticommutes with carries.
    """
    anti = basis_stack(basis).anticommutation()
    color = np.full(basis.m, -1)
    for k in np.lexsort((np.arange(basis.m), -anti.sum(axis=1))):
        taken = set(color[anti[k]].tolist())
        color[k] = min(set(range(len(taken) + 1)) - taken)
    return tuple(tuple(np.flatnonzero(color == c).tolist()) for c in range(color.max() + 1))


def build_plan(basis: OperatorBasis, scheme: str, n_copies: int) -> MeasurementPlan:
    """Allocate `n_copies` measurement copies under the given scheme.

    direct: one group per operator; grouped: greedy-colored commuting groups;
    exact: no copies consumed at all.
    """
    if scheme == "exact":
        return MeasurementPlan(basis, "exact", (), 0, 0)
    if scheme == "direct":
        groups = tuple((k,) for k in range(basis.m))
    else:
        groups = _greedy_groups(basis)
    return MeasurementPlan(basis, scheme, groups, n_copies // len(groups), n_copies)


@dataclass(frozen=True, eq=False)
class MarginalEstimates:
    """Estimated marginals with per-entry confidence radii and copy accounting.

    `delta` is the Hoeffding radius at joint failure probability `delta_fail`
    on the frequency scale (outcomes mapped to {0,1}); the induced radius on
    the +/-1-scale estimate `e_hat` is 2*delta.  The exact scheme reports
    delta identically 0.
    """

    e_hat: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    shots: np.ndarray = field(repr=False)
    n_total: int = 0
    seed: int | None = None
    scheme: str = "exact"
    delta_fail: float = DEFAULT_DELTA_FAIL

    CSV_HEADER = ("l", "e_hat", "delta", "shots")  # of `csv_rows`

    def __post_init__(self) -> None:
        for arr in (self.e_hat, self.delta, self.shots):
            arr.flags.writeable = False
        if np.any(np.abs(self.e_hat) > 1.0 + 1e-12):
            raise ValueError("estimated marginals must lie in [-1, 1]")

    @property
    def m(self) -> int:
        return self.e_hat.shape[0]

    def manifest_dict(self) -> dict:
        return {
            "seed": self.seed,
            "scheme": self.scheme,
            "N_total": int(self.n_total),
            "delta_fail": float(self.delta_fail),
        }

    def csv_rows(self):
        for l in range(self.m):
            yield (l, self.e_hat[l], self.delta[l], int(self.shots[l]))


def hoeffding_radius(m: int, delta_fail: float, shots) -> np.ndarray:
    shots = np.asarray(shots, dtype=float)
    out = np.zeros_like(shots)
    nonzero = shots > 0
    out[nonzero] = np.sqrt(np.log(2 * m / delta_fail) / (2.0 * shots[nonzero]))
    return out


def sample_outcomes(
    plan: MeasurementPlan,
    ensemble: GibbsEnsemble,
    seed: int | None = None,
    delta_fail: float = DEFAULT_DELTA_FAIL,
) -> MarginalEstimates:
    """Draw the planned shots and return empirical marginals.

    Sampling is deterministic given `seed`: each group gets its own substream
    spawned from the master seed, so group order and parallelism cannot change
    the result.  An exact plan has no groups and spawns no substreams, so it
    never loads `numpy.random`.
    """
    m, dim = plan.basis.m, 2**plan.basis.lattice.n_sites
    if dim != ensemble.dim:
        raise ValueError(f"plan dimension {dim} does not match state dimension {ensemble.dim}")
    table = basis_stack(plan.basis)
    rho = ensemble.rho

    e_hat = table.expectations(rho) if plan.scheme == "exact" else np.zeros(m)
    shots = np.zeros(m, dtype=np.int64)
    substreams = np.random.SeedSequence(seed).spawn(len(plan.groups)) if plan.groups else ()
    for group, stream in zip(plan.groups, substreams):
        probs, values = table.group_law(group, rho)
        probs = np.clip(probs, 0.0, None)
        rng = np.random.default_rng(stream)
        counts = rng.multinomial(plan.shots_per_group, probs / probs.sum())
        e_hat[list(group)] = values @ counts / plan.shots_per_group
        shots[list(group)] = plan.shots_per_group

    return MarginalEstimates(
        e_hat=np.clip(e_hat, -1.0, 1.0),
        delta=hoeffding_radius(m, delta_fail, shots),
        shots=shots,
        n_total=plan.copies_consumed,
        seed=seed,
        scheme=plan.scheme,
        delta_fail=delta_fail,
    )

