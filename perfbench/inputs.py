"""Seeded inputs of the benchmark, built with nevkit's public constructors.

The case recipe is written out here rather than taken from
``nevkit.bounds.random_case``: a later change to the program's own generator
must not silently change a workload.  At the commit that introduced the
benchmark the two recipes give identical cases (``tests/test_perfbench.py``
checks that).

A ``CaseSpec`` holds plain numbers only.  ``build()`` turns it into fresh
model, integrator and case objects, so every pass of a workload starts with
empty lazy caches (``Integrator._mesh`` and friends) and pays for them inside
the timed operation, as a user does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("pieces", "pieces+cantor", "pieces+jumps", "cantor+jumps",
         "pieces+cantor+jumps")


@dataclass(frozen=True)
class CaseSpec:
    """Numbers that define one verification case of the seeded stream."""

    case_id: int
    seed: int
    r: float
    R: float
    atoms: tuple      # (location, mass) pairs
    coeffs: tuple     # harmonic coefficients, constant first
    pieces: tuple     # (start, stop, slope) triples
    cantor: tuple | None  # (start, stop, height, depth)
    jumps: tuple      # (location, height) pairs
    tol: float = 1e-6

    @property
    def kind(self) -> str:
        return KINDS[self.case_id % 5]

    @property
    def stratum(self) -> str:
        """Kind, with the staircase depth appended where there is one."""
        if self.cantor is None:
            return self.kind
        return f"{self.kind}/d{self.cantor[3]}"

    def build_model(self):
        from nevkit import DeltaSubharmonicModel, HarmonicPart, RieszAtom
        return DeltaSubharmonicModel(
            atoms=tuple(RieszAtom(loc, mass) for loc, mass in self.atoms),
            harmonic=HarmonicPart(self.coeffs))

    def build_integrator(self):
        from nevkit import CantorPart, Integrator, Jump, Piece
        return Integrator(
            end=self.r,
            pieces=tuple(Piece(*p) for p in self.pieces),
            cantor=None if self.cantor is None else CantorPart(*self.cantor),
            jumps=tuple(Jump(*j) for j in self.jumps))

    def build_window(self):
        from nevkit import RadialWindow
        return RadialWindow(self.r, self.R)

    def build(self):
        from nevkit import VerificationCase
        return VerificationCase(case_id=self.case_id, seed=self.seed,
                                model=self.build_model(),
                                integrator=self.build_integrator(),
                                window=self.build_window(), tol=self.tol)


def clear_of(value: float, targets, rel: float = 3e-6) -> float:
    """Push ``value`` up until it is relatively ``rel`` away from each target."""
    for t in targets:
        while abs(value - t) <= rel * max(1.0, t):
            value *= 1.0 + 2.0 * rel
    return value


def _random_pieces(rng, r: float):
    for _ in range(64):
        n = int(rng.integers(1, 5))
        cuts = np.sort(rng.uniform(0.0, r, size=2 * n))
        widths = cuts[1::2] - cuts[0::2]
        gaps = cuts[2::2] - cuts[1:-1:2]
        if widths.min() >= 1e-3 * r and (gaps.size == 0 or gaps.min() > 0.0):
            return tuple((float(a), float(b), float(s))
                         for a, b, s in zip(cuts[0::2], cuts[1::2],
                                            rng.uniform(0.1, 2.0, size=n)))
    return ((0.0, r, 1.0),)


def case_spec(case_id: int, seed: int, tol: float = 1e-6) -> CaseSpec:
    """Case ``case_id`` of the stream of ``seed``; draws in the recipe's order."""
    rng = np.random.default_rng((seed, case_id))
    r = float(rng.uniform(1.0, 2.5))
    R = r * float(rng.uniform(1.8, 3.0))

    atoms = []
    for _ in range(int(rng.integers(1, 9))):
        rad = clear_of(0.9 * R * math.sqrt(float(rng.uniform())), (r, R))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        mass = float(rng.choice((-1.0, 1.0))) * float(rng.integers(1, 4)) \
            * float(rng.uniform(0.2, 1.0))
        atoms.append((rad * complex(math.cos(ang), math.sin(ang)), mass))

    coeffs = [complex(float(rng.uniform(-0.5, 0.5)))]
    if rng.uniform() < 0.3:
        mag = float(rng.uniform(0.0, 0.2 / R))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        coeffs.append(mag * complex(math.cos(phase), math.sin(phase)))

    kind = case_id % 5
    pieces = _random_pieces(rng, r) if kind in (0, 1, 2, 4) else ()
    cantor = None
    if kind in (1, 3, 4):
        a = float(rng.uniform(0.0, 0.5)) * r
        b = a + float(rng.uniform(0.3, 0.9)) * (r - a)
        cantor = (a, b, float(rng.uniform(0.3, 1.5)), int(rng.choice((8, 10))))
    jumps = ()
    if kind in (2, 3, 4):
        locs = rng.uniform(0.05 * r, 0.95 * r, size=int(rng.integers(1, 3)))
        jumps = tuple((float(x), float(rng.uniform(0.2, 1.0)))
                      for x in np.unique(locs))
    return CaseSpec(case_id=case_id, seed=seed, r=r, R=R, atoms=tuple(atoms),
                    coeffs=tuple(coeffs), pieces=pieces, cantor=cantor,
                    jumps=jumps, tol=tol)


def stratified(seed: int, quota: dict, key=lambda spec: spec.stratum) -> tuple:
    """The first ``quota[k]`` cases with ``key(spec) == k`` in the stream of
    ``seed``, for each ``k``, in stream order.

    Drawing a fixed number per stratum keeps the make-up of a round the same
    for every seed, so the seed moves which cases run but not how many of each
    cost class: staircase depth 10 costs about four times depth 8 on the
    right side, and a pieces-only case a tenth of either.
    """
    need = dict(quota)
    out = []
    case_id = 0
    while any(need.values()):
        case_id += 1
        if case_id > 100_000:
            raise RuntimeError(f"stream of seed {seed} cannot fill {quota}")
        spec = case_spec(case_id, seed)
        k = key(spec)
        if need.get(k, 0) > 0:
            need[k] -= 1
            out.append(spec)
    return tuple(out)


def grid_radii(spec: CaseSpec, n: int) -> np.ndarray:
    """``n`` radii spaced geometrically over the case's window [r, R], each
    pushed clear of every atom radius the way the recipe clears r and R."""
    radii = [abs(loc) for loc, _ in spec.atoms]
    return np.array([clear_of(float(t), radii)
                     for t in np.geomspace(spec.r, spec.R, n)])
