"""The three workloads: their inputs, their operation and its checks.

A workload's ``plan(seed)`` draws the round: a fixed list of operations
built from the seeded stream.  Every pass over the round gets fresh nevkit
objects from ``build``.  ``run`` is the timed operation; ``check`` runs right
after it, outside the timing, on every output; ``sample_check`` runs once
after the timed loop on a fixed sample of the first pass, where an
independent computation is too costly to repeat for every output.  Each
returns the problems it finds, and an operation with any fails.
"""
from __future__ import annotations

import math

from . import checks
from .inputs import grid_radii, stratified

TOL = 1e-6
MEANS_TOL = 1e-8       # diff_nevanlinna by both routes, and the anchored total
GRID_TOL = 1e-10       # circle_mean_plus on the radius grid (the criterion-5 level)
GRID_RADII = 12


def atom_bin(spec) -> int:
    """0 for 1-2 atoms, 1 for 3-4, 2 for 5-6, 3 for 7-8."""
    return (len(spec.atoms) - 1) // 2


class VerifyCases:
    """growth_bound_verify on one case; an operation is one case.

    ``quota`` gives the cases per stratum; they are drawn evenly over the
    four atom bins, since after the stratum the number of atoms sets most
    of a case's cost (README, "Inputs").
    """

    def __init__(self, quota: dict):
        self.quota = {(stratum, b): n // 4 for stratum, n in quota.items()
                      for b in range(4)}

    def plan(self, seed: int):
        return stratified(seed, self.quota,
                          key=lambda spec: (spec.stratum, atom_bin(spec)))

    @staticmethod
    def build(plan):
        return [spec.build() for spec in plan]

    @staticmethod
    def run(case):
        from nevkit import growth_bound_verify
        return growth_bound_verify(case)

    @staticmethod
    def check(spec, rep) -> list:
        return checks.check_report(spec, rep)

    @staticmethod
    def same(first, again) -> list:
        return checks.same_report(first, again)

    @staticmethod
    def lhs_values(rep):
        return [rep.lhs]

    @staticmethod
    def sample_check(plan, outputs) -> dict:
        """The first case of each stratum: lhs against the independent
        quadrature.  Maps the index of each failed case to its problems."""
        bad, seen = {}, set()
        for i, (spec, rep) in enumerate(zip(plan, outputs)):
            if rep is None or spec.stratum in seen:
                continue
            seen.add(spec.stratum)
            problems = checks.check_lhs_independent(spec, rep.lhs)
            if problems:
                bad[i] = problems
        return bad


class Means:
    """Circle means by quadrature on one model; an operation is one model:
    diff_nevanlinna by the charge and the canonical route and
    diff_nevanlinna_total over the case window, and circle_mean_plus on
    ``GRID_RADII`` radii across it."""

    per_atoms = 30    # models per atom count 1..8 in a round

    def plan(self, seed: int):
        specs = stratified(seed, {n: self.per_atoms for n in range(1, 9)},
                           key=lambda spec: len(spec.atoms))
        return tuple((spec, grid_radii(spec, GRID_RADII)) for spec in specs)

    @staticmethod
    def build(plan):
        return [(spec.build_model(), spec.build_window(), radii)
                for spec, radii in plan]

    @staticmethod
    def run(item):
        from nevkit import circle_mean_plus, diff_nevanlinna, diff_nevanlinna_total
        model, window, radii = item
        charge = diff_nevanlinna(model, window, tol=MEANS_TOL, route="charge")
        canonical = diff_nevanlinna(model, window, tol=MEANS_TOL, route="canonical")
        total = diff_nevanlinna_total(model, window, tol=MEANS_TOL)
        grid = [circle_mean_plus(model, float(t), tol=GRID_TOL) for t in radii]
        return charge, canonical, total, grid

    @staticmethod
    def check(plan_item, out) -> list:
        spec, radii = plan_item
        return checks.check_means(spec, out, radii, MEANS_TOL, GRID_TOL)

    @staticmethod
    def same(first, again) -> list:
        return [] if first == again else [f"{again!r} != first pass {first!r}"]

    @staticmethod
    def lhs_values(out):
        return []

    @staticmethod
    def sample_check(plan, outputs) -> dict:
        """The first model of each atom count: each grid mean against the
        benchmark's own periodic trapezoid rule.  Maps the index of each
        failed model to its problems."""
        bad, seen = {}, set()
        for i, ((spec, radii), out) in enumerate(zip(plan, outputs)):
            if out is None or len(spec.atoms) in seen:
                continue
            seen.add(len(spec.atoms))
            problems = [p for t, got in zip(radii, out[3])
                        for p in checks.check_mean_plus(spec, float(t), got, GRID_TOL)]
            if problems:
                bad[i] = problems
        return bad


WORKLOADS = {
    # jump-free: the right side is finite and the Dini tail dominates;
    # depth-10 staircases are three fifths of the round so the median case
    # sits inside one cost class (see README)
    "verify-finite": VerifyCases({
        "pieces": 12, "pieces+cantor/d8": 12, "pieces+cantor/d10": 36}),
    # the integrator jumps: rhs is +inf after _stabilization, and the left
    # side's circle maxima dominate; kinds in their stream proportions
    "verify-divergent": VerifyCases({
        "pieces+jumps": 120, "cantor+jumps/d8": 60, "cantor+jumps/d10": 60,
        "pieces+cantor+jumps/d8": 60, "pieces+cantor+jumps/d10": 60}),
    "means": Means(),
}


def reference_case():
    """The closed-form fixture, built with the public constructors."""
    from nevkit import (DeltaSubharmonicModel, HarmonicPart, Integrator, Piece,
                        RadialWindow, RieszAtom, VerificationCase)
    model = DeltaSubharmonicModel(atoms=(RieszAtom(1.0, -1.0),),
                                  harmonic=HarmonicPart((math.log(5.0),)))
    return VerificationCase(case_id=0, seed=0, model=model,
                            integrator=Integrator(end=2.0, pieces=(Piece(0.0, 2.0, 1.0),)),
                            window=RadialWindow(2.0, 4.0), tol=TOL)
