"""Invariant checks raise library errors, also under `python -O`.

Each input below skips validation and breaks one invariant that enumeration
and the homotopy calculus rely on.  The checks must raise InvariantError with
a failing report, not AssertionError, so they survive `-O`.  The same holds
for the two crossed-module constructors that validate what they build; a
patched helper makes each of them build a module that breaks an axiom.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import battery
from liecross import algebras
from liecross import (
    Arrow,
    CrossedModule,
    CrossedMorphism,
    FieldSpec,
    HomGroupoid,
    LieAction,
    LieAlgebra,
    LinearMap,
    abelian_zero_crossed_module,
    build_hom_groupoid,
    homotopy_classes,
    homotopy_target,
    identity_homotopy,
    identity_morphism,
    inclusion_crossed_module,
)
from liecross.errors import LiecrossError

GF3 = FieldSpec.prime(3)


def shift_of_non_morphism():
    # f1 = 0 with f0 = id breaks the boundary square; the zero derivation
    # passes its law and shifts f onto itself.
    xaff = battery.x_aff(GF3)
    f = CrossedMorphism(xaff, xaff, LinearMap.zero(GF3, 1, 1),
                        LinearMap.identity(GF3, 2))
    homotopy_target(f, LinearMap.zero(GF3, 1, 2))


def groupoid_of_invalid_module():
    # Boundary id: M -> P on lines with P scaling M violates CM1 and CM2.
    # Over GF(3) the shift of the zero morphism by d = 2 is not equivariant,
    # so it is not among the enumerated objects.
    m = LieAlgebra.abelian("m", GF3, 1)
    p = LieAlgebra.abelian("p", GF3, 1)
    bad = CrossedModule("bad", m, p, LinearMap.identity(GF3, 1),
                        LieAction.from_sparse(p, m, [(1, 1, {1: 1})]))
    build_hom_groupoid(bad, bad)


def groupoid_of_module_breaking_cm2():
    # affine2 acting on itself by the adjoint action with zero boundary
    # breaks cm2, 0 = [m, m'], yet every homotopy target at object 0 is an
    # object: only the up-front validation of both modules catches it.
    aff = battery.affine2(GF3)
    bad = CrossedModule("adjoint_zero", aff, aff, LinearMap.zero(GF3, 2, 2),
                        LieAction.adjoint(aff))
    build_hom_groupoid(bad, bad)


def classes_of_asymmetric_groupoid():
    # One arrow 0 -> 1 with no way back.
    xtriv = battery.x_triv(GF3)
    objects = (identity_morphism(xtriv),
               CrossedMorphism(xtriv, xtriv, LinearMap.zero(GF3, 1, 1),
                               LinearMap.zero(GF3, 1, 1)))
    arrow = Arrow(0, 1, identity_homotopy(objects[0]))
    homotopy_classes(HomGroupoid(xtriv, xtriv, objects, (arrow,)))


def inclusion_with_doubled_coordinates():
    # Twice the true ideal coordinates: [e1, e2] = e2 in affine2 becomes
    # e1 . v = 2v, which the inclusion boundary does not intertwine (cm1).
    solver = algebras.span_solver

    def doubled(vectors, field, dim):
        solve = solver(vectors, field, dim)
        return lambda w: None if (c := solve(w)) is None else c + c

    aff = battery.affine2(GF3)
    with mock.patch.object(algebras, "span_solver", doubled):
        inclusion_crossed_module(aff, [aff.basis(1)])


def abelian_zero_over_nonabelian_module():
    # affine2 acting on itself with zero boundary breaks cm2, 0 = [m, m'].
    aff = battery.affine2(GF3)
    with mock.patch.object(LieAlgebra, "is_abelian", lambda self: True):
        abelian_zero_crossed_module(aff, LieAction.adjoint(aff))


BREACHES = (shift_of_non_morphism, groupoid_of_invalid_module,
            groupoid_of_module_breaking_cm2, classes_of_asymmetric_groupoid,
            inclusion_with_doubled_coordinates, abelian_zero_over_nonabelian_module)

EXPECTED = [f"{check.__name__}: InvariantError, report ok=False"
            for check in BREACHES]


def outcomes() -> list[str]:
    """What each breach raised, one line per breach."""
    lines = []
    for check in BREACHES:
        try:
            check()
        except LiecrossError as exc:
            lines.append(f"{check.__name__}: {type(exc).__name__}, "
                         f"report ok={exc.report.ok}")
        else:
            lines.append(f"{check.__name__}: nothing raised")
    return lines


def test_breaches_raise_invariant_error():
    assert outcomes() == EXPECTED


def test_breaches_raise_under_python_O():
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    script = ("import sys, test_invariants as t; "
              "print(sys.flags.optimize); print('\\n'.join(t.outcomes()))")
    res = subprocess.run([sys.executable, "-O", "-c", script],
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines() == ["1"] + EXPECTED


# The checks on an ArrowTable, which homotopy_classes reads column by
# column, and the arrow bound of build_hom_groupoid raise too.

def classes_of_table_with_stray_arrow():
    # A built table plus an arrow into an object that does not exist.
    xtriv = battery.x_triv(GF3)
    g = build_hom_groupoid(xtriv, xtriv)
    stray = Arrow(0, len(g.objects), g.arrows[0].derivation)
    homotopy_classes(HomGroupoid(xtriv, xtriv, g.objects, g.arrows + (stray,)))


def classes_of_one_way_table():
    # A built table without the arrows into object 0 from elsewhere.
    xtriv = battery.x_triv(GF3)
    g = build_hom_groupoid(xtriv, xtriv)
    kept = [t for t in range(len(g.arrows))
            if g.arrows.dst[t] != 0 or g.arrows.src[t] == 0]
    homotopy_classes(HomGroupoid(xtriv, xtriv, g.objects,
                                 tuple(g.arrows[t] for t in kept)))


def groupoid_over_its_arrow_budget():
    # X_aff over GF(3) has 99 arrows.
    xaff = battery.x_aff(GF3)
    build_hom_groupoid(xaff, xaff, arrow_budget=98)


TABLE_BREACHES = (classes_of_table_with_stray_arrow, classes_of_one_way_table,
                  groupoid_over_its_arrow_budget)

TABLE_EXPECTED = [
    "classes_of_table_with_stray_arrow: InvariantError, endpoints",
    "classes_of_one_way_table: InvariantError, inverse",
    "groupoid_over_its_arrow_budget: BudgetExceededError, "
    "hom-groupoid arrow table has size 99, exceeding budget 98"]


def table_outcomes() -> list[str]:
    """What each table breach raised: the failed checks or the message."""
    lines = []
    for check in TABLE_BREACHES:
        try:
            check()
        except LiecrossError as exc:
            report = getattr(exc, "report", None)
            what = (",".join(f.check for f in report.failures) if report
                    else str(exc))
            lines.append(f"{check.__name__}: {type(exc).__name__}, {what}")
        else:
            lines.append(f"{check.__name__}: nothing raised")
    return lines


def test_table_breaches_raise():
    assert table_outcomes() == TABLE_EXPECTED


def test_table_breaches_raise_under_python_O():
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    script = ("import sys, test_invariants as t; "
              "print(sys.flags.optimize); print('\\n'.join(t.table_outcomes()))")
    res = subprocess.run([sys.executable, "-O", "-c", script],
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines() == ["1"] + TABLE_EXPECTED
