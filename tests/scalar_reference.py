"""Plain nested-loop reference for every validator on basis tuples.

Each function records its checks up front, walks the basis tuples in
lexicographic order with one explicit loop per index and fails a check,
with 1-based indices and both sides, wherever the sides differ.  The
library's validators must produce the same checks and failures, in the
same order; a faster evaluation of the same laws is held to this reference.
Shape and field errors are the validators' business, so inputs here are
assumed well-formed.
"""

from liecross.validation import ValidationReport


def lie_algebra(algebra):
    report = ValidationReport(algebra.name)
    report.record("antisymmetry")
    report.record("jacobi")
    c = algebra.structure
    n = algebra.dim
    zero = algebra.field.zero()
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if i == j:
                    if c[i][i][k]:
                        report.fail("antisymmetry", (i + 1, i + 1, k + 1),
                                    c[i][i][k], zero)
                elif c[i][j][k] != -c[j][i][k]:
                    report.fail("antisymmetry", (i + 1, j + 1, k + 1),
                                c[i][j][k], -c[j][i][k])
    zero_vec = algebra.zero_vector()
    basis = algebra.basis_vectors()
    for i in range(n):
        for j in range(n):
            for l in range(n):
                total = (algebra.bracket(basis[i], algebra.bracket(basis[j], basis[l]))
                         + algebra.bracket(basis[j], algebra.bracket(basis[l], basis[i]))
                         + algebra.bracket(basis[l], algebra.bracket(basis[i], basis[j])))
                if not total.is_zero():
                    report.fail("jacobi", (i + 1, j + 1, l + 1), total, zero_vec)
    return report


def action(action):
    p_alg, m_alg = action.actor, action.acted
    report = ValidationReport(f"action of {p_alg.name} on {m_alg.name}")
    report.record("action_bracket")
    report.record("action_leibniz")
    ps = p_alg.basis_vectors()
    ms = m_alg.basis_vectors()
    for i, p in enumerate(ps):
        for j, q in enumerate(ps):
            pq = p_alg.bracket(p, q)
            for k, m in enumerate(ms):
                lhs = action.act(pq, m)
                rhs = action.act(p, action.act(q, m)) - action.act(q, action.act(p, m))
                if lhs != rhs:
                    report.fail("action_bracket", (i + 1, j + 1, k + 1), lhs, rhs)
    for i, p in enumerate(ps):
        for j, m in enumerate(ms):
            for k, m2 in enumerate(ms):
                lhs = action.act(p, m_alg.bracket(m, m2))
                rhs = (m_alg.bracket(action.act(p, m), m2)
                       + m_alg.bracket(m, action.act(p, m2)))
                if lhs != rhs:
                    report.fail("action_leibniz", (i + 1, j + 1, k + 1), lhs, rhs)
    return report


def _morphism_failures(report, check, f, dom, cod):
    images = f.columns()
    for i in range(dom.dim):
        for j in range(dom.dim):
            lhs = f.apply(dom.basis_bracket(i, j))
            rhs = cod.bracket(images[i], images[j])
            if lhs != rhs:
                report.fail(check, (i + 1, j + 1), lhs, rhs)


def crossed_module(xmod):
    report = ValidationReport(xmod.name)
    report.record("boundary_morphism")
    report.record("cm1")
    report.record("cm2")
    m_alg, p_alg = xmod.m_algebra, xmod.p_algebra
    boundary, action = xmod.boundary, xmod.action
    _morphism_failures(report, "boundary_morphism", boundary, m_alg, p_alg)
    ps = p_alg.basis_vectors()
    ms = m_alg.basis_vectors()
    boundary_images = [boundary.apply(m) for m in ms]
    for i, p in enumerate(ps):
        for j, m in enumerate(ms):
            lhs = boundary.apply(action.act(p, m))
            rhs = p_alg.bracket(p, boundary_images[j])
            if lhs != rhs:
                report.fail("cm1", (i + 1, j + 1), lhs, rhs)
    for i, m in enumerate(ms):
        for j, m2 in enumerate(ms):
            lhs = action.act(boundary_images[i], m2)
            rhs = m_alg.bracket(m, m2)
            if lhs != rhs:
                report.fail("cm2", (i + 1, j + 1), lhs, rhs)
    return report


def lie_morphism(f, dom, cod, subject="map"):
    report = ValidationReport(subject)
    report.record("lie_morphism")
    _morphism_failures(report, "lie_morphism", f, dom, cod)
    return report


def crossed_morphism(phi, subject="morphism"):
    report = ValidationReport(subject)
    report.record("f1_morphism")
    report.record("f0_morphism")
    report.record("equivariance")
    report.record("square")
    src, dst = phi.source, phi.target
    _morphism_failures(report, "f1_morphism", phi.f1, src.m_algebra, dst.m_algebra)
    _morphism_failures(report, "f0_morphism", phi.f0, src.p_algebra, dst.p_algebra)
    f0_images = phi.f0.columns()
    f1_images = phi.f1.columns()
    for i in range(src.p_algebra.dim):
        for j in range(src.m_algebra.dim):
            lhs = phi.f1.apply(src.action.basis_act(i, j))
            rhs = dst.action.act(f0_images[i], f1_images[j])
            if lhs != rhs:
                report.fail("equivariance", (i + 1, j + 1), lhs, rhs)
    left = dst.boundary.compose(phi.f1)
    right = phi.f0.compose(src.boundary)
    for j in range(left.cols):
        if left.column(j) != right.column(j):
            report.fail("square", (j + 1,), left.column(j), right.column(j))
    return report


def f0_derivation(d, f):
    report = ValidationReport("derivation")
    report.record("derivation_law")
    p_alg = f.source.p_algebra
    m_prime = f.target.m_algebra
    action = f.target.action
    f0_images = f.f0.columns()
    d_images = d.columns()
    for i in range(p_alg.dim):
        for j in range(p_alg.dim):
            lhs = d.apply(p_alg.basis_bracket(i, j))
            rhs = (action.act(f0_images[i], d_images[j])
                   - action.act(f0_images[j], d_images[i])
                   + m_prime.bracket(d_images[i], d_images[j]))
            if lhs != rhs:
                report.fail("derivation_law", (i + 1, j + 1), lhs, rhs)
    return report
