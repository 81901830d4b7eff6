#!/usr/bin/env python3
"""Standalone brute-force oracle for the small-groupoid reference counts.

Everything here is computed directly from the defining equations with raw
integer arithmetic mod p.  This file must stay independent of the library
under test: no liecross imports, no shared helpers.  The test suite runs it
and compares the counts and the enumerated matrices against library output.

Conventions (shared with nothing, re-derived here):
  * a linear map n -> n' is a flat tuple of n'*n residues, row-major;
  * candidates are enumerated as base-p odometers over that flat tuple,
    first entry most significant (itertools.product does exactly this);
  * a bracket table br[i][j] is the coordinate tuple of [e_i, e_j];
  * an action table ac[i][j] is the coordinate tuple of e_i . e_j.
"""

import itertools
import json


def add(p, u, v):
    return tuple((a + b) % p for a, b in zip(u, v))


def sub(p, u, v):
    return tuple((a - b) % p for a, b in zip(u, v))


def apply_map(p, mat, rows, cols, v):
    return tuple(sum(mat[r * cols + c] * v[c] for c in range(cols)) % p for r in range(rows))


def bilinear(p, table, u, v, n_out):
    """Expand a bilinear table (bracket or action) on coordinate tuples.

    n_out is the output dimension; it is passed in because an empty table
    (an action of the zero algebra) cannot tell it.
    """
    out = [0] * n_out
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            for k, c in enumerate(table[i][j]):
                out[k] = (out[k] + ui * vj * c) % p
    return tuple(out)


def basis(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def column(mat, rows, cols, j):
    return tuple(mat[r * cols + j] for r in range(rows))


class Xmod:
    """A crossed module given by raw tables; dims (m, p_dim)."""

    def __init__(self, p, m_dim, p_dim, m_br, p_br, action, boundary):
        self.p = p
        self.m_dim = m_dim
        self.p_dim = p_dim
        self.m_br = m_br
        self.p_br = p_br
        self.action = action
        self.boundary = boundary  # flat p_dim x m_dim


def is_morphism(x, y, f1, f0):
    """Check the pair (f1, f0) against the three defining conditions."""
    p = x.p
    # f1 and f0 preserve brackets
    for i in range(x.m_dim):
        for j in range(x.m_dim):
            lhs = apply_map(p, f1, y.m_dim, x.m_dim, x.m_br[i][j])
            rhs = bilinear(p, y.m_br,
                           column(f1, y.m_dim, x.m_dim, i),
                           column(f1, y.m_dim, x.m_dim, j), y.m_dim)
            if lhs != rhs:
                return False
    for i in range(x.p_dim):
        for j in range(x.p_dim):
            lhs = apply_map(p, f0, y.p_dim, x.p_dim, x.p_br[i][j])
            rhs = bilinear(p, y.p_br,
                           column(f0, y.p_dim, x.p_dim, i),
                           column(f0, y.p_dim, x.p_dim, j), y.p_dim)
            if lhs != rhs:
                return False
    # equivariance: f1(e_i . e_j) = f0(e_i) . f1(e_j)
    for i in range(x.p_dim):
        for j in range(x.m_dim):
            lhs = apply_map(p, f1, y.m_dim, x.m_dim, x.action[i][j])
            rhs = bilinear(p, y.action,
                           column(f0, y.p_dim, x.p_dim, i),
                           column(f1, y.m_dim, x.m_dim, j), y.m_dim)
            if lhs != rhs:
                return False
    # square: boundary' . f1 = f0 . boundary
    for j in range(x.m_dim):
        lhs = apply_map(p, y.boundary, y.p_dim, y.m_dim,
                        column(f1, y.m_dim, x.m_dim, j))
        rhs = apply_map(p, f0, y.p_dim, x.p_dim,
                        column(x.boundary, x.p_dim, x.m_dim, j))
        if lhs != rhs:
            return False
    return True


def is_derivation(x, y, f0, d):
    """Check d[p,q] = f0(p).d(q) - f0(q).d(p) + [d(p), d(q)] on all pairs."""
    p = x.p
    for i in range(x.p_dim):
        for j in range(x.p_dim):
            lhs = apply_map(p, d, y.m_dim, x.p_dim, x.p_br[i][j])
            di = column(d, y.m_dim, x.p_dim, i)
            dj = column(d, y.m_dim, x.p_dim, j)
            rhs = add(p,
                      sub(p,
                          bilinear(p, y.action, column(f0, y.p_dim, x.p_dim, i), dj,
                                   y.m_dim),
                          bilinear(p, y.action, column(f0, y.p_dim, x.p_dim, j), di,
                                   y.m_dim)),
                      bilinear(p, y.m_br, di, dj, y.m_dim))
            if lhs != rhs:
                return False
    return True


def enumerate_morphisms(x, y):
    p = x.p
    found = []
    f1_space = itertools.product(range(p), repeat=y.m_dim * x.m_dim)
    for f1 in f1_space:
        for f0 in itertools.product(range(p), repeat=y.p_dim * x.p_dim):
            if is_morphism(x, y, f1, f0):
                found.append((f1, f0))
    return found


def enumerate_derivations(x, y, f0):
    p = x.p
    return [d for d in itertools.product(range(p), repeat=y.m_dim * x.p_dim)
            if is_derivation(x, y, f0, d)]


def shifted_morphism(x, y, f1, f0, d):
    """g0 = f0 + boundary' . d and g1 = f1 + d . boundary, as flat tuples."""
    p = x.p
    g0 = list(f0)
    for j in range(x.p_dim):
        img = apply_map(p, y.boundary, y.p_dim, y.m_dim, column(d, y.m_dim, x.p_dim, j))
        for r in range(y.p_dim):
            g0[r * x.p_dim + j] = (g0[r * x.p_dim + j] + img[r]) % p
    g1 = list(f1)
    for j in range(x.m_dim):
        img = apply_map(p, d, y.m_dim, x.p_dim, column(x.boundary, x.p_dim, x.m_dim, j))
        for r in range(y.m_dim):
            g1[r * x.m_dim + j] = (g1[r * x.m_dim + j] + img[r]) % p
    return tuple(g1), tuple(g0)


def groupoid_counts(x, y):
    objects = enumerate_morphisms(x, y)
    index = {pair: i for i, pair in enumerate(objects)}
    arrows = []
    for src, (f1, f0) in enumerate(objects):
        for d in enumerate_derivations(x, y, f0):
            dst = index[shifted_morphism(x, y, f1, f0, d)]
            arrows.append((src, dst, d))
    # connected components by flood fill
    neighbours = {i: set() for i in range(len(objects))}
    for src, dst, _ in arrows:
        neighbours[src].add(dst)
        neighbours[dst].add(src)
    seen = set()
    classes = []
    for i in range(len(objects)):
        if i in seen:
            continue
        component, queue = set(), [i]
        while queue:
            v = queue.pop()
            if v in component:
                continue
            component.add(v)
            queue.extend(neighbours[v] - component)
        seen |= component
        classes.append(sorted(component))
    return {
        "objects": objects,
        "arrows": arrows,
        "classes": classes,
        "counts": {
            "morphisms": len(objects),
            "arrows": len(arrows),
            "classes": len(classes),
            "class_sizes": sorted(len(c) for c in classes),
        },
    }


def x_triv(p):
    """M = P = 1-dim abelian, boundary identity, zero action."""
    zero1 = ((tuple([0]),),)
    return Xmod(p, 1, 1, zero1, zero1, zero1, (1,))


def x_aff(p):
    """M = span(e2) inside the 2-dim algebra with [e1,e2] = e2, boundary the
    inclusion, action by bracket."""
    m_br = ((tuple([0]),),)
    p_br = (
        ((0, 0), (0, 1)),
        ((0, p - 1), (0, 0)),
    )
    action = (
        (tuple([1]),),   # e1 . e2 = e2
        (tuple([0]),),   # e2 . e2 = 0
    )
    boundary = (0, 1)  # 2x1, e2 -> (0, 1)
    return Xmod(p, 1, 2, m_br, p_br, action, boundary)


def main():
    triv = x_triv(2)
    aff = x_aff(3)
    report = {
        "x_triv_gf2": groupoid_counts(triv, triv)["counts"],
        "x_aff_gf3": groupoid_counts(aff, aff)["counts"],
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
