"""Self-test of the benchmark's input generator.

    PYTHONPATH=src python3 perfbench/selftest.py

Checks that every seeded change of basis gives a valid crossed module with
the same groupoid shape (objects, arrows, class sizes) as the identity
basis, that IDENTITY_SEED gives the module back unchanged, and that the
battery has the gate's 16 valid modules.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import sys

from liecross import (FieldSpec, build_hom_groupoid, homotopy_classes,
                      validate_crossed_module)

import inputs

GF3, GF5 = FieldSpec.prime(3), FieldSpec.prime(5)

# (module, seeds, expected (objects, arrows, sorted class sizes))
CASES = [
    (inputs.x_aff(GF3), range(5), (15, 99, [3, 3, 9])),
    (inputs.x_aff(GF5), (1, 2), (45, 725, [5, 5, 5, 5, 25])),
    (inputs.h3_plane(GF3), (1, 2), (243, 19683, [81, 81, 81])),
]


def shape(xmod):
    built = build_hom_groupoid(xmod, xmod)
    return (len(built.objects), len(built.arrows),
            sorted(len(c) for c in homotopy_classes(built)))


def check(condition: bool, message: str):
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def main():
    for xmod, seeds, expected in CASES:
        same = inputs.change_basis(xmod, inputs.IDENTITY_SEED)
        check(same == xmod, f"{xmod.name}/{xmod.field}: identity seed keeps the basis")
        check(shape(same) == expected, f"{xmod.name}/{xmod.field}: shape {expected}")
        for seed in seeds:
            if seed == inputs.IDENTITY_SEED:
                continue
            copy = inputs.change_basis(xmod, seed)
            check(copy != xmod and validate_crossed_module(copy).ok,
                  f"{xmod.name}/{xmod.field} seed {seed}: new basis, valid")
            check(shape(copy) == expected,
                  f"{xmod.name}/{xmod.field} seed {seed}: same shape")
    modules = inputs.battery(5)
    check(len(modules) == 16 and all(validate_crossed_module(x).ok for x in modules),
          "battery: 16 valid modules over GF(5)")
    picks = inputs.stride_sample(list(range(100)), 7, 0.99)
    check(len(set(picks)) == 7 and max(picks) < 100, "stride_sample stays in range")


if __name__ == "__main__":
    main()
