"""One fresh-interpreter step of a benchmark workload.

run.py starts this script once per set-up and once per measured job, so
module-level caches in liecross (the Lie-morphism scan cache among them)
never carry over from one repetition to the next.

    python3 perfbench/worker.py WORKLOAD --seed N --mode setup|job --out-dir DIR
        [--format text|structured] [--trace --spans FILE]

The script builds the workload's inputs from the seed (that is the set-up),
then in job mode runs the job once, checks every output and prints one JSON
object as its last line: set-up and job seconds, items, problems found, the
kernel backend and, when traced, per-layer totals from spans.Tracer.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from pathlib import Path
from time import perf_counter

_START = perf_counter()

import liecross  # noqa: E402
from liecross import FieldSpec, cli, groupoid, homotopy, morphisms  # noqa: E402
from liecross import validate_crossed_module  # noqa: E402

import cli_check  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from peak_rss import peak_rss_kb  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# induced_battery: the acceptance gate's criterion-2 loop with smaller sample
# caps (the gate takes 25 morphisms, 10 on the 5^9-derivation module, and 50
# derivations per morphism).
MORPHISM_CAP = 4
MORPHISM_CAP_LARGE = 1
DERIVATION_CAP = 10
LARGE_SPACE = 1_000_000

LAWS_OBJECTS, LAWS_ARROWS, LAWS_TRIPLES = 45, 725, 393_125
LAWS_CLASS_SIZES = [5, 5, 5, 5, 25]
LAWS_CHECKS = {"endpoints", "identity", "inverse", "associativity"}


def cli_paths(out_dir: Path, seed: int, fmt: str = "text") -> tuple[Path, Path]:
    """(workspace document, emit file) of the CLI workload."""
    return (out_dir / f"groupoid_cli-seed{seed}.yaml",
            out_dir / f"groupoid_cli-seed{seed}-{fmt}.json")


# Set-up: build the inputs from the seed.

def setup_battery(seed: int, out_dir: Path):
    rng = random.Random(f"induced_battery:{seed}")
    modules = inputs.battery(5)
    offsets = [(rng.random(), [rng.random() for _ in range(MORPHISM_CAP)])
               for _ in modules]
    return list(zip(modules, offsets))


def setup_cli(seed: int, out_dir: Path):
    xmod = inputs.change_basis(inputs.h3_plane(FieldSpec.prime(3)), seed)
    if not validate_crossed_module(xmod).ok:
        raise RuntimeError(f"seed {seed} gives an invalid crossed module")
    doc, _ = cli_paths(out_dir, seed)
    doc.write_text(inputs.workspace_document(xmod, "X"))
    return doc


def setup_laws(seed: int, out_dir: Path):
    xmod = inputs.change_basis(inputs.x_aff(FieldSpec.prime(5)), seed)
    if not validate_crossed_module(xmod).ok:
        raise RuntimeError(f"seed {seed} gives an invalid crossed module")
    return xmod


# Jobs: run() does the measured work and check() turns its outputs into
# (items, problems, extra counts).  Library functions are looked up on their
# modules at call time, so an installed Tracer sees them.

def _pair_problem(xmod, f, h) -> str | None:
    """Criterion 2 on one (f, d) pair: g validates, squares and is equivariant."""
    g = homotopy.homotopy_target(f, h.d)
    report = morphisms.validate_crossed_morphism(g)
    if not report.ok:
        return report.summary()
    if g.f0.compose(xmod.boundary) != xmod.boundary.compose(g.f1):
        return "boundary square fails"
    action = xmod.action
    for i, p_vec in enumerate(xmod.p_algebra.basis_vectors()):
        for j, m_vec in enumerate(xmod.m_algebra.basis_vectors()):
            if g.f1.apply(action.act(p_vec, m_vec)) != \
                    action.act(g.f0.apply(p_vec), g.f1.apply(m_vec)):
                return f"equivariance fails at ({i + 1}, {j + 1})"
    return None


def run_battery(plan, args):
    """The verification is the workload here, so it runs inside the job."""
    pairs, problems = 0, []
    for xmod, (f_offset, d_offsets) in plan:
        found = groupoid.enumerate_morphisms(xmod, xmod, workers=1)
        if not found:
            problems.append(f"{xmod.name}: no endomorphisms")
            continue
        large = 5 ** (xmod.p_algebra.dim * xmod.m_algebra.dim) >= LARGE_SPACE
        cap = MORPHISM_CAP_LARGE if large else MORPHISM_CAP
        for f, d_offset in zip(inputs.stride_sample(found, cap, f_offset), d_offsets):
            derivations = groupoid.enumerate_derivations(f, workers=1)
            for h in inputs.stride_sample(derivations, DERIVATION_CAP, d_offset):
                try:
                    problem = _pair_problem(xmod, f, h)
                except Exception as exc:  # a raising check is a failed pair
                    problem = f"{type(exc).__name__}: {exc}"
                if problem is None:
                    pairs += 1
                else:
                    problems.append(f"{xmod.name}: {problem}")
    return pairs, problems


def check_battery(outputs, args):
    pairs, problems = outputs
    return pairs, problems, {}


def run_cli(doc, args):
    _, emit = cli_paths(doc.parent, args.seed, args.format)
    out = io.StringIO()
    code = cli.run_command(["groupoid", str(doc), "--hom", "X", "X",
                            "--emit", str(emit), "--format", args.format], out=out)
    return code, out.getvalue().encode(), emit


def check_cli(outputs, args):
    code, stdout, emit = outputs
    emitted = emit.read_bytes() if emit.exists() else b""
    arrows, problems = cli_check.check_groupoid_output(args.format, code, stdout, emitted)
    return arrows, problems, {"cli.stdout_bytes": len(stdout),
                              "cli.emit_bytes": len(emitted)}


def run_laws(xmod, args):
    built = groupoid.build_hom_groupoid(xmod, xmod, workers=1)
    return built, groupoid.homotopy_classes(built), groupoid.validate_groupoid(built)


def check_laws(outputs, args):
    built, classes, report = outputs
    problems = []
    if (len(built.objects), len(built.arrows)) != (LAWS_OBJECTS, LAWS_ARROWS):
        problems.append(f"{len(built.objects)} objects and {len(built.arrows)} "
                        f"arrows, expected {LAWS_OBJECTS} and {LAWS_ARROWS}")
    sizes = sorted(len(c) for c in classes)
    if sizes != LAWS_CLASS_SIZES:
        problems.append(f"class sizes {sizes}, expected {LAWS_CLASS_SIZES}")
    if not report.ok or set(report.checks) != LAWS_CHECKS:
        problems.append(f"groupoid laws: {report.summary()}")
    triples = spans.composable_triples(built)
    if triples != LAWS_TRIPLES:
        problems.append(f"{triples} composable triples, expected {LAWS_TRIPLES}")
    return triples, problems, {}


WORKLOADS = {
    "induced_battery": (setup_battery, run_battery, check_battery),
    "groupoid_cli": (setup_cli, run_cli, check_cli),
    "groupoid_laws": (setup_laws, run_laws, check_laws),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "job"), required=True)
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file the traced job's spans are written to")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    source = (ROOT / "src" / "liecross").resolve()
    if Path(liecross.__file__).resolve().parent != source:
        print(f"liecross imported from {liecross.__file__}, not {source}",
              file=sys.stderr)
        return 2
    setup, run, check = WORKLOADS[args.workload]
    data = setup(args.seed, Path(args.out_dir))
    result = {"setup_s": perf_counter() - _START,
              "backend": liecross.KERNEL_BACKEND,
              "python": sys.version.split()[0]}
    if args.mode == "job":
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        outputs = run(data, args)
        result["job_s"] = perf_counter() - start
        items, problems, extra = check(outputs, args)
        result.update(items=items, problems=problems[:20],
                      peak_rss_mb=peak_rss_kb() / 1024)
        if tracer is not None:
            result["layers"] = {**tracer.layers(), **extra}
            result["covered_s"] = tracer.covered_s()
            if args.spans:
                tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
