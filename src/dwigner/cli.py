"""Command-line surface.

Subcommands: wigner, sample, facets, classify, slice, distill-check.
Exit codes: 0 = PASS (or informational success), 1 = FAIL verdict,
2 = invalid input, 3 = solver failure (an LP that did not converge; the
message names the LP and gives the solver's reason).  Every output starts
with a `# format-version 1` header and prints numbers at 12 significant
digits, so identical command lines with identical seeds produce
byte-identical files at any --jobs setting.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import FORMAT_VERSION, __version__, fmt_number
from .circuits import (
    CircuitError,
    load_matrix_file,
    load_wigner_state,
    parse_circuit_file,
    parse_slice_file,
    preset_state,
)
from .fields import index_point, require_odd_prime
from .geometry import SolverFailure, classify_state, facet_reports, slice_blocks, slice_csv_blocks
from .simulate import (
    CHUNK_BYTES,
    OracleGuardError,
    compare_distributions,
    distill_step,
    distill_steps,
    oracle_fits,
    parse_distill_file,
    random_distill_instance,
    run_oracle,
    sample_classical,
)
from .stabilizer import require_capped_p
from .wigner import NEG_TOL, wigner_of_state

__all__ = ["main"]


def _emit(chunks, out_path) -> None:
    """Write chunks as they come: to stdout, a pipe or device, or via a temporary file replacing `out_path`."""
    out = Path(out_path).resolve() if out_path else None
    if out is None or out.exists() and not out.is_file():
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as f:
            f.writelines(chunks)
        return
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x") as f:
            f.writelines(chunks)
        if out.exists():
            os.chmod(tmp, out.stat().st_mode)
        os.replace(tmp, out)
    except OSError as exc:  # an error names the user's path, not the temporary file
        raise OSError(exc.errno, exc.strerror, out_path) if exc.filename == str(tmp) else exc
    finally:
        tmp.unlink(missing_ok=True)


def _load_state(spec: str, p: int):
    """Preset name or state file; a bare path reads as `matrix-file:path`, at any `p^n`.

    Returns (rho, exact_w): exact_w holds a Wigner file's rationals, else None.
    """
    if spec.startswith("wigner-file:"):
        return load_wigner_state(Path.cwd() / spec.split(":", 1)[1], p)
    if spec in ("zero", "mixed") or spec.startswith("basis("):
        return preset_state(spec, p, Path.cwd())[0], None
    return load_matrix_file(spec.removeprefix("matrix-file:")), None


def cmd_wigner(args) -> int:
    p = args.p
    require_capped_p(p)
    rho, _ = _load_state(args.state, p)
    W = wigner_of_state(rho, p)
    n = W.n
    lines = [f"# format-version {FORMAT_VERSION}"]
    coord_names = (
        ["a1", "a2"] if n == 1 else [f"{c}_{j}" for j in range(1, n + 1) for c in ("a1", "a2")]
    )
    lines.append("index," + ",".join(coord_names) + ",value")
    for i, v in enumerate(W.values):
        pt = index_point(i, p, n)
        lines.append(f"{i}," + ",".join(str(c) for c in pt) + f",{fmt_number(v)}")
    worst = int(np.argmin(W.values))
    flag = "NEGATIVE" if W.values[worst] < -NEG_TOL else "NONNEGATIVE"
    lines.append(f"# min_W = {fmt_number(W.values[worst])} at index {worst}")
    lines.append(f"# F = {fmt_number(p**n * W.values.min())}")
    lines.append(f"# flag = {flag}")
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def cmd_sample(args) -> int:
    prog = parse_circuit_file(args.circuit)
    # the sampler is the only validator: without a seed, or when the oracle
    # check would refuse the circuit, it runs zero shots, so a rejected
    # circuit reports REJECT before the missing seed or the oracle guard
    draw = args.seed is not None and (not args.oracle_check or oracle_fits(prog))
    shots = args.shots if draw else 0
    try:
        rpt = sample_classical(prog, seed=args.seed, shots=shots, jobs=args.jobs)
    except CircuitError as exc:
        if not exc.problems:
            raise
        for prob in exc.problems:
            print(f"reject: {prob}", file=sys.stderr)
        print("REJECT", file=sys.stderr)
        return 2
    if args.shots == 0:
        print("ACCEPT")
        return 0
    if args.seed is None:
        print("error: sampling requires an explicit --seed", file=sys.stderr)
        return 2
    ref = None
    cmp_res = None
    if args.oracle_check:
        ref = run_oracle(prog)
        cmp_res = compare_distributions(ref, rpt.counts, rpt.shots)
    lines = [f"# format-version {FORMAT_VERSION}"]
    lines.append("outcome,count,probability,reference_probability")
    alphabet = sorted(set(rpt.counts) | (set(ref.probabilities) if ref else set()))
    for k in alphabet:
        c = rpt.counts.get(k, 0)
        refp = fmt_number(ref.probabilities[k]) if ref else ""
        lines.append(f"{k},{c},{fmt_number(c / rpt.shots)},{refp}")
    lines.append(f"# shots = {rpt.shots}")
    lines.append(f"# seed = {rpt.seed}")
    lines.append(f"# field_mults = {rpt.field_mults}")
    lines.append(f"# field_adds = {rpt.field_adds}")
    if cmp_res:
        lines.append(f"# tv = {fmt_number(cmp_res.tv)}")
        lines.append(f"# epsilon = {fmt_number(cmp_res.epsilon)}")
        lines.append(f"# chi2_stat = {fmt_number(cmp_res.chi2_stat)}")
        lines.append(f"# chi2_p = {fmt_number(cmp_res.chi2_p)}")
        lines.append(f"# verdict = {cmp_res.verdict}")
    _emit(["\n".join(lines) + "\n"], args.out)
    if cmp_res and cmp_res.verdict != "PASS":
        return 1
    return 0


def cmd_facets(args) -> int:
    reports = facet_reports(require_capped_p(args.p))
    lines = [f"# format-version {FORMAT_VERSION}"]
    lines.append(
        "a1,a2,all_vertices_nonnegative,saturating_count,saturating_span_dim,"
        "is_facet,min_vertex_value"
    )
    for r in reports:
        lines.append(
            f"{r.point[0]},{r.point[1]},{r.all_vertices_nonnegative},{r.saturating_count},"
            f"{r.saturating_span_dim},{r.is_facet},{fmt_number(r.min_vertex_value)}"
        )
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0 if all(r.is_facet for r in reports) else 1


def cmd_classify(args) -> int:
    p = args.p
    require_capped_p(p)
    rho, exact_w = _load_state(args.state, p)
    if rho.shape[0] != p:
        raise ValueError(f"classify handles single qudits; got dimension {rho.shape[0]}")
    # a Wigner file whose values sum to exactly 1 decides the sign test and,
    # for p = 3, the hull verdict on its rationals, as a slice scan does; a
    # file of rounded decimals keeps the float route and its tolerances
    if exact_w is not None and sum(exact_w) != 1:
        exact_w = None
    label, details = classify_state(rho=rho, p=p, exact_w=exact_w)
    lines = [f"# format-version {FORMAT_VERSION}"]
    lines.append(f"label = {label}")
    lines.append(f"min_eig = {fmt_number(details['min_eig'])}")
    lines.append(f"min_W = {fmt_number(details['min_wigner'])}")
    cert = details.get("certificate")
    if cert is not None:
        if cert.inside:
            lines.append(f"lp_residual = {fmt_number(cert.residual)}")
        else:
            lines.append(f"lp_violation = {fmt_number(cert.violation)}")
            lines.append("witness_y = " + " ".join(fmt_number(y) for y in cert.witness_y))
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def cmd_slice(args) -> int:
    spec = parse_slice_file(args.spec)
    _emit(slice_csv_blocks(spec, slice_blocks(spec)), args.out)
    return 0


def _suite_chunks(args, verdicts: set):
    """The random suite's CSV text, one chunk per batch of instances
    (distill_steps); the header rides on the first chunk, so an invalid --p
    or --n writes nothing.  Each verdict goes into `verdicts`.

    An instance stacks 2n - 1 complex p x p factors, and at its peak a
    batch's factor check holds about four copies of them: the factors, their
    stack, its conjugate transpose and the difference.  A batch takes as
    many instances as four copies fit in CHUNK_BYTES, at least one."""
    require_odd_prime(args.p)
    batch = max(1, CHUNK_BYTES // (4 * 16 * args.p**2 * (2 * args.n - 1)))
    rng = np.random.default_rng(args.seed)
    head = f"# format-version {FORMAT_VERSION}\ninstance,F_in,F_out,branch_probability,verdict\n"
    for start in range(0, args.random_suite, batch):
        count = min(batch, args.random_suite - start)
        insts = [random_distill_instance(args.p, args.n, rng) for _ in range(count)]
        lines = []
        for i, res in enumerate(distill_steps(insts), start):
            verdicts.add(res.verdict)
            if res.verdict == "SKIP":
                lines.append(f"{i},,,0,SKIP")
            else:
                lines.append(
                    f"{i},{fmt_number(res.F_in)},{fmt_number(res.F_out)},"
                    f"{fmt_number(res.branch_probability)},{res.verdict}"
                )
        yield head + "\n".join(lines) + "\n"
        head = ""
    yield f"# verdict = {'FAIL' if 'FAIL' in verdicts else 'PASS'}\n"


def cmd_distill_check(args) -> int:
    if args.random_suite is not None:
        if args.seed is None:
            print("error: --random-suite requires an explicit --seed", file=sys.stderr)
            return 2
        verdicts = set()
        _emit(_suite_chunks(args, verdicts), args.out)
        return 1 if "FAIL" in verdicts else 0
    if args.instance is None:
        print("error: need an instance file or --random-suite", file=sys.stderr)
        return 2
    inst = parse_distill_file(args.instance)
    res = distill_step(inst, force_negative_input=args.force_negative_input)
    lines = [f"# format-version {FORMAT_VERSION}"]
    lines.append(f"F_in = {fmt_number(res.F_in)}")
    lines.append(f"F_out = {fmt_number(res.F_out)}")
    lines.append(f"branch_probability = {fmt_number(res.branch_probability)}")
    lines.append(f"verdict = {res.verdict if res.verdict else 'RECORDED'}")
    _emit(["\n".join(lines) + "\n"], args.out)
    if res.verdict == "FAIL":
        return 1
    return 0


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it as it is."""
    ap = argparse.ArgumentParser(
        prog="dwigner",
        description="Discrete Wigner functions, stabilizer geometry and "
        "hidden-variable circuit sampling for odd-prime qudits.",
    )
    ap.add_argument(
        "--version",
        action="version",
        version=f"dwigner {__version__} (format-version {FORMAT_VERSION})",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    w = sub.add_parser("wigner", help="Wigner table and negativity of a state")
    w.add_argument("state", help="preset (zero, basis(k), mixed, *-file:path) or matrix file path")
    w.add_argument("--p", type=int, default=3)
    w.add_argument("--out")
    w.set_defaults(func=cmd_wigner)

    s = sub.add_parser("sample", help="classically sample a circuit document")
    s.add_argument("circuit")
    s.add_argument("--shots", type=_int_at_least(0), required=True)
    s.add_argument("--seed", type=_int_at_least(0))
    s.add_argument(
        "--jobs", type=_int_at_least(1), default=1,
        help="accepted for scripts; shots run in one process and the output does not depend on it",
    )
    s.add_argument("--oracle-check", action="store_true")
    s.add_argument("--out")
    s.set_defaults(func=cmd_sample)

    f = sub.add_parser("facets", help="phase-point facet report for the stabilizer polytope")
    f.add_argument("p", type=int)
    f.add_argument("--out")
    f.set_defaults(func=cmd_facets)

    c = sub.add_parser("classify", help="classify a single-qudit state")
    c.add_argument("state")
    c.add_argument("--p", type=int, default=3)
    c.add_argument("--out")
    c.set_defaults(func=cmd_classify)

    sl = sub.add_parser("slice", help="scan a Wigner-simplex slice and label each grid point")
    sl.add_argument("spec")
    sl.add_argument(
        "--jobs", type=_int_at_least(1), default=1,
        help="accepted for scripts; grid points run in one process and the output does not depend on it",
    )
    sl.add_argument("--out")
    sl.set_defaults(func=cmd_slice)

    d = sub.add_parser("distill-check", help="distillation positivity check")
    d.add_argument("instance", nargs="?")
    d.add_argument("--force-negative-input", action="store_true")
    d.add_argument("--random-suite", type=_int_at_least(1))
    d.add_argument("--seed", type=_int_at_least(0))
    d.add_argument("--p", type=int, default=3)
    d.add_argument("--n", type=_int_at_least(2), default=2)
    d.add_argument("--out")
    d.set_defaults(func=cmd_distill_check)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "distill-check" and args.random_suite is not None:
        # a suite draws its own instances and inputs
        if args.instance is not None:
            parser.error("argument --random-suite: not allowed with an instance file")
        if args.force_negative_input:
            parser.error("argument --random-suite: not allowed with --force-negative-input")
    try:
        return args.func(args)
    except (ValueError, OSError, OracleGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
