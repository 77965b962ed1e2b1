"""Command-line interface.

Subcommands: synth | factorize | eval | render | check.
Exit codes: 0 success, 1 verification failure, 2 usage or format error.

Matrix files are dense ('0'/'1' rows, extension .dns) or sparse ("n m"
header then "i j" lines, extension .spm); --format overrides the extension
guess.  All randomness flows from a single --rng seed.
"""

from __future__ import annotations

import contextlib
import random
import sys

from . import bitmat, synth
from .bitmat import BinaryMatrix, FormatError
from .factorizer import VARIANTS, factorize, format_report, parse_report, seeds_sample
from .render import RenderSpec, render_circular, render_heatmap, render_linear


def _guess_format(path: str) -> str | None:
    """The matrix format an extension names: .spm sparse, .dns dense."""
    return "sparse" if path.endswith(".spm") else "dense" if path.endswith(".dns") else None


def _read_matrix(path: str, fmt: str | None) -> BinaryMatrix:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        fmt = fmt or _guess_format(path)
        if fmt is None:
            raise ValueError(f"cannot guess format of {path!r}; pass --format dense|sparse")
        return (bitmat.load_sparse if fmt == "sparse" else bitmat.load_dense)(fh)


WRITE_CHARS = 1 << 19  # characters encoded at once: a slice and its bytes, never a second whole copy of the text


def _write_text(text: str, path: str | None) -> None:
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as fh:
        for at in range(0, len(text), WRITE_CHARS):
            fh.write(text[at : at + WRITE_CHARS])


# -- synth -------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.kind == "blocks":
        m = synth.gen_blocks(synth.BlockSpec(args.blocks, args.size, args.overlap))
        m = synth.flip_noise(m, args.noise, args.rng)
    else:
        m = synth.gen_random(args.n, args.density, args.rng)
    fmt = args.format or (args.output and _guess_format(args.output)) or "sparse"
    text = bitmat.dump_sparse(m) if fmt == "sparse" else bitmat.dump_dense(m)
    _write_text(text, args.output)
    cells = m.n_rows * m.n_cols  # at least one: synth makes no empty matrix
    print(f"{m.n_rows}x{m.n_cols} nnz={m.nnz} density={m.nnz / cells:.4f}", file=sys.stderr)
    return 0


def cmd_factorize(args) -> int:
    d = _read_matrix(args.matrix, args.format)
    seeds = None if args.seeds is None else seeds_sample(d, args.seeds, args.rng)
    f = factorize(d, args.k, variant=args.variant, seeds=seeds)
    report = format_report(f)
    sys.stdout.write(report)
    if args.output:
        _write_text(report, args.output)
    return 0


def cmd_eval(args) -> int:
    with open(args.factors, "r", encoding="utf-8") as fh:
        f = parse_report(fh.read())
    z = None  # built after the first load, whose buffers it would otherwise sit beside
    for path in args.matrix:
        d = _read_matrix(path, args.format)
        z = bitmat.reconstruct(f) if z is None else z
        err = bitmat.hamming_error(d, z)
        rel = err / d.nnz if d.nnz else 0.0  # disagreements per one of d; 0 when d has none
        print(f"{path} ERROR {err} RELERR {rel:.4f}")
    return 0


def cmd_render(args) -> int:
    if (args.labels or args.opacity is not None) and args.layout == "heatmap":
        raise ValueError("heatmap layout takes no --labels or --opacity: it draws no nodes or ribbons")
    if (args.matrix or args.format) and args.layout != "heatmap":
        raise ValueError(f"{args.layout} layout takes no --matrix or --format: it draws the factors only")
    with open(args.factors, "r", encoding="utf-8") as fh:
        f = parse_report(fh.read())
    if args.layout == "heatmap":
        if not args.matrix:
            raise ValueError("heatmap layout needs --matrix")
        _write_text(render_heatmap(_read_matrix(args.matrix, args.format), f), args.output)
        return 0
    labels = None
    if args.labels:
        with open(args.labels, "r", encoding="utf-8") as fh:
            labels = tuple(line.rstrip("\n") for line in fh if line.rstrip("\n"))
    spec = RenderSpec(labels) if args.opacity is None else RenderSpec(labels, args.opacity)
    _write_text((render_circular if args.layout == "circular" else render_linear)(f, spec), args.output)
    return 0


# -- check: oracle batteries ---------------------------------------------------


def cmd_check(args) -> int:
    from . import oracle  # the references are needed here only; other commands skip compiling them

    if args.cases < 1:
        raise ValueError(f"--cases must be positive, got {args.cases}")
    rng = random.Random(args.rng)
    total = 0
    for name, battery in oracle.BATTERIES:
        failure = battery(rng, args.cases)
        if failure:
            print(f"FAIL [{name}]\n  counterexample: {failure}")
            return 1
        print(f"ok   [{name}] {args.cases} cases")
        total += args.cases
    print(f"all {total} cases passed")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    import argparse  # after the package's modules: compiled with argparse loaded, they raised peak RSS 0.3 MB

    def seed(text: str) -> int:  # every --rng: `philox.round_keys` refuses a negative seed, naming no option
        if (value := int(text)) < 0:
            raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
        return value

    def fraction(text: str) -> float | None:  # --seeds: the sampled fraction, None for all seeds
        try:
            value = None if text == "all" else float(text.removeprefix("sample:")) if text.startswith("sample:") else -1.0
        except ValueError:
            value = -1.0
        if value is not None and not 0 < value <= 1:
            raise argparse.ArgumentTypeError(f"must be 'all' or 'sample:FRACTION' with FRACTION in (0, 1], got {text!r}")
        return value

    p = argparse.ArgumentParser(prog="contile", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate benchmark matrices")
    kinds = ps.add_subparsers(dest="kind", required=True)
    pb = kinds.add_parser("blocks", help="overlapping diagonal blocks, optional flip noise")
    pb.add_argument("--blocks", type=int, default=6)
    pb.add_argument("--size", type=int, default=20)
    pb.add_argument("--overlap", type=int, default=5)
    pb.add_argument("--noise", type=float, default=0.0)
    pr = kinds.add_parser("random", help="uniform random square matrix")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--density", type=float, required=True)
    for q in (pb, pr):
        q.add_argument("--rng", type=seed, default=0)
        q.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
        q.add_argument("--format", choices=("dense", "sparse"), default=None)
        q.set_defaults(func=cmd_synth)

    pf = sub.add_parser("factorize", help="run the greedy factorizer")
    pf.add_argument("matrix")
    pf.add_argument("-k", type=int, required=True, help="number of factors")
    pf.add_argument("--variant", choices=VARIANTS, default="plain")
    pf.add_argument("--seeds", type=fraction, default="all", help="'all' or 'sample:FRACTION'")
    pf.add_argument("--rng", type=seed, default=0)
    pf.add_argument("--format", choices=("dense", "sparse"), default=None)
    pf.add_argument("-o", "--output", default=None, help="also write the report here")
    pf.set_defaults(func=cmd_factorize)

    pe = sub.add_parser("eval", help="score a factor file against matrices")
    pe.add_argument("--factors", required=True)
    pe.add_argument("--matrix", action="append", required=True)
    pe.add_argument("--format", choices=("dense", "sparse"), default=None)
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("render", help="draw a factorization as SVG")
    pv.add_argument("--factors", required=True)
    pv.add_argument("--layout", choices=("circular", "linear", "heatmap"), default="circular")
    pv.add_argument("--matrix", default=None, help="data matrix (heatmap layout only)")
    pv.add_argument("--labels", default=None, help="file with one node name per line")
    pv.add_argument("--opacity", type=float, default=None, help="ribbon opacity (circular and linear layouts)")
    pv.add_argument("--format", choices=("dense", "sparse"), default=None)
    pv.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
    pv.set_defaults(func=cmd_render)

    pc = sub.add_parser("check", help="run brute-force oracle batteries")
    pc.add_argument("--cases", type=int, default=200)
    pc.add_argument("--rng", type=seed, default=0)
    pc.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
