"""Command-line entry point: generation, sanitization, certification,
attacks, and measurements as reproducible file-based runs.

Exit codes: 0 success, 1 input/configuration error, 2 resource or
degenerate-geometry error, 3 internal error.  Outputs are written
atomically (temp file + rename) and embed a manifest with the normalized
command line, seed, input digests and tool version; wall-clock duration
goes to stderr so reruns stay byte-identical.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

import numpy as np

from . import __version__
from .adversary import STRATEGIES, IsolationParams, attack
from .datagen import sample
from .documents import (
    build_manifest,
    dataset_from_doc,
    dataset_to_doc,
    encode,
    histogram_from_doc,
    histogram_to_doc,
    read_json,
    region_from_doc,
    report_doc,
    sha256_file,
    spec_from_doc,
    write_json_atomic,
)
from .errors import (
    DegenerateGeometryError,
    InputError,
    InternalError,
    PrivhistError,
    ResourceError,
)
from .experiments import SUITES, run_suite, verdict_line
from .geometry import Ball, Region
from .metrics import cut_probability, measure_diameters, mst_compare
from .roundness import CERT_SAMPLES, check_privacy_condition
from .rng import substream
from .sanitizer import certify_nodes, default_root_box, method_name, sanitize


def _emit(doc: dict, out: str | None, argv: list[str], seed: int | None,
          inputs: list[str]):
    doc["manifest"] = build_manifest(argv, seed, inputs)
    if out:
        write_json_atomic(out, doc)
    else:
        sys.stdout.write(encode(doc))


def _floats(text: str) -> list[float]:
    """argparse type of a comma-separated list of numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None


def _attach_number_lists(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """``--x -0.5,0.2`` as ``--x=-0.5,0.2``.  argparse reads a value that
    starts with ``-`` and is not one plain number as an option, so a number
    list that starts with a negative number is attached to its option.  The
    options are those of ``parser``'s subcommands whose type is ``_floats``."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    lists = {flag for p in sub.choices.values() for a in p._actions if a.type is _floats
             for flag in a.option_strings}
    out = []
    for arg in argv:
        if out and out[-1] in lists and arg.startswith("-"):
            try:
                _floats(arg)
            except argparse.ArgumentTypeError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def _region(arg: str, d: int) -> tuple[Region | None, list[str]]:
    """The region a ``--support`` value names in d dimensions, and the files
    read for it; ``auto`` is None, the method's default support."""
    if arg == "auto":
        return None, []
    if arg == "unit-ball":
        return Ball(np.zeros(d), 1.0), []
    if arg == "unit-cube":
        return default_root_box(d), []
    return region_from_doc(read_json(arg)), [arg]


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_generate(args, argv):
    spec = spec_from_doc(read_json(args.dist))
    if args.d is not None and args.d != spec.d:
        raise InputError(f"--d {args.d} does not match the distribution dimension {spec.d}")
    data, labels = sample(spec, args.n, args.seed)
    doc = dataset_to_doc(data)
    _emit(doc, args.out, argv, args.seed, [args.dist])
    if args.labels_out:
        _emit(report_doc("labels", {"labels": labels.tolist()}), args.labels_out,
              argv, args.seed, [args.dist])
    return 0


def _cmd_sanitize(args, argv):
    data = dataset_from_doc(read_json(args.input))
    support, files = _region(args.support, data.d)
    hist = sanitize(data, method_name(args.method, args.centers), args.t, args.max_depth,
                    seed=args.seed, support=support, override_m=args.override_m,
                    probe_samples=args.probe_samples)
    _emit(histogram_to_doc(hist), args.out, argv, args.seed, [args.input] + files)
    return 0


def _cmd_certify(args, argv):
    hist = histogram_from_doc(read_json(args.input))
    nodes = list(hist.root.walk())
    cells = [{"cell": i, "level": node.level, "count": node.count, "k": cert.k,
              "radius": cert.radius, "witness": cert.witness.tolist()}
             for i, (node, cert) in enumerate(zip(nodes, certify_nodes(nodes, args.samples)))]
    _emit(report_doc("roundness_certificates", {"cells": cells}), args.out, argv,
          args.seed, [args.input])
    return 0


def _cmd_check_privacy(args, argv):
    hist = histogram_from_doc(read_json(args.input))
    report = check_privacy_condition(
        hist.root, c=args.c, q_probes=args.q_probes, r_grid_size=args.r_grid,
        volume_samples=args.vol_samples, seed=args.seed, max_cells=args.max_cells,
    )
    _emit(report_doc("privacy_condition_report", report.to_dict()), args.out, argv,
          args.seed, [args.input])
    return 0


def _cmd_attack(args, argv):
    if args.aux_frac is not None and not 0.0 <= args.aux_frac <= 1.0:
        raise InputError(f"--aux-frac {args.aux_frac} is not a fraction in [0, 1]")
    hist = histogram_from_doc(read_json(args.hist))
    data = dataset_from_doc(read_json(args.data))
    aux = None
    if args.aux_frac is not None:
        k = int(args.aux_frac * data.n)
        aux = substream(args.seed, "aux-subset").choice(data.n, size=k, replace=False)
    report = attack(hist, data, IsolationParams(c=args.c, t=args.t), args.strategy,
                    queries=args.queries, seed=args.seed, aux_indices=aux)
    _emit(report_doc("isolation_report", report.to_dict()), args.out, argv,
          args.seed, [args.hist, args.data])
    return 0


def _cmd_measure_diameters(args, argv):
    data = dataset_from_doc(read_json(args.data))
    support, files = _region(args.support, data.d)
    stats = measure_diameters(data, t=args.t, trials=args.trials, seed=args.seed,
                              method=args.method, max_depth=args.max_depth, support=support)
    _emit(report_doc("diameter_stats", stats.to_dict()), args.out, argv,
          args.seed, [args.data] + files)
    return 0


def _cmd_cut_prob(args, argv):
    x = np.array(args.x)
    support, files = _region(args.support, x.size)
    if support is None:
        raise InputError("cut-prob needs a support: unit-ball, unit-cube or a region JSON path")
    rows = cut_probability(support, x, args.r_list, m=args.m, trials=args.trials,
                           seed=args.seed)
    body = {
        "m": args.m,
        "trials": args.trials,
        "x": x.tolist(),
        "rows": [{"r": r, "probability": p, "stderr": s} for r, p, s in rows],
    }
    _emit(report_doc("cut_probability", body), args.out, argv, args.seed, files)
    return 0


def _cmd_mst_compare(args, argv):
    hist = histogram_from_doc(read_json(args.hist))
    data = dataset_from_doc(read_json(args.data))
    cmp_ = mst_compare(hist, data)
    _emit(report_doc("mst_comparison", cmp_.to_dict()), args.out, argv, None,
          [args.hist, args.data])
    return 0


def _cmd_repro(args, argv):
    if args.manifest:
        given = [flag for flag, value in (("--seed", args.seed), ("--out", args.out))
                 if value is not None]
        if given:
            raise InputError(f"--manifest replays its own command; {' and '.join(given)} "
                             "would be ignored")
        manifest = read_json(args.manifest).get("manifest")
        inputs = manifest.get("inputs") if isinstance(manifest, dict) else None
        command = manifest.get("command") if isinstance(manifest, dict) else None
        if not (isinstance(inputs, dict) and isinstance(command, list)
                and all(isinstance(a, str) for a in command)):
            raise InputError(f"{args.manifest} carries no manifest to replay: one needs an "
                             "inputs object and a command list of strings")
        for path, digest in inputs.items():
            if sha256_file(path) != digest:
                raise InputError(f"input {path} no longer matches its manifest digest")
        return main(command, replay=True)
    seed = 0 if args.seed is None else args.seed
    report = run_suite(args.suite, seed=seed)
    sys.stderr.write(verdict_line(args.suite, report) + "\n")
    _emit(report_doc("repro_suite", report), args.out, argv, seed, [])
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privhist",
        description="Privacy-preserving spatial histograms: sanitize, certify, attack, measure.",
    )
    parser.add_argument("--version", action="version", version=f"privhist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a dataset from a distribution spec")
    p.add_argument("--dist", required=True, help="distribution spec document")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None, help="expected dimension (validated)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels-out", default=None, help="write mixture labels here")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sanitize", help="build a sanitized histogram")
    p.add_argument("--method", choices=["cube", "grid", "voronoi"], required=True)
    p.add_argument("--centers", choices=["greedy", "uniform"], help="voronoi only; default greedy")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--support", default="auto",
                   help="auto (the method's default), unit-ball, unit-cube, or a region JSON path")
    p.add_argument("--override-m", type=int, help="uniform centers per split (voronoi uniform)")
    p.add_argument("--probe-samples", type=int, help="probes per split (voronoi greedy)")
    p.set_defaults(func=_cmd_sanitize)

    p = sub.add_parser("certify", help="emit roundness certificates for every cell")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--samples", type=int, default=CERT_SAMPLES,
                   help="directions per cell; the default is what every other command uses")
    p.add_argument("--seed", type=int, default=0, help="recorded in the manifest only")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("check-privacy", help="probe the volume-ratio privacy condition")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--q-probes", type=int, default=8)
    p.add_argument("--r-grid", type=int, default=8)
    p.add_argument("--vol-samples", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-cells", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check_privacy)

    p = sub.add_parser("attack", help="run an isolation attack against a histogram")
    p.add_argument("--hist", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--strategy", choices=list(STRATEGIES), required=True)
    p.add_argument("--queries", type=int, required=True)
    p.add_argument("--aux-frac", type=float, default=None,
                   help="share of rows the aux-informed attacker knows; default none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("measure-diameters", help="mean smallest-cell diameters vs t-radius bounds")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=["grid", "voronoi-greedy", "voronoi-uniform"],
                   required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--support", default="auto",
                   help="auto (the method's default), unit-ball, unit-cube, or a region JSON path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_measure_diameters)

    p = sub.add_parser("cut-prob", help="cut probability of balls under random Voronoi partitions")
    p.add_argument("--support", required=True,
                   help="unit-ball, unit-cube, or a region JSON path")
    p.add_argument("--x", type=_floats, required=True, help="comma-separated coordinates")
    p.add_argument("--r-list", type=_floats, required=True, help="comma-separated radii")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cut_prob)

    p = sub.add_parser("mst-compare", help="exact vs histogram-distance MST cost")
    p.add_argument("--hist", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mst_compare)

    p = sub.add_parser("repro", help="run a pinned experiment suite or replay a manifest")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--suite", choices=list(SUITES))
    source.add_argument("--manifest", help="replay the command embedded in a document")
    p.add_argument("--seed", type=int, default=None, help="suite seed; default 0")
    p.add_argument("--out", default=None, help="suite report path; default stdout")
    p.set_defaults(func=_cmd_repro)
    return parser


def main(argv=None, replay: bool = False) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:  # the manifest records argv as given; a replay attaches again
        args = parser.parse_args(_attach_number_lists(argv, parser))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if replay and args.command == "repro" and args.manifest:  # would recurse
        sys.stderr.write("error: a replayed manifest command cannot replay a manifest\n")
        return 1
    start = time.monotonic()
    try:
        code = args.func(args, argv)
    except (InputError,) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ResourceError, DegenerateGeometryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except PrivhistError as exc:  # pragma: no cover - catch-all for new subclasses
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2
    except Exception as exc:  # a bug, not bad input: keep the traceback for the report
        traceback.print_exc(file=sys.stderr)
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    if code == 0:
        sys.stderr.write(f"{args.command} completed in {time.monotonic() - start:.3f}s\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
