"""Command-line entry point: ``quit-bench [experiment ...]``.

Runs the requested experiments (default: all) at the chosen scale and
prints each as a plain-text table.  Example::

    quit-bench fig8 tab2 --n 50000 --leaf-capacity 64

``quit-bench workload`` is the Benchmark-on-Data-Sortedness tool the
paper uses (§5): it writes key streams with a requested K-L sortedness
and measures the K-L sortedness (plus the survey metrics of §2) of
existing streams::

    quit-bench workload generate out.txt --n 1000000 --k 0.05 --l 1.0
    quit-bench workload measure out.txt
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

import json
from pathlib import Path

import numpy as np

from ..sortedness.bods import BodsSpec, generate
from ..sortedness.metrics import (
    dis_measure,
    inversion_count,
    kl_sortedness,
    out_of_order_count,
    runs_count,
)
from .experiments import EXPERIMENTS
from .harness import BenchScale
from .reporting import render, render_chart, to_json_dict

#: Experiments whose leading numeric column supports a quick ASCII plot:
#: exp id -> (x column, y columns).
_PLOTTABLE = {
    "fig3": ("k_pct", ["fast_pct"]),
    "fig5a": ("k_pct", ["tail_fast_pct", "lil_fast_pct"]),
    "fig5b": ("k_pct", ["tail_model_pct", "lil_eq1_pct", "ideal_pct"]),
    "fig8": ("k_pct", ["tail_x", "lil_x", "quit_x"]),
    "fig9": ("k_pct", ["tail_fast_pct", "lil_fast_pct", "quit_fast_pct"]),
    "fig10a": ("k_pct", ["btree_occ_pct", "quit_occ_pct"]),
    "fig10b": ("k_pct", ["normalized"]),
    "fig14": ("k_pct", ["sware_insert_us", "quit_insert_us"]),
    "tab2": ("k_pct", ["reduction_x"]),
}


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for quit-bench."""
    parser = argparse.ArgumentParser(
        prog="quit-bench",
        description=(
            "Regenerate the tables and figures of 'QuIT your B+-tree "
            "for the Quick Insertion Tree' (EDBT 2025)."
        ),
        epilog="'quit-bench workload {generate,measure} ...' generates "
               "and measures K-L-sorted key streams (BoDS).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"experiment ids to run (default: all). "
             f"Known: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--n", type=int, default=None,
        help="entries per configuration (default: 100000)",
    )
    parser.add_argument(
        "--leaf-capacity", type=int, default=None,
        help="leaf node capacity (default: 64)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="base RNG seed",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None,
        help=(
            "ingest through insert_many in chunks of this size instead "
            "of per-key insert (default: per-key). Note: fast-path "
            "fraction figures (fig3/fig5/fig9) count per-key hits and "
            "read 0 under batched ingest; see TreeStats.batch_* instead"
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="use the seconds-scale smoke sizing",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit",
    )
    parser.add_argument(
        "--json-dir", type=Path, default=None,
        help="also write each result as JSON into this directory",
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="render an ASCII chart for experiments with numeric series",
    )
    return parser


def _workload_parser() -> argparse.ArgumentParser:
    """Argument parser for ``quit-bench workload``."""
    parser = argparse.ArgumentParser(
        prog="quit-bench workload",
        description="Generate and measure K-L-sorted key streams (BoDS).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="write a BoDS stream to a file (one key/line)"
    )
    gen.add_argument("path", type=Path, help="output file")
    gen.add_argument("--n", type=int, default=1_000_000,
                     help="number of entries")
    gen.add_argument("--k", type=float, default=0.0,
                     help="out-of-order fraction in [0, 1]")
    gen.add_argument("--l", type=float, default=1.0,
                     help="max displacement fraction in [0, 1]")
    gen.add_argument("--alpha", type=float, default=1.0,
                     help="Beta-distribution alpha for positions")
    gen.add_argument("--beta", type=float, default=1.0,
                     help="Beta-distribution beta for positions")
    gen.add_argument("--seed", type=int, default=42)

    meas = sub.add_parser(
        "measure", help="measure the sortedness of a key stream file"
    )
    meas.add_argument("path", type=Path, help="input file (one key/line)")
    meas.add_argument(
        "--full", action="store_true",
        help="also compute O(n log n)+ survey metrics (inversions, Dis)",
    )
    return parser


def _generate(args: argparse.Namespace) -> int:
    try:
        spec = BodsSpec(
            n=args.n, k_fraction=args.k, l_fraction=args.l,
            alpha=args.alpha, beta=args.beta, seed=args.seed,
        )
    except ValueError as exc:
        print(f"invalid workload spec: {exc}", file=sys.stderr)
        return 2
    keys = generate(spec)
    np.savetxt(args.path, keys, fmt="%d")
    print(f"wrote {len(keys):,} keys to {args.path} "
          f"(K={args.k:.2%}, L={args.l:.2%}, seed={args.seed})")
    return 0


def _measure(args: argparse.Namespace) -> int:
    if not args.path.exists():
        print(f"no such file: {args.path}", file=sys.stderr)
        return 2
    keys = np.loadtxt(args.path, dtype=np.int64, ndmin=1).tolist()
    if not keys:
        print("empty stream", file=sys.stderr)
        return 2
    m = kl_sortedness(keys)
    print(f"entries:               {m.n:,}")
    print(f"K (min removals):      {m.k:,}  ({m.k_fraction:.2%})")
    print(f"L (max displacement):  {m.l:,}  ({m.l_fraction:.2%})")
    print(f"predecessor breaks:    {out_of_order_count(keys):,}")
    print(f"ascending runs:        {runs_count(keys):,}")
    if args.full:
        print(f"inversions:            {inversion_count(keys):,}")
        print(f"Dis (max inv. span):   {dis_measure(keys):,}")
    return 0


def scale_from_args(args: argparse.Namespace) -> BenchScale:
    """Resolve the CLI flags into a BenchScale."""
    scale = BenchScale.smoke() if args.smoke else BenchScale.default()
    overrides = {}
    if args.n is not None:
        overrides["n"] = args.n
    if args.leaf_capacity is not None:
        overrides["leaf_capacity"] = args.leaf_capacity
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if overrides:
        from dataclasses import replace

        scale = replace(scale, **overrides)
    return scale


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["workload"]:
        wargs = _workload_parser().parse_args(argv[1:])
        if wargs.command == "generate":
            return _generate(wargs)
        return _measure(wargs)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.batch_size is not None and args.batch_size <= 0:
        parser.error(f"--batch-size must be positive, got {args.batch_size}")
    if args.list:
        for exp_id, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{exp_id:10s} {doc}")
        return 0
    requested = args.experiments or list(EXPERIMENTS)
    unknown = [e for e in requested if e not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"known: {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    scale = scale_from_args(args)
    batch_note = (
        f" batch_size={scale.batch_size}" if scale.batch_size else ""
    )
    print(
        f"scale: n={scale.n} leaf_capacity={scale.leaf_capacity} "
        f"seed={scale.seed}{batch_note}",
        flush=True,
    )
    if args.json_dir is not None:
        args.json_dir.mkdir(parents=True, exist_ok=True)
    for exp_id in requested:
        started = time.perf_counter()
        result = EXPERIMENTS[exp_id](scale)
        elapsed = time.perf_counter() - started
        print()
        print(render(result))
        if args.plot and exp_id in _PLOTTABLE:
            x, ys = _PLOTTABLE[exp_id]
            print()
            print(render_chart(result, x, ys))
        if args.json_dir is not None:
            path = args.json_dir / f"{exp_id}.json"
            path.write_text(json.dumps(to_json_dict(result), indent=2))
        print(f"({exp_id} took {elapsed:.1f}s)", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
