"""Command-line surface.

Subcommands: generate, check, score-partition, absorbers, profile, solve,
sweep.  Every report is JSON with sorted keys; file-emitting commands carry
a run manifest (command, input digest, seed, params, version, timestamp) so
that identical manifests reproduce byte-identical output.  Exit codes:
0 success, 1 negative verdict, 2 usage or parse error, 3 partial sweep
failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .absorption import (ALPHA1, ConnectivityProfile, connectivity_profile,
                         enumerate_connectors, enumerate_strong_absorbers,
                         enumerate_weak_absorbers)
from .conditions import (HypothesisViolatedError, check_ghouila_houri,
                         check_nash_williams, check_ore,
                         check_semidegree_consequence, check_sparse_set_bound,
                         check_woodall, frac_json)
from .extremal import (InfeasibleParamsError, find_sharp_pair,
                       generate_extremal, table_params, verify_partition)
from .fileio import EdgeListParseError, emit_edge_list, parse_edge_list
from .generators import random_min_semidegree, random_oriented
from .graph import GraphError, OrientedGraph, OutOfRangeError, Partition4
from .hamilton import (DP_MAX_N, TooLargeError, exact_brute, exact_dp,
                       find_hamilton_absorption, hall_witness)
from .seeds import derive_seed

SCHEMA = "oriham/1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3

_encode_str = json.encoder.encode_basestring_ascii


class UsageError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'u,v', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}")


def _id_set(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ids: {text!r}")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest(command: str, input_bytes: bytes, seed: int,
              params: dict, timestamp: str | None) -> dict:
    return {
        "command": command,
        "input_sha256": _digest(input_bytes),
        "seed": seed,
        "params": params,
        "version": __version__,
        "timestamp": timestamp if timestamp is not None else _now(),
    }


def _dumps(obj) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2)``, faster, on the
    documents the CLI emits: dicts with str keys, lists and tuples, and
    str, int, bool or None leaves.  Any other key or leaf raises TypeError.

    With ``indent`` set, ``json.dumps`` runs CPython's pure-Python encoder.
    Here each container is joined once, and a run of equal-width int rows
    (``absorbers``' members) is one format call over its joined row
    template."""
    return _encode(obj, "\n")


def _encode(o, nl: str) -> str:
    """``o`` encoded at the nesting whose line break and indent is ``nl``."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        template = _row_template(o, inner)
        if template is not None:
            return (("[" + inner + ("," + inner).join([template] * len(o)) + nl + "]")
                    % tuple(chain.from_iterable(o)))
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in o]) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        if not all(map(isinstance, o, repeat(str))):
            raise TypeError(f"keys must be str, got {sorted(map(repr, o))}")
        inner = nl + "  "
        items = [_encode_str(key) + ": " + _encode(o[key], inner) for key in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"cannot encode {type(o).__name__} {o!r}")


def _row_template(rows, nl: str) -> str | None:
    """The %-template of one row, when all rows are non-empty lists or
    tuples of plain ints of one length; else None."""
    width = len(rows[0]) if type(rows[0]) in (list, tuple) else 0
    if (not width or not set(map(type, rows)) <= {list, tuple}
            or set(map(len, rows)) != {width}
            or set(map(type, chain.from_iterable(rows))) != {int}):
        return None
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(["%d"] * width) + nl + "]"


def _write(text: str, out: str | None) -> None:
    """``text`` on stdout, or in the file ``out``; a file that cannot be
    written is a usage error."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}")


def _emit(obj, out: str | None) -> None:
    _write(_dumps(obj) + "\n", out)


_DEAD = "\n      [\n        %d,\n        %d\n      ]"
_PAIR_TAIL = np.array([',\n        "k": %d\n      }' % k for k in range(4)], object)


def _profile_text(prof: ConnectivityProfile) -> str:
    """What ``_emit`` writes for {"schema": SCHEMA, "profile": {"pairs":
    {"u,v": {"count": c, "k": k}, ...}, "unconnectable": [[u, v], ...]}},
    without building that map.  Its keys sort as strings, and ',' sorts
    below every digit, so both axes run over the vertex ids in str order.

    A pair's text is four table lookups: the head by u, the middle by v,
    the tail by k, and the count in the table of str(0..n), which holds
    every k = 1 count (at most n - 2); the few k >= 2 counts above n are
    formatted one by one.  The text is one join over head, pairs and tail."""
    n = len(prof.k)
    order = np.array(sorted(range(n), key=str), dtype=np.intp)
    u, v = np.nonzero(prof.k[np.ix_(order, order)])
    u, v = order[u], order[v]
    count = prof.count[u, v]
    big = count > n
    text = np.empty(4 * u.size + 2, object)
    pieces = text[1:-1].reshape(-1, 4)
    pieces[:, 0] = np.array([',\n      "%d,' % i for i in range(n)], object)[u]
    pieces[:, 1] = np.array(['%d": {\n        "count": ' % i for i in range(n)], object)[v]
    pieces[:, 2] = np.array(list(map(str, range(n + 1))), object)[np.where(big, 0, count)]
    pieces[big, 2] = list(map(str, count[big].tolist()))
    pieces[:, 3] = _PAIR_TAIL[prof.k[u, v]]
    if u.size:
        pieces[0, 0] = pieces[0, 0][1:]  # no comma before the first pair
    dead = ",".join(map(_DEAD.__mod__, prof.unconnectable))
    text[0] = '{\n  "profile": {\n    "pairs": {'
    text[-1] = ('%s,\n    "unconnectable": %s\n  },\n  "schema": %s\n}\n'
                % ("\n    }" if u.size else "}", "[%s\n    ]" % dead if dead else "[]",
                   _encode_str(SCHEMA)))
    return "".join(text.tolist())


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not a text file ({exc})")


def _load_graph(path: str) -> OrientedGraph:
    text = _read_text(path)
    try:
        return parse_edge_list(text)
    except (EdgeListParseError, GraphError) as exc:
        raise UsageError(f"{path}: {exc}")


def _load_partition(path: str) -> Partition4:
    text = _read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})")
    if isinstance(payload, dict) and "partition" in payload:
        payload = payload["partition"]
    if not isinstance(payload, dict) or set(payload) != {"A", "B", "C", "D"}:
        raise UsageError(f"{path}: expected an object with keys A, B, C, D")
    classes = [payload[label] for label in "ABCD"]
    if not all(isinstance(xs, list) and all(type(v) is int for v in xs)
               for xs in classes):
        raise UsageError(f"{path}: each class must be a list of vertex ids")
    try:
        return Partition4.of(*classes)
    except ValueError as exc:
        raise UsageError(f"{path}: bad partition ({exc})")


def _partition_json(part: Partition4) -> dict:
    return {label: sorted(part.classes()[label]) for label in "ABCD"}


# -- subcommands --------------------------------------------------------------


def _only(args, flag: str, option: str, mode: str) -> None:
    """Refuse ``--flag`` unless ``--option`` is ``mode``, the mode that reads it."""
    if getattr(args, flag) is not None and getattr(args, option) != mode:
        raise UsageError(f"--{flag} applies only to --{option} {mode}")


def cmd_generate(args) -> int:
    params = table_params(args.n, args.a, ac_extra=args.ac_edges,
                          d_extra=args.d_edges, seed=args.seed)
    g, part = generate_extremal(params)  # refuses n > MAX_VERTICES first
    text = emit_edge_list(g)
    sidecar = {
        "schema": SCHEMA,
        "params": asdict(params),
        "partition": _partition_json(part),
        "sharp_bound": params.bound,
        "manifest": _manifest("generate", text.encode(), args.seed,
                              {"n": args.n, "a": args.a,
                               "ac_edges": args.ac_edges, "d_edges": args.d_edges},
                              args.timestamp),
    }
    _write(text, args.out)
    if args.out is not None:
        _emit(sidecar, args.out + ".json")
    return EXIT_OK


_CHECKS = {
    "ore": check_ore,
    "semideg": check_semidegree_consequence,
    "gh": check_ghouila_houri,
    "woodall": check_woodall,
    "nash-williams": check_nash_williams,
}


def cmd_check(args) -> int:
    _only(args, "set", "condition", "sparse-set")
    _only(args, "sigma", "condition", "sparse-set")
    g = _load_graph(args.input)
    if args.condition == "sparse-set":
        if args.set is None or args.sigma is None:
            raise UsageError("sparse-set requires --set and --sigma")
        for v in args.set:
            g.check_vertex(v)
        report = check_sparse_set_bound(g, set(args.set), args.sigma)
    else:
        report = _CHECKS[args.condition](g)
    _emit({"schema": SCHEMA, "report": report.to_json_dict()}, args.out)
    return EXIT_OK if report.satisfied else EXIT_NEGATIVE


def cmd_score_partition(args) -> int:
    g = _load_graph(args.input)
    part = _load_partition(args.partition)
    report = verify_partition(g, part, args.eta, args.ceta)
    _emit({"schema": SCHEMA, "report": report.to_json_dict()}, args.out)
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def cmd_absorbers(args) -> int:
    _only(args, "k", "kind", "connector")
    _only(args, "alpha1", "kind", "weak")
    if args.kind == "connector" and args.k is None:
        raise UsageError("--kind connector requires --k")
    g = _load_graph(args.input)
    u, v = args.pair
    if args.kind == "connector":
        members = enumerate_connectors(g, u, v, args.k, cap=args.cap)
    elif args.kind == "strong":
        members = enumerate_strong_absorbers(g, u, v, cap=args.cap)
    else:
        alpha1 = ALPHA1 if args.alpha1 is None else args.alpha1
        members = enumerate_weak_absorbers(g, u, v, alpha1, cap=args.cap)
    _emit({
        "schema": SCHEMA,
        "kind": args.kind,
        "pair": [u, v],
        "count": len(members),
        "members": members,
    }, args.out)
    return EXIT_OK


def cmd_profile(args) -> int:
    g = _load_graph(args.input)
    _write(_profile_text(connectivity_profile(g)), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    _only(args, "seed", "method", "absorb")
    g = _load_graph(args.input)
    if args.method == "brute":
        result = exact_brute(g)
    elif args.method == "dp":
        result = exact_dp(g)
    else:
        result = find_hamilton_absorption(g, seed=0 if args.seed is None else args.seed)
    _emit({"schema": SCHEMA, "method": args.method,
           "result": result.to_json_dict()}, args.out)
    return EXIT_OK if result.found else EXIT_NEGATIVE


# -- sweep --------------------------------------------------------------------


def _value(entry: dict, key: str, convert=int):
    """``convert`` of the entry's ``key``, which ``cmd_sweep`` fills when
    absent with the kind's default in ``_SWEEPS``, None marking a required
    key; a failed conversion is a ValueError naming the key."""
    value = entry[key]
    try:
        return convert(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"{key} = {value!r}: {exc}") from None


def _decide(g: OrientedGraph) -> tuple[str, tuple | None]:
    """The verdict of ``exact_dp`` up to DP_MAX_N vertices.  Above it,
    "none_exists" with the ``hall_witness`` when there is one, else
    "skipped", with None for the witness."""
    if g.n <= DP_MAX_N:
        return exact_dp(g).verdict, None
    witness = hall_witness(g)
    return ("none_exists" if witness else "skipped"), witness


def _sweep_sharpness(entry: dict, seed: int) -> dict:
    n, a = _value(entry, "n"), _value(entry, "a")
    params = table_params(n, a, seed=seed)
    g, part = generate_extremal(params)
    pair = find_sharp_pair(g, params.bound)
    sizes_ok = tuple(len(part.classes()[lab]) for lab in "ABCD") == params.sizes
    verdict, witness = _decide(g)
    ok = sizes_ok and pair is not None and verdict in ("none_exists", "skipped")
    return {"n": n, "a": a, "bound": params.bound,
            "sharp_pair": list(pair) if pair else None,
            "sizes_ok": sizes_ok, "hamilton_verdict": verdict, "ok": ok,
            **({"hall_set_size": len(witness[0])} if witness else {})}


def _sweep_robustness(entry: dict, seed: int) -> dict:
    n, a = _value(entry, "n"), _value(entry, "a")
    ac_extra = _value(entry, "ac_extra")
    d_extra = _value(entry, "d_extra")
    rounds = _count(entry, "seeds")
    verdicts = []
    for i in range(rounds):
        params = table_params(n, a, ac_extra=ac_extra, d_extra=d_extra,
                              seed=derive_seed(seed, "robustness", i))
        verdicts.append(_decide(generate_extremal(params)[0])[0])
    found = rounds - verdicts.count("none_exists") - verdicts.count("skipped")
    return {"n": n, "a": a, "ac_extra": ac_extra, "d_extra": d_extra,
            "seeds": rounds, "hamiltonian_found": found, "ok": found == 0,
            **({"undecided": verdicts.count("skipped")} if n > DP_MAX_N else {})}


def _sizes(entry: dict) -> range:
    """The entry's vertex counts n_min..n_max; instance seed ``inst`` draws
    ``sizes[inst % len(sizes)]``."""
    n_min, n_max = _value(entry, "n_min"), _value(entry, "n_max")
    if not 0 <= n_min <= n_max:
        raise ValueError(f"size range n_min = {n_min}, n_max = {n_max} "
                         "is empty or negative")
    return range(n_min, n_max + 1)


def _count(entry: dict, key: str) -> int:
    """The entry's ``key``, which must not be negative."""
    value = _value(entry, key)
    if value < 0:
        raise ValueError(f"{key} = {value} is negative")
    return value


def _probability(x) -> Fraction:
    """A rational in [0, 1], written as a number or a string such as "1/2"."""
    p = Fraction(str(x))
    if not 0 <= p <= 1:
        raise ValueError("not in [0, 1]")
    return p


def _sweep_oracle(entry: dict, seed: int) -> dict:
    count = _count(entry, "count")
    sizes = _sizes(entry)
    prob = float(_value(entry, "arc_prob", _probability))
    disagreements = 0
    for i in range(count):
        inst = derive_seed(seed, "oracle", i)
        n = sizes[inst % len(sizes)]
        g = random_oriented(n, prob, inst)
        if exact_brute(g).verdict != exact_dp(g).verdict:
            disagreements += 1
    return {"instances": count, "disagreements": disagreements,
            "ok": disagreements == 0}


def _sweep_pipeline(entry: dict, seed: int) -> dict:
    count = _count(entry, "count")
    sizes = _sizes(entry)
    min_rate = _value(entry, "min_rate", _probability)
    successes = 0
    for i in range(count):
        inst = derive_seed(seed, "pipeline", i)
        n = sizes[inst % len(sizes)]
        g = random_min_semidegree(n, math.ceil(3 * n / 8), inst)
        if find_hamilton_absorption(g, seed=inst).found:
            successes += 1
    rate = Fraction(successes, count) if count else Fraction(1)
    return {"instances": count, "successes": successes,
            "rate": frac_json(rate), "min_rate": frac_json(min_rate),
            "ok": rate >= min_rate}


_SWEEPS = {
    "sharpness": (_sweep_sharpness, {"n": None, "a": None}),
    "robustness": (_sweep_robustness, {"n": None, "a": None, "ac_extra": 0,
                                       "d_extra": 0, "seeds": 20}),
    "oracle": (_sweep_oracle, {"count": 50, "n_min": 5, "n_max": 9,
                               "arc_prob": "1/2"}),
    "pipeline": (_sweep_pipeline, {"count": 20, "n_min": 24, "n_max": 64,
                                   "min_rate": "9/10"}),
}


def cmd_sweep(args) -> int:
    try:
        raw = Path(args.spec).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {args.spec}: {exc}")
    try:
        spec = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"{args.spec}: invalid JSON ({exc})")
    entries = spec.get("entries", []) if isinstance(spec, dict) else spec
    if not isinstance(entries, list):
        raise UsageError(f"{args.spec}: expected a list of entries")

    rows = []
    failures = 0
    for idx, entry in enumerate(entries):
        kind = entry.get("kind") if isinstance(entry, dict) else None
        if kind not in _SWEEPS:
            raise UsageError(f"entry {idx}: unknown kind {kind!r}")
        fn, keys = _SWEEPS[kind]
        try:
            if unread := sorted(entry.keys() - keys.keys() - {"kind"}):
                raise ValueError(f"{kind} reads no key {', '.join(unread)}")
            result = fn({**keys, **entry}, derive_seed(args.seed, "sweep", idx))
        except (GraphError, InfeasibleParamsError, TooLargeError,
                ValueError) as exc:
            result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if not result["ok"]:
            failures += 1
        rows.append({"index": idx, "kind": kind, **result})

    report = {
        "schema": SCHEMA,
        "manifest": _manifest("sweep", raw, args.seed,
                              {"entries": len(entries)}, args.timestamp),
        "rows": rows,
        "failures": failures,
    }
    _emit(report, args.out)
    return EXIT_PARTIAL if failures else EXIT_OK


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it: each
    parse_args call fills a fresh namespace, so no state carries over."""
    parser = argparse.ArgumentParser(
        prog="oriham",
        description="Oriented-graph Hamiltonicity toolkit: sharp extremal "
                    "generators, degree-condition checkers, absorber gadget "
                    "enumeration, and exact/heuristic cycle solvers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a sharp four-block instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--ac-edges", type=int, default=0)
    p.add_argument("--d-edges", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="edge-list path; JSON sidecar lands at <out>.json")
    p.add_argument("--timestamp", help="manifest timestamp override")
    p.set_defaults(fn=cmd_generate,
                   input_errors=(InfeasibleParamsError, OutOfRangeError))

    p = sub.add_parser("check", help="run a degree-condition checker")
    p.add_argument("--condition", required=True,
                   choices=[*_CHECKS, "sparse-set"])
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", type=_fraction)
    p.add_argument("--set", type=_id_set, metavar="IDS")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check,
                   input_errors=(HypothesisViolatedError, OutOfRangeError))

    p = sub.add_parser("score-partition",
                       help="score a labeled 4-partition against the "
                            "near-extremal template")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", required=True, help="JSON with keys A,B,C,D")
    p.add_argument("--eta", type=_fraction, required=True)
    p.add_argument("--ceta", type=_fraction, default=Fraction(1))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_score_partition, input_errors=(ValueError,))

    p = sub.add_parser("absorbers", help="enumerate gadgets for one pair")
    p.add_argument("--input", required=True)
    p.add_argument("--pair", type=_pair, required=True, metavar="U,V")
    p.add_argument("--kind", choices=["strong", "weak", "connector"],
                   default="strong")
    p.add_argument("--k", type=int, choices=[1, 2, 3])
    p.add_argument("--cap", type=int)
    p.add_argument("--alpha1", type=_fraction)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_absorbers, input_errors=(GraphError, ValueError))

    p = sub.add_parser("profile", help="connectivity profile of non-arc pairs")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_profile, input_errors=())

    p = sub.add_parser("solve", help="decide or search for a Hamilton cycle")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["brute", "dp", "absorb"], default="dp")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve, input_errors=(TooLargeError,))

    p = sub.add_parser("sweep", help="run a seeded experiment sweep")
    p.add_argument("--spec", required=True, help="JSON sweep description")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timestamp", help="manifest timestamp override")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sweep, input_errors=())

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a UsageError, or a library error its subparser
    declares in ``input_errors``, exits 2 with the error's message."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, *args.input_errors) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
