"""Command-line interface.

Subcommands cover validation (``validate``), implication (``implies``,
which decides a unary goal in at most one node per member of sigma),
derivation checking (``check-proof``), Armstrong relation generation
(``armstrong``, ``antikeys``), workload generation (``gen-keysets``,
``from-3sat``) and timing (``bench``).

Exit codes: 0 when the property holds (satisfied, implied, valid), 1 when
it does not, 2 on usage or input errors, 3 when a resource limit was hit
(:class:`~keysets.core.ResourceLimit`), and 141 (128 + SIGPIPE), with no
error line, when the reader of standard output closed it early, as
``head`` does. The limits are:

* the nodes the ``implies`` search visits when the product of its kept
  keys' counts exceeds the same number,
  :data:`~keysets.implication.CHOICE_CAP`;
* the minimal transversals that ``antikeys`` and ``armstrong`` enumerate,
  :data:`~keysets.armstrong.TRANSVERSAL_CAP` sets, and the nodes of
  their walk, :data:`~keysets.implication.CHOICE_CAP`;
* the block rows of one refinement state in ``validate --algo linear``
  and ``bench``, :data:`~keysets.validation.BLOCK_ROW_CAP` row copies.

Each command imports the relation-backed layers it uses (validation,
ingest, armstrong, bench) when it runs, so ``from-3sat``, ``check-proof``,
``gen-keysets`` and an ``implies`` that needs no witness never load
numpy, also when ``--schema`` names a CSV file, whose header is read
without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Sequence, TextIO, TypeVar

from .core import (
    KeySet,
    ResourceLimit,
    Schema,
    format_attr_set,
    format_keyset,
    format_schema,
    parse_keyset,
    parse_keyset_lines,
    parse_schema,
)
from .implication import ImplicationInstance, from_3sat, implies, parse_dimacs
from .inference import first_invalid_step, parse_derivation

__all__ = ["main", "run_cli"]

T = TypeVar("T")

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_PIPE = 128 + 13  # SIGPIPE


def _resolve_schema(spec: str) -> Schema:
    """Inline comma list, or the header of an existing CSV file; a spec
    too long to be a path is a list (``os.path.isfile`` is then false)."""
    if not os.path.isfile(spec):
        return parse_schema(spec)
    from .ingest import read_schema

    return _read(spec, read_schema)


def _read(path: str, parse: Callable[[TextIO], T]) -> T:
    """``parse`` of the file at ``path``, opened as UTF-8 with any leading
    byte-order mark dropped and line ends as written. An error in the
    file's content, such as a byte that is not UTF-8, is re-raised as a
    ``ValueError`` that names the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            return parse(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_keyset_family(path: str, schema: Schema):
    family = _read(path, lambda fh: parse_keyset_lines(fh.read(), schema))
    if not family:
        raise ValueError(f"{path}: no key sets found")
    return family


def _add_ingest_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delimiter", default=",", help="csv delimiter (default ,)")
    sub.add_argument(
        "--null-token",
        action="append",
        help="missing-value token, repeatable (default: ? , empty, NULL)",
    )
    sub.add_argument("--no-header", action="store_true", help="csv has no header row")


def _load_data(args: argparse.Namespace):
    from .ingest import IngestConfig, load_csv

    tokens = tuple(args.null_token) if args.null_token else IngestConfig().null_tokens
    config = IngestConfig(delimiter=args.delimiter, null_tokens=tokens, has_header=not args.no_header)
    return _read(args.data, lambda fh: load_csv(fh, config))


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validation import violating_blocks, violating_tuples_naive

    relation = _load_data(args)
    schema = relation.schema
    if args.keyset is not None:
        keysets = (parse_keyset(args.keyset, schema),)
    else:
        keysets = _read_keyset_family(args.keyset_file, schema)
    results = []
    all_ok = True
    for ks in keysets:
        entry: dict = {"keyset": format_keyset(ks, schema), "algo": args.algo}
        if args.algo == "naive":
            violating = violating_tuples_naive(relation, ks)
            entry["satisfied"] = not violating
            entry["violating_row_ids"] = sorted(violating)
        else:
            blocks = violating_blocks(relation, ks)
            entry["satisfied"] = not blocks
            entry["violating_row_ids"] = sorted(blocks.row_ids)
            entry["blocks"] = sorted(sorted(b) for b in blocks)
        all_ok = all_ok and entry["satisfied"]
        results.append(entry)
    if args.report == "json":
        print(json.dumps({"data": str(args.data), "results": results}, indent=2))
    else:
        for entry in results:
            status = "satisfied" if entry["satisfied"] else "violated"
            print(f"{entry['keyset']}: {status}")
            if not entry["satisfied"]:
                ids = " ".join(str(i) for i in entry["violating_row_ids"])
                print(f"  violating rows: {ids}")
                for block in entry.get("blocks", []):
                    print(f"  block: {' '.join(str(i) for i in block)}")
    return EXIT_OK if all_ok else EXIT_NO


def _cmd_implies(args: argparse.Namespace) -> int:
    schema = _resolve_schema(args.schema)
    sigma = _read(args.sigma, lambda fh: parse_keyset_lines(fh.read(), schema))
    phi = parse_keyset(args.phi, schema)
    decision = implies(ImplicationInstance(schema, sigma, phi))
    if decision.implied:
        print("implied")
        return EXIT_OK
    witness = decision.witness
    print("not implied")
    if witness.choice:
        chosen = ", ".join(format_attr_set(k, schema) for k in witness.choice)
        print(f"failing choice: {chosen}")
    from .ingest import write_csv

    if args.witness_out:
        write_csv(witness.relation, args.witness_out)
        print(f"witness written to {args.witness_out}")
    else:
        write_csv(witness.relation, sys.stdout)
    return EXIT_NO


def _cmd_check_proof(args: argparse.Namespace) -> int:
    derivation, _ = _read(args.derivation, lambda fh: parse_derivation(fh.read()))
    bad = first_invalid_step(derivation)
    if bad is None:
        print(f"valid ({len(derivation.steps)} steps)")
        return EXIT_OK
    if bad == len(derivation.steps):
        print("invalid: conclusion is neither a premise nor the final step's result")
    else:
        print(f"invalid: step {bad} does not check")
    return EXIT_NO


def _cmd_armstrong(args: argparse.Namespace) -> int:
    from .armstrong import anti_keys, armstrong_chain
    from .ingest import write_csv

    schema = _resolve_schema(args.schema)
    sigma = _read_keyset_family(args.sigma, schema)
    report = anti_keys(sigma, schema)
    relation = armstrong_chain(report, schema)
    anti_lines = [format_attr_set(a, schema) for a in report.anti_keys]
    if args.out:
        write_csv(relation, args.out)
        for line in anti_lines:
            print(line)
        print(f"armstrong relation written to {args.out}", file=sys.stderr)
    else:
        for line in anti_lines:
            print(line, file=sys.stderr)
        write_csv(relation, sys.stdout)
    return EXIT_OK


def _cmd_antikeys(args: argparse.Namespace) -> int:
    from .armstrong import anti_keys

    schema = _resolve_schema(args.schema)
    sigma = _read_keyset_family(args.sigma, schema)
    for anti in anti_keys(sigma, schema).anti_keys:
        print(format_attr_set(anti, schema))
    return EXIT_OK


def _generated_keysets(args: argparse.Namespace, schema: Schema) -> tuple[KeySet, ...]:
    """The key sets that ``--mode``, ``--param``, ``--seed`` and ``--count`` ask for."""
    from .families import gen_random_keyset, gen_sequential_keysets

    if args.param is not None and args.param < 1:
        raise ValueError("generator parameter must be >= 1")
    if args.mode == "sequential":
        family = gen_sequential_keysets(schema)
        if args.param is None:
            return family
        if args.param > len(family):
            raise ValueError(f"sequential index {args.param} exceeds schema size {len(family)}")
        return (family[args.param - 1],)
    if args.param is None:
        raise ValueError("--param (random key size m) is required for random mode")
    if args.count < 1:
        raise ValueError("count must be >= 1")
    return tuple(gen_random_keyset(schema, args.param, (args.seed or 0) + i) for i in range(args.count))


def _cmd_gen_keysets(args: argparse.Namespace) -> int:
    schema = _resolve_schema(args.schema)
    for ks in _generated_keysets(args, schema):
        print(format_keyset(ks, schema))
    return EXIT_OK


def _cmd_from_3sat(args: argparse.Namespace) -> int:
    formula = _read(args.dimacs, lambda fh: parse_dimacs(fh.read()))
    inst = from_3sat(formula)
    print("schema: " + format_schema(inst.schema))
    for ks in inst.sigma:
        print("sigma: " + format_keyset(ks, inst.schema))
    print("phi: " + format_keyset(inst.phi, inst.schema))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import format_table, reports_to_jsonl, run_bench

    relation = _load_data(args)
    keysets = _generated_keysets(args, relation.schema)
    algos = ("naive", "linear") if args.algo == "both" else (args.algo,)
    reports = []
    for algo in algos:
        reports.extend(
            run_bench(relation, keysets, algo=algo, repeats=args.repeats, dataset=str(args.data))
        )
    sys.stdout.write(format_table(reports))
    if args.out:
        Path(args.out).write_text(reports_to_jsonl(reports), encoding="utf-8")
        print(f"jsonl written to {args.out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keysets",
        description="Key-set integrity over relations with missing values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a csv against key sets")
    p.add_argument("--data", required=True, help="csv file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--keyset", help="key-set text, e.g. {{room,time},{injury}}")
    group.add_argument("--keyset-file", help="file with one key set per line")
    p.add_argument("--algo", choices=("naive", "linear"), default="linear")
    p.add_argument("--report", choices=("table", "json"), default="table")
    _add_ingest_options(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("implies", help="decide key-set implication")
    p.add_argument("--schema", required=True, help="comma list of attributes or a csv file")
    p.add_argument("--sigma", required=True, help="file with one key set per line")
    p.add_argument("--phi", required=True, help="candidate key-set text")
    p.add_argument("--witness-out", help="write a counterexample csv here")
    p.set_defaults(func=_cmd_implies)

    p = sub.add_parser("check-proof", help="verify a derivation file")
    p.add_argument("--derivation", required=True)
    p.set_defaults(func=_cmd_check_proof)

    p = sub.add_parser("armstrong", help="generate an Armstrong relation")
    p.add_argument("--schema", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--out", help="csv output path (default: stdout)")
    p.set_defaults(func=_cmd_armstrong)

    p = sub.add_parser("antikeys", help="list the anti-keys of a family")
    p.add_argument("--schema", required=True)
    p.add_argument("--sigma", required=True)
    p.set_defaults(func=_cmd_antikeys)

    p = sub.add_parser("gen-keysets", help="generate benchmark key sets")
    p.add_argument("--schema", required=True)
    p.add_argument("--mode", choices=("sequential", "random"), required=True)
    p.add_argument("--param", type=int, help="sequential index i or random key size m")
    p.add_argument("--seed", type=int, help="base seed for random mode")
    p.add_argument("--count", type=int, default=1, help="number of random key sets")
    p.set_defaults(func=_cmd_gen_keysets)

    p = sub.add_parser("from-3sat", help="implication instance from a DIMACS cnf")
    p.add_argument("--dimacs", required=True)
    p.set_defaults(func=_cmd_from_3sat)

    p = sub.add_parser("bench", help="time the validation algorithms")
    p.add_argument("--data", required=True, help="csv file")
    p.add_argument("--mode", choices=("sequential", "random"), default="sequential")
    p.add_argument("--param", type=int, help="sequential index i or random key size m")
    p.add_argument("--seed", type=int, help="base seed for random mode")
    p.add_argument("--count", type=int, default=10, help="number of random key sets")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--algo", choices=("naive", "linear", "both"), default="linear")
    p.add_argument("--out", help="write json lines here")
    _add_ingest_options(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def _stdout_to_devnull() -> None:
    """Point standard output at devnull, so that flushing it at interpreter
    exit does not fail on the closed pipe again (the SIGPIPE note in the
    Python docs). An in-memory stream, which has no descriptor, is left as is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_PIPE
    except (ResourceLimit, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, ResourceLimit) else EXIT_USAGE


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
