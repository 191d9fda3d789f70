"""Entity integrity with key sets over relations with missing values.

A key set is a non-empty collection of keys (attribute sets); a relation
satisfies it when every pair of distinct rows is both total and distinct
on at least one key. The package validates relations against key sets,
decides implication between families of key sets, checks derivations in
the sound and complete rule system (Upward closure, Refinement,
Composition), generates Armstrong relations for the unary fragment, and
benchmarks the validation algorithms.

Each public name is imported from its submodule on first use (PEP 562),
so ``import keysets`` loads no layer yet. Only the layers that hold
relations (relation, validation, armstrong, bench, and ingest once it
loads a relation) import numpy; parsing key sets and DIMACS, reading a
CSV header, generating key-set workloads, deciding implication without
a witness and deriving, writing, reading and checking proofs never do.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public API: each name and the submodule that defines it.
_SOURCE = {
    name: module
    for module, names in {
        "armstrong": (
            "AntiKeyReport",
            "Hypergraph",
            "anti_keys",
            "armstrong_chain",
            "generate_armstrong",
            "is_armstrong_unary",
            "minimal_transversals",
            "size_bounds",
        ),
        "bench": (
            "BenchReport",
            "run_bench",
            "synthetic_relation",
            "violation_percentage",
        ),
        "core": (
            "AttrSet",
            "KeySet",
            "KeySetFamily",
            "ParseError",
            "ResourceLimit",
            "Schema",
            "format_attr_set",
            "format_keyset",
            "format_schema",
            "parse_attr_set",
            "parse_keyset",
            "parse_keyset_lines",
            "parse_schema",
        ),
        "families": ("gen_random_keyset", "gen_sequential_keysets"),
        "implication": (
            "CnfFormula",
            "CounterexampleWitness",
            "Decision",
            "ImplicationInstance",
            "build_counterexample",
            "from_3sat",
            "implies",
            "implies_bruteforce",
            "implies_unary",
            "parse_dimacs",
            "satisfiable",
        ),
        "inference": (
            "Derivation",
            "DerivationStep",
            "RuleError",
            "apply_composition",
            "apply_refinement",
            "apply_upward_closure",
            "check_derivation",
            "derive_keyset",
            "first_invalid_step",
            "format_derivation",
            "parse_derivation",
            "simulate_nary",
        ),
        "ingest": (
            "DatasetStats",
            "IngestConfig",
            "IngestError",
            "dataset_stats",
            "load_csv",
            "read_schema",
            "write_csv",
        ),
        "relation": ("Relation", "Row"),
        "validation": (
            "BlockSet",
            "block_trace",
            "satisfies",
            "violating_blocks",
            "violating_tuples_naive",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import ``name`` from its submodule and keep it as a module global,
    so later lookups do not come here."""
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})
