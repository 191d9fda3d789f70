"""Entity integrity with key sets over relations with missing values.

A key set is a non-empty collection of keys (attribute sets); a relation
satisfies it when every pair of distinct rows is both total and distinct
on at least one key. The package validates relations against key sets,
decides implication between families of key sets, checks derivations in
the sound and complete rule system (Upward closure, Refinement,
Composition), generates Armstrong relations for the unary fragment, and
benchmarks the validation algorithms.
"""

from types import ModuleType as _ModuleType

from .armstrong import (
    AntiKeyReport,
    Hypergraph,
    anti_keys,
    armstrong_chain,
    generate_armstrong,
    is_armstrong_unary,
    minimal_transversals,
    size_bounds,
)
from .bench import (
    BenchReport,
    gen_random_keyset,
    gen_sequential_keysets,
    run_bench,
    synthetic_relation,
    violation_percentage,
)
from .core import (
    AttrSet,
    KeySet,
    KeySetFamily,
    ParseError,
    Relation,
    ResourceLimit,
    Row,
    Schema,
    format_attr_set,
    format_keyset,
    format_schema,
    parse_attr_set,
    parse_keyset,
    parse_keyset_lines,
    parse_schema,
)
from .implication import (
    CnfFormula,
    CounterexampleWitness,
    Decision,
    ImplicationInstance,
    build_counterexample,
    from_3sat,
    implies,
    implies_bruteforce,
    implies_unary,
    parse_dimacs,
    satisfiable,
)
from .inference import (
    Derivation,
    DerivationStep,
    RuleError,
    apply_composition,
    apply_refinement,
    apply_upward_closure,
    check_derivation,
    derive_keyset,
    first_invalid_step,
    format_derivation,
    parse_derivation,
    simulate_nary,
)
from .ingest import (
    DatasetStats,
    IngestConfig,
    IngestError,
    dataset_stats,
    load_csv,
    read_schema,
    write_csv,
)
from .validation import (
    BlockSet,
    block_trace,
    satisfies,
    violating_blocks,
    violating_tuples_naive,
)

__version__ = "0.1.0"

# The import lists above are the public API.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
