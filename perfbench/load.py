"""Loading a workload's input files through the library's parsers.

This is the set-up a user pays before the first question: reading the
CSV (``load_csv``), the key-set text (``parse_keyset_lines``) and the
DIMACS files (``parse_dimacs`` + ``from_3sat``). It imports only the
library, so :mod:`probe` can time ``import keysets`` in a fresh process.
"""

from __future__ import annotations

from pathlib import Path

import keysets as K

CSV_NAMES = {"validate-bulk": "bulk.csv", "validate-nullheavy": "nullheavy.csv"}


def _family(call, text: str):
    """Schema line, key-set lines, optional ``phi:`` line."""
    lines = text.splitlines()
    schema = call("core", "parse_schema", K.parse_schema, lines[0].removeprefix("schema:").strip())
    body = [ln for ln in lines[1:] if not ln.startswith("phi:")]
    sigma = call("core", "parse_keyset_lines", K.parse_keyset_lines, "\n".join(body), schema)
    phi_lines = [ln.removeprefix("phi:").strip() for ln in lines[1:] if ln.startswith("phi:")]
    phi = call("core", "parse_keyset", K.parse_keyset, phi_lines[0], schema) if phi_lines else None
    return schema, sigma, phi


def _cnf(call, path: Path):
    formula = call("implication", "parse_dimacs", K.parse_dimacs, path.read_text(encoding="utf-8"))
    return call("implication", "from_3sat", K.from_3sat, formula)


def load_inputs(workload: str, root: Path, call) -> dict:
    """Parse every input of ``workload`` under ``root``; names sort the files."""
    if workload in CSV_NAMES:
        relation = call("ingest", "load_csv", K.load_csv, root / CSV_NAMES[workload])
        text = (root / "keysets.txt").read_text(encoding="utf-8")
        family = call("core", "parse_keyset_lines", K.parse_keyset_lines, text, relation.schema)
        return {"relation": relation, "keysets": family}
    return {
        "sat": [(p.stem, _cnf(call, p)) for p in sorted((root / "sat").glob("*.cnf"))],
        "proof": [(p.stem, _cnf(call, p)) for p in sorted((root / "proof").glob("*.cnf"))],
        "families": [
            (p.stem, _family(call, p.read_text(encoding="utf-8")))
            for p in sorted((root / "families").glob("*.txt"))
        ],
        "armstrong": [
            (p.stem, _family(call, p.read_text(encoding="utf-8"))[:2])
            for p in sorted((root / "armstrong").glob("*.txt"))
        ],
    }
