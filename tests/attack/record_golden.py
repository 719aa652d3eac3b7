"""Record golden gauntlet rows: the fault-model-visible output of ``Bank``.

Run from the repo root to (re)generate ``golden_gauntlet_rows.json``::

    PYTHONPATH=src python tests/attack/record_golden.py

The host equivalence suites compare two hosts driving the *same* bank
code, so a change inside :class:`~repro.dram.bank.Bank` cannot show there.
These cells pin it instead: every exact per-ACT path (SiMRA groups under
PRAC, REF-time TRR refreshes, PRAC's RFM refreshes) runs in them.  The
committed digests were recorded before the fused row-group restore and
the majority fixpoint replaced the per-row restore loop; re-record only
for a change that is meant to move attack results.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.attack import run_cell, synthesize_attacks
from repro.core.scale import ExperimentScale
from repro.dram.vendors import make_module

CONFIG = "hynix-a-8gb"
ATTACKS = ("naive-rowhammer", "sync-rowhammer", "sync-comra", "sync-simra16")
MITIGATIONS = ("sampling-trr", "prac-po-naive", "prac-po-wc", "prac-ao-wc")
BUDGET = ExperimentScale.smoke().attack_acts
PATH = Path(__file__).parent / "golden_gauntlet_rows.json"


def row_digest(row: dict) -> str:
    """SHA-256 of a ``CellResult.to_row()`` in canonical JSON."""
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


def record() -> dict:
    specs = {spec.name: spec for spec in synthesize_attacks(make_module(CONFIG))}
    return {
        f"{attack}/{mitigation}": row_digest(
            run_cell(CONFIG, specs[attack], mitigation, BUDGET).to_row()
        )
        for attack in ATTACKS
        for mitigation in MITIGATIONS
    }


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")
