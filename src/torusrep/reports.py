"""Verification reports: one uniform record for every suite.

Serialized shape: {config, degrees: [{n, table, lhs, rhs}], verdict,
witness}; identical configs produce byte-identical JSON.
"""
from __future__ import annotations

import json
from typing import Dict, List, Optional


class DecompositionReport:
    """A suite's config, cases, verdict and first failure's witness."""

    def __init__(self, config: Dict):
        self.config = config
        self.degrees: List[Dict] = []
        self.verdict = "pass"
        self.witness: Optional[Dict] = None

    def add_case(self, n, table, lhs, rhs) -> None:
        self.degrees.append({"n": n, "table": table, "lhs": lhs, "rhs": rhs})

    def fail(self, witness: Dict) -> None:
        if self.verdict == "pass":
            self.verdict = "fail"
            self.witness = witness

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> str:
        return json.dumps({"config": self.config, "degrees": self.degrees,
                           "verdict": self.verdict, "witness": self.witness},
                          sort_keys=True, indent=2, separators=(",", ": ")) + "\n"

    def to_tsv(self) -> str:
        lines = ["n\tkey\tlhs\trhs"]
        for entry in self.degrees:
            table = entry.get("table") or {}
            if table:
                for key in sorted(table):
                    val = table[key]
                    lines.append(f"{entry['n']}\t{key}\t{val}\t")
            lines.append(f"{entry['n']}\t<total>\t{entry['lhs']}\t{entry['rhs']}")
        lines.append(f"verdict\t{self.verdict}\t\t")
        if self.witness is not None:
            lines.append("witness\t" + json.dumps(self.witness, sort_keys=True) + "\t\t")
        return "\n".join(lines) + "\n"


def weight_key(w) -> str:
    return "(" + ",".join(str(x) for x in w) + ")"
