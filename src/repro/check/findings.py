"""Finding: one linter or sanitizer result, renderable as text or JSON.

Both engines of ``repro check`` — the static lint pass and the dynamic
BSP race sanitizer — report through this shape so CI can consume one
machine-readable stream (``python -m repro check --json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

__all__ = ["Finding", "render_findings", "findings_to_json"]


@dataclass
class Finding:
    """One rule violation at a source location.

    ``rule_id`` is the stable machine identifier (``REP103``), ``rule``
    the human mnemonic (``bare-dtype``); waivers accept either.
    """

    rule_id: str
    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"
    #: free-form extra context (offending symbol, suggested fix, ...)
    extra: Dict[str, str] = field(default_factory=dict)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        d = {
            "rule_id": self.rule_id,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }
        if self.extra:
            d["extra"] = dict(self.extra)
        return d

    def render(self) -> str:
        return (
            f"{self.location()}: {self.severity}: "
            f"{self.rule_id} ({self.rule}): {self.message}"
        )


def render_findings(findings: Iterable[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    findings = list(findings)
    lines = [f.render() for f in findings]
    n = len(findings)
    lines.append(
        "repro check: clean" if n == 0
        else f"repro check: {n} finding{'s' if n != 1 else ''}"
    )
    return "\n".join(lines)


def findings_to_json(findings: Iterable[Finding]) -> str:
    """Machine-readable report for CI (stable schema, version tag)."""
    findings = list(findings)
    by_rule: Dict[str, int] = {}
    for f in findings:
        by_rule[f.rule_id] = by_rule.get(f.rule_id, 0) + 1
    doc = {
        "version": 1,
        "tool": "repro-check",
        "count": len(findings),
        "by_rule": by_rule,
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
