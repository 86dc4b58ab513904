"""Baseline suppression for deep findings: CI gates on *new* findings.

A deep tier that must be finding-free from day one can never ship new
rules; a baseline file makes the gate incremental instead.  Each known
finding is recorded by a **fingerprint** that survives unrelated edits:
the SHA-1 of (normalized path | rule id | sorted extra context |
message), truncated to 16 hex chars.  Line/column numbers are
deliberately excluded — inserting a line above a baselined finding must
not resurrect it — and so are the ``(<function>:<line>)`` source
positions some messages quote (REP117 names the hook line of each
unsafe update).

The committed baseline (``check_deep_baseline.json``) is loaded by
``repro check --deep --baseline <file>``; matching findings are
suppressed (and counted), anything new fails the gate.
``--write-baseline`` regenerates the file from the current findings.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, Iterable, List, Tuple

from ..findings import Finding

__all__ = [
    "fingerprint",
    "load_baseline",
    "write_baseline",
    "baseline_document",
    "split_baselined",
]

_BASELINE_VERSION = 1

#: extra keys excluded from fingerprints: run metadata that legitimately
#: changes without the finding itself changing (e.g. the model checker's
#: explored-state counters shift with any POR refinement, but the
#: REP116/117 verdict they annotate is the same finding)
_VOLATILE_EXTRA = frozenset({"mc_states", "mc_schedules", "mc_pruned"})

#: a ``(<name>:<line>)`` source position quoted inside a message
_POSITION = re.compile(r"\(([A-Za-z_][\w.]*):\d+\)")


def _stable_path(path: str) -> str:
    """Repo-stable form of a finding path: posix separators, rooted at
    the package (``src/...``) when recognizable, so the fingerprint is
    identical whether the checker ran on ``src/repro``, an absolute
    path, or from a different working directory."""
    p = path.replace("\\", "/")
    marker = "src/"
    idx = p.rfind("/" + marker)
    if idx >= 0:
        return p[idx + 1:]
    if p.startswith(marker):
        return p
    return p.lstrip("./")


def fingerprint(finding: Finding) -> str:
    """Stable 16-hex-char identity of one finding (line-independent)."""
    extra = "|".join(
        f"{k}={finding.extra[k]}" for k in sorted(finding.extra)
        if k not in _VOLATILE_EXTRA
    )
    payload = "|".join([
        _stable_path(finding.path),
        finding.rule_id,
        extra,
        _POSITION.sub(r"(\1)", finding.message),
    ])
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


def baseline_document(findings: Iterable[Finding]) -> dict:
    """The JSON document recording the given findings as suppressed."""
    seen = set()
    suppressions: List[dict] = []
    for f in sorted(findings, key=lambda f: (f.path, f.rule_id, f.message)):
        fp = fingerprint(f)
        if fp in seen:
            continue
        seen.add(fp)
        suppressions.append({
            "fingerprint": fp,
            "rule_id": f.rule_id,
            "path": _stable_path(f.path),
            "message": f.message,
        })
    return {
        "version": _BASELINE_VERSION,
        "tool": "repro-check-deep",
        "suppressions": suppressions,
    }


def write_baseline(path: str, findings: Iterable[Finding]) -> int:
    """Write (overwrite) a baseline file; returns suppression count."""
    doc = baseline_document(findings)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(doc["suppressions"])


def load_baseline(path: str) -> Dict[str, dict]:
    """Load a baseline file; returns fingerprint -> suppression entry."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "suppressions" not in doc:
        raise ValueError(f"not a repro-check-deep baseline file: {path}")
    out: Dict[str, dict] = {}
    for entry in doc["suppressions"]:
        fp = entry.get("fingerprint")
        if isinstance(fp, str) and fp:
            out[fp] = entry
    return out


def split_baselined(
    findings: Iterable[Finding], baseline: Dict[str, dict]
) -> Tuple[List[Finding], List[Finding]]:
    """Partition findings into (new, suppressed) against a baseline."""
    new: List[Finding] = []
    suppressed: List[Finding] = []
    for f in findings:
        (suppressed if fingerprint(f) in baseline else new).append(f)
    return new, suppressed
