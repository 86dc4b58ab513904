"""Deep-tier output plumbing: SARIF 2.1.0 emission, fingerprint-based
baseline suppression, and deterministic finding order across tiers."""

import json
import pathlib

import repro
from repro.check import lint_paths
from repro.check.findings import Finding
from repro.check.deep import (
    DEEP_RULES,
    deep_analyze_paths,
    deep_analyze_source,
    findings_to_sarif,
    fingerprint,
    load_baseline,
    split_baselined,
    write_baseline,
)

BAD_SRC = '''
"""doc"""
import numpy as np
from repro.core.problem import ProblemBase
from repro.core.iteration import IterationBase


class ToyProblem(ProblemBase):
    def init_data_slice(self, ds, sub):
        ds.allocate("labels", sub.num_vertices, sub.csr.ids.vertex_dtype)


class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        ctx.slice["labels"][frontier] = 0.5 * frontier
        self.stash = frontier
        return frontier, []
'''


def bad_findings(path="bad.py"):
    findings, _ = deep_analyze_source(BAD_SRC, path)
    return findings


class TestSarif:
    def test_document_shape(self):
        findings = bad_findings()
        assert findings
        doc = json.loads(findings_to_sarif(findings, rules=DEEP_RULES))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert {"REP110", "REP112"} <= set(rule_ids)
        assert len(run["results"]) == len(findings)
        first = run["results"][0]
        assert first["ruleId"] in set(rule_ids)
        assert rule_ids[first["ruleIndex"]] == first["ruleId"]
        loc = first["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "bad.py"
        assert loc["region"]["startLine"] >= 1

    def test_severity_maps_to_level(self):
        findings = bad_findings()
        findings[0].severity = "warning"
        doc = json.loads(findings_to_sarif(findings))
        levels = {r["level"] for r in doc["runs"][0]["results"]}
        assert "warning" in levels and "error" in levels

    def test_unknown_rules_synthesized(self):
        doc = json.loads(findings_to_sarif(bad_findings(), rules=None))
        assert doc["runs"][0]["tool"]["driver"]["rules"]

    def test_empty_findings_is_valid(self):
        doc = json.loads(findings_to_sarif([]))
        assert doc["runs"][0]["results"] == []


class TestBaseline:
    def test_fingerprint_is_line_independent(self):
        a = bad_findings()
        shifted = deep_analyze_source("\n\n\n" + BAD_SRC, "bad.py")[0]
        assert [f.line for f in a] != [f.line for f in shifted]
        assert [fingerprint(f) for f in a] == [
            fingerprint(f) for f in shifted
        ]

    def test_fingerprint_ignores_quoted_source_positions(self):
        # REP117 messages quote hook positions such as
        # "(full_queue_core:106)"; moving the hook must not resurrect it
        def rep117(hook, line):
            return Finding(
                rule_id="REP117", rule="relaxed-barrier-unsafe",
                path="src/repro/primitives/sssp.py", line=line, col=0,
                message=f"'dist' update ({hook}:{line}) is computed "
                        "from {dist}",
            )

        moved = fingerprint(rep117("full_queue_core", 212))
        assert fingerprint(rep117("full_queue_core", 105)) == moved
        assert fingerprint(rep117("expand_incoming", 105)) != moved

    def test_fingerprint_is_path_root_stable(self):
        a = bad_findings("src/repro/primitives/bad.py")
        b = bad_findings("/abs/checkout/src/repro/primitives/bad.py")
        assert [fingerprint(f) for f in a] == [fingerprint(f) for f in b]

    def test_roundtrip_suppresses_known_findings(self, tmp_path):
        findings = bad_findings()
        bl_path = tmp_path / "baseline.json"
        n = write_baseline(str(bl_path), findings)
        assert n == len({fingerprint(f) for f in findings})
        baseline = load_baseline(str(bl_path))
        new, suppressed = split_baselined(findings, baseline)
        assert new == []
        assert len(suppressed) == len(findings)

    def test_new_findings_not_suppressed(self, tmp_path):
        findings = bad_findings()
        bl_path = tmp_path / "baseline.json"
        write_baseline(str(bl_path), findings[:1])
        baseline = load_baseline(str(bl_path))
        new, suppressed = split_baselined(findings, baseline)
        assert suppressed == findings[:1]
        assert new == findings[1:]

    def test_committed_baseline_carries_known_rep117s(self):
        # the only accepted findings are the model checker's three
        # known relaxed-barrier refutations (SSSP, PR, BC); anything
        # else (REP110-116 especially) must fail the CI gate
        repo_root = pathlib.Path(repro.__path__[0]).parent.parent
        bl = repo_root / "check_deep_baseline.json"
        assert bl.is_file(), "committed deep baseline must exist"
        entries = load_baseline(str(bl))
        assert len(entries) == 3
        assert all(e["rule_id"] == "REP117" for e in entries.values())
        paths = {e["path"] for e in entries.values()}
        assert paths == {
            "src/repro/primitives/sssp.py",
            "src/repro/primitives/pr.py",
            "src/repro/primitives/bc.py",
        }


class TestDeterministicOrder:
    def test_lint_paths_sorted_across_files(self):
        pkg = str(pathlib.Path(repro.__path__[0]))
        a = lint_paths([pkg])
        b = lint_paths([pkg])
        keys = [(f.path, f.line, f.col, f.rule_id) for f in a]
        assert keys == sorted(keys)
        assert [(f.path, f.line) for f in a] == [
            (f.path, f.line) for f in b
        ]

    def test_deep_report_sorted_and_stable(self, tmp_path):
        # two files whose names reverse-sort vs their finding order
        (tmp_path / "zz.py").write_text(BAD_SRC, encoding="utf-8")
        (tmp_path / "aa.py").write_text(BAD_SRC, encoding="utf-8")
        report = deep_analyze_paths([str(tmp_path)],
                                    verify_framework=False)
        keys = [(f.path, f.line, f.col, f.rule_id) for f in report.findings]
        assert keys == sorted(keys)
        again = deep_analyze_paths([str(tmp_path)],
                                   verify_framework=False)
        assert keys == [
            (f.path, f.line, f.col, f.rule_id) for f in again.findings
        ]
