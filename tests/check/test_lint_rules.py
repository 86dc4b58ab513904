"""Unit tests for each static lint rule (REP101-REP106) and the waiver
machinery, plus the self-cleanliness gate: ``src/repro`` must lint clean
with the default rule set."""

import pathlib

import pytest

import repro
from repro.check import (
    DEFAULT_RULES,
    findings_to_json,
    lint_paths,
    lint_source,
    render_findings,
    rule_index,
)


def ids_of(findings):
    return [f.rule_id for f in findings]


PROBLEM_PREAMBLE = '''
"""doc"""
import numpy as np
from repro.core.problem import ProblemBase
from repro.core.iteration import IterationBase
'''


class TestHookRule:
    def test_missing_full_queue_core(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def expand_incoming(self, ctx, msg):
        return None, []
'''
        findings = lint_source(src, "t.py")
        assert "REP101" in ids_of(findings)
        assert any("full_queue_core" in f.message for f in findings)

    def test_wrong_arity(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx):
        return None, []
'''
        findings = lint_source(src, "t.py")
        msgs = [f for f in findings if f.rule_id == "REP101"]
        assert any("argument" in f.message for f in msgs)

    def test_star_args_accepted(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, *args, **kwargs):
        return None, []
'''
        assert "REP101" not in ids_of(lint_source(src, "t.py"))

    def test_conforming_iteration_clean(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        return frontier, []

    def expand_incoming(self, ctx, msg):
        return None, []
'''
        assert lint_source(src, "t.py") == []


class TestCombinerRule:
    def test_value_associates_without_combiners(self):
        src = PROBLEM_PREAMBLE + '''
class ToyProblem(ProblemBase):
    NUM_VALUE_ASSOCIATES = 1
'''
        assert "REP102" in ids_of(lint_source(src, "t.py"))

    def test_declared_combiners_clean(self):
        src = PROBLEM_PREAMBLE + '''
from repro.core import combine


class ToyProblem(ProblemBase):
    NUM_VALUE_ASSOCIATES = 1
    combiners = {"dist": combine.MIN}
'''
        assert "REP102" not in ids_of(lint_source(src, "t.py"))

    def test_zero_associates_need_no_combiners(self):
        src = PROBLEM_PREAMBLE + '''
class ToyProblem(ProblemBase):
    NUM_VALUE_ASSOCIATES = 0
'''
        assert "REP102" not in ids_of(lint_source(src, "t.py"))


class TestDtypeRule:
    def test_bare_dtype_in_allocate(self):
        src = PROBLEM_PREAMBLE + '''
class ToyProblem(ProblemBase):
    def init_data_slice(self, ds, sub):
        ds.allocate("dist", sub.num_vertices, np.float64)
'''
        assert "REP103" in ids_of(lint_source(src, "t.py"))

    def test_bare_dtype_kwarg(self):
        src = PROBLEM_PREAMBLE + '''
class ToyProblem(ProblemBase):
    def init_data_slice(self, ds, sub):
        ds.allocate("labels", sub.num_vertices, dtype=np.int64)
'''
        assert "REP103" in ids_of(lint_source(src, "t.py"))

    def test_idconfig_dtype_clean(self):
        src = PROBLEM_PREAMBLE + '''
class ToyProblem(ProblemBase):
    def init_data_slice(self, ds, sub):
        ids = sub.csr.ids
        ds.allocate("labels", sub.num_vertices, ids.vertex_dtype)
        ds.allocate("bitmap", sub.num_vertices, bool)
'''
        assert "REP103" not in ids_of(lint_source(src, "t.py"))


class TestHotLoopRule:
    def test_for_loop_in_hot_path(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        for v in frontier:
            pass
        return frontier, []
'''
        assert "REP104" in ids_of(lint_source(src, "t.py"))

    def test_while_fixpoint_allowed(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        while True:
            break
        return frontier, []
'''
        assert "REP104" not in ids_of(lint_source(src, "t.py"))

    def test_control_hooks_exempt(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        return frontier, []

    def on_iteration_end(self, record):
        for k in (1, 2):
            pass
'''
        assert "REP104" not in ids_of(lint_source(src, "t.py"))


class TestAllocRule:
    def test_raw_alloc_in_init(self):
        src = PROBLEM_PREAMBLE + '''
class ToyProblem(ProblemBase):
    def init_data_slice(self, ds, sub):
        buf = np.zeros(sub.num_vertices)
'''
        assert "REP105" in ids_of(lint_source(src, "t.py"))

    def test_raw_alloc_in_hot_path(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        tmp = np.empty(frontier.size)
        return frontier, []
'''
        assert "REP105" in ids_of(lint_source(src, "t.py"))

    def test_empty_sentinel_allowed(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        return np.empty(0, dtype=np.int64), []
'''
        assert "REP105" not in ids_of(lint_source(src, "t.py"))


class TestPeerRule:
    def test_peer_subscript_write(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        self.problem.data_slices[1]["dist"][0] = 9.9
        return frontier, []
'''
        assert "REP106" in ids_of(lint_source(src, "t.py"))

    def test_peer_mutator_call(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        self.problem.data_slices[0]["dist"].fill(0)
        return frontier, []
'''
        assert "REP106" in ids_of(lint_source(src, "t.py"))

    def test_write_through_local_alias(self):
        src = PROBLEM_PREAMBLE + '''
from repro.core.combine import Combiner


class PokeProblem(ProblemBase):
    combiners = {"state": Combiner("min", commutative=True,
                                   idempotent=True)}


class PokeIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        peer = self.problem.data_slices[1]["state"]
        peer[frontier] = ctx.slice["state"][frontier] + 1
        return frontier, []

    def expand_incoming(self, ctx, msg):
        return msg
'''
        findings = [f for f in lint_source(src, "poke.py")
                    if f.rule_id == "REP106"]
        assert len(findings) == 1
        assert findings[0].line == src.splitlines().index(
            "        peer[frontier] = ctx.slice[\"state\"][frontier] + 1") + 1

    def test_mutator_through_alias_chain(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        ds = self.problem.data_slices[1]
        dist = ds["dist"]
        dist.fill(0)
        np.copyto(dist, 1)
        return frontier, []
'''
        findings = [f for f in lint_source(src, "t.py")
                    if f.rule_id == "REP106"]
        assert len(findings) == 2

    def test_plain_read_allowed(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def should_stop(self, iteration, frontier_sizes, messages_in_flight):
        labels = self.problem.data_slices[0]["labels"]
        return bool(labels.max() > 3)

    def full_queue_core(self, ctx, frontier):
        # a .copy() is a private buffer; an alias used only as a value
        # or an index is a read
        snap = self.problem.data_slices[1]["labels"].copy()
        snap[frontier] = 0
        n = self.problem.data_slices[1]["labels"].shape[0]
        ctx.slice["labels"][frontier[frontier < n]] = snap[frontier]
        return frontier, []
'''
        assert "REP106" not in ids_of(lint_source(src, "t.py"))


class TestWaivers:
    SRC = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        for v in frontier:  # repro-check: disable=hot-loop
            pass
        return frontier, []
'''

    def test_same_line_waiver(self):
        assert "REP104" not in ids_of(lint_source(self.SRC, "t.py"))

    def test_comment_line_covers_next(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        # repro-check: disable=REP104
        for v in frontier:
            pass
        return frontier, []
'''
        assert "REP104" not in ids_of(lint_source(src, "t.py"))

    def test_disable_all(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        for v in frontier:  # repro-check: disable=all
            pass
        return frontier, []
'''
        assert "REP104" not in ids_of(lint_source(src, "t.py"))

    def test_waiver_is_rule_specific(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        for v in frontier:  # repro-check: disable=raw-alloc
            pass
        return frontier, []
'''
        assert "REP104" in ids_of(lint_source(src, "t.py"))


class TestInfrastructure:
    def test_parse_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert ids_of(findings) == ["REP000"]

    def test_rule_index_covers_ids_and_names(self):
        idx = rule_index()
        for rule in DEFAULT_RULES:
            assert idx[rule.rule_id] is rule
            assert idx[rule.name] is rule

    def test_rule_ids_unique(self):
        ids = [r.rule_id for r in DEFAULT_RULES]
        assert len(ids) == len(set(ids))

    def test_render_and_json(self):
        findings = lint_source(
            PROBLEM_PREAMBLE + '''
class ToyProblem(ProblemBase):
    NUM_VALUE_ASSOCIATES = 1
''',
            "t.py",
        )
        text = render_findings(findings)
        assert "REP102" in text and "1 finding" in text
        import json

        payload = json.loads(findings_to_json(findings))
        assert payload["count"] == 1
        assert payload["by_rule"] == {"REP102": 1}

    def test_lint_paths_rejects_non_python(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello")
        with pytest.raises(FileNotFoundError):
            lint_paths([target])


class TestSelfLint:
    def test_src_repro_is_clean(self):
        """Satellite 1: the whole framework passes its own linter."""
        pkg = pathlib.Path(repro.__file__).parent
        findings = lint_paths([pkg])
        assert findings == [], render_findings(findings)
