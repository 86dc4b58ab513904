"""Algebraic combiner certification: exhaustive evaluation of declared
merge ops (REP114) and CombinerCertificate semantics."""

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.check.deep import deep_analyze_source
from repro.check.deep.certify import certify_combiner, evaluate_op
from repro.core.combine import (
    ANY,
    MIN,
    OVERWRITE,
    SUM,
    WITNESS,
    Combiner,
    OpSemantics,
    known_ops,
    op_semantics,
    register_op_semantics,
)


def assert_concrete_witnesses(fn, counter):
    """Every counterexample ``evaluate_op`` reports must actually refute
    its property when the merge function is applied to it."""
    if "idempotent" in counter:
        a, b = counter["idempotent"]
        assert fn(fn(a, b), b) != fn(a, b)
    if "commutative" in counter:
        s, a, b = counter["commutative"]
        assert fn(fn(s, a), b) != fn(fn(s, b), a)
    if "associative" in counter:
        a, b, c = counter["associative"]
        assert fn(fn(a, b), c) != fn(a, fn(b, c))


class TestEvaluateOp:
    def test_min_has_all_three_properties(self):
        idem, comm, assoc, counter = evaluate_op(op_semantics("min"))
        assert idem and comm and assoc
        assert counter == {}

    def test_sum_is_commutative_not_idempotent(self):
        idem, comm, assoc, counter = evaluate_op(op_semantics("sum"))
        assert comm and assoc and not idem
        assert "idempotent" in counter

    def test_overwrite_is_order_dependent(self):
        idem, comm, assoc, counter = evaluate_op(op_semantics("overwrite"))
        # apply-order commutativity: f(f(s,a),b) vs f(f(s,b),a) differ
        assert not comm
        assert "commutative" in counter

    def test_sub_is_apply_order_commutative_not_idempotent(self):
        # s - a - b == s - b - a: subtraction commutes as an *action*,
        # but re-applying an update double-subtracts
        idem, comm, assoc, counter = evaluate_op(op_semantics("sub"))
        assert comm and not idem and not assoc

    @pytest.mark.parametrize("op", known_ops())
    def test_counterexamples_are_concrete_witnesses(self, op):
        sem = op_semantics(op)
        idem, comm, assoc, counter = evaluate_op(sem)
        if sem.fn is None:  # witness: nondeterministic by declaration
            assert (idem, comm, assoc, counter) == (None, None, None, {})
            return
        # a property is refuted exactly when a witness is reported
        assert set(counter) == {
            name for name, ok in (("idempotent", idem),
                                  ("commutative", comm),
                                  ("associative", assoc)) if not ok
        }
        assert_concrete_witnesses(sem.fn, counter)

    @settings(max_examples=100, deadline=None)
    @given(table=st.fixed_dictionaries({
        (a, b): st.sampled_from((0, 1, 2))
        for a in (0, 1, 2) for b in (0, 1, 2)
    }))
    def test_arbitrary_merge_counterexamples_are_concrete(self, table):
        # merge functions drawn as random lookup tables over a 3-value
        # domain: every refutation must come with a real witness
        def fn(a, b):
            return table[(a, b)]

        _idem, _comm, _assoc, counter = evaluate_op(
            OpSemantics(fn, (0, 1, 2)))
        assert_concrete_witnesses(fn, counter)


class TestCertifyCombiner:
    def test_min_certificate(self):
        cert = certify_combiner("labels", MIN)
        assert cert.status == "certified"
        assert cert.idempotent and cert.commutative and cert.associative
        assert cert.overclaims == []

    def test_any_certificate(self):
        cert = certify_combiner("in_frontier", ANY)
        assert cert.idempotent and cert.commutative

    def test_sum_certificate_is_honest_not_idempotent(self):
        cert = certify_combiner("acc", SUM)
        assert cert.status == "certified"  # declaration is honest
        assert cert.commutative and not cert.idempotent

    def test_witness_is_nondeterministic(self):
        cert = certify_combiner("preds", WITNESS)
        assert cert.status == "nondeterministic"
        assert cert.idempotent is None and cert.commutative is None

    def test_overwrite_underclaim_is_allowed(self):
        # OVERWRITE declares commutative=False: the evaluation agrees,
        # so there is no over-claim even though it isn't certifiable
        cert = certify_combiner("x", OVERWRITE)
        assert cert.status == "certified"
        assert cert.overclaims == []
        assert not cert.commutative

    @staticmethod
    def assert_overclaim_refuted(lying, refuted):
        cert = certify_combiner("x", lying)
        assert cert.status == "refuted"
        assert refuted in cert.overclaims
        assert refuted in cert.counterexamples
        assert_concrete_witnesses(
            op_semantics(lying.op).fn, cert.counterexamples)

    def test_overclaim_is_refuted_with_counterexample(self):
        self.assert_overclaim_refuted(
            Combiner("overwrite", commutative=True, idempotent=True),
            "commutative")

    def test_last_writer_commutativity_overclaim_is_refuted(self):
        # last-writer-wins is order-dependent
        self.assert_overclaim_refuted(
            Combiner("last", commutative=True, reason="wrongly claimed"),
            "commutative")

    def test_sum_idempotency_overclaim_is_refuted(self):
        # re-applying a sum update double-counts
        self.assert_overclaim_refuted(
            Combiner("sum", commutative=True, idempotent=True,
                     reason="wrongly claimed"),
            "idempotent")

    def test_unknown_op(self):
        cert = certify_combiner("x", Combiner("frobnicate"))
        assert cert.status == "unknown-op"
        assert cert.commutative is None

    def test_registered_custom_op_certifies(self):
        register_op_semantics("gcd2", lambda a, b: abs(a) | abs(b),
                              domain=(0, 1, 2, 3))
        cert = certify_combiner(
            "x", Combiner("gcd2", commutative=True, idempotent=True)
        )
        assert cert.status == "certified"
        assert cert.idempotent and cert.commutative

    def test_certificate_roundtrips_to_dict(self):
        d = certify_combiner("labels", MIN).to_dict()
        assert d["array"] == "labels"
        assert d["evaluated"]["idempotent"] is True
        assert d["declared"] == {"commutative": True, "idempotent": True}


TOY_REJECT = '''
"""doc"""
from repro.core.problem import ProblemBase
from repro.core.combine import Combiner

LYING = Combiner("overwrite", commutative=True, idempotent=True)


class ToyProblem(ProblemBase):
    combiners = {"state": LYING, "delta": Combiner("sub", idempotent=True)}
'''


class TestStaticCertification:
    def test_toy_noncommutative_primitive_rejected(self):
        findings, certs = deep_analyze_source(TOY_REJECT, "toy.py")
        rep114 = [f for f in findings if f.rule_id == "REP114"]
        assert rep114, "over-claimed combiners must be rejected"
        msgs = " | ".join(f.message for f in rep114)
        assert "commutative" in msgs and "counterexample" in msgs
        assert "idempotent" in msgs  # the sub over-claim
        by_array = {c.array: c for c in certs}
        assert by_array["state"].status == "refuted"

    def test_bfs_dobfs_cc_certified_idempotent_commutative(self):
        # the acceptance criterion, statically, on the shipped sources
        prim = pathlib.Path(repro.__path__[0]) / "primitives"
        for fname, arrays in [
            ("bfs.py", ["labels"]),
            ("dobfs.py", ["labels", "in_frontier"]),
            ("cc.py", ["comp"]),
        ]:
            src = (prim / fname).read_text(encoding="utf-8")
            findings, certs = deep_analyze_source(src, str(prim / fname))
            assert not [f for f in findings if f.rule_id == "REP114"]
            by_array = {c.array: c for c in certs}
            for arr in arrays:
                cert = by_array[arr]
                assert cert.idempotent and cert.commutative, (fname, arr)

    def test_unknown_op_with_claims_warns(self):
        src = '''
from repro.core.problem import ProblemBase
from repro.core.combine import Combiner


class P(ProblemBase):
    combiners = {"x": Combiner("mystery", commutative=True)}
'''
        findings, certs = deep_analyze_source(src, "p.py")
        warn = [f for f in findings if f.rule_id == "REP114"]
        assert warn and warn[0].severity == "warning"
        assert certs[0].status == "unknown-op"
