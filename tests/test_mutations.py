"""Every single-node corruption of a bundled derivation must be caught,
and the first reported failure must sit exactly at the corrupted node."""

import ast
import dataclasses
import hashlib
import inspect
import random
import re
import textwrap
from collections import Counter

import pytest

import test_typecheck
from builders import build_prebuilt

from storop.formulas import (
    Arrow,
    Bot,
    FoApp,
    PredAbstraction,
    instantiate,
    n_type,
    neg,
)
from storop import typecheck
from storop.prebuilt import load_prebuilt, prebuilt_check_args, prebuilt_names
from storop.terms import Var
from storop.typecheck import Context, check_derivation

_BUILT = {name: build_prebuilt(name) for name in prebuilt_names()}


def paths(d, prefix=()):
    yield prefix, d
    for i, p in enumerate(d.premises):
        yield from paths(p, prefix + (i,))


def rebuild_at(d, path, fn):
    if not path:
        return fn(d)
    ps = list(d.premises)
    ps[path[0]] = rebuild_at(ps[path[0]], path[1:], fn)
    return dataclasses.replace(d, premises=tuple(ps))


# mutation operators: node -> mutated node, or None when not applicable


def wrap_conclusion(node):
    return dataclasses.replace(node, type=Arrow(node.type, node.type))


def relabel_as_axiom(node):
    if node.rule == "ax":
        return None
    return dataclasses.replace(node, rule="ax")


def corrupt_witness(node):
    if node.rule in ("inst-fo", "inst-pred"):
        w = node.witness
        new = FoApp("s", (w,)) if node.rule == "inst-fo" else PredAbstraction(w.params, neg(w.body))
        if instantiate(node.premises[0].type, new) == node.type:
            return None
        return dataclasses.replace(node, witness=new)
    if node.rule == "inst-bot":
        # a witness body that is not a bottomed type
        return dataclasses.replace(
            node, witness=PredAbstraction(node.witness.params, n_type(None))
        )
    if node.rule == "eq":
        (name, direction, spath), *rest = node.witness
        flipped = "rl" if direction == "lr" else "lr"
        return dataclasses.replace(node, witness=((name, flipped, spath),) + tuple(rest))
    return None


def add_junk_hypothesis(node):
    if not node.premises:
        return None
    return dataclasses.replace(node, ctx=node.ctx.extended("q_junk", Bot()))


def rewrite_axiom_context(node):
    if node.rule != "ax":
        return None
    entries = tuple(
        (n, Arrow(a, a)) if n == node.term.name else (n, a) for n, a in node.ctx
    )
    return dataclasses.replace(node, ctx=Context(entries))


OPERATORS = {
    "wrap-conclusion": wrap_conclusion,
    "relabel-as-axiom": relabel_as_axiom,
    "corrupt-witness": corrupt_witness,
    "junk-hypothesis": add_junk_hypothesis,
    "rewrite-axiom-context": rewrite_axiom_context,
}


@pytest.mark.parametrize("opname", sorted(OPERATORS))
@pytest.mark.parametrize("name", prebuilt_names())
def test_single_node_mutations_are_killed_at_the_node(name, opname):
    d = _BUILT[name]
    op = OPERATORS[opname]
    kwargs = prebuilt_check_args(name)
    applied = 0
    for path, node in paths(d):
        mutated = op(node)
        if mutated is None:
            continue
        applied += 1
        mutant = rebuild_at(d, path, lambda _n: mutated)
        rep = check_derivation(mutant, **kwargs)
        assert not rep.ok, f"{opname} at {list(path)} survived"
        first = rep.failures[0][0]
        assert first == path, (
            f"{opname} at {list(path)} first reported at {list(first)}: "
            f"{rep.failures[0][1]}"
        )
    if applied == 0:
        pytest.skip("operator does not apply to this derivation")


def test_mutation_coverage_is_broad():
    total = 0
    for name in prebuilt_names():
        for _, node in paths(_BUILT[name]):
            for op in OPERATORS.values():
                if op(node) is not None:
                    total += 1
    assert total > 400


def test_negated_bottomed_witness_is_caught_at_instantiation():
    # neg(body) is still a bottomed type, so, unlike corrupt-witness, this
    # mutant passes the witness check and must be caught by instantiating
    seen = 0
    for name in prebuilt_names():
        d = _BUILT[name]
        for path, node in paths(d):
            if node.rule != "inst-bot":
                continue
            w = node.witness
            mutated = dataclasses.replace(node, witness=PredAbstraction(w.params, neg(w.body)))
            mutant = rebuild_at(d, path, lambda _n: mutated)
            rep = check_derivation(mutant, **prebuilt_check_args(name))
            assert not rep.ok
            first, message = rep.failures[0]
            assert first == path, f"first reported at {list(first)}: {message}"
            assert message.startswith("instantiation yields"), message
            seen += 1
    assert seen == 7


# sha256 over repr(report.failures) of every mutant, one line each, in the
# order prebuilt name, operator name, node path; recorded before the
# predicate and bottomed namespaces shared one code path in the checker.
MUTANT_FAILURES_DIGEST = "18b4cf6369e0abe7a19334d07142830b27a5db265084c5b03fa591b29c60e8ba"


def test_mutant_failure_lists_fingerprint():
    h = hashlib.sha256()
    count = 0
    for name in prebuilt_names():
        d = _BUILT[name]
        kwargs = prebuilt_check_args(name)
        for opname in sorted(OPERATORS):
            for path, node in paths(d):
                mutated = OPERATORS[opname](node)
                if mutated is None:
                    continue
                rep = check_derivation(rebuild_at(d, path, lambda _n: mutated), **kwargs)
                h.update(repr(rep.failures).encode() + b"\n")
                count += 1
    assert count == 1153
    assert h.hexdigest() == MUTANT_FAILURES_DIGEST


# A read derivation is interned, so the checker decides most comparisons by
# identity; a built one reuses some objects but interns nothing, so many of
# its comparisons fall back to ==. The two must give the same verdicts, with
# the same messages, on every bundled derivation and on every mutant of it.


@pytest.mark.parametrize("name", prebuilt_names())
def test_read_and_built_derivations_get_the_same_reports(name):
    read, built = load_prebuilt(name), _BUILT[name]
    kwargs = prebuilt_check_args(name)
    assert read == built
    rep = check_derivation(read, **kwargs)
    assert rep.ok and check_derivation(built, **kwargs) == rep
    mutants = 0
    for opname in sorted(OPERATORS):
        op = OPERATORS[opname]
        for (path, node), (same_path, twin) in zip(paths(read), paths(built)):
            assert path == same_path
            mutated, mutated_twin = op(node), op(twin)
            assert (mutated is None) == (mutated_twin is None)
            if mutated is None:
                continue
            mine = check_derivation(rebuild_at(read, path, lambda _n: mutated), **kwargs)
            theirs = check_derivation(rebuild_at(built, path, lambda _n: mutated_twin), **kwargs)
            assert mine == theirs, (opname, path)  # ok flags and failure lists
            mutants += 1
    assert mutants > 0


# A sixth operator, kept out of OPERATORS so that the five-operator tests and
# MUTANT_FAILURES_DIGEST stay as recorded: it replaces a node's subject with
# a variable that no context binds. Of the five, none changes a subject.

FRESH = "q_fresh"


def fresh_subject(node):
    return dataclasses.replace(node, term=Var(FRESH))


@pytest.mark.parametrize("name", prebuilt_names())
def test_fresh_subject_mutants_are_killed_at_the_node(name):
    d = _BUILT[name]
    kwargs = prebuilt_check_args(name)
    for path, node in paths(d):
        assert FRESH not in {n for n, _ in node.ctx}
        rep = check_derivation(rebuild_at(d, path, lambda _n: fresh_subject(node)), **kwargs)
        assert not rep.ok, f"fresh subject at {list(path)} survived"
        first, message = rep.failures[0]
        assert first == path, f"fresh subject at {list(path)} first reported at {list(first)}: {message}"


# sha256 over repr(report.failures) of every fresh-subject mutant, one line
# each, in the order prebuilt name, node path; recorded before Context
# indexed its names.
FRESH_SUBJECT_FAILURES_DIGEST = "36beb6c2cdbff72624a6beb45c12aab1337a0e47dbc4c4aa66ef54d4b45e12ea"


def test_fresh_subject_failure_lists_fingerprint():
    h = hashlib.sha256()
    count = 0
    for name in prebuilt_names():
        d = _BUILT[name]
        kwargs = prebuilt_check_args(name)
        for path, node in paths(d):
            rep = check_derivation(rebuild_at(d, path, lambda _n: fresh_subject(node)), **kwargs)
            h.update(repr(rep.failures).encode() + b"\n")
            count += 1
    assert count == 404
    assert h.hexdigest() == FRESH_SUBJECT_FAILURES_DIGEST


# A node keeps the verdict of its last passing check, keyed by fragment and
# equations, and a mutant shares with its source every subtree off its
# mutated path. Checked in a shuffled order, twice, each subject must get the
# report a cold check of a fresh copy gets, whatever was checked before it.


def cold_copy(d):
    """d with every node rebuilt by dataclasses.replace, so none holds a verdict."""
    return dataclasses.replace(d, premises=tuple(cold_copy(p) for p in d.premises))


def test_kept_verdicts_give_the_reports_of_cold_checks():
    settings = [{"fragment": f} for f in typecheck.FRAGMENTS]
    subjects = []  # (derivation, settings) pairs
    for name in prebuilt_names():
        d = load_prebuilt(name)
        mine = settings
        if name == "eq_demo":
            equations = prebuilt_check_args(name)["equations"]
            mine = settings + [{"fragment": f, "equations": equations} for f in typecheck.FRAGMENTS]
        subjects.append((d, mine))
        for op in (*OPERATORS.values(), fresh_subject):
            for path, node in paths(d):
                mutated = op(node)
                if mutated is not None:
                    subjects.append((rebuild_at(d, path, lambda _n: mutated), mine))
    checks = [(d, kwargs) for d, mine in subjects for kwargs in mine]
    cold = {
        (id(d), id(kwargs)): check_derivation(cold_copy(d), **kwargs) for d, kwargs in checks
    }
    order = checks * 2
    random.Random(3701).shuffle(order)
    outcomes = Counter()
    for d, kwargs in order:
        rep = check_derivation(d, **kwargs)
        assert rep == cold[id(d), id(kwargs)], (kwargs, rep.failures[:1])
        outcomes[rep.ok] += 1
    assert len(subjects) == 17 + 1153 + 404
    assert outcomes == Counter({True: 68, False: 9430})


# Every message _check_node returns must be produced by some test: by the
# six-operator sweep, or by the hand-made negative cases of test_typecheck.


def guard_patterns() -> list:
    """A regex for each message _check_node returns: the literal parts of its
    string, in order, with anything between them."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(typecheck._check_node)))
    patterns = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Return):
            continue
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            patterns.append(re.escape(value.value))
        elif isinstance(value, ast.JoinedStr):
            patterns.append("".join(
                re.escape(part.value) if isinstance(part, ast.Constant) else ".*"
                for part in value.values
            ))
    return patterns


HAND_MADE_NEGATIVES = (
    test_typecheck.test_ax_failures,
    test_typecheck.test_unknown_rule_and_arity,
    test_typecheck.test_abs_failures,
    test_typecheck.test_app_failures,
    test_typecheck.test_gen_fo_freshness,
    test_typecheck.test_inst_fo_checks_the_conclusion,
    test_typecheck.test_gen_pred_freshness,
    test_typecheck.test_inst_pred_arity_mismatch_is_reported,
    test_typecheck.test_bot_rules_and_fragments,
    test_typecheck.test_inst_bot_requires_bottomed_witness_body,
    test_typecheck.test_fperp_rejects_first_order_content,
    test_typecheck.test_eq_rule,
    test_typecheck.test_abs_binder_bound_in_the_conclusion_context,
    test_typecheck.test_guards_the_mutant_sweep_does_not_reach,
)


def test_every_guard_of_the_checker_fires(monkeypatch):
    patterns = guard_patterns()
    assert len(patterns) > 30
    messages = set()
    check_node = typecheck._check_node

    def recording(node, equations, fragment):
        msg = check_node(node, equations, fragment)
        if msg is not None:
            messages.add(msg)
        return msg

    monkeypatch.setattr(typecheck, "_check_node", recording)
    for test in HAND_MADE_NEGATIVES:
        test()
    for name in prebuilt_names():
        d = _BUILT[name]
        kwargs = prebuilt_check_args(name)
        for op in (*OPERATORS.values(), fresh_subject):
            for path, node in paths(d):
                mutated = op(node)
                if mutated is not None:
                    check_derivation(rebuild_at(d, path, lambda _n: mutated), **kwargs)
    silent = [p for p in patterns if not any(re.fullmatch(p, m, re.DOTALL) for m in messages)]
    assert not silent, silent
