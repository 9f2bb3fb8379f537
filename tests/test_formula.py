import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import tgw
from tgw.errors import ParseError, SignatureError
from tgw.formula import (
    FALSE, TRUE, And, Atom, Bot, Eq, Exists, Forall, Implies, Not, Or,
    Top, VarRef, conj, disj, exists, forall, free_vars,
    identify_vars, implies, neg, parse_formula, render_formula, rename_tapes,
    sort_key, substitute_vars,
)
from tgw.models import evaluate, make_model
from tgw.theories import THEORIES

DLO = ("lt",)
GRAPH = ("adj",)
PURE = ()


def x(i):
    return VarRef(0, i)


def y(i):
    return VarRef(1, i)


def test_parse_eq():
    assert parse_formula("eq(x0,y0)", PURE) == Eq(x(0), y(0))


def test_parse_forall_implies():
    f = parse_formula("forall y0. (lt(x0,y0) -> lt(x0,x1))", DLO)
    assert isinstance(f, Forall)
    assert f.var == y(0)
    assert isinstance(f.body, Implies)
    assert f.body.lhs == Atom("lt", (x(0), y(0)))


def test_parse_unbalanced_offset():
    with pytest.raises(ParseError) as exc:
        parse_formula("lt(x0", DLO)
    assert exc.value.offset == 6
    # an argument that is not after a comma ends the argument list
    with pytest.raises(ParseError, match=r"^unbalanced parenthesis \(offset 7\)$"):
        parse_formula("eq(x0 y0)", DLO)


def test_parse_unknown_relation():
    with pytest.raises(ParseError, match="unknown relation"):
        parse_formula("edge(x0,x1)", DLO)
    # a relation of another theory is unknown to this one
    for theory, rel in (("pureset", "lt"), ("dlo", "adj")):
        with pytest.raises(ParseError, match=rf"^unknown relation '{rel}' \(offset 1\)$"):
            parse_formula(f"{rel}(x0,x1)", THEORIES[theory].relations)


@pytest.mark.parametrize("theory,rel,n", [
    (theory, rel, n) for theory in THEORIES
    for rel in ("eq", *THEORIES[theory].relations) for n in (1, 3)])
def test_parse_arity_mismatch(theory, rel, n):
    # equality and every relation are binary, checked by one rule
    args = ",".join(f"x{i}" for i in range(n))
    with pytest.raises(ParseError,
                       match=rf"^relation '{rel}' expects 2 arguments, got {n} \(offset 1\)$"):
        parse_formula(f"{rel}({args})", THEORIES[theory].relations)


def test_parse_rejects_shadowing():
    with pytest.raises(ParseError, match="rebinds"):
        parse_formula("exists y0. exists y0. eq(y0,x0)", PURE)


def test_parse_high_tape_variable():
    assert parse_formula("eq(v40,v512)", PURE) == Eq(VarRef(4, 0), VarRef(5, 12))


def test_render_basic():
    assert render_formula(Eq(x(0), y(0))) == "eq(x0,y0)"
    assert render_formula(Top()) == "true"
    f = conj([Atom("adj", (x(0), x(1))), Atom("adj", (x(1), x(2)))])
    assert render_formula(f) == "(adj(x0,x1) & adj(x1,x2))"


def test_connectives_flatten_and_sort():
    a = Atom("adj", (x(0), x(1)))
    b = Atom("adj", (x(1), x(2)))
    assert conj([b, a]) == conj([a, conj([b, a])])
    assert conj([a, Top()]) == a
    assert conj([a, Bot()]) == Bot()
    assert disj([a, neg(a)]) == Top()
    assert conj([]) == Top()


def test_substitute_tape_swap():
    f = Eq(x(0), y(1))
    swapped = substitute_vars(f, {x(0): y(0), y(1): x(1)})
    assert swapped == Eq(y(0), x(1))


def test_substitute_identity():
    f = parse_formula("(lt(x0,x1) & lt(x1,x2))", DLO)
    assert substitute_vars(f, {v: v for v in free_vars(f)}) == f


def test_substitute_shift():
    # simultaneous: x0 -> x1 does not go on to x2
    f = Atom("adj", (x(0), x(1)))
    assert substitute_vars(f, {x(0): x(1), x(1): x(2)}) == Atom("adj", (x(1), x(2)))


def test_substitute_requires_injective():
    f = conj([Eq(x(0), y(0)), Eq(x(1), y(0))])
    with pytest.raises(SignatureError):
        substitute_vars(f, {x(0): x(2), x(1): x(2)})


def test_substitute_refuses_a_merge_with_an_unmapped_variable():
    # x1 is free and keeps its name, so x0 -> x1 would make the two one
    with pytest.raises(SignatureError):
        substitute_vars(Atom("lt", (x(0), x(1))), {x(0): x(1)})


def test_identify_vars_merges_variables_under_binders():
    # two variables may become one, or one may become another free one
    f = conj([Eq(x(0), y(0)), Atom("lt", (x(1), y(0)))])
    assert identify_vars(f, {x(0): x(2), x(1): x(2)}) == \
        conj([Eq(x(2), y(0)), Atom("lt", (x(2), y(0)))])
    assert identify_vars(Exists(y(0), Eq(x(0), y(0))), {x(0): x(1)}) == \
        Exists(y(0), Eq(x(1), y(0)))
    # a binder that an image would fall under is renamed first
    g = identify_vars(conj([Atom("lt", (x(0), x(1))), Exists(x(1), Atom("lt", (x(0), x(1))))]),
                      {x(0): x(1)})
    assert g == conj([Atom("lt", (x(1), x(1))), Exists(x(2), Atom("lt", (x(1), x(2))))])


def test_substitute_alpha_renames_on_capture():
    f = Exists(y(0), Eq(x(0), y(0)))
    g = substitute_vars(f, {x(0): y(0)})
    assert isinstance(g, Exists)
    assert g.var != y(0)
    assert g.body == Eq(y(0), g.var)
    assert free_vars(g) == frozenset({y(0)})


def test_rename_tapes_total():
    f = Exists(y(0), Atom("lt", (x(0), y(0))))
    g = rename_tapes(f, {0: 1, 1: 0})
    assert g == Exists(y(1), Atom("lt", (y(0), y(1))))


# -- property tests ----------------------------------------------------------

_vars = st.builds(VarRef, st.integers(0, 3), st.integers(0, 3))


def _formulas(relations):
    atoms = st.one_of(
        st.just(Top()),
        st.just(Bot()),
        st.builds(Eq, _vars, _vars),
        *[st.builds(Atom, st.just(rel), st.tuples(_vars, _vars)) for rel in relations],
    )

    def extend(children):
        return st.one_of(
            st.builds(neg, children),
            st.builds(lambda a, b: conj([a, b]), children, children),
            st.builds(lambda a, b: disj([a, b]), children, children),
            st.builds(implies, children, children),
            st.builds(lambda v, b: _quant_safe(exists, v, b), _vars, children),
            st.builds(lambda v, b: _quant_safe(forall, v, b), _vars, children),
        )

    return st.recursive(atoms, extend, max_leaves=8)


def _quant_safe(q, v, body):
    try:
        return q(v, body)
    except SignatureError:
        return body


@given(_formulas(DLO))
def test_parse_render_roundtrip(f):
    assert parse_formula(render_formula(f), DLO) == f


def render_tree(f):
    """Rendering before its per-node memo: a tree walk (test oracle)."""
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Atom):
        return f"{f.rel}({','.join(v.render() for v in f.args)})"
    if isinstance(f, Eq):
        return f"eq({f.lhs.render()},{f.rhs.render()})"
    if isinstance(f, Not):
        return "!" + render_tree(f.sub)
    if isinstance(f, (And, Or)):
        op = " & " if isinstance(f, And) else " | "
        return "(" + op.join(render_tree(c) for c in f.children) + ")"
    if isinstance(f, Implies):
        return f"({render_tree(f.lhs)} -> {render_tree(f.rhs)})"
    kw = "exists" if isinstance(f, Exists) else "forall"
    return f"{kw} {f.var.render()}. {render_tree(f.body)}"


@given(_formulas(GRAPH))
def test_render_matches_the_tree_walk(f):
    shared = Implies(f, Implies(neg(f), f))   # f three times, as one node
    assert render_formula(f) == render_tree(f)
    assert render_formula(shared) == render_tree(shared)


@given(_formulas(GRAPH))
def test_substitution_composes(f):
    fv = sorted(free_vars(f))
    m1 = {v: VarRef(v.tape, v.position + 7) for v in fv}
    mid = sorted(free_vars(substitute_vars(f, m1)))
    m2 = {v: VarRef(v.tape, v.position + 11) for v in mid}
    composed = {v: m2.get(m1[v], m1[v]) for v in fv}
    assert substitute_vars(substitute_vars(f, m1), m2) == substitute_vars(f, composed)


# the tape maps the package moves formulas by
TAPE_MAPS = ({1: 0, 2: 1}, {0: 1, 1: 2}, {2: 1}, {1: 0}, {0: 1, 1: 0})


@given(_formulas(DLO), st.lists(st.integers(0, 5), min_size=16, max_size=16))
def test_rename_tapes_keeps_truth(f, indices):
    M = make_model("dlo")
    asg = {v: M.element(i) for v, i in zip(sorted(free_vars(f)), indices)}
    for perm in TAPE_MAPS:
        moved = {VarRef(perm.get(v.tape, v.tape), v.position): e for v, e in asg.items()}
        if len(moved) < len(asg):   # the map merges two free variables
            continue
        assert evaluate(rename_tapes(f, perm), M, moved) == evaluate(f, M, asg), perm


@given(_formulas(DLO))
def test_substitution_maps_free_vars(f):
    fv = sorted(free_vars(f))
    m = {v: VarRef(v.tape + 4, v.position) for v in fv}
    g = substitute_vars(f, m)
    assert free_vars(g) == frozenset(m[v] for v in fv)


# -- hash-consing --------------------------------------------------------------

_RANK = {Top: 0, Bot: 1, Atom: 2, Eq: 3, Not: 4, And: 5, Or: 6, Implies: 7,
         Exists: 8, Forall: 9}


def recursive_sort_key(f):
    """The structural order as it was computed before nodes stored it."""
    t = type(f)
    r = _RANK[t]
    if t in (Top, Bot):
        return (r,)
    if t is Atom:
        return (r, f.rel, tuple((v.tape, v.position) for v in f.args))
    if t is Eq:
        return (r, "", ((f.lhs.tape, f.lhs.position), (f.rhs.tape, f.rhs.position)))
    if t is Not:
        return (r, recursive_sort_key(f.sub))
    if t in (And, Or):
        return (r, tuple(recursive_sort_key(c) for c in f.children))
    if t is Implies:
        return (r, (recursive_sort_key(f.lhs), recursive_sort_key(f.rhs)))
    return (r, ((f.var.tape, f.var.position),), recursive_sort_key(f.body))


def recursive_free_vars(f):
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, Eq):
        return frozenset((f.lhs, f.rhs))
    if isinstance(f, Not):
        return recursive_free_vars(f.sub)
    if isinstance(f, (And, Or)):
        return frozenset().union(*map(recursive_free_vars, f.children))
    if isinstance(f, Implies):
        return recursive_free_vars(f.lhs) | recursive_free_vars(f.rhs)
    return recursive_free_vars(f.body) - {f.var}


def recursive_bound_vars(f):
    if isinstance(f, Not):
        return recursive_bound_vars(f.sub)
    if isinstance(f, (And, Or)):
        return frozenset().union(*map(recursive_bound_vars, f.children))
    if isinstance(f, Implies):
        return recursive_bound_vars(f.lhs) | recursive_bound_vars(f.rhs)
    if isinstance(f, (Exists, Forall)):
        return recursive_bound_vars(f.body) | {f.var}
    return frozenset()


def all_vars(f):
    """Every variable of `f`, free or bound, as the walker that fresh
    bound-variable choice read before nodes stored their bound variables."""
    if isinstance(f, (Exists, Forall)):
        return all_vars(f.body) | {f.var}
    if isinstance(f, Not):
        return all_vars(f.sub)
    if isinstance(f, (And, Or)):
        out = frozenset()
        for c in f.children:
            out |= all_vars(c)
        return out
    if isinstance(f, Implies):
        return all_vars(f.lhs) | all_vars(f.rhs)
    return free_vars(f)


def check_no_rebind(var, body):
    """The walk `exists` and `forall` made over their body before nodes
    stored their bound variables."""
    if isinstance(body, (Exists, Forall)):
        if body.var == var:
            raise SignatureError(f"quantifier rebinds {var.render()} in scope")
        check_no_rebind(var, body.body)
    elif isinstance(body, Not):
        check_no_rebind(var, body.sub)
    elif isinstance(body, (And, Or)):
        for c in body.children:
            check_no_rebind(var, c)
    elif isinstance(body, Implies):
        check_no_rebind(var, body.lhs)
        check_no_rebind(var, body.rhs)


def sorted_assoc(items, node_type, absorber, neutral):
    """`conj`/`disj` as they were written before nodes were hash-consed:
    sort, then keep first occurrences, then look for complements."""
    flat = []
    for f in items:
        if isinstance(f, node_type):
            flat.extend(f.children)
        elif isinstance(f, type(absorber)):
            return absorber
        elif not isinstance(f, type(neutral)):
            flat.append(f)
    out = []
    for f in sorted(flat, key=recursive_sort_key):
        if f not in out:
            out.append(f)
    if any(neg(f) in out for f in out):
        return absorber
    if len(out) < 2:
        return out[0] if out else neutral
    return node_type(tuple(out))


def test_equal_constructions_are_one_object():
    assert VarRef(0, 1) is x(1)
    assert Eq(x(0), y(0)) is Eq(VarRef(0, 0), VarRef(1, 0))
    assert Top() is TRUE and Bot() is FALSE
    a, b = Atom("adj", (x(0), x(1))), Atom("adj", (x(1), x(2)))
    assert conj([b, a]) is conj([a, conj([b, a])]) is And((a, b))
    text = "forall y0. (lt(x0,y0) -> lt(x0,x1))"
    f = parse_formula(text, DLO)
    assert f is parse_formula(text, DLO)
    assert f is Forall(y(0), Implies(Atom("lt", (x(0), y(0))), Atom("lt", (x(0), x(1)))))
    assert {f: 1}[parse_formula(text, DLO)] == 1


@given(_formulas(DLO))
def test_rebuilt_formulas_are_the_same_object(f):
    assert parse_formula(render_formula(f), DLO) is f
    assert substitute_vars(f, {}) is f
    assert substitute_vars(f, {v: v for v in free_vars(f)}) is f
    assert rename_tapes(f, {}) is f


@given(_formulas(GRAPH))
def test_stored_keys_match_the_recursive_oracles(f):
    assert sort_key(f) == recursive_sort_key(f)
    assert free_vars(f) == recursive_free_vars(f)
    assert f.bound_vars == recursive_bound_vars(f)
    assert f.free_vars | f.bound_vars == all_vars(f)


@given(_vars, _formulas(GRAPH))
def test_quantifiers_refuse_rebinding_like_the_walker(v, body):
    try:
        check_no_rebind(v, body)
        rebinds = False
    except SignatureError:
        rebinds = True
    for q in (exists, forall):
        if rebinds:
            with pytest.raises(SignatureError, match="rebinds"):
                q(v, body)
        else:
            assert q(v, body).free_vars == body.free_vars - {v}


def test_nodes_that_bind_nothing_share_one_empty_set():
    a = Atom("adj", (x(0), x(1)))
    q = exists(y(0), Atom("adj", (x(0), y(0))))
    empty = TRUE.bound_vars
    assert not empty and all(
        f.bound_vars is empty
        for f in (FALSE, a, Eq(x(0), y(0)), neg(a), conj([a, neg(Eq(x(0), x(1)))]),
                  implies(a, Eq(x(1), x(2)))))
    assert q.bound_vars == {y(0)} and conj([a, q]).bound_vars == {y(0)}


@given(st.lists(_formulas(DLO), max_size=5))
def test_connectives_match_the_sorting_oracle(items):
    assert conj(items) is sorted_assoc(items, And, FALSE, TRUE)
    assert disj(items) is sorted_assoc(items, Or, TRUE, FALSE)


@given(_vars, _vars)
def test_varref_order_is_tape_then_position(a, b):
    ka, kb = (a.tape, a.position), (b.tape, b.position)
    assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)
    assert (a == b) == (ka == kb) == (a is b)


def test_nodes_are_immutable():
    f = Eq(x(0), y(0))
    for node, field in ((f, "lhs"), (f, "sort_key"), (f, "free_vars"), (x(0), "tape")):
        with pytest.raises(AttributeError):
            setattr(node, field, y(1))
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert f.lhs is x(0) and f is Eq(x(0), y(0))


def test_import_loads_no_dataclasses():
    # the CLI's whole import (every command's modules) is start-up cost of
    # each `tgw` process; only the dlo model needs `fractions`
    src = str(Path(tgw.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for module, absent in (("tgw.formula", {"dataclasses", "inspect"}),
                           ("tgw.cli", {"dataclasses", "inspect", "fractions", "decimal",
                                        "argparse", "gettext"})):
        out = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys, {module}; print(sorted({sorted(absent)} & sys.modules.keys()))"],
            env=env, capture_output=True, text=True, timeout=60, check=True).stdout
        assert out.strip() == "[]", module
