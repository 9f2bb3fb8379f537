import pytest
from hypothesis import given, strategies as st

from tgw.errors import ParseError, SignatureError
from tgw.formula import (
    And, Atom, Bot, Eq, Exists, Forall, Implies, Not, Or, Signature, Top,
    VarRef, conj, disj, exists, forall, free_vars, implies, neg,
    parse_formula, render_formula, rename_tapes,
    substitute_vars,
)

DLO = Signature("dlo", (("lt", 2),))
GRAPH = Signature("randomgraph", (("adj", 2),))
PURE = Signature("pureset", ())


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


def test_parse_unknown_relation():
    with pytest.raises(ParseError, match="unknown relation"):
        parse_formula("edge(x0,x1)", DLO)


def test_parse_arity_mismatch():
    with pytest.raises(ParseError, match="expects 2 arguments"):
        parse_formula("lt(x0,x1,x2)", DLO)


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
    assert g == Exists(x(0), Atom("lt", (y(0), x(0))))


def test_signature_validation():
    with pytest.raises(SignatureError):
        Signature("bad", (("lt", 2), ("lt", 2)))
    with pytest.raises(SignatureError):
        Signature("bad", (("exists", 1),))
    with pytest.raises(SignatureError):
        Signature("bad", (("r", 0),))


# -- property tests ----------------------------------------------------------

_vars = st.builds(VarRef, st.integers(0, 3), st.integers(0, 3))


def _formulas(sig):
    atoms = st.one_of(
        st.just(Top()),
        st.just(Bot()),
        st.builds(Eq, _vars, _vars),
        *([st.builds(lambda a, b: Atom(sig.relations[0][0], (a, b)), _vars, _vars)]
          if sig.relations else []),
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


@given(_formulas(GRAPH))
def test_substitution_composes(f):
    fv = sorted(free_vars(f))
    m1 = {v: VarRef(v.tape, v.position + 7) for v in fv}
    mid = sorted(free_vars(substitute_vars(f, m1)))
    m2 = {v: VarRef(v.tape, v.position + 11) for v in mid}
    composed = {v: m2.get(m1[v], m1[v]) for v in fv}
    assert substitute_vars(substitute_vars(f, m1), m2) == substitute_vars(f, composed)


@given(_formulas(DLO))
def test_substitution_maps_free_vars(f):
    fv = sorted(free_vars(f))
    m = {v: VarRef(v.tape + 4, v.position) for v in fv}
    g = substitute_vars(f, m)
    assert free_vars(g) == frozenset(m[v] for v in fv)
