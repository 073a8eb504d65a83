"""The generator of the bundled derivations, src/storop/data/derivations.

The 17 ``.deriv`` files are the bundle that ``storop check`` and
``load_prebuilt`` read; the builders here reproduce them, and
``test_prebuilt.py`` compares ``write_derivation`` of each with its file
byte for byte. To regenerate a file, write ``write_derivation`` of its
builder's derivation to it.

Each builder assembles a full derivation tree node by node. Conclusions are
computed by the typecheck module's node constructors, so the trees are
correct by construction, and the checker revalidates them independently.
Builders take an ambient context and freshen their binder names against
it; subject terms therefore come out as alpha-variants of the printed
combinators, which is all the checker asks for.
"""

from __future__ import annotations

from typing import Callable

from storop.formulas import (
    Arrow,
    Bot,
    FoApp,
    FoTerm,
    FoVar,
    ForallFo,
    ForallPred,
    Formula,
    PredAbstraction,
    PredVarApp,
    _n_parts,
    fv_fo,
    fv_pred,
    n_bot_type,
    n_star_type,
    n_type,
    neg,
    parse_equations,
)
from storop.prebuilt import EQ_DEMO_EQUATIONS
from storop.terms import fresh_name
from storop.typecheck import (
    Context,
    Derivation,
    _abs,
    _app,
    _ax,
    _eq,
    _gen,
    _inst,
    lift_star_to_bot,
)


# ---------------------------------------------------------------------------
# freshening


def _fresh_terms(ctx: Context, *bases: str) -> list[str]:
    taken = {n for n, _ in ctx}
    out = []
    for b in bases:
        name = fresh_name(b, taken)
        taken.add(name)
        out.append(name)
    return out


def _ambient(ctx: Context, fv) -> set[str]:
    """The names free in the context under fv (fv_fo or fv_pred)."""
    out: set[str] = set()
    for _, a in ctx:
        out |= fv(a)
    return out


def _snum(k: int) -> FoTerm:
    t: FoTerm = FoApp("0")
    for _ in range(k):
        t = FoApp("s", (t,))
    return t


# ---------------------------------------------------------------------------
# numerals and the successor


def numeral_derivation(k: int, ctx: Context = Context(), propositional: bool = False) -> Derivation:
    """Type the k-th iterator: N[s^k(0)], or the plain N when propositional."""
    if k < 0:
        raise ValueError("numeral index must be non-negative")
    x, f = _fresh_terms(ctx, "x", "f")
    pvar = fresh_name("X", _ambient(ctx, fv_pred))
    t = None if propositional else _snum(k)
    first, step, _ = _n_parts(pvar, t)
    c2 = ctx.extended(x, first).extended(f, step)
    d = _ax(c2, x)
    for i in range(k):
        df = _ax(c2, f)
        if not propositional:
            df = _inst(df, _snum(i))
        d = _app(df, d)
    return _gen(ForallPred, _abs(_abs(d)), pvar)


def succ_derivation(ctx: Context = Context(), propositional: bool = False) -> Derivation:
    """Type the successor: !x (N[x] -> N[s(x)]), or N -> N when propositional."""
    n, x, f = _fresh_terms(ctx, "n", "x", "f")
    pvar = fresh_name("X", _ambient(ctx, fv_pred))
    if propositional:
        xv = None
        nty = n_type(None)
        witness = PredAbstraction((), PredVarApp(pvar))
    else:
        gv = fresh_name("x", _ambient(ctx, fv_fo))
        xv = FoVar(gv)
        nty = n_type(xv)
        witness = PredAbstraction(("w",), PredVarApp(pvar, (FoVar("w"),)))
    first, step, _ = _n_parts(pvar, xv)
    c1 = ctx.extended(n, nty)
    c2 = c1.extended(x, first).extended(f, step)
    dn = _inst(_ax(c2, n), witness)
    d = _app(dn, _ax(c2, x))
    d = _app(d, _ax(c2, f))
    df = _ax(c2, f)
    if not propositional:
        df = _inst(df, xv)
    d = _app(df, d)
    d = _gen(ForallPred, _abs(_abs(d)), pvar)
    d = _abs(d)
    if not propositional:
        d = _gen(ForallFo, d, gv)
    return d


# ---------------------------------------------------------------------------
# the storage operator over iteration, negatively then bottomed


def _delta_derivation(ctx: Context) -> Derivation:
    """The seed: ~~N[0] for \\f (f) zero."""
    (f,) = _fresh_terms(ctx, "f")
    c1 = ctx.extended(f, neg(n_type(_snum(0))))
    dz = numeral_derivation(0, c1)
    return _abs(_app(_ax(c1, f), dz))


def _g_derivation(ctx: Context) -> Derivation:
    """The iterated step: !y (~~N[y] -> ~~N[s(y)])."""
    a, b, c = _fresh_terms(ctx, "x", "y", "z")
    gv = fresh_name("y", _ambient(ctx, fv_fo))
    yv = FoVar(gv)
    n_y = n_type(yv)
    n_sy = n_type(FoApp("s", (yv,)))
    c1 = ctx.extended(a, neg(neg(n_y))).extended(b, neg(n_sy))
    c2 = c1.extended(c, n_y)
    dsucc = _inst(succ_derivation(c2), yv)
    dlam = _abs(_app(_ax(c2, b), _app(dsucc, _ax(c2, c))))
    d = _app(_ax(c1, a), dlam)
    return _gen(ForallFo, _abs(_abs(d)), gv)


def t1_star_derivation(ctx: Context = Context()) -> Derivation:
    """Storage over iteration against the negative translation:
    !x (N*[x] -> ~~N[x])."""
    (nu,) = _fresh_terms(ctx, "n")
    gv = fresh_name("x", _ambient(ctx, fv_fo))
    xv = FoVar(gv)
    c1 = ctx.extended(nu, n_star_type(xv))
    witness = PredAbstraction(("w",), neg(n_type(FoVar("w"))))
    dnu = _inst(_ax(c1, nu), witness)
    d = _app(dnu, _delta_derivation(c1))
    d = _app(d, _g_derivation(c1))
    return _gen(ForallFo, _abs(d), gv)


# ---------------------------------------------------------------------------
# storage over recursion-style iteration, propositional bottomed fragment


def _f_derivation(ctx: Context) -> Derivation:
    """The propositional step: ~N -> ~N."""
    a, b = _fresh_terms(ctx, "x", "y")
    c1 = ctx.extended(a, neg(n_type(None))).extended(b, n_type(None))
    ds = succ_derivation(c1, propositional=True)
    d = _app(_ax(c1, a), _app(ds, _ax(c1, b)))
    return _abs(_abs(d))


def _t2_derivation(ctx: Context, nu_type: Formula, witness: Formula) -> Derivation:
    """T2 at nu_type -> ~~N, instantiating the iterator's predicate at witness."""
    nu, f = _fresh_terms(ctx, "n", "f")
    c2 = ctx.extended(nu, nu_type).extended(f, neg(n_type(None)))
    dnu = _inst(_ax(c2, nu), PredAbstraction((), witness))
    d = _app(dnu, _ax(c2, f))
    d = _app(d, _f_derivation(c2))
    d = _app(d, numeral_derivation(0, c2, propositional=True))
    return _abs(_abs(d))


def t2_fperp_derivation(ctx: Context = Context()) -> Derivation:
    """Propositional bottomed typing: N_| -> ~~N."""
    return _t2_derivation(ctx, n_bot_type(None), neg(n_type(None)))


def t2_star_derivation(ctx: Context = Context()) -> Derivation:
    """Propositional star typing: Nstar -> ~~N."""
    return _t2_derivation(ctx, n_star_type(None), n_type(None))


# ---------------------------------------------------------------------------
# the wrapped operators


def theta0_star_derivation(ctx: Context = Context()) -> Derivation:
    """A non-numeral inhabitant of Nstar[0]."""
    a, b, c, d_, w = _fresh_terms(ctx, "x", "f", "z", "d", "x")
    pvar = fresh_name("X", _ambient(ctx, fv_pred))
    atom0 = PredVarApp(pvar, (FoApp("0"),))
    yv = FoVar("y")
    step = ForallFo(
        "y",
        Arrow(neg(PredVarApp(pvar, (yv,))), neg(PredVarApp(pvar, (FoApp("s", (yv,)),)))),
    )
    c1 = ctx.extended(a, neg(atom0)).extended(b, step)
    c2 = c1.extended(c, atom0)
    did = _abs(_ax(c2.extended(w, Bot()), w))
    dlam = _abs(_ax(c2.extended(d_, Arrow(Bot(), Bot())), c))
    dx = _app(_ax(c2, a), _app(dlam, did))
    return _gen(ForallPred, _abs(_abs(_abs(dx))), pvar)


def _wrapped_bot(second_arg: str) -> Derivation:
    """Shared shape for the wrapped operators at !x (N_|[x] -> ~~N[x])."""
    ctx = Context()
    nu, f = _fresh_terms(ctx, "v", "f")
    gv = "x"
    xv = FoVar(gv)
    c2 = ctx.extended(nu, n_bot_type(xv)).extended(f, neg(n_type(xv)))
    dnu = _inst(_ax(c2, nu), PredAbstraction(("w",), Bot()))

    def inner_call(cc: Context) -> Derivation:
        dt1 = lift_star_to_bot(t1_star_derivation(cc))
        d = _app(_inst(dt1, xv), _ax(cc, nu))
        return _app(d, _ax(cc, f))

    d = _app(dnu, inner_call(c2))
    if second_arg == "identity":
        (w,) = _fresh_terms(c2, "x")
        darg = _abs(_ax(c2.extended(w, Bot()), w))
    else:
        (dn,) = _fresh_terms(c2, "d")
        darg = _abs(inner_call(c2.extended(dn, Bot())))
    darg = _gen(ForallFo, darg, fresh_name("y", _ambient(c2, fv_fo)))
    d = _app(d, darg)
    return _gen(ForallFo, _abs(_abs(d)), gv)


def t_bot_derivation() -> Derivation:
    """The identity-wrapped operator at !x (N_|[x] -> ~~N[x])."""
    return _wrapped_bot("identity")


def tp_bot_derivation() -> Derivation:
    """The replay-wrapped operator at !x (N_|[x] -> ~~N[x])."""
    return _wrapped_bot("replay")


# ---------------------------------------------------------------------------
# the equational rule in action


def eq_demo_derivation() -> Derivation:
    """v : N[p(s(y))] |- v : N[y] through one rewrite with the predecessor laws."""
    eqs = parse_equations(EQ_DEMO_EQUATIONS)
    ty = n_type(FoApp("p", (FoApp("s", (FoVar("y"),)),)))
    ctx = Context().extended("v", ty)
    return _eq(_ax(ctx, "v"), eqs, (("ps", "lr", (0, 1, 1, 0)),))


# ---------------------------------------------------------------------------
# the builder of each bundled file, by the file's stem

PREBUILT: dict[str, Callable[[], Derivation]] = {
    "zero": lambda: numeral_derivation(0),
    "one": lambda: numeral_derivation(1),
    "two": lambda: numeral_derivation(2),
    "three": lambda: numeral_derivation(3),
    "four": lambda: numeral_derivation(4),
    "five": lambda: numeral_derivation(5),
    "succ": lambda: succ_derivation(),
    "zero_prop": lambda: numeral_derivation(0, propositional=True),
    "succ_prop": lambda: succ_derivation(propositional=True),
    "theta0_star": theta0_star_derivation,
    "t1_star": lambda: t1_star_derivation(),
    "t1_bot": lambda: lift_star_to_bot(t1_star_derivation()),
    "t2_star": t2_star_derivation,
    "t2_fperp": t2_fperp_derivation,
    "t_bot": t_bot_derivation,
    "tp_bot": tp_bot_derivation,
    "eq_demo": eq_demo_derivation,
}


def build_prebuilt(name: str) -> Derivation:
    try:
        builder = PREBUILT[name]
    except KeyError:
        raise KeyError(f"no bundled derivation named {name!r}") from None
    return builder()
