"""Seeded random formula generation, and alpha-variants, for formula and checker tests."""

import random

from storop.formulas import (
    Arrow,
    Bot,
    BotVarApp,
    FoApp,
    FoVar,
    ForallBot,
    ForallFo,
    ForallPred,
    PredSymApp,
    PredVarApp,
)

PRED_NAMES = ["X", "Y", "Z"]
BOT_NAMES = ["U", "V"]
FO_NAMES = ["x", "y", "z"]
SYMS = [("0", 0), ("s", 1), ("p", 1)]


def random_foterm(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return FoVar(rng.choice(FO_NAMES))
        return FoApp("0")
    sym, arity = rng.choice(SYMS)
    return FoApp(sym, tuple(random_foterm(rng, depth - 1) for _ in range(arity)))


def random_formula(rng: random.Random, depth: int = 4, allow_bot_vars: bool = False):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        kind = rng.random()
        if kind < 0.1:
            return Bot()
        if kind < 0.2:
            return PredSymApp("P", tuple(random_foterm(rng) for _ in range(rng.randint(0, 2))))
        if allow_bot_vars and kind < 0.4:
            return BotVarApp(
                rng.choice(BOT_NAMES),
                tuple(random_foterm(rng) for _ in range(rng.randint(0, 2))),
            )
        return PredVarApp(
            rng.choice(PRED_NAMES),
            tuple(random_foterm(rng) for _ in range(rng.randint(0, 2))),
        )
    if roll < 0.6:
        return Arrow(
            random_formula(rng, depth - 1, allow_bot_vars),
            random_formula(rng, depth - 1, allow_bot_vars),
        )
    if roll < 0.8:
        return ForallFo(rng.choice(FO_NAMES), random_formula(rng, depth - 1, allow_bot_vars))
    if allow_bot_vars and roll < 0.9:
        return ForallBot(rng.choice(BOT_NAMES), random_formula(rng, depth - 1, allow_bot_vars))
    return ForallPred(rng.choice(PRED_NAMES), random_formula(rng, depth - 1, allow_bot_vars))


_BINDER_OF = {PredVarApp: ForallPred, BotVarApp: ForallBot}


def _fo_variant(t, env):
    if type(t) is FoVar:
        return FoVar(env.get((ForallFo, t.name), t.name))
    return FoApp(t.sym, tuple(_fo_variant(u, env) for u in t.args))


def alpha_variant(a, env, counter):
    """a with every binder renamed to a fresh name of its own namespace."""
    ta = type(a)
    if ta is Bot:
        return Bot()
    if ta is Arrow:
        return Arrow(alpha_variant(a.left, env, counter), alpha_variant(a.right, env, counter))
    if ta in (ForallFo, ForallPred, ForallBot):
        new = f"{'v' if ta is ForallFo else 'V'}{next(counter)}"
        return ta(new, alpha_variant(a.body, {**env, (ta, a.var): new}, counter))
    args = tuple(_fo_variant(t, env) for t in a.args)
    if ta is PredSymApp:
        return PredSymApp(a.sym, args)
    return ta(env.get((_BINDER_OF[ta], a.name), a.name), args)
