"""A reference reducer for the kernel's differential test.

It shares no code with storop, and no idea either: terms are nameless, so
there are no binder names to prime, and it takes one leftmost-outermost
step at a time, rebuilding the whole term after each one. It is slow and
plain on purpose, the opposite of the kernel's fused spine loop.

A term is an int (a bound variable, as its de Bruijn index: 0 is the
innermost enclosing binder), a str (a free variable, by name),
("lam", body) or ("app", fn, arg).
"""


def lam(body):
    return ("lam", body)


def app(fn, arg):
    return ("app", fn, arg)


def is_lam(t) -> bool:
    return type(t) is tuple and t[0] == "lam"


def is_app(t) -> bool:
    return type(t) is tuple and t[0] == "app"


def shift(t, by: int, cutoff: int = 0):
    """t with every bound variable that points past cutoff binders moved by by."""
    if type(t) is int:
        return t + by if t >= cutoff else t
    if is_lam(t):
        return lam(shift(t[1], by, cutoff + 1))
    if is_app(t):
        return app(shift(t[1], by, cutoff), shift(t[2], by, cutoff))
    return t


def _beta(body, arg, depth: int = 0):
    """body, found under depth binders of the abstraction being contracted,
    with that abstraction's variable replaced by arg and the binder gone."""
    if type(body) is int:
        if body == depth:
            return shift(arg, depth)
        return body - 1 if body > depth else body
    if is_lam(body):
        return lam(_beta(body[1], arg, depth + 1))
    if is_app(body):
        return app(_beta(body[1], arg, depth), _beta(body[2], arg, depth))
    return body


def head_step(t):
    """t with its head redex contracted; None for a head normal form."""
    if is_lam(t):
        body = head_step(t[1])
        return None if body is None else lam(body)
    if not is_app(t):
        return None
    fn = t[1]
    if is_lam(fn):
        return _beta(fn[1], t[2])
    fn = head_step(fn) if is_app(fn) else None
    return None if fn is None else app(fn, t[2])


def normal_step(t):
    """t with its leftmost-outermost redex contracted; None for a normal form."""
    if is_lam(t):
        body = normal_step(t[1])
        return None if body is None else lam(body)
    if not is_app(t):
        return None
    fn, arg = t[1], t[2]
    if is_lam(fn):
        return _beta(fn[1], arg)
    new = normal_step(fn)
    if new is not None:
        return app(new, arg)
    new = normal_step(arg)
    return None if new is None else app(fn, new)


def trace(step, t, limit: int):
    """[t, step(t), ...], up to limit steps, and whether the last term is one
    that step leaves alone (False when the limit cut the run short)."""
    out = [t]
    for _ in range(limit):
        t = step(t)
        if t is None:
            return out, True
        out.append(t)
    return out, step(t) is None
