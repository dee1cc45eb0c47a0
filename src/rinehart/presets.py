"""Builtin presentations: Weyl algebras, Lie algebras, semidirect products,
and derivations tangent to central line arrangements."""
from __future__ import annotations

from fractions import Fraction

from .lie_rinehart import LieRinehartAlgebra, PresentationError, from_action
from .poly import Polynomial, PolyDerivation, parse_poly


def weyl(n: int) -> LieRinehartAlgebra:
    """Der(Q[x1..xn]) with its coordinate basis; all weights 1."""
    if n < 1:
        raise PresentationError("need at least one variable")
    if n == 1:
        vars = ("x",)
        basis = ("e",)
    else:
        vars = tuple(f"x{i+1}" for i in range(n))
        basis = tuple(f"e{i+1}" for i in range(n))
    anchor = tuple(PolyDerivation.coordinate(vars, v) for v in vars)
    weights = {name: 1 for name in vars + basis}
    return from_action(vars, basis, {}, anchor, weights, name=f"weyl({n})")


_LIE_TABLES = {
    # [e,f] = h, [e,h] = -2e, [f,h] = 2f
    "sl2": (("e", "f", "h"),
            {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)}),
    "abelian2": (("a", "b"), {}),
    "abelian1": (("a",), {}),
}


def lie(g: str) -> LieRinehartAlgebra:
    """A Lie algebra as a presentation over the constants (no variables)."""
    if g not in _LIE_TABLES:
        raise PresentationError(f"unknown Lie algebra {g!r}; have {sorted(_LIE_TABLES)}")
    basis, table = _LIE_TABLES[g]
    anchor = (PolyDerivation.zero(()),) * len(basis)
    weights = {name: 1 for name in basis}
    return from_action((), basis, table, anchor, weights, name=f"lie({g})")


def semidirect_sl2() -> LieRinehartAlgebra:
    """sl2 acting on Q[x,y] by its standard linear fields."""
    vars = ("x", "y")
    e = PolyDerivation(vars, [parse_poly(vars, "0"), parse_poly(vars, "x")])
    f = PolyDerivation(vars, [parse_poly(vars, "y"), parse_poly(vars, "0")])
    h = PolyDerivation(vars, [parse_poly(vars, "x"), parse_poly(vars, "-y")])
    weights = {"x": 1, "y": 1, "e": 1, "f": 1, "h": 1}
    basis, table = _LIE_TABLES["sl2"]
    return from_action(vars, basis, table, (e, f, h), weights, name="semidirect(sl2,std)")


def semidirect(g: str, action: str = "std") -> LieRinehartAlgebra:
    if g == "sl2" and action == "std":
        return semidirect_sl2()
    raise PresentationError(f"unknown semidirect product ({g}, {action})")


def arrangement(forms: list[str]) -> LieRinehartAlgebra:
    """Derivations tangent to the central line arrangement prod(forms) = 0.

    The forms are linear in x, y, pairwise non-proportional, and must include
    x itself.  Generators: the Euler field E and D = F*d/dy where F is the
    product of the non-x forms (Saito's free basis).  F is homogeneous, so
    [E, D] = (deg F - 1) D: the presentation is the action of that
    two-dimensional Lie algebra, and `from_action` checks the commutator
    exactly.
    """
    vars = ("x", "y")
    parsed = []
    for s in forms:
        p = parse_poly(vars, s)
        if p.is_zero() or p.total_degree() != 1 or p.constant_value() != 0:
            raise PresentationError(f"form {s!r} is not a nonzero linear form")
        parsed.append(p)
    xform = parse_poly(vars, "x")
    if not any(_proportional(p, xform) for p in parsed):
        raise PresentationError("the form x must belong to the arrangement")
    for i in range(len(parsed)):
        for j in range(i + 1, len(parsed)):
            if _proportional(parsed[i], parsed[j]):
                raise PresentationError(
                    f"forms {forms[i]!r} and {forms[j]!r} are proportional"
                )
    others = [p for p in parsed if not _proportional(p, xform)]
    F = Polynomial.const(vars, 1)
    for p in others:
        F = F * p
    euler = PolyDerivation(vars, [parse_poly(vars, "x"), parse_poly(vars, "y")])
    dfield = PolyDerivation(vars, [parse_poly(vars, "0"), F])
    # canonical weights: the Euler generator is weight 0, D follows deg F - 1
    weights = {"x": 1, "y": 1, "E": 0, "D": F.total_degree() - 1}
    return from_action(vars, ("E", "D"), {(0, 1): (0, F.total_degree() - 1)},
                       (euler, dfield), weights, name=f"arrangement({len(parsed)} lines)")


def _proportional(p: Polynomial, q: Polynomial) -> bool:
    ratio = None
    keys = set(p.terms) | set(q.terms)
    for k in keys:
        a, b = p.terms.get(k, 0), q.terms.get(k, 0)
        if (a == 0) != (b == 0):
            return False
        if a:
            r = Fraction(a, b)
            if ratio is None:
                ratio = r
            elif ratio != r:
                return False
    return True


# (fewest, most) arguments of the builtins whose argument count is bounded
_ARITY = {"weyl": (1, 1), "lie": (1, 1), "semidirect": (1, 2)}


def builtin(spec: str) -> LieRinehartAlgebra:
    """Resolve a builtin name like weyl(2), lie(sl2), semidirect(sl2,std),
    arrangement(x,y,y-x,y+x)."""
    spec = spec.strip()
    if "(" not in spec or not spec.endswith(")"):
        raise PresentationError(f"malformed builtin spec {spec!r}")
    head, _, rest = spec.partition("(")
    args = [a.strip() for a in rest[:-1].split(",") if a.strip()]
    fewest, most = _ARITY.get(head, (0, len(args)))
    if not fewest <= len(args) <= most:
        takes = f"{fewest}" if fewest == most else f"{fewest} to {most}"
        raise PresentationError(
            f"builtin {head}(...) takes {takes} argument(s), got {len(args)} in {spec!r}"
        )
    if head == "weyl":
        return weyl(int(args[0]))
    if head == "lie":
        return lie(args[0])
    if head == "semidirect":
        return semidirect(*args)
    if head == "arrangement":
        return arrangement(args)
    raise PresentationError(f"unknown builtin {head!r}")
