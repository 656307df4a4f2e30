"""The seven reproduction-invariant rules.

Each rule is a small :mod:`ast` visitor grounded in a hazard this repo
has actually hit (or deliberately guards against):

========  ====================================================================
RL001     falsy ``or``-defaulting of parameters (the ``window or 90`` bug
          class fixed by hand in PR 1: an explicit ``0``/empty value is
          silently replaced by the default)
RL002     unseeded randomness (legacy ``np.random.*`` global state, stdlib
          ``random``, seedless ``default_rng()``) — irreproducible pipelines
          are the field's main evaluation hazard
RL003     ambiguous ndarray truthiness (``if arr:`` raises for size>1 and
          silently means ``len``/value otherwise)
RL004     mutable default arguments (state leaks across calls)
RL005     exact float equality outside the parity-test allowlist (bit-exact
          checks belong in the parity suites; elsewhere they rot silently)
RL006     silently-swallowed exceptions (bare ``except`` / handlers that
          neither re-raise nor call anything)
RL008     direct use of the ``repro.features._ckernel`` build/compile
          internals outside ``repro/features/`` or a warmup path — the
          module compiles a shared library on first touch, so stray
          callers move that one-off cost into the authenticate hot path
========  ====================================================================

The concurrency rules RL009–RL012 (undeclared mutable state, lock
discipline, thread-hostile escape, blocking-while-locked) live in
:mod:`tools.reprolint.concurrency` and are appended to
:data:`ALL_RULES` below.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import FileContext, Finding, Rule

__all__ = ["ALL_RULES", "RULES_BY_ID", "Rule"]


def _function_params(node: ast.AST) -> Set[str]:
    """Parameter names of a function node (excluding self/cls)."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return set()
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return {n for n in names if n not in ("self", "cls")}


class FalsyDefaultRule(Rule):
    """RL001: ``param or <default>`` silently replaces 0/empty values.

    PR 1 fixed exactly this in ``PreprocessedTrial.segment`` — a caller
    passing ``window=0`` never reached validation because ``window or 90``
    rewrote it to the default.  The rule fires when the first operand of
    an ``or`` is a parameter of the enclosing function and the second is
    a literal or a call (i.e. a default being materialised), regardless
    of where the expression appears.
    """

    rule_id = "RL001"
    name = "falsy-default"
    description = "`param or <default>` replaces legitimate falsy values"
    rationale = (
        "0, 0.0, '' and empty containers are valid inputs; `x or d` maps "
        "them all to the default. Use `if x is None`."
    )

    def check(self, module: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        # Walk function scopes so we know which names are parameters.
        scopes: List[Tuple[ast.AST, Set[str]]] = [(module, set())]
        for func in ast.walk(module):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scopes.append((func, _function_params(func)))
        for scope, params in scopes:
            if not params:
                continue
            for node in self._boolops_in_scope(scope):
                first = node.values[0]
                if not (isinstance(first, ast.Name) and first.id in params):
                    continue
                default = node.values[1]
                if isinstance(default, (ast.Constant, ast.Call)) and not (
                    isinstance(default, ast.Constant) and default.value is None
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"parameter {first.id!r} defaulted with 'or'; an "
                        f"explicit 0/empty value would be silently replaced "
                        f"— use 'if {first.id} is None' instead",
                    )

    @staticmethod
    def _boolops_in_scope(scope: ast.AST) -> Iterator[ast.BoolOp]:
        """Or-expressions directly inside ``scope`` (not nested functions)."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # handled by its own scope entry
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                yield node
            stack.extend(ast.iter_child_nodes(node))


#: Legacy module-level numpy.random functions that mutate hidden global
#: state.  Anything in this set reached as ``numpy.random.<fn>`` fires.
_NP_LEGACY_FUNCS = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
        "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
        "multinomial", "multivariate_normal", "negative_binomial",
        "noncentral_chisquare", "noncentral_f", "normal", "pareto",
        "permutation", "poisson", "power", "rand", "randint", "randn",
        "random", "random_integers", "random_sample", "ranf", "rayleigh",
        "sample", "seed", "set_state", "shuffle", "standard_cauchy",
        "standard_exponential", "standard_gamma", "standard_normal",
        "standard_t", "triangular", "uniform", "vonmises", "wald",
        "weibull", "zipf",
    }
)

#: numpy.random constructors that are deterministic only when seeded.
_NP_SEEDABLE_CTORS = frozenset(
    {"default_rng", "RandomState", "SeedSequence", "PCG64", "Philox",
     "MT19937", "SFC64"}
)

#: stdlib random constructors; ``Random()`` without a seed and
#: ``SystemRandom`` (never seedable) both fire.
_STDLIB_RANDOM_FUNCS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)


class _ImportTracker(ast.NodeVisitor):
    """Resolve local aliases to the modules/names they denote."""

    def __init__(self) -> None:
        #: alias -> dotted module path ("numpy", "numpy.random", "random")
        self.modules: Dict[str, str] = {}
        #: alias -> fully qualified imported name ("numpy.random.default_rng")
        self.names: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.modules[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports cannot be numpy/random
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            qualified = f"{node.module}.{alias.name}"
            self.names[local] = qualified
            # a submodule import (`from numpy import random`) also acts
            # as a module alias
            self.modules.setdefault(local, qualified)


def _resolve_call_target(
    node: ast.Call, imports: _ImportTracker
) -> Optional[str]:
    """Fully-qualified dotted name of a call target, if resolvable."""
    func = node.func
    parts: List[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        base = func.id
        if not parts:
            return imports.names.get(base, None)
        if base in imports.modules:
            return ".".join([imports.modules[base]] + list(reversed(parts)))
    return None


def _call_has_arguments(node: ast.Call) -> bool:
    return bool(node.args) or bool(node.keywords)


class UnseededRandomRule(Rule):
    """RL002: randomness that does not flow from an explicit seed."""

    rule_id = "RL002"
    name = "unseeded-random"
    description = "unseeded / global-state randomness"
    rationale = (
        "Every stochastic path must derive from an explicit seed or a "
        "passed-in Generator, or parallel rows stop matching serial rows."
    )

    def check(self, module: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        imports = _ImportTracker()
        imports.visit(module)
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve_call_target(node, imports)
            if target is None:
                continue
            yield from self._check_target(ctx, node, target)

    def _check_target(
        self, ctx: FileContext, node: ast.Call, target: str
    ) -> Iterator[Finding]:
        if target.startswith("numpy.random."):
            leaf = target.rsplit(".", 1)[1]
            if leaf in _NP_LEGACY_FUNCS:
                yield self.finding(
                    ctx,
                    node,
                    f"numpy.random.{leaf} uses hidden global state; "
                    f"use a seeded np.random.default_rng(...) Generator",
                )
            elif leaf in _NP_SEEDABLE_CTORS and not _call_has_arguments(node):
                yield self.finding(
                    ctx,
                    node,
                    f"{leaf}() without a seed draws OS entropy and is "
                    f"irreproducible; pass an explicit seed",
                )
        elif target.startswith("random."):
            leaf = target.rsplit(".", 1)[1]
            if leaf in _STDLIB_RANDOM_FUNCS:
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib random.{leaf} uses hidden global state; "
                    f"use a seeded np.random.default_rng(...) Generator",
                )
            elif leaf == "Random" and not _call_has_arguments(node):
                yield self.finding(
                    ctx, node, "random.Random() without a seed is irreproducible"
                )
            elif leaf == "SystemRandom":
                yield self.finding(
                    ctx,
                    node,
                    "random.SystemRandom draws OS entropy and can never be "
                    "seeded; experiments cannot be replayed",
                )


#: numpy callables whose result is (almost always) an ndarray; names
#: assigned from these are treated as array-typed by RL003.
_NP_ARRAY_PRODUCERS = frozenset(
    {
        "abs", "arange", "array", "asarray", "ascontiguousarray", "atleast_1d",
        "atleast_2d", "atleast_3d", "concatenate", "convolve", "copy", "cumsum",
        "diff", "empty", "empty_like", "full", "full_like", "hstack", "linspace",
        "ones", "ones_like", "sort", "stack", "vstack", "where", "zeros",
        "zeros_like",
    }
)

_ARRAY_ANNOTATION_MARKERS = ("ndarray", "NDArray", "ArrayLike")


class ArrayTruthinessRule(Rule):
    """RL003: bare truthiness tests on names that look array-typed."""

    rule_id = "RL003"
    name = "ndarray-truthiness"
    description = "ambiguous truthiness of an ndarray-typed name"
    rationale = (
        "`if arr:` raises for size>1 arrays and silently changes meaning "
        "for size 0/1; use arr.size / arr is None / explicit comparisons."
    )

    def check(self, module: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for scope in ast.walk(module):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, scope)

    def _check_scope(
        self, ctx: FileContext, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        array_names = self._array_names(func)
        if not array_names:
            return
        for node in ast.walk(func):
            test: Optional[ast.expr] = None
            if isinstance(node, (ast.If, ast.While)):
                test = node.test
            elif isinstance(node, ast.Assert):
                test = node.test
            elif isinstance(node, ast.IfExp):
                test = node.test
            if test is None:
                continue
            for name in self._bare_names_in_test(test):
                if name.id in array_names:
                    yield self.finding(
                        ctx,
                        name,
                        f"truth value of array {name.id!r} is ambiguous; "
                        f"test {name.id}.size (or '{name.id} is not None') "
                        f"explicitly",
                    )

    @staticmethod
    def _bare_names_in_test(test: ast.expr) -> Iterator[ast.Name]:
        """Names whose own truthiness decides the test."""
        if isinstance(test, ast.Name):
            yield test
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            yield from ArrayTruthinessRule._bare_names_in_test(test.operand)
        elif isinstance(test, ast.BoolOp):
            for value in test.values:
                yield from ArrayTruthinessRule._bare_names_in_test(value)

    @staticmethod
    def _array_names(func: ast.FunctionDef) -> Set[str]:
        names: Set[str] = set()
        args = func.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None and _mentions_array(arg.annotation):
                names.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _mentions_array(node.annotation):
                    names.add(node.target.id)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                func_node = node.value.func
                if (
                    isinstance(func_node, ast.Attribute)
                    and isinstance(func_node.value, ast.Name)
                    and func_node.value.id in ("np", "numpy")
                    and func_node.attr in _NP_ARRAY_PRODUCERS
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        return names


def _mentions_array(annotation: ast.expr) -> bool:
    try:
        text = ast.unparse(annotation)
    except ValueError:  # pragma: no cover - unparse is total on valid ASTs
        return False
    # Optional[np.ndarray] params legitimately use `is None` checks; a
    # bare-name truthiness test on them is still ambiguous, so Optional
    # does not exempt the name.
    return any(marker in text for marker in _ARRAY_ANNOTATION_MARKERS)


class MutableDefaultRule(Rule):
    """RL004: mutable default arguments persist across calls."""

    rule_id = "RL004"
    name = "mutable-default"
    description = "mutable default argument"
    rationale = (
        "A list/dict/set default is created once at def-time; state then "
        "leaks between calls and between experiments."
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})

    def check(self, module: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(module):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            defaults = list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {node.name}(); "
                        f"use None and materialise inside the function",
                    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CALLS
        return False


class FloatEqualityRule(Rule):
    """RL005: exact float equality outside the parity allowlist."""

    rule_id = "RL005"
    name = "float-equality"
    description = "exact ==/!= against a float literal"
    rationale = (
        "Bit-exact comparisons are the parity suites' job; elsewhere an "
        "innocent refactor (e.g. re-associating a sum) breaks them "
        "silently. Use math.isclose/np.isclose, or suppress with a "
        "justification when the value is an exact sentinel."
    )

    def check(self, module: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(module):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_float_literal(lhs) or self._is_float_literal(rhs):
                    yield self.finding(
                        ctx,
                        node,
                        "exact float equality; use a tolerance "
                        "(math.isclose / np.isclose) or justify via "
                        "'# reprolint: disable=RL005 -- <why exact>'",
                    )
                    break

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return FloatEqualityRule._is_float_literal(node.operand)
        return False


class SilentExceptRule(Rule):
    """RL006: exceptions swallowed without re-raise, log, or narrow type."""

    rule_id = "RL006"
    name = "silent-except"
    description = "bare/broad except that silently swallows"
    rationale = (
        "A broad handler that neither re-raises nor reports turned the "
        "C-kernel fallback into a silent 17x slowdown risk; every such "
        "site needs a narrow type or an explicit justification."
    )

    _BROAD = ("Exception", "BaseException")

    def check(self, module: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(module):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare 'except:' also catches SystemExit/KeyboardInterrupt;"
                    " name the exceptions this site can actually handle",
                )
                continue
            if self._is_broad(node.type) and self._swallows(node.body):
                yield self.finding(
                    ctx,
                    node,
                    "broad except swallows the error without re-raising or "
                    "reporting; narrow the type, or suppress with a "
                    "justification if the fallback is intended",
                )

    def _is_broad(self, type_node: ast.expr) -> bool:
        if isinstance(type_node, ast.Name):
            return type_node.id in self._BROAD
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        return False

    @staticmethod
    def _swallows(body: Sequence[ast.stmt]) -> bool:
        """True when the handler neither raises nor calls anything."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Raise, ast.Call)):
                    return False
        return True


class CKernelInternalsRule(Rule):
    """RL008: C-kernel build internals reached from outside features/."""

    rule_id = "RL008"
    name = "ckernel-internals"
    description = "direct use of repro.features._ckernel build internals"
    rationale = (
        "repro.features._ckernel compiles and dlopens a shared library on "
        "first touch. Reaching it from outside repro/features/ (or a "
        "warmup path) moves that one-off build cost into the "
        "authenticate hot path and bypasses the MiniRocket engine "
        "fallback; go through repro.features (MiniRocket, warm_engine, "
        "c_kernel_available) instead."
    )

    def check(self, module: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        if "repro/features/" in ctx.path.replace("\\", "/"):
            return
        warm_nodes = self._nodes_in_warm_functions(module)
        for node in ast.walk(module):
            if id(node) in warm_nodes:
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._names_ckernel(alias.name):
                        yield self._finding(ctx, node)
            elif isinstance(node, ast.ImportFrom):
                module_name = node.module or ""
                if self._names_ckernel(module_name):
                    yield self._finding(ctx, node)
                elif module_name.rpartition(".")[2] == "features" and any(
                    alias.name == "_ckernel" for alias in node.names
                ):
                    yield self._finding(ctx, node)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and self._is_ckernel_ref(func.value)
                ):
                    yield self._finding(ctx, node)

    @staticmethod
    def _names_ckernel(module_name: str) -> bool:
        return "_ckernel" in module_name.split(".")

    @staticmethod
    def _is_ckernel_ref(node: ast.expr) -> bool:
        """True for ``_ckernel`` / ``anything._ckernel`` expressions."""
        if isinstance(node, ast.Name):
            return node.id == "_ckernel"
        if isinstance(node, ast.Attribute):
            return node.attr == "_ckernel"
        return False

    @staticmethod
    def _nodes_in_warm_functions(module: ast.Module) -> Set[int]:
        """ids of every node inside a function whose name says 'warm'.

        Warmup helpers are exactly where eagerly touching the build
        internals is the point, so they are exempt wherever they live.
        """
        exempt: Set[int] = set()
        for func in ast.walk(module):
            if (
                isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                and "warm" in func.name.lower()
            ):
                for child in ast.walk(func):
                    exempt.add(id(child))
        return exempt

    def _finding(self, ctx: FileContext, node: ast.AST) -> Finding:
        return self.finding(
            ctx,
            node,
            "'repro.features._ckernel' is a build/compile internal; use "
            "the repro.features API (MiniRocket, warm_engine, "
            "c_kernel_available) or confine the call to a warmup helper",
        )


# Imported at the bottom so the concurrency module can subclass
# engine.Rule without a rules<->concurrency cycle.
from .concurrency import CONCURRENCY_RULES  # noqa: E402

ALL_RULES: Tuple[Rule, ...] = (
    FalsyDefaultRule(),
    UnseededRandomRule(),
    ArrayTruthinessRule(),
    MutableDefaultRule(),
    FloatEqualityRule(),
    SilentExceptRule(),
    CKernelInternalsRule(),
) + CONCURRENCY_RULES

RULES_BY_ID: Dict[str, Rule] = {  # concurrency: immutable-after-init
    rule.rule_id: rule for rule in ALL_RULES
}
