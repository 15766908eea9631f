"""The hand-written expression compiler that kernels.kernel_from_expression
replaced: a regex tokenizer and a recursive-descent parser building a
closure tree over an env dict.  Kept as the oracle the compiler on
Python's ast must match: the texts it refuses, its values bit for bit,
and its factors and splits.
"""

import re
from functools import partial

import numpy as np

from ustatkit.kernels import Kernel
from ustatkit.spaces import real_line

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_UNARY_FUNCS = {"abs": np.abs, "sign": np.sign, "exp": np.exp}
_BINARY_FUNCS = {"min": np.minimum, "max": np.maximum}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ValueError(f"unexpected character at position {pos}: {text[pos]!r}")
        tokens.append((match.lastgroup, match.group(match.lastgroup)))
        pos = match.end()
    tokens.append(("end", ""))
    return tokens


def _chain_node(chain):
    """The closure of a * / chain of (op, node, variables) links, left to right.

    A leading "/" divides 1 by its factor.
    """
    node = None
    for op, factor, _ in chain:
        if node is None:
            node = factor if op == "*" else (lambda env, b=factor: 1.0 / b(env))
        elif op == "*":
            node = (lambda env, a=node, b=factor: a(env) * b(env))
        else:
            node = (lambda env, a=node, b=factor: a(env) / b(env))
    return node


class _Parser:
    """Recursive-descent parser producing closure trees over an env dict.

    After parse(), chain holds the top-level * / chain as (op, node,
    variables read) links, or None when the expression adds or subtracts at
    the top level.
    """

    def __init__(self, text: str, variables: set[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables
        self.used: set[str] = set()
        self.chain: list | None = None

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text = self.advance()
        if kind != "op" or text != op:
            raise ValueError(f"expected {op!r}, got {text!r}")

    def parse(self):
        node = self.additive()
        kind, text = self.peek()
        if kind != "end":
            raise ValueError(f"trailing input at {text!r}")
        return node

    def additive(self):
        node = self.multiplicative()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.advance()[1]
            rhs = self.multiplicative()
            if op == "+":
                node = (lambda env, a=node, b=rhs: a(env) + b(env))
            else:
                node = (lambda env, a=node, b=rhs: a(env) - b(env))
            self.chain = None
        return node

    def multiplicative(self):
        # every chain nested in a factor is parsed before this one ends, so
        # self.chain is left holding the outermost chain
        chain = [("*", *self.factor())]
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.advance()[1]
            chain.append((op, *self.factor()))
        self.chain = chain
        return _chain_node(chain)

    def factor(self):
        """One factor of a * / chain and the set of variables it reads."""
        outer, self.used = self.used, set()
        node = self.unary()
        read = self.used
        self.used = outer | read
        return node, read

    def unary(self):
        if self.peek() == ("op", "-"):
            self.advance()
            inner = self.unary()
            return lambda env, a=inner: -a(env)
        if self.peek() == ("op", "+"):
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.primary()
        if self.peek() == ("op", "^"):
            self.advance()
            exponent = self.unary()
            return lambda env, a=base, b=exponent: np.power(a(env), b(env))
        return base

    def primary(self):
        kind, text = self.advance()
        if kind == "num":
            value = np.float64(text)
            return lambda env, v=value: v
        if kind == "name":
            if self.peek() == ("op", "("):
                return self.call(text)
            if text not in self.variables:
                allowed = ", ".join(sorted(self.variables))
                raise ValueError(f"unknown variable {text!r}; allowed: {allowed}")
            self.used.add(text)
            return lambda env, name=text: env[name]
        if (kind, text) == ("op", "("):
            node = self.additive()
            self.expect_op(")")
            return node
        raise ValueError(f"unexpected token {text!r}")

    def call(self, fname: str):
        self.expect_op("(")
        args = [self.additive()]
        while self.peek() == ("op", ","):
            self.advance()
            args.append(self.additive())
        self.expect_op(")")
        if fname in _UNARY_FUNCS:
            if len(args) != 1:
                raise ValueError(f"{fname} takes one argument")
            fn = _UNARY_FUNCS[fname]
            return lambda env, a=args[0], f=fn: f(a(env))
        if fname in _BINARY_FUNCS:
            if len(args) != 2:
                raise ValueError(f"{fname} takes two arguments")
            fn = _BINARY_FUNCS[fname]
            return lambda env, a=args[0], b=args[1], f=fn: f(a(env), b(env))
        raise ValueError(f"unknown function {fname!r}")


def _one_term(chain, m: int):
    """Kernel.factors of a * / chain whose links each read one x-variable or
    none, else None: the constant links' chain is the coefficient, and the
    chain of the links that read x_j is f_j, None where there are none."""
    names = [f"x{j + 1}" for j in range(m)]
    if chain is None or any(len(read) > 1 or not read <= set(names) for _, _, read in chain):
        return None
    constants = [link for link in chain if not link[2]]
    with np.errstate(all="ignore"):
        coef = float(_chain_node(constants)({})) if constants else 1.0
    fs = []
    for name in names:
        links = [link for link in chain if name in link[2]]
        fs.append((lambda x, _node=_chain_node(links), _name=name: _node({_name: x}))
                  if links else None)
    return ((coef, tuple(fs)),)


def old_kernel_from_expression(text: str, m: int, symmetric: bool = False,
                               codomain=None) -> Kernel:
    """kernel_from_expression as the hand-written parser compiled it."""
    if m < 1:
        raise ValueError("m must be at least 1")
    xvars = {f"x{j + 1}" for j in range(m)}
    ivars = {f"i{j + 1}" for j in range(m)}
    parser = _Parser(text, xvars | ivars)
    node = parser.parse()
    weighted = bool(parser.used & ivars)
    codomain = codomain if codomain is not None else real_line()

    def body(xs, idx, _node=node, _m=m):
        env = {f"x{j + 1}": xs[j] for j in range(_m)}
        if idx is not None:
            env.update({f"i{j + 1}": idx[j] for j in range(_m)})
        return _node(env)

    split = None
    chain = parser.chain or []
    weight_links = [link for link in chain if link[2] & ivars]
    free_links = [link for link in chain if not link[2] & ivars]
    if (weight_links and not any(link[2] & xvars for link in weight_links)
            and any(link[2] & xvars for link in free_links)):
        free = Kernel(arity=m, body=partial(body, _node=_chain_node(free_links)),
                      codomain=codomain, name=f"expr:{text}:index-free")

        def weight(idx, _node=_chain_node(weight_links), _m=m):
            return _node({f"i{j + 1}": idx[j] for j in range(_m)})

        split = (free, weight)
    return Kernel(
        arity=m,
        body=body,
        weighted=weighted,
        symmetric=symmetric,
        codomain=codomain,
        name=f"expr:{text}",
        factors=_one_term(parser.chain, m) if codomain.dimension == 1 else None,
        split=split,
    )
