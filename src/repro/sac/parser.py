"""Recursive-descent parser for the SaC subset.

Produces the AST of :mod:`repro.sac.ast`.  The grammar follows the paper's
WITH-loop syntax (Figure 1) plus the constructs its programs use
(Figures 4-7): functions, C-style for loops, indexed assignment, dot bounds,
destructured generator variables, ``step``/``width`` filters.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import SacSyntaxError, SourceLocation
from repro.sac import ast
from repro.sac.lexer import Token, tokenize

__all__ = ["MAX_DEPTH", "parse", "parse_expression"]

#: The deepest nesting the parser accepts, so that parsing and every later
#: pass over the syntax tree stay within Python's default recursion limit.
#: A literal or variable is one level deep; every parenthesis, bracket,
#: call, unary operator, WITH-loop and block around it adds one, and so does
#: each operand of a binary or subscript chain: ``1 + 1 + 1``, ``((1))`` and
#: ``a[i][j]`` are all three deep.  Deeper input is a located syntax error.
MAX_DEPTH = 48


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Parse a SaC program (a sequence of function definitions)."""
    return _Parser(tokenize(source, filename)).program()


def parse_expression(source: str, filename: str = "<string>") -> ast.Expr:
    """Parse a single SaC expression (testing convenience)."""
    p = _Parser(tokenize(source, filename))
    e = p.expression()
    p.expect_eof()
    return e


_BASE_TYPES = ("int", "float", "double", "bool", "void")

# binary operator precedence, loosest first
_BIN_LEVELS = [
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("++",),
    ("+", "-"),
    ("*", "/", "%"),
]
_LEVEL_OF = {op: level for level, ops in enumerate(_BIN_LEVELS) for op in ops}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        #: levels open around the current token
        self.depth = 0
        #: the deepest level a leaf reached since the last chain began
        self.reach = 0

    # -- token helpers -------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def loc(self) -> SourceLocation:
        return self.cur.loc

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.cur.kind == kind and (text is None or self.cur.text == text)

    def at_op(self, text: str) -> bool:
        return self.at("op", text)

    def at_kw(self, text: str) -> bool:
        return self.at("kw", text)

    def accept_op(self, text: str) -> bool:
        if self.at_op(text):
            self.advance()
            return True
        return False

    def accept_kw(self, text: str) -> bool:
        if self.at_kw(text):
            self.advance()
            return True
        return False

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise SacSyntaxError(
                f"expected {want!r}, found {self.cur.text or self.cur.kind!r}",
                self.loc(),
            )
        return self.advance()

    @contextmanager
    def nested(self):
        """One nesting level opened at the current token (:data:`MAX_DEPTH`)."""
        self.depth += 1
        self.reached(self.depth, self.loc())
        yield
        self.depth -= 1

    def reached(self, level: int, loc: SourceLocation) -> None:
        """Record that the construct at ``loc`` reaches nesting ``level``."""
        if level > MAX_DEPTH:
            raise SacSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", loc)
        self.reach = max(self.reach, level)

    def expect_eof(self) -> None:
        if self.cur.kind != "eof":
            raise SacSyntaxError(
                f"unexpected trailing input {self.cur.text!r}", self.loc()
            )

    # -- top level -------------------------------------------------------------

    def program(self) -> ast.Program:
        loc = self.loc()
        funs = []
        while not self.at("eof"):
            funs.append(self.fundef())
        names = [f.name for f in funs]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise SacSyntaxError(f"duplicate function definitions: {sorted(dupes)}", loc)
        return ast.Program(functions=tuple(funs), loc=loc)

    def fundef(self) -> ast.FunDef:
        loc = self.loc()
        ret = self.type_spec()
        name = self.expect("id").text
        self.expect("op", "(")
        params = []
        if not self.at_op(")"):
            while True:
                ploc = self.loc()
                ptype = self.type_spec()
                pname = self.expect("id").text
                params.append(ast.Param(type=ptype, name=pname, loc=ploc))
                if not self.accept_op(","):
                    break
        self.expect("op", ")")
        body = self.block()
        return ast.FunDef(ret_type=ret, name=name, params=tuple(params), body=body, loc=loc)

    def type_spec(self) -> ast.TypeSpec:
        loc = self.loc()
        if not (self.cur.kind == "kw" and self.cur.text in _BASE_TYPES):
            raise SacSyntaxError(
                f"expected a type, found {self.cur.text!r}", self.loc()
            )
        base = self.advance().text
        dims: tuple[int | str, ...] | None = None
        if self.accept_op("["):
            entries: list[int | str] = []
            while True:
                if self.accept_op("*"):
                    entries.append("*")
                elif self.accept_op("+"):
                    entries.append("+")
                elif self.accept_op("."):
                    entries.append(".")
                elif self.at("int"):
                    entries.append(int(self.advance().text))
                else:
                    raise SacSyntaxError(
                        f"bad dimension specifier {self.cur.text!r}", self.loc()
                    )
                if not self.accept_op(","):
                    break
            self.expect("op", "]")
            if ("*" in entries or "+" in entries) and len(entries) != 1:
                raise SacSyntaxError(
                    "'*'/'+' dimension specifiers must appear alone", loc
                )
            dims = tuple(entries)
        return ast.TypeSpec(base=base, dims=dims, loc=loc)

    # -- statements ----------------------------------------------------------------

    def block(self) -> tuple[ast.Stmt, ...]:
        stmts = []
        with self.nested():
            self.expect("op", "{")
            while not self.at_op("}"):
                stmts.append(self.statement())
            self.expect("op", "}")
        return tuple(stmts)

    def statement(self) -> ast.Stmt:
        loc = self.loc()
        if self.at_kw("return"):
            self.advance()
            value = None
            if not self.at_op(";"):
                value = self.expression()
            self.expect("op", ";")
            return ast.Return(value=value, loc=loc)
        if self.at_kw("for"):
            return self.for_loop()
        if self.at_kw("if"):
            return self.if_else()
        if self.at_op("{"):
            return ast.Block(stmts=self.block(), loc=loc)
        # assignment: id ('[' expr ']')? '=' expr ';'
        name = self.expect("id").text
        if self.accept_op("["):
            index = self.index_argument()
            self.expect("op", "]")
            self.expect("op", "=")
            value = self.expression()
            self.expect("op", ";")
            return ast.IndexedAssign(name=name, index=index, value=value, loc=loc)
        self.expect("op", "=")
        value = self.expression()
        self.expect("op", ";")
        return ast.Assign(name=name, value=value, loc=loc)

    def for_loop(self) -> ast.ForLoop:
        loc = self.loc()
        self.expect("kw", "for")
        self.expect("op", "(")
        init_loc = self.loc()
        init_name = self.expect("id").text
        self.expect("op", "=")
        init = ast.Assign(name=init_name, value=self.expression(), loc=init_loc)
        self.expect("op", ";")
        cond = self.expression()
        self.expect("op", ";")
        upd_loc = self.loc()
        upd_name = self.expect("id").text
        if self.accept_op("++"):
            update: ast.Stmt = ast.Assign(
                name=upd_name,
                value=ast.BinExpr(
                    op="+",
                    lhs=ast.Var(name=upd_name, loc=upd_loc),
                    rhs=ast.IntLit(value=1, loc=upd_loc),
                    loc=upd_loc,
                ),
                loc=upd_loc,
            )
        else:
            self.expect("op", "=")
            update = ast.Assign(name=upd_name, value=self.expression(), loc=upd_loc)
        self.expect("op", ")")
        body = self.block()
        return ast.ForLoop(init=init, cond=cond, update=update, body=body, loc=loc)

    def if_else(self) -> ast.IfElse:
        loc = self.loc()
        self.expect("kw", "if")
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        then = self.block()
        orelse: tuple[ast.Stmt, ...] = ()
        if self.accept_kw("else"):
            if self.at_kw("if"):
                orelse = (self.if_else(),)
            else:
                orelse = self.block()
        return ast.IfElse(cond=cond, then=then, orelse=orelse, loc=loc)

    # -- expressions --------------------------------------------------------------

    def expression(self) -> ast.Expr:
        return self._binary(0)

    def _binary(self, min_level: int) -> ast.Expr:
        """A left-associative chain of operators of ``_BIN_LEVELS[min_level]``
        or tighter, by precedence climbing.  Each operator is one level above
        the deeper of its operands."""
        outer, self.reach = self.reach, 0
        lhs = self._unary()
        while self.cur.kind == "op" and _LEVEL_OF.get(self.cur.text, -1) >= min_level:
            loc = self.loc()
            op = self.advance().text
            left, self.reach = self.reach, 0
            rhs = self._binary(_LEVEL_OF[op] + 1)
            self.reached(max(left, self.reach) + 1, loc)
            lhs = ast.BinExpr(op=op, lhs=lhs, rhs=rhs, loc=loc)
        self.reach = max(outer, self.reach)
        return lhs

    def _unary(self) -> ast.Expr:
        loc = self.loc()
        if self.at_op("-") or self.at_op("!"):
            op = self.advance().text
            with self.nested():
                return ast.UnExpr(op=op, operand=self._unary(), loc=loc)
        return self._postfix()

    def _postfix(self) -> ast.Expr:
        e = self._primary()
        while self.at_op("["):
            loc = self.loc()
            # the subscript is nested; the array it indexes is one level down
            base, self.reach = self.reach, 0
            with self.nested():
                self.advance()
                index = self.index_argument()
                self.expect("op", "]")
            self.reached(max(base + 1, self.reach), loc)
            e = ast.IndexExpr(array=e, index=index, loc=loc)
        return e

    def index_argument(self) -> ast.Expr:
        """The inside of ``a[...]``: an expression or an ``[i,j]`` literal
        (the paper's ``a[[i,j,k]]`` is an ArrayLit index)."""
        return self.expression()

    def _primary(self) -> ast.Expr:
        loc = self.loc()
        self.reached(self.depth + 1, loc)  # every primary is one level deep
        if self.at("int"):
            return ast.IntLit(value=int(self.advance().text), loc=loc)
        if self.at("float"):
            return ast.FloatLit(value=float(self.advance().text), loc=loc)
        if self.at_kw("true") or self.at_kw("false"):
            return ast.BoolLit(value=self.advance().text == "true", loc=loc)
        if self.at_kw("with"):
            with self.nested():
                return self.with_loop()
        if self.at_kw("genarray") and self.peek().text == "(":
            # array-constructor call form (paper Figure 5:
            # ``tile = genarray(out_pattern, 0);``)
            self.advance()
            with self.nested():
                self.expect("op", "(")
                args = [self.expression()]
                while self.accept_op(","):
                    args.append(self.expression())
                self.expect("op", ")")
            return ast.Call(name="genarray", args=tuple(args), loc=loc)
        if self.at_op("("):
            with self.nested():
                self.advance()
                e = self.expression()
                self.expect("op", ")")
            return e
        if self.at_op("["):
            return ast.ArrayLit(elements=self.arguments("]"), loc=loc)
        if self.at("id"):
            if self.peek().text == "(":
                name = self.advance().text
                return ast.Call(name=name, args=self.arguments(")"), loc=loc)
            return ast.Var(name=self.advance().text, loc=loc)
        raise SacSyntaxError(
            f"expected an expression, found {self.cur.text or self.cur.kind!r}",
            loc,
        )

    def arguments(self, close: str) -> tuple[ast.Expr, ...]:
        """A bracketed, comma-separated expression list ending in ``close``
        (call arguments, array elements): one level deeper."""
        items = []
        with self.nested():
            self.advance()
            if not self.at_op(close):
                items.append(self.expression())
                while self.accept_op(","):
                    items.append(self.expression())
            self.expect("op", close)
        return tuple(items)

    # -- WITH-loops ------------------------------------------------------------------

    def with_loop(self) -> ast.WithLoop:
        loc = self.loc()
        self.expect("kw", "with")
        self.expect("op", "{")
        generators = []
        while not self.at_op("}"):
            generators.append(self.generator())
        self.expect("op", "}")
        if not generators:
            raise SacSyntaxError("WITH-loop needs at least one generator", loc)
        self.expect("op", ":")
        operation = self.operation()
        return ast.WithLoop(generators=tuple(generators), operation=operation, loc=loc)

    def _gen_bound(self) -> ast.Expr:
        loc = self.loc()
        if self.accept_op("."):
            self.reached(self.depth + 1, loc)
            return ast.Dot(loc=loc)
        # bounds must stop before the generator's own '<='/'<' — parse below
        # the comparison precedence level (starting at '++')
        return self._binary(4)

    def _relop(self) -> str:
        if self.accept_op("<="):
            return "<="
        if self.accept_op("<"):
            return "<"
        raise SacSyntaxError(
            f"expected '<=' or '<' in generator, found {self.cur.text!r}", self.loc()
        )

    def generator(self) -> ast.Generator:
        loc = self.loc()
        self.expect("op", "(")
        lower_loc = self.loc()
        lower_expr = self._gen_bound()
        lower_op = self._relop()
        # index variable(s): bare id or destructured [i, j].  The lower bound
        # may itself have parsed an ArrayLit of Vars when destructuring is
        # written without spacing tricks — but our grammar reads the variable
        # position explicitly, so no ambiguity arises here.
        vloc = self.loc()
        if self.accept_op("["):
            names = [self.expect("id").text]
            while self.accept_op(","):
                names.append(self.expect("id").text)
            self.expect("op", "]")
            vars_, destructured = tuple(names), True
        else:
            vars_, destructured = (self.expect("id").text,), False
        if len(set(vars_)) != len(vars_):
            raise SacSyntaxError("duplicate generator index variables", vloc)
        upper_op = self._relop()
        upper_expr = self._gen_bound()
        step = None
        width = None
        if self.accept_kw("step"):
            step = self.expression()
        if self.accept_kw("width"):
            width = self.expression()
        self.expect("op", ")")
        body: tuple[ast.Stmt, ...] = ()
        if self.at_op("{"):
            body = self.block()
        self.expect("op", ":")
        expr = self.expression()
        self.expect("op", ";")
        return ast.Generator(
            lower=ast.GenBound(expr=lower_expr, op=lower_op, loc=lower_loc),
            vars=vars_,
            destructured=destructured,
            upper=ast.GenBound(expr=upper_expr, op=upper_op, loc=loc),
            step=step,
            width=width,
            body=body,
            expr=expr,
            loc=loc,
        )

    def operation(self) -> ast.Operation:
        loc = self.loc()
        if self.accept_kw("genarray"):
            self.expect("op", "(")
            shape = self.expression()
            default = None
            if self.accept_op(","):
                default = self.expression()
            self.expect("op", ")")
            return ast.GenArray(shape=shape, default=default, loc=loc)
        if self.accept_kw("modarray"):
            self.expect("op", "(")
            array = self.expression()
            self.expect("op", ")")
            return ast.ModArray(array=array, loc=loc)
        if self.accept_kw("fold"):
            self.expect("op", "(")
            fun = self.expect("id").text
            self.expect("op", ",")
            neutral = self.expression()
            self.expect("op", ")")
            return ast.Fold(fun=fun, neutral=neutral, loc=loc)
        raise SacSyntaxError(
            f"expected genarray/modarray/fold, found {self.cur.text!r}", loc
        )
