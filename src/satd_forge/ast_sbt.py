"""Simplified abstract syntax trees for if-statements and their
structure-based traversal serialization.

Node labels are drawn from a fixed set, with identifier/literal payloads
fused into the label after a colon:

    IfStatement ParExpr Block Stmt Return Assign Cond Index
    BinaryOp:<op> UnaryOp:<op> Name:<dotted.name> Literal:<lexeme>
    Call:<dotted.name> Call Field:<name> New:<type>

Constructs outside this set (declarations, loops, lambdas, casts) collapse
into payload-free Stmt leaves: lossy, but the bracketing structure that
distinguishes trees is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .java_miner import _SKIP_KINDS, JToken, StatementError, bracket_end, simple_end, skip_labels, statement_end


@dataclass(frozen=True)
class AstNode:
    label: str
    children: tuple["AstNode", ...] = ()


def sbt_serialize(node: AstNode) -> list[str]:
    """Bracketed traversal: "(" label <children...> ")" label.

    Emits exactly 4 tokens per node and distinct sequences for distinct
    trees.
    """
    out: list[str] = []
    stack: list[tuple[AstNode, bool]] = [(node, False)]
    while stack:
        n, closing = stack.pop()
        if closing:
            out.append(")")
            out.append(n.label)
        else:
            out.append("(")
            out.append(n.label)
            stack.append((n, True))
            for child in reversed(n.children):
                stack.append((child, False))
    return out


_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}

# binary operators from loosest to tightest binding
_BINARY_LEVELS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">=", "instanceof"),
    ("<<", ">>", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
)

_BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

_UNARY_OPS = {"!", "~", "+", "-", "++", "--"}

# Statements and expressions nested deeper than this are not descended
# into: such a statement becomes a Stmt leaf and such a condition
# ParExpr(Stmt). One level costs at most 7 Python frames, so a parse stays
# well under the default recursion limit whatever the input and the caller.
_MAX_NESTING = 50


class _Unparsable(Exception):
    pass


class _Parser:
    def __init__(self, tokens: list[JToken]):
        self.toks = [t for t in tokens if t.kind not in _SKIP_KINDS]
        self.i = 0
        self.depth = 0  # statements and expressions being parsed
        self.capped = False  # whether some part lay past _MAX_NESTING

    def peek(self) -> JToken | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def at(self, lexeme: str) -> bool:
        t = self.peek()
        return t is not None and t.lexeme == lexeme

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "keyword" and t.lexeme == word

    def advance(self) -> JToken:
        t = self.peek()
        if t is None:
            raise _Unparsable("unexpected end of fragment")
        self.i += 1
        return t

    def expect(self, lexeme: str) -> JToken:
        t = self.advance()
        if t.lexeme != lexeme:
            raise _Unparsable(f"expected {lexeme!r}, found {t.lexeme!r}")
        return t

    # -- statements ------------------------------------------------------

    def parse_if(self) -> AstNode:
        """An if/else-if/else chain; each `else if` nests as the last child
        of the `if` before it."""
        t = self.peek()
        if t is None or not (t.kind == "keyword" and t.lexeme == "if"):
            raise DataError("fragment does not start with `if`")
        links = []  # (condition, then-branch) of each `if` in the chain
        tail: tuple[AstNode, ...] = ()
        while True:
            self.advance()
            links.append((self.parse_par_expr(), self.parse_statement()))
            if not self.at_kw("else"):
                break
            self.advance()
            if not self.at_kw("if"):
                tail = (self.parse_statement(),)
                break
        for cond, then in reversed(links):
            tail = (AstNode("IfStatement", (cond, then) + tail),)
        return tail[0]

    def parse_par_expr(self) -> AstNode:
        opener = self.i
        self.expect("(")
        try:
            expr = self.parse_expression()
            self.expect(")")
            return AstNode("ParExpr", (expr,))
        except _Unparsable:
            self.i = bracket_end(self.toks, opener, "(")
            return AstNode("ParExpr", (AstNode("Stmt"),))

    def parse_statement(self) -> AstNode:
        """Total over balanced fragments: anything unrecognized, or nested
        past _MAX_NESTING, becomes Stmt."""
        mark = self.i
        self.depth += 1
        try:
            if self.depth > _MAX_NESTING:
                self.capped = True
                self.i = statement_end(self.toks, self.i)
                return AstNode("Stmt")
            return self._parse_statement_strict()
        except (_Unparsable, StatementError):
            self.i = mark
            self._recover_statement()
            return AstNode("Stmt")
        finally:
            self.depth -= 1

    def _parse_statement_strict(self) -> AstNode:
        self.i = skip_labels(self.toks, self.i)
        t = self.peek()
        if t is None:
            raise _Unparsable("statement expected")
        if t.lexeme == "{":
            return self.parse_block()
        if t.lexeme == ";":
            self.advance()
            return AstNode("Stmt")
        if t.kind == "keyword":
            if t.lexeme == "if":
                return self.parse_if()
            if t.lexeme == "return":
                self.advance()
                if self.at(";"):
                    self.advance()
                    return AstNode("Return")
                expr = self.parse_expression()
                self.expect(";")
                return AstNode("Return", (expr,))
            self.i = statement_end(self.toks, self.i)
            return AstNode("Stmt")
        expr = self.parse_expression()
        self.expect(";")
        return expr

    def parse_block(self) -> AstNode:
        self.expect("{")
        children = []
        while not self.at("}"):
            if self.peek() is None:
                raise _Unparsable("unterminated block")
            before = self.i
            children.append(self.parse_statement())
            if self.i == before:  # recovery stopped at the closing brace
                break
        self.expect("}")
        return AstNode("Block", tuple(children))

    # -- tolerance ---------------------------------------------------------

    def _recover_statement(self):
        """Last-resort consumption up to `;` at depth zero, or up to where
        the simple-statement scan stops: the closing brace of the enclosing
        block or a mismatched closer (left unconsumed), or the end."""
        try:
            self.i = simple_end(self.toks, self.i)
        except StatementError as exc:
            self.i = exc.at

    # -- expressions -----------------------------------------------------

    def parse_expression(self) -> AstNode:
        self.depth += 1
        try:
            if self.depth > _MAX_NESTING:
                self.capped = True
                raise _Unparsable("expression nested too deep")
            lhs = self.parse_ternary()
            t = self.peek()
            if t is not None and t.lexeme in _ASSIGN_OPS:
                self.advance()
                return AstNode("Assign", (lhs, self.parse_expression()))
            return lhs
        finally:
            self.depth -= 1

    def parse_ternary(self) -> AstNode:
        cond = self.parse_binary()
        if self.at("?"):
            self.advance()
            then = self.parse_expression()
            self.expect(":")
            other = self.parse_expression()
            return AstNode("Cond", (cond, then, other))
        return cond

    def parse_binary(self) -> AstNode:
        """Left-associative operators by _BINARY_LEVELS, reduced on an
        operator stack rather than one call per level."""
        operands = [self.parse_unary()]
        ops: list[tuple[int, str]] = []  # (level, operator) awaiting a right operand
        while True:
            t = self.peek()
            level = _BINARY_LEVEL.get(t.lexeme) if t is not None else None
            while ops and (level is None or ops[-1][0] >= level):
                op = ops.pop()[1]
                rhs = operands.pop()
                operands[-1] = AstNode(f"BinaryOp:{op}", (operands[-1], rhs))
            if level is None:
                return operands[0]
            self.advance()
            ops.append((level, t.lexeme))
            operands.append(self.parse_unary())

    def parse_unary(self) -> AstNode:
        ops = []
        t = self.peek()
        while t is not None and t.kind == "operator" and t.lexeme in _UNARY_OPS:
            ops.append(t.lexeme)
            self.advance()
            t = self.peek()
        node = self.parse_postfix()
        for op in reversed(ops):
            node = AstNode(f"UnaryOp:{op}", (node,))
        return node

    def parse_postfix(self) -> AstNode:
        node = self.parse_primary()
        while True:
            t = self.peek()
            if t is None:
                return node
            if t.lexeme == ".":
                self.advance()
                name = self.advance()
                if name.kind not in ("identifier", "keyword"):
                    raise _Unparsable(f"bad member name {name.lexeme!r}")
                if node.label.startswith("Name:") and not node.children:
                    node = AstNode(f"{node.label}.{name.lexeme}")
                else:
                    node = AstNode(f"Field:{name.lexeme}", (node,))
            elif t.lexeme == "(":
                args = self.parse_arguments()
                if node.label.startswith("Name:") and not node.children:
                    node = AstNode(f"Call:{node.label[5:]}", tuple(args))
                else:
                    node = AstNode("Call", (node, *args))
            elif t.lexeme == "[":
                self.advance()
                index = self.parse_expression()
                self.expect("]")
                node = AstNode("Index", (node, index))
            elif t.lexeme in ("++", "--"):
                self.advance()
                node = AstNode(f"UnaryOp:{t.lexeme}", (node,))
            else:
                return node

    def parse_arguments(self) -> list[AstNode]:
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.parse_expression())
            while self.at(","):
                self.advance()
                args.append(self.parse_expression())
        self.expect(")")
        return args

    def parse_primary(self) -> AstNode:
        t = self.peek()
        if t is None:
            raise _Unparsable("expression expected")
        if t.kind == "identifier":
            self.advance()
            return AstNode(f"Name:{t.lexeme}")
        if t.kind == "literal":
            self.advance()
            return AstNode(f"Literal:{t.lexeme}")
        if t.kind == "keyword" and t.lexeme in ("this", "super"):
            self.advance()
            return AstNode(f"Name:{t.lexeme}")
        if t.kind == "keyword" and t.lexeme == "new":
            self.advance()
            name = self.advance()
            if name.kind not in ("identifier", "keyword"):
                raise _Unparsable("type name expected after new")
            parts = [name.lexeme]
            while self.at("."):
                self.advance()
                parts.append(self.advance().lexeme)
            if not self.at("("):
                raise _Unparsable("array or generic construction")
            args = self.parse_arguments()
            return AstNode(f"New:{'.'.join(parts)}", tuple(args))
        if t.lexeme == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        raise _Unparsable(f"unexpected token {t.lexeme!r}")


def parse_if_statement(tokens: list[JToken], diagnostics: list[str] | None = None) -> AstNode:
    """Build the simplified tree for one extracted if-fragment; a fragment
    nested past _MAX_NESTING is reported in `diagnostics`. A fragment whose
    condition or brackets do not close raises DataError."""
    parser = _Parser(tokens)
    try:
        tree = parser.parse_if()
    except (_Unparsable, StatementError) as exc:
        raise DataError(f"unparsable if-statement: {exc}") from exc
    if parser.capped and diagnostics is not None:
        t = parser.toks[0]
        diagnostics.append(
            f"truncated if-statement at line {t.line}, column {t.column}: nested deeper than {_MAX_NESTING} levels"
        )
    return tree
