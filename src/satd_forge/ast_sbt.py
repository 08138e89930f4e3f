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
from .java_miner import END, JavaScan, StatementError, bracket_end, simple_end, skip_labels, statement_end


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
    """Recursive descent over a JavaScan's significant tokens from index
    `i`, up to the END entry; keyword tests compare lexemes alone (see
    java_miner._WORD_KINDS)."""

    def __init__(self, scan: JavaScan, i: int):
        self.scan = scan
        self.lexemes = scan.lexemes
        self.kinds = scan.kinds
        self.i = i
        self.depth = 0  # statements and expressions being parsed
        self.capped = False  # whether some part lay past _MAX_NESTING

    def advance(self) -> int:
        """Index of the current token, moving past it."""
        i = self.i
        if self.lexemes[i] == END:
            raise _Unparsable("unexpected end of fragment")
        self.i = i + 1
        return i

    def expect(self, lexeme: str):
        t = self.lexemes[self.i]
        if t != lexeme:
            if t == END:
                raise _Unparsable("unexpected end of fragment")
            raise _Unparsable(f"expected {lexeme!r}, found {t!r}")
        self.i += 1

    # -- statements ------------------------------------------------------

    def parse_if(self) -> AstNode:
        """An if/else-if/else chain; each `else if` nests as the last child
        of the `if` before it."""
        lexemes = self.lexemes
        if lexemes[self.i] != "if":
            raise DataError("fragment does not start with `if`")
        links = []  # (condition, then-branch) of each `if` in the chain
        tail: tuple[AstNode, ...] = ()
        while True:
            self.i += 1
            links.append((self.parse_par_expr(), self.parse_statement()))
            if lexemes[self.i] != "else":
                break
            self.i += 1
            if lexemes[self.i] != "if":
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
            self.i = bracket_end(self.scan, opener, "(")
            return AstNode("ParExpr", (AstNode("Stmt"),))

    def parse_statement(self) -> AstNode:
        """Total over balanced fragments: anything unrecognized, or nested
        past _MAX_NESTING, becomes Stmt."""
        mark = self.i
        self.depth += 1
        try:
            if self.depth > _MAX_NESTING:
                self.capped = True
                self.i = statement_end(self.scan, self.i)
                return AstNode("Stmt")
            return self._parse_statement_strict()
        except (_Unparsable, StatementError):
            self.i = mark
            self._recover_statement()
            return AstNode("Stmt")
        finally:
            self.depth -= 1

    def _parse_statement_strict(self) -> AstNode:
        self.i = i = skip_labels(self.scan, self.i)
        t = self.lexemes[i]
        if t == "{":
            return self.parse_block()
        if t == ";":
            self.i = i + 1
            return AstNode("Stmt")
        if self.kinds[i] == "keyword":
            if t == "if":
                return self.parse_if()
            if t == "return":
                self.i = i + 1
                if self.lexemes[self.i] == ";":
                    self.i += 1
                    return AstNode("Return")
                expr = self.parse_expression()
                self.expect(";")
                return AstNode("Return", (expr,))
            self.i = statement_end(self.scan, i)
            return AstNode("Stmt")
        if t == END:
            raise _Unparsable("statement expected")
        expr = self.parse_expression()
        self.expect(";")
        return expr

    def parse_block(self) -> AstNode:
        self.expect("{")
        lexemes = self.lexemes
        children = []
        while lexemes[self.i] != "}":
            if lexemes[self.i] == END:
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
            self.i = simple_end(self.scan, self.i)
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
            if self.lexemes[self.i] in _ASSIGN_OPS:
                self.i += 1
                return AstNode("Assign", (lhs, self.parse_expression()))
            return lhs
        finally:
            self.depth -= 1

    def parse_ternary(self) -> AstNode:
        cond = self.parse_binary()
        if self.lexemes[self.i] == "?":
            self.i += 1
            then = self.parse_expression()
            self.expect(":")
            other = self.parse_expression()
            return AstNode("Cond", (cond, then, other))
        return cond

    def parse_binary(self) -> AstNode:
        """Left-associative operators by _BINARY_LEVELS, reduced on an
        operator stack rather than one call per level."""
        lexemes = self.lexemes
        operands = [self.parse_unary()]
        ops: list[tuple[int, str]] = []  # (level, operator) awaiting a right operand
        while True:
            t = lexemes[self.i]
            level = _BINARY_LEVEL.get(t)
            while ops and (level is None or ops[-1][0] >= level):
                op = ops.pop()[1]
                rhs = operands.pop()
                operands[-1] = AstNode(f"BinaryOp:{op}", (operands[-1], rhs))
            if level is None:
                return operands[0]
            self.i += 1
            ops.append((level, t))
            operands.append(self.parse_unary())

    def parse_unary(self) -> AstNode:
        lexemes = self.lexemes
        ops = []
        while lexemes[self.i] in _UNARY_OPS:  # lexemes only the operator rule makes
            ops.append(lexemes[self.i])
            self.i += 1
        node = self.parse_postfix()
        for op in reversed(ops):
            node = AstNode(f"UnaryOp:{op}", (node,))
        return node

    def parse_postfix(self) -> AstNode:
        lexemes, kinds = self.lexemes, self.kinds
        node = self.parse_primary()
        while True:
            t = lexemes[self.i]
            if t == ".":
                self.i += 1
                name = self.advance()
                if kinds[name] not in ("identifier", "keyword"):
                    raise _Unparsable(f"bad member name {lexemes[name]!r}")
                if node.label.startswith("Name:") and not node.children:
                    node = AstNode(f"{node.label}.{lexemes[name]}")
                else:
                    node = AstNode(f"Field:{lexemes[name]}", (node,))
            elif t == "(":
                args = self.parse_arguments()
                if node.label.startswith("Name:") and not node.children:
                    node = AstNode(f"Call:{node.label[5:]}", tuple(args))
                else:
                    node = AstNode("Call", (node, *args))
            elif t == "[":
                self.i += 1
                index = self.parse_expression()
                self.expect("]")
                node = AstNode("Index", (node, index))
            elif t == "++" or t == "--":
                self.i += 1
                node = AstNode(f"UnaryOp:{t}", (node,))
            else:
                return node

    def parse_arguments(self) -> list[AstNode]:
        lexemes = self.lexemes
        self.expect("(")
        args = []
        if lexemes[self.i] != ")":
            args.append(self.parse_expression())
            while lexemes[self.i] == ",":
                self.i += 1
                args.append(self.parse_expression())
        self.expect(")")
        return args

    def parse_primary(self) -> AstNode:
        lexemes = self.lexemes
        i = self.i
        t, kind = lexemes[i], self.kinds[i]
        if kind == "identifier":
            self.i = i + 1
            return AstNode(f"Name:{t}")
        if kind == "literal":
            self.i = i + 1
            return AstNode(f"Literal:{t}")
        if t == "this" or t == "super":
            self.i = i + 1
            return AstNode(f"Name:{t}")
        if t == "new":
            self.i = i + 1
            name = self.advance()
            if self.kinds[name] not in ("identifier", "keyword"):
                raise _Unparsable("type name expected after new")
            parts = [lexemes[name]]
            while lexemes[self.i] == ".":
                self.i += 1
                parts.append(lexemes[self.advance()])
            if lexemes[self.i] != "(":
                raise _Unparsable("array or generic construction")
            args = self.parse_arguments()
            return AstNode(f"New:{'.'.join(parts)}", tuple(args))
        if t == "(":
            self.i = i + 1
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if t == END:
            raise _Unparsable("expression expected")
        raise _Unparsable(f"unexpected token {t!r}")


def parse_if_statement(
    scan: JavaScan, diagnostics: list[str] | None = None, span: tuple[int, int] | None = None
) -> AstNode:
    """Build the simplified tree for an if-fragment: all of a `lex_java`
    scan's significant tokens, or, given `span`, its tokens [start, end),
    parsed in place with END standing in for token `end`. A fragment
    nested past _MAX_NESTING is reported in `diagnostics`; one whose
    condition or brackets do not close raises DataError."""
    start, end = span if span is not None else (0, len(scan.lexemes) - 1)
    lexemes, kinds = scan.lexemes, scan.kinds
    saved = lexemes[end], kinds[end]
    lexemes[end] = kinds[end] = END
    parser = _Parser(scan, start)
    try:
        tree = parser.parse_if()
    except (_Unparsable, StatementError) as exc:
        raise DataError(f"unparsable if-statement: {exc}") from exc
    finally:
        lexemes[end], kinds[end] = saved
    if parser.capped and diagnostics is not None:
        line, column = scan.position(scan.starts[start])
        diagnostics.append(
            f"truncated if-statement at line {line}, column {column}: nested deeper than {_MAX_NESTING} levels"
        )
    return tree
