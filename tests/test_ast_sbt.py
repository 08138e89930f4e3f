import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satd_forge.ast_sbt import _MAX_NESTING, AstNode, parse_if_statement, sbt_serialize
from satd_forge.errors import DataError
from satd_forge.java_miner import lex_java, mine_file, mine_source

FIXTURES = Path(__file__).parent / "fixtures" / "java"


def parse(source):
    return parse_if_statement(lex_java(source))


class TestParse:
    def test_comparison_condition(self):
        tree = parse("if(x>0){return y;}")
        expected = AstNode(
            "IfStatement",
            (
                AstNode("ParExpr", (AstNode("BinaryOp:>", (AstNode("Name:x"), AstNode("Literal:0"))),)),
                AstNode("Block", (AstNode("Return", (AstNode("Name:y"),)),)),
            ),
        )
        assert tree == expected

    def test_empty_block(self):
        assert parse("if(a){}") == AstNode(
            "IfStatement", (AstNode("ParExpr", (AstNode("Name:a"),)), AstNode("Block"))
        )

    def test_else_gives_three_children(self):
        tree = parse("if(a){} else {}")
        assert len(tree.children) == 3
        assert tree.children[2] == AstNode("Block")

    def test_else_if_nests(self):
        tree = parse("if(a){} else if(b){} else {}")
        assert tree.children[2].label == "IfStatement"
        assert len(tree.children[2].children) == 3

    def test_requires_if(self):
        with pytest.raises(DataError):
            parse("while(a){}")

    @pytest.mark.parametrize("source", ["if (a b", "if (a", "if", "if (a ]) {}", "if ((a) {}"])
    def test_unclosed_condition_is_data_error(self, source):
        with pytest.raises(DataError, match="unparsable if-statement"):
            parse(source)

    def test_condition_parse_failure_skips_to_its_closer(self):
        # `a b` is no expression: the condition becomes ParExpr(Stmt) and
        # parsing resumes after the closing parenthesis
        tree = parse("if (a b (c)) { f(); }")
        assert tree.children[0] == AstNode("ParExpr", (AstNode("Stmt"),))
        assert tree.children[1].children[0].label == "Call:f"

    def test_call_and_assignment(self):
        tree = parse("if(a){ x = o.f(1, y); }")
        block = tree.children[1]
        assign = block.children[0]
        assert assign.label == "Assign"
        assert assign.children[0] == AstNode("Name:x")
        assert assign.children[1].label == "Call:o.f"

    def test_unknown_statements_become_stmt_leaves(self):
        tree = parse("if(a){ int q = 3; for(;;) spin(); }")
        block = tree.children[1]
        assert [c.label for c in block.children] == ["Stmt", "Stmt"]

    def test_nested_if_keeps_structure(self):
        tree = parse("if(a){ if(b){} }")
        inner = tree.children[1].children[0]
        assert inner.label == "IfStatement"

    def test_unary_and_ternary(self):
        tree = parse("if(!done){ y = a > b ? a : b; }")
        cond = tree.children[0].children[0]
        assert cond == AstNode("UnaryOp:!", (AstNode("Name:done"),))
        ternary = tree.children[1].children[0].children[1]
        assert ternary.label == "Cond"


def parens(n):
    return "(" * n + "a" + ")" * n


def then_chain(tree):
    """The IfStatements reached through then-branches, and the leaf below."""
    levels = 0
    while tree.label == "IfStatement":
        levels += 1
        tree = tree.children[1]
    return levels, tree


class TestNestingCap:
    def test_condition_at_cap_is_parsed(self):
        tree = parse(f"if ({parens(_MAX_NESTING - 1)}) f();")
        assert tree.children[0] == AstNode("ParExpr", (AstNode("Name:a"),))

    def test_condition_past_cap_becomes_stmt(self):
        tree = parse(f"if ({parens(_MAX_NESTING)}) f();")
        assert tree == AstNode("IfStatement", (AstNode("ParExpr", (AstNode("Stmt"),)), AstNode("Call:f")))

    def test_statement_past_cap_becomes_stmt_leaf(self):
        assert then_chain(parse("if (a) " * 400 + "f();")) == (_MAX_NESTING + 1, AstNode("Stmt"))
        assert then_chain(parse("if (a) " * (_MAX_NESTING - 1) + "f();")) == (_MAX_NESTING - 1, AstNode("Call:f"))

    def test_result_does_not_depend_on_caller_stack_depth(self):
        source = f"if ({parens(100)}) " + "if (a) " * 400 + "f();"

        def nested(k):
            return parse(source) if k == 0 else nested(k - 1)

        assert nested(300) == parse(source)

    def test_chains_are_not_nesting(self):
        tree = parse("if (a) f(); " + "else if (a) f(); " * 2000)
        depth = 0
        while len(tree.children) == 3:
            depth += 1
            tree = tree.children[2]
        assert depth == 2000
        cond = parse("if (" + "!" * 3000 + "a + a" + " + a" * 3000 + ") f();").children[0].children[0]
        assert cond.label == "BinaryOp:+"


def test_token_entry_and_mining_entry_build_the_same_trees():
    """One parser, two entries: mining parses each fragment by its span in
    the file's scan; the other entry parses the scan of the fragment's text
    alone."""
    records = [r for path in sorted(FIXTURES.glob("*.java")) for r in mine_file(path, FIXTURES, "")]
    diagnostics = []
    deep = "class D {\n  void m() {\n    " + f"if ({parens(100)}) " + "if (a) " * 400 + "f(); } }\n"
    records += mine_source(deep, diagnostics=diagnostics)
    assert diagnostics == [f"truncated if-statement at line 3, column 5: nested deeper than {_MAX_NESTING} levels"]
    assert len(records) > 10
    for r in records:
        entry_diagnostics = []
        assert sbt_serialize(parse_if_statement(lex_java(r.code_text), entry_diagnostics)) == r.sbt_tokens
        assert len(entry_diagnostics) == (1 if r is records[-1] else 0)


class TestRecovery:
    """A statement the parser cannot read becomes a Stmt leaf; recovery
    skips to where the statement grammar stops and parsing resumes there."""

    COND = "( ParExpr ( Name:a ) Name:a ) ParExpr"

    @pytest.mark.parametrize(
        "source, sbt",
        [
            # runs into the block's `}`, which is left for the block, so the else still parses
            (
                "if (a) { f(); x = 1 } else { g(); }",
                f"( IfStatement {COND} ( Block ( Call:f ) Call:f ( Stmt ) Stmt ) Block"
                " ( Block ( Call:g ) Call:g ) Block ) IfStatement",
            ),
            # a mismatched closer stops the statement, then the block, at the `]`
            ("if (a) { f(x]; } else { g(); }", f"( IfStatement {COND} ( Stmt ) Stmt ) IfStatement"),
            # cut off at the end of the fragment
            ("if (a) x = g(", f"( IfStatement {COND} ( Stmt ) Stmt ) IfStatement"),
            # ended by the `;` at bracket depth zero, not the one inside the call
            (
                "if (a) { x = f(;); g(); }",
                f"( IfStatement {COND} ( Block ( Stmt ) Stmt ( Call:g ) Call:g ) Block ) IfStatement",
            ),
        ],
    )
    def test_recovered_statement_sbt(self, source, sbt):
        assert " ".join(sbt_serialize(parse(source))) == sbt


def all_trees(max_nodes, labels):
    """Enumerate every rooted ordered tree with <= max_nodes nodes."""

    def trees_with(n):
        if n == 1:
            return [AstNode(label) for label in labels]
        out = []
        for label in labels:
            for child_counts in compositions(n - 1):
                for combo in itertools.product(
                    *(trees_with(size) for size in child_counts)
                ):
                    out.append(AstNode(label, tuple(combo)))
        return out

    def compositions(total):
        # ordered splits of `total` into positive parts
        if total == 0:
            return [()]
        result = []
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                result.append((first,) + rest)
        return result

    every = []
    for n in range(1, max_nodes + 1):
        every.extend(trees_with(n))
    return every


class TestSbt:
    def test_leaf(self):
        assert sbt_serialize(AstNode("Name:a")) == ["(", "Name:a", ")", "Name:a"]

    def test_single_child(self):
        tree = AstNode("R", (AstNode("C"),))
        assert sbt_serialize(tree) == ["(", "R", "(", "C", ")", "C", ")", "R"]

    def test_injective_on_small_trees(self):
        trees = all_trees(5, ("A", "B", "C"))
        serialized = {tuple(sbt_serialize(t)) for t in trees}
        assert len(serialized) == len(trees)

    def test_token_count_is_4n(self):
        for tree, n in [
            (AstNode("A"), 1),
            (AstNode("A", (AstNode("B"), AstNode("C"))), 3),
            (AstNode("A", (AstNode("B", (AstNode("C"),)),)), 3),
        ]:
            assert len(sbt_serialize(tree)) == 4 * n

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=60)
    def test_balanced_brackets_random_trees(self, seed):
        import random

        rng = random.Random(seed)

        def random_tree(depth=0):
            n_children = rng.randint(0, 3) if depth < 3 else 0
            return AstNode(
                rng.choice("XYZ"), tuple(random_tree(depth + 1) for _ in range(n_children))
            )

        tree = random_tree()
        tokens = sbt_serialize(tree)
        depth = 0
        for tok in tokens:
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
            assert depth >= 0
        assert depth == 0
        n_nodes = tokens.count("(")
        assert len(tokens) == 4 * n_nodes
