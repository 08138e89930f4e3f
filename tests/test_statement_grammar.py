"""Characterization of the statement grammar shared by if-chain extraction
and SBT parsing: one pinned fragment and SBT per statement form the
grammar knows, and the exact diagnostic for each rejected candidate."""

import pytest

from satd_forge.java_miner import mine_source

IF_A = "( IfStatement ( ParExpr ( Name:a ) Name:a ) ParExpr"
STMT = "( Stmt ) Stmt"

# name -> (source, the one fragment mined from it, its SBT)
ACCEPTED = {
    "for_body": (
        "if (a) for (int i = 0; i < n; i++) f(i); g();",
        "if (a) for (int i = 0; i < n; i++) f(i);",
        f"{IF_A} {STMT} ) IfStatement",
    ),
    "while_body_else": (
        "if (a) while (b) { poll(); } else stop();",
        "if (a) while (b) { poll(); } else stop();",
        f"{IF_A} {STMT} ( Call:stop ) Call:stop ) IfStatement",
    ),
    "switch_body": (
        "if (a) switch (k) { case 1: f(); break; default: g(); } h();",
        "if (a) switch (k) { case 1: f(); break; default: g(); }",
        f"{IF_A} {STMT} ) IfStatement",
    ),
    "synchronized_body": (
        "if (a) synchronized (lock) { f(); } else { g(); }",
        "if (a) synchronized (lock) { f(); } else { g(); }",
        f"{IF_A} {STMT} ( Block ( Call:g ) Call:g ) Block ) IfStatement",
    ),
    "loops_in_block": (
        "if (a) { for (String s : xs) { if (s == null) continue; } while (b) c(); throw new E(); }",
        "if (a) { for (String s : xs) { if (s == null) continue; } while (b) c(); throw new E(); }",
        f"{IF_A} ( Block {STMT} {STMT} {STMT} ) Block ) IfStatement",
    ),
    "do_while": (
        "if (a) do { f(); } while (b); g();",
        "if (a) do { f(); } while (b);",
        f"{IF_A} {STMT} ) IfStatement",
    ),
    "do_in_unbraced_if": (
        "if (a) do f(); while (b); else g();",
        "if (a) do f(); while (b); else g();",
        f"{IF_A} {STMT} ( Call:g ) Call:g ) IfStatement",
    ),
    "if_in_do_body": (
        "if (a) do if (b) x(); else y(); while (c); z();",
        "if (a) do if (b) x(); else y(); while (c);",
        f"{IF_A} {STMT} ) IfStatement",
    ),
    "do_in_block": (
        "if (a) { do { n--; } while (n > 0); done(); }",
        "if (a) { do { n--; } while (n > 0); done(); }",
        f"{IF_A} ( Block {STMT} ( Call:done ) Call:done ) Block ) IfStatement",
    ),
    "try_catch_finally": (
        "if (a) try { f(); } catch (E e) { g(); } finally { h(); } i();",
        "if (a) try { f(); } catch (E e) { g(); } finally { h(); }",
        f"{IF_A} {STMT} ) IfStatement",
    ),
    "try_with_resources": (
        "if (a) try (R r = open()) { use(r); } catch (IOException e) { log(e); } else b();",
        "if (a) try (R r = open()) { use(r); } catch (IOException e) { log(e); } else b();",
        f"{IF_A} {STMT} ( Call:b ) Call:b ) IfStatement",
    ),
    "try_in_block": (
        "if (a) { try { f(); } finally { g(); } return; }",
        "if (a) { try { f(); } finally { g(); } return; }",
        f"{IF_A} ( Block {STMT} ( Return ) Return ) Block ) IfStatement",
    ),
    "labels": (
        "if (a) outer: inner: for (;;) { break outer; } done();",
        "if (a) outer: inner: for (;;) { break outer; }",
        f"{IF_A} {STMT} ) IfStatement",
    ),
    "label_in_block": (
        "if (a) { here: while (b) { continue here; } }",
        "if (a) { here: while (b) { continue here; } }",
        f"{IF_A} ( Block {STMT} ) Block ) IfStatement",
    ),
    "dangling_else": (
        "if (a) if (b) x(); else y(); z();",
        "if (a) if (b) x(); else y();",
        f"{IF_A} ( IfStatement ( ParExpr ( Name:b ) Name:b ) ParExpr"
        " ( Call:x ) Call:x ( Call:y ) Call:y ) IfStatement ) IfStatement",
    ),
    "dangling_else_outer_else": (
        "if (a) if (b) x(); else y(); else z();",
        "if (a) if (b) x(); else y(); else z();",
        f"{IF_A} ( IfStatement ( ParExpr ( Name:b ) Name:b ) ParExpr"
        " ( Call:x ) Call:x ( Call:y ) Call:y ) IfStatement ( Call:z ) Call:z ) IfStatement",
    ),
    "else_if_loops": (
        "if (a) while (b) f(); else if (c) for (;;) g(); else h();",
        "if (a) while (b) f(); else if (c) for (;;) g(); else h();",
        f"{IF_A} {STMT} ( IfStatement ( ParExpr ( Name:c ) Name:c ) ParExpr"
        f" {STMT} ( Call:h ) Call:h ) IfStatement ) IfStatement",
    ),
    # a local class declaration ends at the next `;`, taking f() with it
    "local_class_in_block": (
        "if (a) { class L { void m() {} } f(); g(); }",
        "if (a) { class L { void m() {} } f(); g(); }",
        f"{IF_A} ( Block {STMT} ( Call:g ) Call:g ) Block ) IfStatement",
    ),
    "local_class_unbraced": (
        "if (a) class L { } f(); g();",
        "if (a) class L { } f();",
        f"{IF_A} {STMT} ) IfStatement",
    ),
}

# name -> (source whose first candidate is rejected, its diagnostic);
# the well-formed `if (ok) h();` beside it is still mined
REJECTED = {
    "do_without_while": (
        "if (a) do f(); g(); if (ok) h();",
        "skipped if-statement at line 1, column 1: do without while",
    ),
    "do_while_without_semicolon": (
        "if (a) do f(); while (b) g(); if (ok) h();",
        "skipped if-statement at line 1, column 1: do-while missing semicolon",
    ),
    "try_without_block": (
        "if (a)\n  try f();\nif (ok) h();",
        "skipped if-statement at line 1, column 1: expected '{', found 'f' at line 2",
    ),
    "runs_into_brace": (
        "if (a)\n  f()\n}\nif (ok) h();",
        "skipped if-statement at line 1, column 1: statement runs into enclosing block at line 3",
    ),
    "mismatched_bracket": (
        "if (a) f(a];\nif (ok) h();",
        "skipped if-statement at line 1, column 1: mismatched ']' at line 1",
    ),
    "condition_without_paren": (
        "if x;\nif (ok) h();",
        "skipped if-statement at line 1, column 1: expected '(', found 'x' at line 1",
    ),
    "unclosed_condition": (
        "if (ok) h();\nif (a",
        "skipped if-statement at line 2, column 1: unexpected end of token stream",
    ),
    "no_statement": (
        "if (ok) h();\nif (a)",
        "skipped if-statement at line 2, column 1: statement expected, found end of stream",
    ),
    "unterminated_statement": (
        "if (ok) h();\nif (a) f()",
        "skipped if-statement at line 2, column 1: unterminated statement",
    ),
    "do_at_end": (
        "if (ok) h();\nif (a) do f(); while",
        "skipped if-statement at line 2, column 1: unexpected end of token stream",
    ),
}


def mine(source):
    diagnostics = []
    records = mine_source(source, diagnostics=diagnostics)
    return [(r.code_text, " ".join(r.sbt_tokens)) for r in records], diagnostics


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_accepted_form(name):
    source, text, sbt = ACCEPTED[name]
    assert mine(source) == ([(text, sbt)], [])


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_candidate(name):
    source, diagnostic = REJECTED[name]
    ok = ("if (ok) h();", "( IfStatement ( ParExpr ( Name:ok ) Name:ok ) ParExpr ( Call:h ) Call:h ) IfStatement")
    assert mine(source) == ([ok], [diagnostic])

