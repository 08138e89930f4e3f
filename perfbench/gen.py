"""Seeded input generators for the benchmark.

Everything here is plain Python driven by ``random.Random(seed)`` and
imports nothing from ``satd_forge``: the inputs, and the answers the checks
expect, are made independently of the program under test.

* ``Node`` trees render to one-line Java if-statements and to the
  structure-based traversal (SBT) the package should produce for them.
* ``java_tree`` writes a multi-project Java source tree with planted
  if-chains and returns the counts the miner should report.
* ``sequence_corpus`` makes labelled SBT/comment records with lognormal
  lengths and a planted SATD signal, plus held-out Java lines.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

# -- keyword protocol (restated from the paper, not imported) ---------------

SATD_KEYWORDS = (
    "todo", "fixme", "hack", "workaround", "yuck", "ugly", "stupid",
    "nuke", "kludge", "retarded", "barf", "crap", "silly", "kaboom",
)
EXCLUSION_KEYWORDS = (
    "implement", "fix", "ineffici", "xxx", "broken", "ill", "should",
    "need", "here", "better", "why", "method", "could", "work", "probabl",
    "not", "move", "more", "make", "code", "but", "author",
)

# comment words that start with no keyword at all
PLAIN_WORDS = (
    "cache", "value", "buffer", "index", "parse", "stream", "lock", "retry",
    "timeout", "header", "payload", "cursor", "offset", "token", "queue",
    "flush", "reset", "limit", "range", "state", "event", "entry", "parent",
    "child", "order", "update", "delete", "insert", "select", "count",
)
DEBT_PHRASES = (
    "todo remove", "fixme later", "hack around", "workaround for", "ugly cast",
    "kludge to", "silly check", "todo clean",
)
EXCLUDED_PHRASES = ("should check", "need to", "not ready", "make sure", "could skip", "better way")

NAMES = (
    "count", "size", "buf", "idx", "limit", "state", "node", "key", "val",
    "total", "flag", "mode", "pos", "len", "res", "item", "cur", "next",
    "prev", "head", "tail", "depth", "width", "height", "offset", "cache",
)
CALLS = ("check", "load", "store", "reset", "flush", "update", "close", "open", "apply", "emit")
DEBT_CALLS = ("hackAround", "tempFix", "quickPatch")
LITERALS = ("0", "1", "2", "3", "10", "100", "null", "true", "false", '"x"')
BIN_OPS = ("==", "!=", "<", ">", "<=", ">=", "&&", "||", "+", "-", "*")
OPAQUE_STMTS = ("break;", "continue;", "int tmp = 0;", 'throw new IllegalStateException("bad");')


def lognormal_lengths(n: int, median: float, sigma: float, cap: int, rng: random.Random) -> list[int]:
    """n lengths at the fixed lognormal quantiles, in seeded order.

    Using quantiles instead of draws keeps the total work of every seed
    nearly the same, so run-to-run spread reflects the machine and not the
    seed.
    """
    normal = NormalDist()
    out = [
        max(1, min(cap, int(round(median * math.exp(sigma * normal.inv_cdf((i + 0.5) / n))))))
        for i in range(n)
    ]
    rng.shuffle(out)
    return out


# -- a miniature Java AST with its own SBT ---------------------------------


@dataclass
class Node:
    """One simplified-AST node plus the Java text that parses to it."""

    label: str
    children: tuple = ()
    java: str = ""

    def sbt(self) -> list[str]:
        out = ["(", self.label]
        for c in self.children:
            out.extend(c.sbt())
        out.extend([")", self.label])
        return out

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


def _name(rng) -> Node:
    n = rng.choice(NAMES)
    return Node(f"Name:{n}", java=n)


def _literal(rng) -> Node:
    lit = rng.choice(LITERALS)
    return Node(f"Literal:{lit}", java=lit)


def _call(rng, name: str | None = None, depth: int = 0) -> Node:
    name = name or rng.choice(CALLS)
    args = tuple(_expr(rng, depth + 1) for _ in range(rng.randint(0, 2)))
    return Node(f"Call:{name}", args, f"{name}({', '.join(a.java for a in args)})")


def _expr(rng, depth: int = 0) -> Node:
    r = rng.random()
    if depth >= 2 or r < 0.35:
        return _name(rng) if rng.random() < 0.6 else _literal(rng)
    if r < 0.75:
        op = rng.choice(BIN_OPS)
        lhs, rhs = _expr(rng, depth + 1), _expr(rng, depth + 1)
        return Node(f"BinaryOp:{op}", (lhs, rhs), f"({lhs.java}) {op} ({rhs.java})")
    if r < 0.85:
        inner = _expr(rng, depth + 1)
        return Node("UnaryOp:!", (inner,), f"!({inner.java})")
    return _call(rng, depth=depth)


def _statement(rng, depth: int, budget: int) -> Node:
    r = rng.random()
    if depth < 2 and budget > 12 and r < 0.12:
        return if_statement(rng, budget // 2, depth + 1)
    if r < 0.45:
        target = _name(rng)
        value = _expr(rng, 1)
        return Node("Assign", (target, value), f"{target.java} = {value.java};")
    if r < 0.7:
        call = _call(rng, depth=1)
        return Node(call.label, call.children, call.java + ";")
    if r < 0.85:
        value = _expr(rng, 1)
        return Node("Return", (value,), f"return {value.java};")
    return Node("Stmt", java=rng.choice(OPAQUE_STMTS))


def block(stmts: list[Node]) -> Node:
    return Node("Block", tuple(stmts), "{ " + " ".join(s.java for s in stmts) + " }")


def if_statement(rng, nodes: int, depth: int = 0, marker: Node | None = None) -> Node:
    """An if-statement of roughly `nodes` AST nodes; `marker` (an
    expression statement) is placed first in the then-block."""
    cond = _expr(rng)
    stmts = [marker] if marker is not None else []
    used = 3 + cond.size() + sum(s.size() for s in stmts)
    while used < nodes or not stmts:
        s = _statement(rng, depth, nodes - used)
        stmts.append(s)
        used += s.size()
    then = block(stmts)
    children = [Node("ParExpr", (cond,)), then]
    text = f"if ({cond.java}) {then.java}"
    if depth == 0 and rng.random() < 0.25:
        other = block([_statement(rng, 2, 0)])
        children.append(other)
        text += f" else {other.java}"
    return Node("IfStatement", tuple(children), text)


def debt_marker(rng) -> Node:
    call = _call(rng, name=rng.choice(DEBT_CALLS), depth=1)
    return Node(call.label, call.children, call.java + ";")


# -- labelled sequence corpora (detect / generate) -------------------------


@dataclass
class SequenceCorpus:
    records: list[dict]  # JSONL rows in the corpus schema
    heldout_lines: list[str]  # one-line Java if-statements
    heldout_labels: list[int]
    heldout_sbt: list[list[str]]


def _comment_for(rng, satd: bool, marker: str | None) -> list[str]:
    if satd:
        # the debt call decides the phrase, so the generator has a mapping to learn
        lead = DEBT_PHRASES[DEBT_CALLS.index(marker) if marker else rng.randrange(len(DEBT_PHRASES))]
        words = lead.split()
    else:
        words = [rng.choice(PLAIN_WORDS)]
    words += [rng.choice(PLAIN_WORDS) for _ in range(rng.randint(1, 4))]
    return words


def _labelled_if(rng, nodes: int, satd: bool):
    # the planted signal: most SATD code calls a debt helper, little else does
    marker = None
    if rng.random() < (0.9 if satd else 0.05):
        marker = debt_marker(rng)
    tree = if_statement(rng, nodes, marker=marker)
    return tree, (marker.label.split(":", 1)[1] if marker is not None else None)


SEQ_SIGMA = 0.9
SEQ_CAP = 1500  # the dataset's code-length cap
PROJECTS = 4


def sequence_corpus(seed: int, n_train: int, n_heldout: int, satd_share: float = 0.5,
                    median: float = 65.0) -> SequenceCorpus:
    # The layout (each row's length and label) is the same for every seed, so
    # batches pad alike and folds split alike; the seed draws the content.
    layout = random.Random(f"layout-{n_train}-{n_heldout}")
    lengths = lognormal_lengths(n_train, median, SEQ_SIGMA, SEQ_CAP, layout)
    lengths += lognormal_lengths(n_heldout, median, SEQ_SIGMA, SEQ_CAP, layout)
    n_satd = int(round(n_train * satd_share))
    labels = [1] * n_satd + [0] * (n_train - n_satd)
    held = [1] * (n_heldout // 2) + [0] * (n_heldout - n_heldout // 2)
    layout.shuffle(labels)
    layout.shuffle(held)
    rng = random.Random(seed)
    records, lines, held_sbt = [], [], []
    for k, length in enumerate(lengths):
        satd = bool(labels[k]) if k < n_train else bool(held[k - n_train])
        tree, marker = _labelled_if(rng, max(6, length // 4), satd)
        sbt = tree.sbt()
        while len(sbt) > SEQ_CAP:  # rare: the tail of the statement mix overshot
            tree, marker = _labelled_if(rng, max(6, length // 8), satd)
            sbt = tree.sbt()
        if k < n_train:
            words = _comment_for(rng, satd, marker)
            records.append({
                "project": f"proj{k % PROJECTS}",
                "path": f"proj{k % PROJECTS}/Gen{k}.java",
                "span": [0, len(tree.java)],
                "column": 1,
                "code_text": tree.java,
                "sbt_tokens": sbt,
                "comment_raw": "// " + " ".join(words),
                "comment_words": words,
                "label": "SATD" if satd else "NonSATD",
            })
        else:
            lines.append(tree.java)
            held_sbt.append(sbt)
    return SequenceCorpus(records, lines, held, held_sbt)


def write_records(path: Path, records: list[dict], meta: dict):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"_meta": meta}) + "\n")
        for r in records:
            f.write(json.dumps(r) + "\n")


# -- the Java source tree (mine) -------------------------------------------


@dataclass
class TreePlan:
    """What the miner should find in a generated tree."""

    files: int = 0
    bytes: int = 0
    labels: dict = field(default_factory=lambda: {"SATD": 0, "NonSATD": 0, "Excluded": 0, "Unlabeled": 0})
    tag_labels: dict = field(default_factory=dict)  # chain tag -> label
    multi_comment_drops: int = 0
    skipped_candidates: int = 0
    duplicates: int = 0  # SATD/NonSATD records identical to an earlier one
    overlong: int = 0  # unique labelled records whose SBT exceeds the cap
    satd_kept: int = 0
    nonsatd_kept: int = 0


# share of a file's ordinary if-chains that carry a linked comment
COMMENT_DENSITIES = (0.5, 0.75, 0.95)


class _JavaWriter:
    def __init__(self, rng: random.Random, plan: TreePlan):
        self.rng = rng
        self.plan = plan
        self.tag = 0
        self.repeatable: list[tuple[str, str, str]] = []  # (comment, chain, label)
        self.density = COMMENT_DENSITIES[0]

    def comment_text(self, kind: str) -> str:
        rng = self.rng
        if kind == "SATD":
            words = DEBT_PHRASES[rng.randrange(len(DEBT_PHRASES))].split()
        elif kind == "Excluded":
            words = EXCLUDED_PHRASES[rng.randrange(len(EXCLUDED_PHRASES))].split()
        else:
            words = [rng.choice(PLAIN_WORDS)]
        words += [rng.choice(PLAIN_WORDS) for _ in range(rng.randint(1, 5))]
        text = " ".join(words)
        if rng.random() < 0.3:
            return f"/* {text} */"
        return f"// {text}"

    def chain(self, indent: str, nodes: int) -> str:
        """A tagged if-chain over several lines; the tag keeps it unique."""
        self.tag += 1
        rng = self.rng
        tree = if_statement(rng, nodes)
        inner = indent + "    "
        body = "\n".join(inner + s.java for s in tree.children[1].children)
        text = f"if (tag{self.tag} > {rng.randint(0, 9)}) {{\n{body}\n{indent}}}"
        if rng.random() < 0.3:
            text += f" else if ({tree.children[0].children[0].java}) {{\n{inner}{_call(rng, depth=1).java};\n{indent}}}"
        if rng.random() < 0.2:
            text += f" else {{\n{inner}return;\n{indent}}}"
        return text

    def planted(self, indent: str) -> str:
        """One outermost chain with its leading comment lines."""
        rng = self.rng
        plan = self.plan
        r = rng.random()
        if r < 0.03 and self.repeatable:
            comment, chain, label = rng.choice(self.repeatable)
            plan.duplicates += 1
            plan.labels[label] += 1
            return f"{indent}{comment}\n{indent}{chain}"
        if r < 0.06:
            plan.skipped_candidates += 1
            self.tag += 1
            return f"{indent}if (tag{self.tag} > 0) {{\n{indent}    emit(buf];\n{indent}}}"
        if r < 0.10:
            plan.multi_comment_drops += 1
            first, second = self.comment_text("NonSATD"), self.comment_text("SATD")
            return f"{indent}{first}\n{indent}{second}\n{indent}{self.chain(indent, 10)}"
        if r < 0.115:
            # SBT far beyond the 1500-token cap: about 120 five-node statements
            self.tag += 1
            body = "\n".join(f"{indent}    v{self.tag} = v{self.tag} + {k};" for k in range(120))
            chain = f"if (tag{self.tag} > 0) {{\n{body}\n{indent}}}"
            plan.labels["NonSATD"] += 1
            plan.overlong += 1
            plan.tag_labels[f"tag{self.tag}"] = "NonSATD"
            return f"{indent}{self.comment_text('NonSATD')}\n{indent}{chain}"
        nodes = max(6, min(60, int(rng.lognormvariate(math.log(14), 0.6))))
        chain = self.chain(indent, nodes)
        tag = f"tag{self.tag}"
        if rng.random() >= self.density:
            label = "Unlabeled"
            lead = ""
            if rng.random() < 0.3:  # a trailing comment at another column does not link
                lead = f"{indent}cur = next; {self.comment_text('SATD')}\n"
            plan.labels[label] += 1
            plan.tag_labels[tag] = label
            return f"{lead}{indent}{chain}"
        r = rng.random()
        label = "SATD" if r < 0.25 else ("Excluded" if r < 0.40 else "NonSATD")
        comment = self.comment_text(label)
        plan.labels[label] += 1
        plan.tag_labels[tag] = label
        if label == "SATD":
            plan.satd_kept += 1
        elif label == "NonSATD":
            plan.nonsatd_kept += 1
        if label in ("SATD", "NonSATD"):
            self.repeatable.append((comment, chain, label))
        return f"{indent}{comment}\n{indent}{chain}"

    def method(self, k: int, budget: int) -> str:
        rng = self.rng
        lines = [f"    /** Handles step {k}. */", f"    public int step{k}(int a, int b) {{"]
        used = 0
        while used < budget:
            r = rng.random()
            if r < 0.45:
                depth = rng.randint(0, 2)
                indent = "        " + "    " * depth
                opener = [
                    "for (int i = 0; i < a; i++) {",
                    "while (b > 0) {",
                    "try {",
                ][:depth]
                chunk = [("        " + "    " * d) + o for d, o in enumerate(opener)]
                chunk.append(self.planted(indent))
                for d in range(depth - 1, -1, -1):
                    pad = "        " + "    " * d
                    if opener[d] == "try {":
                        chunk.append(pad + "} catch (RuntimeException e) {\n" + pad + "    b--;\n" + pad + "}")
                    elif opener[d].startswith("while"):
                        chunk.append(pad + "    b--;\n" + pad + "}")
                    else:
                        chunk.append(pad + "}")
                text = "\n".join(chunk)
            elif r < 0.7:
                text = f"        {_name(rng).java} = {_expr(rng, 1).java}; // {rng.choice(PLAIN_WORDS)}"
            else:
                text = f"        {_call(rng, depth=1).java};"
            lines.append(text)
            used += len(text) + 1
        lines.append("        return a;")
        lines.append("    }")
        return "\n".join(lines)

    def file(self, package: str, cls: str, size: int) -> str:
        self.density = self.rng.choice(COMMENT_DENSITIES)
        parts = [
            f"package {package};",
            "",
            "import java.util.List;",
            "",
            f"/* Generated class {cls}. */",
            f"public class {cls} {{",
            "    private int count = 0;",
        ]
        used = sum(len(p) + 1 for p in parts)
        k = 0
        while used < size:
            m = self.method(k, min(2500, max(200, size - used)))
            parts.append(m)
            used += len(m) + 1
            k += 1
        parts.append("}")
        return "\n".join(parts) + "\n"


def java_tree(root: Path, seed: int, projects: int = 6, files_per_project: int = 20,
              median_bytes: int = 6000) -> TreePlan:
    """Write a Java tree under `root` and return what mining it should find."""
    rng = random.Random(seed)
    plan = TreePlan()
    writer = _JavaWriter(rng, plan)
    sizes = lognormal_lengths(projects * files_per_project, median_bytes, 0.8, 60000, rng)
    for p in range(projects):
        pdir = root / f"project{p}" / "src"
        pdir.mkdir(parents=True, exist_ok=True)
        for f in range(files_per_project):
            text = writer.file(f"org.p{p}", f"Unit{f}", sizes[p * files_per_project + f])
            data = text.encode("utf-8")
            (pdir / f"Unit{f}.java").write_bytes(data)
            plan.files += 1
            plan.bytes += len(data)
    return plan


# -- inputs for the operations that fail today -----------------------------


def deep_paren_source() -> str:
    cond = "(" * 100 + "a" + ")" * 100
    return f"class P {{ void m() {{ if ({cond}) {{ f(); }} }} }}\n"


def deep_if_source() -> str:
    return "class D { void m() { " + "if (a) " * 400 + "f(); } }\n"


LATIN1_SOURCE = "class L { void m() { // caf\xe9\n if (a) { f(); } } }\n".encode("latin-1")
